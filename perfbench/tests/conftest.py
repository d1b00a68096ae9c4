import sys
from pathlib import Path

# The benchmark package and the library sources, both from this checkout.
ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]
