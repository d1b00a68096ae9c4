import os
import sys
from pathlib import Path

# Make the sibling oracles module importable from every test file.
sys.path.insert(0, str(Path(__file__).parent))

# The Python subprocesses some tests start import the package from the source
# tree too, as the tests themselves do through pytest's pythonpath setting.
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
