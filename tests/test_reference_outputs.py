"""Both benchmark workloads at seed 0 against their stored reference outputs.

Every invocation of ``perfbench/workloads.py`` at seed 0 runs in process
from the config file the benchmark would write, and
``perfbench.checks.check_output`` compares its CSV with
``perfbench/reference/<workload>/<invocation>.csv.gz`` within the
benchmark's tolerance.  A change that moves a stored result fails here,
before a benchmark run.  The regression sweep's CSVs are also written at
several draw-thread counts, and must be byte-identical.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.checks import check_output  # noqa: E402
from perfbench.workloads import WORKLOADS, config_text  # noqa: E402

from alphapost import cli, regression  # noqa: E402

REFERENCE = ROOT / "perfbench" / "reference"
# The seed at which the references are stored.
SEED = 0

INVOCATIONS = [(workload, inv) for workload, make in WORKLOADS.items() for inv in make(SEED)]


@pytest.mark.parametrize("workload, inv", INVOCATIONS, ids=[f"{w}/{inv.name}" for w, inv in INVOCATIONS])
def test_seed_0_output_matches_the_reference(tmp_path, capsys, workload, inv):
    config = tmp_path / f"{inv.name}.cfg"
    config.write_text(config_text(inv.config))
    out = tmp_path / "out"
    assert cli.main([inv.experiment, "--config", str(config), "--out", str(out)]) == 0, capsys.readouterr().err
    reference = REFERENCE / workload / f"{inv.name}.csv.gz"
    assert reference.is_file()
    _, problems = check_output(inv.experiment, inv.config, out / f"{inv.experiment}.csv", reference)
    assert problems == []


def test_regression_sweep_outputs_do_not_depend_on_the_draw_threads(tmp_path, monkeypatch):
    def outputs(workers):
        if workers is not None:
            monkeypatch.setattr(regression, "_draw_workers", lambda normals: workers)
        out = tmp_path / f"workers-{workers}"
        for inv in WORKLOADS["regression-sweep"](SEED):
            config = tmp_path / f"{inv.name}.cfg"
            config.write_text(config_text(inv.config))
            assert cli.main([inv.experiment, "--config", str(config), "--out", str(out)]) == 0
        return {path.name: path.read_bytes() for path in out.glob("*.csv")}

    default = outputs(None)
    assert len(default) == 7
    for workers in (1, 3):
        assert outputs(workers) == default, workers
