"""Tests of the benchmark's own machinery: tracer, output checks, import-time parser.

Run with ``python -m pytest perfbench/tests``.
"""

import csv
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import alphapost
from alphapost.experiments import ExperimentConfig, run_and_write
from alphapost.regression import misspec_scenario
from alphapost.robustness import limit_alpha_star
from perfbench import checks, run
from perfbench.tracing import TARGETS, Tracer, parse_importtime, per_layer_metric_names
from perfbench.workloads import WORKLOADS, Invocation, config_text

ROOT = Path(__file__).resolve().parents[2]


def _bindings():
    """Every attribute of every alphapost module and of the traced classes, by identity."""
    owners = [m for name, m in sys.modules.items() if name.startswith("alphapost")]
    owners += [alphapost.GaussianDist, alphapost.GridDensity]
    return {(id(owner), attr): value for owner in owners for attr, value in vars(owner).items()}


def test_tracer_rebinds_every_importer_and_restores_every_name():
    before = _bindings()
    with Tracer() as tracer:
        assert alphapost.robustness.kl_gaussian is alphapost.experiments.kl_gaussian
        assert alphapost.robustness.kl_gaussian is not before[(id(alphapost.gaussians), "kl_gaussian")]
        assert alphapost.kl_gaussian is alphapost.gaussians.kl_gaussian
        alphapost.hellinger_sq_gaussian(alphapost.GaussianDist([0.0], [[1.0]]), alphapost.GaussianDist([1.0], [[2.0]]))
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    # Three constructions (two by the caller, the averaged one inside), then
    # the divergence; the inner construction is the divergence's child.
    names = [span[0] for span in tracer.spans]
    assert names == ["gaussians.GaussianDist"] * 2 + ["gaussians.hellinger_sq_gaussian", "gaussians.GaussianDist"]
    assert tracer.spans[3][3] == 2 and tracer.spans[2][3] == -1
    metrics = tracer.metrics()
    assert metrics["gaussians.GaussianDist.calls"] == 3
    assert metrics["gaussians.hellinger_sq_gaussian.calls"] == 1
    total = tracer.spans[2][2] - tracer.spans[2][1]
    assert metrics["gaussians.hellinger_sq_gaussian.self_s"] == pytest.approx(
        total - (tracer.spans[3][2] - tracer.spans[3][1])
    )


def test_tracer_restores_names_when_the_traced_code_raises():
    before = _bindings()
    with pytest.raises(ValueError):
        with Tracer() as tracer:
            alphapost.GaussianDist([0.0], [[-1.0]])
    assert tracer.spans[0][5] is False
    after = _bindings()
    assert all(after[key] is value for key, value in before.items())


def test_every_target_exists():
    for layer, _, path in TARGETS:
        owner = sys.modules[f"alphapost.{layer}"]
        for part in path.split("."):
            owner = getattr(owner, part)
        assert callable(owner)


@pytest.fixture
def bvm_output(tmp_path):
    config = {"seed": 3, "replications": 2, "n_grid": [50, 200], "alphas": [0.5, 1.0], "grid_points": 201,
              "eps": 1.0, "theta0": [1.0], "gamma0": [1.0], "sigma_eps": 1.0,
              "cov_ww": [[1.0]], "cov_wz": [[0.5]], "cov_zz": [[1.0]]}
    path = tmp_path / "bvm.cfg"
    path.write_text(config_text(config))
    cfg = ExperimentConfig.from_file(path)
    cfg.out = str(tmp_path)
    csv_path, _ = run_and_write(cfg, "bvm-convergence")
    return config, csv_path


def _rewrite(path: Path, edit) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows = edit(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def test_checks_pass_a_good_csv(bvm_output):
    config, csv_path = bvm_output
    assert checks.check_output("bvm-convergence", config, csv_path) == (8, [])


@pytest.mark.parametrize(
    "edit",
    [
        lambda rows: rows[:1] + [[*rows[1][:3], "nan", rows[1][4]]] + rows[2:],
        lambda rows: rows[:1] + [[*rows[1][:4], "-0.5"]] + rows[2:],
        lambda rows: rows[:1] + [[*rows[1][:3], "1.5", rows[1][4]]] + rows[2:],
        lambda rows: rows[:1] + [[*rows[1][:3], "0.9", "1e-6"]] + rows[2:],
        lambda rows: rows[:1] + [[*rows[1][:3], "abc", rows[1][4]]] + rows[2:],
    ],
    ids=["non-finite", "negative-kl", "tv-above-one", "pinsker", "not-a-number"],
)
def test_checks_catch_a_corrupted_csv(bvm_output, edit):
    config, csv_path = bvm_output
    _rewrite(csv_path, edit)
    _, problems = checks.check_output("bvm-convergence", config, csv_path)
    assert problems


def test_checks_catch_a_wrong_row_count_and_header(bvm_output):
    config, csv_path = bvm_output
    _rewrite(csv_path, lambda rows: rows[:-1])
    rows, problems = checks.check_output("bvm-convergence", config, csv_path)
    assert rows == 7 and problems == ["7 rows, expected 8"]
    _rewrite(csv_path, lambda rows: [["n", "rep", "alpha", "kl", "tv"]] + rows[1:])
    assert checks.check_output("bvm-convergence", config, csv_path)[1]


def test_checks_compare_with_the_reference(bvm_output, tmp_path):
    config, csv_path = bvm_output
    reference = tmp_path / "ref" / "bvm-convergence.csv.gz"
    checks.write_reference(csv_path, reference)
    assert checks.check_output("bvm-convergence", config, csv_path, reference)[1] == []
    _rewrite(csv_path, lambda rows: rows[:1] + [[*rows[1][:4], repr(float(rows[1][4]) + 1e-7)]] + rows[2:])
    assert checks.check_output("bvm-convergence", config, csv_path, reference)[1] == []
    _rewrite(csv_path, lambda rows: rows[:1] + [[*rows[1][:4], repr(float(rows[1][4]) + 1e-4)]] + rows[2:])
    assert checks.check_output("bvm-convergence", config, csv_path, reference)[1]


def test_alpha_star_recomputation_matches_the_library():
    config = WORKLOADS["regression-sweep"](5)[0].config
    cfg = ExperimentConfig(**config)
    want = limit_alpha_star(misspec_scenario(cfg.dgp(), cfg.eps))
    assert checks.limit_alpha_star(config) == pytest.approx(want, rel=1e-12)


def test_workloads_are_deterministic_in_the_seed():
    for make in WORKLOADS.values():
        assert make(4) == make(4)
        assert all(isinstance(inv, Invocation) for inv in make(4))
    assert WORKLOADS["regression-sweep"](4) != WORKLOADS["regression-sweep"](5)


IMPORTTIME = """\
import time: self [us] | cumulative | imported package
import time:       929 |     242112 |               scipy.optimize
import time:       975 |     741696 |       scipy.interpolate
import time:      8209 |     830690 |     alphapost.gaussians
import time:      1483 |     499437 |         scipy.stats
import time:       779 |    1356302 |   alphapost
import time:       835 |    1366674 | alphapost.cli
"""


def test_importtime_parser_reads_the_scipy_lines():
    assert parse_importtime(IMPORTTIME) == {
        "cli.import_s": 1.366674,
        "cli.import.scipy_stats_s": 0.499437,
        "cli.import.scipy_interpolate_s": 0.741696,
        "cli.import.scipy_optimize_s": 0.242112,
    }


def test_importtime_parser_reports_zero_for_modules_never_imported():
    text = "import time: self [us] | cumulative | imported package\nimport time:   10 |   20 | alphapost.cli\n"
    assert parse_importtime(text)["cli.import.scipy_stats_s"] == 0.0
    assert parse_importtime(text)["cli.import_s"] == 20e-6


def test_benchmark_json_lists_what_the_benchmark_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END.items())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == per_layer_metric_names()


def test_reference_exists_for_every_invocation():
    for workload, make in WORKLOADS.items():
        for inv in make(run.DEFAULT_SEED):
            assert (run.REFERENCE / workload / f"{inv.name}.csv.gz").is_file()


def _sample(wall_s, compute_s=0.0, rows=10):
    return run.Sample(wall_s=wall_s, cpu_s=wall_s, peak_rss_mb=100.0 + wall_s, compute_s=compute_s, rows=rows)


def test_launches_go_round_robin_while_the_next_one_fits(monkeypatch):
    walls = [1.0, 3.0]
    monkeypatch.setattr(run, "timed_launch", lambda _, k: _sample(walls[k]))
    monkeypatch.setattr(run, "setup_launch", lambda _: 0.0)
    samples, setup = run.timed_samples(SimpleNamespace(invocations=[None, None]), seconds=2.5)
    # One full round, then the 1-second invocation fits again and the 3-second one does not.
    assert [len(s) for s in samples] == [2, 1]
    assert setup == [0.0] * run.SETUP_LAUNCHES


def test_setup_launches_are_spread_over_the_run(monkeypatch):
    clock = [0.0]
    events = []

    def launch(_, k):
        clock[0] += 1.0
        events.append(k)
        return _sample(1.0)

    def setup(_):
        clock[0] += 0.5
        events.append("setup")
        return 0.5

    monkeypatch.setattr(run.time, "perf_counter", lambda: clock[0])
    monkeypatch.setattr(run, "timed_launch", launch)
    monkeypatch.setattr(run, "setup_launch", setup)
    monkeypatch.setattr(run, "SETUP_LAUNCHES", 3)
    samples, walls = run.timed_samples(SimpleNamespace(invocations=[None]), seconds=6.0)
    # One set-up launch every 2 s of invocation time; their 0.5 s each is not counted.
    assert events == ["setup", 0, 0, "setup", 0, 0, "setup", 0, 0]
    assert len(samples[0]) == 6 and walls == [0.5] * 3


def test_end_to_end_sums_each_invocations_fastest_launch(monkeypatch, tmp_path):
    samples = [[_sample(2.0, 1.0), _sample(1.5, 1.2), _sample(3.0, 0.9)], [_sample(4.0, 2.0, rows=30)]]
    monkeypatch.setattr(run, "timed_samples", lambda *_: (samples, [1.5, 1.25, 1.0]))
    fake = SimpleNamespace(
        work=tmp_path,
        invocations=[(SimpleNamespace(name="a"), None, None), (SimpleNamespace(name="b"), None, None)],
    )
    metrics = run.end_to_end(fake, seconds=1.0)
    assert metrics["wall_s"] == 5.5 and metrics["cpu_s"] == 5.5
    assert metrics["compute_s"] == pytest.approx(2.9)
    assert metrics["rows_per_s"] == 40 / 5.5
    assert metrics["peak_rss_mb"] == 104.0
    assert metrics["setup_s"] == 1.25
    assert len((tmp_path / "launches.csv").read_text().splitlines()) == 1 + 4
