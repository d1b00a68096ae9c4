"""The traced benchmark's contract with the library.

``perfbench/tracing.py`` wraps the functions named in its ``TARGETS`` by
``getattr`` and binds the arguments of ``tv_gaussian`` by name, so renaming
or removing any of them would crash ``perfbench/run.py --trace 1``.  The
benchmark's 2-D TV pairs stay on the rule's early-stopping path.
"""

import importlib
import inspect
import math
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.tracing import TARGETS, Tracer  # noqa: E402
from perfbench.workloads import grid_numerics  # noqa: E402

from alphapost import experiments, gaussians  # noqa: E402
from alphapost.experiments import ExperimentConfig, run_experiment  # noqa: E402


def test_every_traced_target_resolves():
    for layer, _, path in TARGETS:
        owner = importlib.import_module(f"alphapost.{layer}")
        for attr in path.split("."):
            owner = getattr(owner, attr)
        assert callable(owner), f"alphapost.{layer}.{path}"


def test_tv_gaussian_keeps_the_counted_parameters():
    assert {"p", "budget", "method"} <= set(inspect.signature(gaussians.tv_gaussian).parameters)


def test_a_traced_run_counts_every_layer():
    cfg = ExperimentConfig(seed=3, replications=2, n_grid=[40, 80], alphas=[0.5, 1.0])
    with Tracer() as tracer:
        _, rows = run_experiment(cfg, "bvm-convergence")
    metrics = tracer.metrics()
    assert len(rows) == 8
    # The replications are drawn straight into their statistics.
    assert metrics["regression.simulate.calls"] == 0
    # One stacked posterior per sample size, and one stacked TV over all of them.
    assert metrics["posteriors.conjugate_alpha_posterior.calls"] == 2
    assert metrics["gaussians.tv_gaussian.calls"] == 1


def test_a_traced_laplace_projection_counts_the_grid_work():
    cfg = ExperimentConfig(
        seed=3, replications=2, n_grid=[40, 80], alphas=[0.5, 1.0], model="laplace-location", grid_points=301
    )
    with Tracer() as tracer:
        _, rows = run_experiment(cfg, "vbvm-convergence")
    metrics = tracer.metrics()
    assert len(rows) == 8
    # One stacked grid posterior and one stacked projection per sample size,
    # each over every (rep, alpha) cell.
    calls = metrics["posteriors.grid_alpha_posterior.calls"]
    assert calls == len(cfg.n_grid)
    assert metrics["posteriors.grid_alpha_posterior.nodes"] == len(rows) * cfg.grid_points
    assert metrics["meanfield.gmf_project_numeric.calls"] == calls
    assert metrics["meanfield.gmf_project_numeric.grad_evals"] >= calls
    assert metrics["meanfield.gmf_project_numeric.failed"] == 0


def test_a_traced_laplace_bvm_run_tabulates_no_grid():
    # The location model's TV and KL are closed forms.
    cfg = ExperimentConfig(
        seed=3, replications=2, n_grid=[40, 80], alphas=[0.5, 1.0], model="laplace-location", grid_points=301
    )
    with Tracer() as tracer:
        _, rows = run_experiment(cfg, "bvm-convergence")
    metrics = tracer.metrics()
    assert len(rows) == 8
    for name in ("posteriors.grid_alpha_posterior", "gaussians.kl_grid", "gaussians.tv_grid"):
        assert metrics[f"{name}.calls"] == 0, name


def test_the_benchmark_2d_tv_pairs_stop_early_and_reach_the_rule(monkeypatch):
    # Every tv-2d.bvm-convergence pair at seed 0 has frame sds inside the
    # range where a pair may stop early, and a log Bhattacharyya coefficient
    # above the threshold under which tv_gaussian returns 1 without a rule.
    (invocation,) = [inv for inv in grid_numerics(0) if inv.name == "tv-2d.bvm-convergence"]
    pairs = []

    def recording(p, q, *args, **kwargs):
        pairs.append((p, q))
        return gaussians.tv_gaussian(p, q, *args, **kwargs)

    monkeypatch.setattr(experiments, "tv_gaussian", recording)
    _, rows = run_experiment(ExperimentConfig(**invocation.config), invocation.experiment)
    ((p, q),) = pairs
    assert len(p.mean) == len(rows) == 16
    mu, s = gaussians._tv_frame(p, q)
    low, high = gaussians._TV_NESTED_SD
    assert np.all((low <= s) & (s <= high))
    assert np.all(gaussians._log_bhattacharyya(mu, s) >= -54.0 * math.log(2.0))
