"""Benchmark workloads: which experiments each one runs, on configs made from a seed.

Each workload is a list of invocations ``python -m alphapost <experiment>
--config <file>``.  The benchmark's ``--seed`` picks the experiments' master
seed and, where the results stay well defined, a few design values, so one
seed always gives the same configs and the program sees only those files.

Why these two:

* ``regression-sweep`` -- the p = 1 omitted-variable regression through all
  seven experiments at the README's grid of n and alphas, with 100
  replications where the README has 200, so that a 45-second run launches
  each experiment three or four times.  It builds thousands of tiny Gaussians, so
  per-object overhead in ``gaussians``, ``posteriors``, ``robustness`` and
  ``regression`` dominates, and the three single-shot experiments are almost
  pure interpreter and import start-up.
* ``grid-numerics`` -- the experiments that leave the closed forms for
  grids.  ``tv-2d.bvm-convergence`` runs a p = 2 design: few but huge calls
  to the 2-D ``tv_gaussian`` tensor quadrature (2001^2 nodes each), which is
  memory bound, with nothing to batch.  ``laplace.*`` runs both convergence
  experiments on the Laplace-prior location model: grid tabulation,
  ``kl_grid``/``tv_grid`` and the numeric mean-field projection, bypassing
  both the conjugate closed forms and 2-D quadrature.  The two are one
  workload, not two: with fewer workloads the benchmark's runs can be
  longer within its time limit, long enough to launch every invocation
  two or three times.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

EXPERIMENTS = (
    "surrogate-fidelity",
    "assumption-checks",
    "bvm-convergence",
    "vbvm-convergence",
    "robustness-curve",
    "optimal-alpha",
    "failure-case",
)

ALPHAS = [0.25, 0.5, 0.75, 1.0]


@dataclass(frozen=True)
class Invocation:
    """One CLI run: its name in the workload, the experiment and its config as ``key -> value``."""

    name: str
    experiment: str
    config: dict


def _format(value) -> str:
    if isinstance(value, list) and value and isinstance(value[0], list):
        return ";".join(_format(row) for row in value)
    if isinstance(value, list):
        return ",".join(_format(v) for v in value)
    return str(value)


def config_text(config: dict) -> str:
    """The flat ``key = value`` file the CLI reads."""
    return "".join(f"{key} = {_format(value)}\n" for key, value in config.items())


def _master_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(1, 2**31 - 1))


def regression_sweep(seed: int) -> list[Invocation]:
    rng = np.random.default_rng([seed, 1])
    config = {
        "seed": _master_seed(rng),
        "replications": 100,
        "n_grid": [50, 200, 1000, 5000, 10000],
        "alphas": ALPHAS,
        "eps": 1.0,
        "theta0": [1.0],
        "gamma0": [round(float(rng.uniform(0.5, 1.5)), 4)],
        "sigma_eps": 1.0,
        "cov_ww": [[1.0]],
        "cov_wz": [[round(float(rng.uniform(0.2, 0.6)), 4)]],
        "cov_zz": [[1.0]],
    }
    return [Invocation(name, name, config) for name in EXPERIMENTS]


def _tv_2d(seed: int) -> dict:
    rng = np.random.default_rng([seed, 2])
    return {
        "seed": _master_seed(rng),
        "replications": 1,
        "n_grid": [50, 200, 1000, 5000],
        "alphas": ALPHAS,
        "grid_points": 2001,
        "eps": 1.0,
        "theta0": [1.0, 0.5],
        "gamma0": [1.0],
        "sigma_eps": 1.0,
        "cov_ww": [[1.0, 0.3], [0.3, 1.0]],
        "cov_wz": [[0.5], [0.2]],
        "cov_zz": [[1.0]],
        "mu_pi": [0.0, 0.0],
        "sigma_pi": [[1.0, 0.0], [0.0, 1.0]],
    }


def _laplace(seed: int) -> dict:
    rng = np.random.default_rng([seed, 3])
    return {
        "seed": _master_seed(rng),
        "model": "laplace-location",
        "replications": 40,
        "n_grid": [50, 200, 1000, 5000],
        "alphas": ALPHAS,
        "grid_points": 2001,
        # The truth sits on the Laplace prior's kink, as in the default config.
        # Moving it away from the kink roughly halves the projection's
        # gradient evaluations, so it stays fixed and only the data vary.
        "theta_true": 0.0,
    }


def grid_numerics(seed: int) -> list[Invocation]:
    laplace = _laplace(seed)
    return [
        Invocation("tv-2d.bvm-convergence", "bvm-convergence", _tv_2d(seed)),
        Invocation("laplace.bvm-convergence", "bvm-convergence", laplace),
        Invocation("laplace.vbvm-convergence", "vbvm-convergence", laplace),
    ]


WORKLOADS = {
    "regression-sweep": regression_sweep,
    "grid-numerics": grid_numerics,
}
