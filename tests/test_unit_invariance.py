"""Every reported column is invariant under a change of W's units.

Rescaling W's coordinates by C (w -> C w) at p = 2 gives a twin config:
theta0 -> C^{-1} theta0, cov_ww -> C cov_ww C, cov_wz -> C cov_wz, and the
priors transformed to match (mu_pi -> C^{-1} mu_pi and the precision scale
sigma_pi -> C sigma_pi C; the full prior's theta block the same way).  A
sample is drawn as standard normals times a factor of the joint covariance,
so the same seed gives exactly the transformed sample, and the paper's
quantities (KL, TV, Hellinger, the tempering levels) must not move.

``assumption-checks``' ``lan_sup`` and ``markov_bound`` are the known
exceptions: the LAN defect's sup runs over a box in W's raw units, and the
Markov bound uses Euclidean norms (ROADMAP item 18).
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from alphapost.experiments import EXPERIMENTS, ExperimentConfig, run_experiment

UNIT_DEPENDENT = {"lan_sup", "markov_bound"}


def regression_config(c):
    # The p = 2, d = 1 regression with W's coordinates rescaled by diag(c).
    scale, inv = np.diag(c), np.diag(1.0 / np.asarray(c))
    full_scale, full_inv = np.diag([*c, 1.0]), np.diag([*(1.0 / np.asarray(c)), 1.0])
    full_sigma = np.array([[1.0, 0.2, 0.1], [0.2, 0.5, 0.0], [0.1, 0.0, 2.0]])
    return ExperimentConfig(
        seed=11,
        replications=4,
        n_grid=[50, 200],
        n=200,
        alphas=[0.5, 1.0],
        theta0=(inv @ [1.0, 0.5]).tolist(),
        gamma0=[1.0],
        cov_ww=(scale @ [[1.0, 0.3], [0.3, 1.0]] @ scale).tolist(),
        cov_wz=(scale @ [[0.5], [0.2]]).tolist(),
        cov_zz=[[1.0]],
        mu_pi=(inv @ [0.2, -0.1]).tolist(),
        sigma_pi=(scale @ [[1.0, 0.2], [0.2, 0.5]] @ scale).tolist(),
        full_prior_mu=(full_inv @ [0.2, -0.1, 0.3]).tolist(),
        full_prior_sigma=(full_scale @ full_sigma @ full_scale).tolist(),
    )


@pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
def test_every_column_is_invariant_under_a_change_of_units(experiment):
    columns, rows = run_experiment(regression_config([1.0, 1.0]), experiment)
    twin_columns, twin_rows = run_experiment(regression_config([3.0, 0.25]), experiment)
    assert twin_columns == columns
    if experiment == "assumption-checks":
        assert UNIT_DEPENDENT <= set(columns)
    rows, twin_rows = np.array(rows, dtype=float), np.array(twin_rows, dtype=float)
    assert rows.shape == twin_rows.shape
    for k, name in enumerate(columns):
        if name not in UNIT_DEPENDENT:
            assert_allclose(twin_rows[:, k], rows[:, k], rtol=1e-10, atol=0.0, err_msg=name)
