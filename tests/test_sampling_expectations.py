"""Replicated columns against their exact sampling expectations.

Under a flat prior (``sigma_pi`` all zeros) the tempered posterior and its
Gaussian limit share their mean, and the KL between them depends only on
W'W: with S0 = cov_ww^{-1/2} W'W cov_ww^{-1/2} ~ Wishart_p(n, I),

* ``bvm-convergence``: kl = (n tr(S0^{-1}) - p + log det(S0 / n)) / 2, with
  expectation (np / (n - p - 1) - p - p log n + sum_i psi((n - i + 1) / 2)
  + p log 2) / 2 (Muirhead 1982, *Aspects of Multivariate Statistical
  Theory*, ch. 3);
* ``vbvm-convergence``: a sum over coordinates of the same form in
  S_jj / cov_jj ~ chi^2_n, with expectation
  (p / 2) (n / (n - 2) - 1 - log n + psi(n / 2) + log 2).

Neither depends on alpha or on the rest of the design.  The replication
mean must lie within 4 standard errors of its expectation, and rows that
differ only in alpha must agree.
"""

import numpy as np
from scipy.special import digamma

from alphapost.experiments import ExperimentConfig, run_experiment

REPLICATIONS = 4000
ALPHAS = [0.5, 1.0]


def bvm_expected_kl(n, p):
    psi = sum(digamma((n - i + 1) / 2.0) for i in range(1, p + 1))
    return 0.5 * (n * p / (n - p - 1) - p - p * np.log(n) + psi + p * np.log(2.0))


def vbvm_expected_kl(n, p):
    return 0.5 * p * (n / (n - 2.0) - 1.0 - np.log(n) + digamma(n / 2.0) + np.log(2.0))


def flat_prior_rows(experiment, **config):
    p = len(config.get("theta0", [1.0]))
    cfg = ExperimentConfig(
        seed=17, replications=REPLICATIONS, alphas=ALPHAS, mu_pi=[0.0] * p, sigma_pi=np.zeros((p, p)).tolist(), **config
    )
    columns, rows = run_experiment(cfg, experiment)
    return columns, np.array(rows, dtype=float)


def check_cells(columns, rows, n_grid, expected):
    kl = columns.index("kl")
    for n in n_grid:
        at_n = [rows[(rows[:, 0] == n) & (rows[:, 2] == alpha)] for alpha in ALPHAS]
        values = at_n[0][:, kl]
        assert values.size == REPLICATIONS
        z = (values.mean() - expected(n)) / (values.std(ddof=1) / np.sqrt(values.size))
        assert abs(z) <= 4.0, (n, z)
        # Absolute: at n = 200 some KL values are about 1e-10, below a
        # relative tolerance's reach.
        for other in at_n[1:]:
            assert np.array_equal(other[:, 1], at_n[0][:, 1])
            assert np.max(np.abs(other[:, 3:] - at_n[0][:, 3:])) <= 1e-13, n


def test_bvm_kl_has_its_wishart_expectation():
    n_grid = [20, 50, 200]
    columns, rows = flat_prior_rows("bvm-convergence", n_grid=n_grid)
    check_cells(columns, rows, n_grid, lambda n: bvm_expected_kl(n, 1))


def test_vbvm_kl_has_its_chi_square_expectation():
    # At p = 2 with a correlated design.
    n_grid = [30, 300]
    columns, rows = flat_prior_rows(
        "vbvm-convergence",
        n_grid=n_grid,
        theta0=[1.0, 0.5],
        cov_ww=[[1.0, 0.6], [0.6, 2.0]],
        cov_wz=[[0.5], [0.2]],
    )
    check_cells(columns, rows, n_grid, lambda n: vbvm_expected_kl(n, 2))
