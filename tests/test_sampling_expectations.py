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

* ``bvm-convergence`` at p = 1: tv = TV(N(0, 1), N(0, n / c)) with
  c = W'W / cov_ww ~ chi^2_n, whose expectation is an integral over the
  chi^2_n density.

None depends on alpha or on the rest of the design.  The replication
mean must lie within 4 standard errors of its expectation, and rows that
differ only in alpha must agree.

With the full prior flat too (``full_prior_sigma`` all zeros), each
``surrogate-fidelity`` ``r_exact`` is a closed form in its own sample,
(alpha A - p log alpha + B) / 2, checked row by row.
"""

import numpy as np
import pytest
from scipy import integrate
from scipy.special import digamma
from scipy.stats import chi2, norm

from alphapost.experiments import ExperimentConfig, run_experiment
from alphapost.posteriors import ConjugatePrior
from alphapost.regression import derived_seeds, ols, simulate_stats, true_posterior_theta

REPLICATIONS = 4000
ALPHAS = [0.5, 1.0]
# A p = 2 design with a correlated cov_ww; d = 1.
P2_DESIGN = {"theta0": [1.0, 0.5], "cov_ww": [[1.0, 0.6], [0.6, 2.0]], "cov_wz": [[0.5], [0.2]]}


def bvm_expected_kl(n, p):
    psi = sum(digamma((n - i + 1) / 2.0) for i in range(1, p + 1))
    return 0.5 * (n * p / (n - p - 1) - p - p * np.log(n) + psi + p * np.log(2.0))


def vbvm_expected_kl(n, p):
    return 0.5 * p * (n / (n - 2.0) - 1.0 - np.log(n) + digamma(n / 2.0) + np.log(2.0))


def gaussian_tv(r):
    # TV(N(0, 1), N(0, r)): the densities cross at +-x, x^2 = r log r / (r - 1).
    x = np.sqrt(r * np.log(r) / (r - 1.0))
    return 2.0 * abs(norm.cdf(x) - norm.cdf(x / np.sqrt(r)))


def bvm_expected_tv(n):
    # E TV(N(0, 1), N(0, n / c)) over c ~ chi^2_n, split at c = n, where the
    # TV vanishes: quad takes no break points on an infinite range.
    def integrand(c):
        return gaussian_tv(n / c) * chi2.pdf(c, n)

    return integrate.quad(integrand, 0.0, n)[0] + integrate.quad(integrand, n, np.inf)[0]


def flat_prior_config(**config):
    p = len(config.get("theta0", [1.0]))
    config = {"seed": 17, "replications": REPLICATIONS, "alphas": ALPHAS, **config}
    return ExperimentConfig(mu_pi=[0.0] * p, sigma_pi=np.zeros((p, p)).tolist(), **config)


def flat_prior_rows(experiment, **config):
    columns, rows = run_experiment(flat_prior_config(**config), experiment)
    return columns, np.array(rows, dtype=float)


def check_cells(columns, rows, n_grid, expected, column="kl"):
    at = columns.index(column)
    for n in n_grid:
        at_n = [rows[(rows[:, 0] == n) & (rows[:, 2] == alpha)] for alpha in ALPHAS]
        values = at_n[0][:, at]
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
    columns, rows = flat_prior_rows("vbvm-convergence", n_grid=n_grid, **P2_DESIGN)
    check_cells(columns, rows, n_grid, lambda n: vbvm_expected_kl(n, 2))


def test_bvm_tv_has_its_chi_square_expectation():
    n_grid = [20, 50, 200]
    columns, rows = flat_prior_rows("bvm-convergence", n_grid=n_grid)
    check_cells(columns, rows, n_grid, bvm_expected_tv, column="tv")


@pytest.mark.parametrize("design", [{}, P2_DESIGN], ids=["p1", "p2"])
def test_surrogate_r_exact_is_its_flat_prior_closed_form(design):
    # KL(N(mu_T, S_T) || N(theta_hat, s^2 (W'W)^-1 / alpha)) with weight
    # eps / n, plus KL(N(theta_hat, s^2 (W'W)^-1) || the same) with the rest:
    # A = eps_n [tr(W'W S_T) + (theta_hat - mu_T)' W'W (theta_hat - mu_T)] / s^2 + (1 - eps_n) p,
    # B = eps_n [log det(s^2 (W'W)^-1) - log det S_T - p] - (1 - eps_n) p.
    n_grid, alphas, reps = [30, 400], [0.2, 0.6, 1.0, 1.7], 50
    p = len(design.get("theta0", [1.0]))
    k = p + 1
    cfg = flat_prior_config(
        replications=reps, n_grid=n_grid, alphas=alphas, eps=2.0, full_prior_sigma=np.zeros((k, k)).tolist(), **design
    )
    columns, rows = run_experiment(cfg, "surrogate-fidelity")
    r_exact = np.array([row[columns.index("r_exact")] for row in rows]).reshape(len(n_grid), reps, len(alphas))
    dgp, full_prior = cfg.dgp(), ConjugatePrior(np.zeros(k), np.zeros((k, k)))
    s2 = dgp.sigma_u**2
    for n, got in zip(n_grid, r_exact):
        stats = simulate_stats(dgp, n, derived_seeds(cfg.seed, n, replications=reps))
        w = stats.first_columns(p)
        true_post, _ = true_posterior_theta(stats, full_prior, dgp.sigma_eps, p)
        wtw, delta = w.xtx, ols(w) - true_post.mean
        eps_n = cfg.eps / n
        quad = np.einsum("ri,rij,rj->r", delta, wtw, delta)
        a = eps_n * (np.einsum("rij,rji->r", wtw, true_post.cov) + quad) / s2 + (1.0 - eps_n) * p
        log_det_post = np.linalg.slogdet(s2 * np.linalg.inv(wtw))[1]
        b = eps_n * (log_det_post - np.linalg.slogdet(true_post.cov)[1] - p) - (1.0 - eps_n) * p
        want = 0.5 * (np.outer(a, alphas) - p * np.log(alphas) + b[:, None])
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
