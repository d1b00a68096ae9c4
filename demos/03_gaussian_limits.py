"""Large-sample Gaussian limits of tempered posteriors.

With a non-conjugate (Laplace) prior the tempered posterior has no closed
form, but as n grows it approaches N(theta_hat, V^{-1}/(alpha n)): the
total variation gap shrinks, and tempering only widens the limit's
covariance, never moves its center.  The failure mode is also shown: if the
tempering vanishes like 1/n the gap stalls at a positive value.
"""

import numpy as np

from alphapost import (
    ConjugatePrior,
    GridDensity,
    RegressionDGP,
    SufficientStats,
    derived_seed,
    failure_case_hellinger,
    default_grid_axis,
    gaussian_bvm_limit,
    grid_alpha_posterior,
    ols,
    regression_likelihood,
    tv_grid,
)
from alphapost.experiments import laplace_log_prior

alpha = 0.5
print("      n   median TV(posterior, Gaussian limit)")
for n in (50, 200, 1000, 5000):
    gaps = []
    for rep in range(30):
        rng = np.random.default_rng(derived_seed(2024, n, rep))
        x = rng.standard_normal(n)
        # N(theta, 1) location data are a regression on one constant column,
        # whose statistics are n, the sum and the sum of squares.
        stats = SufficientStats(n, [[n, x.sum()], [x.sum(), x @ x]])
        theta_hat = ols(stats)
        grid = default_grid_axis(theta_hat[0], 1.0, n, alpha)
        post = grid_alpha_posterior(regression_likelihood(stats, 1.0), laplace_log_prior(), alpha, grid)
        limit = GridDensity.from_gaussian(gaussian_bvm_limit(theta_hat, [[1.0]], n, alpha), grid)
        gaps.append(tv_grid(post, limit))
    print(f"{n:7d}   {np.median(gaps):.5f}")

# Vanishing tempering alpha_n = 1/n: the posterior no longer matches the
# would-be limit, and the squared Hellinger gap settles above zero.
dgp = RegressionDGP(
    theta0=[1.0], gamma0=[1.0], sigma_eps=1.0, cov_ww=[[1.0]], cov_wz=[[0.5]], cov_zz=[[1.0]],
    sigma_u=1.0,
)
prior = ConjugatePrior([0.0], [[1.0]])
h2 = failure_case_hellinger(dgp, prior, alpha0=1.0, n_grid=[10**3, 10**4, 10**5], seed=5)[:, 0]
print("vanishing tempering H^2 gaps:", np.round(h2, 5), " (stalls above zero)")
