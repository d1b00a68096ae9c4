"""Tempered posteriors: closed form for the conjugate model, grids elsewhere.

A posterior tempered with exponent alpha raises the likelihood to that
power before multiplying by the prior.  For the Gaussian linear model the
result stays Gaussian; for any other model of one parameter a tabulated
grid does the job.
"""

import numpy as np

from alphapost import (
    ConjugatePrior,
    GridDensity,
    conjugate_alpha_posterior,
    default_grid_axis,
    grid_alpha_posterior,
    regression_likelihood,
    simulate,
    RegressionDGP,
)

dgp = RegressionDGP(
    theta0=[1.0], gamma0=[1.0], sigma_eps=1.0, cov_ww=[[1.0]], cov_wz=[[0.5]], cov_zz=[[1.0]]
)
# A sample is drawn as its sufficient statistics, which the posterior reads;
# the analyst regresses Y on W, the first p columns.
w = simulate(dgp, n=500, seed=11).first_columns(dgp.p)
prior = ConjugatePrior([0.0], [[1.0]])

# Tempering rescales the conjugate posterior's covariance like 1/alpha (the
# mean moves only through the prior weight).
print("alpha   mean        variance")
for alpha in (0.25, 0.5, 1.0, 2.0):
    post = conjugate_alpha_posterior(w, prior, dgp.sigma_u, alpha)
    print(f"{alpha:5.2f}  {post.mean[0]: .6f}  {post.cov[0, 0]:.6f}")

# With a flat prior the mean is exactly least squares and the 1/alpha
# covariance scaling is exact.
flat = ConjugatePrior.flat(1)
c1 = conjugate_alpha_posterior(w, flat, dgp.sigma_u, 1.0)
c2 = conjugate_alpha_posterior(w, flat, dgp.sigma_u, 0.5)
print("flat-prior covariance ratio (alpha 0.5 vs 1):", c2.cov[0, 0] / c1.cov[0, 0])

# The grid construction reproduces the conjugate closed form pointwise.  Its
# log-likelihood and log-prior are plain batched callables, from (N, 1)
# points to N values.
alpha = 0.5
post = conjugate_alpha_posterior(w, prior, dgp.sigma_u, alpha)
x = default_grid_axis(post.mean[0], dgp.cov_ww[0, 0] / dgp.sigma_u**2, w.n, alpha)
grid_post = grid_alpha_posterior(
    regression_likelihood(w, dgp.sigma_u), prior.log_density_fn(dgp.sigma_u), alpha, x
)
exact = GridDensity.from_gaussian(post, x)
print("grid vs conjugate sup-norm:", np.max(np.abs(grid_post.pdf() - exact.pdf())))
