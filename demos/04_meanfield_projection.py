"""Projecting onto the Gaussian mean-field family.

The KL projection of a Gaussian onto diagonal Gaussians keeps the mean and
inverts the diagonal of the precision, which understates every marginal
variance.  The numeric projector handles tabulated targets and agrees with
the closed form; the penalized evidence-style objective scores highest at the
same distribution.
"""

import numpy as np

from alphapost import (
    ConjugatePrior,
    GaussianDist,
    GridDensity,
    RegressionDGP,
    conjugate_alpha_posterior,
    gmf_project_gaussian,
    gmf_project_numeric,
    penalized_objective,
    regression_likelihood,
    simulate,
    variational_bvm_limit,
    DiagonalGaussian,
)

target = GaussianDist([0.0, 0.0], [[2.0, 1.0], [1.0, 2.0]])
proj = gmf_project_gaussian(target)
print("target marginal variances:", np.diag(target.cov))
print("projected variances:      ", proj.var, " (understated: 1.5 < 2)")

# Numeric projection of the same target tabulated on a grid.
hw = 16 * np.sqrt(2.0)
axes = [np.linspace(-hw, hw, 401), np.linspace(-hw, hw, 401)]
numeric = gmf_project_numeric(GridDensity.from_gaussian(target, axes))
print("numeric projection gap:   ", np.max(np.abs(numeric.var - proj.var)))

# The mean-field limit of a tempered posterior inverts only diag(V), so its
# variances sit below the full limit's marginals for correlated curvature.
lim = variational_bvm_limit([0.0, 0.0], [[2.0, 1.0], [1.0, 2.0]], n=100, alpha=1.0)
print("mean-field limit variances at n=100:", lim.var)

# The penalized objective scores highest at the KL projection of the
# conjugate tempered posterior: every perturbed q scores lower.
dgp = RegressionDGP(
    theta0=[1.0, 0.5],
    gamma0=[1.0],
    sigma_eps=1.0,
    cov_WW=[[1.0, 0.6], [0.6, 1.0]],
    cov_WZ=[[0.5], [0.3]],
    cov_ZZ=[[1.0]],
)
w = simulate(dgp, 200, 3).stats().first_columns(dgp.p)
prior = ConjugatePrior([0.0, 0.0], np.eye(2))
alpha = 0.5
lik = regression_likelihood(w, dgp.sigma_u)
log_prior = prior.log_density_fn(dgp.sigma_u)
best = gmf_project_gaussian(conjugate_alpha_posterior(w, prior, dgp.sigma_u, alpha))
top = penalized_objective(best, lik, log_prior, alpha)
print("objective at the projection:", top)
sd = np.sqrt(best.var)
for label, q in [
    ("mean + 0.5 sd on axis 1", DiagonalGaussian(best.mean + [0.5 * sd[0], 0.0], best.var)),
    ("mean - 0.5 sd on axis 2", DiagonalGaussian(best.mean - [0.0, 0.5 * sd[1]], best.var)),
    ("variances x 1.5       ", DiagonalGaussian(best.mean, 1.5 * best.var)),
    ("variances x 0.5       ", DiagonalGaussian(best.mean, 0.5 * best.var)),
]:
    print(f"  {label}: lower by {top - penalized_objective(q, lik, log_prior, alpha):.3e}")
