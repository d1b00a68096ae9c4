"""Projecting onto the Gaussian mean-field family.

The KL projection of a Gaussian onto diagonal Gaussians keeps the mean and
inverts the diagonal of the precision, which understates every marginal
variance.  The numeric projector handles tabulated one-dimensional targets
and agrees with the closed form; the projection of a tempered posterior has
the smallest KL divergence to it of any mean-field Gaussian.
"""

import numpy as np

from alphapost import (
    ConjugatePrior,
    GaussianDist,
    GridAxis,
    GridDensity,
    RegressionDGP,
    conjugate_alpha_posterior,
    gmf_project_gaussian,
    gmf_project_numeric,
    kl_gaussian,
    simulate,
    variational_bvm_limit,
)

target = GaussianDist([0.0, 0.0], [[2.0, 1.0], [1.0, 2.0]])
proj = gmf_project_gaussian(target)
print("target marginal variances:", np.diag(target.cov))
print("projected variances:      ", np.diag(proj.cov), " (understated: 1.5 < 2)")

# Numeric projection of a one-dimensional target tabulated on a grid.
line = GaussianDist(1.0, 2.0)
numeric = gmf_project_numeric(GridDensity.from_gaussian(line, GridAxis(-20.0, 22.0, 4001)))
print("numeric projection gap:   ", abs(numeric.cov[0, 0] - gmf_project_gaussian(line).cov[0, 0]))

# The mean-field limit of a tempered posterior inverts only diag(V), so its
# variances sit below the full limit's marginals for correlated curvature.
lim = variational_bvm_limit([0.0, 0.0], [[2.0, 1.0], [1.0, 2.0]], n=100, alpha=1.0)
print("mean-field limit variances at n=100:", np.diag(lim.cov))

# KL(q || posterior) is smallest at the KL projection of the conjugate
# tempered posterior: every perturbed q is further away.
dgp = RegressionDGP(
    theta0=[1.0, 0.5],
    gamma0=[1.0],
    sigma_eps=1.0,
    cov_ww=[[1.0, 0.6], [0.6, 1.0]],
    cov_wz=[[0.5], [0.3]],
    cov_zz=[[1.0]],
)
w = simulate(dgp, 200, 3).first_columns(dgp.p)
prior = ConjugatePrior([0.0, 0.0], np.eye(2))
post = conjugate_alpha_posterior(w, prior, dgp.sigma_u, alpha=0.5)
best = gmf_project_gaussian(post)
bottom = kl_gaussian(best, post)
print("KL(projection || posterior):", bottom)
sd = np.sqrt(np.diag(best.cov))
for label, q in [
    ("mean + 0.5 sd on axis 1", GaussianDist(best.mean + [0.5 * sd[0], 0.0], best.cov)),
    ("mean - 0.5 sd on axis 2", GaussianDist(best.mean - [0.0, 0.5 * sd[1]], best.cov)),
    ("variances x 1.5       ", GaussianDist(best.mean, 1.5 * best.cov)),
    ("variances x 0.5       ", GaussianDist(best.mean, 0.5 * best.cov)),
]:
    print(f"  {label}: higher by {kl_gaussian(q, post) - bottom:.3e}")
