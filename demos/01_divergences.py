"""Gaussian and grid-density divergences.

Walks through the three distances the library is built on (KL, squared
Hellinger, total variation), checks a couple of textbook values, and shows
the grid representation agreeing with the closed forms.
"""

import numpy as np

from alphapost import (
    GaussianDist,
    GridAxis,
    GridDensity,
    hellinger_sq_gaussian,
    kl_gaussian,
    kl_grid,
    log_density,
    tv_gaussian,
    tv_grid,
)

p = GaussianDist(0.0, 1.0)
q = GaussianDist(0.0, 2.0)
r = GaussianDist(1.0, 1.0)

print("KL(N(0,1) || N(0,2)) =", kl_gaussian(p, q), " (formula: ln(2)/2 - 1/4)")
print("KL(N(0,1) || N(1,1)) =", kl_gaussian(p, r), " (formula: 1/2)")
print("H^2(N(0,1), N(0,2))  =", hellinger_sq_gaussian(p, q))

# Exact total variation: P_p(p > q) - P_q(p > q), a closed form in the normal
# CDF in one dimension; here it is the equal-variance value 2 Phi(1/2) - 1 = 0.382925.
tv = tv_gaussian(p, r)
print("TV(N(0,1), N(1,1))   =", tv)

# The exact value against a Monte Carlo estimate, 0.5 E_p |1 - q(X) / p(X)|
# over draws from p, with its standard error.
rng = np.random.default_rng(7)
draws = rng.multivariate_normal(p.mean, p.cov, 200_000)
g = 0.5 * np.abs(1.0 - np.exp(log_density(r, draws) - log_density(p, draws)))
print("TV by Monte Carlo    =", g.mean(), "+-", g.std(ddof=1) / np.sqrt(g.size))

# Pinsker's inequality ties the two distances together.
print("Pinsker check: TV <= sqrt(KL / 2):", tv <= np.sqrt(kl_gaussian(p, r) / 2))

# The same distances on tabulated densities.  Gridding a Gaussian and
# comparing against the closed form is the library's basic consistency check.
x = GridAxis(-10.0, 10.0, 4001)
gp = GridDensity.from_gaussian(p, x)
gq = GridDensity.from_gaussian(q, x)
print("grid KL vs closed form:", abs(kl_grid(gp, gq) - kl_gaussian(p, q)))
gr = GridDensity.from_gaussian(r, x)
print("grid TV vs closed form:", abs(tv_grid(gp, gr) - tv))
