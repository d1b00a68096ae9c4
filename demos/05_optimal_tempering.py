"""How much should the likelihood be down-weighted under misspecification risk?

A decision maker who attaches probability eps_n to the working likelihood
being wrong can score a reporting rule by its expected KL divergence from
the posterior they should have reported.  For Gaussian limits the score has
a closed form, its minimizer is p/A_n, and in the large-sample limit the
optimally tempered report beats the untempered one by a margin that grows
with the misspecification: linearly for the untempered posterior,
logarithmically after optimization.
"""

import numpy as np

from alphapost import (
    FiniteSampleInputs,
    MisspecScenario,
    limit_alpha_star,
    limit_alpha_tilde,
    optimal_alpha,
    optimized_limit_kl,
    r_infinity,
    r_star,
)

scenario = MisspecScenario(
    theta0=[1.0, 0.5],
    theta_star=[0.4, 0.2],
    V=[[2.0, 0.6], [0.6, 1.0]],
    Omega=[[1.5, 0.2], [0.2, 0.8]],
    eps=2.0,
)
fin = FiniteSampleInputs.at_population_limits(scenario, n=2000)

alphas = np.linspace(0.05, 1.5, 59)
curve = [r_star(alpha, scenario, fin) for alpha in alphas]
closed = optimal_alpha(scenario, fin)
print("closed-form optimal tempering:", closed)
print("grid argmin of the curve:     ", float(alphas[np.argmin(curve)]))
print("large-sample limits:          ", limit_alpha_star(scenario), limit_alpha_tilde(scenario))

# Growth comparison: double the parameter gap and watch the untempered
# criterion quadruple while the optimized one moves by at most log(4).
print("\n||gap||   2*r_inf(1)      2*optimized")
for scale in (1.0, 2.0, 4.0, 8.0):
    s = MisspecScenario([scale], [0.0], [[1.0]], [[1.0]], 1.0)
    linear = 2.0 * r_infinity(1.0, 1, 1.0, scale**2)
    logarithmic = 2.0 * optimized_limit_kl(s)
    print(f"{scale:6.1f}   {linear:12.4f}   {logarithmic:12.4f}")
