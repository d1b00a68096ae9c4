"""End-to-end omitted-variable study.

The analyst regresses Y on W but the outcome also loads on an unobserved Z
correlated with W.  Every population quantity of the misspecification
analysis is then explicit: the pseudo-true parameter, the likelihood
curvature, the correct posterior's covariance scale.  The finite-sample
expected-KL criterion (computable here because everything is conjugate)
hugs its Gaussian surrogate, and both are minimized near the theoretical
optimal tempering.
"""

import numpy as np

from alphapost import (
    ConjugatePrior,
    FiniteSampleInputs,
    RegressionDGP,
    conjugate_alpha_posterior,
    curvature,
    exact_expected_kl,
    limit_alpha_star,
    misspec_scenario,
    ols,
    pseudo_true,
    r_star,
    simulate,
    true_posterior_theta,
)
from alphapost.regression import population_omega

dgp = RegressionDGP(
    theta0=[1.0], gamma0=[1.0], sigma_eps=1.0, cov_ww=[[1.0]], cov_wz=[[0.5]], cov_zz=[[1.0]]
)
print("pseudo-true parameter:", pseudo_true(dgp), " (true 1.0 + bias 0.5)")
print("likelihood curvature: ", curvature(dgp))
print("correct-model scale:  ", population_omega(dgp))

eps = 1.0
scenario = misspec_scenario(dgp, eps)
print("limit optimal tempering:", limit_alpha_star(scenario))

n = 5000
eps_n = eps / n
stats = simulate(dgp, n, seed=29)  # n and the Gram matrix of [W, Z, Y]
w = stats.first_columns(dgp.p)  # the analyst's short regression on W
prior = ConjugatePrior([0.0], [[1.0]])
full_prior = ConjugatePrior(np.zeros(2), np.eye(2))

theta_f = ols(w)
theta_g = ols(stats)[:1]
fin = FiniteSampleInputs(theta_f, theta_g, n, eps_n)

true_post, omega_hat = true_posterior_theta(stats, full_prior, dgp.sigma_eps, dgp.p)
std_post = conjugate_alpha_posterior(w, prior, dgp.sigma_u, 1.0)

print("\nalpha   exact criterion   Gaussian surrogate")
for alpha in (0.25, 0.5, 0.75, 1.0):
    alpha_post = conjugate_alpha_posterior(w, prior, dgp.sigma_u, alpha)
    exact = exact_expected_kl(true_post, alpha_post, std_post, eps_n)
    surrogate = r_star(alpha, scenario, fin)
    print(f"{alpha:5.2f}   {exact:15.6f}   {surrogate:18.6f}")
print("\n(the two columns converge as n grows; compare at several n via the")
print(" surrogate-fidelity experiment of the command line interface)")
