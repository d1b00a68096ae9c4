"""Tempered posteriors, their Gaussian mean-field approximations, and
misspecification-robust choice of the tempering level.

The library covers four layers:

* ``gaussians`` -- Gaussian and grid-density representations with KL,
  squared-Hellinger, and total-variation divergences.
* ``posteriors`` -- likelihood-tempered posteriors (conjugate closed form
  and grid construction), their Gaussian large-sample limits, and
  concentration probes.
* ``meanfield`` -- KL projection onto diagonal Gaussians, in closed form
  for Gaussian targets and numerically for grid targets, plus the
  penalized evidence-style objective.
* ``robustness`` -- expected-KL robustness criteria (the surrogate ones in
  closed form), the optimal tempering level and its large-sample limits.
* ``regression`` -- the omitted-variable linear regression example with
  every population quantity in closed form.
* ``experiments``/``cli`` -- seeded, deterministic experiment harness with
  CSV + JSON outputs.
"""

__version__ = "0.1.0"

from .gaussians import (
    GaussianDist,
    GridDensity,
    TVEstimate,
    hellinger_sq_gaussian,
    kl_gaussian,
    kl_grid,
    log_density,
    trapezoid_weights,
    tv_gaussian,
    tv_grid,
)
from .meanfield import (
    DiagonalGaussian,
    gmf_project_gaussian,
    gmf_project_numeric,
    penalized_objective,
    variational_bvm_limit,
)
from .posteriors import (
    ConjugatePrior,
    LikelihoodEvaluator,
    concentration_probability,
    conjugate_alpha_posterior,
    default_grid_axes,
    gaussian_bvm_limit,
    grid_alpha_posterior,
)
from .regression import (
    RegressionDGP,
    RegressionDataset,
    assumption2_terms,
    concentration_markov_bound,
    curvature,
    derived_seed,
    failure_case_hellinger,
    lan_residual,
    lan_residual_sup,
    misspec_scenario,
    ols,
    population_omega,
    pseudo_true,
    regression_likelihood,
    simulate,
    true_posterior_theta,
    variational_conjugate_cov,
)
from .robustness import (
    FiniteSampleInputs,
    MisspecScenario,
    a_n,
    b_n,
    exact_expected_kl,
    limit_alpha_star,
    limit_alpha_tilde,
    optimal_alpha,
    optimal_alpha_tilde,
    optimized_limit_kl,
    optimized_limit_kl_var,
    r_infinity,
    r_star,
    r_tilde_star,
)

__all__ = [name for name in dir() if not name.startswith("_")]
