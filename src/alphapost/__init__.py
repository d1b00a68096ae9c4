"""Tempered posteriors, their Gaussian mean-field approximations, and
misspecification-robust choice of the tempering level.

The library covers these layers:

* ``gaussians`` -- Gaussian and one-dimensional grid-density
  representations, each also as a stack, with KL, squared-Hellinger, and
  total-variation divergences.
* ``posteriors`` -- likelihood-tempered posteriors (conjugate closed form
  and, for one parameter, a grid or a stack of grids), their Gaussian
  large-sample limits, and the exact divergences between the two for the
  Laplace-prior location model.
* ``meanfield`` -- KL projection onto diagonal Gaussians, in closed form
  for Gaussian targets and numerically for one-dimensional grid targets
  or stacks of them; each result is a ``GaussianDist`` with diagonal
  covariance.
* ``robustness`` -- expected-KL robustness criteria (the surrogate ones in
  closed form), the optimal tempering level and its large-sample limits.
* ``regression`` -- the omitted-variable linear regression example with
  every population quantity in closed form.
* ``experiments``/``cli`` -- seeded, deterministic experiment harness with
  CSV + JSON outputs.
"""

__version__ = "0.1.0"

from .gaussians import *
from .meanfield import *
from .posteriors import *
from .regression import *
from .robustness import *

__all__ = [name for name in dir() if not name.startswith("_")]
