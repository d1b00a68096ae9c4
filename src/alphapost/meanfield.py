"""Gaussian mean-field projections of posteriors and their limits.

The Gaussian mean-field family consists of normal distributions with
diagonal covariance.  Projecting a Gaussian target in KL divergence has a
unique closed form: keep the mean, invert the diagonal of the precision
(:func:`gmf_project_gaussian`).  A one-dimensional grid target is projected
numerically by deterministic damped Newton descent on (mean, log variance),
with the KL evaluated by Gauss-Hermite quadrature against a cubic
interpolant of the tabulated log density, and its gradient and Hessian
taken exactly through the quadrature nodes (:func:`gmf_project_numeric`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .gaussians import GaussianDist, GridDensity, _require_single, _result
from .posteriors import _per_alpha, _replication_major, _tempering

__all__ = [
    "DiagonalGaussian",
    "gmf_project_gaussian",
    "gmf_project_numeric",
    "variational_bvm_limit",
]

GH_NODES = 32
GRAD_TOL = 1e-8
MAX_ITER = 500


@dataclass(frozen=True)
class DiagonalGaussian:
    """A Gaussian with independent coordinates: mean vector + per-coordinate variances.

    Like :class:`GaussianDist` it may be a stack: ``mean`` and ``var`` of
    shape (k, p) hold k distributions.
    """

    mean: np.ndarray
    var: np.ndarray

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        var = np.atleast_1d(np.asarray(self.var, dtype=float))
        if mean.shape != var.shape:
            raise ValueError("mean and var must have the same shape")
        if np.any(var <= 0) or not np.all(np.isfinite(var)):
            raise ValueError("variances must be positive and finite")
        if not np.all(np.isfinite(mean)):
            raise ValueError("mean must be finite")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "var", var)

    @property
    def dim(self) -> int:
        return self.mean.shape[-1]

    @property
    def stacked(self) -> bool:
        """Whether this is a stack of distributions rather than one."""
        return self.mean.ndim == 2

    @property
    def dist(self) -> GaussianDist:
        """The same distribution (or stack) as a full-covariance :class:`GaussianDist`."""
        return GaussianDist(self.mean, self.var[..., None] * np.eye(self.dim))

    def entropy(self) -> float | np.ndarray:
        return _result(0.5 * np.sum(1.0 + np.log(2.0 * np.pi * self.var), axis=-1))


def gmf_project_gaussian(target: GaussianDist) -> DiagonalGaussian:
    """Closed-form KL projection of a Gaussian onto the mean-field family.

    The unique minimizer of ``KL(q || target)`` over diagonal Gaussians keeps
    the target mean and sets ``var_j = 1 / precision_jj``.  Each projected
    variance understates the corresponding marginal variance of the target.
    A stacked target gives the stack of projections.
    """
    precision = np.linalg.inv(target.cov)
    return DiagonalGaussian(target.mean.copy(), 1.0 / np.diagonal(precision, axis1=-2, axis2=-1))


def variational_bvm_limit(theta_hat_ml, V, n: int, alpha: float | Sequence[float]) -> DiagonalGaussian:
    """Mean-field limit: mean at the ML estimator, ``var_j = 1 / (alpha n V_jj)``.

    A stack of estimates (shape (R, p), one per replication) or a vector of
    ``alpha`` gives the stack of limits, replication-major.
    """
    alpha = _tempering(alpha)
    V = np.atleast_2d(np.asarray(V, dtype=float))
    mean = np.atleast_1d(np.asarray(theta_hat_ml, dtype=float))
    mean, var = np.broadcast_arrays(_per_alpha(mean, alpha, 1), 1.0 / (alpha[..., None] * n * np.diag(V)))
    return DiagonalGaussian(_replication_major(mean, 1), _replication_major(var, 1))


@lru_cache(maxsize=None)
def _gh_rule() -> tuple[np.ndarray, np.ndarray]:
    # Gauss-Hermite nodes scaled to a standard normal, and their
    # probabilist-normalized weights, built once; callers must not write to them.
    z, w = np.polynomial.hermite.hermgauss(GH_NODES)
    offsets, weights = np.sqrt(2.0) * z, w / np.sqrt(np.pi)
    offsets.setflags(write=False)
    weights.setflags(write=False)
    return offsets, weights


def gmf_project_numeric(target: GridDensity, init: DiagonalGaussian | None = None) -> DiagonalGaussian:
    """Numerical KL projection of a grid density onto the mean-field family.

    Minimizes ``KL(q || target)`` by damped Newton iteration on (mean, log sd):
    the cross-entropy term is a Gauss-Hermite quadrature of the target's
    interpolated log density, and its gradient and Hessian differentiate
    that same quadrature exactly (spline derivatives through the node
    locations).  Each iteration takes the Newton step when it is a descent
    direction and the negative gradient otherwise, halving it while the KL
    rises or quadrature nodes leave the tabulated support, and the
    iteration terminates when both gradient components of (mean, log
    variance) are below ``GRAD_TOL``.  The default starting point is
    moment-matched to the target, which makes the reported minimizer
    reproducible.  Raises ``ValueError`` when the starting point's
    quadrature nodes leave the support and ``RuntimeError`` on
    non-convergence within ``MAX_ITER`` iterations.
    """
    if init is None:
        init = DiagonalGaussian(*target.moments())
    _require_single(init)
    if init.dim != 1:
        raise ValueError(f"init of dimension {init.dim} for a one-dimensional target")

    offsets, w = _gh_rule()
    mu0 = float(init.mean[0])
    sd0 = float(np.sqrt(init.var[0]))

    # Internal coordinates v = ((mu - mu0)/sd0, log(sd/sd0)) keep the descent
    # well-conditioned regardless of how concentrated the target is.
    def params(v):
        return mu0 + sd0 * v[0], sd0 * np.exp(v[1])

    def kl_grad_hess(v):
        mu, sd = params(v)
        dx = sd * offsets
        vals, d1, d2 = target.log_pdf_and_grad_at(mu + dx)
        # KL(q||t) = -H(q) - E_q[log t]; d(-H)/d(log sd) = -1.
        kl = -0.5 * (1.0 + np.log(2.0 * np.pi)) - np.log(sd) - w @ vals
        # d(node)/dv is sd0 for the mean coordinate and dx for the log sd one.
        g_mu, g_sd = sd0 * (w @ d1), w @ (d1 * dx)
        h_cross = -sd0 * (w @ (d2 * dx))
        grad = np.array([-g_mu, -g_sd - 1.0])
        # The nodes are exponential in log sd, which adds the curvature of that map.
        hess = np.array([[-sd0 * sd0 * (w @ d2), h_cross], [h_cross, -(w @ (d2 * dx * dx)) - g_sd]])
        return kl, grad, hess

    # The componentwise tolerances translate the (mean, log var) sup-norm
    # criterion into the standardized coordinates.
    tol = np.array([GRAD_TOL * sd0, 2.0 * GRAD_TOL])
    v = np.zeros(2)
    kl, grad, hess = kl_grad_hess(v)
    for _ in range(MAX_ITER):
        if np.all(np.abs(grad) < tol):
            mu, sd = params(v)
            return DiagonalGaussian([mu], [sd**2])
        try:
            step = -np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            step = -grad
        if not grad @ step < 0.0:
            step = -grad
        # Accept rounding-level rises: near the optimum the KL no longer
        # resolves the progress the gradient still shows.
        slack = 1e-12 * max(1.0, abs(kl))
        while True:
            try:
                trial = kl_grad_hess(v + step)
            except ValueError:
                # Quadrature nodes left the support; a shorter step stays inside.
                trial = None
            if trial is not None and trial[0] <= kl + slack:
                break
            step = step / 2.0
        v = v + step
        kl, grad, hess = trial
    raise RuntimeError(f"damped Newton descent failed to converge within {MAX_ITER} iterations")
