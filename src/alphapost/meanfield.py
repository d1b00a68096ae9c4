"""Gaussian mean-field projections of posteriors and their limits.

The Gaussian mean-field family consists of normal distributions with
diagonal covariance.  Projecting a Gaussian target in KL divergence has a
unique closed form: keep the mean, invert the diagonal of the precision
(:func:`gmf_project_gaussian`).  Arbitrary grid targets are projected
numerically by deterministic damped Newton descent on (mean, log variance),
with the KL evaluated by Gauss-Hermite quadrature against a cubic
interpolant of the tabulated log density, and its gradient and Hessian
taken exactly through the quadrature nodes (:func:`gmf_project_numeric`).

The closely related penalized objective
``E_q[log f_n] - (1/alpha) KL(q || prior)`` is exposed as
:func:`penalized_objective`, which takes the log-likelihood ``log f_n``
and the log prior as plain batched callables.  The objective is an
evidence-style lower bound: it is *maximized*, not minimized, by the
distribution closest in KL to the tempered posterior, so maximizing it is
equivalent to that projection.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .gaussians import GaussianDist, GridDensity, _require_single, _result, mesh_points
from .posteriors import _per_alpha, _replication_major, _tempering

__all__ = [
    "DiagonalGaussian",
    "gmf_project_gaussian",
    "gmf_project_numeric",
    "variational_bvm_limit",
    "penalized_objective",
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
def _gh_mesh(dim: int) -> tuple[np.ndarray, np.ndarray]:
    # Standardized Gauss-Hermite tensor nodes and probabilist-normalized
    # weights, built once per dimension; callers must not write to them.
    z, w = np.polynomial.hermite.hermgauss(GH_NODES)
    w = w / np.sqrt(np.pi)
    nodes, weights = (z[:, None], w) if dim == 1 else (mesh_points([z, z]), np.outer(w, w).ravel())
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def gmf_project_numeric(target: GridDensity, init: DiagonalGaussian | None = None) -> DiagonalGaussian:
    """Numerical KL projection of a grid density onto the mean-field family.

    Minimizes ``KL(q || target)`` by damped Newton iteration on (mean, log sd):
    the cross-entropy term is a Gauss-Hermite quadrature of the target's
    interpolated log density, and its gradient and Hessian differentiate
    that same quadrature exactly (spline derivatives through the node
    locations).  Each iteration takes the Newton step when it is a descent
    direction and the negative gradient otherwise, halving it while the KL
    rises or quadrature nodes leave the tabulated support, and the
    iteration terminates when every gradient component of (mean, log
    variance) is below ``GRAD_TOL``.  The default starting point is
    moment-matched to the target, which makes the reported minimizer
    reproducible.  Raises ``ValueError`` when the starting point's
    quadrature nodes leave the support and ``RuntimeError`` on
    non-convergence within ``MAX_ITER`` iterations.
    """
    if target.dim > 2:
        raise ValueError("numeric projection supports dimension <= 2")
    if init is None:
        mean, var = target.moments()
        init = DiagonalGaussian(mean, var)
    _require_single(init)
    if init.dim != target.dim:
        raise ValueError("init dimension does not match target")

    dim = target.dim
    z, w = _gh_mesh(dim)
    offsets = np.sqrt(2.0) * z
    mu0 = init.mean
    sd0 = np.sqrt(init.var)
    # Each internal coordinate moves one axis of every quadrature node.
    axis = np.tile(np.arange(dim), 2)

    # Internal coordinates v = ((mu - mu0)/sd0, log(sd/sd0)) keep the descent
    # well-conditioned regardless of how concentrated the target is.
    def params(v):
        return mu0 + sd0 * v[:dim], sd0 * np.exp(v[dim:])

    def kl_grad_hess(v):
        mu, sd = params(v)
        vals, grads, hess = target.log_pdf_and_grad_at(mu + sd * offsets)
        # KL(q||t) = -H(q) - E_q[log t]; d(-H)/d(log sd_j) = -1.
        kl = -0.5 * dim * (1.0 + np.log(2.0 * np.pi)) - np.sum(np.log(sd)) - w @ vals
        # d(node)/dv: sd0 for the mean coordinates, sd * offset for the log sd ones.
        jac = np.concatenate([np.broadcast_to(sd0, offsets.shape), sd * offsets], axis=1)
        wg = w[:, None] * grads[:, axis] * jac
        grad = -wg.sum(axis=0)
        grad[dim:] -= 1.0
        h = -np.einsum("k,km,kn,kmn->mn", w, jac, jac, hess[:, axis][:, :, axis])
        # The nodes are exponential in log sd, which adds the curvature of that map.
        h[dim:, dim:] -= np.diag(wg[:, dim:].sum(axis=0))
        return kl, grad, h

    # The componentwise tolerances translate the (mean, log var) sup-norm
    # criterion into the standardized coordinates.
    tol = np.concatenate([GRAD_TOL * sd0, np.full(dim, 2.0 * GRAD_TOL)])
    v = np.zeros(2 * dim)
    kl, grad, hess = kl_grad_hess(v)
    for _ in range(MAX_ITER):
        if np.all(np.abs(grad) < tol):
            mu, sd = params(v)
            return DiagonalGaussian(mu, sd**2)
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


def penalized_objective(
    q: DiagonalGaussian,
    log_lik: Callable[[np.ndarray], np.ndarray],
    log_prior: Callable[[np.ndarray], np.ndarray],
    alpha: float,
) -> float:
    """Evidence-style objective ``E_q[log f_n] - (1/alpha) KL(q || prior)``.

    ``log_lik`` (``log f_n``) and ``log_prior`` map an (N, q.dim) array of
    parameter points to the (N,) array of their values, as in
    :func:`~alphapost.posteriors.grid_alpha_posterior`.  Both expectations
    are Gauss-Hermite quadratures under ``q`` (the entropy part of the KL
    term is closed form).  Up to a constant not depending on ``q``,
    maximizing this equals minimizing the KL divergence from ``q`` to the
    tempered posterior with the same ``alpha``.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    _require_single(q)
    z, w = _gh_mesh(q.dim)
    pts = q.mean + np.sqrt(2.0) * np.sqrt(q.var) * z
    ll = np.asarray(log_lik(pts), dtype=float)
    lp = np.asarray(log_prior(pts), dtype=float)
    if not (np.all(np.isfinite(ll)) and np.all(np.isfinite(lp))):
        raise ValueError("non-finite evaluator values under the quadrature")
    kl_q_prior = -q.entropy() - float(w @ lp)
    return float(w @ ll) - kl_q_prior / alpha

