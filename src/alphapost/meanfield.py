"""Gaussian mean-field projections of posteriors and their limits.

The Gaussian mean-field family consists of normal distributions with
diagonal covariance.  Projecting a Gaussian target in KL divergence has a
unique closed form: keep the mean, invert the diagonal of the precision
(:func:`gmf_project_gaussian`).  A one-dimensional grid target, or a stack
of them, is projected numerically by deterministic damped Newton descent on
(mean, log variance), with the KL evaluated by Gauss-Hermite quadrature
against a cubic interpolant of the tabulated log density, and its gradient
and Hessian taken exactly through the quadrature nodes
(:func:`gmf_project_numeric`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .gaussians import GaussianDist, GridDensity, _result
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


def _orthonormal_hermite(x: np.ndarray, degree: int) -> np.ndarray:
    # The Hermite polynomial of the given degree >= 1, orthonormal under the
    # weight exp(-x^2), at x: Clenshaw's backward pass of the three-term recurrence.
    c0, c1 = 0.0, np.pi**-0.25
    for k in range(degree, 1, -1):
        c0, c1 = -c1 * np.sqrt((k - 1) / k), c0 + c1 * x * np.sqrt(2.0 / k)
    return c0 + c1 * x * np.sqrt(2.0)


@lru_cache(maxsize=None)
def _gh_rule() -> tuple[np.ndarray, np.ndarray]:
    # Gauss-Hermite nodes scaled to a standard normal, and their
    # probabilist-normalized weights, built once; callers must not write to them.
    # The nodes of the weight exp(-z^2) are the eigenvalues of the recurrence's
    # symmetric Jacobi matrix, polished by one Newton step; each weight is
    # 1 / h_{n-1}(z)^2 up to a common factor, set so the weights sum to sqrt(pi).
    n = GH_NODES
    off = np.sqrt(np.arange(1, n) / 2.0)
    z = np.linalg.eigvalsh(np.diag(off, -1) + np.diag(off, 1))
    z -= _orthonormal_hermite(z, n) / (_orthonormal_hermite(z, n - 1) * np.sqrt(2.0 * n))
    lower = _orthonormal_hermite(z, n - 1)
    lower /= np.abs(lower).max()
    w = 1.0 / (lower * lower)
    # The rule is symmetric about 0.
    w = (w + w[::-1]) / 2.0
    z = (z - z[::-1]) / 2.0
    w *= np.sqrt(np.pi) / w.sum()
    offsets, weights = np.sqrt(2.0) * z, w / np.sqrt(np.pi)
    offsets.setflags(write=False)
    weights.setflags(write=False)
    return offsets, weights


def _descent_step(grad: np.ndarray, hess: np.ndarray) -> np.ndarray:
    # Per member: the Newton step where it is finite and a descent direction,
    # else the negative gradient.
    (h00, h01), (h10, h11) = np.moveaxis(hess, (-2, -1), (0, 1))
    g0, g1 = np.moveaxis(grad, -1, 0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        det = h00 * h11 - h01 * h10
        newton = np.stack([h01 * g1 - h11 * g0, h10 * g0 - h00 * g1], axis=-1) / det[..., None]
        descent = np.all(np.isfinite(newton), axis=-1) & (np.sum(grad * newton, axis=-1) < 0.0)
    return np.where(descent[..., None], newton, -grad)


def gmf_project_numeric(target: GridDensity, init: DiagonalGaussian | None = None) -> DiagonalGaussian:
    """Numerical KL projection of a grid density, or of each member of a stack, onto the mean-field family.

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
    reproducible.

    A stack of k targets (``init`` then ``None`` or a stack of k
    one-dimensional Gaussians) runs all k descents in one loop: each member
    chooses, halves and stops its own steps and stays fixed once it has
    converged, so it ends where it would alone.  After the starting points,
    each trial evaluates only the members still searching for a step whose
    nodes stay inside the support; converged members are not evaluated
    again.  A single target runs as a stack of one.  The result is a stack
    of k projections.  Raises ``ValueError`` when a starting point's
    quadrature nodes leave the support and ``RuntimeError`` when any member
    has not converged within ``MAX_ITER`` iterations.
    """
    if init is None:
        init = DiagonalGaussian(*(np.asarray(m)[..., None] for m in target.moments()))
    if init.dim != 1:
        raise ValueError(f"init of dimension {init.dim} for a one-dimensional target")
    if init.mean.shape[:-1] != target.x.shape[:-1]:
        raise ValueError("init must be one distribution for one target, or a stack of one per target member")

    offsets, w = _gh_rule()
    mu0 = init.mean.reshape(-1)
    sd0 = np.sqrt(init.var.reshape(-1))
    axes = target.x.reshape(-1, target.x.shape[-1])
    lo, hi = axes[:, :1], axes[:, -1:]

    # Internal coordinates v = ((mu - mu0)/sd0, log(sd/sd0)) keep the descent
    # well-conditioned regardless of how concentrated the target is.
    def params(members, v):
        return mu0[members] + sd0[members] * v[:, 0], sd0[members] * np.exp(v[:, 1])

    def nodes(members, v):
        # The quadrature nodes of the listed members at v (one row each), their
        # offsets from the mean, and the sd.
        mu, sd = params(members, v)
        dx = sd[:, None] * offsets
        return mu[:, None] + dx, dx, sd

    def expect(f):
        # The Gauss-Hermite expectation of node values, per member.
        return np.sum(w * f, axis=-1)

    def kl_grad_hess(members, x, dx, sd):
        vals, d1, d2 = target.log_pdf_and_grad_at(x, members)
        # KL(q||t) = -H(q) - E_q[log t]; d(-H)/d(log sd) = -1.
        kl = -0.5 * (1.0 + np.log(2.0 * np.pi)) - np.log(sd) - expect(vals)
        # d(node)/dv is sd0 for the mean coordinate and dx for the log sd one.
        scale = sd0[members]
        g_mu, g_sd = scale * expect(d1), expect(d1 * dx)
        h_cross = -scale * expect(d2 * dx)
        grad = np.stack([-g_mu, -g_sd - 1.0], axis=-1)
        # The nodes are exponential in log sd, which adds the curvature of that map.
        hess = np.stack([-scale * scale * expect(d2), h_cross, h_cross, -expect(d2 * dx * dx) - g_sd], axis=-1)
        return kl, grad, hess.reshape(hess.shape[:-1] + (2, 2))

    # The componentwise tolerances translate the (mean, log var) sup-norm
    # criterion into the standardized coordinates.
    tol = np.stack([GRAD_TOL * sd0, np.full_like(sd0, 2.0 * GRAD_TOL)], axis=-1)
    everyone = np.arange(mu0.size)
    v = np.zeros(mu0.shape + (2,))
    kl, grad, hess = kl_grad_hess(everyone, *nodes(everyone, v))
    for _ in range(MAX_ITER):
        pending = np.flatnonzero(~np.all(np.abs(grad) < tol, axis=-1))
        if not pending.size:
            mu, sd = params(everyone, v)
            return DiagonalGaussian(mu.reshape(init.mean.shape), (sd**2).reshape(init.var.shape))
        step = _descent_step(grad[pending], hess[pending])
        # Accept rounding-level rises: near the optimum the KL no longer
        # resolves the progress the gradient still shows.
        slack = 1e-12 * np.maximum(1.0, np.abs(kl[pending]))
        while pending.size:
            trial = v[pending] + step
            x, dx, sd = nodes(pending, trial)
            # A member whose nodes would leave the support is rejected
            # unevaluated; a shorter step stays inside.
            inside = np.all((x >= lo[pending]) & (x <= hi[pending]), axis=-1)
            reject = ~inside
            if np.any(inside):
                members = pending[inside]
                t_kl, t_grad, t_hess = kl_grad_hess(members, x[inside], dx[inside], sd[inside])
                better = t_kl <= kl[members] + slack[inside]
                accepted = members[better]
                v[accepted] = trial[inside][better]
                kl[accepted], grad[accepted], hess[accepted] = t_kl[better], t_grad[better], t_hess[better]
                reject[inside] = ~better
            pending, step, slack = pending[reject], step[reject] / 2.0, slack[reject]
    raise RuntimeError(f"damped Newton descent failed to converge within {MAX_ITER} iterations")
