"""Gaussian mean-field projections of posteriors and their limits.

The Gaussian mean-field family consists of normal distributions with
diagonal covariance.  Projecting a Gaussian target in KL divergence has a
unique closed form: keep the mean, invert the diagonal of the precision
(:func:`gmf_project_gaussian`).  A one-dimensional grid target, or a stack
of them, is projected numerically by deterministic damped Newton descent on
(mean, log variance), with the KL evaluated by Gauss-Hermite quadrature
against a cubic interpolant of the tabulated log density, and its gradient
and Hessian taken exactly through the quadrature nodes
(:func:`gmf_project_numeric`).  Every result, the projected Gaussian
limits of :func:`variational_bvm_limit` included, is a :class:`GaussianDist`
(or a stack, which pairs its members as the posteriors do) with covariance
``diag(var)``, so it enters the divergences and the robustness criteria as is.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

from .gaussians import GaussianDist, GridDensity
from .posteriors import gaussian_bvm_limit

__all__ = [
    "gmf_project_gaussian",
    "gmf_project_numeric",
    "variational_bvm_limit",
]

GH_NODES = 32
GRAD_TOL = 1e-8
MAX_ITER = 500


def _diagonal(mean, var) -> GaussianDist:
    # The Gaussian, or stack, with independent coordinates of variances ``var``.
    var = np.asarray(var, dtype=float)
    return GaussianDist(mean, var[..., None] * np.eye(var.shape[-1]))


def gmf_project_gaussian(target: GaussianDist) -> GaussianDist:
    """Closed-form KL projection of a Gaussian onto the mean-field family.

    The unique minimizer of ``KL(q || target)`` over diagonal Gaussians keeps
    the target mean and sets ``var_j = 1 / precision_jj``: the result is the
    :class:`GaussianDist` with covariance ``diag(var)``.  Each projected
    variance understates the corresponding marginal variance of the target.
    A stacked target gives the stack of projections.
    """
    precision = np.linalg.inv(target.cov)
    return _diagonal(target.mean.copy(), 1.0 / np.diagonal(precision, axis1=-2, axis2=-1))


def variational_bvm_limit(theta_hat_ml, V, n: int, alpha: float | Sequence[float]) -> GaussianDist:
    """Mean-field limit: the projection of :func:`~alphapost.posteriors.gaussian_bvm_limit`.

    It keeps the mean at the ML estimator and sets ``var_j = 1 / (alpha n V_jj)``.
    A stack of estimates (shape (k, p)), a vector of ``alpha`` or both (one
    per estimate) give the stack of limits.
    """
    return gmf_project_gaussian(gaussian_bvm_limit(theta_hat_ml, V, n, alpha))


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


def gmf_project_numeric(target: GridDensity, init: GaussianDist | None = None) -> GaussianDist:
    """Numerical KL projection of a grid density, or of each member of a stack, onto the mean-field family.

    Minimizes ``KL(q || target)`` by damped Newton iteration on (mean, log sd):
    the cross-entropy term is a Gauss-Hermite quadrature of the target's
    interpolated log density, and its gradient and Hessian differentiate
    that same quadrature exactly (spline derivatives through the node
    locations).  Each iteration takes the Newton step when it is a descent
    direction and the negative gradient otherwise, halving it while the KL
    rises or quadrature nodes leave the tabulated support, and the
    iteration terminates when the mean's gradient standardized by the
    starting sd, ``sd0 dKL/dmu``, and the log variance's gradient are both
    below ``GRAD_TOL``: the rule does not depend on the target's scale, so
    it stays within floating point resolution for a narrow posterior.  The
    default starting point is moment-matched to the target, which makes the
    reported minimizer reproducible.

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
        init = _diagonal(*(np.asarray(m)[..., None] for m in target.moments()))
    if init.dim != 1:
        raise ValueError(f"init of dimension {init.dim} for a one-dimensional target")
    if init.mean.shape[:-1] != target.x.shape[:-1]:
        raise ValueError("init must be one distribution for one target, or a stack of one per target member")

    offsets, w = _gh_rule()
    mu0 = init.mean.reshape(-1)
    sd0 = np.sqrt(init.cov.reshape(-1))
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

    # The mean's gradient in v is sd0 dKL/dmu, free of the target's scale, and
    # the log sd one is twice the log var one.
    tol = np.array([GRAD_TOL, 2.0 * GRAD_TOL])
    everyone = np.arange(mu0.size)
    v = np.zeros(mu0.shape + (2,))
    kl, grad, hess = kl_grad_hess(everyone, *nodes(everyone, v))
    for _ in range(MAX_ITER):
        pending = np.flatnonzero(~np.all(np.abs(grad) < tol, axis=-1))
        if not pending.size:
            mu, sd = params(everyone, v)
            return _diagonal(mu.reshape(init.mean.shape), (sd**2).reshape(init.mean.shape))
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
