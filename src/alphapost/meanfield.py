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

import math
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

# -H(N(m, 1)), which -log(sd) turns into the negative entropy of N(m, sd^2).
_NEG_ENTROPY_OF_UNIT_NORMAL = -0.5 * (1.0 + math.log(2.0 * math.pi))
# The flattened 2 x 2 Hessian's entry (r, c) is E[d2 z^moment] J_r J_c.
_HESSIAN_MOMENT, _HESSIAN_ROW, _HESSIAN_COLUMN = np.array([[0, 1, 1, 2], [0, 0, 1, 1], [0, 1, 0, 1]])


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
    # Per member, from its gradient (g0, g1) and its Hessian flattened to
    # (h00, h01, h10, h11): the Newton step where it is finite and a descent
    # direction, else the negative gradient.
    g0, g1 = grad.T
    h00, h01, h10, h11 = hess.T
    newton = np.empty_like(grad)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        np.subtract(h01 * g1, h11 * g0, out=newton[:, 0])
        np.subtract(h10 * g0, h00 * g1, out=newton[:, 1])
        newton /= (h00 * h11 - h01 * h10)[:, None]
        descent = np.isfinite(newton).all(axis=-1) & ((grad * newton).sum(axis=-1) < 0.0)
    return np.where(descent[:, None], newton, -grad)


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
    quadrature nodes leave the support, or before any descent when a member's
    moment-matched sd (the default start's) is below one grid step, which
    the grid does not resolve, and ``RuntimeError`` when any member has not
    converged within ``MAX_ITER`` iterations.
    """
    if init is None:
        mean, var = target.moments()
        # A target narrower than one grid step is a spike that the spline does
        # not resolve, and the descent on it would overflow.
        sd_in_steps = np.sqrt(np.ravel(var)) / np.ravel(target.axis.step)
        narrow = sd_in_steps < 1.0
        if np.any(narrow):
            raise ValueError(
                f"the target's moment-matched sd is {np.min(sd_in_steps[narrow]):.3g} grid steps in "
                f"{np.count_nonzero(narrow)} of {sd_in_steps.size} members: the grid does not resolve it"
            )
        init = _diagonal(np.asarray(mean)[..., None], np.asarray(var)[..., None])
    if init.dim != 1:
        raise ValueError(f"init of dimension {init.dim} for a one-dimensional target")
    if init.mean.shape[:-1] != target.axis.lo.shape:
        raise ValueError("init must be one distribution for one target, or a stack of one per target member")

    offsets, w = _gh_rule()
    # The rule's weights times the standard offsets z to the powers 0, 1 and 2.
    weights = w * offsets ** np.arange(3)[:, None]
    mu0 = init.mean.reshape(-1)
    sd0 = np.sqrt(init.cov.reshape(-1))
    lo, hi = np.ravel(target.axis.lo), np.ravel(target.axis.hi)

    # Internal coordinates v = ((mu - mu0)/sd0, log(sd/sd0)) keep the descent
    # well-conditioned regardless of how concentrated the target is.
    def params(members, v):
        scale = sd0[members]
        return mu0[members] + scale * v[:, 0], scale * np.exp(v[:, 1])

    def kl_grad_hess(members, mu, sd):
        # The listed members' KL at (mu, sd), then its gradient and its
        # Hessian, flattened, in v: one row of seven per member.
        vals, d1, d2 = target.log_pdf_and_grad_at(mu[:, None] + sd[:, None] * offsets, members)
        out = np.empty((len(members), 7))
        # KL(q||t) = -H(q) - E_q[log t]; d(-H)/d(log sd) = -1.  An sd that
        # underflows to 0 gives a KL of inf, which no step accepts.
        with np.errstate(divide="ignore"):
            np.log(sd, out=out[:, 0])
        np.subtract(_NEG_ENTROPY_OF_UNIT_NORMAL, out[:, 0], out=out[:, 0])
        # The expectations are einsum's sums of products, row by row; a BLAS
        # product may sum a row differently for another number of rows.
        out[:, 0] -= np.einsum("mk,k->m", vals, w)
        # d(node)/dv is J = (sd0, sd z), so the gradient of E_q[log t] is
        # E[d1 J] and its Hessian E[d2 J J'], plus E[d1 sd z] on the log sd
        # diagonal because the nodes are exponential in log sd.
        jac = np.empty((len(members), 2))
        jac[:, 0], jac[:, 1] = sd0[members], sd
        np.multiply(np.einsum("mk,jk->mj", d1, weights[:2]), jac, out=out[:, 1:3])
        e2 = np.einsum("mk,jk->mj", d2, weights)
        np.multiply(e2[:, _HESSIAN_MOMENT], jac[:, _HESSIAN_ROW] * jac[:, _HESSIAN_COLUMN], out=out[:, 3:])
        out[:, 6] += out[:, 2]
        np.negative(out[:, 1:], out=out[:, 1:])
        out[:, 2] -= 1.0
        return out

    # The mean's gradient in v is sd0 dKL/dmu, free of the target's scale, and
    # the log sd one is twice the log var one.
    tol = np.array([GRAD_TOL, 2.0 * GRAD_TOL])
    everyone = np.arange(mu0.size)
    v = np.zeros(mu0.shape + (2,))
    state = kl_grad_hess(everyone, *params(everyone, v))
    grad = state[:, 1:3]
    for _ in range(MAX_ITER):
        pending = np.flatnonzero(~(np.abs(grad) < tol).all(axis=-1))
        if not pending.size:
            mu, sd = params(everyone, v)
            return _diagonal(mu.reshape(init.mean.shape), (sd**2).reshape(init.mean.shape))
        rows = state[pending]
        step = _descent_step(rows[:, 1:3], rows[:, 3:])
        # Accept rounding-level rises: near the optimum the KL no longer
        # resolves the progress the gradient still shows.
        bound = rows[:, 0] + 1e-12 * np.maximum(1.0, np.abs(rows[:, 0]))
        while pending.size:
            trial = v[pending] + step
            mu, sd = params(pending, trial)
            # A member whose nodes would leave the support is rejected
            # unevaluated; a shorter step stays inside.  The rule is symmetric,
            # so its outermost nodes mu -+ sd z_max bound the rest.
            reach = sd * offsets[-1]
            inside = (mu - reach >= lo[pending]) & (mu + reach <= hi[pending])
            reject = ~inside
            if inside.any():
                members = pending[inside]
                trial_state = kl_grad_hess(members, mu[inside], sd[inside])
                better = trial_state[:, 0] <= bound[inside]
                accepted = members[better]
                v[accepted] = trial[inside][better]
                state[accepted] = trial_state[better]
                reject[inside] = ~better
            pending, step, bound = pending[reject], step[reject] / 2.0, bound[reject]
    raise RuntimeError(f"damped Newton descent failed to converge within {MAX_ITER} iterations")
