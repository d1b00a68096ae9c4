"""Multivariate Gaussians, tabulated grid densities, and the divergences between them.

Everything downstream (tempered posteriors, their Gaussian limits, mean-field
projections, robustness criteria) is expressed in terms of two density
representations:

* :class:`GaussianDist` -- mean vector plus symmetric positive-definite
  covariance, validated by Cholesky factorization at construction, or a
  stack of them along a leading axis.
* :class:`GridDensity` -- a normalized density tabulated on a uniform
  axis, the exact workhorse for the non-conjugate one-dimensional posterior.

Divergences provided: Kullback-Leibler, squared Hellinger, and total
variation; the closed-form ones broadcast over stacks.  The squared
Hellinger distance uses the standard Gaussian affinity, i.e. the quadratic
form in the exponent is taken against the *inverse* of the averaged
covariance ``((S1 + S2) / 2)^{-1}``.  Gaussian total variation is exact in
dimension one and two: a closed form in the normal CDF in 1-d, and in 2-d a
closed-form inner integral under a 1-d outer rule (Monte Carlo is the option
in any dimension).

The module needs only numpy: the normal CDF behind the total variation is
built on :func:`math.erf`.  The grid spline alone loads ``scipy.interpolate``,
on first use.

All functions are pure; Monte Carlo routines take an explicit
``numpy.random.Generator`` so concurrent callers own independent streams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "GaussianDist",
    "GridDensity",
    "TVEstimate",
    "log_density",
    "kl_gaussian",
    "hellinger_sq_gaussian",
    "tv_gaussian",
    "kl_grid",
    "tv_grid",
]

# Symmetry tolerance (relative) for covariance inputs.
_SYM_RTOL = 1e-12
# KL values in [-_KL_SLACK, 0) are floating-point cancellation; clamp to 0.
_KL_SLACK = 1e-12


def _solve_lower(chol: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``chol^{-1} b`` for vectors ``b`` of shape (..., p), broadcast over stacks."""
    return np.linalg.solve(chol, b[..., None])[..., 0]


def _half_log_det(chol: np.ndarray) -> np.ndarray:
    return np.sum(np.log(np.diagonal(chol, axis1=-2, axis2=-1)), axis=-1)


def _result(value):
    # A Python float for one distribution (pair), the array for a stack.
    return float(value) if np.ndim(value) == 0 else value


@dataclass(frozen=True)
class GaussianDist:
    """A multivariate normal distribution N(mean, cov), or a stack of them.

    A stack has ``mean`` of shape (k, p) and ``cov`` of shape (k, p, p), and
    member ``i`` is ``N(mean[i], cov[i])``; ``stack[i]`` and ``stack[a:b]``
    select members.  Mean and covariance must be finite, and each covariance
    symmetric to within 1e-12 relative tolerance and admit a Cholesky
    factorization; violation by any member raises ``ValueError`` at
    construction.  Scalars are promoted, so ``GaussianDist(0.0, 1.0)`` is the
    standard normal on the real line.
    """

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        cov = np.atleast_2d(np.asarray(self.cov, dtype=float))
        if mean.ndim > 2:
            raise ValueError("mean must be a vector or a stack of vectors")
        if cov.shape != mean.shape + mean.shape[-1:]:
            raise ValueError(f"covariance shape {cov.shape} does not match mean shape {mean.shape}")
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(cov))):
            raise ValueError("mean and covariance must be finite")
        cov_t = np.swapaxes(cov, -1, -2)
        scale = np.maximum(np.max(np.abs(cov), axis=(-2, -1)), 1e-300)
        if np.any(np.max(np.abs(cov - cov_t), axis=(-2, -1)) > _SYM_RTOL * scale):
            raise ValueError("covariance must be symmetric")
        cov = (cov + cov_t) / 2.0
        try:
            chol = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError as err:
            raise ValueError("covariance is not positive definite") from err
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        object.__setattr__(self, "_chol", chol)

    @property
    def dim(self) -> int:
        return self.mean.shape[-1]

    @property
    def stacked(self) -> bool:
        """Whether this is a stack of distributions rather than one."""
        return self.mean.ndim == 2

    def __getitem__(self, index) -> "GaussianDist":
        if not self.stacked:
            raise ValueError("only a stack of distributions can be indexed")
        return GaussianDist(self.mean[index], self.cov[index])

    @property
    def chol(self) -> np.ndarray:
        """Lower-triangular Cholesky factor of the covariance."""
        return self._chol

    def half_log_det(self) -> float | np.ndarray:
        """log |cov| / 2, from the Cholesky diagonal."""
        return _result(_half_log_det(self._chol))

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` samples, returned with shape (size, dim)."""
        _require_single(self)
        z = rng.standard_normal((size, self.dim))
        return self.mean + z @ self._chol.T


def _require_single(*dists):
    # For routines that take one distribution (Gaussian or mean-field), not a stack.
    if any(g.stacked for g in dists):
        raise ValueError("this takes one distribution, not a stack")


def log_density(g: GaussianDist, x: np.ndarray) -> float | np.ndarray:
    """Gaussian log density at ``x``, computed via the Cholesky factor.

    ``x`` may be a single point of shape (dim,) or a batch of shape
    (num_points, dim); a batch returns the vector of log densities.
    """
    _require_single(g)
    x = np.asarray(x, dtype=float)
    single = x.ndim <= 1
    pts = np.atleast_2d(x)
    if pts.shape[1] != g.dim:
        raise ValueError(f"point dimension {pts.shape[1]} does not match distribution dimension {g.dim}")
    y = np.linalg.solve(g.chol, (pts - g.mean).T)
    quad = np.einsum("ij,ij->j", y, y)
    out = -0.5 * (g.dim * np.log(2.0 * np.pi) + quad) - g.half_log_det()
    return float(out[0]) if single else out


def kl_gaussian(p: GaussianDist, q: GaussianDist) -> float | np.ndarray:
    """KL(p || q) between Gaussians, broadcast over stacks.

    Evaluates the closed form
    ``(log(|S2|/|S1|) + tr(S2^{-1} S1) + (m2-m1)' S2^{-1} (m2-m1) - p) / 2``
    with all solves done against Cholesky factors.  Tiny negative results
    (within 1e-12 of zero) are clamped to exactly 0.  Two single
    distributions give a float, a stack on either side the array of its
    members' values.
    """
    if p.dim != q.dim:
        raise ValueError("distributions must have equal dimension")
    a = np.linalg.solve(q.chol, p.chol)
    trace = np.sum(a * a, axis=(-2, -1))
    y = _solve_lower(q.chol, q.mean - p.mean)
    quad = np.sum(y * y, axis=-1)
    log_det_ratio = 2.0 * (_half_log_det(q.chol) - _half_log_det(p.chol))
    val = 0.5 * (log_det_ratio + trace + quad - p.dim)
    return _result(np.where((-_KL_SLACK < val) & (val < 0.0), 0.0, val))


def hellinger_sq_gaussian(p: GaussianDist, q: GaussianDist) -> float | np.ndarray:
    """Squared Hellinger distance between Gaussians, in [0, 1], broadcast over stacks.

    Uses the standard affinity
    ``|S1|^{1/4} |S2|^{1/4} / |M|^{1/2} * exp(-(m1-m2)' M^{-1} (m1-m2) / 8)``
    with ``M = (S1 + S2) / 2``; note the inverse of the averaged covariance
    inside the quadratic form.
    """
    if p.dim != q.dim:
        raise ValueError("distributions must have equal dimension")
    mid_cov = (p.cov + q.cov) / 2.0
    mid = GaussianDist(np.broadcast_to(p.mean, mid_cov.shape[:-1]), mid_cov)
    y = _solve_lower(mid.chol, p.mean - q.mean)
    log_affinity = (
        0.5 * _half_log_det(p.chol)
        + 0.5 * _half_log_det(q.chol)
        - _half_log_det(mid.chol)
        - np.sum(y * y, axis=-1) / 8.0
    )
    return _result(np.clip(-np.expm1(log_affinity), 0.0, 1.0))


class TVEstimate(NamedTuple):
    """A total variation estimate with its standard error (0 for the exact method)."""

    value: float | np.ndarray
    se: float


def _ratio_set(mu, s, ell=0.0) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The set ``{y : ell + 2 log(p(y) / q(y)) > 0}`` for ``p = N(0, 1)`` and ``q = N(mu, s^2)``, elementwise.

    Returns its bounds ``(lo_p, hi_p, lo_q, hi_q)`` in p's and in q's
    standardized coordinate: the set is the interval between them where
    ``s > 1``, else its complement.  An empty interval is ``lo = hi = 0``;
    ``s = 1`` gives a half-line.  With ``d = s^2``, ``a = 1 - d`` and
    ``Q = mu^2 - a (log d + ell)`` the bounds are ``(mu +- s sqrt(Q)) / a`` and
    ``(mu s +- sqrt(Q)) / a``, each in the cancellation-free form ``t / a``,
    ``c / t``.  A discriminant ``b^2/4 - ac`` would cancel once one standard
    deviation is about 1e-10 of the other, and q's bounds taken from p's
    would round onto q's mean.
    """
    d = s * s
    a = 1.0 - d
    log_d = 2.0 * np.log(s)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        quarter = mu * mu - a * (log_d + ell)
        root = np.sqrt(np.maximum(quarter, 0.0))
        bounds = []
        for t, c in (
            (mu + np.copysign(s * root, mu), mu * mu + d * (log_d + ell)),
            (mu * s + np.copysign(root, mu), log_d + ell - mu * mu),
        ):
            r1, r2 = t / a, c / t
            bounds += [np.where(quarter > 0.0, f(r1, r2), 0.0) for f in (np.minimum, np.maximum)]
    return tuple(bounds)


_SQRT1_2 = math.sqrt(0.5)


def _ndtr(a) -> np.ndarray:
    """Standard normal CDF, elementwise, in the form of Cephes' ndtr.

    ``math.erf`` near the centre, ``math.erfc`` of ``|x|`` in the tails,
    reflected for positive ``x``.  ``map`` over a list calls the two C
    builtins without a Python frame per element, about twice as fast as a
    ``np.frompyfunc`` ufunc.
    """
    x = np.asarray(a, dtype=float) * _SQRT1_2
    z = np.abs(x)
    centre = z < _SQRT1_2
    tail = ~centre
    out = np.empty_like(x)
    out[centre] = 0.5 + 0.5 * np.fromiter(map(math.erf, x[centre].tolist()), float)
    lower = 0.5 * np.fromiter(map(math.erfc, z[tail].tolist()), float)
    out[tail] = np.where(x[tail] > 0.0, 1.0 - lower, lower)
    return out


def _normal_mass(lo, hi) -> np.ndarray:
    """P(lo < Z < hi) for a standard normal Z, from the nearer tail so right-tail intervals keep precision."""
    right = lo > 0.0
    # Phi(-lo) - Phi(-hi) on the right of the mean, Phi(hi) - Phi(lo) elsewhere.
    return _ndtr(np.where(right, -lo, hi)) - _ndtr(np.where(right, -hi, lo))


def _tv_frame(p: GaussianDist, q: GaussianDist) -> tuple[np.ndarray, np.ndarray]:
    # Whiten by p and rotate onto the singular vectors of L_p^{-1} L_q: there
    # p = N(0, I) and q = N(mu, diag(s^2)).  Returns (mu, s), broadcast over stacks.
    mu = _solve_lower(p.chol, q.mean - p.mean)
    u, s, _ = np.linalg.svd(np.linalg.solve(p.chol, q.chol))
    return np.einsum("...ji,...j->...i", u, mu), s


def _tv_1d(mu: np.ndarray, s: np.ndarray) -> np.ndarray:
    # Elementwise over the stack, in the frame of _tv_frame: TV = P_p(A) - P_q(A)
    # for A = {p > q}, an interval or its complement.  Equal distributions
    # give an empty interval, and 0.0 - 0.0 keeps their TV at +0.0.
    lo_p, hi_p, lo_q, hi_q = _ratio_set(mu, s)
    diff = _normal_mass(lo_p, hi_p) - _normal_mass(lo_q, hi_q)
    return np.where(s > 1.0, diff, 0.0 - diff)


def _tv_2d(mu: np.ndarray, s: np.ndarray, budget: int) -> float:
    # One pair: integrate the inner coordinate j in closed form, where p and q
    # differ more (a coordinate on which they agree would make A's section
    # jump between empty and the whole line), and the outer i numerically.
    # With ell_i(x) = 2 log(p_i(x) / q_i(x)), A's section at x is
    # _ratio_set(mu_j, s_j, ell_i(x)).
    d = s * s
    j = int(np.argmax(d - 1.0 - np.log(d) + mu * mu))
    i = 1 - j
    width = 8.0 * max(1.0, s[i])
    box = (min(0.0, mu[i]) - width, max(0.0, mu[i]) + width)
    # The section has a sqrt kink in x where its Q = mu_j^2 - a_j (log d_j +
    # ell_i(x)) changes sign, with a_j = 1 - d_j: at the ends of the set
    # {ell_i(x) + log d_j - mu_j^2 / a_j > 0}.  Q is constant where d_j = 1.
    # Split the outer range there and map each piece by x = mid - half
    # cos(theta): the kink becomes sin(theta), and the trapezoid rule in
    # theta stays spectrally accurate.
    kinks = []
    if d[j] != 1.0:
        with np.errstate(over="ignore"):
            offset = np.log(d[j]) - mu[j] ** 2 / (1.0 - d[j])
        kink_lo, kink_hi = _ratio_set(mu[i], s[i], offset)[:2]
        kinks = [float(x) for x in (kink_lo, kink_hi) if kink_lo < kink_hi and box[0] < x < box[1]]
    ends = np.array([box[0], *kinks, box[1]])
    mid, half = (ends[1:] + ends[:-1]) / 2.0, (ends[1:] - ends[:-1]) / 2.0
    # The budget is shared among the pieces.
    theta = np.linspace(0.0, np.pi, max(budget // mid.size, 2))
    x = (mid[:, None] - half[:, None] * np.cos(theta)).ravel()
    w = (half[:, None] * np.sin(theta) * (theta[1] - theta[0])).ravel()
    z = (x - mu[i]) / s[i]
    lo_p, hi_p, lo_q, hi_q = _ratio_set(mu[j], s[j], z * z - x * x + np.log(d[i]))
    p_outer = np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)
    q_outer = np.exp(-0.5 * z * z) / (np.sqrt(2.0 * np.pi) * s[i])
    # Where s_j <= 1 the section is the complement of the interval; the
    # whole-line terms p_outer - q_outer integrate to 0, which leaves a sign flip.
    g = p_outer * _normal_mass(lo_p, hi_p) - q_outer * _normal_mass(lo_q, hi_q)
    tv = float(w @ g)
    return tv if s[j] > 1.0 else 0.0 - tv


def tv_gaussian(
    p: GaussianDist,
    q: GaussianDist,
    method: str = "exact",
    budget: int = 4001,
    rng: np.random.Generator | None = None,
) -> TVEstimate:
    """Total variation distance between Gaussians.

    method="exact" (dimension <= 2 only, broadcast over stacks):
    ``P_p(A) - P_q(A)`` for the set ``A = {p > q}``, in the frame where
    ``p = N(0, I)`` and ``q`` has a diagonal covariance.  In dimension 1 ``A``
    is bounded by the roots of a quadratic and the result is a closed form in
    the normal CDF (``budget`` is unused).  In dimension 2 the inner
    coordinate is integrated in closed form and the outer one by ``budget``
    trapezoid nodes in a cosine map, split where ``A``'s section appears or
    vanishes, so 2001 nodes agree with 40001 to within 1e-12 even for
    strongly elongated pairs, as long as each of q's variances in that
    frame (where p's are 1) is at least 1e-12; a stack runs one such rule
    per pair.  Two single distributions give a float value, a stack the
    array of values.

    method="monte_carlo" (one pair, not a stack): returns
    ``0.5 * mean_p |1 - q(X)/p(X)|`` over ``budget`` draws from ``p``, with
    its standard error; requires an explicit ``rng``.
    """
    if p.dim != q.dim:
        raise ValueError("distributions must have equal dimension")
    if budget < 2:
        raise ValueError("budget must be a positive integer >= 2")
    if method == "exact":
        if p.dim > 2:
            raise ValueError(
                f"exact total variation is only supported in dimension <= 2, got dimension {p.dim}"
            )
        mu, s = _tv_frame(p, q)
        if p.dim == 1:
            tv = _tv_1d(mu[..., 0], s[..., 0])
        else:
            pairs = zip(mu.reshape(-1, 2), s.reshape(-1, 2))
            tv = np.reshape([_tv_2d(m, sd, budget) for m, sd in pairs], mu.shape[:-1])
        return TVEstimate(_result(np.clip(tv, 0.0, 1.0)), 0.0)
    if method == "monte_carlo":
        _require_single(p, q)
        if rng is None:
            raise ValueError("monte_carlo requires an explicit rng")
        x = p.sample(rng, budget)
        g = 0.5 * np.abs(1.0 - np.exp(log_density(q, x) - log_density(p, x)))
        return TVEstimate(float(np.mean(g)), float(np.std(g, ddof=1) / np.sqrt(budget)))
    raise ValueError(f"unknown method {method!r}")


def trapezoid_weights(x: np.ndarray) -> np.ndarray:
    """Trapezoid quadrature weights for a uniform axis."""
    h = float(x[1] - x[0])
    w = np.full(x.shape, h)
    w[0] = w[-1] = h / 2.0
    return w


@dataclass(frozen=True)
class GridDensity:
    """A normalized density tabulated on a uniform axis ``x``.

    ``log_weights`` holds the log *unnormalized* density at every node of
    ``x`` and ``normalizer`` the log of its trapezoid-rule integral, so the
    normalized log density at a node is ``log_weights - normalizer``.
    Construction is stabilized by a log-sum-exp shift, and the normalized
    density integrates to 1 within 1e-8 by construction.
    """

    x: np.ndarray
    log_weights: np.ndarray
    normalizer: float

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        lw = np.asarray(self.log_weights, dtype=float)
        if x.ndim != 1 or x.size < 2:
            raise ValueError("the grid is one axis of at least two nodes")
        if lw.shape != x.shape:
            raise ValueError("log_weights shape does not match the axis")
        steps = np.diff(x)
        if np.any(steps <= 0):
            raise ValueError("the axis must be strictly increasing")
        if not np.max(np.abs(steps - steps[0])) <= 1e-9 * abs(steps[0]):
            raise ValueError("the axis must be uniformly spaced")
        if not np.all(np.isfinite(lw)):
            raise ValueError("log_weights must be finite")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "log_weights", lw)
        object.__setattr__(self, "normalizer", float(self.normalizer))

    @classmethod
    def from_log_unnormalized(cls, x: np.ndarray, log_values: np.ndarray) -> "GridDensity":
        """Normalize log values tabulated on ``x`` by their trapezoid-rule integral."""
        log_values = np.asarray(log_values, dtype=float)
        if not np.all(np.isfinite(log_values)):
            raise ValueError("log values must be finite on the grid")
        shift = float(np.max(log_values))
        mass = float(np.sum(trapezoid_weights(x) * np.exp(log_values - shift)))
        if not np.isfinite(mass) or mass <= 0.0:
            raise ValueError("grid weights underflow; the box is misplaced")
        return cls(x, log_values, shift + np.log(mass))

    @classmethod
    def from_gaussian(cls, g: GaussianDist, x: np.ndarray) -> "GridDensity":
        """The one-dimensional Gaussian ``g`` tabulated on ``x``."""
        return cls.from_log_unnormalized(x, log_density(g, np.asarray(x, dtype=float)[:, None]))

    def pdf(self) -> np.ndarray:
        """Normalized density values at the grid nodes."""
        return np.exp(self.log_weights - self.normalizer)

    def log_pdf(self) -> np.ndarray:
        """Normalized log density values at the grid nodes."""
        return self.log_weights - self.normalizer

    def integral(self) -> float:
        return float(np.sum(trapezoid_weights(self.x) * self.pdf()))

    def _spline(self):
        # Lazily built cubic interpolant of the normalized log density.
        # scipy.interpolate is imported here, not at module load, because it
        # costs a large share of start-up and most runs never build a spline.
        cached = getattr(self, "_spline_cache", None)
        if cached is None:
            from scipy.interpolate import CubicSpline

            cached = CubicSpline(self.x, self.log_pdf())
            object.__setattr__(self, "_spline_cache", cached)
        return cached

    def log_pdf_and_grad_at(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Interpolated log density with its first and second derivatives at off-grid points.

        ``points`` is a vector of N locations; the three returned arrays have
        shape (N,) and are exact derivatives of the same cubic interpolant.
        Raises ``ValueError`` if any point falls outside the grid's range.
        """
        x = np.asarray(points, dtype=float)
        if np.any(x < self.x[0]) or np.any(x > self.x[-1]):
            raise ValueError("points fall outside the tabulated support")
        sp = self._spline()
        return sp(x), sp(x, 1), sp(x, 2)

    def moments(self) -> tuple[float, float]:
        """Mean and variance by trapezoid integration."""
        w = trapezoid_weights(self.x) * self.pdf()
        mean = float(self.x @ w)
        return mean, float((self.x - mean) ** 2 @ w)


def _check_same_axis(p: GridDensity, q: GridDensity):
    if p.x.size != q.x.size or (p.x is not q.x and not np.allclose(p.x, q.x, rtol=1e-12, atol=0.0)):
        raise ValueError("grid densities must share identical axes")


def kl_grid(p: GridDensity, q: GridDensity) -> float:
    """Trapezoid-rule KL(p || q) on a shared grid.

    Nodes where the density of ``p`` is below 1e-300 contribute zero.
    """
    _check_same_axis(p, q)
    lp = p.log_pdf()
    lq = q.log_pdf()
    pd = np.exp(lp)
    integrand = np.where(pd < 1e-300, 0.0, pd * (lp - lq))
    return float(np.sum(trapezoid_weights(p.x) * integrand))


def tv_grid(p: GridDensity, q: GridDensity) -> float:
    """Trapezoid-rule total variation ``0.5 * integral |p - q|`` on a shared grid."""
    _check_same_axis(p, q)
    diff = np.abs(p.pdf() - q.pdf())
    return 0.5 * float(np.sum(trapezoid_weights(p.x) * diff))
