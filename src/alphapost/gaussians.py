"""Multivariate Gaussians, tabulated grid densities, and the divergences between them.

Everything downstream (tempered posteriors, their Gaussian limits, mean-field
projections, robustness criteria) is expressed in terms of two density
representations:

* :class:`GaussianDist` -- mean vector plus symmetric positive-definite
  covariance, validated by Cholesky factorization at construction, or a
  stack of them along a leading axis.
* :class:`GridDensity` -- a normalized density tabulated on a uniform
  rectangular grid, the exact workhorse for non-conjugate posteriors in
  dimension one or two.

Divergences provided: Kullback-Leibler, squared Hellinger, and total
variation; the closed-form ones broadcast over stacks.  The squared
Hellinger distance uses the standard Gaussian affinity, i.e. the quadratic
form in the exponent is taken against the *inverse* of the averaged
covariance ``((S1 + S2) / 2)^{-1}``.  Gaussian total variation is exact in
dimension one and two: a closed form in the normal CDF in 1-d, and in 2-d a
closed-form inner integral under a 1-d outer rule (Monte Carlo is the option
in any dimension).

The module needs only numpy: the normal CDF behind the total variation is
built on :func:`math.erf`.  Grid splines alone load ``scipy.interpolate``,
on first use.

All functions are pure; Monte Carlo routines take an explicit
``numpy.random.Generator`` so concurrent callers own independent streams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

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
    "trapezoid_weights",
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


def _positive_set(a, b, c) -> tuple[np.ndarray, np.ndarray]:
    """The set ``{y : a y^2 + b y + c > 0}``, elementwise over broadcast coefficients.

    Returns ``(lo, hi)``: the set is the interval ``(lo, hi)`` where ``a <= 0``
    and its complement where ``a > 0``.  An empty interval is ``lo = hi = 0``
    and a half-line has an infinite end.  The roots use the cancellation-free
    form ``r1 = t / a``, ``r2 = c / t`` with ``t = -(b + sign(b) sqrt(disc)) / 2``.
    """
    a, b, c = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (a, b, c)))
    quarter_disc = b * b / 4.0 - a * c
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t = -(b / 2.0 + np.copysign(np.sqrt(np.maximum(quarter_disc, 0.0)), b))
        r1, r2 = t / a, c / t
        root = -c / b
    two_roots = (a != 0.0) & (quarter_disc > 0.0)
    lo = np.where(two_roots, np.minimum(r1, r2), 0.0)
    hi = np.where(two_roots, np.maximum(r1, r2), 0.0)
    # a == 0: a half-line, the whole line (b == 0 < c), or empty (b == 0, c <= 0).
    linear = (a == 0.0) & ~((b == 0.0) & (c <= 0.0))
    lo = np.where(linear, np.where(b > 0.0, root, -np.inf), lo)
    hi = np.where(linear, np.where(b < 0.0, root, np.inf), hi)
    return lo, hi


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


def _normal_mass(lo, hi, mean, sd) -> np.ndarray:
    """P(lo < X < hi) for X ~ N(mean, sd^2), from the nearer tail so right-tail intervals keep precision."""
    zl, zh = (lo - mean) / sd, (hi - mean) / sd
    right = zl > 0.0
    # Phi(-zl) - Phi(-zh) on the right of the mean, Phi(zh) - Phi(zl) elsewhere.
    return _ndtr(np.where(right, -zl, zh)) - _ndtr(np.where(right, -zh, zl))


def _tv_frame(p: GaussianDist, q: GaussianDist) -> tuple[np.ndarray, np.ndarray]:
    # Whiten by p and rotate onto the singular vectors of L_p^{-1} L_q: there
    # p = N(0, I) and q = N(mu, diag(s^2)).  Returns (mu, s), broadcast over stacks.
    mu = _solve_lower(p.chol, q.mean - p.mean)
    u, s, _ = np.linalg.svd(np.linalg.solve(p.chol, q.chol))
    return np.einsum("...ji,...j->...i", u, mu), s


def _quadratics(mu, s) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    # In the frame of _tv_frame, 2 d_j (log p - log q) splits into one
    # quadratic a_j y^2 + b_j y + c_j per coordinate, with d = s^2.  TV =
    # P_p(A) - P_q(A) with A = {p > q}.  Equal distributions give
    # a = b = c = 0, so A is empty.
    d = s * s
    return d, 1.0 - d, -2.0 * mu, mu * mu + d * np.log(d)


def _tv_1d(mu: np.ndarray, s: np.ndarray) -> np.ndarray:
    # Elementwise over the stack: A is an interval or its complement.
    _, a, b, c = _quadratics(mu, s)
    lo, hi = _positive_set(a, b, c)
    diff = _normal_mass(lo, hi, 0.0, 1.0) - _normal_mass(lo, hi, mu, s)
    return np.where(a <= 0.0, diff, -diff)


def _tv_2d(mu: np.ndarray, s: np.ndarray, budget: int) -> float:
    # One pair: integrate the inner coordinate j in closed form, where p and q
    # differ more (a coordinate on which they agree would make A's section
    # jump between empty and the whole line), and the outer i numerically.
    d, a, b, c = _quadratics(mu, s)
    j = int(np.argmax(d - 1.0 - np.log(d) + mu * mu))
    i = 1 - j
    width = 8.0 * max(1.0, s[i])
    box = (min(0.0, mu[i]) - width, max(0.0, mu[i]) + width)
    # The section of A at x has a sqrt kink in x where the inner quadratic's
    # discriminant b_j^2/4 - a_j (c_j + k (a_i x^2 + b_i x + c_i)) changes
    # sign, with k = d_j / d_i.  Split the outer range there and map each
    # piece by x = mid - half cos(theta): the kink becomes sin(theta), and the
    # trapezoid rule in theta stays spectrally accurate.
    k = d[j] / d[i]
    kink_lo, kink_hi = _positive_set(
        -a[j] * k * a[i], -a[j] * k * b[i], b[j] ** 2 / 4.0 - a[j] * (c[j] + k * c[i])
    )
    kinks = [float(x) for x in (kink_lo, kink_hi) if kink_lo < kink_hi and box[0] < x < box[1]]
    ends = np.array([box[0], *kinks, box[1]])
    mid, half = (ends[1:] + ends[:-1]) / 2.0, (ends[1:] - ends[:-1]) / 2.0
    # The budget is shared among the pieces.
    theta = np.linspace(0.0, np.pi, max(budget // mid.size, 2))
    x = (mid[:, None] - half[:, None] * np.cos(theta)).ravel()
    w = (half[:, None] * np.sin(theta) * (theta[1] - theta[0])).ravel()
    lo, hi = _positive_set(a[j], b[j], c[j] + k * (a[i] * x * x + b[i] * x + c[i]))
    p_outer = np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)
    q_outer = np.exp(-0.5 * ((x - mu[i]) / s[i]) ** 2) / (np.sqrt(2.0 * np.pi) * s[i])
    # Where a_j > 0 the section is the complement of (lo, hi); the whole-line
    # terms p_outer - q_outer integrate to 0, which leaves a sign flip.
    g = p_outer * _normal_mass(lo, hi, 0.0, 1.0) - q_outer * _normal_mass(lo, hi, mu[j], s[j])
    tv = float(w @ g)
    return tv if a[j] <= 0.0 else -tv


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
    strongly elongated pairs; a stack runs one such rule per pair.  Two
    single distributions give a float value, a stack the array of values.

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


def mesh_points(axes: Sequence[np.ndarray]) -> np.ndarray:
    """Every node of the tensor grid on ``axes`` as an (N, dim) array, in row-major mesh order.

    Row ``k`` is the node at flat index ``k`` of an array of shape
    ``(len(axes[0]), len(axes[1]), ...)``, so values computed on these points
    reshape straight back onto the grid.
    """
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def trapezoid_weights(axes: Sequence[np.ndarray]) -> np.ndarray:
    """Tensor-product trapezoid quadrature weights for uniform axes."""
    weights = None
    for ax in axes:
        h = float(ax[1] - ax[0])
        w = np.full(ax.shape, h)
        w[0] = w[-1] = h / 2.0
        weights = w if weights is None else np.multiply.outer(weights, w)
    return weights


@dataclass(frozen=True)
class GridDensity:
    """A normalized density tabulated on a uniform rectangular grid.

    ``log_weights`` holds the log *unnormalized* density at every grid node
    and ``normalizer`` the log of its trapezoid-rule integral, so the
    normalized log density at a node is ``log_weights - normalizer``.
    Construction is stabilized by a log-sum-exp shift, and the normalized
    density integrates to 1 within 1e-8 by construction.
    """

    axes: tuple[np.ndarray, ...]
    log_weights: np.ndarray
    normalizer: float

    def __post_init__(self):
        axes = tuple(np.asarray(ax, dtype=float) for ax in self.axes)
        lw = np.asarray(self.log_weights, dtype=float)
        if lw.shape != tuple(ax.size for ax in axes):
            raise ValueError("log_weights shape does not match axes")
        for ax in axes:
            if ax.size < 2:
                raise ValueError("each axis needs at least two nodes")
            steps = np.diff(ax)
            if np.any(steps <= 0):
                raise ValueError("axes must be strictly increasing")
            if not np.max(np.abs(steps - steps[0])) <= 1e-9 * abs(steps[0]):
                raise ValueError("axes must be uniformly spaced")
        if not np.all(np.isfinite(lw)):
            raise ValueError("log_weights must be finite")
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "log_weights", lw)
        object.__setattr__(self, "normalizer", float(self.normalizer))

    @classmethod
    def from_log_unnormalized(cls, axes: Sequence[np.ndarray], log_values: np.ndarray) -> "GridDensity":
        """Normalize tabulated log values by their trapezoid-rule integral."""
        log_values = np.asarray(log_values, dtype=float)
        if not np.all(np.isfinite(log_values)):
            raise ValueError("log values must be finite on the grid")
        shift = float(np.max(log_values))
        mass = float(np.sum(trapezoid_weights(axes) * np.exp(log_values - shift)))
        if not np.isfinite(mass) or mass <= 0.0:
            raise ValueError("grid weights underflow; the box is misplaced")
        return cls(tuple(axes), log_values, shift + np.log(mass))

    @classmethod
    def from_log_fn(cls, axes: Sequence[np.ndarray], log_fn: Callable[[np.ndarray], np.ndarray]) -> "GridDensity":
        """Tabulate ``log_fn`` (mapping (N, dim) points to (N,) values) on the grid."""
        vals = np.asarray(log_fn(mesh_points(axes)), dtype=float).reshape([len(ax) for ax in axes])
        return cls.from_log_unnormalized(axes, vals)

    @classmethod
    def from_gaussian(cls, g: GaussianDist, axes: Sequence[np.ndarray]) -> "GridDensity":
        return cls.from_log_fn(axes, lambda pts: log_density(g, pts))

    @property
    def dim(self) -> int:
        return len(self.axes)

    def pdf(self) -> np.ndarray:
        """Normalized density values at the grid nodes."""
        return np.exp(self.log_weights - self.normalizer)

    def log_pdf(self) -> np.ndarray:
        """Normalized log density values at the grid nodes."""
        return self.log_weights - self.normalizer

    def integral(self) -> float:
        return float(np.sum(trapezoid_weights(self.axes) * self.pdf()))

    def nodes(self) -> np.ndarray:
        """All grid nodes as an (N, dim) array in row-major mesh order."""
        return mesh_points(self.axes)

    def _spline(self):
        # Lazily built cubic interpolant of the normalized log density.
        # scipy.interpolate is imported here, not at module load, because it
        # costs a large share of start-up and most runs never build a spline.
        cached = getattr(self, "_spline_cache", None)
        if cached is None:
            from scipy.interpolate import CubicSpline, RectBivariateSpline

            if self.dim == 1:
                cached = CubicSpline(self.axes[0], self.log_pdf())
            else:
                cached = RectBivariateSpline(self.axes[0], self.axes[1], self.log_pdf(), kx=3, ky=3, s=0)
            object.__setattr__(self, "_spline_cache", cached)
        return cached

    def _check_support(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != self.dim:
            raise ValueError("point dimension does not match grid dimension")
        for j, ax in enumerate(self.axes):
            if np.any(pts[:, j] < ax[0]) or np.any(pts[:, j] > ax[-1]):
                raise ValueError("points fall outside the tabulated support")
        return pts

    def log_pdf_and_grad_at(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Interpolated log density with its gradient and Hessian at off-grid points.

        Returns arrays of shape (N,), (N, dim) and (N, dim, dim), all exact
        derivatives of the same cubic interpolant.  Raises ``ValueError`` if
        any point falls outside the grid box.
        """
        pts = self._check_support(points)
        sp = self._spline()
        if self.dim == 1:
            x = pts[:, 0]
            return sp(x), sp(x, 1)[:, None], sp(x, 2)[:, None, None]
        x, y = pts[:, 0], pts[:, 1]
        grad = np.stack([sp.ev(x, y, dx=1), sp.ev(x, y, dy=1)], axis=-1)
        hxy = sp.ev(x, y, dx=1, dy=1)
        hess = np.stack([sp.ev(x, y, dx=2), hxy, hxy, sp.ev(x, y, dy=2)], axis=-1).reshape(-1, 2, 2)
        return sp.ev(x, y), grad, hess

    def moments(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-axis mean and variance by trapezoid integration."""
        w = trapezoid_weights(self.axes) * self.pdf()
        pts = self.nodes()
        wflat = w.ravel()
        mean = pts.T @ wflat
        var = ((pts - mean) ** 2).T @ wflat
        return mean, var


def _check_same_axes(p: GridDensity, q: GridDensity):
    if p.dim != q.dim or any(a.size != b.size for a, b in zip(p.axes, q.axes)):
        raise ValueError("grid densities must share identical axes")
    for a, b in zip(p.axes, q.axes):
        if a is not b and not np.allclose(a, b, rtol=1e-12, atol=0.0):
            raise ValueError("grid densities must share identical axes")


def kl_grid(p: GridDensity, q: GridDensity) -> float:
    """Trapezoid-rule KL(p || q) on a shared grid.

    Nodes where the density of ``p`` is below 1e-300 contribute zero.
    """
    _check_same_axes(p, q)
    lp = p.log_pdf()
    lq = q.log_pdf()
    pd = np.exp(lp)
    integrand = np.where(pd < 1e-300, 0.0, pd * (lp - lq))
    return float(np.sum(trapezoid_weights(p.axes) * integrand))


def tv_grid(p: GridDensity, q: GridDensity) -> float:
    """Trapezoid-rule total variation ``0.5 * integral |p - q|`` on a shared grid."""
    _check_same_axes(p, q)
    diff = np.abs(p.pdf() - q.pdf())
    return 0.5 * float(np.sum(trapezoid_weights(p.axes) * diff))
