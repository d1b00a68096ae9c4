"""Multivariate Gaussians, tabulated grid densities, and the divergences between them.

Everything downstream (tempered posteriors, their Gaussian limits, mean-field
projections, robustness criteria) is expressed in terms of two density
representations:

* :class:`GaussianDist` -- mean vector plus symmetric positive-definite
  covariance, validated by Cholesky factorization at construction, or a
  stack of them along a leading axis.
* :class:`GridDensity` -- a normalized density tabulated on a uniform
  axis, the exact workhorse for the non-conjugate one-dimensional posterior,
  or a stack of them, each on its own axis.

Divergences provided: Kullback-Leibler, squared Hellinger, and total
variation; the Gaussian ones have one exact path each, and they and the grid
ones broadcast over stacks.  The squared Hellinger distance uses the standard
Gaussian affinity, i.e. the quadratic form in the exponent is taken against
the *inverse* of the averaged covariance ``((S1 + S2) / 2)^{-1}``.  Gaussian
total variation is exact in dimension one and two: a closed form in the
normal CDF in 1-d, and in 2-d a closed-form inner integral under a 1-d outer
rule.

The module needs only numpy: the normal CDF behind the total variation
evaluates Cephes' rational approximations to erf and erfc over whole arrays,
a stack of 2-d pairs runs its outer rules as (pairs x nodes) arrays, and the
grid's cubic spline is solved here.

All functions are pure; :meth:`GaussianDist.sample` takes an explicit
``numpy.random.Generator`` so concurrent callers own independent streams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

__all__ = [
    "GaussianDist",
    "GridDensity",
    "log_density",
    "kl_gaussian",
    "hellinger_sq_gaussian",
    "tv_gaussian",
    "kl_grid",
    "tv_grid",
]

# Symmetry tolerance (relative) for covariance inputs.
_SYM_RTOL = 1e-12
# KL values in [-_KL_SLACK, 0) are floating-point cancellation, which _clamp_kl sets to 0.
_KL_SLACK = 1e-12


def _clamp_kl(kl: np.ndarray) -> np.ndarray:
    return np.where((-_KL_SLACK < kl) & (kl < 0.0), 0.0, kl)


def _solve_lower(chol: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``chol^{-1} b`` for vectors ``b`` of shape (..., p), broadcast over stacks."""
    return np.linalg.solve(chol, b[..., None])[..., 0]


def _half_log_det(chol: np.ndarray) -> np.ndarray:
    return np.sum(np.log(np.diagonal(chol, axis1=-2, axis2=-1)), axis=-1)


def _result(value):
    # A Python float for one distribution (pair), the array for a stack.
    return float(value) if np.ndim(value) == 0 else value


def _symmetric(mat: np.ndarray, name: str) -> np.ndarray:
    """``M / 2 + M' / 2`` for ``M`` (or each of a stack) finite and symmetric within ``_SYM_RTOL`` of its largest entry.

    Otherwise raises ``ValueError``: ``<name> must be finite``, or ``symmetric``.
    Halving first keeps the sums finite, and equals ``(M + M') / 2`` for normal floats.
    """
    if not np.all(np.isfinite(mat)):
        raise ValueError(f"{name} must be finite")
    half = mat / 2.0
    half_t = np.swapaxes(half, -1, -2)
    scale = np.maximum(np.max(np.abs(half), axis=(-2, -1)), 1e-300)
    if np.any(np.max(np.abs(half - half_t), axis=(-2, -1)) > _SYM_RTOL * scale):
        raise ValueError(f"{name} must be symmetric")
    return half + half_t


def _spd_cholesky(mat: np.ndarray, name: str) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_symmetric`'s matrix and its Cholesky factor, or ``ValueError``: ``<name> must be positive definite``."""
    sym = _symmetric(mat, name)
    try:
        return sym, np.linalg.cholesky(sym)
    except np.linalg.LinAlgError as err:
        raise ValueError(f"{name} must be positive definite") from err


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
        if not np.all(np.isfinite(mean)):
            raise ValueError("mean must be finite")
        cov, chol = _spd_cholesky(cov, "covariance")
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
    # An offset whose square overflows gives KL = inf, its limit.
    with np.errstate(over="ignore"):
        quad = np.sum(y * y, axis=-1)
    log_det_ratio = 2.0 * (_half_log_det(q.chol) - _half_log_det(p.chol))
    return _result(_clamp_kl(0.5 * (log_det_ratio + trace + quad - p.dim)))


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
    # An offset whose square overflows gives affinity 0, its limit.
    with np.errstate(over="ignore"):
        quad = np.sum(y * y, axis=-1)
    log_affinity = 0.5 * _half_log_det(p.chol) + 0.5 * _half_log_det(q.chol) - _half_log_det(mid.chol) - quad / 8.0
    return _result(np.clip(-np.expm1(log_affinity), 0.0, 1.0))


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

    Every term is formed divided by ``h``, or ``Q`` by ``h^2``, where ``h``
    is the largest power of two not above ``max(1, s)``.  Dividing by a power
    of two is exact, so the bounds are those of the unscaled terms wherever
    these are finite, and they stay finite where ``a (log d + ell)`` or
    ``d (log d + ell)`` alone would overflow.
    """
    log_d = 2.0 * np.log(s)
    h = np.ldexp(1.0, np.frexp(np.maximum(s, 1.0))[1] - 1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        level = log_d + ell
        mu_h, s_h = mu / h, s / h
        a_h2 = 1.0 / h / h - s_h * s_h
        quarter = mu_h * mu_h - a_h2 * level
        root = np.sqrt(np.maximum(quarter, 0.0))
        a_h = a_h2 * h
        bounds = []
        for t, c in (
            (mu_h + np.copysign(s * root, mu), mu_h * mu + s_h * s * level),
            (mu * s_h + np.copysign(root, mu), level / h - mu_h * mu),
        ):
            r1, r2 = t / a_h, c / t
            bounds += [np.where(quarter > 0.0, f(r1, r2), 0.0) for f in (np.minimum, np.maximum)]
    return tuple(bounds)


_SQRT1_2 = math.sqrt(0.5)


def _rational_coefficients(num, den) -> np.ndarray:
    # A rational function's numerator and denominator coefficients, highest
    # degree first, as one (degree + 1, 2, 1) array: the shorter one is padded
    # with leading zeros, which Horner's rule passes through exactly.
    size = max(len(num), len(den))
    rows = [(0.0,) * (size - len(c)) + tuple(c) for c in (num, den)]
    return np.array(rows).T[:, :, None]


# Cephes' rational approximations to erf and erfc (after Cody 1969, Math.
# Comp. 23:631): erf(x) = x T(x^2) / U(x^2) for |x| < 1, and erfc(x) =
# exp(-x^2) P(x) / Q(x) for 1 <= x < 8, exp(-x^2) R(x) / S(x) from 8 on.  U, Q
# and S have a leading coefficient of 1.
_ERF_TU = _rational_coefficients(
    (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3, 7.00332514112805075473e3,
     5.55923013010394962768e4),
    (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3, 2.26290000613890934246e4,
     4.92673942608635921086e4),
)
_ERFC_PQ = _rational_coefficients(
    (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0, 4.86371970985681366614e1,
     1.96520832956077098242e2, 5.26445194995477358631e2, 9.34528527171957607540e2, 1.02755188689515710272e3,
     5.57535335369399327526e2),
    (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2, 9.75708501743205489753e2,
     1.82390916687909736289e3, 2.24633760818710981792e3, 1.65666309194161350182e3, 5.57535340817727675546e2),
)
_ERFC_RS = _rational_coefficients(
    (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0, 6.16021097993053585195e0,
     7.40974269950448939160e0, 2.97886665372100240670e0),
    (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1, 1.70814450747565897222e1,
     9.60896809063285878198e0, 3.36907645100081516050e0),
)
# Cephes' MAXLOG: erfc is 0 where x^2 exceeds it, as exp(-x^2) underflows.
_MAXLOG = 7.09782712893383996843e2


def _horner(x: np.ndarray, coefs: np.ndarray) -> np.ndarray:
    # Numerator and denominator of a rational function at every element of
    # x, as a (2,) + x.shape array, by Horner's rule over the whole array.
    out = coefs[0] * x
    out += coefs[1]
    for c in coefs[2:]:
        out *= x
        out += c
    return out


def _ndtr(a) -> np.ndarray:
    """Standard normal CDF, elementwise, in the form of Cephes' ndtr.

    With ``x = a / sqrt(2)``: ``(1 + erf(x)) / 2`` where ``|x| < 1``, else
    ``erfc(|x|) / 2`` reflected for positive ``x``.  Each of the three
    rational approximations runs once over the elements in its range, so no
    Python call is made per element.
    """
    x = np.asarray(a, dtype=float) * _SQRT1_2
    z = np.abs(x)
    centre = z < 1.0
    far = z >= 8.0
    out = np.empty_like(x)
    t = x[centre]
    if t.size:
        num, den = _horner(t * t, _ERF_TU)
        out[centre] = 0.5 + 0.5 * (t * num / den)
    # NaN falls in neither centre nor far, and stays NaN.
    for part, coefs in ((~(centre | far), _ERFC_PQ), (far, _ERFC_RS)):
        t = x[part]
        if not t.size:
            continue
        # Capped so the rational stays finite; erfc there is 0 anyway.
        u = np.minimum(np.abs(t), 27.0)
        num, den = _horner(u, coefs)
        lower = 0.5 * np.where(u * u > _MAXLOG, 0.0, np.exp(-u * u) * num / den)
        out[part] = np.where(t > 0.0, 1.0 - lower, lower)
    return out


_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
# Below -_CF_FROM the positive-part mean takes _CF_TERMS terms of Laplace's
# continued fraction, accurate there to 2e-16 relative; a + phi(a) / Phi(a)
# loses 5e-14 at a = -5 and 5e-13 at a = -10 to cancellation.
_CF_FROM = 5.0
_CF_TERMS = 30


def _positive_part_mean(a) -> np.ndarray:
    """``E[Y | Y > 0]`` for ``Y ~ N(a, 1)``, elementwise: ``a + phi(a) / Phi(a)``.

    Far below zero the two terms cancel (the mean tends to ``-1 / a``), and
    ``Phi(a)`` underflows below about -38, so for ``a < -5`` it is Laplace's
    continued fraction ``1 / (x + 2 / (x + 3 / (x + ...)))`` with ``x = -a``.
    """
    a = np.asarray(a, dtype=float)
    out = np.empty_like(a)
    near = a >= -_CF_FROM
    b = a[near]
    # Where b^2 overflows, phi(b) is 0, its limit.
    with np.errstate(over="ignore"):
        out[near] = b + np.exp(-0.5 * b * b - _LOG_SQRT_2PI - np.log(_ndtr(b)))
    x = -a[~near]
    tail = np.zeros_like(x)
    for k in range(_CF_TERMS, 1, -1):
        tail = k / (x + tail)
    out[~near] = 1.0 / (x + tail)
    return out


def _normal_mass(lo, hi) -> np.ndarray:
    """P(lo < Z < hi) for a standard normal Z, from the nearer tail so right-tail intervals keep precision."""
    right = lo > 0.0
    # Phi(-lo) - Phi(-hi) on the right of the mean, Phi(hi) - Phi(lo)
    # elsewhere: both ends in one normal CDF call.
    upper, lower = _ndtr(np.stack([np.where(right, -lo, hi), np.where(right, -hi, lo)]))
    return upper - lower


def _tv_frame(p: GaussianDist, q: GaussianDist) -> tuple[np.ndarray, np.ndarray]:
    # Whiten by p and rotate onto the singular vectors of L_p^{-1} L_q: there
    # p = N(0, I) and q = N(mu, diag(s^2)).  Returns (mu, s), broadcast over stacks.
    mu = _solve_lower(p.chol, q.mean - p.mean)
    u, s, _ = np.linalg.svd(np.linalg.solve(p.chol, q.chol))
    return np.einsum("...ji,...j->...i", u, mu), s


def _tv_1d(mu: np.ndarray, s: np.ndarray) -> np.ndarray:
    # Elementwise over the stack, in the frame of _tv_frame: TV = P_p(A) - P_q(A)
    # for A = {p > q}, an interval or its complement.  Equal distributions
    # give an empty interval, and 0.0 - 0.0 keeps their TV at +0.0.  p's
    # and q's intervals share one normal CDF call, whose cost at a few
    # hundred pairs is mostly per call.
    lo_p, hi_p, lo_q, hi_q = _ratio_set(mu, s)
    mass_p, mass_q = _normal_mass(np.stack([lo_p, lo_q]), np.stack([hi_p, hi_q]))
    diff = mass_p - mass_q
    return np.where(s > 1.0, diff, 0.0 - diff)


def _outer_pieces(mu: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The split of each pair's 2-D rule, for a stack of pairs in the frame of :func:`_tv_frame`.

    ``mu`` and ``s`` have shape (k, 2).  Returns the inner coordinate ``j``
    of every pair as a (k, 1) column, the ends of the outer coordinate's
    pieces as a (k, 4) array ``[box start, kink, kink, box end]``, and the
    (k, 4) mask of the ends in use: each pair's outer rule has one, two or
    three pieces.
    """
    # The inner coordinate is the one where p and q differ more: one on
    # which they agree would make A's section jump between empty and the
    # whole line.  With ell_i(x) = 2 log(p_i(x) / q_i(x)) for the outer
    # coordinate i, A's section at x is _ratio_set(mu_j, s_j, ell_i(x)).
    d = s * s
    j = np.argmax(d - 1.0 - np.log(d) + mu * mu, axis=-1)[:, None]
    mu_i, s_i = (np.take_along_axis(a, 1 - j, axis=-1) for a in (mu, s))
    mu_j, d_j = (np.take_along_axis(a, j, axis=-1) for a in (mu, d))
    width = 8.0 * np.maximum(1.0, s_i)
    box_lo, box_hi = np.minimum(0.0, mu_i) - width, np.maximum(0.0, mu_i) + width
    # The section has a sqrt kink in x where its Q = mu_j^2 - a_j (log d_j +
    # ell_i(x)) changes sign, with a_j = 1 - d_j: at the ends of the set
    # {ell_i(x) + log d_j - mu_j^2 / a_j > 0}.  Q is constant where d_j = 1.
    bent = d_j != 1.0
    with np.errstate(over="ignore"):
        offset = np.log(d_j) - mu_j**2 / np.where(bent, 1.0 - d_j, 1.0)
    kink_lo, kink_hi = _ratio_set(mu_i, s_i, offset)[:2]
    ends = np.concatenate([box_lo, kink_lo, kink_hi, box_hi], axis=-1)
    used = np.ones(ends.shape, dtype=bool)
    used[:, 1:3] = bent & (kink_lo < kink_hi) & (box_lo < ends[:, 1:3]) & (ends[:, 1:3] < box_hi)
    return j, ends, used


# The 2-D outer rules take at most this many (pair, node) values at a time,
# in stacks of whole pairs (one pair whose rule alone is larger).  The normal
# CDF slows past about 16k values per call: on stacks of 24 to 200 pairs at
# budget 2001 (in process, one thread of a 2-vCPU machine), 2^15 took 11-20%
# longer than 2^14, and 2^13 and 2^16 were slower too.
_TV_BLOCK = 2**14


def _tv_2d(mu: np.ndarray, s: np.ndarray, budget: int) -> np.ndarray:
    # A stack of pairs, mu and s of shape (k, 2): the inner coordinate j in
    # closed form, the outer i by a trapezoid rule.  Each piece of the outer
    # range is mapped by x = mid - half cos(theta): a kink at its ends becomes
    # sin(theta), and the rule in theta stays spectrally accurate.
    j, ends, used = _outer_pieces(mu, s)
    mu_i, s_i = (np.take_along_axis(a, 1 - j, axis=-1) for a in (mu, s))
    mu_j, s_j = (np.take_along_axis(a, j, axis=-1) for a in (mu, s))
    pieces = np.sum(used, axis=-1) - 1
    tv = np.empty(len(mu))
    # The budget is shared among a pair's pieces, so pairs with as many
    # pieces share one node layout and one (pairs x nodes) evaluation.
    for count in (1, 2, 3):
        members = np.flatnonzero(pieces == count)
        theta = np.linspace(0.0, np.pi, max(budget // count, 2))
        size = max(1, _TV_BLOCK // (count * theta.size))
        for start in range(0, members.size, size):
            block = members[start : start + size]
            e = ends[block][used[block]].reshape(block.size, count + 1)
            mid, half = (e[:, 1:] + e[:, :-1]) / 2.0, (e[:, 1:] - e[:, :-1]) / 2.0
            x = (mid[..., None] - half[..., None] * np.cos(theta)).reshape(block.size, -1)
            w = (half[..., None] * np.sin(theta) * (theta[1] - theta[0])).reshape(block.size, -1)
            m_i, sd_i = mu_i[block], s_i[block]
            z = (x - m_i) / sd_i
            lo_p, hi_p, lo_q, hi_q = _ratio_set(mu_j[block], s_j[block], z * z - x * x + np.log(sd_i * sd_i))
            p_outer = np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)
            q_outer = np.exp(-0.5 * z * z) / (np.sqrt(2.0 * np.pi) * sd_i)
            g = p_outer * _normal_mass(lo_p, hi_p) - q_outer * _normal_mass(lo_q, hi_q)
            tv[block] = np.einsum("kn,kn->k", w, g)
    # Where s_j <= 1 the section is the complement of the interval; the
    # whole-line terms p_outer - q_outer integrate to 0, which leaves a sign flip.
    return np.where(s_j[:, 0] > 1.0, tv, 0.0 - tv)


def tv_gaussian(p: GaussianDist, q: GaussianDist, method: str = "exact", budget: int = 4001) -> float | np.ndarray:
    """Exact total variation distance between Gaussians of dimension <= 2, broadcast over stacks.

    ``P_p(A) - P_q(A)`` for the set ``A = {p > q}``, in the frame where
    ``p = N(0, I)`` and ``q`` has a diagonal covariance.  In dimension 1 ``A``
    is bounded by the roots of a quadratic and the result is a closed form in
    the normal CDF (``budget`` is unused).  In dimension 2 the inner
    coordinate is integrated in closed form and the outer one by ``budget``
    trapezoid nodes in a cosine map, split where ``A``'s section appears or
    vanishes, so 2001 nodes agree with 40001 to within 1e-12 even for
    strongly elongated pairs, as long as each of q's variances in that
    frame (where p's are 1) is at least 1e-12.  A stack evaluates its pairs'
    rules together, grouped by their number of pieces, as (pairs x nodes)
    arrays in blocks of whole pairs; each pair keeps the nodes it would
    have alone.  Two single distributions give a float value, a stack the
    array of values.

    ``method`` accepts only ``"exact"``; it stays in the signature while the
    benchmark's tracer reads it, and goes with ROADMAP item 6.
    """
    if p.dim != q.dim:
        raise ValueError("distributions must have equal dimension")
    if budget < 2:
        raise ValueError("budget must be a positive integer >= 2")
    if method != "exact":
        raise ValueError(f"unknown method {method!r}")
    if p.dim > 2:
        raise ValueError(f"exact total variation is only supported in dimension <= 2, got dimension {p.dim}")
    mu, s = _tv_frame(p, q)
    # Where some mu^2 or s^2 overflows, the overlap is below any float: such
    # pairs get TV 1 and never reach the rules, whose bounds would be NaN.
    with np.errstate(over="ignore"):
        near = ~np.any(np.isinf(mu * mu) | np.isinf(s * s), axis=-1)
    tv = np.ones(near.shape)
    if p.dim == 1:
        tv[near] = _tv_1d(mu[near][:, 0], s[near][:, 0])
    else:
        tv[near] = _tv_2d(mu[near], s[near], budget)
    return _result(np.clip(tv, 0.0, 1.0))


def _trapezoid(values: np.ndarray, step) -> np.ndarray:
    """Trapezoid rule along the last axis on a uniform axis of spacing ``step``: ``h (sum v - (v_0 + v_N) / 2)``."""
    return step * (np.sum(values, axis=-1) - (values[..., 0] + values[..., -1]) / 2.0)


def _axis_step(x: np.ndarray) -> np.ndarray:
    """The first step of an axis with at least four nodes, or of each axis of a stack of them.

    Only the shape is checked here; :func:`_check_spacing` checks the steps.
    """
    if x.ndim not in (1, 2) or x.shape[-1] < 4:
        raise ValueError("the grid is one axis of at least four nodes, or a stack of such axes")
    return x[..., 1] - x[..., 0]


# Row-wise passes over a stack of grids (the spacing check, the moments, the
# likelihood) take at most this many (member, node) values at a time, so
# their temporaries stay small beside the stack's own arrays.
_ROW_CHUNK = 2**14


def _row_chunks(rows: int, cols: int) -> list[slice]:
    """Slices of whole rows of a (rows, cols) array, each of at most ``_ROW_CHUNK`` values (one row if a row is longer)."""
    size = max(1, _ROW_CHUNK // cols)
    return [slice(start, start + size) for start in range(0, rows, size)]


def _check_spacing(x: np.ndarray, step: np.ndarray):
    # Every step positive and within 1e-9 relative of the first, read off
    # each axis's extreme steps, a chunk of axes at a time.
    x = x.reshape(-1, x.shape[-1])
    least, most = np.empty(len(x)), np.empty(len(x))
    for rows in _row_chunks(*x.shape):
        steps = np.diff(x[rows], axis=-1)
        least[rows], most[rows] = np.min(steps, axis=-1), np.max(steps, axis=-1)
    tol = 1e-9 * np.abs(step)
    uniform = np.all(most - step <= tol) and np.all(step - least <= tol)
    if np.any(step <= 0) or (not uniform and np.any(least <= 0)):
        raise ValueError("the axis must be strictly increasing")
    if not uniform:
        raise ValueError("the axis must be uniformly spaced")


@lru_cache(maxsize=None)
def _not_a_knot_factors(num: int) -> tuple[tuple[float, ...], tuple[float, ...], tuple[float, ...]]:
    # The slopes of the not-a-knot cubic spline through num unit-spaced nodes
    # solve one tridiagonal system whatever the values: rows (1, 2), then
    # (1, 4, 1), then (2, 1).  Its forward elimination, as (sub-diagonal,
    # inverse pivot, eliminated super-diagonal) per row.
    sub = (0.0,) + (1.0,) * (num - 2) + (2.0,)
    diag = (1.0,) + (4.0,) * (num - 2) + (1.0,)
    sup = (2.0,) + (1.0,) * (num - 2) + (0.0,)
    inv_pivot, upper = [], []
    prev = 0.0
    for a, b, c in zip(sub, diag, sup):
        pivot = b - a * prev
        prev = c / pivot
        inv_pivot.append(1.0 / pivot)
        upper.append(prev)
    return sub, tuple(inv_pivot), tuple(upper)


def _not_a_knot_slopes(y: np.ndarray) -> np.ndarray:
    """Node slopes, per unit node index, of the not-a-knot cubic spline through each row of ``y`` (members, num).

    Every row has the same matrix in index units, so one forward and one
    backward sweep over the node columns solve all rows at once, each step
    updating one column of members in place.  The right-hand side is formed
    from ``y`` straight into the slopes' own array, which is the only array
    of ``y``'s size made; this is the interpolant
    ``scipy.interpolate.CubicSpline`` builds by default.
    """
    sub, inv_pivot, upper = _not_a_knot_factors(y.shape[-1])
    s = np.empty_like(y)
    # Row j of the system has 3 (y[j + 1] - y[j - 1]) on the right, and the
    # end rows (5 (y1 - y0) + (y2 - y1)) / 2 and its mirror image.
    np.subtract(y[:, 2:], y[:, :-2], out=s[:, 1:-1])
    s[:, 1:-1] *= 3.0
    s[:, 0] = (5.0 * (y[:, 1] - y[:, 0]) + (y[:, 2] - y[:, 1])) / 2.0
    s[:, -1] = ((y[:, -2] - y[:, -3]) + 5.0 * (y[:, -1] - y[:, -2])) / 2.0
    # Multiplying by 1.0 is exact, so unit coefficients subtract directly;
    # the others go through one reused column.
    scaled = np.empty(len(s))
    prev = s[:, 0]
    prev *= inv_pivot[0]
    for j in range(1, len(sub)):
        col = s[:, j]
        col -= prev if sub[j] == 1.0 else np.multiply(sub[j], prev, out=scaled)
        col *= inv_pivot[j]
        prev = col
    for j in range(len(sub) - 2, -1, -1):
        col = s[:, j]
        col -= np.multiply(upper[j], prev, out=scaled)
        prev = col
    return s


@dataclass(frozen=True)
class GridDensity:
    """A normalized density tabulated on a uniform axis ``x``, or a stack of them.

    ``log_weights`` holds the log *unnormalized* density at every node of
    ``x``; construction computes ``normalizer``, the log of its
    trapezoid-rule integral, so the normalized log density at a node is
    ``log_weights - normalizer``.  A stack has ``x`` and ``log_weights`` of
    shape (k, N) and ``normalizer`` of shape (k,): member ``i`` lives on its
    own uniform axis ``x[i]``, and every method returns one value (or row)
    per member.  The normalizer is stabilized by a log-sum-exp shift, and the
    normalized density integrates to 1 within 1e-8 by construction.
    """

    x: np.ndarray
    log_weights: np.ndarray
    normalizer: float | np.ndarray = field(init=False)

    def __post_init__(self):
        # Contiguous, so that interpolation gathers from the flat arrays.
        x = np.ascontiguousarray(self.x, dtype=float)
        lw = np.ascontiguousarray(self.log_weights, dtype=float)
        if lw.shape != x.shape:
            raise ValueError(f"log values of shape {lw.shape} for a grid of shape {x.shape}")
        if not np.all(np.isfinite(lw)):
            raise ValueError("log values must be finite on the grid")
        step = _axis_step(x)
        shift = np.max(lw, axis=-1)
        weights = lw - shift[..., None]
        mass = _trapezoid(np.exp(weights, out=weights), step)
        del weights
        if not np.all(np.isfinite(mass) & (mass > 0.0)):
            raise ValueError("grid weights underflow; the box is misplaced")
        _check_spacing(x, step)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "log_weights", lw)
        object.__setattr__(self, "normalizer", _result(shift + np.log(mass)))
        object.__setattr__(self, "_step", step)

    @classmethod
    def from_log_unnormalized(cls, x: np.ndarray, log_values: np.ndarray) -> "GridDensity":
        """Normalize log values tabulated on ``x`` (one axis, or a stack of them) by their trapezoid-rule integral."""
        return cls(x, log_values)

    @classmethod
    def from_gaussian(cls, g: GaussianDist, x: np.ndarray) -> "GridDensity":
        """The one-dimensional Gaussian ``g`` tabulated on ``x``."""
        return cls.from_log_unnormalized(x, log_density(g, np.asarray(x, dtype=float)[:, None]))

    def pdf(self) -> np.ndarray:
        """Normalized density values at the grid nodes."""
        values = self.log_pdf()
        return np.exp(values, out=values)

    def log_pdf(self) -> np.ndarray:
        """Normalized log density values at the grid nodes."""
        return self.log_weights - np.asarray(self.normalizer)[..., None]

    def integral(self) -> float | np.ndarray:
        return _result(_trapezoid(self.pdf(), self._step))

    def _spline(self) -> np.ndarray:
        # The node slopes, per unit node index, of the cubic interpolant of
        # the log weights, member-major (members, nodes) with one member for a
        # single density: solved on first use and kept.  The normalizer only
        # shifts the values, so these are the normalized log density's slopes.
        slopes = getattr(self, "_slopes", None)
        if slopes is None:
            slopes = _not_a_knot_slopes(self.log_weights.reshape(-1, self.x.shape[-1]))
            object.__setattr__(self, "_slopes", slopes)
        return slopes

    def log_pdf_and_grad_at(
        self, points: np.ndarray, rows: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Interpolated log density with its first and second derivatives at off-grid points.

        ``points`` is a vector of N locations, or for a stack of k members an
        array of shape (k, N) holding N locations per member; the three
        returned arrays have the shape of ``points`` and are exact
        derivatives of the same not-a-knot cubic spline through the
        normalized log density.  ``rows``, a vector of m member indices,
        evaluates those members only: ``points`` then has shape (m, N), row
        ``j`` for member ``rows[j]``, and each result row equals that
        member's row of a full evaluation bit for bit.  A single density is
        a stack of one, member 0.  Raises ``ValueError`` if any point falls
        outside its member's range.
        """
        pts = np.asarray(points, dtype=float)
        x = self.x.reshape(-1, self.x.shape[-1])
        num = x.shape[-1]
        if rows is None:
            if pts.ndim != self.x.ndim or pts.shape[:-1] != self.x.shape[:-1]:
                raise ValueError(f"points of shape {pts.shape} for a grid of shape {self.x.shape}")
            members = np.arange(len(x))[:, None]
        else:
            members = np.asarray(rows, dtype=np.intp)[:, None]
            if pts.ndim != 2 or len(pts) != len(members):
                raise ValueError(f"points of shape {pts.shape} for {len(members)} members")
        # Only the columns that place the points, read for these members.
        lo, hi = x[members, 0], x[members, -1]
        h = x[members, 1] - lo
        pts2 = pts.reshape(len(members), -1)
        if np.any(pts2 < lo) or np.any(pts2 > hi):
            raise ValueError("points fall outside the tabulated support")
        # The left node of each point's interval, as its flat index in the
        # member-major axes, log weights and slopes.
        i = np.minimum((pts2 - lo) // h, num - 2).astype(np.intp)
        i += num * members
        u = (pts2 - np.take(x, i)) / h
        slopes = self._spline()
        # The normalized log density at both nodes, and the slopes.
        norm = np.atleast_1d(self.normalizer)[members]
        y0, y1 = np.take(self.log_weights, i) - norm, np.take(self.log_weights, i + 1) - norm
        s0, s1 = np.take(slopes, i), np.take(slopes, i + 1)
        # The cubic on [x_i, x_i+1] in u = (x - x_i) / h: y0 + u (s0 + u (c2 + u c3)).
        c2 = 3.0 * (y1 - y0) - 2.0 * s0 - s1
        c3 = s0 + s1 - 2.0 * (y1 - y0)
        value = y0 + u * (s0 + u * (c2 + u * c3))
        grad = (s0 + u * (2.0 * c2 + 3.0 * c3 * u)) / h
        hess = (2.0 * c2 + 6.0 * c3 * u) / (h * h)
        return value.reshape(pts.shape), grad.reshape(pts.shape), hess.reshape(pts.shape)

    def moments(self) -> tuple[float | np.ndarray, float | np.ndarray]:
        """Mean and variance by trapezoid integration, a chunk of members at a time."""
        num = self.x.shape[-1]
        x, lw = self.x.reshape(-1, num), self.log_weights.reshape(-1, num)
        norm, step = (np.broadcast_to(v, len(x)) for v in (self.normalizer, self._step))
        mean, var = np.empty(len(x)), np.empty(len(x))
        for rows in _row_chunks(*x.shape):
            pdf = np.subtract(lw[rows], norm[rows, None])
            np.exp(pdf, out=pdf)
            values = x[rows] * pdf
            mean[rows] = _trapezoid(values, step[rows])
            # The squared deviations times the density, in the same buffer.
            spread = np.subtract(x[rows], mean[rows, None], out=values)
            spread *= spread
            spread *= pdf
            var[rows] = _trapezoid(spread, step[rows])
        shape = self.x.shape[:-1]
        return _result(mean.reshape(shape)), _result(var.reshape(shape))


def _check_same_axis(p: GridDensity, q: GridDensity):
    if p.x.shape != q.x.shape or (p.x is not q.x and not np.allclose(p.x, q.x, rtol=1e-12, atol=0.0)):
        raise ValueError("grid densities must share identical axes")


def kl_grid(p: GridDensity, q: GridDensity) -> float | np.ndarray:
    """Trapezoid-rule KL(p || q) on a shared grid, per member of a stack.

    Nodes where the density of ``p`` is below 1e-300 contribute zero.
    """
    _check_same_axis(p, q)
    lp = p.log_pdf()
    lq = q.log_pdf()
    pd = np.exp(lp)
    integrand = np.where(pd < 1e-300, 0.0, pd * (lp - lq))
    return _result(_trapezoid(integrand, p._step))


def tv_grid(p: GridDensity, q: GridDensity) -> float | np.ndarray:
    """Trapezoid-rule total variation ``0.5 * integral |p - q|`` on a shared grid, per member of a stack."""
    _check_same_axis(p, q)
    diff = np.abs(p.pdf() - q.pdf())
    return _result(0.5 * _trapezoid(diff, p._step))
