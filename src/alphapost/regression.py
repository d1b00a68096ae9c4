"""Omitted-variable Gaussian linear regression: the worked misspecification example.

The data are generated by ``Y = theta0'W + gamma0'Z + eps`` with jointly
Gaussian zero-mean covariates, but the analyst regresses ``Y`` on ``W``
alone, assuming ``N(0, sigma_u^2)`` errors.  Everything the robustness
analysis needs is then available in closed form: the pseudo-true parameter
(true parameter plus the omitted-variable bias), the likelihood curvature
``E[WW'] / sigma_u^2``, the correctly specified posterior's covariance
scale, and the conjugate tempered posterior itself.

A sample enters every estimator and probe through its sufficient
statistics (``n`` and the Gram matrix of ``[W, Z, Y]``), one sample or a
stack of replications of one size ``n``, and the stacked routines return
one value per replication.  :func:`simulate_stats` draws a stack of them
straight from the replications' seeds through the one Gram routine, and
:func:`simulate` draws one seed's; no sample is ever formed.
:func:`derived_seeds` derives a stack's seeds from a master seed and key,
and numpy's ``SeedSequence`` hash runs on arrays, one pass for every
member, so each stream is numpy's own.
:func:`regression_likelihood` is the library's one Gaussian log-likelihood;
the location model is the regression on one constant column.

The module also houses the experiment harness's verification probes: the
exact sup of the local-asymptotic-normality defect over a box, the
prior/remainder integrals that the mean-field limit needs to vanish, a
Markov bound on posterior concentration, and the vanishing-tempering
failure case (the Gaussian approximation stays bounded away from the
posterior) next to its constant-tempering control.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import operator
import os
import threading
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .gaussians import GaussianDist, _result, _row_chunks, _spd_cholesky, hellinger_sq_gaussian
from .meanfield import gmf_project_gaussian
from .posteriors import (
    ConjugatePrior, SufficientStats, _block_gram, _require_positive, conjugate_alpha_posterior, gaussian_bvm_limit
)
from .robustness import MisspecScenario

__all__ = [
    "RegressionDGP",
    "derived_seed",
    "derived_seeds",
    "simulate",
    "simulate_stats",
    "ols",
    "pseudo_true",
    "curvature",
    "misspec_scenario",
    "regression_likelihood",
    "lan_residual_sup",
    "assumption2_terms",
    "variational_conjugate_cov",
    "true_posterior_theta",
    "concentration_markov_bound",
    "failure_case_hellinger",
]

# The collinearity threshold of ols and true_posterior_theta on squared
# Cholesky pivots, relative to the column's squared norm: rounding alone
# leaves up to about 1e-15 there.
_COLLINEAR_RTOL = 1e-14

_LAN_BOX = 3.0  # lan_residual_sup's box is [-_LAN_BOX, _LAN_BOX]^p

# Samples of fewer standard normals per seed are drawn on the calling thread
# alone: below this block size starting the worker threads costs more than
# they save.  On 2 vCPUs with one BLAS thread, simulate_stats on 100 seeds
# (medians of 41 calls, three runs) took 3.4-4.6 ms serially and 3.1-3.5 ms
# on two threads at 3 x 550 normals, 3.4-4.7 and 3.0-3.4 ms at 3 x 575, the
# serial path faster in one run of each, and 3.5-4.0 and 3.2-3.3 ms at
# 3 x 600, where two threads won every run.
_THREAD_MIN_NORMALS = 1800


# numpy's SeedSequence (numpy.random.bit_generator), which derives every
# stream here, on arrays of 32-bit words: its pool size, its two hash
# constants and multipliers, and its mix multipliers and shift.
_POOL = 4
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _XSHIFT = 0xCA01F9DD, 0x4973F715, 16
_WORD = 2**32


def _words(value: int) -> list[int]:
    # A nonnegative integer's 32-bit words, least significant first (0 is one word).
    value = operator.index(value)
    if value < 0:
        raise ValueError(f"expected a non-negative integer, got {value}")
    words = [value % _WORD]
    while value >= _WORD:
        value //= _WORD
        words.append(value % _WORD)
    return words


@functools.cache
def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    # The hash constant before each of count hashes and after the last, as a
    # read-only (count + 1, 1) column, cached: a scalar derived_seed needs it too.
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult % _WORD)
    column = np.array(consts, dtype=np.uint32)[:, None]
    column.flags.writeable = False
    return column


def _hash(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    # SeedSequence's hash of values (R,) or (m, R) under consts[:-1] and consts[1:],
    # one row per constant: uint32 arrays wrap around without a warning.
    out = values ^ consts[:-1]
    out *= consts[1:]
    out ^= out >> _XSHIFT
    return out


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # SeedSequence's mix of pool words x with hashed words y, elementwise.
    out = x * _MIX_L
    out -= y * _MIX_R
    out ^= out >> _XSHIFT
    return out


def _seed_state(entropy: np.ndarray, n_words: int) -> np.ndarray:
    """``SeedSequence`` of each column of ``entropy`` (L, R) ``uint32`` words: its ``generate_state(n_words)``.

    Column ``r`` is the entropy a ``SeedSequence`` assembles from its
    arguments, and row ``i`` of the (n_words, R) result is word ``i`` of that
    sequence's state.  The pool is filled, mixed and hashed out for every
    member at once.
    """
    length, members = entropy.shape
    extra = max(length - _POOL, 0)
    hashes = _hash_constants(_INIT_A, _MULT_A, _POOL * (_POOL + extra))
    first = np.zeros((_POOL, members), dtype=np.uint32)
    first[: min(length, _POOL)] = entropy[:_POOL]
    pool = _hash(first, hashes[: _POOL + 1])
    k = _POOL
    # Each word mixed into every other, so that late words reach early ones,
    for src in range(_POOL):
        dst = [i for i in range(_POOL) if i != src]
        pool[dst] = _mix(pool[dst], _hash(pool[src], hashes[k : k + _POOL]))
        k += _POOL - 1
    # then each remaining entropy word into every pool word.
    for word in entropy[_POOL:]:
        pool = _mix(pool, _hash(word, hashes[k : k + _POOL + 1]))
        k += _POOL
    return _hash(pool[np.arange(n_words) % _POOL], _hash_constants(_INIT_B, _MULT_B, n_words))


def _derived(master_seed: int, key: Sequence[int], reps: int | None) -> np.ndarray:
    # The uint32 seeds SeedSequence(entropy=master_seed, spawn_key=key + (rep,)).generate_state(1)
    # for rep < reps, or, with reps None, the one of spawn_key=key.
    rows = _words(master_seed)
    if key or reps is not None:
        rows += [0] * (_POOL - len(rows))  # a spawn key pads the entropy to the pool size
    for part in key:
        rows += _words(part)
    entropy = np.array(rows, dtype=np.uint32)[:, None]
    if reps is not None:
        entropy = np.vstack([np.repeat(entropy, reps, axis=1), np.arange(reps, dtype=np.uint32)[None]])
    return _seed_state(entropy, 1)[0]


def derived_seed(master_seed: int, *key: int) -> int:
    """Deterministic per-replication seed derived from a master seed and index key.

    Replications seeded this way are independent streams, and results do not
    depend on the order in which they run.  It is numpy's
    ``SeedSequence(entropy=master_seed, spawn_key=key).generate_state(1)[0]``;
    a negative master seed or key raises ``ValueError``.
    """
    return int(_derived(master_seed, key, None)[0])


def derived_seeds(master_seed: int, *key: int, replications: int) -> np.ndarray:
    """The ``uint32`` seeds ``derived_seed(master_seed, *key, rep)`` for ``rep < replications``, in one pass.

    More than ``2^32 - 1`` replications raises ``ValueError`` naming
    ``replications``.
    """
    if not 0 <= replications < _WORD:
        raise ValueError(f"replications: must lie in [0, {_WORD - 1}], got {replications}")
    return _derived(master_seed, key, replications)


def _stream_words(seeds: Sequence[int]) -> np.ndarray:
    """PCG64's seed words for ``np.random.default_rng(seed)`` of every seed, as an (R, 4) ``uint64`` array.

    A seed's entropy is its 32-bit words alone; the seeds of one word count
    are hashed in one pass.
    """
    state = np.empty((8, len(seeds)), dtype=np.uint32)
    words = [_words(seed) for seed in seeds]
    for length in set(map(len, words)):
        members = [i for i, w in enumerate(words) if len(w) == length]
        state[:, members] = _seed_state(np.array([words[i] for i in members], dtype=np.uint32).T, 8)
    # Word pairs read little-endian, as numpy reads them.
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64)


@functools.cache
def _generator_of() -> Callable[[np.ndarray], np.random.Generator]:
    # A stream's Generator built from its PCG64 seed words: PCG64 asks its
    # seed sequence for four uint64 words, and gets the derived ones unhashed.
    # Built at the first draw: numpy.random is not imported with the package.
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            return self.words

    return lambda words: Generator(PCG64(SeedWords(words)))


def _finite_square(name: str, value: float) -> np.float64:
    # value^2 in numpy, so that an overflow gives inf, not OverflowError, and
    # is rejected naming the field, as is a NaN.
    if np.isnan(value):
        raise ValueError(f"{name}: must be finite")
    with np.errstate(over="ignore"):
        square = np.float64(value) ** 2
    if not np.isfinite(square):
        raise ValueError(f"{name}: {value!r} is too large: {name}^2 is not finite")
    return square


def _covariance_block(name: str, value, rows: int, cols: int, p: int, d: int) -> np.ndarray:
    # A rows x cols block of (W, Z)'s covariance, its errors naming the field.
    try:
        block = np.atleast_2d(np.asarray(value, dtype=float))
    except ValueError as err:
        raise ValueError(f"{name}: every row must have the same length") from err
    # cov_wz is reshaped to p x d, so a single row or column also serves.
    if block.size != rows * cols or (name != "cov_wz" and block.shape != (rows, cols)):
        raise ValueError(
            f"{name}: must be a {rows} x {cols} matrix since p = {p} and d = {d}, got shape {block.shape}"
        )
    return block.reshape(rows, cols)


@dataclass(frozen=True, eq=False)
class RegressionDGP:
    """True data-generating process and the analyst's working model.

    ``theta0`` and ``gamma0`` are nonempty and finite; ``cov_ww`` (p x p),
    ``cov_wz`` (p x d, or its entries as one row or column) and ``cov_zz``
    (d x d) are the blocks of the covariance of ``(W, Z)``, which must be
    finite, symmetric within 1e-12 of its largest entry and positive
    definite, and is stored symmetrized.  ``sigma_u`` is the error standard
    deviation the analyst presumes for the short regression of ``Y`` on ``W``;
    when omitted it is that projection's population residual standard
    deviation, ``sqrt(sigma_eps^2 + gamma0' (cov_zz - cov_wz' cov_ww^{-1} cov_wz) gamma0)``,
    so that the omitted variable is the only misspecification.  Each
    violation, a derived ``sigma_u`` of inf, a ``sigma_eps`` or ``sigma_u``
    whose square overflows, or a given or derived ``sigma_u`` (0 included)
    whose curvature ``1 / sigma_u^2`` overflows raises ``ValueError`` naming
    the fields.
    Instances compare and hash by identity: array fields have no single
    truth value to compare by.
    """

    theta0: np.ndarray
    gamma0: np.ndarray
    sigma_eps: float
    cov_ww: np.ndarray
    cov_wz: np.ndarray
    cov_zz: np.ndarray
    sigma_u: float | None = None

    def __post_init__(self):
        for name in ("theta0", "gamma0"):
            coefs = np.atleast_1d(np.asarray(getattr(self, name), dtype=float))
            if coefs.size == 0 or not np.all(np.isfinite(coefs)):
                raise ValueError(f"{name}: must have at least one coefficient, each finite")
            object.__setattr__(self, name, coefs)
        theta0, gamma0 = self.theta0, self.gamma0
        p, d = theta0.size, gamma0.size
        ww, wz, zz = (
            _covariance_block(name, getattr(self, name), rows, cols, p, d)
            for name, rows, cols in (("cov_ww", p, p), ("cov_wz", p, d), ("cov_zz", d, d))
        )
        cov, chol = _spd_cholesky(
            np.block([[ww, wz], [wz.T, zz]]),
            "cov_ww, cov_wz, cov_zz: the covariance [[cov_ww, cov_wz], [cov_wz', cov_zz]] of (W, Z)",
        )
        if self.sigma_eps < 0:
            raise ValueError("sigma_eps: must be nonnegative")
        var_eps = _finite_square("sigma_eps", self.sigma_eps)
        # The blocks of the symmetrized covariance, each contiguous.
        for name, block in (("cov_ww", cov[:p, :p]), ("cov_wz", cov[:p, p:]), ("cov_zz", cov[p:, p:])):
            object.__setattr__(self, name, np.ascontiguousarray(block))
        # Kept for simulate_stats: a sample's rows are [W, Z, Y] = [N, e] M for
        # its standard normal covariates N and errors e, with L = chol,
        # b = (theta0, gamma0) and M = [[L', L'b], [0, sigma_eps]].
        k = p + d
        stats_map = np.zeros((k + 1, k + 1))
        stats_map[:k, :k] = chol.T
        stats_map[:k, k] = chol.T @ np.concatenate([theta0, gamma0])
        stats_map[k, k] = self.sigma_eps
        object.__setattr__(self, "_stats_map", stats_map)
        where = "sigma_u:" if self.sigma_u is not None else "sigma_eps, gamma0: the derived sigma_u"
        if self.sigma_u is None:
            resid_cov = self.cov_zz - self.cov_wz.T @ np.linalg.solve(self.cov_ww, self.cov_wz)
            with np.errstate(over="ignore"):
                sigma_u = float(np.sqrt(var_eps + gamma0 @ resid_cov @ gamma0))
            if not np.isfinite(sigma_u):
                raise ValueError("sigma_eps, gamma0: the derived sigma_u is not finite; give sigma_u explicitly")
            object.__setattr__(self, "sigma_u", sigma_u)
        elif self.sigma_u <= 0:
            raise ValueError("sigma_u: must be positive")
        else:
            _finite_square("sigma_u", self.sigma_u)
        with np.errstate(over="ignore", divide="ignore"):
            if not np.isfinite(1.0 / np.float64(self.sigma_u) ** 2):
                raise ValueError(f"{where} {self.sigma_u!r} is too small: 1 / sigma_u^2 is not finite")

    @property
    def p(self) -> int:
        return self.theta0.size

    @property
    def d(self) -> int:
        return self.gamma0.size


def _standard_block(dgp: RegressionDGP, n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    # A seed's stream read once: an (n, p + d) array of standard normal
    # covariates, row-major, then n standard normal errors.
    kn = (dgp.p + dgp.d) * n
    block = rng.standard_normal(kn + n)
    return block[:kn].reshape(n, dgp.p + dgp.d), block[kn:]


def _draw_threads() -> int:
    # The threads a sample of _THREAD_MIN_NORMALS or more standard normals is
    # drawn on: one per CPU the process may run on.
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


def _draw_workers(normals: int) -> int:
    # Threads that draw samples of this many standard normals each.
    return 1 if normals < _THREAD_MIN_NORMALS else _draw_threads()


def _gram_stack(
    seeds: Sequence[int], size: int, normals: int, gram_of: Callable[[np.random.Generator], np.ndarray]
) -> np.ndarray:
    """The (R, size, size) stack whose member ``i`` is ``gram_of(np.random.default_rng(seeds[i]))``.

    ``gram_of`` draws ``normals`` standard normals from a seed's stream and
    reduces them to their Gram matrix, in numpy calls that release the
    interpreter lock.  Every seed's PCG64 seed words are derived in one pass
    first, and each member's ``Generator`` is built from its words.  The
    seeds are split into ``_draw_workers(normals)`` contiguous slices, at
    most one per seed: the caller fills the first and one thread each of
    the others, so one raw block per thread is alive and every member comes
    from the same code for any thread count.  Each thread runs in a copy of
    the caller's context, where the caller's ``np.errstate`` holds.  Once
    every thread has joined, the exception of the first slice that failed is
    raised.
    """
    streams, generator = _stream_words(seeds), _generator_of()
    grams = np.empty((len(seeds), size, size))
    workers = min(_draw_workers(normals), len(seeds))
    bounds = [len(seeds) * w // workers for w in range(workers + 1)]
    errors: list[Exception | None] = [None] * workers

    def fill(w: int) -> None:
        try:
            for i in range(bounds[w], bounds[w + 1]):
                grams[i] = gram_of(generator(streams[i]))
        except Exception as err:  # MemoryError included; the caller raises it
            errors[w] = err

    threads = [
        threading.Thread(target=contextvars.copy_context().run, args=(fill, w)) for w in range(1, workers)
    ]
    for thread in threads:
        thread.start()
    try:
        fill(0)
    finally:
        for thread in threads:
            thread.join()
    for err in errors:
        if err is not None:
            raise err
    return grams


def simulate(dgp: RegressionDGP, n: int, seed: int) -> SufficientStats:
    """The statistics of one sample of size ``n``: member 0 of :func:`simulate_stats` on ``[seed]``.

    They are ``n`` and the Gram matrix of ``[W, Z, Y]``, bit-reproducible
    given the seed; ``first_columns(p)`` are those of the analyst's short
    regression of ``Y`` on ``W``.
    """
    return simulate_stats(dgp, n, [seed])[0]


def simulate_stats(dgp: RegressionDGP, n: int, seeds: Sequence[int]) -> SufficientStats:
    """The stacked statistics of one sample of size ``n`` per seed, without forming the samples.

    Member ``i`` is ``simulate(dgp, n, seeds[i])``: up to rounding, the
    Gram matrix of the rows ``[W, Z, Y]`` that the stream of
    ``np.random.default_rng(seeds[i])`` gives, its ``n (p + d)`` standard
    normal covariates first, row-major, then its ``n`` standard normal
    errors.  The seeds, nonnegative integers such as those of
    :func:`derived_seeds`, are hashed into their streams in one pass.  Each
    seed's standard normals ``[N, e]`` are reduced to their Gram matrix ``G``
    as soon as they are drawn, by the library's one blockwise Gram routine;
    the stack maps to ``M' G M`` by one congruence, since
    ``[W, Z, Y] = [N, e] M``.  The seeds are drawn on every CPU in the
    process's affinity once a sample has 1,800 standard normals, with one
    raw block per thread alive; the result is bit-identical for any thread
    count.
    """
    if len(seeds) == 0:
        raise ValueError("seeds must name at least one sample")
    k = dgp.p + dgp.d
    if n < k:
        raise ValueError("n must be at least p + d")
    grams = _gram_stack(seeds, k + 1, (k + 1) * n, lambda rng: _block_gram(*_standard_block(dgp, n, rng)))
    m = dgp._stats_map
    with np.errstate(over="ignore", invalid="ignore"):
        gram = m.T @ grams @ m
        # The congruence is symmetric only up to rounding; a Gram matrix is exactly so.
        gram = (gram + np.swapaxes(gram, -1, -2)) / 2.0
    if not np.all(np.isfinite(gram)):
        raise ValueError(f"theta0, gamma0, sigma_eps: the Gram matrix of a sample of n = {n} is not finite")
    return SufficientStats(n, gram)


def _require_full_rank(gram: np.ndarray, message: str) -> None:
    # Raise ValueError(message) unless every matrix of the stack is of full
    # rank: it must have a Cholesky factor, and no column's part that the
    # earlier columns leave unexplained (its squared Cholesky pivot) may be
    # below _COLLINEAR_RTOL of the column's own squared norm.
    try:
        pivots = np.diagonal(np.linalg.cholesky(gram), axis1=-2, axis2=-1) ** 2
    except np.linalg.LinAlgError:
        pivots = np.zeros(gram.shape[:-1])
    if np.any(pivots <= _COLLINEAR_RTOL * np.diagonal(gram, axis1=-2, axis2=-1)):
        raise ValueError(message)


def ols(stats: SufficientStats) -> np.ndarray:
    """Least-squares coefficients ``(X'X)^{-1} X'Y`` on every design column of ``stats``.

    A stack of samples gives one row of coefficients per sample; a
    rank-deficient design in any of them raises ``ValueError``.
    """
    xtx = stats.xtx
    _require_full_rank(xtx, "design matrix is rank deficient")
    return np.linalg.solve(xtx, stats.xty[..., None])[..., 0]


def pseudo_true(dgp: RegressionDGP) -> np.ndarray:
    """Probability limit of the short regression: ``theta0 + cov_ww^{-1} cov_wz gamma0``."""
    return dgp.theta0 + np.linalg.solve(dgp.cov_ww, dgp.cov_wz @ dgp.gamma0)


def curvature(dgp: RegressionDGP) -> np.ndarray:
    """Likelihood curvature of the working model: ``cov_ww / sigma_u^2``."""
    return dgp.cov_ww / dgp.sigma_u**2


def population_omega(dgp: RegressionDGP) -> np.ndarray:
    """Covariance scale of the correctly specified posterior for theta.

    The long-model information for theta is the inverse Schur complement:
    ``Omega = sigma_eps^2 (cov_ww - cov_wz cov_zz^{-1} cov_wz')^{-1}``.
    """
    schur = dgp.cov_ww - dgp.cov_wz @ np.linalg.solve(dgp.cov_zz, dgp.cov_wz.T)
    return dgp.sigma_eps**2 * np.linalg.inv(schur)


def misspec_scenario(dgp: RegressionDGP, eps: float) -> MisspecScenario:
    """Bundle the population quantities of the example for the robustness module."""
    return MisspecScenario(
        theta0=dgp.theta0,
        theta_star=pseudo_true(dgp),
        V=curvature(dgp),
        Omega=population_omega(dgp),
        eps=eps,
    )


def regression_likelihood(stats: SufficientStats, sigma_u: float) -> Callable[..., np.ndarray]:
    """Batched Gaussian log-likelihood: ``Y`` on every design column, error sd ``sigma_u``.

    For one sample, maps an (N, k) array of coefficient points, k the
    design columns of ``stats``, to the (N,) log-likelihoods.  For a stack
    of S samples, maps (S, N, k) points, N per sample, to the (S, N) values
    of each sample at its own points, or, given a slice ``rows`` of m
    samples, (m, N, k) points to theirs.  Points of another dimension are
    rejected.  The covariate marginal does not involve the coefficients and
    is dropped.  The values are plain products written into the one array
    returned, a chunk of samples at a time.
    """
    n, k = stats.n, stats.k
    # One sample is a stack of one.  The log-likelihood at t is t'(A t + b) + c, with A = -X'X / (2 sigma_u^2),
    # b = X'y / sigma_u^2 and c = -n log(2 pi sigma_u^2) / 2 - y'y / (2 sigma_u^2).
    gram, scale = stats.gram.reshape(-1, k + 1, k + 1), 2.0 * sigma_u**2
    quad, lin = gram[:, :k, :k] / -scale, gram[:, :k, k] / (scale / 2.0)
    const = -0.5 * n * np.log(2.0 * np.pi * sigma_u**2) - gram[:, k, k] / scale

    def log_lik(thetas: np.ndarray, rows: slice = slice(None)) -> np.ndarray:
        thetas = np.asarray(thetas, dtype=float) if stats.stacked else np.atleast_2d(thetas)
        if thetas.shape[-1] != k:
            raise ValueError(f"points of dimension {thetas.shape[-1]}, but the likelihood has {k} design columns")
        a, b, c = quad[rows], lin[rows], const[rows]
        # Each sample's points in one row of a (samples, points, k) array.
        pts = np.broadcast_to(thetas, (len(c),) + thetas.shape[-2:]) if stats.stacked else thetas.reshape(1, -1, k)
        out = np.empty(pts.shape[:-1])
        for chunk in _row_chunks(*out.shape):
            t, block = pts[chunk], out[chunk]
            # The sum over i of t_i ((A t)_i + b_i), its first term written into the block.
            for i in range(k):
                term = np.multiply(t[..., 0], a[chunk, i, :1], out=None if i else block)
                for j in range(1, k):
                    term += t[..., j] * a[chunk, i, j : j + 1]
                term += b[chunk, i : i + 1]
                term *= t[..., i]
                if i:
                    block += term
            block += c[chunk, None]
        return out if stats.stacked else out.reshape(thetas.shape[:-1])

    return log_lik


def _lan_terms(stats: SufficientStats, dgp: RegressionDGP) -> tuple[np.ndarray, np.ndarray]:
    # Q_n = W'W/(n sigma_u^2) - V and Delta_n = sqrt(n)(theta_hat - theta_star), per sample.
    w = stats.first_columns(dgp.p)
    q = w.xtx / (w.n * dgp.sigma_u**2) - curvature(dgp)
    return q, np.sqrt(w.n) * (ols(w) - pseudo_true(dgp))


def _lan_defect(q: np.ndarray, delta: np.ndarray, pts: np.ndarray) -> np.ndarray:
    linear = np.einsum("ni,...ij,...j->...n", pts, q, delta)
    return linear - 0.5 * np.einsum("ni,...ij,nj->...n", pts, q, pts)


def _lan_box_sup(q: np.ndarray, delta: np.ndarray) -> np.ndarray:
    # sup over the box of |h'q delta - h'qh/2|, per member of q (..., p, p) and
    # delta (..., p).  A quadratic's extremes over a box lie at a vertex or at
    # a face's stationary point (coordinates F free, the others X at a vertex's
    # values): q_FF h_F = b_F - q_FX h_X with b = q delta.  A point outside the
    # box gives no candidate, nor does a singular q_FF (a zero pivot): along its
    # null direction the restriction is linear, its extreme on a smaller face.
    p = delta.shape[-1]
    vertices = np.array(list(itertools.product((-_LAN_BOX, _LAN_BOX), repeat=p)), dtype=float)
    sup = np.max(np.abs(_lan_defect(q, delta, vertices)), axis=-1)
    b = np.einsum("...ij,...j->...i", q, delta)
    for free in (list(f) for k in range(1, p + 1) for f in itertools.combinations(range(p), k)):
        fixed = [j for j in range(p) if j not in free]
        # The first 2^m vertices run through every vertex of the last m coordinates.
        corners, q_ff = vertices[: 2 ** len(fixed), len(free) :], q[..., free, :][..., free]
        with np.errstate(divide="ignore"):  # subnormal LU pivots raise it; solve ignores it too
            regular = np.linalg.slogdet(q_ff)[0] != 0
        rhs = b[..., free, None] - q[..., free, :][..., fixed] @ corners.T
        h_free = np.linalg.solve(np.where(regular[..., None, None], q_ff, np.eye(len(free))), rhs)
        # A point that gives no candidate moves to the origin, where the defect is 0.
        keep = (regular[..., None] & np.all(np.abs(h_free) <= _LAN_BOX, axis=-2))[..., None]
        h = np.empty(keep.shape[:-1] + (p,))
        h[..., free] = np.where(keep, np.swapaxes(h_free, -1, -2), 0.0)
        h[..., fixed] = np.where(keep, corners, 0.0)
        values = np.einsum("...mi,...i->...m", h, b) - 0.5 * np.einsum("...mi,...ij,...mj->...m", h, q, h)
        sup = np.maximum(sup, np.max(np.abs(values), axis=-1))
    return sup


def lan_residual_sup(stats: SufficientStats, dgp: RegressionDGP) -> float | np.ndarray:
    """Exact sup over ``h`` in ``[-3, 3]^p`` of the LAN defect's magnitude, per sample.

    The defect ``h'Q_n Delta_n - h'Q_n h / 2``, with ``Q_n = W'W/(n sigma_u^2) - V``
    and ``Delta_n = sqrt(n)(theta_hat - theta_star)``, is the log-likelihood
    ratio at ``theta_star + h/sqrt(n)`` minus its quadratic expansion; ``stats``
    have ``W`` as their first ``p`` design columns.  The sup is taken over the
    box's vertices and the stationary points within its ``3^p`` faces.
    """
    return _result(_lan_box_sup(*_lan_terms(stats, dgp)))


def assumption2_terms(
    mu_n: np.ndarray,
    Sigma_n: np.ndarray,
    dgp: RegressionDGP,
    prior: ConjugatePrior,
    stats: SufficientStats,
) -> tuple[float | np.ndarray, float | np.ndarray]:
    """The two integrals whose decay the mean-field limit requires.

    Both are expectations under ``N(sqrt(n)(mu_n - theta_star), n Sigma_n)``:
    the first of the log prior ratio (closed form for the Gaussian prior),
    the second of the LAN defect.  Flat priors zero the first term exactly.
    ``stats`` are the sample's statistics (first ``p`` design columns ``W``);
    a stack of samples takes ``mu_n`` of shape (R, p) and ``Sigma_n`` of
    shape (R, p, p), one per sample, and gives one value of each per sample.
    """
    mu_n = np.atleast_1d(np.asarray(mu_n, dtype=float))
    Sigma_n = np.atleast_2d(np.asarray(Sigma_n, dtype=float))
    w = stats.first_columns(dgp.p)
    n = w.n
    theta_star = pseudo_true(dgp)
    mu_bar = np.sqrt(n) * (mu_n - theta_star)
    n_sigma = n * Sigma_n
    prec = prior.Sigma_pi / dgp.sigma_u**2
    q, delta = _lan_terms(w, dgp)
    # A far prior mean or posterior overflows the terms to inf or NaN, for the caller to name.
    with np.errstate(over="ignore", invalid="ignore"):
        prior_term = (
            -0.5 / n * np.einsum("...i,ij,...j->...", mu_bar, prec, mu_bar)
            - 0.5 / n * np.trace(n_sigma @ prec, axis1=-2, axis2=-1)
            + mu_bar @ prec @ (prior.mu_pi - theta_star) / np.sqrt(n)
        )
        lan_term = (
            np.einsum("...i,...ij,...j->...", mu_bar, q, delta)
            - 0.5 * np.einsum("...i,...ij,...j->...", mu_bar, q, mu_bar)
            - 0.5 * np.trace(q @ n_sigma, axis1=-2, axis2=-1)
        )
    return _result(prior_term), _result(lan_term)


def variational_conjugate_cov(
    stats: SufficientStats,
    prior: ConjugatePrior,
    sigma_u: float,
    alpha: float | Sequence[float],
) -> GaussianDist:
    """Closed-form mean-field approximation of the conjugate tempered posterior.

    The KL projection (:func:`gmf_project_gaussian`) of
    :func:`conjugate_alpha_posterior`, stacked as it is: a
    :class:`GaussianDist` with the mean of the tempered posterior and a
    diagonal covariance whose variances invert the diagonal of its precision,
    so each coordinate's variance is never above the corresponding
    tempered-posterior marginal variance.
    """
    return gmf_project_gaussian(conjugate_alpha_posterior(stats, prior, sigma_u, alpha))


def true_posterior_theta(
    stats: SufficientStats,
    full_prior: ConjugatePrior,
    sigma_eps: float,
    p: int,
) -> tuple[GaussianDist, np.ndarray]:
    """Posterior for theta under the correctly specified long model.

    ``stats`` are the statistics of ``[W, Z, Y]`` (:func:`simulate_stats`)
    for one sample or a stack, and ``theta`` is the coefficient of the first
    ``p`` design columns.  ``full_prior`` is a Gaussian prior over the
    stacked coefficient ``(theta, gamma)`` in precision-scale form
    (covariance ``sigma_eps^2 Sigma_pi^{-1}``; zero encodes the flat prior).
    Returns the theta-block marginal of the joint conjugate posterior (one
    member per sample for a stack) together with
    ``n * (posterior theta covariance)``, the finite-n covariance scale for
    the robustness scenario.
    """
    if full_prior.dim != stats.k:
        raise ValueError("full prior dimension must be p + d")
    _require_full_rank(stats.xtx + full_prior.Sigma_pi, "stacked design is rank deficient given the prior")
    # The correctly specified posterior is the untempered conjugate one.
    joint = conjugate_alpha_posterior(stats, full_prior, sigma_eps, 1.0)
    marginal = GaussianDist(joint.mean[..., :p], joint.cov[..., :p, :p])
    return marginal, stats.n * marginal.cov


def concentration_markov_bound(
    post_mean: np.ndarray,
    post_cov: np.ndarray,
    theta_star: np.ndarray,
    r_n: float,
    n: int,
) -> float | np.ndarray:
    """Markov bound ``(n / r_n^2) (||post_mean - theta_star||^2 + tr(post_cov))``.

    Dominates the posterior probability that ``sqrt(n)(theta - theta_star)``
    exits the ball of radius ``r_n``.  A stack of posteriors (means (R, p),
    covariances (R, p, p)) gives one bound per member.
    """
    _require_positive(r_n=r_n)
    post_mean = np.atleast_1d(np.asarray(post_mean, dtype=float))
    post_cov = np.atleast_2d(np.asarray(post_cov, dtype=float))
    gap = post_mean - np.atleast_1d(np.asarray(theta_star, dtype=float))
    # A gap whose square overflows gives the bound inf.
    with np.errstate(over="ignore", invalid="ignore"):
        return _result(n / r_n**2 * (np.sum(gap * gap, axis=-1) + np.trace(post_cov, axis1=-2, axis2=-1)))


def failure_case_hellinger(
    dgp: RegressionDGP,
    prior: ConjugatePrior,
    alpha0: float,
    n_grid: Sequence[int],
    seed: int = 0,
) -> np.ndarray:
    """Squared Hellinger gap when the tempering vanishes like ``alpha0 / n``, with its control.

    For each ``n`` one sample is drawn (seed ``derived_seed(seed, n)``) and the
    tempered posterior is compared to its would-be Gaussian limit
    ``N(theta_hat, V^{-1}/(alpha n))`` at two temperings: ``alpha_n = alpha0 / n``
    and the constant control ``alpha = 1``.  Because ``alpha_n n`` stays
    constant, the first pair converges to different Gaussians and its gap
    stabilizes at a strictly positive value; the control's gap goes to zero.

    Returns an array of shape ``(len(n_grid), 2)`` whose rows are
    ``[h2_failure, h2_control]`` in the order of ``n_grid``.  A tempering
    ``alpha0 / n`` that underflows, or whose posterior's scales do not stay
    positive and finite, raises ``ValueError`` naming ``alpha0, sigma_u`` and ``n``.
    """
    _require_positive(alpha0=alpha0)
    v = curvature(dgp)
    out = np.empty((len(n_grid), 2))
    for i, n in enumerate(n_grid):
        n = int(n)
        w = simulate_stats(dgp, n, [derived_seed(seed, n)]).first_columns(dgp.p)
        alphas = [alpha0 / n, 1.0]
        try:
            post = conjugate_alpha_posterior(w, prior, dgp.sigma_u, alphas)
        except ValueError as err:
            raise ValueError(
                f"alpha0, sigma_u: the tempered posteriors at alpha0 / n = {alphas[0]!r} and 1 of a sample "
                f"of n = {n}: {err}"
            ) from err
        out[i] = hellinger_sq_gaussian(post, gaussian_bvm_limit(ols(w), v, n, alphas))
    return out
