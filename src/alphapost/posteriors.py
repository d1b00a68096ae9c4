"""Tempered (likelihood-power) posteriors and their Gaussian large-sample limits.

A tempered posterior raises the likelihood to a power ``alpha > 0`` before
multiplying by the prior.  Two constructions are provided:

* closed form for the conjugate Gaussian linear regression model, from the
  sample's sufficient statistics (:class:`SufficientStats`, one Gram routine),
* tabulation on a uniform axis for a one-dimensional parameter, whose
  log-likelihood and log-prior are plain batched callables from (N, 1)
  parameter points to (N,) values, or on a stack of axes, one per member.

The Gaussian limit ``N(theta_hat_ml, V^{-1} / (alpha n))`` completes the
module, with the exact total variation and KL divergence between the
Laplace-prior location model's tempered posterior and that limit
(:func:`laplace_location_divergences`).

Every routine here stacks by one rule, numpy broadcasting over one leading
member axis: a sample or a stack of samples, an estimate or a stack of
estimates, and one ``alpha`` for all members or a vector of one per member.
Member ``i`` of the result is member ``i`` of each stacked input at
``alpha[i]``, so a caller that wants every (replication, ``alpha``) cell
lays the cells out itself and gathers each input per cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .gaussians import (
    _LOG_SQRT_2PI,
    GaussianDist,
    GridDensity,
    _clamp_kl,
    _ndtr,
    _positive_part_mean,
    _result,
    _symmetric,
    log_density,
)

__all__ = [
    "SufficientStats",
    "ConjugatePrior",
    "conjugate_alpha_posterior",
    "grid_alpha_posterior",
    "default_grid_axis",
    "gaussian_bvm_limit",
    "laplace_location_divergences",
]


def _block_gram(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    # The library's one Gram matrix of [X, y], for a design X of shape (n, k)
    # and a response y of shape (n,): X'X, y'X and y'y by blocks, never
    # copying the sample into one [X, y] array.
    k = X.shape[1]
    gram = np.empty((k + 1, k + 1))
    gram[:k, :k] = X.T @ X
    gram[k, :k] = gram[:k, k] = y @ X
    gram[k, k] = y @ y
    return gram


def _sample_size(n) -> int:
    # n as an int, if it is a positive integer of any number type.
    if not (0 < n < np.inf and int(n) == n):
        raise ValueError("n must be a positive integer")
    return int(n)


@dataclass(frozen=True)
class SufficientStats:
    """Sufficient statistics of linear-model samples: the size ``n`` and the Gram matrix of ``[X, Y]``.

    ``gram`` is ``[X, Y]'[X, Y]`` with the response last, of shape
    (k + 1, k + 1) for one sample with k design columns, or (R, k + 1, k + 1)
    for a stack of R samples that share ``n`` (replications).  Every routine
    that takes these broadcasts over the stack, so one sample runs the same
    code as a stack; ``stack[i]`` and ``stack[index]`` select members, as for
    :class:`GaussianDist`.  ``gram`` must be finite; ``n`` at least 1.
    """

    n: int
    gram: np.ndarray

    def __post_init__(self):
        gram = np.asarray(self.gram, dtype=float)
        if gram.ndim not in (2, 3) or gram.shape[-1] != gram.shape[-2] or gram.shape[-1] < 2:
            raise ValueError(f"gram must be a (k + 1) x (k + 1) matrix or a stack of them, got shape {gram.shape}")
        if not np.all(np.isfinite(gram)):
            raise ValueError("gram must be finite")
        object.__setattr__(self, "n", _sample_size(self.n))
        object.__setattr__(self, "gram", gram)

    @classmethod
    def of(cls, X: np.ndarray, Y: np.ndarray) -> "SufficientStats":
        """The statistics of one sample: design ``X`` of shape (n, k) or (n,), response ``Y``."""
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X[:, None]
        Y = np.asarray(Y, dtype=float).ravel()
        if X.ndim != 2 or X.shape[0] != Y.size:
            raise ValueError("design and response row counts disagree")
        return cls(Y.size, _block_gram(X, Y))

    @classmethod
    def stack(cls, members: Sequence["SufficientStats"]) -> "SufficientStats":
        """One stack of single-sample statistics that share ``n`` and the design columns."""
        if not members or any(m.stacked or m.n != members[0].n for m in members):
            raise ValueError("a stack takes one or more single samples of one size n")
        return cls(members[0].n, np.stack([m.gram for m in members]))

    def __getitem__(self, index) -> "SufficientStats":
        if not self.stacked:
            raise ValueError("only a stack of samples can be indexed")
        return SufficientStats(self.n, self.gram[index])

    @property
    def k(self) -> int:
        """Number of design columns."""
        return self.gram.shape[-1] - 1

    @property
    def stacked(self) -> bool:
        """Whether this is a stack of samples rather than one."""
        return self.gram.ndim == 3

    @property
    def xtx(self) -> np.ndarray:
        return self.gram[..., : self.k, : self.k]

    @property
    def xty(self) -> np.ndarray:
        return self.gram[..., : self.k, self.k]

    @property
    def yty(self) -> float | np.ndarray:
        return self.gram[..., self.k, self.k]

    def first_columns(self, k: int) -> "SufficientStats":
        """The statistics of the regression of ``Y`` on the first ``k`` design columns only."""
        if not 1 <= k <= self.k:
            raise ValueError(f"k must lie in [1, {self.k}]")
        keep = np.r_[0:k, self.k]
        return SufficientStats(self.n, self.gram[..., keep[:, None], keep])


@dataclass(frozen=True)
class ConjugatePrior:
    """Gaussian prior ``N(mu_pi, sigma_u^2 * Sigma_pi^{-1})`` in precision-scale form.

    ``mu_pi`` must be finite.  ``Sigma_pi`` is the precision-scale matrix: it
    must be finite, symmetric within 1e-12 of its largest entry (it is stored
    symmetrized) and positive semidefinite, and the all-zeros matrix encodes
    the flat-prior limit (the posterior then collapses to pure least squares
    for every ``alpha``).  Violations raise ``ValueError`` naming the field.
    """

    mu_pi: np.ndarray
    Sigma_pi: np.ndarray

    def __post_init__(self):
        mu = np.atleast_1d(np.asarray(self.mu_pi, dtype=float))
        sig = np.atleast_2d(np.asarray(self.Sigma_pi, dtype=float))
        if sig.shape != (mu.size, mu.size):
            raise ValueError("Sigma_pi shape does not match mu_pi")
        _require_finite(mu_pi=mu)
        sig = _symmetric(sig, "Sigma_pi")
        if np.min(np.linalg.eigvalsh(sig)) < -1e-12:
            raise ValueError("Sigma_pi must be positive semidefinite")
        object.__setattr__(self, "mu_pi", mu)
        object.__setattr__(self, "Sigma_pi", sig)

    @classmethod
    def flat(cls, dim: int) -> "ConjugatePrior":
        return cls(np.zeros(dim), np.zeros((dim, dim)))

    @property
    def dim(self) -> int:
        return self.mu_pi.size

    def log_density_fn(self, sigma_u: float) -> Callable[[np.ndarray], np.ndarray]:
        """Batched log prior density; requires an invertible ``Sigma_pi``."""
        cov = sigma_u**2 * np.linalg.inv(self.Sigma_pi)
        dist = GaussianDist(self.mu_pi, (cov + cov.T) / 2.0)
        return lambda pts: log_density(dist, pts)


def _tempering(alpha, members: int) -> np.ndarray:
    # One alpha or a vector of them, each positive, for an input of this many
    # members (1 for a single one): one value, or one per member.  An input
    # of one member pairs with every alpha of a vector, as numpy broadcasts.
    alpha = np.asarray(alpha, dtype=float)
    if alpha.ndim > 1:
        raise ValueError("alpha must be a number or a vector")
    if members > 1 and alpha.size not in (1, members):
        raise ValueError(f"alpha: one value, or one per member ({members}), got {alpha.size}")
    if not np.all(alpha > 0):
        raise ValueError("alpha must be positive")
    return alpha


def _require_finite(**values):
    # Each named number, or array of numbers, finite.
    for name, value in values.items():
        if not np.all(np.isfinite(value)):
            raise ValueError(f"{name} must be finite")


def _require_positive(**values):
    # Each named number positive and finite.
    for name, value in values.items():
        if not 0.0 < value < np.inf:
            raise ValueError(f"{name} must be positive and finite")


def conjugate_alpha_posterior(
    stats: SufficientStats,
    prior: ConjugatePrior,
    sigma_u: float,
    alpha: float | Sequence[float],
) -> GaussianDist:
    """Closed-form tempered posterior for the Gaussian linear model, from sufficient statistics.

    With ``S = X'X/n + Sigma_pi/(alpha n)`` the posterior is Gaussian with
    mean ``S^{-1} (Sigma_pi mu_pi / (alpha n) + X'Y/n)`` and covariance
    ``sigma_u^2 / (alpha n) * S^{-1}``, where ``X`` is every design column of
    ``stats``.  A stack of samples, a vector of ``alpha`` or both (one per
    sample) give the stack of these posteriors from one stacked solve.
    """
    alpha = _tempering(alpha, len(stats.gram) if stats.stacked else 1)
    if prior.dim != stats.k:
        raise ValueError(f"prior dimension {prior.dim} does not match the {stats.k} design columns")
    n = stats.n
    scale = alpha * n
    s = stats.xtx / n + prior.Sigma_pi / scale[..., None, None]
    b = prior.Sigma_pi @ prior.mu_pi / scale[..., None] + stats.xty / n
    try:
        mean = np.linalg.solve(s, b[..., None])[..., 0]
        cov = (sigma_u**2 / scale)[..., None, None] * np.linalg.inv(s)
    except np.linalg.LinAlgError as err:
        raise ValueError("singular normal-equations matrix") from err
    # A computed inverse is symmetric only up to rounding, which can exceed
    # GaussianDist's 1e-12 symmetry tolerance once p >= 3 and the design is
    # ill-conditioned; averaging with the transpose first keeps such inputs.
    cov = (cov + np.swapaxes(cov, -1, -2)) / 2.0
    return GaussianDist(mean, cov)


def default_grid_axis(
    theta_hat_ml: float | np.ndarray,
    v: float,
    n: int,
    alpha: float | np.ndarray,
    num: int = 2001,
    scale: float = 10.0,
) -> np.ndarray:
    """Default grid axis: ML estimate +- scale / sqrt(alpha n v), for the curvature ``v``.

    The half-width tracks the tempering-dependent spread of the Gaussian
    limit, so the axis covers its support for any ``alpha``.  Callers that
    run 32-node Gauss-Hermite quadrature against the grid should widen the
    box (``scale`` around 14) since the outermost nodes of a matched
    Gaussian reach past 10 standard deviations.  Estimates and ``alpha``
    given as vectors of one value per cell give the stack of axes, of
    shape (cells, num).
    """
    half_width = scale / np.sqrt(alpha * n * v)
    lo, hi = np.asarray(theta_hat_ml - half_width), np.asarray(theta_hat_ml + half_width)
    # np.linspace(lo, hi, num, axis=-1) node for node, but each axis
    # contiguous, as the tabulation wants it.
    x = np.arange(num) * ((hi - lo) / (num - 1))[..., None]
    x += lo[..., None]
    x[..., -1] = hi
    return x


def grid_alpha_posterior(
    log_lik: Callable[[np.ndarray], np.ndarray],
    log_prior: Callable[[np.ndarray], np.ndarray],
    alpha: float | Sequence[float],
    x: np.ndarray,
) -> GridDensity:
    """Tempered posterior of a one-dimensional parameter, tabulated on the axis ``x``, or a stack of them.

    ``x`` is one axis of N nodes, or a stack of k axes of shape (k, N) with
    ``alpha`` one value or k of them, one per member.  ``log_lik`` (the
    joint log-likelihood of the full sample, such as
    :func:`~alphapost.regression.regression_likelihood`) and ``log_prior``
    map the parameter points ``x[..., None]`` (shape (N, 1), or (k, N, 1))
    to their values (shape (N,), or (k, N)); for a stack, member ``i`` is
    row ``i``, so a likelihood stacked over k samples gives each member its
    own sample.  Both must be re-entrant (no shared mutable state) and
    return a fresh array, which the tabulation overwrites; the
    log-likelihood must be finite on every axis.  Node weights are
    proportional to ``exp(alpha * log_lik + log_prior)``; normalization is
    stabilized by a log-sum-exp shift so that likelihood magnitudes growing
    with the sample size never overflow.
    """
    x = np.ascontiguousarray(x, dtype=float)
    if x.ndim not in (1, 2):
        raise ValueError(f"grid posteriors take one axis or a stack of axes, got an array of dimension {x.ndim}")
    alpha = _tempering(alpha, len(x) if x.ndim == 2 else 1)
    if x.shape[-1] < 101:
        raise ValueError("the grid axis needs at least 101 nodes")
    if not np.all(np.isfinite(x)):
        raise ValueError("the grid axis must be finite")
    pts = x[..., None]
    ll = np.asarray(log_lik(pts), dtype=float)
    if not np.all(np.isfinite(ll)):
        raise ValueError("non-finite log-likelihood on a grid node")
    # alpha * log_lik + log_prior, in the log-likelihood's own array.
    ll *= alpha[..., None]
    ll += np.asarray(log_prior(pts), dtype=float)
    return GridDensity.from_log_unnormalized(x, ll)


def gaussian_bvm_limit(
    theta_hat_ml: np.ndarray, V: np.ndarray, n: int, alpha: float | Sequence[float]
) -> GaussianDist:
    """Large-sample Gaussian limit ``N(theta_hat_ml, V^{-1} / (alpha n))``.

    Tempering only rescales the covariance: ``alpha < 1`` inflates it, the
    location stays at the maximum likelihood estimator.  A stack of
    estimates (shape (k, p)), a vector of ``alpha`` or both (one per
    estimate) give the stack of limits.
    """
    V = np.atleast_2d(np.asarray(V, dtype=float))
    mean = np.atleast_1d(np.asarray(theta_hat_ml, dtype=float))
    alpha = _tempering(alpha, len(mean) if mean.ndim == 2 else 1)
    members = np.broadcast_shapes(mean.shape[:-1], alpha.shape)
    cov = np.linalg.inv(V) / (alpha * n)[..., None, None]
    cov = (cov + np.swapaxes(cov, -1, -2)) / 2.0
    return GaussianDist(np.broadcast_to(mean, members + V.shape[-1:]), np.broadcast_to(cov, members + V.shape))


def _log_tilted_mass(t: np.ndarray, beta: np.ndarray) -> np.ndarray:
    # log of the integral over v > 0 of phi(v - t) exp(-beta v), elementwise,
    # for beta >= 0.  Completing the square gives exp(beta^2/2 - beta t)
    # Phi(t - beta).  Where t < beta that is phi(t) / (x + m(-x)) with
    # x = beta - t and m the positive-part mean, which keeps the log finite
    # where Phi(t - beta) underflows and beta^2/2 would cancel against it.
    t, beta = np.broadcast_arrays(t, beta)
    x = beta - t
    out = np.empty(x.shape)
    right = x <= 0.0
    b, tr = beta[right], t[right]
    out[right] = 0.5 * b * b - b * tr + np.log(_ndtr(-x[right]))
    xl, tl = x[~right], t[~right]
    # A t whose square overflows gives -inf: the log of a vanishing mass.
    with np.errstate(over="ignore"):
        out[~right] = -0.5 * tl * tl - _LOG_SQRT_2PI - np.log(xl + _positive_part_mean(-xl))
    return out


def laplace_location_divergences(
    theta_hat: float | np.ndarray,
    sigma: float,
    n: int,
    alpha: float | Sequence[float],
    loc: float = 0.0,
    scale: float = 1.0,
) -> tuple[float | np.ndarray, float | np.ndarray]:
    """Exact ``(TV, KL(posterior || limit))`` for the Laplace-prior location model.

    The data are ``n`` draws from ``N(theta, sigma^2)`` with mean
    ``theta_hat``, and the prior is Laplace(``loc``, ``scale``).  With
    ``tau^2 = sigma^2 / (alpha n)`` the tempered posterior is proportional to
    ``phi((theta - theta_hat) / tau) exp(-|theta - loc| / scale)``: a
    two-piece mixture of normals truncated at ``loc``, whose weights are
    taken in log space.  Its Gaussian limit (:func:`gaussian_bvm_limit` with
    ``V = 1 / sigma^2``) is ``N(theta_hat, tau^2)``, so
    ``log(posterior / limit) = -|theta - loc| / scale - log Z`` with
    ``Z = E_limit exp(-|theta - loc| / scale)``.  The posterior exceeds the
    limit on the interval ``|theta - loc| < -scale log Z``, which gives
    ``TV = P_limit(outside) - P_posterior(outside)``, and
    ``KL = -E_posterior|theta - loc| / scale - log Z``.  Both stay finite
    far off the kink and for a prior much narrower than ``tau``.

    A vector of estimates, of ``alpha`` or of both (one per estimate) gives
    one value per member.  A non-finite ``theta_hat`` or ``loc``, a
    ``sigma`` or ``scale`` that is not positive and finite, or an ``n`` that
    is not a positive integer raises ``ValueError`` naming it.
    """
    _require_finite(theta_hat=theta_hat, loc=loc)
    _require_positive(sigma=sigma, scale=scale)
    n = _sample_size(n)
    alpha = _tempering(alpha, np.size(theta_hat))
    tau = sigma / np.sqrt(alpha * n)
    # In units of tau: the estimate's offset from the kink, and the prior's rate.
    s, beta = np.broadcast_arrays((np.asarray(theta_hat, dtype=float) - loc) / tau, tau / scale)
    # Each pair of sides is one (2, cells) stack, so each normal CDF call
    # covers both.  Z times the posterior's mass on either side of the kink:
    log_right, log_left = _log_tilted_mass(np.stack([s, -s]), beta)
    log_z = np.logaddexp(log_right, log_left)
    # Beyond rho on either side the posterior has mass exp(_log_tilted_mass(t, beta))
    # and the limit Phi(t), with t = +-s - rho.
    rho = -log_z / beta
    t = np.stack([s - rho, -s - rho])
    tv = np.sum(_ndtr(t) - np.exp(_log_tilted_mass(t, beta)), axis=0)
    # Each side is a normal of mean +-s - beta truncated at the kink.
    sides = np.exp(np.stack([log_right, log_left]) - log_z)
    mean_abs = np.sum(sides * _positive_part_mean(np.stack([s - beta, -s - beta])), axis=0)
    return _result(np.clip(tv, 0.0, 1.0)), _result(_clamp_kl(-beta * mean_abs - log_z))
