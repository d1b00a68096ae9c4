"""Tempered (likelihood-power) posteriors and their Gaussian large-sample limits.

A tempered posterior raises the likelihood to a power ``alpha > 0`` before
multiplying by the prior.  Two constructions are provided:

* closed form for the conjugate Gaussian linear regression model, from the
  sample's sufficient statistics (:class:`SufficientStats`),
* tabulation on a uniform axis for a one-dimensional parameter, whose
  log-likelihood and log-prior are plain batched callables from (N, 1)
  parameter points to (N,) values.

The Gaussian limit ``N(theta_hat_ml, V^{-1} / (alpha n))`` completes the
module.

The conjugate posterior and the Gaussian limit take one sample or a stack of
replications, and either one ``alpha`` or a vector of them.  They return one
:class:`GaussianDist` with a member per (replication, ``alpha``) cell,
replication-major: member ``r * len(alpha) + a`` is replication ``r`` at
``alpha[a]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .gaussians import GaussianDist, GridDensity, log_density

__all__ = [
    "SufficientStats",
    "ConjugatePrior",
    "conjugate_alpha_posterior",
    "grid_alpha_posterior",
    "default_grid_axis",
    "gaussian_bvm_limit",
]


@dataclass(frozen=True)
class SufficientStats:
    """Sufficient statistics of linear-model samples: the size ``n`` and the Gram matrix of ``[X, Y]``.

    ``gram`` is ``[X, Y]'[X, Y]`` with the response last, of shape
    (k + 1, k + 1) for one sample with k design columns, or (R, k + 1, k + 1)
    for a stack of R samples that share ``n`` (replications).  Every routine
    that takes these broadcasts over the stack, so one sample runs the same
    code as a stack.  ``gram`` must be finite; ``n`` at least 1.
    """

    n: int
    gram: np.ndarray

    def __post_init__(self):
        gram = np.asarray(self.gram, dtype=float)
        if gram.ndim not in (2, 3) or gram.shape[-1] != gram.shape[-2] or gram.shape[-1] < 2:
            raise ValueError(f"gram must be a (k + 1) x (k + 1) matrix or a stack of them, got shape {gram.shape}")
        if not np.all(np.isfinite(gram)):
            raise ValueError("gram must be finite")
        if int(self.n) != self.n or self.n < 1:
            raise ValueError("n must be a positive integer")
        object.__setattr__(self, "n", int(self.n))
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
        cols = np.column_stack([X, Y])
        return cls(Y.size, cols.T @ cols)

    @classmethod
    def stack(cls, members: Sequence["SufficientStats"]) -> "SufficientStats":
        """One stack of single-sample statistics that share ``n`` and the design columns."""
        if not members or any(m.stacked or m.n != members[0].n for m in members):
            raise ValueError("a stack takes one or more single samples of one size n")
        return cls(members[0].n, np.stack([m.gram for m in members]))

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

    ``Sigma_pi`` is the precision-scale matrix: it must be symmetric positive
    semidefinite, and the all-zeros matrix encodes the flat-prior limit (the
    posterior then collapses to pure least squares for every ``alpha``).
    """

    mu_pi: np.ndarray
    Sigma_pi: np.ndarray

    def __post_init__(self):
        mu = np.atleast_1d(np.asarray(self.mu_pi, dtype=float))
        sig = np.atleast_2d(np.asarray(self.Sigma_pi, dtype=float))
        if sig.shape != (mu.size, mu.size):
            raise ValueError("Sigma_pi shape does not match mu_pi")
        scale = max(float(np.max(np.abs(sig))), 1.0)
        if np.max(np.abs(sig - sig.T)) > 1e-12 * scale:
            raise ValueError("Sigma_pi must be symmetric")
        sig = (sig + sig.T) / 2.0
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


def _per_alpha(x: np.ndarray, alpha: np.ndarray, core: int) -> np.ndarray:
    # Room for the alpha axis, if any, between the replication axis, if any,
    # and the last ``core`` axes that belong to one member.
    cut = x.ndim - core
    return x.reshape(x.shape[:cut] + (1,) * alpha.ndim + x.shape[cut:])


def _replication_major(x: np.ndarray, core: int) -> np.ndarray:
    # Merge the leading (replication, alpha) axes of an array whose last
    # ``core`` axes belong to one member into one stack axis, replication-major.
    lead = x.shape[: x.ndim - core]
    return x.reshape((-1,) + x.shape[x.ndim - core :]) if len(lead) > 1 else x


def _tempering(alpha) -> np.ndarray:
    # One alpha or a vector of them, each positive.
    alpha = np.asarray(alpha, dtype=float)
    if alpha.ndim > 1:
        raise ValueError("alpha must be a number or a vector")
    if not np.all(alpha > 0):
        raise ValueError("alpha must be positive")
    return alpha


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
    ``stats``.  A stack of samples or a vector of ``alpha`` gives the stack
    of these posteriors, replication-major, from one stacked solve.
    """
    alpha = _tempering(alpha)
    if prior.dim != stats.k:
        raise ValueError(f"prior dimension {prior.dim} does not match the {stats.k} design columns")
    n = stats.n
    scale = alpha * n
    s = _per_alpha(stats.xtx, alpha, 2) / n + prior.Sigma_pi / scale[..., None, None]
    b = prior.Sigma_pi @ prior.mu_pi / scale[..., None] + _per_alpha(stats.xty, alpha, 1) / n
    try:
        mean = np.linalg.solve(s, b[..., None])[..., 0]
        cov = (sigma_u**2 / scale)[..., None, None] * np.linalg.inv(s)
    except np.linalg.LinAlgError as err:
        raise ValueError("singular normal-equations matrix") from err
    # A computed inverse is symmetric only up to rounding, which can exceed
    # GaussianDist's 1e-12 symmetry tolerance once p >= 3 and the design is
    # ill-conditioned; averaging with the transpose first keeps such inputs.
    cov = (cov + np.swapaxes(cov, -1, -2)) / 2.0
    return GaussianDist(_replication_major(mean, 1), _replication_major(cov, 2))


def default_grid_axis(
    theta_hat_ml: float,
    v: float,
    n: int,
    alpha: float,
    num: int = 2001,
    scale: float = 10.0,
) -> np.ndarray:
    """Default grid axis: ML estimate +- scale / sqrt(alpha n v), for the curvature ``v``.

    The half-width tracks the tempering-dependent spread of the Gaussian
    limit, so the axis covers its support for any ``alpha``.  Callers that
    run 32-node Gauss-Hermite quadrature against the grid should widen the
    box (``scale`` around 14) since the outermost nodes of a matched
    Gaussian reach past 10 standard deviations.
    """
    half_width = scale / np.sqrt(alpha * n * v)
    return np.linspace(theta_hat_ml - half_width, theta_hat_ml + half_width, num)


def grid_alpha_posterior(
    log_lik: Callable[[np.ndarray], np.ndarray],
    log_prior: Callable[[np.ndarray], np.ndarray],
    alpha: float,
    x: np.ndarray,
) -> GridDensity:
    """Tempered posterior of a one-dimensional parameter, tabulated on the axis ``x``.

    ``log_lik`` (the joint log-likelihood of the full sample, such as
    :func:`~alphapost.regression.regression_likelihood`) and ``log_prior``
    map an (N, 1) array of parameter points to the (N,) array of their
    values.  Both must be re-entrant (no shared mutable state), and the
    log-likelihood must be finite on the whole axis.  Node weights are
    proportional to ``exp(alpha * log_lik + log_prior)``; normalization is
    stabilized by a log-sum-exp shift so that likelihood magnitudes growing
    with the sample size never overflow.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"grid posteriors take one axis, got an array of dimension {x.ndim}")
    if x.size < 101:
        raise ValueError("the grid axis needs at least 101 nodes")
    if not np.all(np.isfinite(x)):
        raise ValueError("the grid axis must be finite")
    pts = x[:, None]
    ll = np.asarray(log_lik(pts), dtype=float)
    if not np.all(np.isfinite(ll)):
        raise ValueError("non-finite log-likelihood on a grid node")
    return GridDensity.from_log_unnormalized(x, alpha * ll + np.asarray(log_prior(pts), dtype=float))


def gaussian_bvm_limit(
    theta_hat_ml: np.ndarray, V: np.ndarray, n: int, alpha: float | Sequence[float]
) -> GaussianDist:
    """Large-sample Gaussian limit ``N(theta_hat_ml, V^{-1} / (alpha n))``.

    Tempering only rescales the covariance: ``alpha < 1`` inflates it, the
    location stays at the maximum likelihood estimator.  A stack of
    estimates (shape (R, p), one per replication) or a vector of ``alpha``
    gives the stack of limits, replication-major.
    """
    alpha = _tempering(alpha)
    V = np.atleast_2d(np.asarray(V, dtype=float))
    mean = np.atleast_1d(np.asarray(theta_hat_ml, dtype=float))
    cells = mean.shape[:-1] + alpha.shape
    mean = np.broadcast_to(_per_alpha(mean, alpha, 1), cells + mean.shape[-1:])
    cov = np.linalg.inv(V) / (alpha * n)[..., None, None]
    cov = np.broadcast_to((cov + np.swapaxes(cov, -1, -2)) / 2.0, cells + V.shape)
    return GaussianDist(_replication_major(mean, 1), _replication_major(cov, 2))
