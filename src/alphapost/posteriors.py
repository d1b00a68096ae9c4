"""Tempered (likelihood-power) posteriors and their Gaussian large-sample limits.

A tempered posterior raises the likelihood to a power ``alpha > 0`` before
multiplying by the prior.  Two constructions are provided:

* closed form for the conjugate Gaussian linear regression model,
* tabulation on a rectangular grid for generic low-dimensional models.

The Gaussian limit ``N(theta_hat_ml, V^{-1} / (alpha n))`` and concentration
probes around the (pseudo-)true parameter complete the module.

The conjugate posterior and the Gaussian limit take either one ``alpha`` or
a vector of them, and then return one stacked :class:`GaussianDist` with a
member per ``alpha``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .gaussians import GaussianDist, GridDensity, _require_single, mesh_points, trapezoid_weights

__all__ = [
    "ConjugatePrior",
    "LikelihoodEvaluator",
    "conjugate_alpha_posterior",
    "grid_alpha_posterior",
    "default_grid_axes",
    "gaussian_bvm_limit",
    "concentration_probability",
]


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
        from .gaussians import log_density

        return lambda pts: log_density(dist, pts)


@dataclass(frozen=True)
class LikelihoodEvaluator:
    """Joint log-likelihood of the full sample as a function of the parameter.

    ``log_lik`` maps an (N, dim) array of parameter points to the (N,) array
    of log-likelihood values; it must be finite on any grid box it is asked
    to fill and re-entrant (no shared mutable state).
    """

    log_lik: Callable[[np.ndarray], np.ndarray]
    dim: int

    def __call__(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != self.dim:
            raise ValueError("parameter dimension mismatch")
        return np.asarray(self.log_lik(pts), dtype=float)


def _tempering(alpha) -> np.ndarray:
    # One alpha or a vector of them, each positive.
    alpha = np.asarray(alpha, dtype=float)
    if alpha.ndim > 1:
        raise ValueError("alpha must be a number or a vector")
    if not np.all(alpha > 0):
        raise ValueError("alpha must be positive")
    return alpha


def conjugate_alpha_posterior(
    W: np.ndarray,
    Y: np.ndarray,
    prior: ConjugatePrior,
    sigma_u: float,
    alpha: float | Sequence[float],
) -> GaussianDist:
    """Closed-form tempered posterior for the Gaussian linear model.

    With ``S = W'W/n + Sigma_pi/(alpha n)`` the posterior is Gaussian with
    mean ``S^{-1} (Sigma_pi mu_pi / (alpha n) + W'Y/n)`` and covariance
    ``sigma_u^2 / (alpha n) * S^{-1}``.  A vector of ``alpha`` gives the
    stack of these posteriors, one per ``alpha`` in order, from one stacked
    solve.
    """
    alpha = _tempering(alpha)
    W = np.asarray(W, dtype=float)
    if W.ndim == 1:
        W = W[:, None]
    Y = np.asarray(Y, dtype=float).ravel()
    n = W.shape[0]
    if n < 1 or Y.size != n:
        raise ValueError("design and response row counts disagree")
    if prior.dim != W.shape[1]:
        raise ValueError(f"prior dimension {prior.dim} does not match the {W.shape[1]} design columns")
    scale = alpha * n
    s = W.T @ W / n + prior.Sigma_pi / scale[..., None, None]
    b = prior.Sigma_pi @ prior.mu_pi / scale[..., None] + W.T @ Y / n
    try:
        mean = np.linalg.solve(s, b[..., None])[..., 0]
        cov = (sigma_u**2 / scale)[..., None, None] * np.linalg.inv(s)
    except np.linalg.LinAlgError as err:
        raise ValueError("singular normal-equations matrix") from err
    return GaussianDist(mean, (cov + np.swapaxes(cov, -1, -2)) / 2.0)


def default_grid_axes(
    theta_hat_ml: np.ndarray,
    V: np.ndarray,
    n: int,
    alpha: float,
    num: int = 2001,
    scale: float = 10.0,
) -> list[np.ndarray]:
    """Default grid box: ML estimate +- scale / sqrt(alpha n lambda_min(V)) per axis.

    The half-width tracks the tempering-dependent spread of the Gaussian
    limit, so the box covers its support for any ``alpha``.  Callers that
    run 32-node Gauss-Hermite quadrature against the grid should widen the
    box (``scale`` around 14) since the outermost nodes of a matched
    Gaussian reach past 10 standard deviations.
    """
    theta_hat_ml = np.atleast_1d(np.asarray(theta_hat_ml, dtype=float))
    V = np.atleast_2d(np.asarray(V, dtype=float))
    lam_min = float(np.min(np.linalg.eigvalsh(V)))
    half_width = scale / np.sqrt(alpha * n * lam_min)
    return [np.linspace(t - half_width, t + half_width, num) for t in theta_hat_ml]


def grid_alpha_posterior(
    lik: LikelihoodEvaluator,
    log_prior: Callable[[np.ndarray], np.ndarray],
    alpha: float,
    axes: Sequence[np.ndarray],
) -> GridDensity:
    """Tempered posterior tabulated on a grid, for dimension <= 2.

    Node weights are proportional to ``exp(alpha * log_lik + log_prior)``;
    normalization is stabilized by a log-sum-exp shift so that likelihood
    magnitudes growing with the sample size never overflow.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if lik.dim > 2:
        raise ValueError("grid posteriors support dimension <= 2")
    if len(axes) != lik.dim:
        raise ValueError("axes count must match the likelihood dimension")
    for ax in axes:
        if len(ax) < 101:
            raise ValueError("each grid axis needs at least 101 nodes")
        if not np.all(np.isfinite(ax)):
            raise ValueError("grid axes must be finite")
    pts = mesh_points(axes)
    ll = lik(pts)
    if not np.all(np.isfinite(ll)):
        raise ValueError("non-finite log-likelihood on a grid node")
    lw = (alpha * ll + np.asarray(log_prior(pts), dtype=float)).reshape([len(ax) for ax in axes])
    return GridDensity.from_log_unnormalized(axes, lw)


def gaussian_bvm_limit(
    theta_hat_ml: np.ndarray, V: np.ndarray, n: int, alpha: float | Sequence[float]
) -> GaussianDist:
    """Large-sample Gaussian limit ``N(theta_hat_ml, V^{-1} / (alpha n))``.

    Tempering only rescales the covariance: ``alpha < 1`` inflates it, the
    location stays at the maximum likelihood estimator.  A vector of
    ``alpha`` gives the stack of limits, one per ``alpha``.
    """
    alpha = _tempering(alpha)
    V = np.atleast_2d(np.asarray(V, dtype=float))
    cov = np.linalg.inv(V) / (alpha * n)[..., None, None]
    mean = np.atleast_1d(np.asarray(theta_hat_ml, dtype=float))
    if alpha.ndim:
        mean = np.broadcast_to(mean, alpha.shape + mean.shape)
    return GaussianDist(mean, (cov + np.swapaxes(cov, -1, -2)) / 2.0)


def concentration_probability(
    post: GaussianDist | GridDensity,
    theta_star: np.ndarray,
    radius: float,
    n: int,
    rng: np.random.Generator | None = None,
    draws: int = 100_000,
) -> float:
    """Posterior probability that ``sqrt(n) * (theta - theta_star)`` leaves a ball.

    Returns ``P(||sqrt(n)(theta - theta_star)|| > radius)`` under ``post``.
    Gaussian posteriors (one, not a stack) use the exact normal tail in one
    dimension and Monte Carlo (``draws`` samples from an explicit ``rng``,
    without which it raises ``ValueError``) otherwise; grid posteriors use a
    masked trapezoid sum.
    """
    theta_star = np.atleast_1d(np.asarray(theta_star, dtype=float))
    if isinstance(post, GaussianDist):
        _require_single(post)
        if post.dim != theta_star.size:
            raise ValueError("dimension mismatch")
        shift = np.sqrt(n) * (post.mean - theta_star)
        if post.dim == 1:
            from scipy.special import ndtr

            sd = float(np.sqrt(n * post.cov[0, 0]))
            m = float(shift[0])
            return float(ndtr((-radius - m) / sd) + ndtr((m - radius) / sd))
        if rng is None:
            raise ValueError("Monte Carlo in dimension >= 2 requires an explicit rng")
        z = rng.standard_normal((draws, post.dim)) @ (np.sqrt(n) * post.chol).T + shift
        return float(np.mean(np.linalg.norm(z, axis=1) > radius))
    if post.dim != theta_star.size:
        raise ValueError("dimension mismatch")
    pts = post.nodes()
    mask = np.linalg.norm(np.sqrt(n) * (pts - theta_star), axis=1) > radius
    w = trapezoid_weights(post.axes).ravel() * post.pdf().ravel()
    return float(np.sum(w[mask]))
