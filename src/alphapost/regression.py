"""Omitted-variable Gaussian linear regression: the worked misspecification example.

The data are generated by ``Y = theta0'W + gamma0'Z + eps`` with jointly
Gaussian zero-mean covariates, but the analyst regresses ``Y`` on ``W``
alone, assuming ``N(0, sigma_u^2)`` errors.  Everything the robustness
analysis needs is then available in closed form: the pseudo-true parameter
(true parameter plus the omitted-variable bias), the likelihood curvature
``E[WW'] / sigma_u^2``, the correctly specified posterior's covariance
scale, and the conjugate tempered posterior itself.

The module also houses the verification probes used by the experiment
harness: the local-asymptotic-normality residual (batched over
perturbations), the prior/remainder integrals that the mean-field limit needs
to vanish, a Markov bound on posterior concentration, and the
vanishing-tempering failure case, where the Gaussian approximation stays
bounded away from the posterior, next to its constant-tempering control.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .gaussians import GaussianDist, hellinger_sq_gaussian, mesh_points
from .meanfield import DiagonalGaussian, gmf_project_gaussian
from .posteriors import ConjugatePrior, LikelihoodEvaluator, conjugate_alpha_posterior, gaussian_bvm_limit
from .robustness import MisspecScenario

__all__ = [
    "RegressionDGP",
    "RegressionDataset",
    "derived_seed",
    "simulate",
    "ols",
    "pseudo_true",
    "curvature",
    "population_omega",
    "misspec_scenario",
    "regression_likelihood",
    "lan_residual",
    "lan_residual_sup",
    "assumption2_terms",
    "variational_conjugate_cov",
    "true_posterior_theta",
    "concentration_markov_bound",
    "failure_case_hellinger",
]

# Nodes per axis of the mesh on which lan_residual_sup takes its sup.
LAN_MESH_NODES = 13


def derived_seed(master_seed: int, *key: int) -> int:
    """Deterministic per-replication seed derived from a master seed and index key.

    Replications seeded this way are independent streams, and results do not
    depend on the order in which they run.
    """
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1)[0])


@dataclass(frozen=True)
class RegressionDGP:
    """True data-generating process and the analyst's working model.

    ``sigma_u`` is the error standard deviation the analyst presumes for the
    short regression of ``Y`` on ``W``.  When omitted it defaults to the
    population residual standard deviation of that projection,
    ``sqrt(sigma_eps^2 + gamma0' (cov_ZZ - cov_WZ' cov_WW^{-1} cov_WZ) gamma0)``,
    so that the omitted variable is the only misspecification; a derived
    value of 0 raises ``ValueError``.
    """

    theta0: np.ndarray
    gamma0: np.ndarray
    sigma_eps: float
    cov_WW: np.ndarray
    cov_WZ: np.ndarray
    cov_ZZ: np.ndarray
    sigma_u: float | None = None

    def __post_init__(self):
        theta0 = np.atleast_1d(np.asarray(self.theta0, dtype=float))
        gamma0 = np.atleast_1d(np.asarray(self.gamma0, dtype=float))
        p, d = theta0.size, gamma0.size
        cov_ww = np.atleast_2d(np.asarray(self.cov_WW, dtype=float))
        cov_zz = np.atleast_2d(np.asarray(self.cov_ZZ, dtype=float))
        cov_wz = np.asarray(self.cov_WZ, dtype=float).reshape(p, d)
        if cov_ww.shape != (p, p) or cov_zz.shape != (d, d):
            raise ValueError("covariance block shapes disagree with theta0/gamma0")
        stacked = np.block([[cov_ww, cov_wz], [cov_wz.T, cov_zz]])
        try:
            chol = np.linalg.cholesky(stacked)
        except np.linalg.LinAlgError as err:
            raise ValueError("stacked covariate covariance must be positive definite") from err
        if self.sigma_eps < 0:
            raise ValueError("sigma_eps must be nonnegative")
        object.__setattr__(self, "theta0", theta0)
        object.__setattr__(self, "gamma0", gamma0)
        object.__setattr__(self, "cov_WW", cov_ww)
        object.__setattr__(self, "cov_WZ", cov_wz)
        object.__setattr__(self, "cov_ZZ", cov_zz)
        # Kept for simulate, which draws the covariates through it.
        object.__setattr__(self, "_stacked_chol", chol)
        if self.sigma_u is None:
            resid_cov = cov_zz - cov_wz.T @ np.linalg.solve(cov_ww, cov_wz)
            sigma_u = float(np.sqrt(self.sigma_eps**2 + gamma0 @ resid_cov @ gamma0))
            if sigma_u == 0:
                raise ValueError(
                    "sigma_eps, gamma0: the derived sigma_u is 0 (no noise, and no part of gamma0'Z "
                    "outside W); give sigma_u explicitly"
                )
            object.__setattr__(self, "sigma_u", sigma_u)
        elif self.sigma_u <= 0:
            raise ValueError("sigma_u must be positive")

    @property
    def p(self) -> int:
        return self.theta0.size

    @property
    def d(self) -> int:
        return self.gamma0.size

    def stacked_cov(self) -> np.ndarray:
        return np.block([[self.cov_WW, self.cov_WZ], [self.cov_WZ.T, self.cov_ZZ]])


@dataclass(frozen=True)
class RegressionDataset:
    """One simulated sample: outcomes, observed controls, omitted controls."""

    Y: np.ndarray
    W: np.ndarray
    Z: np.ndarray

    def __post_init__(self):
        y = np.asarray(self.Y, dtype=float).ravel()
        w = np.atleast_2d(np.asarray(self.W, dtype=float))
        z = np.atleast_2d(np.asarray(self.Z, dtype=float))
        if w.shape[0] != y.size or z.shape[0] != y.size:
            raise ValueError("row counts of Y, W, Z disagree")
        object.__setattr__(self, "Y", y)
        object.__setattr__(self, "W", w)
        object.__setattr__(self, "Z", z)

    @property
    def n(self) -> int:
        return self.Y.size


def simulate(dgp: RegressionDGP, n: int, seed: int) -> RegressionDataset:
    """Draw an i.i.d. sample of size ``n``; bit-reproducible given the seed."""
    if n < dgp.p + dgp.d:
        raise ValueError("n must be at least p + d")
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, dgp.p + dgp.d)) @ dgp._stacked_chol.T
    w, z = x[:, : dgp.p], x[:, dgp.p :]
    y = w @ dgp.theta0 + z @ dgp.gamma0 + dgp.sigma_eps * rng.standard_normal(n)
    return RegressionDataset(y, w, z)


def ols(W: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Least-squares coefficient ``(W'W)^{-1} W'Y``."""
    W = np.asarray(W, dtype=float)
    if W.ndim == 1:
        W = W[:, None]
    Y = np.asarray(Y, dtype=float).ravel()
    gram = W.T @ W
    if np.linalg.matrix_rank(gram) < gram.shape[0]:
        raise ValueError("design matrix is rank deficient")
    return np.linalg.solve(gram, W.T @ Y)


def pseudo_true(dgp: RegressionDGP) -> np.ndarray:
    """Probability limit of the short regression: ``theta0 + cov_WW^{-1} cov_WZ gamma0``."""
    return dgp.theta0 + np.linalg.solve(dgp.cov_WW, dgp.cov_WZ @ dgp.gamma0)


def curvature(dgp: RegressionDGP) -> np.ndarray:
    """Likelihood curvature of the working model: ``cov_WW / sigma_u^2``."""
    return dgp.cov_WW / dgp.sigma_u**2


def population_omega(dgp: RegressionDGP) -> np.ndarray:
    """Covariance scale of the correctly specified posterior for theta.

    The long-model information for theta is the inverse Schur complement:
    ``Omega = sigma_eps^2 (cov_WW - cov_WZ cov_ZZ^{-1} cov_WZ')^{-1}``.
    """
    schur = dgp.cov_WW - dgp.cov_WZ @ np.linalg.solve(dgp.cov_ZZ, dgp.cov_WZ.T)
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


def regression_likelihood(ds: RegressionDataset, sigma_u: float) -> LikelihoodEvaluator:
    """Batched log-likelihood of the working model, via sufficient statistics.

    The covariate marginal does not involve theta and is dropped.
    """
    n = ds.n
    yty = float(ds.Y @ ds.Y)
    wty = ds.W.T @ ds.Y
    wtw = ds.W.T @ ds.W
    const = -0.5 * n * np.log(2.0 * np.pi * sigma_u**2)

    def log_lik(thetas: np.ndarray) -> np.ndarray:
        thetas = np.atleast_2d(thetas)
        quad = np.einsum("ni,ij,nj->n", thetas, wtw, thetas)
        return const - (yty - 2.0 * thetas @ wty + quad) / (2.0 * sigma_u**2)

    return LikelihoodEvaluator(log_lik, ds.W.shape[1])


def _q_n(ds: RegressionDataset, dgp: RegressionDGP) -> np.ndarray:
    return ds.W.T @ ds.W / (ds.n * dgp.sigma_u**2) - curvature(dgp)


def lan_residual(ds: RegressionDataset, dgp: RegressionDGP, h: np.ndarray) -> float | np.ndarray:
    """Local-asymptotic-normality defect ``h'Q_n Delta_n - h'Q_n h / 2`` at perturbation ``h``.

    ``Q_n = W'W/(n sigma_u^2) - V`` and ``Delta_n = sqrt(n)(theta_hat - theta_star)``;
    this is the log-likelihood ratio at ``theta_star + h/sqrt(n)`` minus its
    quadratic LAN expansion.  ``h`` is one perturbation of shape (p,),
    giving a float, or a batch of shape (N, p), giving an (N,) array.
    """
    h = np.asarray(h, dtype=float)
    pts = np.atleast_2d(h)
    q = _q_n(ds, dgp)
    delta = np.sqrt(ds.n) * (ols(ds.W, ds.Y) - pseudo_true(dgp))
    vals = pts @ q @ delta - 0.5 * np.einsum("ni,ij,nj->n", pts, q, pts)
    return float(vals[0]) if h.ndim <= 1 else vals


def lan_residual_sup(ds: RegressionDataset, dgp: RegressionDGP) -> float:
    """sup of |LAN defect| over ``[-3, 3]^p``, on a mesh of ``LAN_MESH_NODES`` nodes per axis."""
    pts = mesh_points([np.linspace(-3.0, 3.0, LAN_MESH_NODES)] * dgp.p)
    return float(np.max(np.abs(lan_residual(ds, dgp, pts))))


def assumption2_terms(
    mu_n: np.ndarray,
    Sigma_n: np.ndarray,
    dgp: RegressionDGP,
    prior: ConjugatePrior,
    ds: RegressionDataset,
) -> tuple[float, float]:
    """The two integrals whose decay the mean-field limit requires.

    Both are expectations under ``N(sqrt(n)(mu_n - theta_star), n Sigma_n)``:
    the first of the log prior ratio (closed form for the Gaussian prior),
    the second of the LAN defect.  Flat priors zero the first term exactly.
    """
    mu_n = np.atleast_1d(np.asarray(mu_n, dtype=float))
    Sigma_n = np.atleast_2d(np.asarray(Sigma_n, dtype=float))
    n = ds.n
    theta_star = pseudo_true(dgp)
    mu_bar = np.sqrt(n) * (mu_n - theta_star)
    n_sigma = n * Sigma_n
    prec = prior.Sigma_pi / dgp.sigma_u**2
    prior_term = (
        -0.5 / n * mu_bar @ prec @ mu_bar
        - 0.5 / n * np.trace(n_sigma @ prec)
        + mu_bar @ prec @ (prior.mu_pi - theta_star) / np.sqrt(n)
    )
    q = _q_n(ds, dgp)
    delta = np.sqrt(n) * (ols(ds.W, ds.Y) - theta_star)
    lan_term = mu_bar @ q @ delta - 0.5 * mu_bar @ q @ mu_bar - 0.5 * np.trace(q @ n_sigma)
    return float(prior_term), float(lan_term)


def variational_conjugate_cov(
    ds: RegressionDataset,
    prior: ConjugatePrior,
    sigma_u: float,
    alpha: float,
) -> DiagonalGaussian:
    """Closed-form mean-field approximation of the conjugate tempered posterior.

    The KL projection (:func:`gmf_project_gaussian`) of
    :func:`conjugate_alpha_posterior`: same mean as the tempered posterior;
    the variances invert the diagonal of its precision, so each coordinate's
    variance is never above the corresponding tempered-posterior marginal
    variance.
    """
    return gmf_project_gaussian(conjugate_alpha_posterior(ds.W, ds.Y, prior, sigma_u, alpha))


def true_posterior_theta(
    ds: RegressionDataset,
    full_prior: ConjugatePrior,
    sigma_eps: float,
) -> tuple[GaussianDist, np.ndarray]:
    """Posterior for theta under the correctly specified long model.

    ``full_prior`` is a Gaussian prior over the stacked coefficient
    ``(theta, gamma)`` in precision-scale form (covariance
    ``sigma_eps^2 Sigma_pi^{-1}``; zero encodes the flat prior).  Returns the
    theta-block marginal of the joint conjugate posterior together with
    ``n * (posterior theta covariance)``, the finite-n covariance scale for
    the robustness scenario.
    """
    p = ds.W.shape[1]
    x = np.hstack([ds.W, ds.Z])
    if full_prior.dim != x.shape[1]:
        raise ValueError("full prior dimension must be p + d")
    if np.linalg.matrix_rank(x.T @ x + full_prior.Sigma_pi) < x.shape[1]:
        raise ValueError("stacked design is rank deficient given the prior")
    # The correctly specified posterior is the untempered conjugate one.
    joint = conjugate_alpha_posterior(x, ds.Y, full_prior, sigma_eps, 1.0)
    marginal = GaussianDist(joint.mean[:p], joint.cov[:p, :p])
    return marginal, ds.n * marginal.cov


def concentration_markov_bound(
    post_mean: np.ndarray,
    post_cov: np.ndarray,
    theta_star: np.ndarray,
    r_n: float,
    n: int,
) -> float:
    """Markov bound ``(n / r_n^2) (||post_mean - theta_star||^2 + tr(post_cov))``.

    Dominates the posterior probability that ``sqrt(n)(theta - theta_star)``
    exits the ball of radius ``r_n``.
    """
    if r_n <= 0:
        raise ValueError("r_n must be positive")
    post_mean = np.atleast_1d(np.asarray(post_mean, dtype=float))
    post_cov = np.atleast_2d(np.asarray(post_cov, dtype=float))
    gap = post_mean - np.atleast_1d(np.asarray(theta_star, dtype=float))
    return float(n / r_n**2 * (gap @ gap + np.trace(post_cov)))


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
    ``[h2_failure, h2_control]`` in the order of ``n_grid``.
    """
    if alpha0 <= 0:
        raise ValueError("alpha0 must be positive")
    v = curvature(dgp)
    out = np.empty((len(n_grid), 2))
    for i, n in enumerate(n_grid):
        n = int(n)
        ds = simulate(dgp, n, derived_seed(seed, n))
        theta_hat = ols(ds.W, ds.Y)
        alphas = [alpha0 / n, 1.0]
        post = conjugate_alpha_posterior(ds.W, ds.Y, prior, dgp.sigma_u, alphas)
        out[i] = hellinger_sq_gaussian(post, gaussian_bvm_limit(theta_hat, v, n, alphas))
    return out
