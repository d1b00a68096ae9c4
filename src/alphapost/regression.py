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
straight from the replications' seeds through the one Gram routine, without
forming any sample; :func:`simulate` draws the same rows (and
:meth:`RegressionDataset.stats` reduces them) where the sample is wanted.
:func:`regression_likelihood` is the library's one Gaussian log-likelihood;
the location model is the regression on one constant column.

The module also houses the verification probes used by the experiment
harness: the local-asymptotic-normality residual (batched over
perturbations), the prior/remainder integrals that the mean-field limit needs
to vanish, a Markov bound on posterior concentration, and the
vanishing-tempering failure case, where the Gaussian approximation stays
bounded away from the posterior, next to its constant-tempering control.
"""

from __future__ import annotations

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
    "RegressionDataset",
    "derived_seed",
    "simulate",
    "simulate_stats",
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

# The collinearity threshold of ols and true_posterior_theta on squared
# Cholesky pivots, relative to the column's squared norm: rounding alone
# leaves up to about 1e-15 there.
_COLLINEAR_RTOL = 1e-14


def derived_seed(master_seed: int, *key: int) -> int:
    """Deterministic per-replication seed derived from a master seed and index key.

    Replications seeded this way are independent streams, and results do not
    depend on the order in which they run.
    """
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1)[0])


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


@dataclass(frozen=True)
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
    violation, a derived ``sigma_u`` of 0 or inf, or a ``sigma_eps`` or
    ``sigma_u`` whose square overflows raises ``ValueError`` naming the fields.
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
        # Kept for simulate, which draws the covariates through it.
        object.__setattr__(self, "_stacked_chol", chol)
        # Kept for simulate_stats: a sample's rows are [W, Z, Y] = [N, e] M for
        # its standard normal covariates N and errors e, with L = chol,
        # b = (theta0, gamma0) and M = [[L', L'b], [0, sigma_eps]].
        k = p + d
        stats_map = np.zeros((k + 1, k + 1))
        stats_map[:k, :k] = chol.T
        stats_map[:k, k] = chol.T @ np.concatenate([theta0, gamma0])
        stats_map[k, k] = self.sigma_eps
        object.__setattr__(self, "_stats_map", stats_map)
        if self.sigma_u is None:
            resid_cov = self.cov_zz - self.cov_wz.T @ np.linalg.solve(self.cov_ww, self.cov_wz)
            with np.errstate(over="ignore"):
                sigma_u = float(np.sqrt(var_eps + gamma0 @ resid_cov @ gamma0))
            if not np.isfinite(sigma_u):
                raise ValueError("sigma_eps, gamma0: the derived sigma_u is not finite; give sigma_u explicitly")
            if sigma_u == 0:
                raise ValueError(
                    "sigma_eps, gamma0: the derived sigma_u is 0 (no noise, and no part of gamma0'Z "
                    "outside W); give sigma_u explicitly"
                )
            object.__setattr__(self, "sigma_u", sigma_u)
        elif self.sigma_u <= 0:
            raise ValueError("sigma_u: must be positive")
        else:
            _finite_square("sigma_u", self.sigma_u)

    @property
    def p(self) -> int:
        return self.theta0.size

    @property
    def d(self) -> int:
        return self.gamma0.size


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

    def stats(self) -> SufficientStats:
        """Sufficient statistics of the sample: ``n`` and the Gram matrix of ``[W, Z, Y]``.

        Its first ``p`` design columns are ``W``: ``stats().first_columns(p)``
        are the statistics of the analyst's short regression.
        """
        return SufficientStats.of(np.hstack([self.W, self.Z]), self.Y)


def _standard_block(dgp: RegressionDGP, n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    # The seed's stream read once: an (n, p + d) array of standard normal
    # covariates, row-major, then n standard normal errors.
    if n < dgp.p + dgp.d:
        raise ValueError("n must be at least p + d")
    kn = (dgp.p + dgp.d) * n
    block = np.random.default_rng(seed).standard_normal(kn + n)
    return block[:kn].reshape(n, dgp.p + dgp.d), block[kn:]


def simulate(dgp: RegressionDGP, n: int, seed: int) -> RegressionDataset:
    """Draw an i.i.d. sample of size ``n``; bit-reproducible given the seed."""
    normals, errors = _standard_block(dgp, n, seed)
    x = normals @ dgp._stacked_chol.T
    w, z = x[:, : dgp.p], x[:, dgp.p :]
    y = w @ dgp.theta0 + z @ dgp.gamma0 + dgp.sigma_eps * errors
    return RegressionDataset(y, w, z)


def simulate_stats(dgp: RegressionDGP, n: int, seeds: Sequence[int]) -> SufficientStats:
    """The stacked statistics of one sample of size ``n`` per seed, without forming the samples.

    Member ``i`` is, up to rounding, ``simulate(dgp, n, seeds[i]).stats()``:
    it reads the same numbers from the same stream.  Each seed's standard
    normals ``[N, e]`` are reduced to their Gram matrix ``G`` as soon as they
    are drawn, by the blockwise Gram routine of :meth:`SufficientStats.of`,
    so one seed's block at a time is alive; the stack maps to ``M' G M`` by
    one congruence, since ``[W, Z, Y] = [N, e] M``.
    """
    if len(seeds) == 0:
        raise ValueError("seeds must name at least one sample")
    grams = np.stack([_block_gram(*_standard_block(dgp, n, seed)) for seed in seeds])
    m = dgp._stats_map
    gram = m.T @ grams @ m
    # The congruence is symmetric only up to rounding; a Gram matrix is exactly so.
    return SufficientStats(n, (gram + np.swapaxes(gram, -1, -2)) / 2.0)


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


def regression_likelihood(stats: SufficientStats, sigma_u: float) -> Callable[[np.ndarray], np.ndarray]:
    """Batched Gaussian log-likelihood: ``Y`` on every design column, error sd ``sigma_u``.

    For one sample, maps an (N, k) array of coefficient points, k the
    design columns of ``stats``, to the (N,) log-likelihoods.  For a stack
    of S samples, maps an (S, N, k) array, N points per sample, to the
    (S, N) log-likelihoods of each sample at its own points.  Points of
    another dimension are rejected.  The covariate marginal does not
    involve the coefficients and is dropped.  The values are written into
    the one array returned, a chunk of samples at a time, so the only other
    arrays made are a chunk's size.
    """
    n, k = stats.n, stats.k
    # One sample is a stack of one.
    gram = stats.gram.reshape(-1, k + 1, k + 1)
    xtx, xty, yty = gram[:, :k, :k], gram[:, :k, k], gram[:, k, k]
    const = -0.5 * n * np.log(2.0 * np.pi * sigma_u**2)

    def log_lik(thetas: np.ndarray) -> np.ndarray:
        thetas = np.asarray(thetas, dtype=float) if stats.stacked else np.atleast_2d(thetas)
        if thetas.shape[-1] != k:
            raise ValueError(f"points of dimension {thetas.shape[-1]}, but the likelihood has {k} design columns")
        # Each sample's points in one row of a (samples, points, k) array.
        if stats.stacked:
            pts = np.broadcast_to(thetas, (len(gram),) + thetas.shape[-2:])
        else:
            pts = thetas.reshape(1, -1, k)
        out = np.empty(pts.shape[:-1])
        for rows in _row_chunks(*out.shape):
            t, block = pts[rows], out[rows]
            quad = np.einsum("sni,sij,snj->sn", t, xtx[rows], t)
            # const - (yty - 2 linear + quad) / (2 sigma_u^2), in place on the
            # block: every step is that expression's own rounding.
            np.einsum("sni,si->sn", t, xty[rows], out=block)
            block *= -2.0
            block += yty[rows, None]
            block += quad
            block /= 2.0 * sigma_u**2
            np.subtract(const, block, out=block)
        return out if stats.stacked else out.reshape(thetas.shape[:-1])

    return log_lik


# lan_residual_sup holds at most this many (sample, mesh point) values at a
# time: 200 samples on the 13^5-point mesh would otherwise take about 2 GB.
_LAN_BLOCK = 2**18


def _lan_terms(stats: SufficientStats, dgp: RegressionDGP) -> tuple[np.ndarray, np.ndarray]:
    # Q_n = W'W/(n sigma_u^2) - V and Delta_n = sqrt(n)(theta_hat - theta_star), per sample.
    w = stats.first_columns(dgp.p)
    q = w.xtx / (w.n * dgp.sigma_u**2) - curvature(dgp)
    return q, np.sqrt(w.n) * (ols(w) - pseudo_true(dgp))


def _lan_defect(q: np.ndarray, delta: np.ndarray, pts: np.ndarray) -> np.ndarray:
    linear = np.einsum("ni,...ij,...j->...n", pts, q, delta)
    return linear - 0.5 * np.einsum("ni,...ij,nj->...n", pts, q, pts)


def lan_residual(stats: SufficientStats, dgp: RegressionDGP, h: np.ndarray) -> float | np.ndarray:
    """Local-asymptotic-normality defect ``h'Q_n Delta_n - h'Q_n h / 2`` at perturbation ``h``.

    ``Q_n = W'W/(n sigma_u^2) - V`` and ``Delta_n = sqrt(n)(theta_hat - theta_star)``;
    this is the log-likelihood ratio at ``theta_star + h/sqrt(n)`` minus its
    quadratic LAN expansion.  ``stats`` are a sample's (or a stack's)
    statistics whose first ``p`` design columns are ``W``.  ``h`` is one
    perturbation of shape (p,), giving a float per sample, or a batch of
    shape (N, p), giving N values per sample; a stack puts its sample axis
    first.
    """
    h = np.asarray(h, dtype=float)
    vals = _lan_defect(*_lan_terms(stats, dgp), np.atleast_2d(h))
    return _result(vals[..., 0]) if h.ndim <= 1 else vals


def mesh_points(axes: Sequence[np.ndarray]) -> np.ndarray:
    """Every node of the tensor grid on ``axes`` as an (N, dim) array, in row-major mesh order.

    Row ``k`` is the node at flat index ``k`` of an array of shape
    ``(len(axes[0]), len(axes[1]), ...)``, so values computed on these points
    reshape straight back onto the grid.
    """
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def lan_residual_sup(stats: SufficientStats, dgp: RegressionDGP) -> float | np.ndarray:
    """sup of |LAN defect| over ``[-3, 3]^p``, on a mesh of ``LAN_MESH_NODES`` nodes per axis, per sample."""
    q, delta = _lan_terms(stats, dgp)
    pts = mesh_points([np.linspace(-3.0, 3.0, LAN_MESH_NODES)] * dgp.p)
    values = delta.size // dgp.p * len(pts)  # samples x mesh points
    blocks = np.array_split(pts, -(-values // _LAN_BLOCK))
    return _result(np.max([np.max(np.abs(_lan_defect(q, delta, b)), axis=-1) for b in blocks], axis=0))


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
    prior_term = (
        -0.5 / n * np.einsum("...i,ij,...j->...", mu_bar, prec, mu_bar)
        - 0.5 / n * np.trace(n_sigma @ prec, axis1=-2, axis2=-1)
        + mu_bar @ prec @ (prior.mu_pi - theta_star) / np.sqrt(n)
    )
    q, delta = _lan_terms(w, dgp)
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
    ``[h2_failure, h2_control]`` in the order of ``n_grid``.
    """
    _require_positive(alpha0=alpha0)
    v = curvature(dgp)
    out = np.empty((len(n_grid), 2))
    for i, n in enumerate(n_grid):
        n = int(n)
        w = simulate_stats(dgp, n, [derived_seed(seed, n)]).first_columns(dgp.p)
        alphas = [alpha0 / n, 1.0]
        post = conjugate_alpha_posterior(w, prior, dgp.sigma_u, alphas)
        out[i] = hellinger_sq_gaussian(post, gaussian_bvm_limit(ols(w), v, n, alphas))
    return out
