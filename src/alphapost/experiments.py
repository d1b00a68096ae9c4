"""Named, seeded experiments with CSV output and a JSON sidecar.

Each experiment reads one flat ``key = value`` config file, runs a fixed,
documented computation, and writes ``<experiment>.csv`` plus
``<experiment>.json`` (config echo, library version, wall clock, the
environment and the peak resident set) into the output directory.  Reruns
with the same seed produce byte-identical CSV bodies: every replication
derives its own RNG stream from ``(master seed, n, rep)``.  Each experiment
returns one column per CSV column, and :func:`run_experiment` alone turns
them into rows, sorted stably by their first three columns.  So neither the
order of ``n_grid`` or ``alphas`` nor the number of replications changes a
row, and a repeated value repeats its rows.  The replicated experiments
reduce each replication's sample to its sufficient statistics as soon as it
is drawn, and then run one stacked computation over every (replication,
alpha) cell of each sample size.  The regression model's convergence
experiments go further: they join the cells of every sample size into one
stack, so each divergence is called once per run.

CSV schemas (stable, one file per run):

========================  =====================================================
experiment                columns
========================  =====================================================
``bvm-convergence``       ``n,rep,alpha,tv,kl``
``vbvm-convergence``      ``n,rep,alpha,kl``
``robustness-curve``      ``alpha,r_star,r_tilde_star,r_exact``
``optimal-alpha``         ``alpha_star_limit,alpha_tilde_star_limit,alpha_star_n,alpha_tilde_star_n``
``failure-case``          ``n,h2_failure,h2_control``
``assumption-checks``     ``n,rep,lan_sup,prior_term,lan_term,markov_bound,kl_limit``
``surrogate-fidelity``    ``n,rep,alpha,r_exact,r_star,abs_diff``
========================  =====================================================

The convergence experiments run either of two models, selected by the
``model`` key: ``laplace-location`` (1-d Gaussian location data, Laplace
prior) or ``regression`` (the omitted-variable example with its conjugate
closed forms).  The location model's ``bvm-convergence`` divergences are
closed forms too; its ``vbvm-convergence`` projects tempered posteriors
tabulated on grids, one stack of grids per sample size.  The location data
are the regression on one constant column, so both models share its
likelihood.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import os
import sys
import time
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable, TextIO

import numpy as np

try:
    import resource
except ImportError:  # a platform without it: the sidecar has no peak_rss_mb
    resource = None

from . import __version__
from .gaussians import GaussianDist, _row_chunks, kl_gaussian, tv_gaussian
from .meanfield import gmf_project_gaussian, gmf_project_numeric, variational_bvm_limit
from .posteriors import (
    ConjugatePrior,
    SufficientStats,
    _block_gram,
    _require_finite,
    _require_positive,
    conjugate_alpha_posterior,
    default_grid_axis,
    gaussian_bvm_limit,
    grid_alpha_posterior,
    laplace_location_divergences,
)
from .regression import (
    RegressionDGP,
    _draw_threads,
    _gram_stack,
    assumption2_terms,
    concentration_markov_bound,
    curvature,
    derived_seeds,
    failure_case_hellinger,
    lan_residual_sup,
    misspec_scenario,
    ols,
    pseudo_true,
    regression_likelihood,
    simulate_stats,
    true_posterior_theta,
)
from .robustness import (
    FiniteSampleInputs,
    MisspecScenario,
    exact_expected_kl,
    limit_alpha_star,
    limit_alpha_tilde,
    optimal_alpha,
    optimal_alpha_tilde,
    r_star,
    r_tilde_star,
)

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "EXPERIMENTS",
    "run_experiment",
    "write_outputs",
    "laplace_log_prior",
]

# Grid box scale used whenever a Gauss-Hermite projection runs against the
# grid: the outermost of 32 nodes reaches past 10 matched standard deviations.
PROJECTION_BOX_SCALE = 14.0

# The location projection tabulates at most this many (cell, node) values
# at a time, in stacks of whole cells (one cell when grid_points alone
# exceeds it).  A block keeps three arrays of its size alive, 8 MB each at
# most: the axes, the log weights and the spline's slopes (the log prior's
# values in place of the slopes while it tabulates).  200 replications x 4
# alphas at the grid_points cap would otherwise take about 6 GB per array.
_GRID_BLOCK = 2**20

# assumption-checks takes the sup of the LAN defect over the 3^p faces of a
# box (regression.lan_residual_sup); this cap keeps it to 6,561 faces.
_LAN_MAX_DIM = 8


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the offending field."""


def _parse(annotation: str, text: str):
    # A field's value from its annotation: ``str``, ``int`` or ``float``, a
    # comma separated ``list[...]`` of them, or a ``list[list[...]]`` matrix
    # with ``;`` between rows.  ``| None`` only marks a ``None`` default.
    base = annotation.removesuffix(" | None")
    if not base.startswith("list["):
        return {"str": str, "int": int, "float": float}[base](text)
    inner = base[len("list[") : -1]
    sep = ";" if inner.startswith("list[") else ","
    return [_parse(inner, part) for part in text.split(sep) if part.strip() != ""]


def _flatten(value) -> list:
    # Scalars, vectors and (possibly ragged) matrices as one flat list.
    if isinstance(value, (list, tuple)):
        return [v for item in value for v in _flatten(item)]
    return [value]


def _within(value, interval: str) -> bool:
    # Whether value lies in an interval written as in mathematics, "[1, inf)"
    # or "(0, inf)"; NaN lies in none.
    lo, hi = (float(end) for end in interval[1:-1].split(","))
    return (lo <= value if interval[0] == "[" else lo < value) and (value <= hi if interval[-1] == "]" else value < hi)


def _location_curvature(noise_sd: float) -> float:
    # The location model's curvature 1 / noise_sd^2, inf where it overflows.
    with np.errstate(over="ignore", divide="ignore"):
        return 1.0 / np.float64(noise_sd) ** 2


def _conjugate_prior(mu_field: str, mu, sigma_field: str, sigma, dims: str, k: int) -> ConjugatePrior:
    # A prior of dimension k (``dims`` names it) whose errors name its fields.
    if len(mu) != k:
        raise ConfigError(f"{mu_field}: has dimension {len(mu)}, but {dims} = {k}")
    try:
        sig = np.array(sigma, dtype=float)
        if sig.shape != (k, k):
            raise ValueError(f"must be a {k} x {k} matrix since {dims} = {k}, got shape {sig.shape}")
        return ConjugatePrior(np.array(mu, dtype=float), sig)
    except ValueError as err:
        raise ConfigError(f"{sigma_field}: {err}") from err


@dataclass
class ExperimentConfig:
    """Flat configuration for one experiment run.

    The master ``seed`` is mandatory.  Each field is parsed by its
    annotation: vector values are comma separated, matrices use ``;``
    between rows (``"1,0.5;0.5,1"``).  A field's ``range`` metadata is the
    interval its numbers lie in, ``(-inf, inf)`` if none is declared, and
    :meth:`validate` checks every field against it in every run.  The
    builders (:meth:`dgp`, :meth:`prior`, :meth:`full_prior`,
    :meth:`scenario`) check the shapes and fits of what an experiment builds
    from several fields, so only the experiments that build it check them.
    """

    seed: int | None = field(default=None, metadata={"range": "[0, inf)"})
    out: str = "."
    replications: int = field(default=200, metadata={"range": "[1, inf)"})
    n_grid: list[int] = field(default_factory=lambda: [50, 200, 1000, 5000, 10000], metadata={"range": "[1, inf)"})
    n: int | None = field(default=None, metadata={"range": "[1, inf)"})
    alphas: list[float] = field(default_factory=lambda: [0.25, 0.5, 0.75, 1.0], metadata={"range": "(0, inf)"})
    alpha: float = field(default=0.5, metadata={"range": "(0, inf)"})
    eps: float = field(default=1.0, metadata={"range": "(0, inf)"})
    # nodes per Laplace posterior grid: 10^6 keep one cell to a few hundred MB.
    grid_points: int = field(default=2001, metadata={"range": "[101, 1000000]"})
    model: str = "regression"
    # regression data-generating process (defaults: p = d = 1 worked example)
    theta0: list[float] = field(default_factory=lambda: [1.0])
    gamma0: list[float] = field(default_factory=lambda: [1.0])
    sigma_eps: float = 1.0
    cov_ww: list[list[float]] = field(default_factory=lambda: [[1.0]])
    cov_wz: list[list[float]] = field(default_factory=lambda: [[0.5]])
    cov_zz: list[list[float]] = field(default_factory=lambda: [[1.0]])
    sigma_u: float | None = None
    mu_pi: list[float] = field(default_factory=lambda: [0.0])
    sigma_pi: list[list[float]] = field(default_factory=lambda: [[1.0]])
    full_prior_mu: list[float] | None = None
    full_prior_sigma: list[list[float]] | None = None
    # location model (bvm/vbvm convergence with a non-conjugate prior)
    theta_true: float = 0.0
    noise_sd: float = field(default=1.0, metadata={"range": "(0, inf)"})
    prior_loc: float = 0.0
    prior_scale: float = field(default=1.0, metadata={"range": "(0, inf)"})
    # failure case
    alpha0: float = field(default=1.0, metadata={"range": "(0, inf)"})

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
        annotations = {f.name: f.type for f in fields(cls)}
        cfg, seen = cls(), {}
        try:
            text = Path(path).read_text()
        except OSError as err:
            raise ConfigError(f"config: cannot read {path}: {err}") from err
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"config line {lineno}: expected 'key = value', got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip().replace("-", "_")
            value = value.strip()
            if key not in annotations:
                raise ConfigError(f"{key}: unknown configuration field")
            if key in seen:
                raise ConfigError(f"{key}: set on line {seen[key]} and again on line {lineno}")
            seen[key] = lineno
            try:
                setattr(cfg, key, _parse(annotations[key], value))
            except (TypeError, ValueError) as err:
                raise ConfigError(f"{key}: cannot parse {value!r}") from err
        return cfg

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    # -- derived objects ---------------------------------------------------

    @property
    def p(self) -> int:
        return len(self.theta0)

    @property
    def d(self) -> int:
        return len(self.gamma0)

    def dgp(self) -> RegressionDGP:
        # RegressionDGP's fields are the config's, and its errors name them.
        try:
            return RegressionDGP(**{f.name: getattr(self, f.name) for f in fields(RegressionDGP)})
        except ValueError as err:
            raise ConfigError(f"dgp/prior: {err}") from err

    def prior(self) -> ConjugatePrior:
        return _conjugate_prior("mu_pi", self.mu_pi, "sigma_pi", self.sigma_pi, "p", self.p)

    def full_prior(self) -> ConjugatePrior:
        k = self.p + self.d
        mu = self.full_prior_mu if self.full_prior_mu is not None else [0.0] * k
        sig = self.full_prior_sigma if self.full_prior_sigma is not None else np.eye(k)
        return _conjugate_prior("full_prior_mu", mu, "full_prior_sigma", sig, "p + d", k)

    def scenario(self) -> MisspecScenario:
        # The float square, which may underflow; one that overflows is the DGP's to reject.
        if not (self.sigma_eps > 0 and self.sigma_eps * self.sigma_eps > 0):
            raise ConfigError(
                f"sigma_eps: must be positive with a positive square, got {self.sigma_eps!r}, since Omega, "
                "the correctly specified posterior's covariance scale, is sigma_eps^2 times a positive definite matrix"
            )
        return misspec_scenario(self.dgp(), self.eps)

    def single_n(self) -> int:
        return self.n if self.n is not None else max(self.n_grid)

    def validate(self, experiment: str):
        """Check every field's declared range, then the rules that depend on ``experiment``; assign nothing."""
        if experiment not in EXPERIMENTS:
            raise ConfigError(f"experiment: unknown experiment {experiment!r}")
        if self.seed is None:
            raise ConfigError("seed: a master seed is mandatory")
        for f in fields(self):
            interval = f.metadata.get("range", "(-inf, inf)")
            for v in _flatten(getattr(self, f.name)):
                if isinstance(v, numbers.Real) and not _within(v, interval):
                    raise ConfigError(f"{f.name}: must lie in {interval}, got {v!r}")
        for name in ("n_grid", "alphas"):
            if not getattr(self, name):
                raise ConfigError(f"{name}: must not be empty")
        single = experiment in ("robustness-curve", "optimal-alpha")
        sizes = [self.single_n()] if single else self.n_grid
        size_field = "n" if single and self.n is not None else "n_grid"
        if experiment in ("robustness-curve", "optimal-alpha", "surrogate-fidelity") and self.eps > min(sizes):
            raise ConfigError(
                f"eps: must not exceed the smallest sample size n = {min(sizes)}, "
                "since eps / n is a probability"
            )
        if self.model not in ("regression", "laplace-location"):
            raise ConfigError(f"model: unknown model {self.model!r}")
        laplace = experiment in ("bvm-convergence", "vbvm-convergence") and self.model == "laplace-location"
        if laplace and experiment == "vbvm-convergence" and not math.isfinite(_location_curvature(self.noise_sd)):
            raise ConfigError(
                f"noise_sd: {self.noise_sd!r} is too small: the curvature 1 / noise_sd^2 is not finite"
            )
        if experiment == "bvm-convergence" and not laplace and self.p > 2:
            raise ConfigError(
                f"theta0: exact Gaussian TV is available in dimension <= 2 only, got dimension {self.p}"
            )
        if experiment == "assumption-checks" and self.p > _LAN_MAX_DIM:
            raise ConfigError(
                f"theta0: the LAN defect's sup enumerates the 3^p faces of a box, so dimension must be "
                f"<= {_LAN_MAX_DIM}, got dimension {self.p}"
            )
        # Every experiment but optimal-alpha and the location model simulates
        # regression samples.
        if experiment != "optimal-alpha" and not laplace and min(sizes) < self.p + self.d:
            raise ConfigError(f"{size_field}: every sample size must be at least p + d = {self.p + self.d}")


# -- location model prior ------------------------------------------------


def laplace_log_prior(loc: float = 0.0, scale: float = 1.0) -> Callable[[np.ndarray], np.ndarray]:
    """Batched log density of the Laplace(loc, scale) prior: points of shape (..., 1) to values of shape (...).

    A non-finite ``loc``, or a ``scale`` that is not positive and finite, raises ``ValueError``.
    """
    _require_finite(loc=loc)
    _require_positive(scale=scale)

    def log_prior(pts):
        # -log(2 scale) - |pts - loc| / scale, in place on one array.
        out = np.subtract(np.atleast_2d(pts)[..., 0], loc, dtype=float)
        np.abs(out, out=out)
        out /= scale
        return np.subtract(-np.log(2.0 * scale), out, out=out)

    return log_prior


# -- experiment implementations --------------------------------------------


def _per_n(cfg: ExperimentConfig, columns_at: Callable[[int], list]) -> list[np.ndarray]:
    """The columns of ``columns_at(n)`` over ``n_grid``, each n's joined in turn.

    ``columns_at(n)`` gives the columns of every replication at ``n``.  A
    replication's values are fixed by ``(n, rep)``, from which its RNG
    stream is derived.
    """
    return [np.concatenate(column) for column in zip(*map(columns_at, cfg.n_grid))]


def _replications(cfg: ExperimentConfig, dgp: RegressionDGP, n: int, reps: int) -> SufficientStats:
    """The stacked statistics of replications ``0 .. reps - 1`` at ``n``.

    Each sample is drawn from its ``(seed, n, rep)`` stream straight into
    its statistics; the streams' seeds are derived in one pass.
    """
    return simulate_stats(dgp, n, derived_seeds(cfg.seed, n, replications=reps))


def _cells(reps: int, alphas) -> tuple[np.ndarray, np.ndarray]:
    # Each (replication, alpha) cell's replication and alpha, replication-major.
    # The library pairs stacked members elementwise, so inputs gathered per
    # cell with [rep], at these alphas, give one member per cell.
    alphas = np.asarray(alphas, dtype=float)
    return np.repeat(np.arange(reps), alphas.size), np.tile(alphas, reps)


def _cell_columns(n: int, rep: np.ndarray, alpha: np.ndarray, *columns) -> list[np.ndarray]:
    # The n, rep and alpha columns of the cells of _cells, then columns stacked in the same order.
    return [np.full(rep.size, n), rep, alpha, *columns]


def _location_stats(cfg: ExperimentConfig, n: int) -> SufficientStats:
    """The stacked statistics of the location samples of replications ``0 .. replications - 1`` at ``n``.

    The location model is the regression of the data on one constant
    column; each sample is drawn from its ``(seed, n, rep)`` stream and
    reduced at once to its member of one stacked Gram matrix, on the same
    worker threads as :func:`simulate_stats`.
    """
    ones = np.ones((n, 1))

    def gram_of(rng: np.random.Generator) -> np.ndarray:
        return _block_gram(ones, cfg.theta_true + cfg.noise_sd * rng.standard_normal(n))

    with np.errstate(over="ignore", invalid="ignore"):
        gram = _gram_stack(derived_seeds(cfg.seed, n, replications=cfg.replications), 2, n, gram_of)
    if not np.all(np.isfinite(gram)):
        raise ValueError(f"theta_true, noise_sd: the Gram matrix of a sample of n = {n} is not finite")
    return SufficientStats(n, gram)


def _mean_field_limit(theta_hat: np.ndarray, v: np.ndarray, n: int, alpha: np.ndarray, names: str) -> GaussianDist:
    """``variational_bvm_limit`` at every cell, or ``ValueError`` naming ``names`` and n.

    ``names`` are the fields that set ``alpha`` and ``V``.  The covariance
    ``V^{-1} / (alpha n)`` and its projection are formed with floating-point
    warnings off, so one that overflows or underflows reaches
    ``GaussianDist``, whose message follows the names.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        try:
            return variational_bvm_limit(theta_hat, v, n, alpha)
        except ValueError as err:
            raise ValueError(f"{names}: the mean-field limit of a sample of n = {n} is degenerate: {err}") from err


def _tempered_posterior(
    w: SufficientStats, prior: ConjugatePrior, sigma_u: float, alpha, names: str
) -> GaussianDist:
    """``conjugate_alpha_posterior`` at every cell, or its ``ValueError`` led by ``names``.

    ``names`` are the fields that set ``sigma_u`` and ``alpha``, whose
    scales ``1 / (alpha n)`` and ``sigma_u^2 / (alpha n)`` may overflow or
    underflow.
    """
    try:
        return conjugate_alpha_posterior(w, prior, sigma_u, alpha)
    except ValueError as err:
        raise ValueError(f"{names}: {err}") from err


def _location_convergence(cfg: ExperimentConfig, n: int, project: bool) -> list[np.ndarray]:
    stats = _location_stats(cfg, n)
    theta_hat = ols(stats)
    rep, alpha = _cells(cfg.replications, cfg.alphas)
    if not project:
        tv, kl = laplace_location_divergences(theta_hat[rep, 0], cfg.noise_sd, n, alpha, cfg.prior_loc, cfg.prior_scale)
        return _cell_columns(n, rep, alpha, tv, kl)
    # A stack of grid posteriors, one per cell, each with its replication's
    # likelihood, and one projection per stack.
    v = np.array([[_location_curvature(cfg.noise_sd)]])
    lim = _mean_field_limit(theta_hat[rep], v, n, alpha, "noise_sd, alphas")
    log_prior = laplace_log_prior(cfg.prior_loc, cfg.prior_scale)
    kl = []
    for block in _row_chunks(rep.size, cfg.grid_points, _GRID_BLOCK):
        r, a = rep[block], alpha[block]
        lik = regression_likelihood(stats[r], cfg.noise_sd)
        try:
            grid = default_grid_axis(theta_hat[r, 0], v[0, 0], n, a, cfg.grid_points, scale=PROJECTION_BOX_SCALE)
            proj = gmf_project_numeric(grid_alpha_posterior(lik, log_prior, a, grid))
        except (ValueError, RuntimeError) as err:
            raise ValueError(
                f"noise_sd, alphas, prior_scale, prior_loc, theta_true: the tempered grid posterior of a sample "
                f"of n = {n} has no mean-field projection: {err}"
            ) from err
        kl.append(kl_gaussian(proj, lim[block]))
    return _cell_columns(n, rep, alpha, np.concatenate(kl))


def _joined(stacks: list[GaussianDist]) -> GaussianDist:
    # One stack of the members of ``stacks``, in order.
    return GaussianDist(np.concatenate([g.mean for g in stacks]), np.concatenate([g.cov for g in stacks]))


def _regression_convergence(cfg: ExperimentConfig, project: bool) -> list[np.ndarray]:
    """The columns of every sample size, from one stack of all their (rep, alpha) cells.

    Each n's posteriors and limits are built from its own replications; each
    divergence then runs once over the joined stacks, since at a few cells per
    n the fixed cost of a call outweighs its work.
    """
    dgp, prior = cfg.dgp(), cfg.prior()
    v = curvature(dgp)
    rep, alpha = _cells(cfg.replications, cfg.alphas)
    posts, lims = [], []
    for n in cfg.n_grid:
        w = _replications(cfg, dgp, n, cfg.replications).first_columns(dgp.p)
        theta_hat = ols(w)
        post = _tempered_posterior(w[rep], prior, dgp.sigma_u, alpha, "sigma_u, alphas")
        if project:
            lims.append(_mean_field_limit(theta_hat[rep], v, n, alpha, "sigma_u, cov_ww, alphas"))
            post = gmf_project_gaussian(post)
        else:
            lims.append(gaussian_bvm_limit(theta_hat[rep], v, n, alpha))
        posts.append(post)
    post, lim = _joined(posts), _joined(lims)
    divergences = [kl_gaussian(post, lim)] if project else [tv_gaussian(post, lim), kl_gaussian(post, lim)]
    k = len(cfg.n_grid)
    return [np.repeat(cfg.n_grid, rep.size), np.tile(rep, k), np.tile(alpha, k), *divergences]


def _convergence_columns(cfg: ExperimentConfig, project: bool) -> list[np.ndarray]:
    if cfg.model == "laplace-location":
        return _per_n(cfg, lambda n: _location_convergence(cfg, n, project))
    return _regression_convergence(cfg, project)


def _exact_robustness(
    cfg: ExperimentConfig,
    dgp: RegressionDGP,
    prior: ConjugatePrior,
    full_prior: ConjugatePrior,
    stats: SufficientStats,
) -> tuple[np.ndarray, np.ndarray, FiniteSampleInputs, np.ndarray]:
    """The (rep, alpha) cells of the stacked samples, their finite-sample inputs and ``r_exact``.

    The cells are :func:`_cells`'; ``r_exact`` is the expected KL of the
    tempered posterior against the correctly specified
    (``true_posterior_theta``) and the standard (``alpha = 1``) posteriors,
    with misspecification probability ``eps / n``, one value per cell.
    """
    n = stats.n
    eps_n = cfg.eps / n
    rep, alpha = _cells(len(stats.gram), cfg.alphas)
    w = stats.first_columns(dgp.p)
    fin = FiniteSampleInputs(ols(w)[rep], ols(stats)[rep, : dgp.p], n, eps_n)
    true_post, _ = true_posterior_theta(stats, full_prior, dgp.sigma_eps, dgp.p)
    post = _tempered_posterior(w[rep], prior, dgp.sigma_u, alpha, "sigma_u, alphas")
    std_post = conjugate_alpha_posterior(w, prior, dgp.sigma_u, 1.0)
    return rep, alpha, fin, exact_expected_kl(true_post[rep], post, std_post[rep], eps_n)


def exp_bvm_convergence(cfg: ExperimentConfig) -> tuple[list[str], list]:
    return ["n", "rep", "alpha", "tv", "kl"], _convergence_columns(cfg, False)


def exp_vbvm_convergence(cfg: ExperimentConfig) -> tuple[list[str], list]:
    return ["n", "rep", "alpha", "kl"], _convergence_columns(cfg, True)


def exp_robustness_curve(cfg: ExperimentConfig) -> tuple[list[str], list]:
    scenario = cfg.scenario()
    dgp = cfg.dgp()
    stats = _replications(cfg, dgp, cfg.single_n(), 1)
    _, alpha, fin, r_exact = _exact_robustness(cfg, dgp, cfg.prior(), cfg.full_prior(), stats)
    columns = [alpha, r_star(alpha, scenario, fin), r_tilde_star(alpha, scenario, fin), r_exact]
    return ["alpha", "r_star", "r_tilde_star", "r_exact"], columns


def exp_optimal_alpha(cfg: ExperimentConfig) -> tuple[list[str], list]:
    scenario = cfg.scenario()
    fin = FiniteSampleInputs.at_population_limits(scenario, cfg.single_n())
    columns = [
        [limit_alpha_star(scenario)],
        [limit_alpha_tilde(scenario)],
        [optimal_alpha(scenario, fin)],
        [optimal_alpha_tilde(scenario, fin)],
    ]
    return ["alpha_star_limit", "alpha_tilde_star_limit", "alpha_star_n", "alpha_tilde_star_n"], columns


def exp_failure_case(cfg: ExperimentConfig) -> tuple[list[str], list]:
    h2 = failure_case_hellinger(cfg.dgp(), cfg.prior(), cfg.alpha0, cfg.n_grid, cfg.seed)
    return ["n", "h2_failure", "h2_control"], [cfg.n_grid, h2[:, 0], h2[:, 1]]


def exp_assumption_checks(cfg: ExperimentConfig) -> tuple[list[str], list]:
    dgp = cfg.dgp()
    prior = cfg.prior()
    v = curvature(dgp)
    theta_star = pseudo_true(dgp)

    def columns_at(n: int) -> list[np.ndarray]:
        w = _replications(cfg, dgp, n, cfg.replications).first_columns(dgp.p)
        post = _tempered_posterior(w, prior, dgp.sigma_u, cfg.alpha, "sigma_u, alpha")
        prior_term, lan_term = assumption2_terms(post.mean, post.cov, dgp, prior, w)
        markov = concentration_markov_bound(post.mean, post.cov, theta_star, np.log(n), n)
        kl_limit = kl_gaussian(post, gaussian_bvm_limit(ols(w), v, n, cfg.alpha))
        rep = np.arange(cfg.replications)
        return [np.full(rep.size, n), rep, lan_residual_sup(w, dgp), prior_term, lan_term, markov, kl_limit]

    return ["n", "rep", "lan_sup", "prior_term", "lan_term", "markov_bound", "kl_limit"], _per_n(cfg, columns_at)


def exp_surrogate_fidelity(cfg: ExperimentConfig) -> tuple[list[str], list]:
    scenario = cfg.scenario()
    dgp = cfg.dgp()
    prior = cfg.prior()
    full_prior = cfg.full_prior()

    def columns_at(n: int) -> list[np.ndarray]:
        stats = _replications(cfg, dgp, n, cfg.replications)
        rep, alpha, fin, r_exact = _exact_robustness(cfg, dgp, prior, full_prior, stats)
        r_surr = r_star(alpha, scenario, fin)
        return _cell_columns(n, rep, alpha, r_exact, r_surr, np.abs(r_exact - r_surr))

    return ["n", "rep", "alpha", "r_exact", "r_star", "abs_diff"], _per_n(cfg, columns_at)


# Each experiment's CSV column names and one 1-D array (or list) of values per column.
EXPERIMENTS: dict[str, Callable[[ExperimentConfig], tuple[list[str], list]]] = {
    "bvm-convergence": exp_bvm_convergence,
    "vbvm-convergence": exp_vbvm_convergence,
    "robustness-curve": exp_robustness_curve,
    "optimal-alpha": exp_optimal_alpha,
    "failure-case": exp_failure_case,
    "assumption-checks": exp_assumption_checks,
    "surrogate-fidelity": exp_surrogate_fidelity,
}


def run_experiment(cfg: ExperimentConfig, experiment: str) -> tuple[list[str], list[list]]:
    """Validate the config and produce the experiment's column names and rows.

    This is the one place where an experiment's columns become rows.  A NaN
    or infinite value raises ``ValueError`` naming its columns, so no output
    is written from it.  Rows hold Python ints and floats, and are sorted
    stably by their first three columns: a row does not depend on the order
    of ``n_grid`` or ``alphas``, and a repeated value repeats its rows.
    """
    cfg.validate(experiment)
    names, columns = EXPERIMENTS[experiment](cfg)
    columns = [np.asarray(column) for column in columns]
    bad = [name for name, column in zip(names, columns) if not np.isfinite(column).all()]
    if bad:
        raise ValueError(f"{', '.join(bad)}: not every result is finite")
    rows = sorted(zip(*(column.tolist() for column in columns)), key=lambda row: row[:3])
    return names, [list(row) for row in rows]


def _replace_atomically(path: Path, write: Callable[[TextIO], object]):
    # Write through a temporary file in the same directory, then rename it
    # over ``path``: an interrupted run leaves the earlier file intact.
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline="") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _environment() -> dict:
    # What a run's timings depend on.  draw_threads is the number of threads
    # a sample of 1,800 or more standard normals is drawn on, which is why
    # CPU time can exceed wall time.
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "alphapost": __version__,
        "cpu_count": os.cpu_count(),
        "draw_threads": _draw_threads(),
    }


def _peak_rss_mb() -> float:
    # The process's peak resident set so far, in MiB: ru_maxrss is in bytes
    # on macOS and in KiB elsewhere.
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0)


def write_outputs(
    cfg: ExperimentConfig,
    experiment: str,
    columns: list[str],
    rows: list[list],
    elapsed_seconds: float,
) -> tuple[Path, Path]:
    """Write ``<experiment>.csv`` and its JSON sidecar into the output directory.

    Each file is replaced atomically, so a failure part way leaves the
    previous file, if any, unchanged.  Besides the config echo, the library
    version and ``elapsed_seconds``, the sidecar holds ``environment`` (the
    Python, numpy and alphapost versions, ``os.cpu_count()`` and the draw
    threads) and, where the ``resource`` module exists, ``peak_rss_mb``,
    the process's peak resident set so far in MiB.
    """
    out_dir = Path(cfg.out)

    def write_csv(fh):
        # csv writes each cell's str(), which for a float, Python's or
        # numpy's, is its shortest round-tripping repr.
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(rows)

    sidecar = {
        "config": cfg.to_dict(),
        "version": __version__,
        "elapsed_seconds": elapsed_seconds,
        "environment": _environment(),
    }
    if resource is not None:
        sidecar["peak_rss_mb"] = _peak_rss_mb()
    csv_path = out_dir / f"{experiment}.csv"
    json_path = out_dir / f"{experiment}.json"
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        _replace_atomically(csv_path, write_csv)
        _replace_atomically(json_path, lambda fh: fh.write(json.dumps(sidecar, indent=2) + "\n"))
    except OSError as err:
        raise ConfigError(f"out: cannot write to {out_dir}: {err}") from err
    return csv_path, json_path


def run_and_write(cfg: ExperimentConfig, experiment: str) -> tuple[Path, Path]:
    start = time.perf_counter()
    columns, rows = run_experiment(cfg, experiment)
    return write_outputs(cfg, experiment, columns, rows, time.perf_counter() - start)
