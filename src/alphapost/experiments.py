"""Named, seeded experiments with CSV output and a JSON sidecar.

Each experiment reads one flat ``key = value`` config file, runs a fixed,
documented computation, and writes ``<experiment>.csv`` plus
``<experiment>.json`` (config echo, library version, wall clock) into the
output directory.  Reruns with the same seed produce byte-identical CSV
bodies: every replication derives its own RNG stream from
``(master seed, n, rep)`` and rows are sorted deterministically before
writing.  The replicated experiments reduce each replication's sample to
its sufficient statistics as soon as it is drawn, and then run one stacked
computation over every (replication, alpha) cell of each sample size.

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
import os
import time
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable, TextIO

import numpy as np

from . import __version__
from .gaussians import kl_gaussian, tv_gaussian
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
    LAN_MESH_NODES,
    RegressionDGP,
    assumption2_terms,
    concentration_markov_bound,
    curvature,
    derived_seed,
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

# grid_points nodes per Laplace posterior grid and per p = 2 outer TV rule:
# 10^6 of them keep one cell to a few hundred MB.
_GRID_POINTS_MIN = 101
_GRID_POINTS_MAX = 10**6

# The location projection tabulates at most this many (cell, node) values
# at a time, in stacks of whole cells (one cell when grid_points alone
# exceeds it).  A block keeps three arrays of its size alive, 8 MB each at
# most: the axes, the log weights and the spline's slopes (the log prior's
# values in place of the slopes while it tabulates).  200 replications x 4
# alphas at the grid_points cap would otherwise take about 6 GB per array.
_GRID_BLOCK = 2**20

# assumption-checks takes the sup of the LAN defect over a
# LAN_MESH_NODES^p mesh (regression.lan_residual_sup); this cap keeps it to a
# few hundred thousand points.
_LAN_MESH_MAX_DIM = 5


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
    between rows (``"1,0.5;0.5,1"``).  :meth:`validate` checks each field on
    its own; the builders (:meth:`dgp`, :meth:`prior`, :meth:`full_prior`,
    :meth:`scenario`) check the objects an experiment builds from several
    fields, so fields an experiment never reads are not checked further.
    """

    experiment: str = ""
    seed: int | None = None
    out: str = "."
    replications: int = 200
    n_grid: list[int] = field(default_factory=lambda: [50, 200, 1000, 5000, 10000])
    n: int | None = None
    alphas: list[float] = field(default_factory=lambda: [0.25, 0.5, 0.75, 1.0])
    alpha: float = 0.5
    eps: float = 1.0
    grid_points: int = 2001
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
    noise_sd: float = 1.0
    prior_loc: float = 0.0
    prior_scale: float = 1.0
    # failure case
    alpha0: float = 1.0

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
        annotations = {f.name: f.type for f in fields(cls)}
        cfg = cls()
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
        """Check each field on its own; the builders check what they build."""
        if experiment not in EXPERIMENTS:
            raise ConfigError(f"experiment: unknown experiment {experiment!r}")
        if self.experiment and self.experiment != experiment:
            raise ConfigError(
                f"experiment: config names {self.experiment!r} but {experiment!r} was requested"
            )
        self.experiment = experiment
        if self.seed is None:
            raise ConfigError("seed: a master seed is mandatory")
        if self.seed < 0:
            raise ConfigError(f"seed: must be a non-negative integer, got {self.seed}")
        for f in fields(self):
            if any(isinstance(v, float) and not math.isfinite(v) for v in _flatten(getattr(self, f.name))):
                raise ConfigError(f"{f.name}: every value must be finite")
        if self.replications < 1:
            raise ConfigError("replications: must be at least 1")
        if not self.n_grid or any(n < 1 for n in self.n_grid):
            raise ConfigError("n_grid: must be a nonempty list of positive sizes")
        if self.n is not None and self.n < 1:
            raise ConfigError("n: must be a positive sample size")
        if not self.alphas or any(a <= 0 for a in self.alphas):
            raise ConfigError("alphas: must be a nonempty list of positive reals")
        if self.alpha <= 0:
            raise ConfigError("alpha: must be positive")
        if self.eps <= 0:
            raise ConfigError("eps: must be positive")
        single = experiment in ("robustness-curve", "optimal-alpha")
        sizes = [self.single_n()] if single else self.n_grid
        size_field = "n" if single and self.n is not None else "n_grid"
        if experiment in ("robustness-curve", "optimal-alpha", "surrogate-fidelity") and self.eps > min(sizes):
            raise ConfigError(
                f"eps: must not exceed the smallest sample size n = {min(sizes)}, "
                "since eps / n is a probability"
            )
        if not _GRID_POINTS_MIN <= self.grid_points <= _GRID_POINTS_MAX:
            raise ConfigError(
                f"grid_points: must lie in [{_GRID_POINTS_MIN}, {_GRID_POINTS_MAX}], got {self.grid_points}"
            )
        if self.model not in ("regression", "laplace-location"):
            raise ConfigError(f"model: unknown model {self.model!r}")
        laplace = experiment in ("bvm-convergence", "vbvm-convergence") and self.model == "laplace-location"
        if laplace:
            if self.noise_sd <= 0:
                raise ConfigError("noise_sd: must be positive")
            if self.prior_scale <= 0:
                raise ConfigError("prior_scale: must be positive")
        if experiment == "bvm-convergence" and not laplace and self.p > 2:
            raise ConfigError(
                f"theta0: exact Gaussian TV is available in dimension <= 2 only, got dimension {self.p}"
            )
        if experiment == "assumption-checks" and self.p > _LAN_MESH_MAX_DIM:
            raise ConfigError(
                f"theta0: the LAN defect is evaluated on a {LAN_MESH_NODES}^p mesh, so dimension must be "
                f"<= {_LAN_MESH_MAX_DIM}, got dimension {self.p}"
            )
        # Every experiment but optimal-alpha and the location model simulates
        # regression samples.
        if experiment != "optimal-alpha" and not laplace and min(sizes) < self.p + self.d:
            raise ConfigError(f"{size_field}: every sample size must be at least p + d = {self.p + self.d}")
        if self.alpha0 <= 0:
            raise ConfigError("alpha0: must be positive")


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


def _replicated_rows(cfg: ExperimentConfig, rows_at: Callable[[int], list[list]]) -> list[list]:
    """Rows of ``rows_at(n)`` over ``n_grid``, sorted by their first three columns.

    ``rows_at(n)`` gives the rows of every replication at ``n``.  A
    replication's rows are fixed by ``(n, rep)``, from which its RNG stream
    is derived, so the result does not depend on the order of ``n_grid`` or
    ``alphas``, nor on the number of replications.
    """
    rows = [row for n in cfg.n_grid for row in rows_at(n)]
    return sorted(rows, key=lambda r: r[:3])


def _replications(cfg: ExperimentConfig, dgp: RegressionDGP, n: int, reps: int) -> SufficientStats:
    """The stacked statistics of replications ``0 .. reps - 1`` at ``n``.

    Each sample is drawn from its ``(seed, n, rep)`` stream straight into
    its statistics.
    """
    return simulate_stats(dgp, n, [derived_seed(cfg.seed, n, rep) for rep in range(reps)])


def _cells(reps: int, alphas) -> tuple[np.ndarray, np.ndarray]:
    # Each (replication, alpha) cell's replication and alpha, replication-major:
    # the CSV's row order.  The library pairs stacked members elementwise, so
    # inputs gathered per cell with [rep], at these alphas, give one member per cell.
    alphas = np.asarray(alphas, dtype=float)
    return np.repeat(np.arange(reps), alphas.size), np.tile(alphas, reps)


def _cell_rows(n: int, rep: np.ndarray, alpha: np.ndarray, *columns) -> list[list]:
    # One row per cell of _cells, from columns stacked in the same order.
    return [[n, r, a, *vals] for r, a, vals in zip(rep.tolist(), alpha.tolist(), zip(*columns))]


def _location_stats(cfg: ExperimentConfig, n: int) -> SufficientStats:
    """The stacked statistics of the location samples of replications ``0 .. replications - 1`` at ``n``.

    The location model is the regression of the data on one constant
    column; each sample is drawn from its ``(seed, n, rep)`` stream and
    reduced at once to its member of one stacked Gram matrix.
    """
    ones, gram = np.ones((n, 1)), np.empty((cfg.replications, 2, 2))
    for rep in range(cfg.replications):
        x = np.random.default_rng(derived_seed(cfg.seed, n, rep)).standard_normal(n)
        gram[rep] = _block_gram(ones, cfg.theta_true + cfg.noise_sd * x)
    return SufficientStats(n, gram)


def _location_convergence(cfg: ExperimentConfig, n: int, project: bool) -> list[list]:
    stats = _location_stats(cfg, n)
    theta_hat = ols(stats)
    rep, alpha = _cells(cfg.replications, cfg.alphas)
    if not project:
        tv, kl = laplace_location_divergences(theta_hat[rep, 0], cfg.noise_sd, n, alpha, cfg.prior_loc, cfg.prior_scale)
        return _cell_rows(n, rep, alpha, tv, kl)
    # A stack of grid posteriors, one per cell, each with its replication's
    # likelihood, and one projection per stack.
    with np.errstate(over="ignore", divide="ignore"):
        v = np.array([[1.0 / np.float64(cfg.noise_sd) ** 2]])
    if not np.isfinite(v[0, 0]):
        raise ConfigError(f"noise_sd: {cfg.noise_sd!r} is too small: the curvature 1 / noise_sd^2 is not finite")
    lim = variational_bvm_limit(theta_hat[rep], v, n, alpha)
    log_prior = laplace_log_prior(cfg.prior_loc, cfg.prior_scale)
    per_block = max(1, _GRID_BLOCK // cfg.grid_points)
    kl = []
    for block in np.split(np.arange(rep.size), range(per_block, rep.size, per_block)):
        r, a = rep[block], alpha[block]
        grid = default_grid_axis(theta_hat[r, 0], v[0, 0], n, a, cfg.grid_points, scale=PROJECTION_BOX_SCALE)
        lik = regression_likelihood(stats[r], cfg.noise_sd)
        proj = gmf_project_numeric(grid_alpha_posterior(lik, log_prior, a, grid))
        kl.append(kl_gaussian(proj, lim[block]))
    return _cell_rows(n, rep, alpha, np.concatenate(kl))


def _regression_convergence(
    cfg: ExperimentConfig, dgp: RegressionDGP, prior: ConjugatePrior, n: int, project: bool
) -> list[list]:
    w = _replications(cfg, dgp, n, cfg.replications).first_columns(dgp.p)
    theta_hat = ols(w)
    v = curvature(dgp)
    # One stack over every (rep, alpha) cell: posteriors, limits and divergences.
    rep, alpha = _cells(cfg.replications, cfg.alphas)
    post = conjugate_alpha_posterior(w[rep], prior, dgp.sigma_u, alpha)
    if project:
        lim = variational_bvm_limit(theta_hat[rep], v, n, alpha)
        return _cell_rows(n, rep, alpha, kl_gaussian(gmf_project_gaussian(post), lim))
    lim = gaussian_bvm_limit(theta_hat[rep], v, n, alpha)
    tv = tv_gaussian(post, lim, budget=cfg.grid_points)
    return _cell_rows(n, rep, alpha, tv, kl_gaussian(post, lim))


def _convergence_rows(cfg: ExperimentConfig, project: bool) -> list[list]:
    if cfg.model == "laplace-location":
        return _replicated_rows(cfg, lambda n: _location_convergence(cfg, n, project))
    dgp, prior = cfg.dgp(), cfg.prior()
    return _replicated_rows(cfg, lambda n: _regression_convergence(cfg, dgp, prior, n, project))


def _exact_robustness(
    cfg: ExperimentConfig,
    dgp: RegressionDGP,
    prior: ConjugatePrior,
    full_prior: ConjugatePrior,
    stats: SufficientStats,
) -> tuple[np.ndarray, np.ndarray, FiniteSampleInputs, np.ndarray]:
    """The cells of the stacked samples at the sorted alphas, their finite-sample inputs and ``r_exact``.

    The cells are :func:`_cells`'; ``r_exact`` is the expected KL of the
    tempered posterior against the correctly specified
    (``true_posterior_theta``) and the standard (``alpha = 1``) posteriors,
    with misspecification probability ``eps / n``, one value per cell.
    """
    n = stats.n
    eps_n = cfg.eps / n
    rep, alpha = _cells(len(stats.gram), np.sort(cfg.alphas))
    w = stats.first_columns(dgp.p)
    fin = FiniteSampleInputs(ols(w)[rep], ols(stats)[rep, : dgp.p], n, eps_n)
    true_post, _ = true_posterior_theta(stats, full_prior, dgp.sigma_eps, dgp.p)
    post = conjugate_alpha_posterior(w[rep], prior, dgp.sigma_u, alpha)
    std_post = conjugate_alpha_posterior(w, prior, dgp.sigma_u, 1.0)
    return rep, alpha, fin, exact_expected_kl(true_post[rep], post, std_post[rep], eps_n)


def exp_bvm_convergence(cfg: ExperimentConfig) -> tuple[list[str], list[list]]:
    return ["n", "rep", "alpha", "tv", "kl"], _convergence_rows(cfg, False)


def exp_vbvm_convergence(cfg: ExperimentConfig) -> tuple[list[str], list[list]]:
    return ["n", "rep", "alpha", "kl"], _convergence_rows(cfg, True)


def exp_robustness_curve(cfg: ExperimentConfig) -> tuple[list[str], list[list]]:
    scenario = cfg.scenario()
    dgp = cfg.dgp()
    stats = _replications(cfg, dgp, cfg.single_n(), 1)
    _, alpha, fin, r_exact = _exact_robustness(cfg, dgp, cfg.prior(), cfg.full_prior(), stats)
    curves = zip(alpha, r_star(alpha, scenario, fin), r_tilde_star(alpha, scenario, fin), r_exact)
    rows = [list(row) for row in curves]
    return ["alpha", "r_star", "r_tilde_star", "r_exact"], rows


def exp_optimal_alpha(cfg: ExperimentConfig) -> tuple[list[str], list[list]]:
    scenario = cfg.scenario()
    fin = FiniteSampleInputs.at_population_limits(scenario, cfg.single_n())
    row = [
        limit_alpha_star(scenario),
        limit_alpha_tilde(scenario),
        optimal_alpha(scenario, fin),
        optimal_alpha_tilde(scenario, fin),
    ]
    return ["alpha_star_limit", "alpha_tilde_star_limit", "alpha_star_n", "alpha_tilde_star_n"], [row]


def exp_failure_case(cfg: ExperimentConfig) -> tuple[list[str], list[list]]:
    n_grid = sorted(cfg.n_grid)
    h2 = failure_case_hellinger(cfg.dgp(), cfg.prior(), cfg.alpha0, n_grid, cfg.seed)
    return ["n", "h2_failure", "h2_control"], [[n, *row] for n, row in zip(n_grid, h2.tolist())]


def exp_assumption_checks(cfg: ExperimentConfig) -> tuple[list[str], list[list]]:
    dgp = cfg.dgp()
    prior = cfg.prior()
    v = curvature(dgp)
    theta_star = pseudo_true(dgp)

    def rows_at(n: int) -> list[list]:
        w = _replications(cfg, dgp, n, cfg.replications).first_columns(dgp.p)
        post = conjugate_alpha_posterior(w, prior, dgp.sigma_u, cfg.alpha)
        prior_term, lan_term = assumption2_terms(post.mean, post.cov, dgp, prior, w)
        markov = concentration_markov_bound(post.mean, post.cov, theta_star, np.log(n), n)
        kl_limit = kl_gaussian(post, gaussian_bvm_limit(ols(w), v, n, cfg.alpha))
        columns = zip(lan_residual_sup(w, dgp), prior_term, lan_term, markov, kl_limit)
        return [[n, rep, *vals] for rep, vals in enumerate(columns)]

    rows = _replicated_rows(cfg, rows_at)
    return ["n", "rep", "lan_sup", "prior_term", "lan_term", "markov_bound", "kl_limit"], rows


def exp_surrogate_fidelity(cfg: ExperimentConfig) -> tuple[list[str], list[list]]:
    scenario = cfg.scenario()
    dgp = cfg.dgp()
    prior = cfg.prior()
    full_prior = cfg.full_prior()

    def rows_at(n: int) -> list[list]:
        stats = _replications(cfg, dgp, n, cfg.replications)
        rep, alpha, fin, r_exact = _exact_robustness(cfg, dgp, prior, full_prior, stats)
        r_surr = r_star(alpha, scenario, fin)
        return _cell_rows(n, rep, alpha, r_exact, r_surr, np.abs(r_exact - r_surr))

    rows = _replicated_rows(cfg, rows_at)
    return ["n", "rep", "alpha", "r_exact", "r_star", "abs_diff"], rows


EXPERIMENTS: dict[str, Callable[[ExperimentConfig], tuple[list[str], list[list]]]] = {
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

    A NaN or infinite cell raises ``ValueError`` naming its column, so no
    output is written from it.
    """
    cfg.validate(experiment)
    columns, rows = EXPERIMENTS[experiment](cfg)
    finite = np.isfinite(np.array(rows, dtype=float)).all(axis=0)
    if not finite.all():
        bad = ", ".join(name for name, ok in zip(columns, finite) if not ok)
        raise ValueError(f"{bad}: not every result is finite")
    return columns, rows


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


def write_outputs(
    cfg: ExperimentConfig,
    experiment: str,
    columns: list[str],
    rows: list[list],
    elapsed_seconds: float,
) -> tuple[Path, Path]:
    """Write ``<experiment>.csv`` and its JSON sidecar into the output directory.

    Each file is replaced atomically, so a failure part way leaves the
    previous file, if any, unchanged.
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
    }
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
