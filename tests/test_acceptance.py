"""Acceptance suite: every end-to-end criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.  The suite is deterministic (fixed master seeds) and sized
for a desk machine: the full module runs in a few minutes.
"""

import json
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.optimize import minimize

from alphapost.cli import main as cli_main
from alphapost.gaussians import (
    GaussianDist,
    GridDensity,
    hellinger_sq_gaussian,
    kl_gaussian,
    log_density,
    tv_gaussian,
    tv_grid,
)
from alphapost.meanfield import gmf_project_gaussian, gmf_project_numeric, variational_bvm_limit
from alphapost.posteriors import (
    ConjugatePrior,
    SufficientStats,
    conjugate_alpha_posterior,
    default_grid_axis,
    gaussian_bvm_limit,
    grid_alpha_posterior,
)
from alphapost.experiments import laplace_log_prior
from alphapost.regression import (
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
    simulate,
    true_posterior_theta,
)
from alphapost.robustness import (
    FiniteSampleInputs,
    exact_expected_kl,
    limit_alpha_star,
    limit_alpha_tilde,
    optimal_alpha,
    optimized_limit_kl,
    r_infinity,
    r_star,
)

from oracles import (
    golden_min,
    mc_kl,
    mc_tv,
    perturbed_pair,
    quadrature_hellinger_sq,
    surrogate_via_kl,
    tv_equal_variance,
)


@contextmanager
def criterion(ident, label, capsys=None):
    def emit(outcome):
        line = f"ACCEPTANCE {ident} {label}: {outcome}"
        if capsys is not None:
            with capsys.disabled():
                print(line, flush=True)
        else:
            print(line, flush=True)

    try:
        yield
    except Exception:
        emit("FAIL")
        raise
    emit("PASS")


def worked_example_dgp():
    return RegressionDGP(
        theta0=[1.0], gamma0=[1.0], sigma_eps=1.0, cov_WW=[[1.0]], cov_WZ=[[0.5]], cov_ZZ=[[1.0]]
    )


def test_criterion_1_divergence_kernel(capsys):
    with criterion(1, "divergence kernel vs oracles", capsys):
        rng = np.random.default_rng(101)
        # Monte Carlo oracle for the KL closed form (10^6 draws, 3 SE).
        p = GaussianDist(0.0, 1.0)
        for q in (GaussianDist(0.0, 2.0), GaussianDist(1.0, 1.0)):
            est, se = mc_kl(
                p.sample, lambda x: log_density(p, x), lambda x, q=q: log_density(q, x), 10**6, rng
            )
            assert abs(kl_gaussian(p, q) - est) < 3 * se
        # 1-d quadrature oracle for the squared Hellinger distance.
        for q in (GaussianDist(0.0, 2.0), GaussianDist(3.0, 1.0)):
            oracle = quadrature_hellinger_sq(
                lambda x: log_density(p, x[:, None]), lambda x, q=q: log_density(q, x[:, None]), -25, 25
            )
            assert abs(hellinger_sq_gaussian(p, q) - oracle) < 1e-6
        # Equal-variance closed form for total variation.
        tv = tv_gaussian(GaussianDist(0.0, 1.0), GaussianDist(1.0, 1.0), "exact", 8001)
        assert abs(tv - tv_equal_variance(0.0, 1.0, 1.0)) < 1e-6
        # 1000 random pairs in dimensions 1-5: KL nonnegativity, Pinsker
        # (TV <= sqrt(KL / 2)), and squared Hellinger below the Monte Carlo
        # TV estimate.
        for k in range(1000):
            dim = 1 + k % 5
            (m1, c1), (m2, c2) = perturbed_pair(rng, dim)
            a, b = GaussianDist(m1, c1), GaussianDist(m2, c2)
            kl = kl_gaussian(a, b)
            assert kl >= 0.0
            mc, se = mc_tv(a.sample, lambda x: log_density(a, x), lambda x: log_density(b, x), 20_000, rng)
            assert mc <= np.sqrt(kl / 2.0) + 3.0 * se
            assert hellinger_sq_gaussian(a, b) <= mc + 3.0 * se


def _laplace_grid_sweep(project: bool):
    """Median BvM gaps for the 1-d Laplace-prior model, per (n, alpha)."""
    master = 20250811
    n_grid = (50, 200, 1000, 5000)
    alphas = (0.5, 1.0)
    out = {a: [] for a in alphas}
    for n in n_grid:
        acc = {a: [] for a in alphas}
        for rep in range(100):
            rng = np.random.default_rng(derived_seed(master, n, rep))
            x = rng.standard_normal(n)
            theta_hat = float(np.mean(x))
            v = np.array([[1.0]])
            lik = regression_likelihood(SufficientStats.of(np.ones(x.size), x), 1.0)
            log_prior = laplace_log_prior()
            for alpha in alphas:
                if project:
                    grid = default_grid_axis(theta_hat, 1.0, n, alpha, 2001, scale=14.0)
                    post = grid_alpha_posterior(lik, log_prior, alpha, grid)
                    proj = gmf_project_numeric(post)
                    lim = variational_bvm_limit([theta_hat], v, n, alpha)
                    acc[alpha].append(kl_gaussian(proj, lim))
                else:
                    grid = default_grid_axis(theta_hat, 1.0, n, alpha, 2001)
                    post = grid_alpha_posterior(lik, log_prior, alpha, grid)
                    glim = GridDensity.from_gaussian(gaussian_bvm_limit([theta_hat], v, n, alpha), grid)
                    acc[alpha].append(tv_grid(post, glim))
        for alpha in alphas:
            out[alpha].append(float(np.median(acc[alpha])))
    return out


def test_criterion_2_bvm_total_variation(capsys):
    with criterion(2, "tempered-posterior Gaussian limit in TV", capsys):
        medians = _laplace_grid_sweep(project=False)
        for alpha, med in medians.items():
            assert all(a > b for a, b in zip(med, med[1:])), (alpha, med)
            assert med[-1] < 0.05, (alpha, med)


def test_criterion_3_variational_bvm_kl(capsys):
    with criterion(3, "mean-field approximation limit in KL", capsys):
        medians = _laplace_grid_sweep(project=True)
        for alpha, med in medians.items():
            assert all(a > b for a, b in zip(med, med[1:])), (alpha, med)
            assert med[-1] < 0.01, (alpha, med)


def _numeric_diag_kl_minimizer(target: GaussianDist):
    """Derivative-free-style numeric minimizer of KL(q || target) over diagonal q."""
    dim = target.dim

    def objective(x):
        return kl_gaussian(GaussianDist(x[:dim], np.diag(np.exp(x[dim:]))), target)

    x0 = np.concatenate([target.mean + 0.1, np.log(np.diag(target.cov)) + 0.1])
    res = minimize(objective, x0, method="BFGS", options={"gtol": 1e-7, "maxiter": 500})
    return res.x[:dim], np.exp(res.x[dim:])


def test_criterion_4_meanfield_projection_closed_form(capsys):
    with criterion(4, "closed-form mean-field projection", capsys):
        rng = np.random.default_rng(404)
        for k in range(500):
            dim = 2 + k % 4
            a = rng.standard_normal((dim, dim))
            cov = a @ a.T + (0.4 + rng.uniform()) * np.eye(dim)
            target = GaussianDist(rng.uniform(0.5, 1.5, size=dim), cov)
            closed = gmf_project_gaussian(target)
            mean_num, var_num = _numeric_diag_kl_minimizer(target)
            assert np.max(np.abs(closed.mean - mean_num)) < 1e-5
            assert np.max(np.abs(np.diag(closed.cov) - var_num)) < 1e-5
            assert np.all(np.diag(closed.cov) <= np.diag(cov) + 1e-12)
            trace = float(np.trace(np.diag(np.diag(cov)) @ np.linalg.inv(cov)))
            assert trace >= dim - 1e-10


def test_criterion_5_optimal_tempering_closed_form(capsys):
    with criterion(5, "optimal tempering closed form and limits", capsys):
        rng = np.random.default_rng(505)
        for _ in range(200):
            dim = int(rng.integers(1, 5))
            a = rng.standard_normal((dim, dim))
            v = a @ a.T + (0.5 + rng.uniform()) * np.eye(dim)
            b = rng.standard_normal((dim, dim))
            omega = b @ b.T + (0.5 + rng.uniform()) * np.eye(dim)
            theta0 = rng.normal(size=dim)
            theta_star = theta0 + rng.normal(scale=0.7, size=dim)
            from alphapost.robustness import MisspecScenario

            s = MisspecScenario(theta0, theta_star, v, omega, float(rng.uniform(0.5, 3.0)))
            n = int(rng.integers(50, 5000))
            f = FiniteSampleInputs(
                theta_star + rng.normal(scale=0.05, size=dim),
                theta0 + rng.normal(scale=0.05, size=dim),
                n,
                eps_n=float(rng.uniform(0.0, 5.0)) / n,
            )
            closed = optimal_alpha(s, f)
            numeric = golden_min(lambda al: surrogate_via_kl(al, s, f, s.V), 1e-6, 50.0, tol=1e-10)
            assert abs(closed - numeric) < 1e-6
            assert limit_alpha_star(s) < 1.0 and limit_alpha_tilde(s) < 1.0
        # No misspecification gap: the limit is exactly one (diagonal V), at
        # most one otherwise.
        from alphapost.robustness import MisspecScenario

        s0 = MisspecScenario([1.0, -1.0], [1.0, -1.0], np.diag([2.0, 0.5]), np.eye(2), 1.0)
        assert limit_alpha_star(s0) == 1.0
        assert limit_alpha_tilde(s0) == pytest.approx(1.0, rel=1e-14)
        s1 = MisspecScenario([1.0, -1.0], [1.0, -1.0], [[2.0, 0.6], [0.6, 0.5]], np.eye(2), 1.0)
        assert limit_alpha_star(s1) == 1.0
        assert limit_alpha_tilde(s1) <= 1.0
        # Finite-n optimum converges to the limit under eps_n = eps / n.
        s2 = MisspecScenario([1.0, 0.5], [0.2, 0.1], [[2.0, 0.6], [0.6, 1.0]], [[1.5, 0.2], [0.2, 0.8]], 2.0)
        f2 = FiniteSampleInputs.at_population_limits(s2, 10**6)
        assert abs(optimal_alpha(s2, f2) - limit_alpha_star(s2)) < 1e-4


def test_criterion_6_growth_comparison(capsys):
    with criterion(6, "linear vs logarithmic growth of the optimized criterion", capsys):
        from alphapost.robustness import MisspecScenario

        for d in (1.0, 2.0, 4.0, 8.0):
            s = MisspecScenario([d], [0.0], [[1.0]], [[1.0]], 1.0)
            d_quad = d * d
            assert abs(2.0 * r_infinity(1.0, 1, 1.0, d_quad) - d_quad) < 1e-12
            assert abs(2.0 * optimized_limit_kl(s) - np.log(1.0 + d_quad)) < 1e-12


def test_criterion_7_regression_verification_suite(capsys):
    with criterion(7, "regression example verification suite", capsys):
        dgp = worked_example_dgp()
        prior = ConjugatePrior([0.0], [[1.0]])
        theta_star = pseudo_true(dgp)
        v = curvature(dgp)
        reps = 200
        alpha = 0.5

        # Concentration: the second-moment bound with radius log(n) decays
        # like 1/log(n)^2, so medians fall monotonically and shrink several
        # fold across three decades of n.
        markov_medians = []
        for n in (100, 1000, 10**4, 10**5):
            vals = []
            for rep in range(reps):
                w = simulate(dgp, n, derived_seed(710, n, rep)).stats().first_columns(dgp.p)
                post = conjugate_alpha_posterior(w, prior, dgp.sigma_u, alpha)
                vals.append(
                    concentration_markov_bound(post.mean, post.cov, theta_star, np.log(n), n)
                )
            markov_medians.append(float(np.median(vals)))
        assert all(a > b for a, b in zip(markov_medians, markov_medians[1:])), markov_medians
        assert markov_medians[-1] < markov_medians[0] / 4.0, markov_medians

        # Entropic limit: KL between the conjugate tempered posterior and its
        # Gaussian limit has median below 0.01 by n = 5000.
        kl_medians = []
        for n in (50, 200, 1000, 5000):
            vals = []
            for rep in range(reps):
                w = simulate(dgp, n, derived_seed(720, n, rep)).stats().first_columns(dgp.p)
                post = conjugate_alpha_posterior(w, prior, dgp.sigma_u, alpha)
                lim = gaussian_bvm_limit(ols(w), v, n, alpha)
                vals.append(kl_gaussian(post, lim))
            kl_medians.append(float(np.median(vals)))
        assert all(a > b for a, b in zip(kl_medians, kl_medians[1:])), kl_medians
        assert kl_medians[-1] < 0.01, kl_medians

        # Vanishing tempering: the Hellinger gap stabilizes strictly above
        # zero while the constant-tempering control vanishes.
        h2 = failure_case_hellinger(dgp, prior, 1.0, [10**4, 10**5], seed=730)[:, 0]
        assert np.all(h2 > 0.001), h2
        assert abs(h2[1] - h2[0]) / h2[0] < 0.10, h2
        control = []
        for n in (10**4, 10**5):
            w = simulate(dgp, n, derived_seed(731, n)).stats().first_columns(dgp.p)
            post = conjugate_alpha_posterior(w, prior, dgp.sigma_u, 1.0)
            lim = gaussian_bvm_limit(ols(w), v, n, 1.0)
            control.append(hellinger_sq_gaussian(post, lim))
        assert control[1] < control[0] and control[1] < 1e-4, control

        # Prior and local-normality defects decay with n.
        defect_medians = []
        for n in (100, 1000, 10**4):
            rows = []
            for rep in range(reps):
                w = simulate(dgp, n, derived_seed(740, n, rep)).stats().first_columns(dgp.p)
                post = conjugate_alpha_posterior(w, prior, dgp.sigma_u, alpha)
                prior_term, lan_term = assumption2_terms(post.mean, post.cov, dgp, prior, w)
                rows.append([abs(prior_term), abs(lan_term), lan_residual_sup(w, dgp)])
            defect_medians.append(np.median(rows, axis=0))
        defect_medians = np.array(defect_medians)
        assert np.all(defect_medians[1] < defect_medians[0]), defect_medians
        assert np.all(defect_medians[2] < defect_medians[1]), defect_medians

        # Surrogate fidelity at n = 5000 and the location of the exact argmin.
        n = 5000
        eps = 1.0
        eps_n = eps / n
        scenario = misspec_scenario(dgp, eps)
        alpha_grid = np.round(np.arange(0.40, 1.4001, 0.01), 10)
        gaps = {a: [] for a in (0.25, 0.5, 0.75, 1.0)}
        exact_curves = []
        full_prior = ConjugatePrior(np.zeros(2), np.eye(2))
        for rep in range(reps):
            stats = simulate(dgp, n, derived_seed(760, n, rep)).stats()
            w = stats.first_columns(dgp.p)
            fin = FiniteSampleInputs(ols(w), ols(stats)[:1], n, eps_n)
            true_post, _ = true_posterior_theta(stats, full_prior, dgp.sigma_eps, dgp.p)
            std_post = conjugate_alpha_posterior(w, prior, dgp.sigma_u, 1.0)
            for a in gaps:
                alpha_post = conjugate_alpha_posterior(w, prior, dgp.sigma_u, a)
                exact = exact_expected_kl(true_post, alpha_post, std_post, eps_n)
                gaps[a].append(abs(exact - r_star(a, scenario, fin)))
            exact_curves.append(
                [
                    exact_expected_kl(
                        true_post,
                        conjugate_alpha_posterior(w, prior, dgp.sigma_u, a),
                        std_post,
                        eps_n,
                    )
                    for a in alpha_grid
                ]
            )
        for a, vals in gaps.items():
            assert np.median(vals) < 0.02, (a, float(np.median(vals)))
        median_curve = np.median(np.array(exact_curves), axis=0)
        exact_argmin = float(alpha_grid[int(np.argmin(median_curve))])
        assert abs(exact_argmin - limit_alpha_star(scenario)) < 0.05, exact_argmin


def test_criterion_8_cli_determinism(tmp_path, capsys):
    with criterion(8, "seeded CLI reruns are byte-identical", capsys):
        location_cfg = tmp_path / "location.cfg"
        location_cfg.write_text(
            "seed = 42\nreplications = 2\nn_grid = 50,100\nalphas = 0.5,1.0\n"
            "model = laplace-location\ngrid_points = 401\n"
        )
        regression_cfg = tmp_path / "regression.cfg"
        regression_cfg.write_text(
            "seed = 7\nreplications = 2\nn_grid = 100,200\nn = 200\nalphas = 0.25,0.5,1.0\n"
        )
        configs = {
            "bvm-convergence": location_cfg,
            "vbvm-convergence": location_cfg,
            "robustness-curve": regression_cfg,
            "optimal-alpha": regression_cfg,
            "failure-case": regression_cfg,
            "assumption-checks": regression_cfg,
            "surrogate-fidelity": regression_cfg,
        }
        for name, cfg_path in configs.items():
            bodies = []
            for tag in ("a", "b"):
                out = tmp_path / f"{name}-{tag}"
                rc = cli_main([name, "--config", str(cfg_path), "--out", str(out)])
                assert rc == 0, name
                bodies.append((out / f"{name}.csv").read_bytes())
                sidecar = json.loads((out / f"{name}.json").read_text())
                assert sidecar["version"]
            assert bodies[0] == bodies[1], name
