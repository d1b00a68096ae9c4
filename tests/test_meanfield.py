"""Mean-field projections: closed form, numeric descent, and the penalized objective."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from alphapost.gaussians import GaussianDist, GridAxis, GridDensity, kl_gaussian
from alphapost.meanfield import (
    GH_NODES,
    _gh_rule,
    gmf_project_gaussian,
    gmf_project_numeric,
    variational_bvm_limit,
)
from alphapost.posteriors import ConjugatePrior, conjugate_alpha_posterior, grid_alpha_posterior
from alphapost.regression import RegressionDGP, derived_seed, ols, regression_likelihood, simulate

from oracles import (
    coordinate_descent_diag_kl,
    laplace_location_objective,
    maximize_penalized_objective,
    minimize_laplace_location_objective,
    penalized_objective,
    sample_stats,
    stack_stats,
    variances,
)


def random_spd_target(rng, dim):
    a = rng.standard_normal((dim, dim))
    cov = a @ a.T + (0.4 + rng.uniform()) * np.eye(dim)
    return GaussianDist(rng.uniform(0.5, 1.5, size=dim), cov)


class TestClosedFormProjection:
    def test_diagonal_target_unchanged(self):
        target = GaussianDist([1.0, 2.0], np.diag([0.5, 3.0]))
        proj = gmf_project_gaussian(target)
        assert_allclose(proj.mean, target.mean)
        assert_allclose(proj.cov, np.diag([0.5, 3.0]), rtol=1e-12)

    def test_correlated_example_against_coordinate_descent(self):
        # Precision of [[2,1],[1,2]] is (1/3)[[2,-1],[-1,2]], so both
        # projected variances are 3/2; the numerical oracle agrees.
        target = GaussianDist([0.7, -0.4], [[2.0, 1.0], [1.0, 2.0]])
        proj = gmf_project_gaussian(target)
        assert_allclose(proj.cov, np.diag([1.5, 1.5]), rtol=1e-12)
        mean, var = coordinate_descent_diag_kl(
            lambda m, v: kl_gaussian(GaussianDist(m, np.diag(v)), target),
            target.mean,
            np.diag(target.cov),
            sweeps=40,
        )
        assert_allclose(mean, proj.mean, atol=1e-7)
        assert_allclose(var, variances(proj), atol=1e-6)

    def test_stacked_target_projects_each_member(self):
        rng = np.random.default_rng(6)
        targets = [random_spd_target(rng, 3) for _ in range(4)]
        stack = GaussianDist(np.stack([t.mean for t in targets]), np.stack([t.cov for t in targets]))
        projected = gmf_project_gaussian(stack)
        for i, target in enumerate(targets):
            single = gmf_project_gaussian(target)
            assert np.array_equal(projected.mean[i], single.mean)
            assert np.array_equal(projected.cov[i], single.cov)

    def test_variance_understatement(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            dim = int(rng.integers(2, 6))
            target = random_spd_target(rng, dim)
            proj = gmf_project_gaussian(target)
            assert np.all(variances(proj) <= np.diag(target.cov) + 1e-12)

    def test_perturbing_solution_increases_kl(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            dim = int(rng.integers(2, 6))
            target = random_spd_target(rng, dim)
            proj = gmf_project_gaussian(target)
            base = kl_gaussian(proj, target)
            for j in range(dim):
                for factor in (0.99, 1.01):
                    mean = proj.mean.copy()
                    mean[j] *= factor
                    assert kl_gaussian(GaussianDist(mean, proj.cov), target) > base
                    var = variances(proj).copy()
                    var[j] *= factor
                    assert kl_gaussian(GaussianDist(proj.mean, np.diag(var)), target) > base

    def test_trace_inequality_equality_iff_diagonal(self):
        rng = np.random.default_rng(23)
        for _ in range(500):
            dim = int(rng.integers(2, 6))
            v = random_spd_target(rng, dim).cov
            trace = np.trace(np.diag(np.diag(v)) @ np.linalg.inv(v))
            assert trace >= dim - 1e-10
        v = np.diag([0.5, 2.0, 1.0])
        assert_allclose(np.trace(np.diag(np.diag(v)) @ np.linalg.inv(v)), 3.0, rtol=1e-12)


class TestNumericProjection:
    def test_gauss_hermite_rule_matches_numpy(self):
        # The rule is built without numpy.polynomial: nodes within 1e-14
        # absolute and weights within 1e-14 relative of hermgauss.
        z, w = np.polynomial.hermite.hermgauss(GH_NODES)
        offsets, weights = _gh_rule()
        assert_allclose(offsets, np.sqrt(2.0) * z, rtol=0.0, atol=1e-14)
        assert_allclose(weights, w / np.sqrt(np.pi), rtol=1e-14, atol=0.0)

    def test_gridded_gaussian_matches_closed_form_1d(self):
        target = GaussianDist(1.0, 2.0)
        grid = GridDensity.from_gaussian(target, GridAxis(-20.0, 22.0, 4001))
        proj = gmf_project_numeric(grid)
        closed = gmf_project_gaussian(target)
        assert_allclose(proj.mean, closed.mean, atol=1e-5)
        assert_allclose(proj.cov, closed.cov, atol=1e-5)

    def test_far_init_reaches_same_optimum(self):
        target = GaussianDist(1.0, 2.0)
        grid = GridDensity.from_gaussian(target, GridAxis(-30.0, 32.0, 6001))
        default = gmf_project_numeric(grid)
        far = gmf_project_numeric(grid, GaussianDist(1.0 + 5.0 * np.sqrt(2.0), 2.0))
        assert_allclose(far.mean, default.mean, atol=1e-6)
        assert_allclose(far.cov, default.cov, atol=1e-6)

    def test_laplace_posterior_near_limit_at_large_n(self):
        rng = np.random.default_rng(31)
        n = 5000
        x = rng.standard_normal(n)
        from alphapost.experiments import laplace_log_prior
        from alphapost.posteriors import default_grid_axis, grid_alpha_posterior

        theta_hat = float(np.mean(x))
        grid = default_grid_axis(theta_hat, 1.0, n, 1.0, 2001, scale=14.0)
        post = grid_alpha_posterior(
            regression_likelihood(sample_stats(np.ones(x.size), x), 1.0), laplace_log_prior(), 1.0, grid
        )
        proj = gmf_project_numeric(post)
        limit = variational_bvm_limit([theta_hat], [[1.0]], n, 1.0)
        assert abs(proj.mean[0] - limit.mean[0]) < 1e-3
        assert abs(proj.cov[0, 0] - limit.cov[0, 0]) < 1e-3

    def test_stack_projects_each_member_as_alone(self):
        # Laplace location posteriors at several (sample, alpha) cells, one
        # stack: each member's projection is the one it gets alone, exactly.
        from alphapost.experiments import laplace_log_prior
        from alphapost.posteriors import default_grid_axis

        n, alphas = 200, np.array([0.25, 1.0, 0.5, 0.25, 1.0, 0.5])
        samples = [np.random.default_rng(derived_seed(5, n, rep)).normal(0.05 * rep, 1.0, n) for rep in range(6)]
        stats = [sample_stats(np.ones(n), x) for x in samples]
        axes = default_grid_axis(np.array([x.mean() for x in samples]), 1.0, n, alphas, 2001, scale=14.0)
        lik = regression_likelihood(stack_stats(stats), 1.0)
        stack = gmf_project_numeric(grid_alpha_posterior(lik, laplace_log_prior(), alphas, axes))
        assert stack.mean.shape == (6, 1) and stack.cov.shape == (6, 1, 1)
        for i in range(6):
            post = grid_alpha_posterior(regression_likelihood(stats[i], 1.0), laplace_log_prior(), alphas[i], axes[i])
            single = gmf_project_numeric(post)
            assert np.array_equal(stack.mean[i], single.mean) and np.array_equal(stack.cov[i], single.cov)
        again = gmf_project_numeric(grid_alpha_posterior(lik, laplace_log_prior(), alphas, axes), stack)
        assert_allclose(again.mean, stack.mean, rtol=0.0, atol=1e-9)

    def test_converged_members_are_not_evaluated_again(self, monkeypatch):
        # Member 1 starts at its own projection, so it has converged before the
        # first step: every evaluation after the starting points lists only
        # members still searching, and each member ends where it did before.
        from alphapost.experiments import laplace_log_prior
        from alphapost.posteriors import default_grid_axis

        n, alphas = 200, np.array([0.25, 1.0, 0.5])
        samples = [np.random.default_rng(derived_seed(5, n, rep)).normal(0.05 * rep, 1.0, n) for rep in range(3)]
        stats = stack_stats([sample_stats(np.ones(n), x) for x in samples])
        axes = default_grid_axis(np.array([x.mean() for x in samples]), 1.0, n, alphas, 2001, scale=14.0)
        target = grid_alpha_posterior(regression_likelihood(stats, 1.0), laplace_log_prior(), alphas, axes)
        before = gmf_project_numeric(target)
        mean, var = target.moments()
        mean[1], var[1] = before.mean[1, 0], before.cov[1, 0, 0]

        calls = []
        evaluate = GridDensity.log_pdf_and_grad_at

        def recording(self, points, rows=None):
            calls.append(list(rows))
            return evaluate(self, points, rows)

        monkeypatch.setattr(GridDensity, "log_pdf_and_grad_at", recording)
        after = gmf_project_numeric(target, GaussianDist(mean[:, None], var[:, None, None]))
        assert calls[0] == [0, 1, 2] and len(calls) > 2
        assert all(1 not in rows and 0 < len(rows) <= 2 for rows in calls[1:])
        assert sum(map(len, calls)) < 3 * len(calls)
        assert np.array_equal(after.mean, before.mean)
        assert np.array_equal(after.cov[[0, 2]], before.cov[[0, 2]])
        assert_allclose(after.cov[1], before.cov[1], rtol=1e-15)

    def test_one_laplace_stack_keeps_few_stack_sized_arrays(self):
        # Tabulating and projecting one stack of (rep x alpha) cells holds at
        # most two (cells x nodes) arrays at once: the log weights and the
        # spline's slopes.  The axes keep only their end points, and the
        # tabulation's nodes, likelihood and prior values are a chunk's size.
        import tracemalloc

        from alphapost.experiments import laplace_log_prior
        from alphapost.posteriors import SufficientStats, default_grid_axis

        n, reps, alphas, nodes = 200, 20, np.array([0.25, 0.5, 0.75, 1.0]), 2001
        samples = [np.random.default_rng(derived_seed(3, n, rep)).standard_normal(n) for rep in range(reps)]
        stats = stack_stats([sample_stats(np.ones(n), x) for x in samples])
        rep = np.repeat(np.arange(reps), alphas.size)
        lik = regression_likelihood(SufficientStats(n, stats.gram[rep]), 1.0)
        stack_bytes = 8 * rep.size * nodes
        tracemalloc.start()
        try:
            axes = default_grid_axis(ols(stats)[rep, 0], 1.0, n, np.tile(alphas, reps), nodes, scale=14.0)
            gmf_project_numeric(grid_alpha_posterior(lik, laplace_log_prior(), np.tile(alphas, reps), axes))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * stack_bytes

    def test_a_member_that_does_not_converge_fails_the_stack(self, monkeypatch):
        # Two standard normal targets: one start at the target, one away from
        # it that needs more than the one iteration allowed.
        from alphapost import meanfield

        axis = GridAxis([-30.0, -30.0], [30.0, 30.0], 3001)
        stack = GridDensity.from_log_unnormalized(axis, -0.5 * axis.nodes() ** 2)
        start = GaussianDist([[0.0], [1.0]], [[[1.0]], [[2.0]]])
        monkeypatch.setattr(meanfield, "MAX_ITER", 1)
        with pytest.raises(RuntimeError, match="converge"):
            gmf_project_numeric(stack, start)

    def test_nodes_outside_support_rejected(self):
        target = GaussianDist(0.0, 1.0)
        grid = GridDensity.from_gaussian(target, GridAxis(-6.0, 6.0, 1001))
        with pytest.raises(ValueError, match="support"):
            gmf_project_numeric(grid, GaussianDist(5.0, 1.0))

    def test_stacked_init_rejected(self):
        grid = GridDensity.from_gaussian(GaussianDist(0.0, 1.0), GridAxis(-8.0, 8.0, 1001))
        with pytest.raises(ValueError, match="stack"):
            gmf_project_numeric(grid, GaussianDist([[0.0], [0.1]], [[[1.0]], [[1.0]]]))

    def test_dimension_above_two_rejected(self):
        grid = GridDensity.from_gaussian(GaussianDist(0.0, 1.0), GridAxis(-8.0, 8.0, 1001))
        with pytest.raises(ValueError, match="dimension 3"):
            gmf_project_numeric(grid, GaussianDist(np.zeros(3), np.eye(3)))

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="ROADMAP item 2: Gauss-Hermite quadrature of the spline misses the Laplace prior's kink",
    )
    def test_laplace_projection_reaches_the_closed_form_minimum(self):
        # KL(q || posterior) up to a constant is closed form for the Laplace
        # location model; the projection should sit at its minimum.
        from alphapost.experiments import laplace_log_prior
        from alphapost.posteriors import default_grid_axis

        for n in (50, 1000):
            for alpha in (0.25, 1.0):
                x = np.random.default_rng(derived_seed(7, n, 0)).standard_normal(n)
                xbar = float(np.mean(x))
                lik = regression_likelihood(sample_stats(np.ones(n), x), 1.0)
                grid = default_grid_axis(xbar, 1.0, n, alpha, 2001, scale=14.0)
                proj = gmf_project_numeric(grid_alpha_posterior(lik, laplace_log_prior(), alpha, grid))
                best = minimize_laplace_location_objective(xbar, n, alpha)
                got = laplace_location_objective(proj.mean[0], np.sqrt(proj.cov[0, 0]), xbar, n, alpha)
                assert got - best < 1e-9, (n, alpha, got - best)


class TestVariationalBvmLimit:
    def test_diagonal_curvature_matches_projected_limit(self):
        from alphapost.posteriors import gaussian_bvm_limit

        v = np.diag([2.0, 0.5])
        lim = variational_bvm_limit([0.1, 0.2], v, 50, 0.5)
        projected = gmf_project_gaussian(gaussian_bvm_limit([0.1, 0.2], v, 50, 0.5))
        assert_allclose(lim.mean, projected.mean)
        assert_allclose(lim.cov, projected.cov, rtol=1e-12)

    def test_correlated_curvature_value(self):
        lim = variational_bvm_limit([0.0, 0.0], [[2.0, 1.0], [1.0, 2.0]], 100, 1.0)
        assert_allclose(lim.cov, np.eye(2) / 200.0, rtol=1e-12)
        # A stack of estimates at p = 3, each at its own alpha: var_j = 1 / (alpha n V_jj), written out.
        v = np.array([[2.0, 0.8, -0.5], [0.8, 1.5, 0.6], [-0.5, 0.6, 1.0]])
        theta_hat = np.array([[0.1, -0.2, 0.3], [1.0, 2.0, -3.0], [0.1, -0.2, 0.3], [1.0, 2.0, -3.0]])
        alphas = np.array([0.25, 0.25, 1.0, 1.0])
        lim = variational_bvm_limit(theta_hat, v, 40, alphas)
        assert lim.cov.shape == (4, 3, 3)
        for i, alpha in enumerate(alphas):
            assert_allclose(lim.mean[i], theta_hat[i], rtol=1e-15)
            assert_allclose(lim.cov[i], np.diag(1.0 / (alpha * 40 * np.diag(v))), rtol=1e-12, atol=0.0)

    def test_half_alpha_doubles_variances(self):
        v = [[2.0, 1.0], [1.0, 2.0]]
        assert_allclose(
            variational_bvm_limit([0.0, 0.0], v, 100, 0.5).cov,
            2.0 * variational_bvm_limit([0.0, 0.0], v, 100, 1.0).cov,
            rtol=1e-12,
        )


    def test_alpha_vector_stacks_the_single_alpha_limits(self):
        v = [[2.0, 1.0], [1.0, 2.0]]
        stack = variational_bvm_limit([0.1, 0.2], v, 100, [0.5, 1.0])
        for i, alpha in enumerate((0.5, 1.0)):
            single = variational_bvm_limit([0.1, 0.2], v, 100, alpha)
            assert np.array_equal(stack.mean[i], single.mean)
            assert np.array_equal(stack.cov[i], single.cov)


def conjugate_1d_setup(seed=5, n=200, alpha=1.0):
    dgp = RegressionDGP(
        theta0=[1.0], gamma0=[1.0], sigma_eps=1.0, cov_ww=[[1.0]], cov_wz=[[0.5]], cov_zz=[[1.0]]
    )
    w = simulate(dgp, n, seed).first_columns(dgp.p)
    prior = ConjugatePrior([0.0], [[1.0]])
    lik = regression_likelihood(w, dgp.sigma_u)
    log_prior = prior.log_density_fn(dgp.sigma_u)
    post = conjugate_alpha_posterior(w, prior, dgp.sigma_u, alpha)
    return lik, log_prior, post


class TestPenalizedObjective:
    def test_argmax_equals_kl_projection(self):
        from alphapost.posteriors import grid_alpha_posterior

        for alpha in (0.25, 0.5, 1.0, 2.0):
            lik, log_prior, post = conjugate_1d_setup(alpha=alpha)
            sd = float(np.sqrt(post.cov[0, 0]))
            grid = GridAxis(post.mean[0] - 14 * sd, post.mean[0] + 14 * sd, 2001)
            grid_post = grid_alpha_posterior(lik, log_prior, alpha, grid)
            projected = gmf_project_numeric(grid_post)
            init = GaussianDist(post.mean + 0.5 * sd, post.cov * 1.5)
            maximized = maximize_penalized_objective(lik, log_prior, alpha, init)
            assert_allclose(maximized.mean, projected.mean, atol=1e-5)
            assert_allclose(maximized.cov, projected.cov, atol=1e-5)

    def test_objective_gap_equals_scaled_kl_gap(self):
        # Obj(q1) - Obj(q2) = -(1/alpha) (KL(q1||post) - KL(q2||post)); the
        # conjugate posterior is Gaussian so the right side is exact.
        alpha = 0.5
        lik, log_prior, post = conjugate_1d_setup(alpha=alpha)
        q1 = GaussianDist(post.mean, post.cov)
        q2 = GaussianDist(post.mean + 0.03, post.cov * 1.3)
        gap = penalized_objective(q1, lik, log_prior, alpha) - penalized_objective(
            q2, lik, log_prior, alpha
        )
        kl_gap = kl_gaussian(q1, post) - kl_gaussian(q2, post)
        assert abs(gap + kl_gap / alpha) < 1e-6

    def test_large_alpha_tracks_likelihood_argmax(self):
        alpha = 500.0
        lik, log_prior, post = conjugate_1d_setup(alpha=1.0)
        sd = float(np.sqrt(post.cov[0, 0]))
        axes = np.linspace(post.mean[0] - 10 * sd, post.mean[0] + 10 * sd, 2001)
        lik_argmax = axes[int(np.argmax(lik(axes[:, None])))]
        init = GaussianDist(post.mean, post.cov)
        maximized = maximize_penalized_objective(lik, log_prior, alpha, init)
        assert abs(maximized.mean[0] - lik_argmax) <= axes[1] - axes[0]

    def test_rejects_nonpositive_alpha(self):
        lik, log_prior, _ = conjugate_1d_setup()
        q = GaussianDist(1.0, 0.01)
        with pytest.raises(ValueError, match="alpha"):
            penalized_objective(q, lik, log_prior, 0.0)

    def test_rejects_dimension_mismatch(self):
        lik, log_prior, _ = conjugate_1d_setup()
        q = GaussianDist([1.0, 0.0], np.diag([0.01, 0.01]))
        with pytest.raises(ValueError, match="dimension"):
            penalized_objective(q, lik, log_prior, 1.0)
