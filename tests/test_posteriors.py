"""Tempered posterior construction and Gaussian limits."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from alphapost.gaussians import GaussianDist, GridDensity
from alphapost.posteriors import (
    ConjugatePrior,
    SufficientStats,
    LikelihoodEvaluator,
    conjugate_alpha_posterior,
    default_grid_axes,
    gaussian_bvm_limit,
    grid_alpha_posterior,
)
from alphapost.regression import RegressionDGP, derived_seed, ols, regression_likelihood, simulate


def collinear_design(n=200):
    # Three columns with pairwise correlation 0.99999: inverting W'W/n leaves
    # an asymmetry of about 1e-11 relative, above GaussianDist's 1e-12.
    corr = np.full((3, 3), 0.99999) + 0.00001 * np.eye(3)
    return np.random.default_rng(0).standard_normal((n, 3)) @ np.linalg.cholesky(corr).T


def toy_dgp(**kw):
    base = dict(
        theta0=[1.0], gamma0=[1.0], sigma_eps=1.0, cov_WW=[[1.0]], cov_WZ=[[0.5]], cov_ZZ=[[1.0]]
    )
    base.update(kw)
    return RegressionDGP(**base)


class TestConjugatePrior:
    def test_flat_prior(self):
        prior = ConjugatePrior.flat(2)
        assert not np.any(prior.Sigma_pi)

    def test_rejects_negative_eigenvalues(self):
        with pytest.raises(ValueError, match="semidefinite"):
            ConjugatePrior([0.0], [[-1.0]])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            ConjugatePrior([0.0, 0.0], [[1.0]])


class TestConjugateAlphaPosterior:
    def test_hand_normal_equations(self):
        # One prior pseudo-observation on top of three ones: mean 6/4, var 1/4.
        prior = ConjugatePrior([0.0], [[1.0]])
        post = conjugate_alpha_posterior(SufficientStats.of(np.ones(3), [1.0, 2.0, 3.0]), prior, 1.0, 1.0)
        assert_allclose(post.mean, [1.5], rtol=1e-12)
        assert_allclose(post.cov, [[0.25]], rtol=1e-12)

    def test_flat_prior_is_least_squares_for_every_alpha(self):
        rng = np.random.default_rng(2)
        w = rng.standard_normal((40, 2))
        y = rng.standard_normal(40)
        target = ols(SufficientStats.of(w, y))
        for alpha in (0.2, 1.0, 3.0):
            post = conjugate_alpha_posterior(SufficientStats.of(w, y), ConjugatePrior.flat(2), 1.0, alpha)
            assert_allclose(post.mean, target, rtol=1e-10)

    def test_flat_prior_alpha_scaling_is_exact(self):
        rng = np.random.default_rng(3)
        w = rng.standard_normal((30, 2))
        y = rng.standard_normal(30)
        flat = ConjugatePrior.flat(2)
        cov_1 = conjugate_alpha_posterior(SufficientStats.of(w, y), flat, 1.0, 1.0).cov
        cov_half = conjugate_alpha_posterior(SufficientStats.of(w, y), flat, 1.0, 0.5).cov
        assert_allclose(cov_half, 2.0 * cov_1, rtol=1e-14)

    def test_singular_design_rejected(self):
        w = np.zeros((5, 1))
        with pytest.raises(ValueError, match="singular"):
            conjugate_alpha_posterior(SufficientStats.of(w, np.ones(5)), ConjugatePrior.flat(1), 1.0, 1.0)

    def test_prior_dimension_mismatch_rejected(self):
        # A 1-d prior on a 2-column design would broadcast Sigma_pi onto every entry of W'W/n.
        w = np.random.default_rng(4).standard_normal((20, 2))
        with pytest.raises(ValueError, match="prior dimension"):
            conjugate_alpha_posterior(SufficientStats.of(w, np.ones(20)), ConjugatePrior([0.0], [[1.0]]), 1.0, 1.0)


    @pytest.mark.parametrize("dim", [1, 2])
    def test_alpha_vector_stacks_the_single_alpha_posteriors(self, dim):
        rng = np.random.default_rng(5)
        w = rng.standard_normal((60, dim))
        y = rng.standard_normal(60)
        prior = ConjugatePrior(np.full(dim, 0.2), np.eye(dim))
        alphas = [0.25, 1.0, 3.0]
        stack = conjugate_alpha_posterior(SufficientStats.of(w, y), prior, 1.3, alphas)
        assert stack.mean.shape == (3, dim) and stack.cov.shape == (3, dim, dim)
        for i, alpha in enumerate(alphas):
            single = conjugate_alpha_posterior(SufficientStats.of(w, y), prior, 1.3, alpha)
            assert np.array_equal(stack.mean[i], single.mean)
            assert np.array_equal(stack.cov[i], single.cov)

    def test_ill_conditioned_design_gives_a_symmetric_covariance(self):
        w = collinear_design()
        stats = SufficientStats.of(w, np.ones(len(w)))
        post = conjugate_alpha_posterior(stats, ConjugatePrior.flat(3), 1.0, [0.5, 1.0])
        assert np.array_equal(post.cov, np.swapaxes(post.cov, -1, -2))

    @pytest.mark.parametrize("alpha", [[0.5, 0.0], [0.5, np.nan], [[0.5]]])
    def test_bad_alpha_vector_rejected(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            conjugate_alpha_posterior(SufficientStats.of(np.ones(3), np.ones(3)), ConjugatePrior.flat(1), 1.0, alpha)


class TestGridAlphaPosterior:
    def test_normal_normal_update(self):
        # One N(theta, 1) observation at 0.7 with a standard normal prior.
        lik = LikelihoodEvaluator(
            lambda t: -0.5 * np.log(2 * np.pi) - 0.5 * (0.7 - np.atleast_2d(t)[:, 0]) ** 2, 1
        )
        log_prior = lambda pts: -0.5 * np.log(2 * np.pi) - 0.5 * np.atleast_2d(pts)[:, 0] ** 2
        axes = [np.linspace(-4, 4, 2001)]
        post = grid_alpha_posterior(lik, log_prior, 1.0, axes)
        exact = GridDensity.from_gaussian(GaussianDist(0.35, 0.5), axes)
        assert np.max(np.abs(post.pdf() - exact.pdf())) < 1e-6

    def test_matches_conjugate_on_random_suite(self):
        rng = np.random.default_rng(17)
        dgp = toy_dgp()
        for _ in range(10):
            alpha = float(rng.uniform(0.3, 2.0))
            prior = ConjugatePrior([float(rng.normal())], [[float(rng.uniform(0.2, 2.0))]])
            ds = simulate(dgp, int(rng.integers(50, 400)), int(rng.integers(10**6)))
            post = conjugate_alpha_posterior(ds.stats().first_columns(dgp.p), prior, dgp.sigma_u, alpha)
            axes = [np.linspace(post.mean[0] - 10 * post.cov[0, 0] ** 0.5,
                                post.mean[0] + 10 * post.cov[0, 0] ** 0.5, 2001)]
            grid = grid_alpha_posterior(
                regression_likelihood(ds.stats().first_columns(dgp.p), dgp.sigma_u),
                prior.log_density_fn(dgp.sigma_u),
                alpha,
                axes,
            )
            exact = GridDensity.from_gaussian(post, axes)
            assert np.max(np.abs(grid.pdf() - exact.pdf())) < 1e-6

    def test_laplace_prior_posterior_normalized_and_unimodal(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(100)
        sx, sx2 = x.sum(), x @ x
        lik = LikelihoodEvaluator(
            lambda t: -50 * np.log(2 * np.pi)
            - 0.5 * (sx2 - 2 * np.atleast_2d(t)[:, 0] * sx + 100 * np.atleast_2d(t)[:, 0] ** 2),
            1,
        )
        log_prior = lambda pts: -np.log(2.0) - np.abs(np.atleast_2d(pts)[:, 0])
        post = grid_alpha_posterior(lik, log_prior, 0.5, [np.linspace(-2, 2, 3001)])
        assert abs(post.integral() - 1.0) < 1e-8
        pdf = post.pdf()
        peak = int(np.argmax(pdf))
        assert np.all(np.diff(pdf[: peak + 1]) >= -1e-12)
        assert np.all(np.diff(pdf[peak:]) <= 1e-12)

    def test_too_few_nodes_rejected(self):
        lik = LikelihoodEvaluator(lambda t: np.zeros(np.atleast_2d(t).shape[0]), 1)
        with pytest.raises(ValueError, match="101"):
            grid_alpha_posterior(lik, lambda p: np.zeros(np.atleast_2d(p).shape[0]), 1.0, [np.linspace(0, 1, 50)])

    def test_non_finite_log_likelihood_rejected(self):
        lik = LikelihoodEvaluator(lambda t: np.full(np.atleast_2d(t).shape[0], np.nan), 1)
        with pytest.raises(ValueError, match="non-finite"):
            grid_alpha_posterior(lik, lambda p: np.zeros(np.atleast_2d(p).shape[0]), 1.0, [np.linspace(0, 1, 101)])

    def test_dimension_above_two_rejected(self):
        lik = LikelihoodEvaluator(lambda t: np.zeros(np.atleast_2d(t).shape[0]), 3)
        with pytest.raises(ValueError, match="dimension"):
            grid_alpha_posterior(lik, lambda p: 0.0, 1.0, [np.linspace(0, 1, 101)] * 3)


class TestGaussianBvmLimit:
    def test_alpha_one_is_standard_limit(self):
        v = np.array([[2.0, 0.3], [0.3, 1.0]])
        lim = gaussian_bvm_limit([0.1, -0.2], v, 50, 1.0)
        assert_allclose(lim.cov, np.linalg.inv(v) / 50, rtol=1e-12)

    def test_half_alpha_doubles_covariance(self):
        v = np.array([[2.0, 0.3], [0.3, 1.0]])
        lim1 = gaussian_bvm_limit([0.0, 0.0], v, 50, 1.0)
        lim2 = gaussian_bvm_limit([0.0, 0.0], v, 50, 0.5)
        assert_allclose(lim2.cov, 2.0 * lim1.cov, rtol=1e-12)

    def test_scalar_arithmetic(self):
        lim = gaussian_bvm_limit([0.3], [[2.0]], 100, 0.5)
        assert_allclose(lim.mean, [0.3])
        assert_allclose(lim.cov, [[0.01]], rtol=1e-12)

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(ValueError, match="alpha"):
            gaussian_bvm_limit([0.0], [[1.0]], 10, 0.0)

    def test_ill_conditioned_curvature_gives_a_symmetric_covariance(self):
        w = collinear_design()
        lim = gaussian_bvm_limit(np.zeros(3), w.T @ w / len(w), len(w), [0.5, 1.0])
        assert np.array_equal(lim.cov, np.swapaxes(lim.cov, -1, -2))

    def test_alpha_vector_stacks_the_single_alpha_limits(self):
        v = np.array([[2.0, 0.3], [0.3, 1.0]])
        stack = gaussian_bvm_limit([0.1, -0.2], v, 50, [0.5, 1.0])
        for i, alpha in enumerate((0.5, 1.0)):
            single = gaussian_bvm_limit([0.1, -0.2], v, 50, alpha)
            assert np.array_equal(stack.mean[i], single.mean)
            assert np.array_equal(stack.cov[i], single.cov)


class TestMeanDriftBound:
    def test_scaled_mean_gap_stays_bounded(self):
        # n * ||posterior mean - least squares|| has a finite limit, so a
        # percentile calibrated from the population formula holds at every n.
        dgp = toy_dgp()
        prior = ConjugatePrior([0.0], [[1.0]])
        alpha = 0.5
        theta_star = 1.5
        limit_norm = abs(0.0 - theta_star) / alpha  # E[WW']^{-1} Sigma_pi (mu_pi - theta*) / alpha
        bound = 3.0 * (limit_norm + 1.0)
        for n in (100, 1000, 10000):
            gaps = []
            for rep in range(200):
                ds = simulate(dgp, n, derived_seed(12, n, rep))
                post = conjugate_alpha_posterior(ds.stats().first_columns(dgp.p), prior, dgp.sigma_u, alpha)
                gaps.append(n * float(np.linalg.norm(post.mean - ols(ds.stats().first_columns(dgp.p)))))
            assert np.percentile(gaps, 95) < bound


class TestDefaultGridAxes:
    def test_half_width_tracks_alpha_n_and_curvature(self):
        axes = default_grid_axes([0.0], [[4.0]], 100, 1.0, num=101)
        assert_allclose(axes[0][-1], 10.0 / np.sqrt(400.0), rtol=1e-12)
        wide = default_grid_axes([0.0], [[4.0]], 100, 0.25, num=101)
        assert_allclose(wide[0][-1], 2.0 * axes[0][-1], rtol=1e-12)
