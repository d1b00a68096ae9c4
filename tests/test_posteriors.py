"""Tempered posterior construction and Gaussian limits."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from alphapost.gaussians import GaussianDist, GridAxis, GridDensity, kl_grid, tv_grid
from alphapost.posteriors import (
    ConjugatePrior,
    SufficientStats,
    _block_gram,
    conjugate_alpha_posterior,
    default_grid_axis,
    gaussian_bvm_limit,
    grid_alpha_posterior,
    laplace_location_divergences,
)
from alphapost.regression import RegressionDGP, derived_seed, ols, regression_likelihood, simulate

from oracles import default_grid_nodes, sample_stats, stack_stats, trapezoid_weights, tv_equal_variance


def collinear_design(n=200):
    # Three columns with pairwise correlation 0.99999: inverting W'W/n leaves
    # an asymmetry of about 1e-11 relative, above GaussianDist's 1e-12.
    corr = np.full((3, 3), 0.99999) + 0.00001 * np.eye(3)
    return np.random.default_rng(0).standard_normal((n, 3)) @ np.linalg.cholesky(corr).T


def toy_dgp(**kw):
    base = dict(
        theta0=[1.0], gamma0=[1.0], sigma_eps=1.0, cov_ww=[[1.0]], cov_wz=[[0.5]], cov_zz=[[1.0]]
    )
    base.update(kw)
    return RegressionDGP(**base)


class TestSufficientStats:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_block_gram_matches_the_column_stacked_gram(self, k):
        rng = np.random.default_rng(k)
        X, Y = rng.normal(size=(60, k)), rng.normal(size=60)
        cols = np.column_stack([X, Y])
        gram, exact = _block_gram(X, Y), cols.T @ cols
        assert gram.shape == (k + 1, k + 1)
        assert np.max(np.abs(gram - exact)) <= 1e-12 * np.max(np.abs(exact))
        assert np.array_equal(gram, gram.T)

    @pytest.mark.parametrize("n", [0, -3, 2.5, np.inf, np.nan])
    def test_rejects_a_size_that_is_not_a_positive_integer(self, n):
        with pytest.raises(ValueError, match="^n must be a positive integer$"):
            SufficientStats(n, np.eye(2))

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: SufficientStats(10, np.ones((3, 2))), r"^gram must be a \(k \+ 1\) x \(k \+ 1\) .*\(3, 2\)$"),
            (lambda: SufficientStats(10, [[1.0]]), r"^gram must be a \(k \+ 1\) x \(k \+ 1\) .*\(1, 1\)$"),
            (lambda: SufficientStats(10, [[1.0, np.nan], [np.nan, 1.0]]), "^gram must be finite$"),
            (lambda: SufficientStats(10, np.eye(2))[0], "^only a stack of samples can be indexed$"),
            (lambda: SufficientStats(10, np.eye(3)).first_columns(0), r"^k must lie in \[1, 2\]$"),
            (lambda: SufficientStats(10, np.eye(3)).first_columns(3), r"^k must lie in \[1, 2\]$"),
        ],
    )
    def test_rejects_a_malformed_sample(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()


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

    @pytest.mark.parametrize(
        "mu_pi, Sigma_pi, name",
        [
            ([0.0], [[np.nan]], "Sigma_pi"),
            ([0.0], [[np.inf]], "Sigma_pi"),
            ([np.nan], [[1.0]], "mu_pi"),
            ([-np.inf], [[1.0]], "mu_pi"),
        ],
    )
    def test_rejects_non_finite_input(self, mu_pi, Sigma_pi, name):
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            ConjugatePrior(mu_pi, Sigma_pi)


class TestConjugateAlphaPosterior:
    def test_hand_normal_equations(self):
        # One prior pseudo-observation on top of three ones: mean 6/4, var 1/4.
        prior = ConjugatePrior([0.0], [[1.0]])
        post = conjugate_alpha_posterior(sample_stats(np.ones(3), [1.0, 2.0, 3.0]), prior, 1.0, 1.0)
        assert_allclose(post.mean, [1.5], rtol=1e-12)
        assert_allclose(post.cov, [[0.25]], rtol=1e-12)

    def test_flat_prior_is_least_squares_for_every_alpha(self):
        rng = np.random.default_rng(2)
        w = rng.standard_normal((40, 2))
        y = rng.standard_normal(40)
        target = ols(sample_stats(w, y))
        for alpha in (0.2, 1.0, 3.0):
            post = conjugate_alpha_posterior(sample_stats(w, y), ConjugatePrior.flat(2), 1.0, alpha)
            assert_allclose(post.mean, target, rtol=1e-10)

    def test_flat_prior_alpha_scaling_is_exact(self):
        rng = np.random.default_rng(3)
        w = rng.standard_normal((30, 2))
        y = rng.standard_normal(30)
        flat = ConjugatePrior.flat(2)
        cov_1 = conjugate_alpha_posterior(sample_stats(w, y), flat, 1.0, 1.0).cov
        cov_half = conjugate_alpha_posterior(sample_stats(w, y), flat, 1.0, 0.5).cov
        assert_allclose(cov_half, 2.0 * cov_1, rtol=1e-14)

    def test_singular_design_rejected(self):
        w = np.zeros((5, 1))
        with pytest.raises(ValueError, match="singular"):
            conjugate_alpha_posterior(sample_stats(w, np.ones(5)), ConjugatePrior.flat(1), 1.0, 1.0)

    def test_prior_dimension_mismatch_rejected(self):
        # A 1-d prior on a 2-column design would broadcast Sigma_pi onto every entry of W'W/n.
        w = np.random.default_rng(4).standard_normal((20, 2))
        with pytest.raises(ValueError, match="prior dimension"):
            conjugate_alpha_posterior(sample_stats(w, np.ones(20)), ConjugatePrior([0.0], [[1.0]]), 1.0, 1.0)


    @pytest.mark.parametrize("dim", [1, 2])
    def test_alpha_vector_stacks_the_single_alpha_posteriors(self, dim):
        rng = np.random.default_rng(5)
        w = rng.standard_normal((60, dim))
        y = rng.standard_normal(60)
        prior = ConjugatePrior(np.full(dim, 0.2), np.eye(dim))
        alphas = [0.25, 1.0, 3.0]
        stack = conjugate_alpha_posterior(sample_stats(w, y), prior, 1.3, alphas)
        assert stack.mean.shape == (3, dim) and stack.cov.shape == (3, dim, dim)
        for i, alpha in enumerate(alphas):
            single = conjugate_alpha_posterior(sample_stats(w, y), prior, 1.3, alpha)
            assert np.array_equal(stack.mean[i], single.mean)
            assert np.array_equal(stack.cov[i], single.cov)

    def test_ill_conditioned_design_gives_a_symmetric_covariance(self):
        w = collinear_design()
        stats = sample_stats(w, np.ones(len(w)))
        post = conjugate_alpha_posterior(stats, ConjugatePrior.flat(3), 1.0, [0.5, 1.0])
        assert np.array_equal(post.cov, np.swapaxes(post.cov, -1, -2))

    @pytest.mark.parametrize("alpha", [[0.5, 0.0], [0.5, np.nan], [[0.5]]])
    def test_bad_alpha_vector_rejected(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            conjugate_alpha_posterior(sample_stats(np.ones(3), np.ones(3)), ConjugatePrior.flat(1), 1.0, alpha)

    def test_alpha_of_another_length_than_the_stack_rejected(self):
        # A stack of three samples takes one alpha or three; one sample pairs with any number.
        rng = np.random.default_rng(6)
        singles = [sample_stats(rng.standard_normal((20, 2)), rng.standard_normal(20)) for _ in range(3)]
        stack, prior = stack_stats(singles), ConjugatePrior.flat(2)
        with pytest.raises(ValueError, match=r"^alpha: one value, or one per member \(3\), got 2$"):
            conjugate_alpha_posterior(stack, prior, 1.0, [0.5, 1.0])
        assert conjugate_alpha_posterior(stack, prior, 1.0, [0.5]).mean.shape == (3, 2)
        assert conjugate_alpha_posterior(stack[:1], prior, 1.0, [0.5, 1.0]).mean.shape == (2, 2)


class TestGridAlphaPosterior:
    def test_normal_normal_update(self):
        # One N(theta, 1) observation at 0.7 with a standard normal prior.
        lik = lambda t: -0.5 * np.log(2 * np.pi) - 0.5 * (0.7 - np.atleast_2d(t)[:, 0]) ** 2
        log_prior = lambda pts: -0.5 * np.log(2 * np.pi) - 0.5 * np.atleast_2d(pts)[:, 0] ** 2
        x = GridAxis(-4.0, 4.0, 2001)
        post = grid_alpha_posterior(lik, log_prior, 1.0, x)
        exact = GridDensity.from_gaussian(GaussianDist(0.35, 0.5), x)
        assert np.max(np.abs(post.pdf() - exact.pdf())) < 1e-6

    def test_matches_conjugate_on_random_suite(self):
        rng = np.random.default_rng(17)
        dgp = toy_dgp()
        for _ in range(10):
            alpha = float(rng.uniform(0.3, 2.0))
            prior = ConjugatePrior([float(rng.normal())], [[float(rng.uniform(0.2, 2.0))]])
            w = simulate(dgp, int(rng.integers(50, 400)), int(rng.integers(10**6))).first_columns(dgp.p)
            post = conjugate_alpha_posterior(w, prior, dgp.sigma_u, alpha)
            x = GridAxis(post.mean[0] - 10 * post.cov[0, 0] ** 0.5, post.mean[0] + 10 * post.cov[0, 0] ** 0.5, 2001)
            grid = grid_alpha_posterior(
                regression_likelihood(w, dgp.sigma_u),
                prior.log_density_fn(dgp.sigma_u),
                alpha,
                x,
            )
            exact = GridDensity.from_gaussian(post, x)
            assert np.max(np.abs(grid.pdf() - exact.pdf())) < 1e-6

    def test_laplace_prior_posterior_normalized_and_unimodal(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(100)
        sx, sx2 = x.sum(), x @ x
        lik = lambda t: -50 * np.log(2 * np.pi) - 0.5 * (
            sx2 - 2 * np.atleast_2d(t)[:, 0] * sx + 100 * np.atleast_2d(t)[:, 0] ** 2
        )
        log_prior = lambda pts: -np.log(2.0) - np.abs(np.atleast_2d(pts)[:, 0])
        axis = GridAxis(-2.0, 2.0, 3001)
        post = grid_alpha_posterior(lik, log_prior, 0.5, axis)
        assert abs(trapezoid_weights(axis.nodes()) @ post.pdf() - 1.0) < 1e-8
        pdf = post.pdf()
        peak = int(np.argmax(pdf))
        assert np.all(np.diff(pdf[: peak + 1]) >= -1e-12)
        assert np.all(np.diff(pdf[peak:]) <= 1e-12)

    def test_too_few_nodes_rejected(self):
        lik = lambda t: np.zeros(np.atleast_2d(t).shape[0])
        with pytest.raises(ValueError, match="101"):
            grid_alpha_posterior(lik, lambda p: np.zeros(np.atleast_2d(p).shape[0]), 1.0, GridAxis(0.0, 1.0, 50))

    def test_non_finite_log_likelihood_rejected(self):
        lik = lambda t: np.full(np.atleast_2d(t).shape[0], np.nan)
        with pytest.raises(ValueError, match="non-finite"):
            grid_alpha_posterior(lik, lambda p: np.zeros(np.atleast_2d(p).shape[0]), 1.0, GridAxis(0.0, 1.0, 101))

    def test_axes_of_another_dimension_than_the_likelihood_rejected(self):
        lik = regression_likelihood(sample_stats(np.ones((50, 2)), np.arange(50.0)), 1.0)
        with pytest.raises(ValueError, match="dimension 1.*2 design columns"):
            grid_alpha_posterior(lik, lambda p: np.zeros(len(p)), 1.0, GridAxis(0.0, 1.0, 101))

    def test_dimension_above_two_rejected(self):
        lik = lambda t: np.zeros(np.atleast_2d(t).shape[0])
        with pytest.raises(ValueError, match="one axis"):
            grid_alpha_posterior(lik, lambda p: 0.0, 1.0, GridAxis(np.zeros((2, 3)), np.ones((2, 3)), 101))

    @pytest.mark.parametrize("nodes", [np.linspace(0, 1, 101), np.linspace(0, 1, 101)[None]])
    def test_node_arrays_are_refused(self, nodes):
        # The axis is a GridAxis, never an array of its nodes.
        lik = lambda t: np.zeros(t.shape[:-1])
        with pytest.raises(TypeError, match="^the grid axis must be a GridAxis, not ndarray$"):
            grid_alpha_posterior(lik, lik, 1.0, nodes)

    @pytest.mark.parametrize("axes", [GridAxis(0.0, 1.0, 101), GridAxis([0.0], [1.0], 101)])
    def test_several_alphas_on_one_axis_rejected(self, axes):
        # The axes fix the members, so one axis takes one alpha.
        lik = lambda t: np.zeros(t.shape[:-1])
        with pytest.raises(ValueError, match=r"alpha: one value, or one per axis \(1\), got 2"):
            grid_alpha_posterior(lik, lik, [0.5, 1.0], axes)

    def test_one_alpha_in_a_vector_on_one_axis(self):
        x = GridAxis(-2.0, 2.0, 101)
        lik = lambda t: -0.5 * t[..., 0] ** 2
        single = grid_alpha_posterior(lik, lik, [0.5], x)
        assert np.array_equal(single.log_weights, grid_alpha_posterior(lik, lik, 0.5, x).log_weights)

    def test_stack_of_axes_tabulates_each_cell(self):
        # Member i of a stacked posterior is the posterior of sample i at alpha[i] on axis i.
        rng = np.random.default_rng(9)
        samples = [rng.normal(0.3, 1.0, 40) for _ in range(3)]
        singles = [sample_stats(np.ones(40), x) for x in samples]
        alpha = np.array([0.25, 1.0, 0.5])
        theta_hat = np.array([ols(s)[0] for s in singles])
        axes = default_grid_axis(theta_hat, 1.0, 40, alpha, 301)
        log_prior = lambda pts: -np.abs(np.atleast_2d(pts)[..., 0])
        stack = grid_alpha_posterior(regression_likelihood(stack_stats(singles), 1.0), log_prior, alpha, axes)
        for i, stats in enumerate(singles):
            single = grid_alpha_posterior(regression_likelihood(stats, 1.0), log_prior, alpha[i], axes[i])
            assert np.array_equal(stack.log_weights[i], single.log_weights)
            assert stack.normalizer[i] == single.normalizer

    def test_default_axes_are_linspace_nodes_each_contiguous(self):
        # The axes keep only their end points; the nodes rebuilt from them are
        # np.linspace's and the oracle's array of nodes, bit for bit.
        theta_hat, alpha = np.array([0.3, -1.2, 4.0]), np.array([0.25, 1.0, 0.5])
        axes = default_grid_axis(theta_hat, 2.0, 50, alpha, 301, scale=14.0)
        half = 14.0 / np.sqrt(alpha * 50 * 2.0)
        nodes = axes.nodes()
        assert np.array_equal(nodes, np.linspace(theta_hat - half, theta_hat + half, 301, axis=-1))
        assert np.array_equal(nodes, default_grid_nodes(theta_hat, 2.0, 50, alpha, 301, scale=14.0))
        assert nodes.flags.c_contiguous
        assert np.array_equal(axes.nodes(slice(1, 3)), nodes[1:3]) and np.array_equal(axes[2].nodes(), nodes[2])
        half = 10.0 / np.sqrt(0.25 * 50 * 2.0)
        single = default_grid_axis(0.3, 2.0, 50, 0.25, 301)
        assert np.array_equal(single.nodes(), np.linspace(0.3 - half, 0.3 + half, 301))
        assert np.array_equal(single.nodes(), default_grid_nodes(0.3, 2.0, 50, 0.25, 301))

    @pytest.mark.parametrize("num", [101, 2001, 40001])
    def test_rebuilt_nodes_match_the_array_oracle_bit_for_bit(self, num):
        # Random estimates, curvatures, sample sizes and alphas: the nodes a
        # grid posterior rebuilds from (lo, hi, num) are the oracle's array
        # of nodes, bit for bit.
        rng = np.random.default_rng(num)
        theta_hat, alpha = rng.normal(scale=5.0, size=40), rng.uniform(0.01, 2.0, size=40)
        v, n = float(rng.uniform(0.1, 10.0)), int(rng.integers(5, 10**5))
        want = default_grid_nodes(theta_hat, v, n, alpha, num, scale=14.0)
        axes = default_grid_axis(theta_hat, v, n, alpha, num, scale=14.0)
        assert np.array_equal(axes.nodes(), want)
        flat = lambda pts: 0.0 * pts[..., 0]
        post = grid_alpha_posterior(lambda pts, rows: -0.5 * pts[..., 0] ** 2, flat, alpha, axes)
        assert np.array_equal(post.axis.nodes(), want)

    @pytest.mark.parametrize(
        "fault, message",
        [
            ("non-finite axis", "the grid axis must be finite"),
            ("too few nodes", "the grid axis needs at least 101 nodes"),
            ("non-finite log-likelihood", "non-finite log-likelihood on a grid node"),
            ("decreasing axis", "the axis must be strictly increasing"),
        ],
    )
    def test_one_bad_member_rejects_the_stack(self, fault, message):
        # Each rejection of a stack of axes or of its tabulation, raised with
        # its message when only member 1 of three is at fault (the node count
        # is the whole stack's).
        rng = np.random.default_rng(9)
        samples = [sample_stats(np.ones(40), rng.normal(0.3, 1.0, 40)) for _ in range(3)]
        alpha = np.array([0.25, 1.0, 0.5])
        axes = default_grid_axis(np.array([ols(s)[0] for s in samples]), 1.0, 40, alpha, 301)
        lo, hi, num = axes.lo.copy(), axes.hi.copy(), axes.num
        stacked = regression_likelihood(stack_stats(samples), 1.0)
        log_lik = stacked
        if fault == "non-finite axis":
            hi[1] = np.inf
        elif fault == "too few nodes":
            num = 100
        elif fault == "non-finite log-likelihood":
            log_lik = lambda pts, rows: stacked(pts, rows) * np.array([[1.0], [np.nan], [1.0]])[rows]
        else:
            lo[1], hi[1] = hi[1], lo[1]
        with pytest.raises(ValueError, match=f"^{message}$"):
            grid_alpha_posterior(log_lik, lambda pts: -np.abs(pts[..., 0]), alpha, GridAxis(lo, hi, num))


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
                w = simulate(dgp, n, derived_seed(12, n, rep)).first_columns(dgp.p)
                post = conjugate_alpha_posterior(w, prior, dgp.sigma_u, alpha)
                gaps.append(n * float(np.linalg.norm(post.mean - ols(w))))
            assert np.percentile(gaps, 95) < bound


class TestDefaultGridAxes:
    def test_half_width_tracks_alpha_n_and_curvature(self):
        x = default_grid_axis(0.0, 4.0, 100, 1.0, num=101)
        assert_allclose(x.hi, 10.0 / np.sqrt(400.0), rtol=1e-12)
        wide = default_grid_axis(0.0, 4.0, 100, 0.25, num=101)
        assert_allclose(wide.hi, 2.0 * x.hi, rtol=1e-12)


class TestLaplaceLocationDivergences:
    """The closed-form TV and KL of the Laplace location model against its 40001-node grid.

    On the grid of :func:`default_grid_axis` (+- 10 limit sds) the two agree
    within 1e-8 + 5e-7 |grid value|: about 1e-9 where the prior is wider
    than the limit, and 2e-7 relative where it is 5 times narrower.
    """

    @staticmethod
    def grid_divergences(theta_hat, sigma, n, alpha, loc, scale):
        x = default_grid_axis(theta_hat, 1.0 / sigma**2, n, alpha, 40001)
        lik = lambda pts: -n * (np.atleast_2d(pts)[:, 0] - theta_hat) ** 2 / (2.0 * sigma**2)
        log_prior = lambda pts: -np.abs(np.atleast_2d(pts)[:, 0] - loc) / scale
        post = grid_alpha_posterior(lik, log_prior, alpha, x)
        limit = GridDensity.from_gaussian(gaussian_bvm_limit([theta_hat], [[1.0 / sigma**2]], n, alpha), x)
        return tv_grid(post, limit), kl_grid(post, limit)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "theta_hat, sigma, n, alpha, loc, scale",
        [
            (0.0, 1.0, 50, 1.0, 0.0, 1.0),  # on the kink
            (0.5, 1.0, 50, 1.0, 0.0, 1.0),  # 3.5 limit sds off it
            (0.7, 2.0, 200, 0.5, 1.0, 0.5),  # left of the kink, other scales
            (0.2, 1.0, 5, 0.25, 0.0, 1.0),  # small alpha n
            (0.1, 1.0, 5, 0.25, 0.0, 0.2),  # a prior 4.5 times narrower than the limit
            (40.0 / np.sqrt(1000.0), 1.0, 1000, 1.0, 0.0, 1.0),  # 40 limit sds off the kink
        ],
    )
    def test_matches_the_grid(self, theta_hat, sigma, n, alpha, loc, scale):
        tv, kl = laplace_location_divergences(theta_hat, sigma, n, alpha, loc, scale)
        grid_tv, grid_kl = self.grid_divergences(theta_hat, sigma, n, alpha, loc, scale)
        assert abs(tv - grid_tv) <= 1e-8 + 5e-7 * grid_tv
        assert abs(kl - grid_kl) <= 1e-8 + 5e-7 * grid_kl

    @pytest.mark.filterwarnings("error")
    def test_limits_far_off_the_kink_and_for_a_narrow_prior(self):
        # Far off the kink the posterior is the limit shifted by tau^2 / b:
        # TV = 2 Phi(beta / 2) - 1 and KL = beta^2 / 2 with beta = tau / b.
        for s in (50.0, 1e4, -1e6):
            tv, kl = laplace_location_divergences(s, 1.0, 1, 1.0, 0.0, 2.0)
            assert_allclose(tv, tv_equal_variance(0.0, 0.5, 1.0), rtol=1e-6)
            assert_allclose(kl, 0.125, rtol=1e-6)
        # A prior much narrower than the limit: the posterior is nearly the
        # prior, so KL -> log(beta sqrt(2 pi) / 2) - 1, and TV -> 1 as the
        # limit's mass on the prior's width, about log(beta) / beta, vanishes.
        for beta in (1e3, 1e8):
            tv, kl = laplace_location_divergences(0.0, 1.0, 1, 1.0, 0.0, 1.0 / beta)
            assert_allclose(kl, np.log(beta * np.sqrt(2.0 * np.pi) / 2.0) - 1.0, rtol=1e-5)
            assert 1.0 - 2.0 * np.log(beta) / beta < tv <= 1.0
        theta_hat, alpha = np.repeat([-1e4, 1e4, 0.0], 2), np.tile([1e-8, 1.0], 3)
        tv, kl = laplace_location_divergences(theta_hat, 1.0, 1, alpha, 0.0, 1e-4)
        assert np.all(np.isfinite(tv)) and np.all(np.isfinite(kl))
        assert np.all((0.0 <= tv) & (tv <= 1.0)) and np.all(kl >= 0.0)

    def test_stack_pairs_each_estimate_with_its_alpha(self):
        # Member i is estimate i at alpha i; one alpha, or one estimate, serves every member.
        theta_hat, alphas = np.array([0.05, -0.1, 0.3, 0.05]), np.array([0.25, 1.0, 1.0, 1.0])
        tv, kl = laplace_location_divergences(theta_hat, 1.5, 80, alphas, 0.1, 0.5)
        assert tv.shape == kl.shape == (4,)
        for i in range(4):
            assert (tv[i], kl[i]) == laplace_location_divergences(theta_hat[i], 1.5, 80, alphas[i], 0.1, 0.5)
        assert np.array_equal(laplace_location_divergences(theta_hat[1:], 1.5, 80, 1.0, 0.1, 0.5), (tv[1:], kl[1:]))
        same_estimate = [0, 3]
        divergences = laplace_location_divergences(0.05, 1.5, 80, alphas[same_estimate], 0.1, 0.5)
        assert np.array_equal(divergences, (tv[same_estimate], kl[same_estimate]))
        with pytest.raises(ValueError):
            laplace_location_divergences(theta_hat, 1.5, 80, alphas[:2], 0.1, 0.5)

    @pytest.mark.parametrize(
        "args, name",
        [
            ((0.1, 1.0, 50, 1.0, 0.0, 0.0), "scale"),
            ((0.1, 1.0, 50, 1.0, 0.0, -1.0), "scale"),
            ((0.1, 0.0, 50, 1.0, 0.0, 1.0), "sigma"),
            ((0.1, -1.0, 50, 1.0, 0.0, 1.0), "sigma"),
            ((0.1, np.inf, 50, 1.0, 0.0, 1.0), "sigma"),
            ((0.1, 1.0, 0, 1.0, 0.0, 1.0), "n"),
            ((0.1, 1.0, 2.5, 1.0, 0.0, 1.0), "n"),
            ((0.1, 1.0, np.inf, 1.0, 0.0, 1.0), "n"),
            ((0.1, 1.0, np.nan, 1.0, 0.0, 1.0), "n"),
            (([0.1, np.nan], 1.0, 50, 1.0, 0.0, 1.0), "theta_hat"),
            ((0.1, 1.0, 50, 1.0, np.nan, 1.0), "loc"),
        ],
    )
    def test_rejects_bad_input(self, args, name):
        # A bad argument is named, never a NaN or a plausible-looking divergence.
        with pytest.raises(ValueError, match=rf"^{name} must"):
            laplace_location_divergences(*args)
        if name in ("scale", "loc"):
            from alphapost.experiments import laplace_log_prior

            with pytest.raises(ValueError, match=rf"^{name} must"):
                laplace_log_prior(args[4], args[5])
