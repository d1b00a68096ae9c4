"""Divergence kernel: closed forms against oracles, invariants on random pairs."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from alphapost import gaussians
from alphapost.gaussians import (
    GaussianDist,
    _ndtr,
    _outer_pieces,
    _tv_frame,
    GridDensity,
    hellinger_sq_gaussian,
    kl_gaussian,
    kl_grid,
    log_density,
    tv_gaussian,
    tv_grid,
)

from oracles import (
    mc_kl,
    mc_tv,
    perturbed_pair,
    quadrature_hellinger_sq,
    trapezoid_weights,
    tv_equal_variance,
    tv_tensor_quadrature,
)


def random_gaussian(rng, dim, mean_scale=1.0):
    a = rng.standard_normal((dim, dim))
    cov = a @ a.T + (0.3 + rng.uniform()) * np.eye(dim)
    return GaussianDist(rng.normal(scale=mean_scale, size=dim), cov)


class TestGaussianDist:
    def test_scalar_promotion(self):
        g = GaussianDist(0.0, 1.0)
        assert g.dim == 1
        assert g.cov.shape == (1, 1)

    def test_rejects_asymmetric_covariance(self):
        with pytest.raises(ValueError, match="symmetric"):
            GaussianDist([0.0, 0.0], [[1.0, 0.5], [0.2, 1.0]])

    def test_rejects_indefinite_covariance(self):
        with pytest.raises(ValueError, match="positive definite"):
            GaussianDist([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            GaussianDist([0.0, 0.0], [[1.0]])

    @pytest.mark.parametrize(
        "mean, cov",
        [
            ([np.nan], [[1.0]]),
            ([0.0], [[np.inf]]),
            ([0.0], [[np.nan]]),
            # One non-finite member rejects a stack.
            ([[0.0], [np.nan]], [[[1.0]], [[1.0]]]),
            ([[0.0], [0.0]], [[[1.0]], [[np.inf]]]),
        ],
    )
    def test_rejects_non_finite_input(self, mean, cov):
        with pytest.raises(ValueError, match="finite"):
            GaussianDist(mean, cov)

    def test_tiny_asymmetry_tolerated(self):
        cov = np.array([[1.0, 0.5], [0.5 + 1e-14, 1.0]])
        g = GaussianDist([0.0, 0.0], cov)
        assert_allclose(g.cov, g.cov.T)

    def test_covariances_near_the_float_maximum_are_kept(self):
        # Symmetrizing halves before it adds, and the asymmetry test halves
        # before it subtracts, so neither overflows (a RuntimeWarning fails the test).
        assert GaussianDist(0.0, 1e308).cov[0, 0] == 1e308
        cov = np.array([[1e308, -9e307], [-9e307, 1e308]])
        assert np.array_equal(GaussianDist([0.0, 0.0], cov).cov, cov)
        with pytest.raises(ValueError, match="symmetric"):
            GaussianDist([0.0, 0.0], [[1e308, 1e308], [-1e308, 1e308]])


class TestStacks:
    def test_members_and_indexing(self):
        stack = GaussianDist([[0.0], [1.0], [2.0]], [[[1.0]], [[2.0]], [[3.0]]])
        assert stack.stacked and stack.dim == 1
        assert stack.mean.shape == (3, 1) and stack.chol.shape == (3, 1, 1)
        assert_allclose(stack.half_log_det(), 0.5 * np.log([1.0, 2.0, 3.0]))
        member = stack[1]
        assert not member.stacked
        assert_allclose(member.mean, [1.0])
        assert_allclose(member.cov, [[2.0]])
        assert stack[1:].mean.shape == (2, 1)
        with pytest.raises(ValueError, match="stack"):
            GaussianDist(0.0, 1.0)[0]

    @pytest.mark.parametrize(
        "mean, cov, message",
        [
            ([[0.0, 0.0], [0.0, 0.0]], [np.eye(2), [[1.0, 2.0], [2.0, 1.0]]], "positive definite"),
            ([[0.0, 0.0], [0.0, 0.0]], [np.eye(2), [[1.0, 0.5], [0.2, 1.0]]], "symmetric"),
            ([[0.0], [0.0]], [[[1.0]], [[1.0]], [[1.0]]], "does not match"),
        ],
    )
    def test_one_bad_member_rejects_the_stack(self, mean, cov, message):
        with pytest.raises(ValueError, match=message):
            GaussianDist(mean, cov)

    def test_single_distribution_routines_reject_a_stack(self):
        stack = GaussianDist([[0.0], [1.0]], [[[1.0]], [[2.0]]])
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="stack"):
            stack.sample(rng, 10)
        with pytest.raises(ValueError, match="stack"):
            log_density(stack, [0.0])

    def test_single_pairs_give_floats_and_stacks_broadcast(self):
        p = GaussianDist(0.0, 1.0)
        stack = GaussianDist([[0.0], [1.0], [0.5]], [[[1.0]], [[2.0]], [[0.5]]])
        for divergence in (kl_gaussian, hellinger_sq_gaussian, tv_gaussian):
            assert type(divergence(p, stack[2])) is float
            both_ways = divergence(p, stack), divergence(stack, p)
            for values, pairs in zip(both_ways, ([(p, stack[i]) for i in range(3)], [(stack[i], p) for i in range(3)])):
                assert values.shape == (3,)
                assert list(values) == [divergence(a, b) for a, b in pairs]


class TestLogDensity:
    def test_standard_normal_mode(self):
        assert_allclose(log_density(GaussianDist(0.0, 1.0), [0.0]), -0.5 * np.log(2 * np.pi))

    def test_one_sigma_point(self):
        assert_allclose(log_density(GaussianDist(0.0, 4.0), [2.0]), -0.5 * np.log(8 * np.pi) - 0.5)

    def test_2d_hand_determinant(self):
        # |[[2,1],[1,2]]| = 3 by hand expansion.
        g = GaussianDist([1.0, -1.0], [[2.0, 1.0], [1.0, 2.0]])
        assert_allclose(log_density(g, [1.0, -1.0]), -np.log(2 * np.pi) - 0.5 * np.log(3.0))

    def test_batch_matches_loop(self):
        rng = np.random.default_rng(5)
        g = random_gaussian(rng, 3)
        pts = rng.standard_normal((10, 3))
        batch = log_density(g, pts)
        assert_allclose(batch, [log_density(g, p) for p in pts])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            log_density(GaussianDist(0.0, 1.0), [0.0, 1.0])


class TestKLGaussian:
    def test_identity_is_zero(self):
        rng = np.random.default_rng(0)
        for dim in (1, 2, 4):
            g = random_gaussian(rng, dim)
            assert kl_gaussian(g, g) == 0.0

    def test_variance_mismatch_value(self):
        # 0.5 ln 2 - 1/4, confirmed by the Monte Carlo oracle below.
        got = kl_gaussian(GaussianDist(0.0, 1.0), GaussianDist(0.0, 2.0))
        assert_allclose(got, 0.5 * np.log(2.0) - 0.25, rtol=1e-12)

    def test_mean_shift_value(self):
        assert_allclose(kl_gaussian(GaussianDist(0.0, 1.0), GaussianDist(1.0, 1.0)), 0.5)

    def test_against_mc_oracle(self):
        rng = np.random.default_rng(31)
        p = GaussianDist(0.0, 1.0)
        for q in (GaussianDist(0.0, 2.0), GaussianDist(1.0, 1.0)):
            est, se = mc_kl(
                p.sample, lambda x: log_density(p, x), lambda x, q=q: log_density(q, x), 10**6, rng
            )
            assert abs(kl_gaussian(p, q) - est) < 3 * se

    def test_nonnegative_on_random_pairs(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            dim = int(rng.integers(1, 6))
            assert kl_gaussian(random_gaussian(rng, dim), random_gaussian(rng, dim)) >= 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            kl_gaussian(GaussianDist(0.0, 1.0), GaussianDist([0.0, 0.0], np.eye(2)))


class TestHellinger:
    def test_identical_is_zero(self):
        g = GaussianDist([0.3, -0.2], [[1.5, 0.4], [0.4, 1.0]])
        assert hellinger_sq_gaussian(g, g) == 0.0

    def test_variance_mismatch_value(self):
        # 1 - 2^{1/4} / (3/2)^{1/2} = 0.0290164..., pinned by the quadrature oracle.
        p, q = GaussianDist(0.0, 1.0), GaussianDist(0.0, 2.0)
        expected = 1.0 - 2.0**0.25 / 1.5**0.5
        assert_allclose(hellinger_sq_gaussian(p, q), expected, rtol=1e-12)
        oracle = quadrature_hellinger_sq(
            lambda x: log_density(p, x[:, None]), lambda x: log_density(q, x[:, None]), -20, 20
        )
        assert_allclose(hellinger_sq_gaussian(p, q), oracle, atol=1e-8)

    def test_mean_shift_value(self):
        p, q = GaussianDist(0.0, 1.0), GaussianDist(3.0, 1.0)
        assert_allclose(hellinger_sq_gaussian(p, q), 1.0 - np.exp(-9.0 / 8.0), rtol=1e-12)
        oracle = quadrature_hellinger_sq(
            lambda x: log_density(p, x[:, None]), lambda x: log_density(q, x[:, None]), -20, 23
        )
        assert_allclose(hellinger_sq_gaussian(p, q), oracle, atol=1e-8)

    def test_affinity_ratio_below_one_iff_unequal_covariance(self):
        # Zero-mean pairs isolate the determinant part of the affinity.
        rng = np.random.default_rng(11)
        for _ in range(200):
            dim = int(rng.integers(1, 6))
            p = random_gaussian(rng, dim, mean_scale=0.0)
            q = random_gaussian(rng, dim, mean_scale=0.0)
            assert hellinger_sq_gaussian(p, q) > 0.0
            same = GaussianDist(np.zeros(dim), p.cov)
            assert hellinger_sq_gaussian(p, same) <= 1e-12


class TestTVGaussian:
    def test_identical_is_zero(self):
        for g in (GaussianDist(0.3, 2.0), GaussianDist([0.3, -1.0], [[2.0, 0.4], [0.4, 0.5]])):
            assert tv_gaussian(g, g, "exact", 2001) == 0.0

    def test_equal_variance_closed_form(self):
        p, q = GaussianDist(0.0, 1.0), GaussianDist(1.0, 1.0)
        got = tv_gaussian(p, q, "exact", 8001)
        assert_allclose(got, tv_equal_variance(0.0, 1.0, 1.0), atol=1e-12)
        rng = np.random.default_rng(5)
        for _ in range(50):
            mu1, mu2, sigma = rng.normal(scale=3.0), rng.normal(scale=3.0), rng.uniform(0.1, 5.0)
            got = tv_gaussian(GaussianDist(mu1, sigma**2), GaussianDist(mu2, sigma**2))
            assert_allclose(got, tv_equal_variance(mu1, mu2, sigma), atol=1e-12)
        # Offsets, or ratios of standard deviations, whose square overflows a float.
        for var_p, mu2, var_q in ((1.0, 1e300, 1.0), (1e-4, 1e160, 1e-4), (1e-10, 0.0, 1e300), (1e300, 0.0, 1e-10)):
            got = tv_gaussian(GaussianDist(0.0, var_p), GaussianDist(mu2, var_q))
            want = tv_equal_variance(0.0, mu2, np.sqrt(var_p)) if var_p == var_q else 1.0
            assert got == want == 1.0

    def test_2d_pairs_whose_variance_ratio_overflows_are_apart(self):
        # In p's whitened frame q's first variance is 1e310, past the float
        # range, in one argument order; the TV is 1 to float precision.
        p = GaussianDist([0.0, 0.0], np.diag([1e-10, 1.0]))
        q = GaussianDist([0.0, 0.0], np.diag([1e300, 1.0]))
        assert tv_gaussian(p, q) == 1.0
        assert tv_gaussian(q, p) == pytest.approx(1.0, abs=1e-12)
        # In a stack, the other pairs keep their values.
        near_p, near_q = GaussianDist([0.0, 0.0], np.eye(2)), GaussianDist([0.3, 0.1], np.diag([2.0, 0.5]))
        stack = lambda a, b: GaussianDist(np.stack([a.mean, b.mean]), np.stack([a.cov, b.cov]))
        assert np.array_equal(tv_gaussian(stack(p, near_p), stack(q, near_q)), [1.0, tv_gaussian(near_p, near_q)])

    @pytest.mark.filterwarnings("error")
    def test_2d_pairs_whose_discriminant_would_overflow_are_apart(self):
        # q's offset squares to 1.69e308 and its first variance is 1e306, both
        # finite, but a (log d + ell) in the inner section is about 7e308; in
        # its scaled form the rule stays finite, and the TV is 1 either way round.
        p = GaussianDist([0.0, 0.0], np.eye(2))
        q = GaussianDist([1.3e154, 0.0], np.diag([1e306, 1.0]))
        for a, b in ((p, q), (q, p)):
            assert tv_gaussian(a, b) == pytest.approx(1.0, abs=1e-12)

    def test_equal_covariance_2d_is_mahalanobis_closed_form(self):
        # Equal covariances make log p - log q linear (d = 1 in the whitened
        # frame): TV = 2 Phi(delta / 2) - 1 with delta the Mahalanobis distance.
        rng = np.random.default_rng(6)
        for _ in range(20):
            p = random_gaussian(rng, 2)
            q = GaussianDist(rng.normal(size=2), p.cov)
            delta = np.sqrt((q.mean - p.mean) @ np.linalg.solve(p.cov, q.mean - p.mean))
            assert_allclose(tv_gaussian(p, q), tv_equal_variance(0.0, delta, 1.0), atol=1e-12)

    def test_2d_pair_agreeing_on_one_axis_reduces_to_1d(self):
        p = GaussianDist([0.0, 0.0], [[1.0, 0.0], [0.0, 2.0]])
        for q_mean, q_var in (([0.0, 0.7], [1.0, 0.5]), ([0.7, 0.0], [0.5, 2.0])):
            q = GaussianDist(q_mean, np.diag(q_var))
            axis = 1 if q_var[0] == 1.0 else 0
            marginal = tv_gaussian(
                GaussianDist(0.0, p.cov[axis, axis]), GaussianDist(q_mean[axis], q_var[axis])
            )
            assert_allclose(tv_gaussian(p, q), marginal, atol=1e-12)

    def test_1d_matches_dense_trapezoid(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            p = GaussianDist(rng.normal(scale=2.0), rng.uniform(0.05, 4.0))
            q = GaussianDist(rng.normal(scale=2.0), rng.uniform(0.05, 4.0))
            assert abs(tv_gaussian(p, q) - tv_tensor_quadrature(p, q, 200_001)) < 1e-9

    def test_2d_matches_tensor_quadrature(self):
        rng = np.random.default_rng(8)
        for _ in range(3):
            p, q = random_gaussian(rng, 2), random_gaussian(rng, 2)
            assert abs(tv_gaussian(p, q) - tv_tensor_quadrature(p, q, 4001)) < 1e-7

    def test_2d_converges_in_the_budget(self):
        # The outer rule is split where the section of {p > q} appears or
        # vanishes, so even strongly elongated pairs need no large budget.
        rng = np.random.default_rng(9)
        pairs = []
        for k in range(40):
            stretch = np.diag([1.0, (30.0, 1.0, 1.0 / 30.0)[k % 3]])
            a, b = rng.standard_normal((2, 2)), rng.standard_normal((2, 2)) @ stretch
            p = GaussianDist(rng.normal(scale=3.0, size=2), a @ a.T + 0.01 * np.eye(2))
            q = GaussianDist(rng.normal(size=2), b @ b.T + 0.01 * np.eye(2))
            pairs.append((p, q))
        # q's variances at the documented floor of 1e-12 of p's.
        pairs.append((GaussianDist([0.0, 0.0], np.eye(2)), GaussianDist([0.3, 0.1], 1e-12 * np.eye(2))))
        for p, q in pairs:
            coarse, fine = tv_gaussian(p, q, budget=2001), tv_gaussian(p, q, budget=40_001)
            assert abs(coarse - fine) < 1e-12

    def test_pinsker_specific_pair(self):
        p, q = GaussianDist(0.0, 1.0), GaussianDist(0.3, 1.1)
        tv = tv_gaussian(p, q, "exact", 4001)
        assert tv <= np.sqrt(kl_gaussian(p, q) / 2.0)

    def test_exact_vs_monte_carlo(self):
        rng = np.random.default_rng(23)
        for dim in (1, 2):
            for _ in range(5):
                (m1, c1), (m2, c2) = perturbed_pair(rng, dim)
                p, q = GaussianDist(m1, c1), GaussianDist(m2, c2)
                exact = tv_gaussian(p, q, "exact", 2001)
                mc, se = mc_tv(p.sample, lambda x: log_density(p, x), lambda x: log_density(q, x), 40_000, rng)
                assert abs(exact - mc) < 3 * se + 1e-4

    def test_exact_rejects_high_dim(self):
        g = GaussianDist(np.zeros(3), np.eye(3))
        with pytest.raises(ValueError, match="dimension 3"):
            tv_gaussian(g, g, "exact", 101)

    @pytest.mark.parametrize("method", ["quadrature", "monte_carlo"])
    def test_quadrature_method_is_gone(self, method):
        g = GaussianDist(0.0, 1.0)
        with pytest.raises(ValueError, match="unknown method"):
            tv_gaussian(g, g, method, 101)

    def test_normal_cdf_matches_scipy(self):
        # The TV's numpy-only normal CDF against scipy's ndtr. Below about -37.5
        # the CDF is subnormal, where scipy flushes to 0: hence the absolute floor.
        from scipy.special import ndtr

        x = np.concatenate([np.linspace(-38.0, 38.0, 100_001), [0.0, -0.0, np.inf, -np.inf]])
        assert_allclose(_ndtr(x), ndtr(x), rtol=1e-12, atol=np.finfo(float).tiny)
        assert np.isnan(_ndtr(np.nan))

    def test_normal_cdf_keeps_the_shape(self):
        assert _ndtr(0.5).shape == ()
        x = np.array([[-40.0, -9.0, -1.2], [0.3, 2.0, 40.0]])
        assert_allclose(_ndtr(x), [[_ndtr(v) for v in row] for row in x], rtol=0.0, atol=0.0)

    @pytest.mark.parametrize("block", [None, 5000])
    def test_stacked_2d_rule_matches_each_pair(self, monkeypatch, block):
        # A stack whose outer rules have one, two and three pieces, and one pair
        # whose inner coordinate has no kink (q's variance equals p's there):
        # each member is its pair's TV computed alone, also when the stack
        # runs in blocks of two pairs.
        if block is not None:
            monkeypatch.setattr(gaussians, "_TV_BLOCK", block)
        rng = np.random.default_rng(5)
        mean = np.vstack([rng.normal(scale=1.5, size=(40, 2)), [2.0, 0.0]])
        var = np.vstack([np.exp(rng.uniform(-3.0, 3.0, size=(40, 2))), [1.0, 0.25]])
        p = GaussianDist(np.zeros_like(mean), np.broadcast_to(np.eye(2), (len(mean), 2, 2)))
        q = GaussianDist(mean, var[:, :, None] * np.eye(2))
        mu, s = _tv_frame(p, q)
        j, _, used = _outer_pieces(mu, s)
        assert set(np.sum(used, axis=-1) - 1) == {1, 2, 3}
        assert np.take_along_axis(s, j, axis=-1)[-1, 0] == 1.0
        stacked = tv_gaussian(p, q, budget=2001)
        alone = [tv_gaussian(p[i], q[i], budget=2001) for i in range(len(mean))]
        assert np.max(np.abs(stacked - alone)) <= 1e-15


class TestGridDensity:
    def test_normalization_invariant(self):
        x = np.linspace(-8, 8, 1001)
        g = GridDensity.from_gaussian(GaussianDist(0.0, 1.0), x)
        assert abs(g.integral() - 1.0) < 1e-8

    def test_large_log_weights_are_stabilized(self):
        x = np.linspace(-5, 5, 501)
        big = GridDensity.from_log_unnormalized(x, 5000.0 - 0.5 * x**2)
        assert abs(big.integral() - 1.0) < 1e-8

    def test_rejects_non_finite_log_weights(self):
        x = np.linspace(-1, 1, 11)
        with pytest.raises(ValueError, match="finite"):
            GridDensity.from_log_unnormalized(x, np.full(11, -np.inf))

    def test_rejects_non_uniform_axis(self):
        x = np.array([0.0, 0.1, 0.3, 0.6])
        with pytest.raises(ValueError, match="uniform"):
            GridDensity(x, np.zeros(4))

    def test_constructor_and_classmethod_agree(self):
        # One construction path: the normalizer is computed, never passed.
        for x in (np.linspace(-4.0, 5.0, 101), np.linspace([-4.0, 0.0], [5.0, 1.0], 101, axis=-1)):
            lw = -np.abs(x - 0.4) - x**2
            built, normalized = GridDensity(x, lw), GridDensity.from_log_unnormalized(x, lw)
            assert np.array_equal(built.normalizer, normalized.normalizer)
            assert np.array_equal(built.log_pdf(), normalized.log_pdf())
            assert np.array_equal(built.moments(), normalized.moments())
        with pytest.raises(TypeError):
            GridDensity(x, lw, 0.0)

    def test_moments_match_source(self):
        x = np.linspace(-9, 11, 2001)
        g = GridDensity.from_gaussian(GaussianDist(1.0, 2.0), x)
        mean, var = g.moments()
        assert_allclose(mean, 1.0, atol=1e-9)
        assert_allclose(var, 2.0, atol=1e-8)

    def test_gaussian_log_density_derivatives(self):
        # The log density of N(m, s2) has derivative -(x - m)/s2 and second derivative -1/s2.
        m, s2 = 0.5, 2.0
        grid = GridDensity.from_gaussian(GaussianDist(m, s2), np.linspace(m - 12.0, m + 12.0, 4001))
        pts = m + np.random.default_rng(4).uniform(-3.0, 3.0, size=20)
        vals, grads, hess = grid.log_pdf_and_grad_at(pts)
        assert grads.shape == hess.shape == pts.shape
        assert_allclose(vals, log_density(GaussianDist(m, s2), pts[:, None]), atol=1e-6)
        assert_allclose(grads, -(pts - m) / s2, atol=1e-5)
        assert_allclose(hess, np.full(20, -1.0 / s2), atol=1e-4)

    @pytest.mark.parametrize("rows", [5, 1])
    def test_spline_matches_scipy_cubic_spline(self, rows):
        # Random-walk rows on random axes plus one row with a kink, against
        # scipy's default (not-a-knot) CubicSpline of each row's log density:
        # value, first and second derivative within 1e-9 of the row's scale.
        from scipy.interpolate import CubicSpline

        rng = np.random.default_rng(11)
        centre, half = rng.normal(size=rows), rng.uniform(0.5, 3.0, size=rows)
        x = np.linspace(centre - half, centre + half, 301, axis=-1)
        y = 0.1 * np.cumsum(rng.normal(size=x.shape), axis=-1) - x**2
        y[0] = -3.0 * np.abs(x[0] - centre[0] - 0.123) - x[0] ** 2
        pts = rng.uniform(x[:, :1], x[:, -1:], size=(rows, 40))
        pts[:, :3] = x[:, [0, -1, 17]]
        grid = GridDensity.from_log_unnormalized(x, y)
        if rows == 1:
            grid, pts = GridDensity.from_log_unnormalized(x[0], y[0]), pts[0]
        got = grid.log_pdf_and_grad_at(pts)
        for i in range(rows):
            spline = CubicSpline(x[i], np.atleast_2d(grid.log_pdf())[i])
            for nu, values in enumerate(got):
                want = spline(np.atleast_2d(pts)[i], nu)
                scale = max(1.0, np.max(np.abs(want)))
                assert np.max(np.abs(np.atleast_2d(values)[i] - want)) <= 1e-9 * scale, (i, nu)

    @pytest.mark.parametrize("num", [4, 5, 6, 301])
    def test_member_major_slopes_match_scipy_node_slopes(self, num):
        # Each row's slopes per unit node index are scipy's not-a-knot
        # CubicSpline derivatives at the nodes times the step.
        from scipy.interpolate import CubicSpline

        rng = np.random.default_rng(num)
        x = np.linspace(-1.0, 2.0, num)
        y = np.cumsum(rng.normal(size=(7, num)), axis=-1) - x**2
        slopes = gaussians._not_a_knot_slopes(y)
        assert slopes.shape == y.shape
        for row, got in zip(y, slopes):
            want = CubicSpline(x, row)(x, 1) * (x[1] - x[0])
            assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))

    def test_moments_of_a_stack_hold_one_chunk_at_a_time(self):
        # Beside the stack's own arrays, its moments take at most one
        # stack-sized array plus one chunk.
        import tracemalloc

        x = np.linspace(np.linspace(-5.0, -4.0, 64), np.linspace(5.0, 6.0, 64), 2001, axis=-1)
        stack = GridDensity.from_log_unnormalized(x, -0.5 * x**2)
        stack_bytes, chunk_bytes = x.nbytes, 8 * gaussians._ROW_CHUNK
        assert chunk_bytes < stack_bytes / 4
        tracemalloc.start()
        try:
            stack.moments()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < stack_bytes + chunk_bytes

    def test_stack_members_match_single_densities(self):
        x = np.linspace([-3.0, 0.0], [4.0, 1.0], 201, axis=-1)
        stack = GridDensity.from_log_unnormalized(x, -np.abs(x - 0.4) - x**2)
        assert stack.normalizer.shape == (2,)
        pts = np.linspace(x[:, 3], x[:, -4], 9, axis=-1)
        other = GridDensity.from_log_unnormalized(x, -0.5 * x**2)
        for i in range(2):
            single = GridDensity.from_log_unnormalized(x[i], -np.abs(x[i] - 0.4) - x[i] ** 2)
            assert single.normalizer == stack.normalizer[i]
            for got, want in zip(stack.log_pdf_and_grad_at(pts), single.log_pdf_and_grad_at(pts[i])):
                assert np.array_equal(got[i], want)
            assert [m[i] for m in stack.moments()] == list(single.moments())
            single_other = GridDensity.from_log_unnormalized(x[i], -0.5 * x[i] ** 2)
            assert kl_grid(stack, other)[i] == kl_grid(single, single_other)
            assert tv_grid(stack, other)[i] == tv_grid(single, single_other)

    def test_listed_members_match_the_full_evaluation(self):
        # Any subset of members, in any order, gives those rows of a full
        # evaluation bit for bit; a single density is member 0 of a stack of one.
        rng = np.random.default_rng(12)
        centre = rng.normal(size=5)
        x = np.linspace(centre - 2.0, centre + 3.0, 301, axis=-1)
        y = -np.abs(x - 0.3) - x**2
        stack = GridDensity.from_log_unnormalized(x, y)
        pts = rng.uniform(x[:, :1], x[:, -1:], size=(5, 40))
        full = stack.log_pdf_and_grad_at(pts)
        rows = np.array([3, 0, 4])
        for got, want in zip(stack.log_pdf_and_grad_at(pts[rows], rows), full):
            assert got.shape == (3, 40) and np.array_equal(got, want[rows])
        single = GridDensity.from_log_unnormalized(x[2], y[2])
        for got, want in zip(single.log_pdf_and_grad_at(pts[2:3], [0]), single.log_pdf_and_grad_at(pts[2])):
            assert np.array_equal(got[0], want)
        with pytest.raises(ValueError, match="shape"):
            stack.log_pdf_and_grad_at(pts[:2], rows)
        with pytest.raises(ValueError, match="support"):
            stack.log_pdf_and_grad_at(pts[[1]] + 6.0, [1])

    def test_stacked_points_must_match_the_stack(self):
        stack = GridDensity.from_log_unnormalized(np.linspace([0.0, 0.0], [1.0, 2.0], 11, axis=-1), np.zeros((2, 11)))
        with pytest.raises(ValueError, match="shape"):
            stack.log_pdf_and_grad_at(np.full(3, 0.5))
        with pytest.raises(ValueError, match="support"):
            stack.log_pdf_and_grad_at(np.array([[0.5], [2.5]]))

    def test_trapezoid_weights_sum_to_box_volume(self):
        assert_allclose(trapezoid_weights(np.linspace(0, 2, 21)).sum(), 2.0, rtol=1e-12)


class TestGridDivergences:
    def test_kl_grid_self_is_zero(self):
        x = np.linspace(-10, 10, 1001)
        g = GridDensity.from_gaussian(GaussianDist(0.0, 1.0), x)
        assert abs(kl_grid(g, g)) < 1e-10

    def test_kl_grid_matches_analytic(self):
        x = np.linspace(-10, 10, 4001)
        p = GridDensity.from_gaussian(GaussianDist(0.0, 1.0), x)
        q = GridDensity.from_gaussian(GaussianDist(0.0, 2.0), x)
        assert abs(kl_grid(p, q) - kl_gaussian(GaussianDist(0.0, 1.0), GaussianDist(0.0, 2.0))) < 1e-6

    def test_kl_grid_laplace_vs_gaussian_mc_oracle(self):
        x = np.linspace(-14, 14, 8001)
        lap = GridDensity.from_log_unnormalized(x, -np.log(2.0) - np.abs(x))
        gau = GridDensity.from_gaussian(GaussianDist(0.0, 2.0), x)
        rng = np.random.default_rng(3)
        est, se = mc_kl(
            lambda r, num: r.laplace(size=(num, 1)),
            lambda x: -np.log(2.0) - np.abs(x[:, 0]),
            lambda x: log_density(GaussianDist(0.0, 2.0), x),
            10**6,
            rng,
        )
        assert abs(kl_grid(lap, gau) - est) < 3 * se

    def test_tv_grid_equal_variance_closed_form(self):
        x = np.linspace(-10, 10, 8001)
        p = GridDensity.from_gaussian(GaussianDist(0.0, 1.0), x)
        q = GridDensity.from_gaussian(GaussianDist(1.0, 1.0), x)
        assert abs(tv_grid(p, q) - tv_equal_variance(0.0, 1.0, 1.0)) < 1e-6

    def test_tv_grid_mixture_vs_mc_oracle(self):
        x = np.linspace(-12, 12, 8001)

        def log_mix(x):
            x = np.asarray(x)
            a = -0.5 * np.log(2 * np.pi) - 0.5 * (x + 2.0) ** 2
            b = -0.5 * np.log(2 * np.pi) - 0.5 * (x - 2.0) ** 2
            return np.logaddexp(a, b) - np.log(2.0)

        p = GridDensity.from_log_unnormalized(x, log_mix(x))
        q = GridDensity.from_gaussian(GaussianDist(0.0, 5.0), x)

        def sample_mix(rng, num):
            comp = rng.integers(0, 2, size=num)
            return (rng.standard_normal((num, 1)) + np.where(comp, 2.0, -2.0)[:, None])

        rng = np.random.default_rng(9)
        est, se = mc_tv(
            sample_mix,
            lambda x: log_mix(x[:, 0]),
            lambda x: log_density(GaussianDist(0.0, 5.0), x),
            10**6,
            rng,
        )
        assert abs(tv_grid(p, q) - est) < 3 * se

    def test_axis_mismatch_rejected(self):
        p = GridDensity.from_gaussian(GaussianDist(0.0, 1.0), np.linspace(-5, 5, 101))
        q = GridDensity.from_gaussian(GaussianDist(0.0, 1.0), np.linspace(-6, 6, 101))
        with pytest.raises(ValueError, match="axes"):
            kl_grid(p, q)
        with pytest.raises(ValueError, match="axes"):
            tv_grid(p, q)
