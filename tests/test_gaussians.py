"""Divergence kernel: closed forms against oracles, invariants on random pairs."""

from functools import partial

import numpy as np
import pytest
from numpy.testing import assert_allclose

from alphapost import gaussians
from alphapost.gaussians import (
    GaussianDist,
    _ndtr,
    _outer_pieces,
    _tv_frame,
    GridAxis,
    GridDensity,
    hellinger_sq_gaussian,
    kl_gaussian,
    kl_grid,
    log_density,
    tv_gaussian,
    tv_grid,
)

from oracles import (
    column_sweep_slopes,
    gaussian_draws,
    mc_kl,
    mc_tv,
    perturbed_pair,
    quadrature_hellinger_sq,
    trapezoid_weights,
    tv_equal_variance,
    tv_tensor_quadrature,
    two_pass_moments,
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
            # A stack of stacks is not a stack.
            (np.zeros((2, 2, 1)), np.ones((2, 2, 1, 1)), "^mean must be a vector or a stack of vectors$"),
        ],
    )
    def test_one_bad_member_rejects_the_stack(self, mean, cov, message):
        with pytest.raises(ValueError, match=message):
            GaussianDist(mean, cov)

    def test_single_distribution_routines_reject_a_stack(self):
        stack = GaussianDist([[0.0], [1.0]], [[[1.0]], [[2.0]]])
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
                partial(gaussian_draws, p), lambda x: log_density(p, x), lambda x, q=q: log_density(q, x), 10**6, rng
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
        # finite, but a (log d + ell) in the inner section would be about
        # 7e308; the Bhattacharyya guard returns 1 before any rule forms it,
        # either way round.
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

    @pytest.mark.parametrize(
        "q_mean, q_sd, converged",
        [
            # Frame sds 4 and 1/4, in the nested rule's range.
            ([0.0, 0.0], [4.0, 0.25], 0.6880834784905218),
            # Frame sds far outside it: refined to the last level of the default budget.
            ([-0.163, 0.573], [3.39e-3, 367.0], 0.9962145413597056),
        ],
    )
    def test_2d_default_budget_reaches_the_converged_value(self, q_mean, q_sd, converged):
        # The converged values are a 160,001-node trapezoid rule's in the same cosine map.
        p, q = GaussianDist([0.0, 0.0], np.eye(2)), GaussianDist(q_mean, np.diag(np.square(q_sd)))
        assert abs(tv_gaussian(p, q) - converged) <= 1e-12

    def test_2d_nested_rule_matches_the_fine_fixed_rule(self, monkeypatch):
        # Pairs with frame sds in [1/8, 8], where each pair stops refining once
        # two levels agree, against the same rule with no early stop, refined
        # to its last level within 40,001 nodes.
        rng = np.random.default_rng(31)
        sd = np.exp(rng.uniform(-np.log(8.0), np.log(8.0), size=(96, 2)))
        # About half of them with zero offset.
        mean = rng.uniform(-6.0, 6.0, size=(96, 2)) * rng.integers(0, 2, size=(96, 1))
        # Zero offsets with s_i s_j = 1, where {p > q} is two cones meeting at the origin.
        sd = np.vstack([sd, [[4.0, 0.25], [np.sqrt(8.0), np.sqrt(0.125)], [np.sqrt(2.0), np.sqrt(0.5)]]])
        mean = np.vstack([mean, np.zeros((3, 2))])
        p = GaussianDist(np.zeros_like(mean), np.broadcast_to(np.eye(2), (len(mean), 2, 2)))
        q = GaussianDist(mean, (sd * sd)[:, :, None] * np.eye(2))
        nested = tv_gaussian(p, q)
        # No frame lies in an empty range, so no pair stops early.
        monkeypatch.setattr(gaussians, "_TV_NESTED_SD", (1.0, 0.0))
        assert np.max(np.abs(nested - tv_gaussian(p, q, budget=40_001))) <= 1e-12

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
                mc, se = mc_tv(
                    partial(gaussian_draws, p), lambda x: log_density(p, x), lambda x: log_density(q, x), 40_000, rng
                )
                assert abs(exact - mc) < 3 * se + 1e-4

    def test_exact_rejects_high_dim(self):
        g = GaussianDist(np.zeros(3), np.eye(3))
        with pytest.raises(ValueError, match="dimension 3"):
            tv_gaussian(g, g, "exact", 101)

    @pytest.mark.parametrize("divergence", [hellinger_sq_gaussian, tv_gaussian])
    def test_rejects_unequal_dimensions(self, divergence):
        with pytest.raises(ValueError, match="^distributions must have equal dimension$"):
            divergence(GaussianDist(0.0, 1.0), GaussianDist([0.0, 0.0], np.eye(2)))

    def test_rejects_a_budget_below_two(self):
        g = GaussianDist([0.0, 0.0], np.eye(2))
        with pytest.raises(ValueError, match="^budget must be a positive integer >= 2$"):
            tv_gaussian(g, g, budget=1)

    @pytest.mark.parametrize("budget", [2001.5, 2.0, "2001"])
    @pytest.mark.parametrize("q_sd", [[1.2, 0.7], [1e3, 1.0], [1.3]])
    def test_rejects_a_budget_that_is_not_an_integer(self, budget, q_sd):
        # On every path: 1-D, and 2-D in and out of the early-stopping range.
        q = GaussianDist(np.full(len(q_sd), 0.2), np.diag(np.square(q_sd)))
        p = GaussianDist(np.zeros(len(q_sd)), np.eye(len(q_sd)))
        with pytest.raises(ValueError, match="^budget must be a positive integer >= 2$"):
            tv_gaussian(p, q, budget=budget)

    def test_2d_budget_of_two_gives_the_first_level(self):
        # The first level, 64 intervals per piece, runs whatever the budget:
        # its value is that of the largest budget that holds no second level.
        p, q = GaussianDist([0.0, 0.0], np.eye(2)), GaussianDist([0.3, 0.1], np.diag([2.0, 0.5]))
        mu, s = _tv_frame(p, q)
        pieces = np.sum(_outer_pieces(mu[None], s[None])[2]) - 1
        coarse = tv_gaussian(p, q, budget=2)
        assert coarse == tv_gaussian(p, q, budget=128 * int(pieces))
        assert np.isfinite(coarse)
        assert abs(coarse - 0.2334139338) <= 1e-5
        assert abs(tv_gaussian(p, q, budget=np.int64(2001)) - 0.2334139338) <= 1e-10

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
            monkeypatch.setattr(gaussians, "_ROW_CHUNK", block)
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


# The guard's threshold: log BC below it puts the TV within 2^-54 of 1.
LOG_BC_APART = -54.0 * np.log(2.0)


def frame_stack(mu, s):
    # p = N(0, I) against q = N(mu, diag(s^2)), for mu and s of shape (k, dim).
    k, dim = mu.shape
    p = GaussianDist(np.zeros((k, dim)), np.broadcast_to(np.eye(dim), (k, dim, dim)))
    return p, GaussianDist(mu, (s * s)[:, :, None] * np.eye(dim))


def offsets_at(log_bc, s, direction):
    # Offsets along ``direction`` (rows) that put each frame's log BC at
    # ``log_bc``; NaN where the sds alone put it lower.
    scale = gaussians._log_bhattacharyya(np.zeros_like(s), s)
    quad = np.sum((direction / np.hypot(1.0, s)) ** 2, axis=-1) / 4.0
    with np.errstate(invalid="ignore"):
        return direction * np.sqrt((scale - log_bc) / quad)[:, None]


class TestTVBhattacharyyaGuard:
    def test_1d_pairs_straddling_the_threshold(self, monkeypatch):
        # Below the threshold the result is exactly 1, and the closed form
        # itself is within 2^-53 of it; above it, the closed form's own value,
        # which rounds to 1 near the threshold and, at s = 1, not at half of it.
        s = np.repeat([1e-8, 0.1, 1.0, 3.0, 1e8], 8)[:, None]
        side = np.tile([-0.5, -0.2, -1e-3, -1e-6, -1e-9, 1e-9, 1e-6, 1e-3], 5)
        mu = offsets_at(LOG_BC_APART * (1.0 + side), s, np.where(np.arange(s.size) % 2, 1.0, -1.0)[:, None])
        p, q = frame_stack(mu, s)
        log_bc = gaussians._log_bhattacharyya(*_tv_frame(p, q))
        apart = log_bc < LOG_BC_APART
        assert np.array_equal(apart, side > 0.0)
        guarded = tv_gaussian(p, q)
        monkeypatch.setattr(gaussians, "_log_bhattacharyya", lambda mu, s: np.zeros(mu.shape[:-1]))
        closed = tv_gaussian(p, q)
        assert np.all(guarded[apart] == 1.0)
        assert np.all(closed[apart] >= 1.0 - 2.0**-53)
        assert np.array_equal(guarded[~apart], closed[~apart])
        assert np.all(closed[(side <= -0.2) & (s[:, 0] == 1.0)] < 1.0)

    def test_2d_pairs_far_apart_never_reach_the_rule(self, monkeypatch):
        # The Le Cam test's pairs at first frame sds of 10^-150 and 10^150,
        # both argument orders: with no pair near, the rule is not called at all.
        def refuse(mu, s, budget):
            raise AssertionError(f"the 2-D rule was called on {len(mu)} pairs, all far apart")

        monkeypatch.setattr(gaussians, "_tv_2d", refuse)
        shift = np.array([0.0, 0.3, 5.0, 0.0, 0.3, 5.0])
        mu = np.column_stack([shift, np.full(6, 0.1)])
        s = np.column_stack([np.repeat([1e-150, 1e150], 3), np.ones(6)])
        p, q = frame_stack(mu, s)
        for a, b in ((p, q), (q, p)):
            assert np.array_equal(tv_gaussian(a, b), np.ones(6))

    @pytest.mark.parametrize("dim", [1, 2])
    def test_sweep_near_the_threshold_raises_no_floating_point_error(self, dim):
        # Frame sds up to 10^+-33 and offsets up to 8 hypot(1, s), at random
        # and placed within +-2 of the threshold; no overflow, division by
        # zero or invalid operation anywhere in the rules.
        rng = np.random.default_rng(32)
        k = 500 if dim == 1 else 100
        s = 10.0 ** rng.uniform(-33.0, 33.0, size=(2 * k, dim))
        direction = rng.uniform(-1.0, 1.0, size=(2 * k, dim))
        mu = 8.0 * np.hypot(1.0, s) * direction
        near = offsets_at(LOG_BC_APART + rng.uniform(-2.0, 2.0, size=k), s[k:], direction[k:])
        keep = np.all(np.abs(near) <= 8.0 * np.hypot(1.0, s[k:]), axis=-1)
        mu[k:][keep] = near[keep]
        p, q = frame_stack(mu, s)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            for a, b in ((p, q), (q, p)):
                tv = tv_gaussian(a, b, budget=2001)
                assert np.all(np.isfinite(tv)) and np.all((0.0 <= tv) & (tv <= 1.0))
        log_bc = gaussians._log_bhattacharyya(*_tv_frame(p, q))
        # Enough of the sweep lies near the threshold, and enough reaches the rules.
        assert np.sum(np.abs(log_bc - LOG_BC_APART) < 2.0) >= k // 4
        assert np.sum(log_bc >= LOG_BC_APART) >= k // 4


class TestGridDensity:
    def test_normalization_invariant(self):
        axis = GridAxis(-8.0, 8.0, 1001)
        g = GridDensity.from_gaussian(GaussianDist(0.0, 1.0), axis)
        assert abs(trapezoid_weights(axis.nodes()) @ g.pdf() - 1.0) < 1e-8

    def test_large_log_weights_are_stabilized(self):
        axis = GridAxis(-5.0, 5.0, 501)
        x = axis.nodes()
        big = GridDensity.from_log_unnormalized(axis, 5000.0 - 0.5 * x**2)
        assert abs(trapezoid_weights(x) @ big.pdf() - 1.0) < 1e-8

    def test_rejects_non_finite_log_weights(self):
        with pytest.raises(ValueError, match="finite"):
            GridDensity.from_log_unnormalized(GridAxis(-1.0, 1.0, 11), np.full(11, -np.inf))

    @pytest.mark.parametrize(
        "x, log_weights, message",
        [
            ((0.0, 1.0, 11), np.zeros(10), r"^log values of shape \(10,\) for a grid of shape \(11,\)$"),
            ((0.0, 1.0, 3), np.zeros(3), "^the grid is one axis of at least four nodes"),
        ],
    )
    def test_rejects_a_malformed_grid(self, x, log_weights, message):
        # x holds the axis's (lo, hi, num).
        with pytest.raises(ValueError, match=message):
            GridDensity(GridAxis(*x), log_weights)

    @pytest.mark.parametrize(
        "build",
        [
            lambda x: GridDensity(x, np.zeros(x.shape)),
            lambda x: GridDensity.from_log_unnormalized(x, np.zeros(x.shape)),
            lambda x: GridDensity.from_gaussian(GaussianDist(0.0, 1.0), x),
        ],
        ids=["constructor", "from_log_unnormalized", "from_gaussian"],
    )
    def test_node_arrays_are_refused(self, build):
        # The grid layer takes a GridAxis only, never an array of its nodes.
        for nodes in (np.linspace(0.0, 1.0, 11), np.linspace([0.0, 1.0], [1.0, 2.0], 11, axis=-1)):
            with pytest.raises(TypeError, match="^the grid axis must be a GridAxis, not ndarray$"):
                build(nodes)

    def test_constructor_and_classmethod_agree(self):
        # One construction path: the normalizer is computed, never passed.
        for axis in (GridAxis(-4.0, 5.0, 101), GridAxis([-4.0, 0.0], [5.0, 1.0], 101)):
            x = axis.nodes()
            lw = -np.abs(x - 0.4) - x**2
            built, normalized = GridDensity(axis, lw), GridDensity.from_log_unnormalized(axis, lw)
            assert np.array_equal(built.normalizer, normalized.normalizer)
            assert np.array_equal(built.log_pdf(), normalized.log_pdf())
            assert np.array_equal(built.moments(), normalized.moments())
        with pytest.raises(TypeError):
            GridDensity(axis, lw, 0.0)

    def test_moments_match_source(self):
        g = GridDensity.from_gaussian(GaussianDist(1.0, 2.0), GridAxis(-9.0, 11.0, 2001))
        mean, var = g.moments()
        assert_allclose(mean, 1.0, atol=1e-9)
        assert_allclose(var, 2.0, atol=1e-8)

    def test_gaussian_log_density_derivatives(self):
        # The log density of N(m, s2) has derivative -(x - m)/s2 and second derivative -1/s2.
        m, s2 = 0.5, 2.0
        grid = GridDensity.from_gaussian(GaussianDist(m, s2), GridAxis(m - 12.0, m + 12.0, 4001))
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
        axis = GridAxis(centre - half, centre + half, 301)
        x = axis.nodes()
        y = 0.1 * np.cumsum(rng.normal(size=x.shape), axis=-1) - x**2
        y[0] = -3.0 * np.abs(x[0] - centre[0] - 0.123) - x[0] ** 2
        pts = rng.uniform(x[:, :1], x[:, -1:], size=(rows, 40))
        pts[:, :3] = x[:, [0, -1, 17]]
        grid = GridDensity.from_log_unnormalized(axis, y)
        if rows == 1:
            grid, pts = GridDensity.from_log_unnormalized(axis[0], y[0]), pts[0]
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

    @pytest.mark.parametrize("members", [1, 7, 160])
    @pytest.mark.parametrize("num", [4, 5, 6, 7, 101, 2001, 2003, 10007])
    def test_blocked_sweep_matches_the_column_sweep(self, num, members):
        # Node counts with and without a ragged tail, blocks of one node up to
        # 71, within 64 rounding units of the largest slope.
        rng = np.random.default_rng(num * members)
        x = np.linspace(-1.0, 2.0, num)
        y = np.cumsum(rng.normal(size=(members, num)), axis=-1) - 3.0 * np.abs(x - 0.3)
        want = column_sweep_slopes(y)
        got = gaussians._not_a_knot_slopes(y)
        assert got.shape == y.shape and got.T.flags.c_contiguous
        assert np.max(np.abs(got - want)) <= 64 * np.finfo(float).eps * np.max(np.abs(want))

    def test_moments_of_a_stack_hold_one_chunk_at_a_time(self):
        # The moments are taken in the pass that normalizes the log weights:
        # beside them, that pass holds a few chunk-sized arrays (the shifted
        # weights, the squared offsets from each member's mean node, numpy's
        # ufunc buffers), never one of the stack's size, and the moments cost
        # nothing afterwards.
        import tracemalloc

        axis = GridAxis(np.linspace(-5.0, -4.0, 160), np.linspace(5.0, 6.0, 160), 2001)
        log_weights = -0.5 * axis.nodes() ** 2
        stack_bytes, chunk_bytes = log_weights.nbytes, 8 * gaussians._ROW_CHUNK
        assert 4 * chunk_bytes < stack_bytes / 2
        tracemalloc.start()
        try:
            stack = GridDensity(axis, log_weights)
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            held, _ = tracemalloc.get_traced_memory()
            stack.moments()
            _, moments_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The moments are two copies of 160 values.
        assert peak < 4 * chunk_bytes and moments_peak - held < 4096

    @pytest.mark.parametrize("members", [1, 3, 40])
    def test_one_pass_moments_match_the_two_pass_oracle(self, members):
        # Random-walk log densities with a kink on random axes, a single
        # density among them: mean and variance within 1e-12 relative.
        rng = np.random.default_rng(members)
        centre = rng.choice([-1.0, 1.0], size=members) * rng.uniform(1.0, 3.0, size=members)
        half = rng.uniform(2.0, 5.0, size=(2, members))
        axis = GridAxis(centre - half[0], centre + half[1], 301)
        x = axis.nodes()
        y = 0.05 * np.cumsum(rng.normal(size=x.shape), axis=-1) - np.abs(x - centre[:, None]) - 0.5 * x**2
        densities = [GridDensity(axis, y)] + ([GridDensity(axis[0], y[0])] if members == 1 else [])
        for density in densities:
            want_mean, want_var = two_pass_moments(density)
            mean, var = density.moments()
            assert_allclose(mean, want_mean, rtol=1e-12, atol=0.0)
            assert_allclose(var, want_var, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("offset", [1e20, -1e20, 2.0**27])
    def test_log_weights_the_normalizer_cannot_resolve_are_rejected(self, offset):
        # Past 2^26 in magnitude float64's spacing exceeds 1e-8, so the log
        # normalizer would not hold the integral to 1 within 1e-8; at 1e20 it
        # would not even register log(mass).
        axis = GridAxis(-5.0, 5.0, 501)
        x = axis.nodes()
        message = r"reach .* in magnitude: past 2\^26, float64 does not resolve the log normalizer"
        with pytest.raises(ValueError, match=message):
            GridDensity.from_log_unnormalized(axis, offset - 0.5 * x**2)
        just_inside = GridDensity.from_log_unnormalized(axis, 2.0**25 - 0.5 * x**2)
        assert abs(trapezoid_weights(x) @ just_inside.pdf() - 1.0) < 1e-8

    @pytest.mark.parametrize(
        "lo, hi, num, message",
        [
            (0.0, np.inf, 11, "^the grid axis must be finite$"),
            (np.nan, 1.0, 11, "^the grid axis must be finite$"),
            (-1e308, 1e308, 11, "^the grid axis must be finite$"),
            (1.0, 1.0, 11, "^the axis must be strictly increasing$"),
            ([0.0, 2.0], [1.0, 1.0], 11, "^the axis must be strictly increasing$"),
            (0.0, 1.0, 3, "^the grid is one axis of at least four nodes"),
            ([0.0, 1.0], [1.0], 11, "^the grid is one axis of at least four nodes"),
            (0.0, 1.0, 4.7, "^the grid's num must be an integer, got 4.7$"),
            (0.0, 1.0, 5.0, "^the grid's num must be an integer, got 5.0$"),
        ],
    )
    def test_axis_end_points_are_checked(self, lo, hi, num, message):
        with pytest.raises(ValueError, match=message):
            GridAxis(lo, hi, num)

    def test_stack_members_match_single_densities(self):
        axis = GridAxis([-3.0, 0.0], [4.0, 1.0], 201)
        x = axis.nodes()
        stack = GridDensity.from_log_unnormalized(axis, -np.abs(x - 0.4) - x**2)
        assert stack.normalizer.shape == (2,)
        pts = np.linspace(x[:, 3], x[:, -4], 9, axis=-1)
        other = GridDensity.from_log_unnormalized(axis, -0.5 * x**2)
        for i in range(2):
            single = GridDensity.from_log_unnormalized(axis[i], -np.abs(x[i] - 0.4) - x[i] ** 2)
            assert single.normalizer == stack.normalizer[i]
            for got, want in zip(stack.log_pdf_and_grad_at(pts), single.log_pdf_and_grad_at(pts[i])):
                assert np.array_equal(got[i], want)
            assert [m[i] for m in stack.moments()] == list(single.moments())
            single_other = GridDensity.from_log_unnormalized(axis[i], -0.5 * x[i] ** 2)
            assert kl_grid(stack, other)[i] == kl_grid(single, single_other)
            assert tv_grid(stack, other)[i] == tv_grid(single, single_other)

    def test_listed_members_match_the_full_evaluation(self):
        # Any subset of members, in any order, gives those rows of a full
        # evaluation bit for bit; a single density is member 0 of a stack of one.
        rng = np.random.default_rng(12)
        centre = rng.normal(size=5)
        axis = GridAxis(centre - 2.0, centre + 3.0, 301)
        x = axis.nodes()
        y = -np.abs(x - 0.3) - x**2
        stack = GridDensity.from_log_unnormalized(axis, y)
        pts = rng.uniform(x[:, :1], x[:, -1:], size=(5, 40))
        full = stack.log_pdf_and_grad_at(pts)
        rows = np.array([3, 0, 4])
        for got, want in zip(stack.log_pdf_and_grad_at(pts[rows], rows), full):
            assert got.shape == (3, 40) and np.array_equal(got, want[rows])
        single = GridDensity.from_log_unnormalized(axis[2], y[2])
        for got, want in zip(single.log_pdf_and_grad_at(pts[2:3], [0]), single.log_pdf_and_grad_at(pts[2])):
            assert np.array_equal(got[0], want)
        with pytest.raises(ValueError, match="shape"):
            stack.log_pdf_and_grad_at(pts[:2], rows)
        with pytest.raises(ValueError, match="support"):
            stack.log_pdf_and_grad_at(pts[[1]] + 6.0, [1])

    def test_stacked_points_must_match_the_stack(self):
        stack = GridDensity.from_log_unnormalized(GridAxis([0.0, 0.0], [1.0, 2.0], 11), np.zeros((2, 11)))
        with pytest.raises(ValueError, match="shape"):
            stack.log_pdf_and_grad_at(np.full(3, 0.5))
        with pytest.raises(ValueError, match="support"):
            stack.log_pdf_and_grad_at(np.array([[0.5], [2.5]]))

    def test_trapezoid_weights_sum_to_box_volume(self):
        assert_allclose(trapezoid_weights(np.linspace(0, 2, 21)).sum(), 2.0, rtol=1e-12)


class TestGridDivergences:
    def test_kl_grid_self_is_zero(self):
        g = GridDensity.from_gaussian(GaussianDist(0.0, 1.0), GridAxis(-10.0, 10.0, 1001))
        assert abs(kl_grid(g, g)) < 1e-10

    def test_kl_grid_matches_analytic(self):
        x = GridAxis(-10.0, 10.0, 4001)
        p = GridDensity.from_gaussian(GaussianDist(0.0, 1.0), x)
        q = GridDensity.from_gaussian(GaussianDist(0.0, 2.0), x)
        assert abs(kl_grid(p, q) - kl_gaussian(GaussianDist(0.0, 1.0), GaussianDist(0.0, 2.0))) < 1e-6

    def test_kl_grid_laplace_vs_gaussian_mc_oracle(self):
        axis = GridAxis(-14.0, 14.0, 8001)
        lap = GridDensity.from_log_unnormalized(axis, -np.log(2.0) - np.abs(axis.nodes()))
        gau = GridDensity.from_gaussian(GaussianDist(0.0, 2.0), axis)
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
        x = GridAxis(-10.0, 10.0, 8001)
        p = GridDensity.from_gaussian(GaussianDist(0.0, 1.0), x)
        q = GridDensity.from_gaussian(GaussianDist(1.0, 1.0), x)
        assert abs(tv_grid(p, q) - tv_equal_variance(0.0, 1.0, 1.0)) < 1e-6

    def test_tv_grid_mixture_vs_mc_oracle(self):
        axis = GridAxis(-12.0, 12.0, 8001)

        def log_mix(x):
            x = np.asarray(x)
            a = -0.5 * np.log(2 * np.pi) - 0.5 * (x + 2.0) ** 2
            b = -0.5 * np.log(2 * np.pi) - 0.5 * (x - 2.0) ** 2
            return np.logaddexp(a, b) - np.log(2.0)

        p = GridDensity.from_log_unnormalized(axis, log_mix(axis.nodes()))
        q = GridDensity.from_gaussian(GaussianDist(0.0, 5.0), axis)

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
        p = GridDensity.from_gaussian(GaussianDist(0.0, 1.0), GridAxis(-5.0, 5.0, 101))
        q = GridDensity.from_gaussian(GaussianDist(0.0, 1.0), GridAxis(-6.0, 6.0, 101))
        with pytest.raises(ValueError, match="axes"):
            kl_grid(p, q)
        with pytest.raises(ValueError, match="axes"):
            tv_grid(p, q)

    def test_axes_are_equal_when_their_ends_and_node_counts_are(self):
        # Two separately built axes with equal (lo, hi, num) are one axis; ends
        # one ulp apart, or another node count, are not.
        g = GaussianDist(0.0, 1.0)
        p = GridDensity.from_gaussian(g, GridAxis(-5.0, 5.0, 101))
        q = GridDensity.from_gaussian(GaussianDist(0.5, 2.0), GridAxis(-5.0, 5.0, 101))
        assert kl_grid(p, q) > 0.0 and tv_grid(p, q) > 0.0
        stack = GridDensity.from_log_unnormalized(GridAxis([-5.0, -1.0], [5.0, 1.0], 101), np.zeros((2, 101)))
        same = GridDensity.from_log_unnormalized(GridAxis([-5.0, -1.0], [5.0, 1.0], 101), np.ones((2, 101)))
        assert_allclose(tv_grid(stack, same), [0.0, 0.0], rtol=0.0, atol=1e-15)
        for other in (
            GridAxis(-5.0, np.nextafter(5.0, 6.0), 101),
            GridAxis(np.nextafter(-5.0, -6.0), 5.0, 101),
            GridAxis(-5.0, 5.0, 102),
        ):
            off = GridDensity.from_gaussian(g, other)
            with pytest.raises(ValueError, match="^grid densities must share identical axes$"):
                kl_grid(p, off)
            with pytest.raises(ValueError, match="^grid densities must share identical axes$"):
                tv_grid(p, off)
        with pytest.raises(ValueError, match="^grid densities must share identical axes$"):
            tv_grid(stack, GridDensity.from_log_unnormalized(GridAxis([-5.0], [5.0], 101), np.zeros((1, 101))))
