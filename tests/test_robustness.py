"""Expected-KL robustness criteria, optimal tempering, and their limits."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from alphapost.gaussians import GaussianDist, kl_gaussian
from alphapost.meanfield import gmf_project_gaussian
from alphapost.robustness import (
    FiniteSampleInputs,
    MisspecScenario,
    a_n,
    exact_expected_kl,
    limit_alpha_star,
    limit_alpha_tilde,
    optimal_alpha,
    optimal_alpha_tilde,
    optimized_limit_kl,
    optimized_limit_kl_var,
    r_infinity,
    r_star,
    r_tilde_star,
)

from oracles import golden_min, surrogate_via_kl


def random_scenario(rng, dim=None):
    dim = dim or int(rng.integers(1, 5))
    a = rng.standard_normal((dim, dim))
    v = a @ a.T + (0.5 + rng.uniform()) * np.eye(dim)
    b = rng.standard_normal((dim, dim))
    omega = b @ b.T + (0.5 + rng.uniform()) * np.eye(dim)
    theta0 = rng.normal(size=dim)
    theta_star = theta0 + rng.normal(scale=0.7, size=dim)
    s = MisspecScenario(theta0, theta_star, v, omega, eps=float(rng.uniform(0.5, 3.0)))
    n = int(rng.integers(20, 2000))
    f = FiniteSampleInputs(
        theta_star + rng.normal(scale=0.1, size=dim),
        theta0 + rng.normal(scale=0.1, size=dim),
        n,
        eps_n=float(rng.uniform(0.0, 0.5)) / n * 5.0,
    )
    return s, f


def unit_scenario(eps=1.0):
    return MisspecScenario([1.0], [0.0], [[1.0]], [[1.0]], eps)


class TestValidation:
    def test_scenario_requires_spd_curvature(self):
        with pytest.raises(ValueError, match="V"):
            MisspecScenario([0.0], [0.0], [[-1.0]], [[1.0]], 1.0)
        # Asymmetric V or Omega, whose lower triangle alone is positive definite.
        asymmetric = [[1.0, 5.0], [0.0, 1.0]]
        with pytest.raises(ValueError, match="^V must be symmetric$"):
            MisspecScenario([0.0, 0.0], [0.0, 0.0], asymmetric, np.eye(2), 1.0)
        with pytest.raises(ValueError, match="^Omega must be symmetric$"):
            MisspecScenario([0.0, 0.0], [0.0, 0.0], np.eye(2), asymmetric, 1.0)

    def test_scenario_requires_positive_eps(self):
        with pytest.raises(ValueError, match="eps"):
            MisspecScenario([0.0], [0.0], [[1.0]], [[1.0]], 0.0)

    @pytest.mark.parametrize(
        "args",
        [
            ([np.nan], [0.0], [[1.0]], [[1.0]], 1.0),
            ([0.0], [np.nan], [[1.0]], [[1.0]], 1.0),
            ([0.0], [0.0], [[np.nan]], [[1.0]], 1.0),
            ([0.0], [0.0], [[1.0]], [[np.nan]], 1.0),
            ([0.0], [0.0], [[1.0]], [[1.0]], np.nan),
        ],
    )
    def test_scenario_rejects_nan(self, args):
        with pytest.raises(ValueError, match="finite"):
            MisspecScenario(*args)

    @pytest.mark.parametrize("f, g", [([np.nan], [0.0]), ([0.0], [np.nan])])
    def test_inputs_reject_nan_estimates(self, f, g):
        with pytest.raises(ValueError, match="finite"):
            FiniteSampleInputs(f, g, 10, 0.1)

    def test_inputs_require_probability_eps_n(self):
        with pytest.raises(ValueError, match="eps_n"):
            FiniteSampleInputs([0.0], [0.0], 10, 1.5)


class TestAn:
    def test_no_misspecification_weight(self):
        s, f = unit_scenario(), FiniteSampleInputs([0.0], [0.0], 100, 0.0)
        v = np.array([[2.0, 0.3], [0.3, 1.0]])
        s2 = MisspecScenario([0.0, 0.0], [0.0, 0.0], v, np.eye(2), 1.0)
        assert_allclose(a_n(v, s2, FiniteSampleInputs(np.zeros(2), np.zeros(2), 100, 0.0)), 2.0)
        assert_allclose(a_n(s.V, s, f), 1.0)

    def test_hand_arithmetic(self):
        s = unit_scenario()
        f = FiniteSampleInputs([1.0], [0.0], 100, 0.01)
        assert_allclose(a_n(np.eye(1), s, f), 2.0, rtol=1e-14)

    def test_diagonal_v_coincidence(self):
        rng = np.random.default_rng(6)
        v = np.diag(rng.uniform(0.5, 2.0, size=3))
        s = MisspecScenario(np.zeros(3), rng.normal(size=3), v, np.eye(3), 1.0)
        f = FiniteSampleInputs(rng.normal(size=3), rng.normal(size=3), 50, 0.02)
        assert_allclose(a_n(np.diag(np.diag(v)), s, f), a_n(v, s, f), rtol=1e-14)


class TestSurrogateCriteria:
    def test_zero_at_alpha_one_without_misspecification(self):
        s = unit_scenario()
        f = FiniteSampleInputs([0.3], [0.0], 100, 0.0)
        assert r_star(1.0, s, f) == pytest.approx(0.0, abs=1e-14)

    def test_two_routes_agree_on_random_scenarios(self):
        rng = np.random.default_rng(14)
        alphas = (0.2, 0.7, 1.0, 1.8)
        for _ in range(100):
            s, f = random_scenario(rng)
            for alpha in alphas:
                assert abs(r_star(alpha, s, f) - surrogate_via_kl(alpha, s, f, s.V)) < 1e-10
                assert abs(r_tilde_star(alpha, s, f) - surrogate_via_kl(alpha, s, f, s.V_tilde)) < 1e-10
            # A vector of alphas gives each alpha's value.
            for criterion in (r_star, r_tilde_star):
                assert np.array_equal(criterion(np.array(alphas), s, f), [criterion(a, s, f) for a in alphas])

    def test_diagonal_v_makes_both_criteria_equal(self):
        rng = np.random.default_rng(15)
        v = np.diag(rng.uniform(0.5, 2.0, size=2))
        s = MisspecScenario(np.zeros(2), np.ones(2), v, np.eye(2), 1.0)
        f = FiniteSampleInputs(np.ones(2), np.zeros(2), 200, 0.005)
        for alpha in (0.3, 1.0, 2.0):
            assert_allclose(r_star(alpha, s, f), r_tilde_star(alpha, s, f), rtol=1e-12)

    def test_rejects_nonpositive_alpha(self):
        s, f = unit_scenario(), FiniteSampleInputs([0.0], [0.0], 10, 0.1)
        with pytest.raises(ValueError, match="alpha"):
            r_star(0.0, s, f)

    def test_rejects_alpha_of_another_length_than_the_stack(self):
        s = unit_scenario()
        f = FiniteSampleInputs(np.zeros((3, 1)), np.ones((3, 1)), 10, 0.1)
        for criterion in (r_star, r_tilde_star):
            with pytest.raises(ValueError, match=r"^alpha: one value, or one per member \(3\), got 2$"):
                criterion([0.5, 1.0], s, f)
            assert criterion([0.5, 1.0, 2.0], s, f).shape == (3,)

    def test_convexity_second_differences(self):
        rng = np.random.default_rng(16)
        grid = np.linspace(0.05, 4.0, 60)
        for _ in range(50):
            s, f = random_scenario(rng)
            for fn in (r_star, r_tilde_star):
                vals = np.array([fn(a, s, f) for a in grid])
                assert np.all(np.diff(vals, 2) > -1e-9)


class TestOptimalAlpha:
    def test_correct_specification_means_no_tempering(self):
        s = unit_scenario()
        f = FiniteSampleInputs([0.0], [0.0], 100, 0.0)
        assert optimal_alpha(s, f) == pytest.approx(1.0, rel=1e-14)

    def test_hand_value_and_numeric_argmin(self):
        s = unit_scenario()
        f = FiniteSampleInputs([1.0], [0.0], 100, 0.01)
        assert optimal_alpha(s, f) == pytest.approx(0.5, rel=1e-14)
        numeric = golden_min(lambda a: surrogate_via_kl(a, s, f, s.V), 1e-6, 10.0)
        assert abs(optimal_alpha(s, f) - numeric) < 1e-6

    def test_closed_form_matches_golden_section_on_random_scenarios(self):
        rng = np.random.default_rng(18)
        for _ in range(50):
            s, f = random_scenario(rng)
            closed = optimal_alpha(s, f)
            numeric = golden_min(lambda a: surrogate_via_kl(a, s, f, s.V), 1e-6, 50.0)
            assert abs(closed - numeric) < 1e-6

    def test_diagonal_v_equates_both_optima(self):
        rng = np.random.default_rng(19)
        v = np.diag(rng.uniform(0.5, 2.0, size=3))
        s = MisspecScenario(np.zeros(3), np.ones(3), v, np.eye(3), 1.0)
        f = FiniteSampleInputs(np.ones(3), np.zeros(3), 100, 0.01)
        assert_allclose(optimal_alpha_tilde(s, f), optimal_alpha(s, f), rtol=1e-14)


class TestLimits:
    def test_no_gap_and_diagonal_curvature_give_one(self):
        s = MisspecScenario([1.0, 2.0], [1.0, 2.0], np.diag([2.0, 0.5]), np.eye(2), 1.5)
        assert limit_alpha_star(s) == 1.0
        assert limit_alpha_tilde(s) == pytest.approx(1.0, rel=1e-14)

    def test_unit_example_with_numeric_cross_check(self):
        s = unit_scenario(eps=1.0)
        assert limit_alpha_star(s) == pytest.approx(0.5, rel=1e-14)
        numeric = golden_min(lambda a: r_infinity(a, 1, 1.0, 1.0), 1e-6, 10.0)
        assert abs(limit_alpha_star(s) - numeric) < 1e-6

    def test_strictly_below_one_under_misspecification(self):
        rng = np.random.default_rng(20)
        for _ in range(100):
            s, _ = random_scenario(rng)
            d = s.d
            if float(d @ s.V @ d) > 0:
                assert limit_alpha_star(s) < 1.0
            off_diag = s.V - np.diag(np.diag(s.V))
            if float(d @ s.V_tilde @ d) > 0 or np.any(off_diag):
                assert limit_alpha_tilde(s) < 1.0

    def test_finite_n_converges_to_limit(self):
        s = MisspecScenario([1.0, 0.5], [0.2, 0.1], [[2.0, 0.6], [0.6, 1.0]], [[1.5, 0.2], [0.2, 0.8]], 2.0)
        n = 10**6
        f = FiniteSampleInputs.at_population_limits(s, n)
        assert abs(optimal_alpha(s, f) - limit_alpha_star(s)) < 1e-4
        assert abs(optimal_alpha_tilde(s, f) - limit_alpha_tilde(s)) < 1e-4


class TestRInfinity:
    def test_untempered_value_is_half_eps_dquad(self):
        # 2 * r_infinity(1) equals eps * d'Vd: the untempered criterion's limit.
        for eps, dq in ((1.0, 1.0), (2.0, 0.3), (0.5, 4.0)):
            assert_allclose(r_infinity(1.0, 1, eps, dq), 0.5 * eps * dq, rtol=1e-14)

    def test_zero_without_misspecification(self):
        assert r_infinity(1.0, 3, 1.0, 0.0) == 0.0

    def test_argmin_matches_limit_alpha(self):
        s = unit_scenario(eps=2.0)
        d_quad = float(s.d @ s.V @ s.d)
        numeric = golden_min(lambda a: r_infinity(a, s.p, s.eps, d_quad), 1e-6, 10.0)
        assert abs(numeric - limit_alpha_star(s)) < 1e-6

    def test_tempered_beats_untempered_strictly(self):
        s = unit_scenario(eps=1.5)
        d_quad = float(s.d @ s.V @ s.d)
        assert r_infinity(limit_alpha_star(s), 1, s.eps, d_quad) < r_infinity(1.0, 1, s.eps, d_quad)


class TestOptimizedLimits:
    def test_zero_without_misspecification(self):
        s = MisspecScenario([1.0], [1.0], [[2.0]], [[1.0]], 1.0)
        assert optimized_limit_kl(s) == pytest.approx(0.0, abs=1e-14)
        assert optimized_limit_kl_var(s) == pytest.approx(0.0, abs=1e-14)

    def test_equals_r_infinity_at_optimum(self):
        rng = np.random.default_rng(25)
        for _ in range(50):
            s, _ = random_scenario(rng)
            d_quad = float(s.d @ s.V @ s.d)
            sub = r_infinity(limit_alpha_star(s), s.p, s.eps, d_quad)
            assert abs(optimized_limit_kl(s) - sub) < 1e-12

    def test_logarithmic_growth_vs_linear(self):
        base = unit_scenario()
        for scale in (2.0, 4.0, 8.0):
            s = MisspecScenario([scale], [0.0], [[1.0]], [[1.0]], 1.0)
            assert 2.0 * r_infinity(1.0, 1, 1.0, scale**2) == pytest.approx(scale**2, rel=1e-14)
            growth = optimized_limit_kl(s) - optimized_limit_kl(base)
            assert growth <= 1 * np.log(4.0) / 2.0 * np.log2(scale) + 1e-12


class TestExactExpectedKL:
    def test_zero_when_reported_equals_regular(self):
        post = GaussianDist(0.0, 0.01)
        assert exact_expected_kl(GaussianDist(0.3, 0.02), post, post, 0.0) == 0.0

    def test_weights_interpolate(self):
        true_post = GaussianDist(0.3, 0.02)
        alpha_post = GaussianDist(0.0, 0.02)
        std_post = GaussianDist(0.05, 0.01)
        k1 = kl_gaussian(true_post, alpha_post)
        k2 = kl_gaussian(std_post, alpha_post)
        got = exact_expected_kl(true_post, alpha_post, std_post, 0.3)
        assert_allclose(got, 0.3 * k1 + 0.7 * k2, rtol=1e-14)

    def test_mean_field_report_goes_in_as_it_is(self):
        true_post = GaussianDist([0.3, -0.1], [[0.02, 0.004], [0.004, 0.03]])
        std_post = GaussianDist([0.05, 0.0], [[0.01, 0.003], [0.003, 0.02]])
        q = gmf_project_gaussian(GaussianDist([0.1, 0.05], [[0.04, 0.01], [0.01, 0.05]]))
        got = exact_expected_kl(true_post, q, std_post, 0.3)
        assert_allclose(got, 0.3 * kl_gaussian(true_post, q) + 0.7 * kl_gaussian(std_post, q), rtol=1e-14)

    def test_stacked_report_broadcasts(self):
        true_post, std_post = GaussianDist(0.3, 0.02), GaussianDist(0.05, 0.01)
        alpha_posts = GaussianDist([[0.0], [0.1]], [[[0.02]], [[0.04]]])
        got = exact_expected_kl(true_post, alpha_posts, std_post, 0.3)
        assert list(got) == [exact_expected_kl(true_post, alpha_posts[i], std_post, 0.3) for i in range(2)]

    def test_rejects_bad_eps_n(self):
        g = GaussianDist(0.0, 1.0)
        with pytest.raises(ValueError, match="eps_n"):
            exact_expected_kl(g, g, g, -0.1)
