"""The omitted-variable regression example: its draws, estimators and probes."""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from alphapost import regression
from alphapost.experiments import ExperimentConfig, _location_stats
from alphapost.meanfield import gmf_project_gaussian
from alphapost.posteriors import ConjugatePrior, SufficientStats, conjugate_alpha_posterior
from alphapost.regression import (
    RegressionDGP,
    assumption2_terms,
    concentration_markov_bound,
    curvature,
    derived_seed,
    derived_seeds,
    failure_case_hellinger,
    lan_residual_sup,
    misspec_scenario,
    ols,
    population_omega,
    pseudo_true,
    regression_likelihood,
    simulate,
    simulate_stats,
    true_posterior_theta,
    variational_conjugate_cov,
)
from alphapost.robustness import FiniteSampleInputs, a_n, optimal_alpha, r_infinity, r_star

from oracles import (
    einsum_likelihood,
    lan_mesh_sup,
    lan_residual,
    lan_terms,
    normal_tail_two_sided,
    sample_stats,
    seed_sequence_seed,
    simulate_rows,
    stack_stats,
)


def toy_dgp(**kw):
    base = dict(
        theta0=[1.0], gamma0=[1.0], sigma_eps=1.0, cov_ww=[[1.0]], cov_wz=[[0.5]], cov_zz=[[1.0]]
    )
    base.update(kw)
    return RegressionDGP(**base)


class TestRegressionDGP:
    def test_default_sigma_u_is_projection_residual_sd(self):
        dgp = toy_dgp()
        assert_allclose(dgp.sigma_u, np.sqrt(1.0 + (1.0 - 0.25)), rtol=1e-14)

    def test_rejects_non_spd_covariance_of_w_and_z(self):
        with pytest.raises(ValueError, match="^cov_ww, cov_wz, cov_zz: .* must be positive definite$"):
            toy_dgp(cov_wz=[[1.5]])

    def test_rejects_a_derived_sigma_u_of_zero(self):
        with pytest.raises(ValueError, match="sigma_eps, gamma0"):
            toy_dgp(gamma0=[0.0], sigma_eps=0.0)
        assert toy_dgp(gamma0=[0.0], sigma_eps=0.0, sigma_u=1.0).sigma_u == 1.0

    def test_rejects_an_error_variance_that_overflows(self):
        # sigma_eps^2 overflows a float; given sigma_u, it is still the model's error variance.
        for sigma_u in (None, 1.0):
            with pytest.raises(ValueError, match="^sigma_eps: 1e[+]200 is too large"):
                toy_dgp(sigma_eps=1e200, sigma_u=sigma_u)
        with pytest.raises(ValueError, match="^sigma_eps, gamma0: the derived sigma_u is not finite"):
            toy_dgp(sigma_eps=1.2e154, gamma0=[1.2e154])
        assert toy_dgp(sigma_eps=1e150).sigma_u > 0.0
        with pytest.raises(ValueError, match="^sigma_u: 1e[+]300 is too large"):
            toy_dgp(sigma_u=1e300)
        for name in ("sigma_eps", "sigma_u"):
            with pytest.raises(ValueError, match=f"^{name}: must be finite"):
                toy_dgp(**{name: float("nan")})

    def test_rejects_nonpositive_sigma_u(self):
        with pytest.raises(ValueError, match="sigma_u"):
            toy_dgp(sigma_u=0.0)

    def test_rejects_a_sigma_u_whose_curvature_overflows(self):
        # 1 / sigma_u^2 divides by zero at 1e-300 and overflows at 1e-160; at 1e-154 it is finite.
        for sigma_u in (1e-300, 1e-160):
            with pytest.raises(ValueError, match=f"^sigma_u: {sigma_u!r} is too small: 1 / sigma_u\\^2 is not finite$"):
                toy_dgp(sigma_u=sigma_u)
        assert toy_dgp(sigma_u=1e-154).sigma_u == 1e-154
        with pytest.raises(ValueError, match="^sigma_eps, gamma0: the derived sigma_u .* is too small"):
            toy_dgp(gamma0=[0.0], sigma_eps=1e-160)


# Masters and keys of one, two and several 32-bit words.
MASTERS = (0, 1, 2**31 - 2, 2**32, 2**40 + 5, 2**64 + 3, 2**128, 2**130 + 7)
KEYS = ((), (7,), (2**32,), (200, 0), (2**33 + 1,), (5, 2**40, 3))


class TestDerivedSeeds:
    @pytest.mark.parametrize("master", MASTERS)
    def test_seeds_are_numpys(self, master):
        for key in KEYS:
            assert derived_seed(master, *key) == seed_sequence_seed(master, *key), key
            seeds = derived_seeds(master, *key, replications=40)
            assert seeds.dtype == np.uint32
            assert seeds.tolist() == [seed_sequence_seed(master, *key, rep) for rep in range(40)], key
            assert [derived_seed(master, *key, rep) for rep in (0, 39)] == seeds[[0, -1]].tolist()

    @settings(derandomize=True, deadline=None, max_examples=60, database=None)
    @given(
        st.integers(0, 2**140),
        st.lists(st.integers(0, 2**70), max_size=3),
        st.integers(0, 6),
    )
    def test_any_master_and_key_give_numpys_seeds(self, master, key, replications):
        assert derived_seed(master, *key) == seed_sequence_seed(master, *key)
        seeds = derived_seeds(master, *key, replications=replications)
        assert seeds.tolist() == [seed_sequence_seed(master, *key, rep) for rep in range(replications)]

    def test_streams_are_numpys(self):
        # The derived seeds come as one uint32 array, other seeds as integers of any word count.
        for seeds in (derived_seeds(3, 200, replications=60), [0, 5, 2**32 - 1, 2**32, 2**64 + 3, 2**100, 6]):
            streams, generator = regression._stream_words(seeds), regression._generator_of()
            assert streams.shape == (len(seeds), 4)
            for words, seed in zip(streams, seeds):
                expected = np.random.default_rng(seed).standard_normal(1000)
                assert np.array_equal(generator(words).standard_normal(1000), expected), seed

    def test_negative_master_or_key_is_refused_as_numpy_does(self):
        for master, key in ((-1, ()), (-1, (5,)), (3, (-5,)), (3, (5, -1))):
            with pytest.raises(ValueError):
                seed_sequence_seed(master, *key)
            with pytest.raises(ValueError, match="non-negative"):
                derived_seed(master, *key)
            with pytest.raises(ValueError, match="non-negative"):
                derived_seeds(master, *key, replications=3)
        with pytest.raises(ValueError, match="non-negative"):
            simulate(toy_dgp(), 10, -1)

    def test_refuses_more_replications_than_one_key_word_holds(self):
        for replications in (2**32, 2**40, -1):
            with pytest.raises(ValueError, match=r"^replications: must lie in \[0, 4294967295\]"):
                derived_seeds(0, 5, replications=replications)
        assert derived_seeds(0, 5, replications=0).shape == (0,)


class TestSimulate:
    def test_bit_reproducible(self):
        dgp = toy_dgp()
        a = simulate(dgp, 100, 7)
        b = simulate(dgp, 100, 7)
        assert a.n == b.n == 100 and np.array_equal(a.gram, b.gram)

    @pytest.mark.parametrize("p, d", [(1, 1), (2, 1), (1, 3)])
    def test_is_member_zero_of_the_one_seed_stack(self, p, d):
        dgp = equicorrelated_dgp(p, d, 1.0)
        for n in (p + d, 333):
            stats, stack = simulate(dgp, n, 41), simulate_stats(dgp, n, [41])
            assert not stats.stacked and stats.n == stack.n == n
            assert np.array_equal(stats.gram, stack.gram[0])

    def test_no_omitted_variable_means_unbiased_ols(self):
        dgp = toy_dgp(gamma0=[0.0])
        ests = []
        for rep in range(500):
            stats = simulate(dgp, 200, derived_seed(1, 200, rep))
            ests.append(ols(stats.first_columns(dgp.p))[0])
        se = np.std(ests, ddof=1) / np.sqrt(len(ests))
        assert abs(np.mean(ests) - 1.0) < 3 * se

    def test_empirical_covariance_matches_population(self):
        dgp = toy_dgp()
        stats = simulate(dgp, 10**5, 3)
        emp = stats.xtx / stats.n
        assert np.linalg.norm(emp - np.block([[dgp.cov_ww, dgp.cov_wz], [dgp.cov_wz.T, dgp.cov_zz]])) < 0.02

    def test_noiseless_is_exact(self):
        dgp = toy_dgp(gamma0=[0.0], sigma_eps=0.0, sigma_u=1.0)
        w = simulate(dgp, 50, 11).first_columns(dgp.p)
        # Y = W theta0 exactly: the coefficients, and a residual sum of squares of 0 up to rounding.
        assert_allclose(ols(w), dgp.theta0, atol=1e-12)
        yty = w.gram[..., w.k, w.k]
        assert abs(yty - w.xty @ dgp.theta0) <= 1e-12 * yty

    def test_rejects_tiny_sample(self):
        with pytest.raises(ValueError, match="at least"):
            simulate(toy_dgp(), 1, 0)


def equicorrelated_dgp(p, d, sigma_eps):
    k = p + d
    cov = 0.3 * np.ones((k, k)) + 0.7 * np.eye(k)
    return RegressionDGP(
        theta0=np.linspace(1.0, -0.5, p),
        gamma0=np.linspace(0.8, 0.2, d),
        sigma_eps=sigma_eps,
        cov_ww=cov[:p, :p],
        cov_wz=cov[:p, p:],
        cov_zz=cov[p:, p:],
    )


class TestSimulateStats:
    @pytest.mark.parametrize("p, d", [(1, 1), (2, 1), (1, 3)])
    @pytest.mark.parametrize("sigma_eps", [1.0, 0.0])
    def test_matches_the_statistics_of_the_sample(self, p, d, sigma_eps):
        dgp = equicorrelated_dgp(p, d, sigma_eps)
        for n in (p + d, 50, 10**4):
            for seed in (3, derived_seed(17, n, 1)):
                drawn = simulate_stats(dgp, n, [seed])
                assert drawn.n == n and drawn.gram.shape == (1, p + d + 1, p + d + 1)
                w, z, y = simulate_rows(dgp, n, seed)
                exact = sample_stats(np.hstack([w, z]), y).gram
                assert np.max(np.abs(drawn.gram[0] - exact)) <= 1e-12 * np.max(np.abs(exact))
                assert np.array_equal(drawn.gram[0], drawn.gram[0].T)

    def test_a_stack_equals_its_members(self):
        dgp = equicorrelated_dgp(2, 1, 1.0)
        seeds = [derived_seed(5, 200, rep) for rep in range(6)]
        stack = simulate_stats(dgp, 200, seeds)
        assert stack.gram.shape == (6, 4, 4)
        for member, seed in zip(stack.gram, seeds):
            assert np.array_equal(member, simulate_stats(dgp, 200, [seed]).gram[0])

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_any_worker_count_gives_the_same_stack(self, monkeypatch, workers):
        real_block, threads = regression._standard_block, set()

        def block(dgp, n, rng):
            threads.add(threading.current_thread())
            return real_block(dgp, n, rng)

        cases = [(p, d, n) for p, d in ((1, 1), (2, 1)) for n in (p + d, 1000, 10**4)]
        seeds = [derived_seed(12, rep) for rep in range(7)]
        default = [simulate_stats(equicorrelated_dgp(p, d, 1.0), n, seeds).gram for p, d, n in cases]
        monkeypatch.setattr(regression, "_standard_block", block)
        monkeypatch.setattr(regression, "_draw_workers", lambda normals: workers)
        # Frequent thread switches, so that a slot written twice or lost would show.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for (p, d, n), expected in zip(cases, default):
                threads.clear()
                assert np.array_equal(simulate_stats(equicorrelated_dgp(p, d, 1.0), n, seeds).gram, expected)
                assert len(threads) == workers
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_any_worker_count_gives_the_same_location_stack(self, monkeypatch, workers):
        cfg = ExperimentConfig(seed=5, replications=7, model="laplace-location", theta_true=0.3, noise_sd=2.0)
        default = [_location_stats(cfg, n).gram for n in (1, 1000, 10**4)]
        monkeypatch.setattr(regression, "_draw_workers", lambda normals: workers)
        for n, expected in zip((1, 1000, 10**4), default):
            assert np.array_equal(_location_stats(cfg, n).gram, expected)
        # The caller's np.errstate holds in every worker: an overflowing sample is named, not warned of.
        cfg.noise_sd = 1e300
        with pytest.raises(ValueError, match="^theta_true, noise_sd: .* n = 10000 is not finite$"):
            _location_stats(cfg, 10**4)

    @pytest.mark.parametrize("serial", [True, False], ids=["one-worker", "default-workers"])
    def test_keeps_one_raw_block_alive(self, monkeypatch, serial):
        import tracemalloc

        dgp, n = toy_dgp(), 10**4
        seeds = [derived_seed(9, n, rep) for rep in range(100)]
        block_bytes = (dgp.p + dgp.d + 1) * n * 8
        if serial:
            monkeypatch.setattr(regression, "_draw_workers", lambda normals: 1)
        workers = regression._draw_workers(block_bytes // 8)
        tracemalloc.start()
        try:
            simulate_stats(dgp, n, seeds)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # One raw block per worker, the caller's thread among them.
        assert peak < (workers + 2) * block_bytes

    @pytest.mark.parametrize("workers", [1, 3])
    def test_rejects_a_tiny_sample_and_no_seeds(self, monkeypatch, workers):
        # Before any draw: no thread starts.
        monkeypatch.setattr(regression, "_draw_workers", lambda normals: workers)
        monkeypatch.setattr(regression, "_standard_block", None)
        with pytest.raises(ValueError, match=r"^n must be at least p \+ d$"):
            simulate_stats(toy_dgp(), 1, [0, 1, 2])
        with pytest.raises(ValueError, match="at least one sample"):
            simulate_stats(toy_dgp(), 10, [])


class TestOLS:
    def test_hand_arithmetic(self):
        assert_allclose(ols(sample_stats(np.ones(3), [1.0, 2.0, 3.0])), [2.0], rtol=1e-14)

    def test_exact_on_noiseless_data(self):
        rng = np.random.default_rng(2)
        w = rng.standard_normal((30, 2))
        theta = np.array([1.5, -0.5])
        assert_allclose(ols(sample_stats(w, w @ theta)), theta, atol=1e-12)

    def test_matches_flat_prior_posterior_mean(self):
        dgp = toy_dgp()
        stats = simulate(dgp, 300, 5)
        post = conjugate_alpha_posterior(stats.first_columns(dgp.p), ConjugatePrior.flat(1), dgp.sigma_u, 0.7)
        assert_allclose(ols(stats.first_columns(dgp.p)), post.mean, rtol=1e-10)

    def test_rank_deficiency_rejected(self):
        w = np.ones((10, 2))
        with pytest.raises(ValueError, match="rank"):
            ols(sample_stats(w, np.ones(10)))

    def test_near_collinear_design_rejected(self):
        # The second column is the first plus 3e-8 of another: X'X still has
        # a Cholesky factor, but its second pivot is rounding noise.
        rng = np.random.default_rng(8)
        w, z = rng.standard_normal(50), rng.standard_normal(50)
        stats = sample_stats(np.column_stack([w, w + 3e-8 * z]), w)
        np.linalg.cholesky(stats.xtx)
        with pytest.raises(ValueError, match="design matrix is rank deficient"):
            ols(stats)


class TestPseudoTrue:
    def test_uncorrelated_omitted_regressor(self):
        assert_allclose(pseudo_true(toy_dgp(cov_wz=[[0.0]])), [1.0])

    def test_scalar_arithmetic(self):
        dgp = toy_dgp(cov_wz=[[0.5]], gamma0=[2.0])
        assert_allclose(pseudo_true(dgp), [2.0], rtol=1e-14)

    def test_ols_is_consistent_for_pseudo_true(self):
        dgp = toy_dgp()
        w, _, y = simulate_rows(dgp, 10**5, 13)
        theta_hat = ols(sample_stats(w, y))
        resid = y - w @ theta_hat
        robust_se = np.sqrt(((w[:, 0] * resid) ** 2).sum()) / (w[:, 0] @ w[:, 0])
        assert abs(theta_hat[0] - pseudo_true(dgp)[0]) < 3 * robust_se


class TestCurvature:
    def test_identity_case(self):
        assert_allclose(curvature(toy_dgp(sigma_u=1.0)), [[1.0]])

    def test_doubling_sigma_u_quarters_curvature(self):
        assert_allclose(curvature(toy_dgp(sigma_u=2.0)), curvature(toy_dgp(sigma_u=1.0)) / 4.0)

    def test_empirical_gram_matches(self):
        dgp = toy_dgp()
        stats = simulate(dgp, 10**5, 17)
        emp = stats.first_columns(dgp.p).xtx / (stats.n * dgp.sigma_u**2)
        assert np.linalg.norm(emp - curvature(dgp)) < 0.02


class TestPopulationOmega:
    def test_schur_complement_value(self):
        # cov_ww - cov_wz cov_zz^{-1} cov_wz' = 0.75 here.
        assert_allclose(population_omega(toy_dgp()), [[1.0 / 0.75]], rtol=1e-14)

    def test_matches_true_posterior_scale(self):
        dgp = toy_dgp()
        stats = simulate(dgp, 10**5, 23)
        _, omega_hat = true_posterior_theta(stats, ConjugatePrior.flat(2), dgp.sigma_eps, dgp.p)
        assert np.linalg.norm(omega_hat - population_omega(dgp)) < 0.05

    def test_scenario_bundle(self):
        s = misspec_scenario(toy_dgp(), eps=2.0)
        assert s.eps == 2.0
        assert_allclose(s.theta_star, [1.5])
        assert_allclose(s.V, curvature(toy_dgp()))


class TestLanResidual:
    def test_oracle_is_zero_at_origin(self):
        stats = simulate(toy_dgp(), 100, 3)
        assert lan_residual(stats, toy_dgp(), [0.0]) == 0.0

    def test_oracle_is_the_log_likelihood_ratio_defect(self):
        # Against the raw log-likelihood-ratio defect at theta_star + h / sqrt(n).
        dgp = toy_dgp()
        v = curvature(dgp)
        theta_star = pseudo_true(dgp)
        rng = np.random.default_rng(29)
        for _ in range(10):
            stats = simulate(dgp, int(rng.integers(50, 500)), int(rng.integers(10**6)))
            h = rng.normal(scale=2.0, size=1)
            delta = np.sqrt(stats.n) * (ols(stats.first_columns(dgp.p)) - theta_star)
            lik = regression_likelihood(stats.first_columns(dgp.p), dgp.sigma_u)
            ll = lik(np.vstack([theta_star + h / np.sqrt(stats.n), theta_star]))
            direct = float(ll[0] - ll[1] - h @ v @ delta + 0.5 * h @ v @ h)
            assert abs(lan_residual(stats, dgp, h) - direct) < 1e-10

    def test_sup_at_one_coordinate_is_the_13_node_mesh_sup_bit_for_bit(self):
        # At p = 1 the sup sits at a vertex, which the mesh contains.
        dgp = toy_dgp()
        stack = simulate_stats(dgp, 200, [derived_seed(5, rep) for rep in range(40)])
        hs = np.linspace(-3.0, 3.0, 13)[:, None]
        batch = lan_residual(stack, dgp, hs)
        assert_allclose(batch, np.transpose([lan_residual(stack, dgp, h) for h in hs]), rtol=1e-12, atol=1e-12)
        assert np.array_equal(lan_residual_sup(stack, dgp), np.max(np.abs(batch), axis=-1))
        assert lan_residual_sup(stack[3], dgp) == float(np.max(np.abs(batch[3])))

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
    def test_sup_is_never_below_the_13_node_mesh(self, p):
        dgp = design(p)
        for n in (50, 1000, 10**4):
            stack = simulate_stats(dgp, n, [derived_seed(41, n, rep) for rep in range(8 if p == 5 else 30)])
            sup, mesh = lan_residual_sup(stack, dgp), lan_mesh_sup(stack, dgp, 13)
            assert np.all(sup >= mesh)
            # The mesh misses interior extrema by a fraction of a percent.
            assert np.all(sup <= mesh * 1.01)

    @pytest.mark.parametrize("p, nodes", [(1, 200_001), (2, 801)])
    def test_sup_agrees_with_a_dense_mesh(self, p, nodes):
        # |f(x) - f(y)| <= max |grad f|_1 |x - y|_inf, and every point of the box
        # lies within half a spacing of a node; grad f = Q (Delta - h).
        dgp = design(p)
        stack = simulate_stats(dgp, 400, [derived_seed(43, rep) for rep in range(10)])
        q, delta = lan_terms(stack, dgp)
        grad = np.sum(np.abs(np.einsum("sij,sj->si", q, delta)), axis=-1) + 3.0 * np.sum(np.abs(q), axis=(-2, -1))
        mesh = lan_mesh_sup(stack, dgp, nodes)
        sup = lan_residual_sup(stack, dgp)
        assert np.all(sup >= mesh)
        assert np.all(sup - mesh <= grad * 3.0 / (nodes - 1))

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_sup_is_zero_where_the_sample_curvature_is_the_population_one(self, p):
        # W'W / n = cov_ww exactly in binary and sigma_u = 1, so Q_n = 0: every q_FF is singular.
        cov_ww = np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.25], [0.0, 0.25, 1.0]])[:p, :p]
        dgp = RegressionDGP(
            theta0=np.ones(p), gamma0=[1.0], sigma_eps=1.0, cov_ww=cov_ww, cov_wz=np.zeros(p), cov_zz=[[1.0]], sigma_u=1.0
        )
        n = 8
        gram = np.stack([32.0 * np.eye(p + 2)] * 2)  # of [W, Z, Y]
        gram[:, :p, :p] = n * cov_ww
        gram[0, :p, -1] = gram[0, -1, :p] = 1.0
        gram[1, :p, -1] = gram[1, -1, :p] = -2.0
        stack = SufficientStats(n, gram)
        assert np.array_equal(stack.first_columns(p).xtx / n, np.stack([curvature(dgp)] * 2))
        assert np.array_equal(lan_residual_sup(stack, dgp), [0.0, 0.0])

    def test_sup_decays_with_n(self):
        dgp = toy_dgp()
        medians = []
        for n in (100, 1000, 10000):
            sups = [
                lan_residual_sup(simulate(dgp, n, derived_seed(31, n, rep)), dgp)
                for rep in range(50)
            ]
            medians.append(np.median(sups))
        assert medians[0] > medians[1] > medians[2]


class TestAssumption2Terms:
    def test_flat_prior_zeroes_prior_term(self):
        dgp = toy_dgp()
        stats = simulate(dgp, 200, 37)
        post = conjugate_alpha_posterior(stats.first_columns(dgp.p), ConjugatePrior.flat(1), dgp.sigma_u, 0.5)
        prior_term, _ = assumption2_terms(post.mean, post.cov, dgp, ConjugatePrior.flat(1), stats)
        assert prior_term == 0.0

    def test_prior_term_matches_mc_integration(self):
        dgp = toy_dgp()
        prior = ConjugatePrior([0.3], [[1.5]])
        stats = simulate(dgp, 500, 41)
        post = conjugate_alpha_posterior(stats.first_columns(dgp.p), prior, dgp.sigma_u, 0.8)
        prior_term, _ = assumption2_terms(post.mean, post.cov, dgp, prior, stats)
        # Direct Monte Carlo of the prior log-ratio integral.
        theta_star = pseudo_true(dgp)
        mu_bar = np.sqrt(stats.n) * (post.mean - theta_star)
        rng = np.random.default_rng(43)
        h = rng.multivariate_normal(mu_bar, stats.n * post.cov, size=10**6)
        prec = prior.Sigma_pi / dgp.sigma_u**2

        def log_prior_raw(theta):
            gap = theta - prior.mu_pi
            return -0.5 * np.einsum("ni,ij,nj->n", gap, prec, gap)

        vals = log_prior_raw(theta_star + h / np.sqrt(stats.n)) - log_prior_raw(theta_star[None, :])
        se = np.std(vals, ddof=1) / np.sqrt(vals.size)
        assert abs(prior_term - np.mean(vals)) < 3 * se

    def test_terms_decay_with_n(self):
        dgp = toy_dgp()
        prior = ConjugatePrior([0.0], [[1.0]])
        med = {}
        for n in (100, 10000):
            vals = []
            for rep in range(50):
                stats = simulate(dgp, n, derived_seed(47, n, rep))
                post = conjugate_alpha_posterior(stats.first_columns(dgp.p), prior, dgp.sigma_u, 0.5)
                vals.append(np.abs(assumption2_terms(post.mean, post.cov, dgp, prior, stats)))
            med[n] = np.median(vals, axis=0)
        assert np.all(med[10000] < med[100])


class TestVariationalConjugateCov:
    def test_diagonal_design_equals_full_covariance(self):
        dgp = RegressionDGP(
            theta0=[1.0, -1.0],
            gamma0=[0.0],
            sigma_eps=1.0,
            cov_ww=np.eye(2),
            cov_wz=np.zeros((2, 1)),
            cov_zz=[[1.0]],
            sigma_u=1.0,
        )
        w, _, y = simulate_rows(dgp, 400, 53)
        # Make the gram matrix exactly diagonal to hit the coincidence case.
        w[:, 1] -= w[:, 0] * (w[:, 0] @ w[:, 1]) / (w[:, 0] @ w[:, 0])
        stats = sample_stats(w, y)
        prior = ConjugatePrior(np.zeros(2), np.diag([1.0, 2.0]))
        post = conjugate_alpha_posterior(stats, prior, 1.0, 0.5)
        vc = variational_conjugate_cov(stats, prior, 1.0, 0.5)
        assert_allclose(vc.cov, np.diag(np.diag(post.cov)), rtol=1e-10)

    def test_matches_closed_form_projection(self):
        dgp = toy_dgp()
        stats = simulate(dgp, 300, 59)
        prior = ConjugatePrior([0.0], [[1.0]])
        for alpha in (0.25, 1.0):
            post = conjugate_alpha_posterior(stats.first_columns(dgp.p), prior, dgp.sigma_u, alpha)
            vc = variational_conjugate_cov(stats.first_columns(dgp.p), prior, dgp.sigma_u, alpha)
            proj = gmf_project_gaussian(post)
            assert_allclose(vc.mean, proj.mean, rtol=1e-12)
            assert_allclose(vc.cov, proj.cov, rtol=1e-12)

    def test_understates_marginal_variances(self):
        dgp = RegressionDGP(
            theta0=[1.0, -1.0],
            gamma0=[1.0],
            sigma_eps=1.0,
            cov_ww=[[1.0, 0.4], [0.4, 1.0]],
            cov_wz=[[0.5], [0.1]],
            cov_zz=[[1.0]],
        )
        stats = simulate(dgp, 500, 61)
        prior = ConjugatePrior(np.zeros(2), np.eye(2))
        post = conjugate_alpha_posterior(stats.first_columns(dgp.p), prior, dgp.sigma_u, 0.5)
        vc = variational_conjugate_cov(stats.first_columns(dgp.p), prior, dgp.sigma_u, 0.5)
        assert np.all(np.diag(vc.cov) <= np.diag(post.cov) + 1e-15)


class TestTruePosterior:
    def test_flat_prior_recovers_long_ols(self):
        dgp = toy_dgp()
        stats = simulate(dgp, 400, 67)
        marginal, _ = true_posterior_theta(stats, ConjugatePrior.flat(2), dgp.sigma_eps, dgp.p)
        full = ols(stats)
        assert_allclose(marginal.mean, full[:1], rtol=1e-10)

    def test_rejects_a_full_prior_of_another_dimension(self):
        with pytest.raises(ValueError, match="^full prior dimension must be p [+] d$"):
            true_posterior_theta(simulate(toy_dgp(), 50, 1), ConjugatePrior.flat(1), 1.0, 1)

    def test_known_nuisance_collapse(self):
        dgp = toy_dgp()
        w, z, y = simulate_rows(dgp, 400, 71)
        big = 1e12
        prior = ConjugatePrior(
            np.array([0.0, dgp.gamma0[0]]), np.diag([1.0, big])
        )
        marginal, _ = true_posterior_theta(sample_stats(np.hstack([w, z]), y), prior, dgp.sigma_eps, dgp.p)
        adjusted = conjugate_alpha_posterior(
            sample_stats(w, y - z @ dgp.gamma0), ConjugatePrior([0.0], [[1.0]]), dgp.sigma_eps, 1.0
        )
        assert_allclose(marginal.mean, adjusted.mean, atol=1e-6)
        assert_allclose(marginal.cov, adjusted.cov, rtol=1e-5)

    def test_near_collinear_design_rejected(self):
        # Z is W plus 3e-8 of noise: under the flat prior X'X still has a
        # Cholesky factor, but its second pivot is rounding noise.
        rng = np.random.default_rng(8)
        w, z = rng.standard_normal(50), rng.standard_normal(50)
        stats = sample_stats(np.column_stack([w, w + 3e-8 * z]), w)
        np.linalg.cholesky(stats.xtx)
        with pytest.raises(ValueError, match="stacked design is rank deficient given the prior"):
            true_posterior_theta(stats, ConjugatePrior.flat(2), 1.0, 1)

    def test_scaled_covariance_stabilizes(self):
        dgp = toy_dgp()
        omegas = {}
        for n in (1000, 10000):
            stats = simulate(dgp, n, derived_seed(73, n))
            _, omega_hat = true_posterior_theta(stats, ConjugatePrior.flat(2), dgp.sigma_eps, dgp.p)
            omegas[n] = omega_hat
        rel = np.linalg.norm(omegas[10000] - omegas[1000]) / np.linalg.norm(omegas[1000])
        assert rel < 0.05


class TestConcentrationMarkovBound:
    def test_dominates_exact_probability(self):
        dgp = toy_dgp()
        prior = ConjugatePrior([0.0], [[1.0]])
        theta_star = pseudo_true(dgp)
        for rep in range(20):
            stats = simulate(dgp, 500, derived_seed(79, rep))
            post = conjugate_alpha_posterior(stats.first_columns(dgp.p), prior, dgp.sigma_u, 0.5)
            r_n = np.log(stats.n)
            bound = concentration_markov_bound(post.mean, post.cov, theta_star, r_n, stats.n)
            sqrt_n = np.sqrt(stats.n)
            exact = normal_tail_two_sided(
                r_n, sqrt_n * float(post.mean[0] - theta_star[0]), sqrt_n * np.sqrt(post.cov[0, 0])
            )
            assert bound >= exact

    def test_substitution_arithmetic(self):
        # Mean at the target and covariance V^{-1}/(alpha n): bound is tr(V^{-1})/(alpha r^2).
        v_inv = np.array([[0.5, 0.1], [0.1, 0.8]])
        n, alpha, r = 400, 0.5, 3.0
        bound = concentration_markov_bound(
            np.array([1.0, -1.0]), v_inv / (alpha * n), np.array([1.0, -1.0]), r, n
        )
        assert_allclose(bound, np.trace(v_inv) / (alpha * r**2), rtol=1e-14)

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError, match="r_n"):
            concentration_markov_bound([0.0], [[1.0]], [0.0], 0.0, 10)


@pytest.mark.parametrize(
    "routine, args, name",
    [
        (FiniteSampleInputs, ([1.0], [0.5], np.nan, 0.01), "n"),
        (FiniteSampleInputs, ([1.0], [0.5], np.inf, 0.01), "n"),
        (FiniteSampleInputs, ([1.0], [0.5], 2.5, 0.01), "n"),
        (r_infinity, (np.nan, 1, 1.0, 1.0), "alpha"),
        (concentration_markov_bound, ([0.0], [[1.0]], [0.0], np.nan, 10), "r_n"),
        (failure_case_hellinger, (toy_dgp(), ConjugatePrior([0.0], [[1.0]]), np.nan, [50]), "alpha0"),
    ],
)
def test_nan_and_fractional_scalars_are_rejected_by_name(routine, args, name):
    # Each is caught where it enters, under its own name, never passed on as a NaN.
    with pytest.raises(ValueError, match=rf"^{name} must"):
        routine(*args)


class TestFailureCase:
    def test_vanishing_tempering_keeps_gap_positive(self):
        dgp = toy_dgp(cov_ww=[[1.0]], sigma_u=1.0)
        prior = ConjugatePrior([0.0], [[1.0]])
        h2 = failure_case_hellinger(dgp, prior, 1.0, [10**4, 10**5], seed=3)[:, 0]
        assert np.all(h2 > 0.001)
        assert abs(h2[1] - h2[0]) / h2[0] < 0.10

    def test_control_column_is_untempered_gap_on_the_same_sample(self):
        dgp = toy_dgp()
        prior = ConjugatePrior([0.0], [[1.0]])
        from alphapost.gaussians import hellinger_sq_gaussian
        from alphapost.posteriors import gaussian_bvm_limit

        h2 = failure_case_hellinger(dgp, prior, 2.0, [300, 100], seed=5)
        assert h2.shape == (2, 2)
        for row, n in zip(h2, (300, 100)):
            w = simulate_stats(dgp, n, [derived_seed(5, n)]).first_columns(dgp.p)
            lim = gaussian_bvm_limit(ols(w), curvature(dgp), n, 1.0)
            post = conjugate_alpha_posterior(w, prior, dgp.sigma_u, 1.0)
            assert row[1] == hellinger_sq_gaussian(post, lim)[0]
            assert row[0] > row[1]

    def test_constant_tempering_gap_vanishes(self):
        dgp = toy_dgp()
        prior = ConjugatePrior([0.0], [[1.0]])
        from alphapost.gaussians import hellinger_sq_gaussian
        from alphapost.posteriors import gaussian_bvm_limit

        vals = []
        for n in (100, 10**4):
            stats = simulate(dgp, n, derived_seed(83, n))
            post = conjugate_alpha_posterior(stats.first_columns(dgp.p), prior, dgp.sigma_u, 1.0)
            lim = gaussian_bvm_limit(ols(stats.first_columns(dgp.p)), curvature(dgp), n, 1.0)
            vals.append(hellinger_sq_gaussian(post, lim))
        assert vals[1] < vals[0]
        assert vals[1] < 1e-4

    def test_affinity_strictly_below_one_in_failure_case(self):
        # The posterior and would-be limit keep different covariances, so the
        # determinant ratio stays strictly below one.
        dgp = toy_dgp(cov_ww=[[1.0]], sigma_u=1.0)
        prior = ConjugatePrior([0.0], [[1.0]])
        n = 10**4
        stats = simulate(dgp, n, derived_seed(87, n))
        alpha_n = 1.0 / n
        post = conjugate_alpha_posterior(stats.first_columns(dgp.p), prior, dgp.sigma_u, alpha_n)
        from alphapost.posteriors import gaussian_bvm_limit

        lim = gaussian_bvm_limit(ols(stats.first_columns(dgp.p)), curvature(dgp), n, alpha_n)
        mid = (post.cov + lim.cov) / 2.0
        ratio = (
            np.linalg.det(post.cov) ** 0.25
            * np.linalg.det(lim.cov) ** 0.25
            / np.linalg.det(mid) ** 0.5
        )
        assert ratio < 1.0 - 1e-4


class TestPosteriorSequenceScaling:
    def test_scaled_sequences_stay_bounded_across_n(self):
        # 95th percentiles of ||sqrt(n)(mean - pseudo-true)|| and ||n cov||
        # stay within a factor of two across three decades of n.
        dgp = toy_dgp()
        prior = ConjugatePrior([0.0], [[1.0]])
        theta_star = pseudo_true(dgp)
        mean_p95, cov_p95 = [], []
        for n in (100, 1000, 10000):
            mean_norms, cov_norms = [], []
            for rep in range(200):
                stats = simulate(dgp, n, derived_seed(101, n, rep))
                post = conjugate_alpha_posterior(stats.first_columns(dgp.p), prior, dgp.sigma_u, 0.5)
                mean_norms.append(np.sqrt(n) * np.linalg.norm(post.mean - theta_star))
                cov_norms.append(n * np.linalg.norm(post.cov))
            mean_p95.append(np.percentile(mean_norms, 95))
            cov_p95.append(np.percentile(cov_norms, 95))
        assert max(mean_p95) < 2.0 * min(mean_p95), mean_p95
        assert max(cov_p95) < 2.0 * min(cov_p95), cov_p95

    def test_scaled_covariance_converges_to_curvature_inverse(self):
        dgp = toy_dgp()
        prior = ConjugatePrior([0.0], [[1.0]])
        alpha = 0.5
        target = np.linalg.inv(curvature(dgp)) / alpha
        n = 10**4
        errs = []
        for rep in range(100):
            stats = simulate(dgp, n, derived_seed(103, n, rep))
            post = conjugate_alpha_posterior(stats.first_columns(dgp.p), prior, dgp.sigma_u, alpha)
            errs.append(np.linalg.norm(n * post.cov - target) / np.linalg.norm(target))
        assert np.median(errs) < 0.02


class TestRegressionLikelihood:
    def test_matches_direct_evaluation(self):
        dgp = toy_dgp()
        w, _, y = simulate_rows(dgp, 60, 97)
        x = np.random.default_rng(5).normal(0.4, 2.0, 80)
        # The working model of the example, and the location model as a
        # regression on one constant column.
        inputs = [(w, y, dgp.sigma_u), (np.ones((x.size, 1)), x, 2.0)]
        rng = np.random.default_rng(0)
        for design, y, sd in inputs:
            lik = regression_likelihood(sample_stats(design, y), sd)
            for theta in rng.normal(size=(5, 1)):
                resid = y - design @ theta
                direct = -0.5 * y.size * np.log(2 * np.pi * sd**2) - resid @ resid / (2 * sd**2)
                assert_allclose(lik(theta[None, :])[0], direct, rtol=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_products_match_the_einsum_oracle(self, k):
        # One sample and a stack of five, at points around each sample's
        # estimate: the plain products within 1e-12 relative of einsum's.
        rng = np.random.default_rng(k)
        singles = [sample_stats(rng.normal(size=(80, k)), rng.normal(2.0, 3.0, size=80)) for _ in range(5)]
        stack = stack_stats(singles)
        pts = ols(stack)[:, None, :] + rng.normal(scale=0.5, size=(5, 300, k))
        for sd in (1.0, 3.5):
            assert_allclose(regression_likelihood(stack, sd)(pts), einsum_likelihood(stack, sd)(pts), rtol=1e-12)
            single = regression_likelihood(singles[2], sd)
            assert_allclose(single(pts[2]), einsum_likelihood(singles[2], sd)(pts[2]), rtol=1e-12)
            assert_allclose(single(pts[2, 0]), einsum_likelihood(singles[2], sd)(pts[2, 0]), rtol=1e-12)

    def test_rows_of_a_stack_are_the_rows_of_its_full_evaluation(self):
        # A slice of samples, at their own points, gives those rows of a full
        # evaluation bit for bit; points shared by every sample broadcast.
        rng = np.random.default_rng(8)
        stack = stack_stats([sample_stats(np.ones(50), rng.normal(size=50)) for _ in range(6)])
        pts = rng.normal(size=(6, 40, 1))
        lik = regression_likelihood(stack, 1.0)
        full = lik(pts)
        assert np.array_equal(lik(pts[1:4], slice(1, 4)), full[1:4])
        assert np.array_equal(lik(pts[0], slice(2, 5)), lik(np.broadcast_to(pts[0], (6, 40, 1)))[2:5])


def design(p):
    # p observed controls, correlated with each other and with one omitted Z.
    cov_ww = np.full((p, p), 0.3) + 0.7 * np.eye(p)
    return RegressionDGP(
        theta0=np.linspace(1.0, 0.5, p),
        gamma0=[1.0],
        sigma_eps=1.0,
        cov_ww=cov_ww,
        cov_wz=np.full((p, 1), 0.3),
        cov_zz=[[1.0]],
    )


class TestStacksMatchSingleSamples:
    """A stack of R samples gives what R single-sample calls give: exactly at p = 1,
    and within 1e-12 max(1, |v|) at p = 2 and 3."""

    REPS, N = 5, 80

    def setup_samples(self, p):
        dgp = design(p)
        singles = [simulate(dgp, self.N, derived_seed(211, self.N, rep)) for rep in range(self.REPS)]
        return dgp, singles, stack_stats(singles)

    def cells(self, alphas):
        # Each (rep, alpha) cell's replication and alpha, replication-major.
        return np.repeat(np.arange(self.REPS), len(alphas)), np.tile(alphas, self.REPS)

    @staticmethod
    def assert_members(stacked, singles, p):
        stacked, singles = np.asarray(stacked), np.asarray(singles)
        assert stacked.shape == singles.shape
        if p == 1:
            assert np.array_equal(stacked, singles)
        else:
            assert np.all(np.abs(stacked - singles) <= 1e-12 * np.maximum(1.0, np.abs(singles)))

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_estimators_and_posteriors(self, p):
        dgp, singles, stack = self.setup_samples(p)
        prior = ConjugatePrior(np.full(p, 0.2), np.eye(p))
        full_prior = ConjugatePrior(np.zeros(p + 1), np.eye(p + 1))
        short = [s.first_columns(p) for s in singles]
        self.assert_members(ols(stack.first_columns(p)), [ols(s) for s in short], p)
        self.assert_members(ols(stack), [ols(s) for s in singles], p)
        # One member per (rep, alpha) cell: each sample gathered per cell, at its cell's alpha.
        rep, alpha = self.cells([0.25, 0.5, 1.0])
        cells = stack.first_columns(p)[rep]
        post = conjugate_alpha_posterior(cells, prior, dgp.sigma_u, alpha)
        each = [conjugate_alpha_posterior(short[r], prior, dgp.sigma_u, a) for r, a in zip(rep, alpha)]
        self.assert_members(post.mean, [e.mean for e in each], p)
        self.assert_members(post.cov, [e.cov for e in each], p)
        vc = variational_conjugate_cov(cells, prior, dgp.sigma_u, alpha)
        each = [variational_conjugate_cov(short[r], prior, dgp.sigma_u, a) for r, a in zip(rep, alpha)]
        self.assert_members(vc.cov, [e.cov for e in each], p)
        true_post, omega = true_posterior_theta(stack, full_prior, dgp.sigma_eps, p)
        each = [true_posterior_theta(s, full_prior, dgp.sigma_eps, p) for s in singles]
        self.assert_members(true_post.mean, [e[0].mean for e in each], p)
        self.assert_members(true_post.cov, [e[0].cov for e in each], p)
        self.assert_members(omega, [e[1] for e in each], p)

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_probes(self, p):
        dgp, singles, stack = self.setup_samples(p)
        prior = ConjugatePrior(np.full(p, 0.2), np.eye(p))
        # A stacked likelihood takes its own points for each sample.
        pts = np.random.default_rng(p + 10).normal(size=(self.REPS, 6, p))
        self.assert_members(
            regression_likelihood(stack.first_columns(p), dgp.sigma_u)(pts),
            [regression_likelihood(s.first_columns(p), dgp.sigma_u)(x) for s, x in zip(singles, pts)],
            p,
        )
        self.assert_members(lan_residual_sup(stack, dgp), [lan_residual_sup(s, dgp) for s in singles], p)
        post = conjugate_alpha_posterior(stack.first_columns(p), prior, dgp.sigma_u, 0.5)
        each = [conjugate_alpha_posterior(s.first_columns(p), prior, dgp.sigma_u, 0.5) for s in singles]
        terms = assumption2_terms(post.mean, post.cov, dgp, prior, stack)
        single_terms = [assumption2_terms(e.mean, e.cov, dgp, prior, s) for e, s in zip(each, singles)]
        self.assert_members(np.transpose(terms), single_terms, p)
        theta_star = pseudo_true(dgp)
        self.assert_members(
            concentration_markov_bound(post.mean, post.cov, theta_star, np.log(self.N), self.N),
            [concentration_markov_bound(e.mean, e.cov, theta_star, np.log(self.N), self.N) for e in each],
            p,
        )

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_surrogate_criteria(self, p):
        dgp, singles, stack = self.setup_samples(p)
        scenario = misspec_scenario(dgp, 1.0)

        def inputs(stats):
            return FiniteSampleInputs(ols(stats.first_columns(p)), ols(stats)[..., :p], self.N, 1.0 / self.N)

        fin = inputs(stack)
        self.assert_members(a_n(scenario.V, scenario, fin), [a_n(scenario.V, scenario, inputs(s)) for s in singles], p)
        self.assert_members(optimal_alpha(scenario, fin), [optimal_alpha(scenario, inputs(s)) for s in singles], p)
        rep, alpha = self.cells([0.25, 0.5, 1.0])
        self.assert_members(
            r_star(alpha, scenario, inputs(stack[rep])),
            [r_star(a, scenario, inputs(singles[r])) for r, a in zip(rep, alpha)],
            p,
        )

    def test_one_rank_deficient_member_is_rejected(self):
        dgp, singles, _ = self.setup_samples(2)
        w, _, y = simulate_rows(dgp, self.N, 5)
        # The second control copies the first in one replication.
        broken = sample_stats(np.column_stack([w[:, 0], w[:, 0]]), y)
        stack = stack_stats([s.first_columns(2) for s in singles[:2]] + [broken])
        with pytest.raises(ValueError, match="design matrix is rank deficient"):
            ols(stack)
