"""Property-based checks of the divergence inequalities, the surrogate criteria and the LAN defect's sup.

Gaussians are drawn on a coarse lattice (means in steps of 1/4, Cholesky
factors with entries in steps of 1/4 and diagonals in [1/4, 2]), so two draws
are either identical or clearly apart, and no draw is near-singular.
Hypothesis runs derandomized, so every run checks the same examples.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from alphapost.gaussians import GaussianDist, hellinger_sq_gaussian, kl_gaussian, tv_gaussian
from alphapost.meanfield import gmf_project_gaussian, variational_bvm_limit
from alphapost.posteriors import (
    ConjugatePrior,
    conjugate_alpha_posterior,
    gaussian_bvm_limit,
    laplace_location_divergences,
)
from alphapost.regression import _lan_box_sup
from alphapost.robustness import FiniteSampleInputs, MisspecScenario, r_star, r_tilde_star

from oracles import sample_stats, stack_stats, surrogate_via_kl

PROPERTY = settings(derandomize=True, deadline=None, max_examples=60, database=None)

# Rounding allowance for the exact TV (1-d closed form, 2-d inner closed form):
# on this lattice it meets the bounds below with no excess at all.
TV_SLACK = 1e-12


def lattice(draw, shape, lo, hi):
    # An array of the given shape with entries k / 4 for integers lo <= k <= hi.
    size = int(np.prod(shape))
    return np.array(draw(st.lists(st.integers(lo, hi), min_size=size, max_size=size))).reshape(shape) / 4.0


@st.composite
def gaussians(draw, dim):
    mean = lattice(draw, (dim,), -16, 16)
    chol = np.tril(lattice(draw, (dim, dim), -4, 4), -1) + np.diag(lattice(draw, (dim,), 1, 8))
    return GaussianDist(mean, chol @ chol.T)


@st.composite
def gaussian_pairs(draw, dims=(1, 2, 3)):
    dim = draw(st.sampled_from(dims))
    return draw(gaussians(dim)), draw(gaussians(dim))


def same(p, q):
    return np.array_equal(p.mean, q.mean) and np.array_equal(p.cov, q.cov)


@st.composite
def stacked_pairs(draw, dims=(1, 2, 3)):
    # Up to five pairs of one dimension, stacked on each side.
    dim = draw(st.sampled_from(dims))
    pairs = draw(st.lists(gaussian_pairs(dims=(dim,)), min_size=1, max_size=5))
    stack = lambda gs: GaussianDist(np.stack([g.mean for g in gs]), np.stack([g.cov for g in gs]))
    return pairs, stack([p for p, _ in pairs]), stack([q for _, q in pairs])


@PROPERTY
@given(stacked_pairs())
def test_stacked_divergences_equal_their_members(stacked):
    # Exactly in one dimension, where the stacked arithmetic is the same
    # operation by operation; to rounding in more.
    pairs, p, q = stacked
    divergences = [kl_gaussian, hellinger_sq_gaussian]
    if p.dim <= 2:
        divergences.append(tv_gaussian)
    for divergence in divergences:
        values = divergence(p, q)
        members = np.array([divergence(a, b) for a, b in pairs])
        assert values.shape == members.shape
        if p.dim == 1:
            assert np.array_equal(values, members)
        else:
            assert np.all(np.abs(values - members) <= 1e-12 * np.maximum(1.0, np.abs(members)))


@PROPERTY
@given(gaussian_pairs())
def test_kl_nonnegative_and_zero_only_for_equal_gaussians(pair):
    p, q = pair
    assert kl_gaussian(p, p) == pytest.approx(0.0, abs=1e-12)
    kl = kl_gaussian(p, q)
    if same(p, q):
        assert kl == pytest.approx(0.0, abs=1e-12)
    else:
        assert kl > 1e-6


@PROPERTY
@given(gaussian_pairs(dims=(1, 2)))
def test_pinsker(pair):
    # The mean-field projection of p against p is one more pair.
    p, q = pair
    for a, b in ((p, q), (gmf_project_gaussian(p), p)):
        tv = tv_gaussian(a, b)
        assert tv <= np.sqrt(kl_gaussian(a, b) / 2.0) + TV_SLACK


@PROPERTY
@given(gaussian_pairs(dims=(1, 2)))
def test_le_cam_hellinger_bounds_on_tv(pair):
    p, q = pair
    tv = tv_gaussian(p, q)
    h2 = hellinger_sq_gaussian(p, q)
    assert h2 <= tv + TV_SLACK
    assert tv <= np.sqrt(h2) * np.sqrt(2.0 - h2) + TV_SLACK


@pytest.mark.parametrize("dim, step", [(1, 1), (2, 5)])
@pytest.mark.parametrize("shift", [0.0, 0.3, 5.0])
def test_le_cam_lower_bound_holds_for_nearly_disjoint_pairs(dim, step, shift):
    # N(0, I) against a q whose first standard deviation is 10^k, k from -150
    # to 150, in both argument orders: the exact TV's roots must neither
    # cancel nor overflow (a RuntimeWarning fails the test).
    k = np.arange(-150, 151, step)
    mean = np.zeros((k.size, dim))
    mean[:, 0] = shift
    mean[:, 1:] = 0.1
    eye = np.broadcast_to(np.eye(dim), (k.size, dim, dim))
    cov = eye.copy()
    cov[:, 0, 0] = 10.0 ** (2.0 * k)
    p = GaussianDist(np.zeros((k.size, dim)), eye)
    q = GaussianDist(mean, cov)
    for a, b in ((p, q), (q, p)):
        tv = tv_gaussian(a, b)
        h2 = hellinger_sq_gaussian(a, b)
        assert np.all(h2 <= tv + TV_SLACK)
        assert np.all(tv <= 1.0)


def push_forward(g, a, b):
    cov = a @ g.cov @ a.T
    return GaussianDist(a @ g.mean + b, (cov + cov.T) / 2.0)


@PROPERTY
@given(gaussian_pairs(), st.data())
def test_kl_and_hellinger_are_affine_invariant(pair, data):
    p, q = pair
    dim = p.dim
    a = lattice(data.draw, (dim, dim), -8, 8)
    assume(abs(np.linalg.det(a)) > 0.25 and np.linalg.cond(a) < 50.0)
    b = lattice(data.draw, (dim,), -16, 16)
    pa, qa = push_forward(p, a, b), push_forward(q, a, b)
    assert kl_gaussian(pa, qa) == pytest.approx(kl_gaussian(p, q), rel=1e-8, abs=1e-10)
    assert hellinger_sq_gaussian(pa, qa) == pytest.approx(hellinger_sq_gaussian(p, q), rel=1e-8, abs=1e-12)


@PROPERTY
@given(gaussian_pairs(dims=(1, 2)), st.data())
def test_tv_is_affine_invariant(pair, data):
    p, q = pair
    dim = p.dim
    a = lattice(data.draw, (dim, dim), -8, 8)
    assume(abs(np.linalg.det(a)) > 0.25 and np.linalg.cond(a) < 50.0)
    b = lattice(data.draw, (dim,), -16, 16)
    pa, qa = push_forward(p, a, b), push_forward(q, a, b)
    assert tv_gaussian(pa, qa) == pytest.approx(tv_gaussian(p, q), abs=TV_SLACK)


def spd(draw, dim):
    a = np.array(draw(st.lists(st.floats(-1.5, 1.5), min_size=dim * dim, max_size=dim * dim))).reshape(dim, dim)
    return a @ a.T + draw(st.floats(0.5, 1.5)) * np.eye(dim)


def vector(draw, dim, scale):
    return np.array(draw(st.lists(st.floats(-scale, scale), min_size=dim, max_size=dim)))


@st.composite
def scenarios(draw):
    # The ranges of the random scenarios in test_robustness.
    dim = draw(st.integers(1, 4))
    theta0 = vector(draw, dim, 2.0)
    theta_star = theta0 + vector(draw, dim, 1.0)
    s = MisspecScenario(theta0, theta_star, spd(draw, dim), spd(draw, dim), draw(st.floats(0.5, 3.0)))
    n = draw(st.integers(20, 2000))
    f = FiniteSampleInputs(
        theta_star + vector(draw, dim, 0.1),
        theta0 + vector(draw, dim, 0.1),
        n,
        eps_n=draw(st.floats(0.0, 2.5)) / n,
    )
    return s, f


@PROPERTY
@given(scenarios(), st.floats(0.05, 5.0))
def test_surrogate_criteria_equal_their_kl_form(scenario, alpha):
    s, f = scenario
    assert abs(r_star(alpha, s, f) - surrogate_via_kl(alpha, s, f, s.V)) < 1e-10
    assert abs(r_tilde_star(alpha, s, f) - surrogate_via_kl(alpha, s, f, s.V_tilde)) < 1e-10


@st.composite
def member_stacks(draw):
    # A scenario and two to five members, each with its own sample, estimates and alpha.
    s, _ = draw(scenarios())
    members = draw(st.integers(2, 5))
    n = draw(st.integers(s.p + 2, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    samples = [sample_stats(rng.normal(size=(n, s.p)), rng.normal(size=n)) for _ in range(members)]
    theta_f = s.theta_star + rng.uniform(-0.1, 0.1, size=(members, s.p))
    theta_g = s.theta0 + rng.uniform(-0.1, 0.1, size=(members, s.p))
    alphas = np.array([draw(st.floats(0.05, 5.0)) for _ in range(members)])
    return s, n, samples, theta_f, theta_g, alphas


def assert_same_members(stacked, singles):
    assert np.array_equal(stacked, np.array(singles))


@PROPERTY
@given(member_stacks())
def test_stacked_routines_equal_their_single_cell_calls(stack):
    # One stacked call on per-cell inputs is the single-cell calls, bit for bit.
    s, n, samples, theta_f, theta_g, alphas = stack
    cells = list(zip(samples, theta_f, theta_g, alphas))
    prior = ConjugatePrior(np.full(s.p, 0.25), np.eye(s.p))
    post = conjugate_alpha_posterior(stack_stats(samples), prior, 1.5, alphas)
    singles = [conjugate_alpha_posterior(x, prior, 1.5, a) for x, _, _, a in cells]
    assert_same_members(post.mean, [g.mean for g in singles])
    assert_same_members(post.cov, [g.cov for g in singles])
    for limit in (gaussian_bvm_limit, variational_bvm_limit):
        lim = limit(theta_f, s.V, n, alphas)
        singles = [limit(t, s.V, n, a) for _, t, _, a in cells]
        assert_same_members(lim.mean, [g.mean for g in singles])
        assert_same_members(lim.cov, [g.cov for g in singles])
    fin = FiniteSampleInputs(theta_f, theta_g, n, s.eps / n)
    for criterion in (r_star, r_tilde_star):
        singles = [criterion(a, s, FiniteSampleInputs(f, g, n, s.eps / n)) for _, f, g, a in cells]
        assert_same_members(criterion(alphas, s, fin), singles)
    divergences = laplace_location_divergences(theta_f[:, 0], 1.5, n, alphas, 0.1, 0.5)
    singles = [laplace_location_divergences(t[0], 1.5, n, a, 0.1, 0.5) for _, t, _, a in cells]
    assert_same_members(np.transpose(divergences), singles)


@st.composite
def lan_quadratics(draw):
    # A symmetric q, often indefinite as Q_n is, a delta, and points of the box [-3, 3]^p.
    p = draw(st.integers(1, 3))
    a = np.array(draw(st.lists(st.floats(-100.0, 100.0), min_size=p * p, max_size=p * p))).reshape(p, p)
    delta = vector(draw, p, 100.0)
    hs = np.array(draw(st.lists(st.lists(st.floats(-3.0, 3.0), min_size=p, max_size=p), min_size=1, max_size=20)))
    return (a + a.T) / 2.0, delta, hs


@PROPERTY
@given(lan_quadratics())
def test_lan_box_sup_bounds_the_defect_on_the_box(quadratic):
    q, delta, hs = quadratic
    sup = _lan_box_sup(q, delta)
    defect = hs @ q @ delta - 0.5 * np.einsum("ni,ij,nj->n", hs, q, hs)
    assert np.all(np.abs(defect) <= sup * (1.0 + 1e-12))
    if len(delta) == 1:
        # A quadratic in one coordinate is largest in magnitude at an end of the interval.
        h = np.array([-3.0, 3.0])
        assert sup == np.max(np.abs(h * q[0, 0] * delta[0] - 0.5 * (h * q[0, 0] * h)))
