"""Independent oracles used to pin expected values in the tests.

Everything here deliberately avoids the code paths under test: Monte Carlo
estimates of divergences, brute-force quadrature on dense grids, textbook
closed forms for special cases, the surrogate robustness criteria as the
explicit Gaussian KL terms they abbreviate, a locally written
golden-section minimizer for argmin cross-checks, the penalized variational
objective with a derivative-free maximizer, the closed-form mean-field
objective of the Laplace-prior location model, the
local-asymptotic-normality defect on a mesh, whose largest magnitude there
bounds its sup from below, the regression sample as rows, which the
library never forms, and the statistics of a sample or a stack of them
from rows, draws from a Gaussian and its log density for Monte Carlo
estimates, which only the tests need, the grid spline's slopes by a
node-by-node sweep, against which the library's blocked sweep is
checked, and three grid references: the default axis
as an array of nodes, a grid density's moments in two passes, and the
Gaussian log-likelihood by ``einsum``, and numpy's own ``SeedSequence``,
which the library's seed derivation reproduces on arrays.
"""

import numpy as np
from scipy.optimize import minimize
from scipy.stats import norm

from alphapost.gaussians import GaussianDist, kl_gaussian
from alphapost.posteriors import SufficientStats
from alphapost.regression import curvature, ols, pseudo_true


def mesh_points(axes):
    """Every node of the tensor grid on ``axes`` as an (N, dim) array, in row-major mesh order.

    Row ``k`` is the node at flat index ``k`` of an array of shape
    ``(len(axes[0]), len(axes[1]), ...)``, so values computed on these points
    reshape straight back onto the grid.
    """
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def seed_sequence_seed(master_seed, *key):
    """``derived_seed(master_seed, *key)`` by numpy: the first word of the spawned ``SeedSequence``'s state."""
    return int(np.random.SeedSequence(entropy=master_seed, spawn_key=key).generate_state(1)[0])


def simulate_rows(dgp, n, seed):
    """The rows ``(w, z, y)`` of the sample that ``simulate(dgp, n, seed)`` summarizes.

    Two calls on the seed's stream: the ``n (p + d)`` standard normal
    covariates, row-major, mapped through the Cholesky factor of the
    covariance of ``(W, Z)``, then ``n`` standard normal errors.
    """
    rng = np.random.default_rng(seed)
    chol = np.linalg.cholesky(np.block([[dgp.cov_ww, dgp.cov_wz], [dgp.cov_wz.T, dgp.cov_zz]]))
    x = rng.standard_normal((n, dgp.p + dgp.d)) @ chol.T
    w, z = x[:, : dgp.p], x[:, dgp.p :]
    return w, z, w @ dgp.theta0 + z @ dgp.gamma0 + dgp.sigma_eps * rng.standard_normal(n)


def sample_stats(X, Y):
    """The :class:`SufficientStats` of one sample: design ``X`` of shape (n, k) or (n,), response ``Y``.

    The Gram matrix of the column-stacked ``[X, Y]``, symmetrized.
    """
    X = np.asarray(X, dtype=float)
    cols = np.column_stack([X[:, None] if X.ndim == 1 else X, np.ravel(Y)])
    gram = cols.T @ cols
    return SufficientStats(len(cols), (gram + gram.T) / 2.0)


def stack_stats(members):
    """One stack of single-sample statistics of one size ``n``."""
    assert len({m.n for m in members}) == 1 and not any(m.stacked for m in members)
    return SufficientStats(members[0].n, np.stack([m.gram for m in members]))


def gaussian_draws(g, rng, size):
    """``size`` draws from the single Gaussian ``g``, with shape (size, dim)."""
    assert not g.stacked
    return g.mean + rng.standard_normal((size, g.dim)) @ np.linalg.cholesky(g.cov).T


def gaussian_log_density(g):
    """The log density of the single Gaussian ``g`` as a function of (N, dim) points, for Monte Carlo estimates.

    The quadratic form through the inverse of the covariance's Cholesky
    factor, which is formed once per distribution: a product per batch of
    points where ``log_density`` solves against the factor.
    """
    assert not g.stacked
    chol = np.linalg.cholesky(g.cov)
    inv_chol_t = np.linalg.inv(chol).T
    const = -0.5 * g.dim * np.log(2.0 * np.pi) - np.sum(np.log(np.diag(chol)))

    def log_p(x):
        y = (x - g.mean) @ inv_chol_t
        return const - 0.5 * np.einsum("ij,ij->i", y, y)

    return log_p


def column_sweep_slopes(y):
    """Node slopes, per unit node index, of the not-a-knot cubic spline through each row of ``y`` (members, num).

    The plain Thomas algorithm on the spline's tridiagonal system: forward
    elimination, then back substitution, one node column of members per
    step.  Rows (1, 2), then (1, 4, 1), then (2, 1), with 3 (y[j + 1] -
    y[j - 1]) on the right and the end rows (5 (y1 - y0) + (y2 - y1)) / 2
    and its mirror image.
    """
    num = y.shape[-1]
    sub = [0.0] + [1.0] * (num - 2) + [2.0]
    diag = [1.0] + [4.0] * (num - 2) + [1.0]
    sup = [2.0] + [1.0] * (num - 2) + [0.0]
    s = np.empty_like(y)
    s[:, 1:-1] = 3.0 * (y[:, 2:] - y[:, :-2])
    s[:, 0] = (5.0 * (y[:, 1] - y[:, 0]) + (y[:, 2] - y[:, 1])) / 2.0
    s[:, -1] = ((y[:, -2] - y[:, -3]) + 5.0 * (y[:, -1] - y[:, -2])) / 2.0
    upper = np.empty(num)
    prev = 0.0
    for j in range(num):
        pivot = diag[j] - sub[j] * prev
        prev = upper[j] = sup[j] / pivot
        s[:, j] = (s[:, j] - sub[j] * (s[:, j - 1] if j else 0.0)) / pivot
    for j in range(num - 2, -1, -1):
        s[:, j] -= upper[j] * s[:, j + 1]
    return s


def default_grid_nodes(theta_hat_ml, v, n, alpha, num=2001, scale=10.0):
    """The nodes of ``default_grid_axis``'s axes, formed as an array from the estimates.

    ``np.linspace(lo, hi, num, axis=-1)`` node for node, with ``lo``, ``hi``
    the estimate -+ scale / sqrt(alpha n v): one axis, or a stack of shape
    (cells, num), each axis contiguous.
    """
    half_width = scale / np.sqrt(alpha * n * v)
    lo, hi = np.asarray(theta_hat_ml - half_width), np.asarray(theta_hat_ml + half_width)
    x = np.arange(num) * ((hi - lo) / (num - 1))[..., None]
    x += lo[..., None]
    x[..., -1] = hi
    return x


def two_pass_moments(density):
    """Mean and variance of a grid density, or of each member of a stack, in two trapezoid passes.

    The normalized density ``exp(log_weights - normalizer)`` times ``x``,
    then times the squared deviations from that mean, each integrated with
    the axis's first step ``x[1] - x[0]``.
    """
    x = density.axis.nodes()
    step = x[..., 1] - x[..., 0]
    pdf = np.exp(density.log_weights - np.asarray(density.normalizer)[..., None])

    def trapezoid(values):
        return step * (np.sum(values, axis=-1) - (values[..., 0] + values[..., -1]) / 2.0)

    mean = trapezoid(x * pdf)
    return mean, trapezoid((x - mean[..., None]) ** 2 * pdf)


def einsum_likelihood(stats, sigma_u):
    """The Gaussian log-likelihood of ``regression_likelihood`` by ``np.einsum``, from the sufficient statistics.

    ``const - (y'y - 2 t'X'y + t'X'X t) / (2 sigma_u^2)`` for every point
    ``t``: one sample maps (N, k) points to (N,) values, a stack of S maps
    (S, N, k) points to (S, N) values.
    """
    k = stats.k
    gram = stats.gram.reshape(-1, k + 1, k + 1)
    xtx, xty, yty = gram[:, :k, :k], gram[:, :k, k], gram[:, k, k]
    const = -0.5 * stats.n * np.log(2.0 * np.pi * sigma_u**2)

    def log_lik(thetas):
        t = np.asarray(thetas, dtype=float) if stats.stacked else np.atleast_2d(thetas).reshape(1, -1, k)
        t = np.broadcast_to(t, (len(gram),) + t.shape[-2:])
        quad = np.einsum("sni,sij,snj->sn", t, xtx, t)
        values = const - (yty[:, None] - 2.0 * np.einsum("sni,si->sn", t, xty) + quad) / (2.0 * sigma_u**2)
        return values if stats.stacked else values.reshape(np.atleast_2d(thetas).shape[:-1])

    return log_lik


def lan_terms(stats, dgp):
    """``Q_n = W'W/(n sigma_u^2) - V`` and ``Delta_n = sqrt(n)(theta_hat - theta_star)``, from the public estimators."""
    w = stats.first_columns(dgp.p)
    return w.xtx / (w.n * dgp.sigma_u**2) - curvature(dgp), np.sqrt(w.n) * (ols(w) - pseudo_true(dgp))


def lan_residual(stats, dgp, h):
    """Local-asymptotic-normality defect ``h'Q_n Delta_n - h'Q_n h / 2`` at perturbation ``h``.

    ``Q_n`` and ``Delta_n`` are :func:`lan_terms`; ``stats`` are a sample's
    (or a stack's) statistics whose first ``p`` design columns are ``W``.
    ``h`` is one perturbation of shape (p,), giving a float per sample, or a
    batch of shape (N, p), giving N values per sample; a stack puts its
    sample axis first.
    """
    q, delta = lan_terms(stats, dgp)
    h = np.asarray(h, dtype=float)
    pts = np.atleast_2d(h)
    vals = np.einsum("ni,...ij,...j->...n", pts, q, delta) - 0.5 * np.einsum("ni,...ij,nj->...n", pts, q, pts)
    if h.ndim > 1:
        return vals
    return float(vals[0]) if vals.ndim == 1 else vals[..., 0]


def lan_mesh_sup(stats, dgp, nodes):
    """Largest |LAN defect| over the mesh of ``nodes`` nodes per axis on ``[-3, 3]^p``, per sample.

    The mesh is visited 2^16 points at a time, so memory stays small.
    """
    pts = mesh_points([np.linspace(-3.0, 3.0, nodes)] * dgp.p)
    blocks = [np.max(np.abs(lan_residual(stats, dgp, pts[i : i + 2**16])), axis=-1) for i in range(0, len(pts), 2**16)]
    return np.max(blocks, axis=0)


def mc_kl(sample_p, log_p, log_q, num, rng):
    """Monte Carlo estimate of KL(p || q) with its standard error.

    ``sample_p(rng, num)`` draws from p; ``log_p``/``log_q`` are batched log
    densities.
    """
    x = sample_p(rng, num)
    g = log_p(x) - log_q(x)
    return float(np.mean(g)), float(np.std(g, ddof=1) / np.sqrt(num))


def mc_tv(sample_p, log_p, log_q, num, rng):
    """Monte Carlo estimate of total variation, ``0.5 E_p |1 - q/p|``, with SE."""
    x = sample_p(rng, num)
    g = 0.5 * np.abs(1.0 - np.exp(log_q(x) - log_p(x)))
    return float(np.mean(g)), float(np.std(g, ddof=1) / np.sqrt(num))


def quadrature_hellinger_sq(log_p, log_q, lo, hi, num=200_001):
    """Squared Hellinger distance by dense 1-d trapezoid: integral (sqrt p - sqrt q)^2 / 2."""
    x = np.linspace(lo, hi, num)
    sp = np.exp(0.5 * log_p(x))
    sq = np.exp(0.5 * log_q(x))
    return 0.5 * float(np.trapezoid((sp - sq) ** 2, x))


def quadrature_kl_1d(log_p, log_q, lo, hi, num=200_001):
    """KL(p || q) by dense 1-d trapezoid."""
    x = np.linspace(lo, hi, num)
    p = np.exp(log_p(x))
    return float(np.trapezoid(p * (log_p(x) - log_q(x)), x))


def trapezoid_weights(x: np.ndarray) -> np.ndarray:
    """Trapezoid quadrature weights for a uniform axis, or for each axis of a stack."""
    w = np.repeat(x[..., 1:2] - x[..., :1], x.shape[-1], axis=-1)
    w[..., [0, -1]] /= 2.0
    return w


def tv_tensor_quadrature(p, q, nodes_per_axis):
    """Total variation of two Gaussians (dimension <= 2) by the tensor trapezoid rule.

    Integrates ``0.5 |p - q|`` over a box of +-8 pooled standard deviations
    with ``nodes_per_axis`` nodes per axis (``nodes_per_axis^dim`` in all);
    the tail mass outside the box is below 1e-14.  Each log density is its
    quadratic form in the offsets of the axis values from its mean, so no
    mesh of points is formed, and the mesh is visited a block of first-axis
    nodes (2^18 values) at a time, so memory stays small.
    """
    sd = np.sqrt(np.maximum(np.diag(p.cov), np.diag(q.cov)))
    lo = np.minimum(p.mean, q.mean) - 8.0 * sd
    hi = np.maximum(p.mean, q.mean) + 8.0 * sd
    axes = [np.linspace(lo[j], hi[j], nodes_per_axis) for j in range(p.dim)]
    weights = [trapezoid_weights(ax) for ax in axes]

    def block_density(g, first):
        # g's density on the mesh of the first axis's nodes ``first`` and the
        # other axis, if any: exp(norm - (u, v) Sigma^-1 (u, v)' / 2).
        prec = np.linalg.inv(g.cov)
        norm = -0.5 * (g.dim * np.log(2.0 * np.pi) + np.linalg.slogdet(g.cov)[1])
        u = (first - g.mean[0])[:, None]
        if g.dim == 1:
            quad = prec[0, 0] * u[:, 0] ** 2
        else:
            v = axes[1] - g.mean[1]
            quad = (prec[0, 0] * u + 2.0 * prec[0, 1] * v) * u + prec[1, 1] * v**2
        return np.exp(norm - 0.5 * quad)

    total = 0.0
    size = max(1, 2**18 // nodes_per_axis ** (p.dim - 1))
    for start in range(0, nodes_per_axis, size):
        rows = slice(start, start + size)
        diff = np.abs(block_density(p, axes[0][rows]) - block_density(q, axes[0][rows]))
        total += float(weights[0][rows] @ (diff @ weights[1] if p.dim == 2 else diff))
    return 0.5 * total


def tv_equal_variance(mu1, mu2, sigma):
    """Closed-form total variation of two equal-variance 1-d normals: 2 Phi(|dmu|/(2 sigma)) - 1."""
    return 2.0 * norm.cdf(abs(mu2 - mu1) / (2.0 * sigma)) - 1.0


def surrogate_via_kl(alpha, s, f, reported_curv):
    """Surrogate expected KL of reporting ``N(theta_F, reported_curv^{-1} / (alpha n))``.

    ``eps_n KL(N(theta_G, Omega/n) || reported) + (1 - eps_n) KL(N(theta_F, V^{-1}/n) || reported)``
    for the scenario ``s`` and finite-sample inputs ``f``, by two explicit
    Gaussian KL divergences rather than the closed form in ``alpha``.
    ``reported_curv`` is ``s.V`` for ``r_star`` and ``s.V_tilde`` for
    ``r_tilde_star``.
    """
    reported = GaussianDist(f.theta_hat_ml_F, np.linalg.inv(reported_curv) / (alpha * f.n))
    true_limit = GaussianDist(f.theta_hat_ml_G, s.Omega / f.n)
    regular_limit = GaussianDist(f.theta_hat_ml_F, np.linalg.inv(s.V) / f.n)
    return f.eps_n * kl_gaussian(true_limit, reported) + (1.0 - f.eps_n) * kl_gaussian(
        regular_limit, reported
    )


def golden_min(f, a, b, tol=1e-10):
    """Locally written golden-section minimizer (independent of the library's)."""
    phi = (np.sqrt(5.0) - 1.0) / 2.0
    c, d = b - phi * (b - a), a + phi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = f(d)
    return (a + b) / 2.0


def coordinate_descent_diag_kl(kl_fn, mean0, var0, sweeps=60, span=4.0):
    """Coordinate descent for ``min KL(q || target)`` over diagonal Gaussians.

    ``kl_fn(mean, var)`` evaluates the objective; each sweep minimizes one
    coordinate of the mean and one log-variance at a time by golden section.
    Independent of any closed-form projection formula.
    """
    mean = np.array(mean0, dtype=float)
    var = np.array(var0, dtype=float)
    for _ in range(sweeps):
        for j in range(mean.size):
            sd = np.sqrt(var[j])

            def f_mean(m, j=j):
                trial = mean.copy()
                trial[j] = m
                return kl_fn(trial, var)

            mean[j] = golden_min(f_mean, mean[j] - span * sd, mean[j] + span * sd, tol=1e-12)

            def f_logvar(s, j=j):
                trial = var.copy()
                trial[j] = np.exp(s)
                return kl_fn(mean, trial)

            var[j] = np.exp(golden_min(f_logvar, np.log(var[j]) - 3.0, np.log(var[j]) + 3.0, tol=1e-12))
    return mean, var


def normal_tail_two_sided(radius, mean, sd):
    """P(|X| > radius) for X ~ N(mean, sd^2)."""
    return float(norm.cdf((-radius - mean) / sd) + norm.sf((radius - mean) / sd))


def perturbed_pair(rng, dim):
    """A random Gaussian pair (p, q) with q a mild perturbation of p.

    Keeps the density ratio q/p square-integrable under p (q's covariance
    stays below twice p's), so the Monte Carlo TV estimator has a finite
    variance and its standard error is trustworthy.
    """
    a = rng.standard_normal((dim, dim))
    cov = a @ a.T + (0.5 + rng.uniform()) * np.eye(dim)
    mean = rng.normal(size=dim)
    sd = np.sqrt(np.diag(cov))
    shift = rng.normal(scale=0.3, size=dim) * sd
    scale = rng.uniform(0.8, 1.2)
    jitter = rng.standard_normal((dim, dim)) * 0.05
    cov_q = scale * cov + jitter @ jitter.T * float(np.min(np.linalg.eigvalsh(cov)))
    return (mean, cov), (mean + shift, cov_q)


def variances(q):
    """The diagonal of ``q``'s covariance, per member of a stack: a mean-field result's variances."""
    return np.diagonal(q.cov, axis1=-2, axis2=-1)


def penalized_objective(q, log_lik, log_prior, alpha):
    """Evidence-style objective ``E_q[log f_n] - (1/alpha) KL(q || prior)`` for a mean-field ``q``.

    ``q`` is a :class:`GaussianDist` with diagonal covariance.

    ``log_lik`` (``log f_n``) and ``log_prior`` map an (N, q.dim) array of
    parameter points to the (N,) array of their values.  Both expectations
    are tensor Gauss-Hermite quadratures under ``q`` with 32 nodes per axis
    (the entropy part of the KL term is closed form).  Up to a
    constant not depending on ``q``, maximizing this equals minimizing the
    KL divergence from ``q`` to the tempered posterior with the same
    ``alpha``.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    z, w = np.polynomial.hermite.hermgauss(32)
    w = w / np.sqrt(np.pi)
    mesh = mesh_points([z] * q.dim)
    weights = np.prod(mesh_points([w] * q.dim), axis=1)
    var = variances(q)
    pts = q.mean + np.sqrt(2.0) * np.sqrt(var) * mesh
    ll = np.asarray(log_lik(pts), dtype=float)
    lp = np.asarray(log_prior(pts), dtype=float)
    if not (np.all(np.isfinite(ll)) and np.all(np.isfinite(lp))):
        raise ValueError("non-finite evaluator values under the quadrature")
    entropy = 0.5 * np.sum(1.0 + np.log(2.0 * np.pi * var))
    kl_q_prior = -entropy - float(weights @ lp)
    return float(weights @ ll) - kl_q_prior / alpha


def maximize_penalized_objective(lik, log_prior, alpha, init, xatol=1e-9, max_iter=4000):
    """Maximizer of ``penalized_objective`` over the Gaussian mean-field family.

    Deterministic Nelder-Mead simplex search on (mean, log sd) from the
    diagonal :class:`GaussianDist` ``init``; it needs objective values only, so it
    shares nothing with the library's Newton projection.  By the
    objective/projection equivalence the result coincides with the KL
    projection onto the tempered posterior.
    """
    dim = init.dim

    def neg_objective(x):
        q = GaussianDist(x[:dim], np.diag(np.exp(2.0 * x[dim:])))
        return -penalized_objective(q, lik, log_prior, alpha)

    x0 = np.concatenate([init.mean, 0.5 * np.log(variances(init))])
    res = minimize(
        neg_objective,
        x0,
        method="Nelder-Mead",
        options={"xatol": xatol, "fatol": 1e-12, "maxiter": max_iter, "maxfev": max_iter},
    )
    if not res.success:
        raise RuntimeError(f"simplex ascent failed to converge: {res.message}")
    return GaussianDist(res.x[:dim], np.diag(np.exp(2.0 * res.x[dim:])))


def laplace_location_objective(mu, s, xbar, n, alpha):
    """KL(N(mu, s^2) || alpha-posterior), up to a constant, for N(theta, 1) data and a Laplace(0, 1) prior.

    The closed form ``-log s + (alpha n / 2) ((mu - xbar)^2 + s^2) + E_q|theta|``
    with the folded-normal mean
    ``E_q|theta| = s sqrt(2/pi) exp(-z^2/2) + mu (1 - 2 Phi(-z))``, ``z = mu / s``.
    The constant depends on the data only, so differences between two ``q``
    are exact differences of KL.
    """
    z = mu / s
    folded = s * np.sqrt(2.0 / np.pi) * np.exp(-0.5 * z * z) + mu * (1.0 - 2.0 * norm.cdf(-z))
    return -np.log(s) + 0.5 * alpha * n * ((mu - xbar) ** 2 + s**2) + folded


def minimize_laplace_location_objective(xbar, n, alpha):
    """The minimum of :func:`laplace_location_objective` over (mu, s).

    Nelder-Mead on (mu, log s) in units of the Gaussian limit's standard
    deviation, from the limit N(xbar, 1 / (alpha n)); its tolerances put the
    minimum far below the 1e-9 nats the tests resolve.
    """
    tau = 1.0 / np.sqrt(alpha * n)

    def objective(v):
        return laplace_location_objective(xbar + tau * v[0], tau * np.exp(v[1]), xbar, n, alpha)

    res = minimize(objective, [0.0, 0.0], method="Nelder-Mead", options={"xatol": 1e-8, "fatol": 1e-14, "maxiter": 4000})
    if not res.success:
        raise RuntimeError(f"simplex descent failed to converge: {res.message}")
    return float(res.fun)
