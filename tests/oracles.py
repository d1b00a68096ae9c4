"""Independent oracles used to pin expected values in the tests.

Everything here deliberately avoids the code paths under test: Monte Carlo
estimates of divergences, brute-force quadrature on dense grids, textbook
closed forms for special cases, the surrogate robustness criteria as the
explicit Gaussian KL terms they abbreviate, a locally written
golden-section minimizer for argmin cross-checks, the penalized variational
objective with a derivative-free maximizer, and the closed-form mean-field
objective of the Laplace-prior location model.
"""

import numpy as np
from scipy.optimize import minimize
from scipy.stats import norm

from alphapost.gaussians import GaussianDist, kl_gaussian, log_density
from alphapost.regression import mesh_points


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
    the tail mass outside the box is below 1e-14.  The mesh is visited 200
    first-axis nodes at a time, so memory stays small.
    """
    sd = np.sqrt(np.maximum(np.diag(p.cov), np.diag(q.cov)))
    lo = np.minimum(p.mean, q.mean) - 8.0 * sd
    hi = np.maximum(p.mean, q.mean) + 8.0 * sd
    axes = [np.linspace(lo[j], hi[j], nodes_per_axis) for j in range(p.dim)]
    weights = [trapezoid_weights(ax) for ax in axes]
    total = 0.0
    for start in range(0, nodes_per_axis, 200):
        rows = slice(start, start + 200)
        mesh = mesh_points([axes[0][rows], *axes[1:]])
        w = weights[0][rows]
        for wk in weights[1:]:
            w = np.multiply.outer(w, wk)
        diff = np.abs(np.exp(log_density(p, mesh)) - np.exp(log_density(q, mesh)))
        total += float(w.ravel() @ diff)
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
