"""Expected-KL robustness of tempered posteriors and the optimal tempering level.

A decision maker attaches probability ``eps_n`` to the likelihood being
misspecified and measures a reporting rule by the expected KL divergence
from the posterior they should have reported:

    ``r(alpha) = eps_n * KL(true posterior || reported)
               + (1 - eps_n) * KL(regular posterior || reported)``

Replacing every posterior by its Gaussian large-sample limit produces the
surrogate criteria ``r_star`` (tempered posterior reported) and
``r_tilde_star`` (its mean-field approximation reported).  Both reduce to
``(alpha * A_n - p log(alpha) + B_n) / 2``, which is how they are evaluated
here; the form is strictly convex in ``alpha`` with unique minimizer
``p / A_n`` -- strictly below one as soon as the true and pseudo-true
parameters differ.  The limiting criterion ``r_infinity``
and the optimized limits complete the picture: the regular posterior's
expected KL grows linearly in the squared misspecification while the
optimally tempered one grows only logarithmically.

The finite-sample routines stack like the posteriors: a stacked
:class:`FiniteSampleInputs` holds one pair of estimates per member, and the
criteria take one ``alpha`` for all members or one per member.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gaussians import GaussianDist, _result, _spd_cholesky, kl_gaussian
from .posteriors import _require_finite, _require_positive, _sample_size, _tempering

__all__ = [
    "MisspecScenario",
    "FiniteSampleInputs",
    "r_star",
    "r_tilde_star",
    "optimal_alpha",
    "optimal_alpha_tilde",
    "limit_alpha_star",
    "limit_alpha_tilde",
    "r_infinity",
    "optimized_limit_kl",
    "optimized_limit_kl_var",
    "exact_expected_kl",
]


@dataclass(frozen=True)
class MisspecScenario:
    """Population-level ingredients of the robustness analysis.

    ``theta0`` is the true parameter, ``theta_star`` the pseudo-true one, ``V``
    the likelihood curvature at ``theta_star``, ``Omega`` the asymptotic
    covariance scale of the correctly specified posterior (an input here;
    the regression example computes it), and ``eps`` the limit of
    ``n * eps_n``.  Each of ``V`` and ``Omega`` must be finite, symmetric to
    within 1e-12 of its largest entry and positive definite; both are kept
    as given, and a violation raises ``ValueError`` naming the matrix.
    """

    theta0: np.ndarray
    theta_star: np.ndarray
    V: np.ndarray
    Omega: np.ndarray
    eps: float

    def __post_init__(self):
        theta0 = np.atleast_1d(np.asarray(self.theta0, dtype=float))
        theta_star = np.atleast_1d(np.asarray(self.theta_star, dtype=float))
        V, Omega = (np.atleast_2d(np.asarray(m, dtype=float)) for m in (self.V, self.Omega))
        p = theta0.size
        if theta_star.size != p or V.shape != (p, p) or Omega.shape != (p, p):
            raise ValueError("scenario dimensions disagree")
        if not (np.all(np.isfinite(theta0)) and np.all(np.isfinite(theta_star))):
            raise ValueError("theta0 and theta_star must be finite")
        _spd_cholesky(V, "V")
        _spd_cholesky(Omega, "Omega")
        if not 0 < self.eps < np.inf:
            raise ValueError("eps must be positive and finite")
        object.__setattr__(self, "theta0", theta0)
        object.__setattr__(self, "theta_star", theta_star)
        object.__setattr__(self, "V", V)
        object.__setattr__(self, "Omega", Omega)

    @property
    def p(self) -> int:
        return self.theta0.size

    @property
    def d(self) -> np.ndarray:
        """Misspecification direction ``theta0 - theta_star``."""
        return self.theta0 - self.theta_star

    @property
    def V_tilde(self) -> np.ndarray:
        """diag(V): the curvature seen by the mean-field approximation."""
        return np.diag(np.diag(self.V))


@dataclass(frozen=True)
class FiniteSampleInputs:
    """Sample-size-n ingredients: the two ML estimates, n, and the misspecification probability.

    Like :class:`~alphapost.gaussians.GaussianDist` the estimates may be a
    stack: shape (k, p) holds one pair per member, and the routines below
    give one value per member.  ``n`` must be a positive integer and
    ``eps_n`` lie in [0, 1].
    """

    theta_hat_ml_F: np.ndarray
    theta_hat_ml_G: np.ndarray
    n: int
    eps_n: float

    def __post_init__(self):
        f = np.atleast_1d(np.asarray(self.theta_hat_ml_F, dtype=float))
        g = np.atleast_1d(np.asarray(self.theta_hat_ml_G, dtype=float))
        if f.shape != g.shape or f.ndim > 2:
            raise ValueError("ML estimates must share one shape, (p,) or (R, p)")
        if not (np.all(np.isfinite(f)) and np.all(np.isfinite(g))):
            raise ValueError("ML estimates must be finite")
        if not 0.0 <= self.eps_n <= 1.0:
            raise ValueError("eps_n must lie in [0, 1]")
        object.__setattr__(self, "n", _sample_size(self.n))
        object.__setattr__(self, "theta_hat_ml_F", f)
        object.__setattr__(self, "theta_hat_ml_G", g)

    @classmethod
    def at_population_limits(cls, s: MisspecScenario, n: int) -> "FiniteSampleInputs":
        """Inputs with both estimators at their probability limits and ``eps_n = eps / n``."""
        return cls(s.theta_star, s.theta0, n, s.eps / n)


def a_n(Sigma: np.ndarray, s: MisspecScenario, f: FiniteSampleInputs) -> float | np.ndarray:
    """Linear coefficient of the surrogate criterion in ``alpha``.

    ``eps_n tr(Sigma Omega) + (1 - eps_n) tr(Sigma V^{-1})
    + n eps_n (theta_F - theta_G)' Sigma (theta_F - theta_G)``, one value
    per member of a stacked ``f``.
    """
    Sigma = np.atleast_2d(np.asarray(Sigma, dtype=float))
    # Each member's delta as a (1, p) row: a stack then runs a single f's product per member, bit for bit.
    delta = (f.theta_hat_ml_F - f.theta_hat_ml_G)[..., None, :]
    v_inv = np.linalg.inv(s.V)
    return _result(
        f.eps_n * np.trace(Sigma @ s.Omega)
        + (1.0 - f.eps_n) * np.trace(Sigma @ v_inv)
        + f.n * f.eps_n * np.sum((delta @ Sigma) * delta, axis=(-2, -1))
    )


def b_n(Sigma: np.ndarray, s: MisspecScenario, f: FiniteSampleInputs) -> float:
    """Alpha-free term: ``-p + eps_n log(1/(|Omega||Sigma|)) + (1-eps_n) log(|V|/|Sigma|)``."""
    Sigma = np.atleast_2d(np.asarray(Sigma, dtype=float))
    sign, logdet_sigma = np.linalg.slogdet(Sigma)
    if sign <= 0:
        raise ValueError("Sigma must have positive determinant")
    _, logdet_omega = np.linalg.slogdet(s.Omega)
    _, logdet_v = np.linalg.slogdet(s.V)
    return float(
        -s.p
        + f.eps_n * (-logdet_omega - logdet_sigma)
        + (1.0 - f.eps_n) * (logdet_v - logdet_sigma)
    )


def _surrogate(alpha, s: MisspecScenario, f: FiniteSampleInputs, curv: np.ndarray) -> float | np.ndarray:
    alpha = _tempering(alpha, len(f.theta_hat_ml_F) if f.theta_hat_ml_F.ndim == 2 else 1)
    return _result(0.5 * (a_n(curv, s, f) * alpha - s.p * np.log(alpha) + b_n(curv, s, f)))


def r_star(alpha: float | np.ndarray, s: MisspecScenario, f: FiniteSampleInputs) -> float | np.ndarray:
    """Surrogate expected KL for the tempered posterior: ``(alpha A_n(V) - p log(alpha) + B_n(V)) / 2``.

    It equals ``eps_n KL(N(theta_G, Omega/n) || R) + (1 - eps_n) KL(N(theta_F, V^{-1}/n) || R)``
    for the reported ``R = N(theta_F, V^{-1}/(alpha n))``.  An array of
    ``alpha`` gives the array of values, with ``A_n`` and ``B_n`` computed once;
    a stacked ``f`` gives one value per member, at one ``alpha`` for all or
    at its own.
    """
    return _surrogate(alpha, s, f, s.V)


def r_tilde_star(alpha: float | np.ndarray, s: MisspecScenario, f: FiniteSampleInputs) -> float | np.ndarray:
    """Surrogate expected KL for the mean-field approximation: the same form with curvature diag(V)."""
    return _surrogate(alpha, s, f, s.V_tilde)


def optimal_alpha(s: MisspecScenario, f: FiniteSampleInputs) -> float | np.ndarray:
    """Unique minimizer ``p / A_n(V)`` of the surrogate criterion, per member of a stacked ``f``.

    ``A_n`` is positive, a convex combination of traces of products of SPD
    matrices plus a nonnegative quadratic form, and ``alpha -> alpha A -
    p log(alpha)`` is strictly convex for ``A > 0``, so the first-order
    condition pins the global minimum.
    """
    return s.p / a_n(s.V, s, f)


def optimal_alpha_tilde(s: MisspecScenario, f: FiniteSampleInputs) -> float | np.ndarray:
    """Unique minimizer ``p / A_n(diag V)`` of the mean-field surrogate criterion."""
    return s.p / a_n(s.V_tilde, s, f)


def limit_alpha_star(s: MisspecScenario) -> float:
    """Large-sample optimal tempering ``p / (p + eps d'Vd)``, strictly < 1 when d != 0."""
    d = s.d
    return s.p / (s.p + s.eps * float(d @ s.V @ d))


def limit_alpha_tilde(s: MisspecScenario) -> float:
    """Mean-field analogue ``p / (tr(diag(V) V^{-1}) + eps d' diag(V) d)``.

    Strictly below one whenever ``d != 0`` or ``V`` has off-diagonal mass
    (``tr(diag(V) V^{-1}) >= p`` with equality only for diagonal ``V``).
    """
    d = s.d
    vt = s.V_tilde
    trace = float(np.trace(vt @ np.linalg.inv(s.V)))
    return s.p / (trace + s.eps * float(d @ vt @ d))


def r_infinity(alpha: float, p: int, eps: float, d_quad: float) -> float:
    """Limit of the expected-KL criterion: ``(alpha p + alpha eps d_quad - p log(alpha) - p) / 2``.

    ``d_quad`` is the squared misspecification ``(theta0-theta_star)' V (theta0-theta_star)``.
    At ``alpha = 1`` this is ``eps * d_quad / 2``: the regular posterior's
    expected KL grows linearly in the squared misspecification.
    """
    _require_positive(alpha=alpha)
    _require_finite(eps=eps, d_quad=d_quad)
    if d_quad < 0:
        raise ValueError("d_quad must be nonnegative")
    return 0.5 * (alpha * p + alpha * eps * d_quad - p * np.log(alpha) - p)


def optimized_limit_kl(s: MisspecScenario) -> float:
    """Expected KL at the optimal tempering: ``-p log(alpha*) / 2 = p log((p + eps d'Vd) / p) / 2``.

    Grows logarithmically in the squared misspecification, against the
    linear growth of the untempered criterion.
    """
    return -0.5 * s.p * np.log(limit_alpha_star(s))


def optimized_limit_kl_var(s: MisspecScenario) -> float:
    """Mean-field analogue of :func:`optimized_limit_kl`: ``[log det V - sum_j log V_jj - p log(alpha~*)] / 2``."""
    _, logdet_v = np.linalg.slogdet(s.V)
    return 0.5 * (logdet_v - np.sum(np.log(np.diag(s.V))) - s.p * np.log(limit_alpha_tilde(s)))


def exact_expected_kl(
    true_post: GaussianDist,
    alpha_post: GaussianDist,
    std_post: GaussianDist,
    eps_n: float,
) -> float | np.ndarray:
    """Finite-sample expected KL with explicit posterior inputs.

    ``eps_n * KL(true_post || alpha_post) + (1 - eps_n) * KL(std_post || alpha_post)``.
    The same call evaluates the variational criterion when ``alpha_post`` is
    the mean-field approximation, such as
    ``gmf_project_gaussian(alpha_post)``, which is a :class:`GaussianDist`
    with diagonal covariance.  Stacked inputs broadcast, as in
    :func:`~alphapost.gaussians.kl_gaussian`.
    """
    if not 0.0 <= eps_n <= 1.0:
        raise ValueError("eps_n must lie in [0, 1]")
    return eps_n * kl_gaussian(true_post, alpha_post) + (1.0 - eps_n) * kl_gaussian(
        std_post, alpha_post
    )
