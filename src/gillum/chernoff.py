"""Quantum Chernoff bounds for Gaussian hypothesis pairs.

The single-copy overlap Q_s = Tr(rho_on^s rho_off^{1-s}) of two Gaussian
states has a closed form in terms of their Williamson decompositions; the
bound on the M-copy discrimination error is (1/2) (min_s Q_s)^M.  All
formulas below work internally in the doubled-covariance convention
(vacuum symplectic eigenvalue 1), converted from the package's vacuum-1/2
quadrature states at the boundary.

In the eigenbases of the two density operators Q_s = sum_ij c_ij a_i^s
b_j^(1-s) with c_ij = |<a_i|b_j>|^2 >= 0 (Audenaert et al., PRL 98, 160501
(2007); Nussbaum & Szkola, Ann. Stat. 37, 1040 (2009)).  Each term is
log-linear in s, so Q_s is log-convex and strictly quasi-convex on (0, 1):
the neighbours of the smallest of a row of evenly spaced samples bracket
the minimiser.  The search evaluates whole rows of s in one batched call,
zooms into that bracket and, on the last, narrow one, fits a cubic to
log Q by least squares, which averages the round-off of the samples away.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import schur

from .channels import HypothesisPair, NoiseModel, ScenarioParams
from .states import QuadratureState, symplectic_form, to_quadrature

_S_EDGE = 1e-6
_BRACKET = 33  # overlaps per batched round of the s search
_STOP_WIDTH = 1e-3  # bracket width of the fitted last round
_UNIT = np.linspace(0.0, 1.0, _BRACKET)
# least-squares coefficients (a3, a2, a1, a0) of a3 t^3 + a2 t^2 + a1 t + a0
# through the bracket's samples, t running over [-1, 1]
_CUBIC_FIT = np.linalg.pinv(np.vander(2.0 * _UNIT - 1.0, 4))
_MEAN_SHORTCUT = 1e-14


@dataclass(frozen=True)
class QcbResult:
    """Optimized Chernoff data: argmin s, single-copy overlap, M-copy bound."""

    s_star: float
    q_value: float
    exponent: float
    p_err_bound: float


def williamson(state: QuadratureState):
    """Williamson normal form of the quadrature covariance.

    Returns (nu, s) with cov_q = s @ diag(nu_1, nu_1, ..., nu_n, nu_n) @ s.T
    and s symplectic; nu are the symplectic eigenvalues (>= 1/2 for physical
    states in this package's convention).
    """
    sigma = state.cov_q
    n = state.n_modes
    evals, evecs = np.linalg.eigh(sigma)
    if np.min(evals) <= 0:
        raise ValueError("covariance must be positive definite")
    sq = evecs @ np.diag(np.sqrt(evals)) @ evecs.T
    skew = sq @ symplectic_form(n) @ sq
    skew = 0.5 * (skew - skew.T)
    t, z = schur(skew)
    nus = np.empty(n)
    for k in range(n):
        b = t[2 * k, 2 * k + 1]
        if b < 0:
            z[:, [2 * k, 2 * k + 1]] = z[:, [2 * k + 1, 2 * k]]
            b = -b
        nus[k] = b
    s = sq @ z @ np.diag(1.0 / np.sqrt(np.repeat(nus, 2)))
    return nus, s


def _g_lambda(x: np.ndarray, p: np.ndarray):
    """Per-mode normalization g_p(x) = 2^p / ((x+1)^p - (x-1)^p) and weight
    lambda_p(x) = ((x+1)^p + (x-1)^p) / ((x+1)^p - (x-1)^p), elementwise
    over the broadcast of x and p.

    With e = ((x-1)/(x+1))^p - 1, formed by expm1 and log1p, neither needs
    the difference (x+1)^p - (x-1)^p, which cancels for the large x of
    thermal modes.  Pure modes (x = 1) give e = -1 and g = lambda = 1.
    """
    with np.errstate(divide="ignore"):  # log1p(-1) = -inf at x = 1
        e = np.expm1(p * np.log1p(-2.0 / (x + 1.0)))
    return ((x + 1.0) / 2.0) ** -p / -e, (2.0 + e) / -e


def _mode_projectors(s: np.ndarray) -> np.ndarray:
    """Row k: s P_k s^T flattened, P_k the projector on mode k's (x, p)."""
    outer = np.einsum("ik,jk->kij", s, s)
    return (outer[0::2] + outer[1::2]).reshape(s.shape[0] // 2, -1)


class _PairData:
    """Doubled-convention Williamson data of one hypothesis pair.

    The on modes come first and the off modes second in ``nu`` and in the
    rows of ``projectors``, so Sigma_s = S_on Lambda_{s}(on) S_on^T +
    S_off Lambda_{1-s}(off) S_off^T is one product lambda @ projectors.
    """

    def __init__(self, pair: HypothesisPair):
        q_on = to_quadrature(pair.on)
        q_off = to_quadrature(pair.off)
        if q_on.n_modes != q_off.n_modes:
            raise ValueError("hypotheses must have the same mode count")
        self.n = q_on.n_modes
        nu_on, s_on = williamson(q_on)
        nu_off, s_off = williamson(q_off)
        # doubled convention: covariances scale by 2, basis unchanged
        self.nu = np.maximum(2.0 * np.concatenate([nu_on, nu_off]), 1.0)
        self.is_on = np.arange(2 * self.n) < self.n
        self.projectors = np.concatenate([_mode_projectors(s_on), _mode_projectors(s_off)])
        self.delta = math.sqrt(2.0) * (q_on.mean_q - q_off.mean_q)
        if np.linalg.norm(self.delta) < _MEAN_SHORTCUT:
            self.delta = None

    def overlap(self, s):
        """Single-copy Q_s, clamped to at most 1, at every s of a scalar or
        array in one pass."""
        s = np.asarray(s, dtype=float)[..., None]
        g, lam = _g_lambda(self.nu, np.where(self.is_on, s, 1.0 - s))
        sig = (lam @ self.projectors).reshape(s.shape[:-1] + (2 * self.n, 2 * self.n))
        val = 2.0**self.n * np.prod(g, axis=-1) / np.sqrt(np.linalg.det(sig))
        if self.delta is not None:
            val *= np.exp(-0.5 * (np.linalg.solve(sig, self.delta) @ self.delta))
        return np.minimum(val, 1.0)


def _zoom_min(fn, lo: float, hi: float) -> tuple[float, float]:
    """(s*, log Q(s*)) of a quasi-convex ``fn`` on [lo, hi].

    Each round samples _BRACKET evenly spaced points in one call and keeps
    the neighbours of the argmin, which bracket the minimiser.  Once the
    bracket is at most _STOP_WIDTH wide, a least-squares fit through log Q
    of that round's samples gives the minimum: averaging over all of them
    keeps round-off in the samples from selecting the result, and the cubic
    term keeps the skew of log Q across the bracket from biasing it.  An
    argmin on the bracket edge, a sample that underflowed to 0, or a fit
    without a convex minimum inside the bracket falls back to the sampled
    minimum.
    """
    while True:
        s = np.minimum(lo + (hi - lo) * _UNIT, hi)
        q = fn(s)
        i = int(np.argmin(q))
        if hi - lo <= _STOP_WIDTH:
            break
        lo, hi = s[max(i - 1, 0)], s[min(i + 1, _BRACKET - 1)]
    if 0 < i < _BRACKET - 1 and q[i] > 0:
        a3, a2, a1, a0 = _CUBIC_FIT @ np.log(q)
        disc = a2 * a2 - 3.0 * a3 * a1
        # the fit's stationary point with second derivative 2 sqrt(disc) > 0
        t = -a1 / (a2 + math.sqrt(disc)) if a2 > 0 and disc > 0 else math.inf
        if abs(t) < 1:
            log_q = ((a3 * t + a2) * t + a1) * t + a0
            return float(lo + 0.5 * (hi - lo) * (1.0 + t)), min(float(log_q), 0.0)
    return float(s[i]), math.log(q[i]) if q[i] > 0 else -math.inf


def qcb(pair: HypothesisPair, m_modes: float) -> QcbResult:
    """Quantum Chernoff bound for an arbitrary Gaussian hypothesis pair.

    Q_s is log-convex in s (see the module docstring), so the neighbours of
    the smallest of a row of evenly spaced samples always bracket the
    minimiser.  Four batched rounds of 33 overlaps zoom from
    [1e-6, 1 - 1e-6] to a bracket below 1e-3 wide, and a least-squares
    cubic through log Q of the last round's samples gives s* and
    log Q(s*).  Identical hypotheses give Q = 1 exactly.
    """
    if (np.array_equal(pair.on.cov, pair.off.cov)
            and np.array_equal(pair.on.mean, pair.off.mean)):
        return QcbResult(s_star=0.5, q_value=1.0, exponent=0.0, p_err_bound=0.5)
    s_star, log_q = _zoom_min(_PairData(pair).overlap, _S_EDGE, 1.0 - _S_EDGE)
    q_value = math.exp(log_q)  # in [0, 1]
    exponent = -m_modes * log_q if log_q < 0 else 0.0
    return QcbResult(s_star=s_star, q_value=q_value, exponent=exponent,
                     p_err_bound=0.5 * q_value**m_modes)


def coherent_qcb_closed(params: ScenarioParams) -> QcbResult:
    """Closed-form bound for the coherent probe in constant thermal noise.

    Per-copy exponent kappa N_S (sqrt(N_B + 1) - sqrt(N_B))^2, evaluated as
    kappa N_S / (sqrt(N_B + 1) + sqrt(N_B))^2 and returned without a round
    trip through Q; optimal s = 1/2 (the hypotheses differ only by a
    displacement).
    """
    if params.noise_model is not NoiseModel.CONSTANT:
        raise ValueError("closed form assumes the constant noise model")
    per_copy = params.kappa * params.n_s / (
        math.sqrt(params.n_b + 1.0) + math.sqrt(params.n_b)) ** 2
    q_value = math.exp(-per_copy)
    exponent = params.m_modes * per_copy if q_value > 0 else math.inf
    return QcbResult(s_star=0.5, q_value=q_value, exponent=exponent,
                     p_err_bound=0.5 * q_value**params.m_modes)
