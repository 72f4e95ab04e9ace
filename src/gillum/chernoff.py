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
log-linear in s, so Q_s is log-convex and has a single minimum on (0, 1),
which one golden-section search finds without a grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import schur

from .channels import HypothesisPair, NoiseModel, ScenarioParams
from .states import QuadratureState, symplectic_form, to_quadrature

_S_EDGE = 1e-6
_GOLDEN_TOL = 1e-10
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


def _g_lambda(x: np.ndarray, p: float):
    """Per-mode normalization g_p(x) = 2^p / ((x+1)^p - (x-1)^p) and weight
    lambda_p(x) = ((x+1)^p + (x-1)^p) / ((x+1)^p - (x-1)^p).

    With e = ((x-1)/(x+1))^p - 1, formed by expm1 and log1p, neither needs
    the difference (x+1)^p - (x-1)^p, which cancels for the large x of
    thermal modes.  Pure modes (x = 1) give e = -1 and g = lambda = 1.
    """
    with np.errstate(divide="ignore"):  # log1p(-1) = -inf at x = 1
        e = np.expm1(p * np.log1p(-2.0 / (x + 1.0)))
    return ((x + 1.0) / 2.0) ** -p / -e, (2.0 + e) / -e


class _PairData:
    """Doubled-convention Williamson data of one hypothesis pair."""

    def __init__(self, pair: HypothesisPair):
        q_on = to_quadrature(pair.on)
        q_off = to_quadrature(pair.off)
        if q_on.n_modes != q_off.n_modes:
            raise ValueError("hypotheses must have the same mode count")
        self.n = q_on.n_modes
        nu_on, s_on = williamson(q_on)
        nu_off, s_off = williamson(q_off)
        # doubled convention: covariances scale by 2, basis unchanged
        self.nu_on = np.maximum(2.0 * nu_on, 1.0)
        self.nu_off = np.maximum(2.0 * nu_off, 1.0)
        self.s_on = s_on
        self.s_off = s_off
        self.delta = math.sqrt(2.0) * (q_on.mean_q - q_off.mean_q)
        if np.linalg.norm(self.delta) < _MEAN_SHORTCUT:
            self.delta = None

    def overlap(self, s: float) -> float:
        """Single-copy Q_s; equals 1 for identical hypotheses."""
        g_on, lam_on = _g_lambda(self.nu_on, s)
        g_off, lam_off = _g_lambda(self.nu_off, 1.0 - s)
        pi_s = float(np.prod(g_on) * np.prod(g_off))
        sig = (self.s_on @ np.diag(np.repeat(lam_on, 2)) @ self.s_on.T
               + self.s_off @ np.diag(np.repeat(lam_off, 2)) @ self.s_off.T)
        val = 2.0**self.n * pi_s / math.sqrt(float(np.linalg.det(sig)))
        if self.delta is not None:
            val *= math.exp(-0.5 * float(self.delta @ np.linalg.solve(sig, self.delta)))
        return min(val, 1.0)


def _golden_min(fn, lo: float, hi: float, tol: float) -> float:
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = fn(d)
    return 0.5 * (a + b)


def qcb(pair: HypothesisPair, m_modes: float) -> QcbResult:
    """Quantum Chernoff bound for an arbitrary Gaussian hypothesis pair.

    Q_s is log-convex in s (see the module docstring), so one golden-section
    search over [1e-6, 1 - 1e-6] finds its minimum.
    """
    data = _PairData(pair)
    s_star = _golden_min(data.overlap, _S_EDGE, 1.0 - _S_EDGE, _GOLDEN_TOL)
    q_value = data.overlap(s_star)  # in [0, 1]
    exponent = -m_modes * math.log(q_value) if q_value > 0 else math.inf
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
