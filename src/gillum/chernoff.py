"""Quantum Chernoff bounds for Gaussian hypothesis pairs.

The single-copy overlap Q_s = Tr(rho_on^s rho_off^{1-s}) of two Gaussian
states has a closed form in terms of their Williamson decompositions; the
bound on the M-copy discrimination error is (1/2) (min_s Q_s)^M.  All
formulas below work internally in the doubled-covariance convention
(vacuum symplectic eigenvalue 1), read from each state's quadrature
covariance ``cov_q`` (vacuum I/2) at the boundary.

In the eigenbases of the two density operators Q_s = sum_ij c_ij a_i^s
b_j^(1-s) with c_ij = |<a_i|b_j>|^2 >= 0 (Audenaert et al., PRL 98, 160501
(2007); Nussbaum & Szkola, Ann. Stat. 37, 1040 (2009)).  Each term is
log-linear in s, so Q_s is log-convex and strictly quasi-convex on (0, 1):
the neighbours of the smallest of a row of evenly spaced samples bracket
the minimiser.  The search evaluates whole rows of s in one batched call,
zooms into that bracket and, on the last, narrow one, fits a cubic to
log Q by least squares, which averages the round-off of the samples away.

Williamson bases come from one eigh of the Hermitian i K, K = sqrt(V) Omega
sqrt(V): an eigenvector x + i y of +nu is orthogonal to its conjugate, so
(sqrt(2) y, sqrt(2) x) is an orthonormal pair, degenerate or not, and its
Rayleigh quotient 2 y^T K x is a more accurate nu than the eigenvalue.
``williamson`` is the one symplectic spectrum; pure modes come out as exactly 1/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import HypothesisPair, NoiseModel, ScenarioParams
from .states import GaussianState, symplectic_form

_S_EDGE = 1e-6
_BRACKET = 33  # overlaps per batched round of the s search
_STOP_WIDTH = 1e-3  # bracket width of the fitted last round
_UNIT = np.linspace(0.0, 1.0, _BRACKET)
# least-squares coefficients (a3, a2, a1, a0) of a3 t^3 + a2 t^2 + a1 t + a0
# through the bracket's samples, t running over [-1, 1]
_CUBIC_FIT = np.linalg.pinv(np.vander(2.0 * _UNIT - 1.0, 4))
_PURE_TOL = 16 * np.finfo(float).eps  # round-off units of a pure mode's 2 nu


@dataclass(frozen=True)
class QcbResult:
    """Optimized Chernoff data: the argmin s and the M-copy exponent
    -M log min_s Q_s; the error bound is exp(-exponent) / 2."""

    s_star: float
    exponent: float


def williamson(state: GaussianState):
    """Williamson normal form of the state's quadrature covariance ``cov_q``.

    Returns (nu, s) with cov_q = s @ diag(nu_1, nu_1, ..., nu_n, nu_n) @ s.T
    and s symplectic; nu are the symplectic eigenvalues (>= 1/2 for physical
    states in this package's convention), read as Rayleigh quotients of pairs
    of eigenvectors of one Hermitian matrix (see the module docstring).

    It is the package's one purity test: an error E ~ eps lambda_max(cov_q)
    moves 2 nu_k by up to 2 |E| tr(s P_k s^T), P_k the projector on mode k;
    2 nu_k that close to 1 is returned as 1/2 (s unchanged), below that raises.
    """
    n = state.n_modes
    evals, evecs = np.linalg.eigh(state.cov_q)  # eigenvalues ascend
    if evals[0] <= 0:
        raise ValueError("covariance must be positive definite")
    sq = (evecs * np.sqrt(evals)) @ evecs.T
    skew = sq @ symplectic_form(n) @ sq
    skew = 0.5 * (skew - skew.T)
    v = np.linalg.eigh(1j * skew)[1][:, n:]  # +nu last
    z = np.empty((2 * n, 2 * n))
    z[:, 0::2], z[:, 1::2] = math.sqrt(2.0) * v.imag, math.sqrt(2.0) * v.real
    nus = np.einsum("ik,ij,jk->k", z[:, 0::2], skew, z[:, 1::2])
    s = sq @ z / np.sqrt(np.repeat(nus, 2))
    spread = (s * s).sum(axis=0).reshape(n, 2).sum(axis=1)  # tr(s P_k s^T)
    gap, tol = 2.0 * nus - 1.0, _PURE_TOL * evals[-1] * spread
    if np.any(gap < -tol):
        raise ValueError("covariance is not physical: symplectic eigenvalue below 1/2")
    return np.where(gap <= tol, 0.5, nus), s


def _g_lambda(log_ratio: np.ndarray, half_sum: np.ndarray, p: np.ndarray):
    """Per-mode normalization g_p(x) = 2^p / ((x+1)^p - (x-1)^p) and weight
    lambda_p(x) = ((x+1)^p + (x-1)^p) / ((x+1)^p - (x-1)^p), elementwise
    over the broadcast of p and x, given as log((x-1)/(x+1)) and (x+1)/2.

    With e = ((x-1)/(x+1))^p - 1, formed by expm1 and log1p, neither needs
    the difference (x+1)^p - (x-1)^p, which cancels for the large x of
    thermal modes.  Pure modes (x = 1) give e = -1 and g = lambda = 1.
    """
    e = np.expm1(p * log_ratio)
    return half_sum ** -p / -e, (2.0 + e) / -e


def _mode_projectors(s: np.ndarray) -> np.ndarray:
    """Row k: s P_k s^T flattened, P_k the projector on mode k's (x, p)."""
    outer = np.einsum("ik,jk->kij", s, s)
    return (outer[0::2] + outer[1::2]).reshape(s.shape[0] // 2, -1)


class _PairData:
    """Doubled-convention Williamson data of one hypothesis pair.

    The on modes come first and the off modes second in the per-mode arrays
    and in the rows of ``projectors``, so Sigma_s = S_on Lambda_{s}(on) S_on^T +
    S_off Lambda_{1-s}(off) S_off^T is one product lambda @ projectors.
    """

    def __init__(self, pair: HypothesisPair):
        if pair.on.n_modes != pair.off.n_modes:
            raise ValueError("hypotheses must have the same mode count")
        self.n = pair.on.n_modes
        (nu_on, s_on), (nu_off, s_off) = williamson(pair.on), williamson(pair.off)
        self.projectors = np.concatenate([_mode_projectors(s_on), _mode_projectors(s_off)])
        nu = 2.0 * np.concatenate([nu_on, nu_off])  # doubled: pure modes are 1
        with np.errstate(divide="ignore"):  # log1p(-1) = -inf at nu = 1
            self.log_ratio = np.log1p(-2.0 / (nu + 1.0))
        self.half_sum = (nu + 1.0) / 2.0
        self.is_on = np.arange(2 * self.n) < self.n
        delta = math.sqrt(2.0) * (pair.on.mean_q - pair.off.mean_q)
        self.delta = delta if delta.any() else None  # no displacement: skip the solve

    def overlap(self, s):
        """Single-copy Q_s, clamped to at most 1, at every s of a scalar or array."""
        s = np.asarray(s, dtype=float)[..., None]
        g, lam = _g_lambda(self.log_ratio, self.half_sum, np.where(self.is_on, s, 1.0 - s))
        # einsum, unlike a BLAS product, rounds a row alike for one s or many
        sig = np.einsum("...k,kj->...j", lam, self.projectors).reshape(
            s.shape[:-1] + (2 * self.n, 2 * self.n))
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
    if (np.array_equal(pair.on.cov_n, pair.off.cov_n)
            and np.array_equal(pair.on.mean_q, pair.off.mean_q)):
        return QcbResult(s_star=0.5, exponent=0.0)
    s_star, log_q = _zoom_min(_PairData(pair).overlap, _S_EDGE, 1.0 - _S_EDGE)
    return QcbResult(s_star=s_star, exponent=-m_modes * log_q if log_q < 0 else 0.0)


def coherent_qcb_closed(params: ScenarioParams) -> QcbResult:
    """Closed-form bound for the coherent probe in constant thermal noise.

    Per-copy exponent kappa N_S (sqrt(N_B + 1) - sqrt(N_B))^2, evaluated as
    kappa N_S / (sqrt(N_B + 1) + sqrt(N_B))^2 and returned without a round
    trip through Q, so it stays finite where Q would underflow to 0; optimal
    s = 1/2 (the hypotheses differ only by a displacement); elementwise.
    """
    if params.noise_model is not NoiseModel.CONSTANT:
        raise ValueError("closed form assumes the constant noise model")
    per_copy = params.kappa * params.n_s / (
        math.sqrt(params.n_b + 1.0) + math.sqrt(params.n_b)) ** 2
    return QcbResult(s_star=0.5, exponent=params.m_modes * per_copy)
