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

The search runs on a stack of pairs at once, since log-convexity holds for
each of them: a sweep is one ``HypothesisPair`` of stacked states,
``williamson`` decomposes each of its matrices, ``_PairData`` holds one pair
per row, and each round is one overlap call for all rows, each on its own
bracket.  Every step acts on each row alone, so a row has the bits of its
pair searched alone: ``qcb`` is the one-pair form of ``qcb_sweep``.  A
double Q_s near 1 resolves log Q to a few eps only, so a per-copy exponent
xi = -log Q(s*) is good to about 64 eps / xi relative; where that exceeds
1e-4 the search raises NumericalError rather than return the bound.

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
# samples of the first round, on [_S_EDGE, 1 - _S_EDGE] for every pair,
# formed as the later rounds form theirs
_FIRST_ROUND = np.minimum(_S_EDGE + (1.0 - _S_EDGE - _S_EDGE) * _UNIT, 1.0 - _S_EDGE)[None]
# least-squares coefficients (a3, a2, a1, a0) of a3 t^3 + a2 t^2 + a1 t + a0
# through the bracket's samples, t running over [-1, 1]
_CUBIC_FIT = np.linalg.pinv(np.vander(2.0 * _UNIT - 1.0, 4))
_PURE_TOL = 16 * np.finfo(float).eps  # round-off units of a pure mode's 2 nu
_ROUND_OFF = 64 * np.finfo(float).eps  # relative error of a per-copy exponent, times it
_MAX_ERROR = 1e-4  # largest relative error of a returned exponent


class NumericalError(RuntimeError):
    """A result that cannot be trusted: a non-finite value, or a Chernoff
    exponent below what double precision resolves."""


@dataclass(frozen=True)
class QcbResult:
    """Optimized Chernoff data: the argmin s and the M-copy exponent
    -M log min_s Q_s; the error bound is exp(-exponent) / 2.  Floats for one
    pair, arrays with one entry per pair for a sweep."""

    s_star: float | np.ndarray
    exponent: float | np.ndarray


def williamson(state: GaussianState):
    """Williamson normal form of the state's quadrature covariance ``cov_q``.

    Returns (nu, s) with cov_q = s @ diag(nu_1, nu_1, ..., nu_n, nu_n) @ s.T
    and s symplectic; nu are the symplectic eigenvalues (>= 1/2 for physical
    states in this package's convention), read as Rayleigh quotients of pairs
    of eigenvectors of one Hermitian matrix (see the module docstring).

    It is the package's one purity test: an error E ~ eps lambda_max(cov_q)
    moves 2 nu_k by up to 2 |E| tr(s P_k s^T), P_k the projector on mode k;
    2 nu_k that close to 1 is returned as 1/2 (s unchanged), below that raises.
    A stack of states gives nu (..., n) and s (..., 2n, 2n), every matrix
    decomposed on its own.
    """
    cov_q = state.cov_q
    n = cov_q.shape[-1] // 2
    evals, evecs = np.linalg.eigh(cov_q)  # eigenvalues ascend
    if (evals[..., 0] <= 0).any():
        raise ValueError("covariance must be positive definite")
    sq = (evecs * np.sqrt(evals)[..., None, :]) @ evecs.swapaxes(-1, -2)
    skew = sq @ symplectic_form(n) @ sq
    skew = 0.5 * (skew - skew.swapaxes(-1, -2))
    v = np.linalg.eigh(1j * skew)[1][..., n:]  # +nu last
    z = np.empty(cov_q.shape)
    z[..., 0::2], z[..., 1::2] = v.imag, v.real
    z *= math.sqrt(2.0)
    nus = np.einsum("...ik,...ij,...jk->...k", z[..., 0::2], skew, z[..., 1::2])
    s = sq @ z / np.sqrt(nus.repeat(2, axis=-1))[..., None, :]
    col = (s * s).sum(axis=-2)
    spread = col[..., 0::2] + col[..., 1::2]  # tr(s P_k s^T)
    gap, tol = 2.0 * nus - 1.0, _PURE_TOL * evals[..., -1:] * spread
    if (gap < -tol).any():
        raise ValueError("covariance is not physical: symplectic eigenvalue below 1/2")
    nus[gap <= tol] = 0.5
    return nus, s


def _g_lambda(log_ratio: np.ndarray, half_sum: np.ndarray, p: np.ndarray):
    """Per-mode normalization g_p(x) = 2^p / ((x+1)^p - (x-1)^p) and weight
    lambda_p(x) = ((x+1)^p + (x-1)^p) / ((x+1)^p - (x-1)^p), elementwise
    over the broadcast of p and x, given as log((x-1)/(x+1)) and (x+1)/2.

    With e = ((x-1)/(x+1))^p - 1, formed by expm1 and log1p, neither needs
    the difference (x+1)^p - (x-1)^p, which cancels for the large x of
    thermal modes.  Pure modes (x = 1) give e = -1 and g = lambda = 1.
    """
    e = p * log_ratio
    np.expm1(e, out=e)
    minus_e = -e
    return half_sum ** -p / minus_e, (2.0 + e) / minus_e


def _mode_projectors(s: np.ndarray) -> np.ndarray:
    """Row k of the last two axes: s P_k s^T flattened, P_k the projector on
    the k-th (x, p) column pair of ``s``, so the on and off bases placed side
    by side give the on modes' rows, then the off modes'."""
    outer = np.einsum("...ik,...jk->...kij", s, s)
    return (outer[..., 0::2, :, :] + outer[..., 1::2, :, :]).reshape(
        s.shape[:-2] + (s.shape[-1] // 2, -1))


class _PairData:
    """Doubled-convention Williamson data of a hypothesis pair, one row of
    every array per pair of its stack (one row for one pair).

    The on modes come first and the off modes second in the per-mode arrays
    and in the rows of ``projectors``, so Sigma_s = S_on Lambda_{s}(on) S_on^T +
    S_off Lambda_{1-s}(off) S_off^T is one product lambda @ projectors per row.
    """

    def __init__(self, pair: HypothesisPair):
        self.n = n = pair.on.n_modes
        (nu_on, s_on), (nu_off, s_off) = williamson(pair.on), williamson(pair.off)
        self.projectors = _mode_projectors(
            np.concatenate([s_on, s_off], axis=-1).reshape(-1, 2 * n, 4 * n))
        nu = 2.0 * np.concatenate([nu_on, nu_off], axis=-1).reshape(-1, 2 * n)  # doubled
        self.rows = len(nu)
        with np.errstate(divide="ignore"):  # log1p(-1) = -inf at nu = 1
            self.log_ratio = np.log1p(-2.0 / (nu + 1.0))[:, None]
        self.half_sum = ((nu + 1.0) / 2.0)[:, None]
        self.is_on = np.arange(2 * n) < n
        delta = math.sqrt(2.0) * (pair.on.mean_q - pair.off.mean_q).reshape(-1, 2 * n)
        # no displacement: skip the solve; else right-hand sides as explicit columns
        self.delta = delta[:, None, :, None] if delta.any() else None

    def overlap(self, s: np.ndarray) -> np.ndarray:
        """Single-copy Q_s, clamped to at most 1: row r of ``s`` (rows, k)
        samples pair r."""
        s = s[..., None]
        g, lam = _g_lambda(self.log_ratio, self.half_sum, np.where(self.is_on, s, 1.0 - s))
        # einsum, unlike a BLAS product, rounds a row alike for one s or many
        sig = np.einsum("rik,rkj->rij", lam, self.projectors).reshape(
            s.shape[:-1] + (2 * self.n, 2 * self.n))
        val = g.prod(axis=-1)
        val *= 2.0**self.n
        val /= np.sqrt(np.linalg.det(sig))
        if self.delta is not None:
            x = np.linalg.solve(sig, self.delta)[..., 0]
            val *= np.exp(-0.5 * (x @ self.delta[:, 0])[..., 0])
        return np.minimum(val, 1.0, out=val)


def _zoom_min(fn, rows: int) -> list:
    """(s*, log Q(s*)) of each of ``rows`` quasi-convex functions on
    [_S_EDGE, 1 - _S_EDGE], given ``fn`` mapping samples (rows, _BRACKET),
    one row per function, to their values.

    Each round samples _BRACKET evenly spaced points of every row's bracket
    in one call and keeps the neighbours of the row's argmin, which bracket
    its minimiser.  A row whose bracket is at most _STOP_WIDTH wide keeps it,
    so its samples repeat, until every row's is.  Then a least-squares fit
    through log Q of a row's last samples gives its minimum: averaging over
    all of them keeps round-off in the samples from selecting the result,
    and the cubic term keeps the skew of log Q across the bracket from
    biasing it.  An argmin on the bracket edge, a sample that underflowed to
    0, or a fit without a convex minimum inside the bracket falls back to
    the sampled minimum.  Brackets stay per-row Python floats, and each
    row's samples are formed from them as in a scalar search: broadcasting
    against bracket columns would cost a one-row search more than the
    per-row loop costs a sweep.
    """
    lo, hi = [_S_EDGE] * rows, [1.0 - _S_EDGE] * rows
    s = _FIRST_ROUND.repeat(rows, axis=0)
    while True:
        q = fn(s)
        argmin = q.argmin(axis=1).tolist()
        wide = [r for r in range(rows) if hi[r] - lo[r] > _STOP_WIDTH]
        if not wide:
            break
        for r in wide:
            i = argmin[r]
            lo[r], hi[r] = s[r, max(i - 1, 0)], s[r, min(i + 1, _BRACKET - 1)]
        s = np.array([np.minimum(a + (b - a) * _UNIT, b) for a, b in zip(lo, hi)])
    out = []
    for r, i in enumerate(argmin):
        q_r = q[r]
        if 0 < i < _BRACKET - 1 and q_r[i] > 0:
            a3, a2, a1, a0 = _CUBIC_FIT @ np.log(q_r)
            disc = a2 * a2 - 3.0 * a3 * a1
            # the fit's stationary point with second derivative 2 sqrt(disc) > 0
            t = -a1 / (a2 + math.sqrt(disc)) if a2 > 0 and disc > 0 else math.inf
            if abs(t) < 1:
                log_q = ((a3 * t + a2) * t + a1) * t + a0
                out.append((float(lo[r] + 0.5 * (hi[r] - lo[r]) * (1.0 + t)),
                            min(float(log_q), 0.0)))
                continue
        out.append((float(s[r, i]), math.log(q_r[i]) if q_r[i] > 0 else -math.inf))
    return out


def _bounds(data: _PairData, m_modes: float):
    """s* and the M-copy exponent of each row of ``data``, as two lists.

    A double Q_s near 1 resolves log Q to a few eps, so a per-copy exponent
    xi = -log Q(s*) carries a relative error near 64 eps / xi; a row where
    that exceeds _MAX_ERROR raises NumericalError instead of returning it.
    """
    s_star, exponent = [], []
    for s, log_q in _zoom_min(data.overlap, data.rows):
        xi = -log_q if log_q < 0 else 0.0
        if _ROUND_OFF > _MAX_ERROR * xi:
            raise NumericalError(
                f"per-copy Chernoff exponent {xi:.3g} is below what double precision "
                f"resolves (estimated relative error {_ROUND_OFF / xi if xi else math.inf:.2g}"
                f" > {_MAX_ERROR:g})")
        s_star.append(s)
        exponent.append(m_modes * xi)
    return s_star, exponent


def qcb_sweep(pair: HypothesisPair, m_modes: float) -> QcbResult:
    """Quantum Chernoff bound of every pair of a stacked hypothesis pair, as
    arrays of the stack's shape, each pair with the bits it has searched alone.

    Q_s is log-convex in s (module docstring), so four batched rounds of 33
    overlaps zoom from [1e-6, 1 - 1e-6] to a bracket below 1e-3 wide around
    the minimiser, and a least-squares cubic through log Q of the last
    round's samples gives s* and log Q(s*).  Identical hypotheses give Q = 1
    exactly and are not searched.  Raises NumericalError where double
    precision cannot resolve an exponent.
    """
    on, off = pair.on, pair.off
    if on.mean_q.shape != off.mean_q.shape:
        raise ValueError("hypotheses must have the same mode count and stack shape")
    live = (on.cov_n != off.cov_n).any(axis=(-2, -1)) | (on.mean_q != off.mean_q).any(axis=-1)
    s_star, exponent = np.full(live.shape, 0.5), np.zeros(live.shape)
    if live.any():
        if not live.all():  # search the live rows only
            pair = HypothesisPair(GaussianState(on.mean_q[live], on.cov_n[live]),
                                  GaussianState(off.mean_q[live], off.cov_n[live]))
        s_star[live], exponent[live] = _bounds(_PairData(pair), m_modes)
    return QcbResult(s_star=s_star, exponent=exponent)


def qcb(pair: HypothesisPair, m_modes: float) -> QcbResult:
    """Quantum Chernoff bound of one Gaussian hypothesis pair, as floats:
    ``qcb_sweep`` on a stack of one."""
    if pair.on.mean_q.ndim != 1:
        raise ValueError("qcb takes one pair; qcb_sweep takes a stack")
    res = qcb_sweep(pair, m_modes)
    return QcbResult(s_star=float(res.s_star), exponent=float(res.exponent))


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
