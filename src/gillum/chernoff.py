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
the minimiser.  The search evaluates whole rows of s in one batched call:
33 samples of (0, 1) first, whose 5 around the smallest predict s* by a
cubic through log Q.  Float arithmetic alone then narrows the bracket as a
zoom into the neighbours of each round's argmin would, taking the sample
nearest the prediction as the argmin, down to a bracket below 1e-3 wide,
and the second call samples it.  Where the smallest of those samples is
interior, the minimiser is inside, and a cubic fitted to log Q by least
squares, which averages the round-off of the samples away, gives it (on
the edge of the s range, that edge is the minimum); otherwise the row
zooms on from its first bracket, up to three more calls.

The search runs on a stack of pairs at once, since log-convexity holds for
each of them: a sweep is one ``HypothesisPair`` of stacked states,
``williamson`` decomposes each of its matrices, ``_PairData`` holds one pair
per row, each round is one overlap call for all rows on their own brackets,
and one pass over the rows fits, checks and scales each (identical
hypotheses give s* = 1/2, exponent 0).  Every step acts on each row alone,
so a row has the bits of its pair searched alone: ``qcb`` (one pair, floats)
and ``qcb_sweep`` (a stack, arrays) both call ``_search(pair, m_modes)``, which
checks the pair, marks its identical rows and builds its ``_PairData`` itself.
A double Q_s near 1 resolves log Q to a few eps
only, so a per-copy exponent xi = -log Q(s*) is good to about 64 eps / xi
relative; where that exceeds 1e-4 the search raises NumericalError.

Williamson bases come from one eigh of the Hermitian i K, K = sqrt(V) Omega
sqrt(V): an eigenvector x + i y of +nu is orthogonal to its conjugate, so
(sqrt(2) y, sqrt(2) x) is an orthonormal pair, degenerate or not, and its
Rayleigh quotient 2 y^T K x is a more accurate nu than the eigenvalue.
``williamson`` is the one symplectic spectrum; pure modes come out as exactly 1/2.
An ``lru_cache`` keyed on the exact bytes and shape of ``cov_n`` keeps its last
few distinct matrices' decompositions, so a sweep that asks for one matrix at
every point (the off state of a kappa sweep) decomposes it once.

Phase-insensitive states, ``cov_q`` exactly A (x) I_2 with A = N + I/2 (vacuum,
thermal, coherent and split-thermal states and their channel images: every
Chernoff pair the presets build, but not the TMSV), take an n x n path: one
real eigh of A gives nu and s = O (x) I_2.  A pair row forms Sigma_s from its
basis columns per mode: one x column each where both bases are O (x) I_2, read
from the bases, as Sigma_s = Sigma_c (x) I_2 (Pirandola & Lloyd, PRA 78, 012331
(2008)), n x n; x and p columns, 2n x 2n, otherwise.  In a stack the n x n basis
is written over the general one on the rows it fits, so every row keeps its bits.
One mode's Sigma_c is 1 x 1: its determinant and quadratic form are plain
arithmetic on its entry.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .channels import HypothesisPair, NoiseModel, ScenarioParams, _check_m_modes
from .states import GaussianState, _phase_insensitive, symplectic_form

_S_EDGE = 1e-6
_TOP = 1.0 - _S_EDGE
_BRACKET = 33  # overlaps per batched round of the s search
_STOP_WIDTH = 1e-3  # bracket width of the fitted last round
_UNIT = np.linspace(0.0, 1.0, _BRACKET)
_FIRST = np.minimum(_S_EDGE + (_TOP - _S_EDGE) * _UNIT, _TOP)  # round 1's samples
_UNIT_S, _FIRST_S = _UNIT.tolist(), _FIRST.tolist()  # as floats, for the per-row walk
# least-squares coefficients (a3, a2, a1, a0) of a3 t^3 + a2 t^2 + a1 t + a0
# through the bracket's samples, t running over [-1, 1]
_CUBIC_FIT = np.linalg.pinv(np.vander(2.0 * _UNIT - 1.0, 4))
# the same through 5 samples of round 1, t in sample steps over [-2, 2]
_GUESS_FIT = np.linalg.pinv(np.vander(np.arange(-2.0, 3.0), 4))
_PURE_TOL = 16 * np.finfo(float).eps  # round-off units of a pure mode's 2 nu
_ROUND_OFF = 64 * np.finfo(float).eps  # relative error of a per-copy exponent, times it
_MAX_ERROR = 1e-4  # largest relative error of a returned exponent
_MEMO_SIZE = 8  # distinct matrices whose decompositions williamson keeps


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
    of eigenvectors of one Hermitian matrix (see the module docstring); for a
    phase-insensitive cov_q = A (x) I_2, nu are A's eigenvalues and s = O (x) I_2,
    O its eigenvectors, so s is orthogonal too.

    It is the package's one purity test: an error E ~ eps lambda_max(cov_q)
    moves 2 nu_k by up to 2 |E| tr(s P_k s^T), P_k the projector on mode k;
    2 nu_k that close to 1 is returned as 1/2 (s unchanged), below that raises.
    A non-finite entry raises too.  A stack of states gives nu (..., n) and
    s (..., 2n, 2n), every matrix with the bits of its own call.

    An ``lru_cache`` of ``(cov_n.shape, cov_n.tobytes())`` keeps the last
    _MEMO_SIZE (8) distinct ``cov_n``: a hit returns the bits a fresh call
    gives, since the key holds every bit of the input (+0.0 and -0.0 differ,
    and a state differs from its one-row stack).  So nu and s are read-only
    arrays, shared between the calls; a refusal raises and is not kept.
    """
    return _decompose_bytes(state.cov_n.shape, state.cov_n.tobytes())


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _decompose_bytes(shape: tuple, data: bytes):
    """``_decompose`` of the ``cov_q`` of these ``cov_n`` bytes, formed as ``cov_q`` is."""
    return _decompose(np.frombuffer(data).reshape(shape) + 0.5 * np.eye(shape[-1]))


def _decompose(cov_q: np.ndarray):
    """``williamson`` without its memo on a finite covariance or a stack, then the
    purity rule: ``_symplectic_basis`` fits any matrix, and ``_orthogonal_basis``
    is written over the phase-insensitive ones (alone if all of them are)."""
    if not np.isfinite(cov_q).all():
        raise ValueError("covariance must be finite")
    plain = _phase_insensitive(cov_q)
    nus, s, top = (_orthogonal_basis if plain.all() else _symplectic_basis)(cov_q)
    if plain.any() and not plain.all():
        nus[plain], s[plain], top[plain] = _orthogonal_basis(cov_q[plain])
    col = (s * s).sum(axis=-2)
    spread = col[..., 0::2] + col[..., 1::2]  # tr(s P_k s^T)
    gap, tol = 2.0 * nus - 1.0, _PURE_TOL * top * spread
    if (gap < -tol).any():
        raise ValueError("covariance is not physical: symplectic eigenvalue below 1/2")
    nus[gap <= tol] = 0.5
    nus.setflags(write=False)
    s.setflags(write=False)
    return nus, s


def _orthogonal_basis(cov_q: np.ndarray):
    """(nu, s, lambda_max(cov_q)) of cov_q = A (x) I_2: one real eigh gives
    A = O diag(nu) O^T, and s = O (x) I_2 is orthogonal and symplectic."""
    nus, o = np.linalg.eigh(cov_q[..., 0::2, 0::2])  # eigenvalues ascend
    if (nus[..., 0] <= 0).any():
        raise ValueError("covariance must be positive definite")
    s = np.zeros(cov_q.shape)
    s[..., 0::2, 0::2] = s[..., 1::2, 1::2] = o
    return nus, s, nus[..., -1:]


def _symplectic_basis(cov_q: np.ndarray):
    """(nu, s, lambda_max(cov_q)) of any covariance, from the Hermitian i K
    (module docstring)."""
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
    return nus, sq @ z / np.sqrt(nus.repeat(2, axis=-1))[..., None, :], evals[..., -1:]


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


class _PairData:
    """Doubled-convention Williamson data of a hypothesis pair, one row of
    every array per pair of its stack (one row for one pair).

    On modes come first and off modes second in the per-mode arrays and the
    projectors' rows: Sigma_s = sum_k lambda_k b_k b_k^T, b_k the (m, c) basis
    columns of mode k in a row's on and off bases side by side, is one product
    lambda @ projectors.  Where those bases are O (x) I_2 (as ``williamson``
    gives phase-insensitive states), b is their x-x block (m = n, c = 1) and
    Sigma_s = Sigma_c (x) I_2, so sqrt(det Sigma_s) = det Sigma_c; otherwise
    b is all of s (m = 2n, c = 2).  delta gives 2n / m right-hand sides of the
    m x m Sigma.  ``blocks`` holds (rows, projectors, n x n?, delta) per branch.
    A one-mode n x n row (coherent and thermal pairs) has a 1 x 1 Sigma_c, so
    ``overlap`` reads det Sigma_c as its entry and the quadratic form as
    |delta|^2 / Sigma_c, with no LAPACK call (np.linalg.det would round the
    entry through exp(log|a|)); m >= 2 takes np.linalg.det and solve.
    """

    def __init__(self, pair: HypothesisPair):
        self.n = n = pair.on.n_modes
        (nu_on, s_on), (nu_off, s_off) = williamson(pair.on), williamson(pair.off)
        s = np.concatenate([s_on, s_off], axis=-1).reshape(-1, 2 * n, 4 * n)
        nu = 2.0 * np.concatenate([nu_on, nu_off], axis=-1).reshape(-1, 2 * n)  # doubled
        with np.errstate(divide="ignore"):  # log1p(-1) = -inf at nu = 1
            self.log_ratio = np.log1p(-2.0 / (nu + 1.0))[:, None]
        self.half_sum = ((nu + 1.0) / 2.0)[:, None]
        self.is_on = np.arange(2 * n) < n
        delta = math.sqrt(2.0) * (pair.on.mean_q - pair.off.mean_q).reshape(-1, 2 * n)
        plain = _phase_insensitive(s)
        kinds, self.blocks = set(plain.ravel().tolist()), []
        for orth in kinds:  # each branch on its rows, all of them when one branch
            rows = slice(None) if len(kinds) == 1 else np.flatnonzero(plain == orth)
            step, m = (2, n) if orth else (1, 2 * n)  # the x-x block, or all of s
            b = s[rows, ::step, ::step].reshape(-1, m, 2 * n, 2 // step)  # (rows, m, mode, c)
            proj = np.einsum("rikc,rjkc->rkij", b, b).reshape(-1, 2 * n, m * m)
            d = delta[rows].reshape(-1, 1, m, step)
            self.blocks.append((rows, proj, orth, d if d.any() else None))  # d = 0: no solve

    def overlap(self, s: np.ndarray) -> np.ndarray:
        """Single-copy Q_s as computed, row r of ``s`` (rows, k) sampling pair
        r, or one row (1, k) sampling every pair; a round-off Q_s above 1
        reads as xi = 0 in ``_search``."""
        s = s[..., None]
        g, lam = _g_lambda(self.log_ratio, self.half_sum, np.where(self.is_on, s, 1.0 - s))
        val = g.prod(axis=-1)
        val *= 2.0**self.n
        for rows, proj, orth, delta in self.blocks:
            lam_r, m = lam[rows], self.n if orth else 2 * self.n
            # einsum, unlike a BLAS product, rounds a row alike for one s or many
            sig = np.einsum("rik,rkj->rij", lam_r, proj).reshape(lam_r.shape[:-1] + (m, m))
            if m == 1:  # one mode's Sigma_c: det is its entry, the form |delta|^2 / Sigma_c
                sig = sig[..., 0, 0]
                val[rows] /= sig
                if delta is not None:
                    val[rows] *= np.exp(-0.5 * ((delta * delta).sum(axis=(-2, -1)) / sig))
                continue
            det = np.linalg.det(sig)
            val[rows] /= det if orth else np.sqrt(det)
            if delta is not None:
                x = np.linalg.solve(sig, delta)
                quad = x.reshape(x.shape[:-2] + (-1,)) @ delta.reshape(len(delta), -1, 1)
                val[rows] *= np.exp(-0.5 * quad[..., 0])
        return val


def _zoom(data: _PairData, lo: list, hi: list):
    """Sample _BRACKET evenly spaced points of every row's bracket [lo, hi]
    in one overlap call, narrow each bracket wider than _STOP_WIDTH to the
    neighbours of its row's argmin, which bracket the minimiser, and repeat
    until none is wider; a narrow row keeps its bracket, so its samples
    repeat.  Returns the last round's samples, overlaps and argmins.
    Brackets stay per-row Python floats, and each row's samples are formed
    from them as in a scalar search: broadcasting against bracket columns
    would cost a one-row search more than the per-row loop costs a sweep."""
    while True:
        s = np.array([np.minimum(a + (b - a) * _UNIT, b) for a, b in zip(lo, hi)])
        q = data.overlap(s)
        argmin = q.argmin(axis=1).tolist()
        wide = [r for r in range(len(lo)) if hi[r] - lo[r] > _STOP_WIDTH]
        if not wide:
            return s, q, argmin
        for r in wide:
            i = argmin[r]
            lo[r], hi[r] = s[r, max(i - 1, 0)], s[r, min(i + 1, _BRACKET - 1)]


def _guess(q_r: np.ndarray, i: int) -> float:
    """s* of a row predicted from its round-1 overlaps ``q_r``, argmin ``i``:
    the convex stationary point of a least-squares cubic through log Q at the
    5 samples around i, if it lies within 2 steps of i; else i's own s."""
    if 2 <= i <= _BRACKET - 3 and q_r[i] > 0:
        a3, a2, a1, _ = _GUESS_FIT @ np.log(q_r[i - 2:i + 3])
        disc = a2 * a2 - 3.0 * a3 * a1
        if a2 > 0 and disc > 0:
            t = float(-a1 / (a2 + math.sqrt(disc)))
            if abs(t) < 2:
                return _FIRST_S[i] + t * (_TOP - _S_EDGE) / (_BRACKET - 1)
    return _FIRST_S[i]


def _walk(a: float, b: float, guess: float) -> tuple:
    """The bracket ``_zoom`` reaches from [a, b] where each round's argmin is
    the sample nearest ``guess``, in float arithmetic: each end is formed as
    ``_zoom`` forms that sample, so it has the zoom's bits where the guess
    picks the zoom's argmins."""
    while b - a > _STOP_WIDTH:
        k = min(max(round((guess - a) / (b - a) * (_BRACKET - 1)), 0), _BRACKET - 1)
        u, v = _UNIT_S[max(k - 1, 0)], _UNIT_S[min(k + 1, _BRACKET - 1)]
        a, b = min(a + (b - a) * u, b), min(a + (b - a) * v, b)
    return a, b


def _search(pair: HypothesisPair, m_modes: float):
    """s* and the M-copy exponent -M log min_s Q_s of each pair of the
    (stacked) ``pair``, as two flat lists; on and off must stack alike.

    Two overlap calls in the common case.  Round 1 samples _BRACKET evenly
    spaced points of [_S_EDGE, 1 - _S_EDGE] for every row; the neighbours of
    a row's argmin bracket its minimiser (round 2's bracket of ``_zoom``).  A
    cubic through log Q at the 5 samples around the argmin predicts s*, and
    ``_walk`` narrows the bracket around the prediction as the zoom's rounds
    2 and 3 would, to a bracket at most _STOP_WIDTH wide, whose samples are
    the second call.  A row is done if the argmin of those samples is
    interior, so its minimiser lies inside, or sits on the global edge
    _S_EDGE or 1 - _S_EDGE.  Any other row zooms on from its round-2
    bracket in ``_zoom`` (up to three more calls) while the done rows keep
    their brackets and repeat their samples bit for bit, so every row has
    the bits of its pair searched alone.

    Then a least-squares fit through log Q of a row's last samples gives its
    minimum: averaging over all of them keeps round-off in the samples from
    selecting the result, and the cubic term keeps the skew of log Q across
    the bracket from biasing it.  An argmin on the bracket edge, a sample
    that underflowed to 0 (beside a minimum that did not), or a fit without
    a convex minimum inside the bracket falls back to the sampled minimum.

    M must be one whole number >= 1, as in ``ScenarioParams``.
    Rows of identical hypotheses are sampled with the rest and keep s* = 1/2,
    exponent +0.0.  A sampled minimum that is NaN, or that underflowed to 0
    (a per-copy exponent beyond about 745, which would read as inf), raises
    NumericalError.  A row's per-copy exponent xi = -log Q(s*) carries a
    relative error near 64 eps / xi (module docstring); where that exceeds
    _MAX_ERROR the search raises NumericalError.  Each refusal names s and,
    for a stack, the row: its index in the flattened stack.
    """
    _check_m_modes(m_modes)
    on, off = pair.on, pair.off
    if on.mean_q.shape != off.mean_q.shape:
        raise ValueError("hypotheses must have the same mode count and stack shape")
    live = ((on.cov_n != off.cov_n).any(axis=(-2, -1))
            | (on.mean_q != off.mean_q).any(axis=-1)).ravel().tolist()
    data = _PairData(pair)
    q = data.overlap(_FIRST[None])  # one row of samples for every pair
    first = q.argmin(axis=1).tolist()
    start = [(_FIRST_S[max(i - 1, 0)], _FIRST_S[min(i + 1, _BRACKET - 1)]) for i in first]
    ends = [_walk(a, b, _guess(q[r], first[r])) for r, (a, b) in enumerate(start)]
    lo, hi = [a for a, _ in ends], [b for _, b in ends]
    s, q, argmin = _zoom(data, lo, hi)  # one call: every walked bracket is narrow
    retry = [r for r, i in enumerate(argmin) if live[r] and not (
        0 < i < _BRACKET - 1 or s[r, i] == _S_EDGE or s[r, i] == _TOP)]
    if retry:
        for r in retry:
            lo[r], hi[r] = start[r]
        s, q, argmin = _zoom(data, lo, hi)
    row = " in row {}" if on.mean_q.ndim > 1 else ""
    s_star, exponent = [0.5] * len(live), [0.0] * len(live)  # kept by identical-hypothesis rows
    for r, i in enumerate(argmin):
        if not live[r]:
            continue
        q_r, s_r, t = q[r], float(s[r, i]), math.inf
        if not q_r[i] > 0:  # nan, or an underflow that would read as exponent inf
            raise NumericalError(
                f"Chernoff overlap Q_s is {q_r[i]} at s = {s_r:.6g}{row.format(r)}"
                + (": it underflowed, so the exponent is beyond the double range"
                   if q_r[i] == 0 else ""))
        if 0 < i < _BRACKET - 1:
            a3, a2, a1, a0 = _CUBIC_FIT @ np.log(q_r)
            disc = a2 * a2 - 3.0 * a3 * a1
            # the fit's stationary point with second derivative 2 sqrt(disc) > 0
            if a2 > 0 and disc > 0:
                t = -a1 / (a2 + math.sqrt(disc))
        if abs(t) < 1:
            s_r = float(lo[r] + 0.5 * (hi[r] - lo[r]) * (1.0 + t))
            log_q = float(((a3 * t + a2) * t + a1) * t + a0)
        else:
            log_q = math.log(q_r[i])
        xi = -log_q if log_q < 0 else 0.0
        if _ROUND_OFF > _MAX_ERROR * xi:
            raise NumericalError(
                f"per-copy Chernoff exponent {xi:.3g}{row.format(r)} is below what double "
                f"precision resolves (estimated relative error "
                f"{_ROUND_OFF / xi if xi else math.inf:.2g} > {_MAX_ERROR:g})")
        s_star[r], exponent[r] = s_r, m_modes * xi
    return s_star, exponent


def qcb_sweep(pair: HypothesisPair, m_modes: float) -> QcbResult:
    """Quantum Chernoff bound of every pair of a stacked hypothesis pair, as
    arrays of the stack's shape, each pair with the bits it has searched alone.

    Q_s is log-convex in s (module docstring), so two batched rounds of 33
    overlaps find the minimiser: round 1 over [1e-6, 1 - 1e-6] predicts it,
    and round 2 samples the bracket below 1e-3 wide that zooming around the
    prediction reaches.  A row whose round-2 argmin is on its bracket's edge
    (not the range's) zooms on from its round-1 bracket in up to three
    more rounds, the other rows repeating their samples.  A least-squares
    cubic through log Q of the last round's samples gives s* and log Q(s*).
    Rows of identical hypotheses (Q = 1 exactly) go through the same pass
    and return s* = 1/2 and exponent 0.  Raises NumericalError where double
    precision cannot resolve an exponent.
    """
    s_star, exponent = _search(pair, m_modes)
    shape = pair.on.mean_q.shape[:-1]
    return QcbResult(s_star=np.reshape(s_star, shape), exponent=np.reshape(exponent, shape))


def qcb(pair: HypothesisPair, m_modes: float) -> QcbResult:
    """Quantum Chernoff bound of one Gaussian hypothesis pair, as floats.

    Like ``qcb_sweep``, it calls ``_search``, here on the pair's one row, so
    the pair has the bits it has as a row of a sweep."""
    if pair.on.mean_q.ndim != 1:
        raise ValueError("qcb takes one pair; qcb_sweep takes a stack")
    (s_star,), (exponent,) = _search(pair, m_modes)
    return QcbResult(s_star=float(s_star), exponent=float(exponent))


def coherent_qcb_closed(params: ScenarioParams) -> QcbResult:
    """Closed-form bound for the coherent probe in constant thermal noise.

    Per-copy exponent kappa N_S (sqrt(N_B + 1) - sqrt(N_B))^2, evaluated as
    kappa N_S / (sqrt(N_B + 1) + sqrt(N_B))^2, the square as a product (a
    scalar's ``**`` is pow, off by an ulp at times, so a sweep entry keeps
    the bits of its point call), and returned without a round trip through
    Q, so it stays finite where Q would underflow to 0; optimal s = 1/2 (a
    pure displacement); elementwise: floats for a point, arrays for a sweep.
    """
    if params.noise_model is not NoiseModel.CONSTANT:
        raise ValueError("closed form assumes the constant noise model")
    root = np.sqrt(params.n_b + 1.0) + np.sqrt(params.n_b)
    exponent = params.m_modes * (params.kappa * params.n_s / (root * root))
    return QcbResult(np.full_like(exponent, 0.5) if np.ndim(exponent) else 0.5, exponent)
