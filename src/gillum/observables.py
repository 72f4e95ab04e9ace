"""Hermitian observables quadratic in the quadratures, with exact Gaussian moments.

An observable is a real quadratic form in ``r = (x_1, p_1, ..., x_n, p_n)``,

    O = c0 + lin^T r + r^T h r - tr(h) / 2,

with ``h`` real symmetric (2n, 2n) and ``lin`` real (2n,), so Hermiticity is
structural and ``c0`` is the vacuum mean (the vacuum has <r^T h r> = tr(h)/2).
Mode-operator expressions enter through ``a = (x + i p)/sqrt(2)``; each
constructor below states the identity it uses.  Means and variances on
Gaussian states are evaluated exactly from the state's ``mean_q`` and
``cov_n``; nothing is sampled.  Modes of an observable beyond the state's
are vacuum ancillas, such as a conjugator's input or a heterodyne's open
port.  The receiver catalog below states each observable's operator; the
closed forms in ``receivers`` fix the parametrized ones at the paper's
settings (``PC_MU``/``PC_NU``, ``OPA_GAIN``).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .states import (GaussianState, _check_mode, _two_mode_matrix, beam_splitter_matrix,
                     symplectic_form)

_COEFF_TOL = 1e-12
_VAR_CLAMP = 1e-10


@dataclass(frozen=True)
class QuadraticObservable:
    """Quadratic quadrature observable ``c0 + lin^T r + r^T h r - tr(h)/2``."""

    c0: float
    h: np.ndarray
    lin: np.ndarray
    _vacuum_quad_var: float = field(init=False, repr=False, compare=False)
    _has_lin: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.c0, numbers.Real):  # float() would read "1.5"
            raise ValueError(f"c0 must be a real number, got {self.c0!r}")
        if np.iscomplexobj(self.h) or np.iscomplexobj(self.lin):
            raise ValueError("h and lin must be real")
        c0 = float(self.c0)
        h = np.array(self.h, dtype=float)
        lin = np.array(self.lin, dtype=float)
        if lin.ndim != 1 or lin.size < 2 or lin.size % 2 or h.shape != (lin.size, lin.size):
            raise ValueError("lin must have length 2 n_modes >= 2 and h shape (2n, 2n)")
        if not (math.isfinite(c0) and np.isfinite(h).all() and np.isfinite(lin).all()):
            raise ValueError("c0, h and lin must be finite")
        if np.max(np.abs(h - h.T)) > _COEFF_TOL * max(1.0, float(np.max(np.abs(h)))):
            raise ValueError("h must be symmetric")
        h.setflags(write=False)
        lin.setflags(write=False)
        object.__setattr__(self, "c0", c0)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "lin", lin)
        omega = symplectic_form(self.n_modes)
        object.__setattr__(self, "_vacuum_quad_var", 0.5 * np.vdot(h, h + omega @ h @ omega))
        object.__setattr__(self, "_has_lin", bool(lin.any()))

    @property
    def n_modes(self) -> int:
        return self.lin.size // 2

    def affine(self, a: float, b: float = 0.0) -> "QuadraticObservable":
        """The observable a*O + b."""
        return QuadraticObservable(a * self.c0 + b, a * self.h, a * self.lin)


@dataclass(frozen=True)
class ObservableStats:
    """Exact mean and variance of an observable on one state: both finite,
    and a variance below 0 only by round-off (the clamp window), read as 0."""

    mean: float
    variance: float

    def __post_init__(self):
        if not (-_VAR_CLAMP <= self.variance < math.inf and abs(self.mean) < math.inf):
            raise ValueError(f"mean {self.mean} or variance {self.variance} is NaN, "
                             "infinite or below the clamp window")
        object.__setattr__(self, "variance", max(0.0, float(self.variance)))
        object.__setattr__(self, "mean", float(self.mean))


def stats(obs: QuadraticObservable, state: GaussianState) -> ObservableStats:
    """Exact mean and variance of ``obs`` on one ``state`` (not a stack).

    With m = mean_q, N = cov_n, Omega the symplectic form and b = lin + 2 h m,

        <O>    = c0 + lin.m + m^T h m + tr(h N)
        Var(O) = 2 tr(hN (hN + h)) + tr(h (h + Omega h Omega)) / 2
                 + b^T N b + b^T b / 2,

    the Gaussian 2 tr(hVhV) + tr(h Omega h Omega)/2 + b^T V b at the
    symmetrized covariance V = N + I/2, expanded in N so that the vacuum
    terms cancel exactly (h + Omega h Omega = 0 for a passive h).  Modes of
    ``obs`` beyond the state's are vacuum: N is zero-padded.

    The displacement terms lin.m, m^T h m, b^T N b and b^T b / 2 (with m
    zero-padded too) are formed only when ``obs`` has a linear part or the
    state has a mean.  Otherwise m = 0 and b = 0, each of those terms is an
    exact +0.0, and adding it leaves every sum's bits as they are, so both
    branches give the bits of the one formula above.
    """
    h, lin, m, cov = obs.h, obs.lin, state.mean_q, state.cov_n
    if m.ndim != 1:
        raise ValueError("stats takes one state, not a stack of states")
    k = m.size
    if k > lin.size:
        raise ValueError("state has more modes than the observable")
    if k < lin.size:
        cov = np.zeros(h.shape)
        cov[:k, :k] = state.cov_n
    hn = h @ cov
    var = 2.0 * np.vdot(hn, hn.T + h) + obs._vacuum_quad_var
    if not (obs._has_lin or np.count_nonzero(m)):
        return ObservableStats(obs.c0 + np.vdot(h, cov), var)
    if k < lin.size:
        m = np.concatenate((m, np.zeros(lin.size - k)))
    hm = h @ m
    b = lin + 2.0 * hm
    mean = obs.c0 + lin @ m + m @ hm + np.vdot(h, cov)
    return ObservableStats(mean, var + b @ cov @ b + 0.5 * (b @ b))


# ---------------------------------------------------------------------------
# receiver observables, written in quadratures through
#   a^dag a = (x^2 + p^2)/2 - 1/2,        a a^dag = (x^2 + p^2)/2 + 1/2,
#   a_S^dag a_I^dag + a_S a_I = x_S x_I - p_S p_I,
#   a_S^dag a_I + a_I^dag a_S = x_S x_I + p_S p_I   (distinct modes S, I)
# ---------------------------------------------------------------------------

def _two_mode(c0: float, diag, xx: float, pp: float) -> QuadraticObservable:
    """Two-mode observable with h = diag(diag) on (x_S, p_S, x_I, p_I) and
    cross entries h[x_S, x_I] = xx, h[p_S, p_I] = pp."""
    return QuadraticObservable(c0, _two_mode_matrix(diag, xx, pp), np.zeros(4))


def obs_bound(alpha: float, beta: float) -> QuadraticObservable:
    """Signal-idler squeeze coupling plus weighted photon numbers.

    O = a_S^dag a_I^dag + a_S a_I + alpha a_S^dag a_S + beta a_I^dag a_I.
    (0, 0) is the bare squeeze-correlation ("nearly bound") observable;
    a negative idler weight gives the bound observable for constant noise.
    """
    a, b = 0.5 * alpha, 0.5 * beta
    return _two_mode(0.0, [a, a, b, b], 0.5, -0.5)


def obs_pc(mu: float, nu: float) -> QuadraticObservable:
    """Phase-conjugate receiver observable on modes (S, I, V).

    O = nu (a_S^dag a_I^dag + a_S a_I) + mu (a_I^dag a_V + a_V^dag a_I).
    The third mode is an explicit vacuum ancilla, which ``stats`` supplies
    on a two-mode state.  Requires mu^2 - nu^2 = 1 with nu != 0.
    """
    if abs(mu * mu - nu * nu - 1.0) > 1e-9 or nu == 0.0:
        raise ValueError("phase-conjugate receiver requires mu^2 - nu^2 = 1 with nu != 0")
    h = np.zeros((6, 6))
    h[0, 2] = h[2, 0] = 0.5 * nu    # nu (x_S x_I - p_S p_I)
    h[1, 3] = h[3, 1] = -0.5 * nu
    h[2, 4] = h[4, 2] = 0.5 * mu    # mu (x_I x_V + p_I p_V)
    h[3, 5] = h[5, 3] = 0.5 * mu
    return QuadraticObservable(0.0, h, np.zeros(6))


def obs_opa(gain: float) -> QuadraticObservable:
    """Parametric-amplifier receiver observable; requires gain > 1.

    O = sqrt(G(G-1)) (a_S^dag a_I^dag + a_S a_I) + (G-1) a_S a_S^dag
        + G a_I^dag a_I, whose vacuum mean G - 1 is c0.
    """
    if gain <= 1.0:
        raise ValueError("amplifier gain must exceed 1")
    s, a, b = 0.5 * np.sqrt(gain * (gain - 1.0)), 0.5 * (gain - 1.0), 0.5 * gain
    return _two_mode(gain - 1.0, [a, a, b, b], s, -s)


def obs_dh() -> QuadraticObservable:
    """Double-homodyne receiver observable.

    O = -(a_S^dag a_I^dag + a_S a_I) + a_S a_S^dag + a_I^dag a_I.
    """
    return _two_mode(1.0, [0.5] * 4, -0.5, 0.5)


def obs_off() -> QuadraticObservable:
    """Cross-correlation observable a_S^dag a_I + a_I^dag a_S."""
    return _two_mode(0.0, [0.0] * 4, 0.5, 0.5)


def obs_number(mode: int, n_modes: int) -> QuadraticObservable:
    """Photon number of one mode, (x^2 + p^2)/2 - 1/2."""
    _check_mode(mode, n_modes)
    h = np.zeros((2 * n_modes, 2 * n_modes))
    h[2 * mode, 2 * mode] = h[2 * mode + 1, 2 * mode + 1] = 0.5
    return QuadraticObservable(0.0, h, np.zeros(2 * n_modes))


def obs_number_difference() -> QuadraticObservable:
    """n_0 - n_1 on two modes (the photon-number-difference measurement)."""
    return _two_mode(0.0, [0.5, 0.5, -0.5, -0.5], 0.0, 0.0)


def obs_quadrature(mode: int, angle: float, n_modes: int = 1) -> QuadraticObservable:
    """Rotated quadrature X(angle) = (a^dag e^{i angle} + a e^{-i angle})/sqrt(2)
    = x cos(angle) + p sin(angle)."""
    _check_mode(mode, n_modes)
    lin = np.zeros(2 * n_modes)
    lin[2 * mode:2 * mode + 2] = np.cos(angle), np.sin(angle)
    return QuadraticObservable(0.0, np.zeros((2 * n_modes, 2 * n_modes)), lin)


def obs_hd_product(theta: float, phi: float) -> QuadraticObservable:
    """Product of rotated quadratures X_S(theta) X_I(phi) on two modes."""
    h = np.zeros((4, 4))
    h[:2, 2:] = 0.5 * np.outer([np.cos(theta), np.sin(theta)], [np.cos(phi), np.sin(phi)])
    return QuadraticObservable(0.0, h + h.T, np.zeros(4))


def obs_squeeze_difference() -> QuadraticObservable:
    """(a_d^2 + a_d^dag^2 - a_c^2 - a_c^dag^2)/2 on modes (c, d), with
    a^2 + a^dag^2 = x^2 - p^2.

    This is the coincidence observable measured after the 50:50 recombiner:
    it equals the squeeze-correlation observable of the pre-splitter modes.
    """
    return _two_mode(0.0, [-0.5, 0.5, 0.5, -0.5], 0.0, 0.0)


def transform_by_beam_splitter(obs: QuadraticObservable, t: float, r: float,
                               phase: float) -> QuadraticObservable:
    """Rewrite an observable of the output modes of a beam splitter on modes
    0 and 1 in terms of its input modes.

    The substitution is ``c^dag -> t a_0^dag - i e^{-i phase} r a_1^dag`` and
    ``d^dag -> t a_1^dag - i e^{i phase} r a_0^dag`` where (c, d) are the
    observable's modes (0, 1): r -> S r, so h -> S^T h S and
    lin -> S^T lin, and c0 stays because S is passive.  At t = r = 1/sqrt(2),
    phase = pi/2 the photon-number difference maps to minus the
    cross-correlation observable.
    """
    s = beam_splitter_matrix(obs.n_modes, 0, 1, t, r, phase)
    return QuadraticObservable(obs.c0, s.T @ obs.h @ s, s.T @ obs.lin)


def heterodyne(obs: QuadraticObservable) -> QuadraticObservable:
    """The 2n-mode observable read out by heterodyning each of the n modes of ``obs``.

    Mode k is split 50:50 with the vacuum mode n + k; x is read on one output
    port and p on the other, which gives the commuting pair
    (x_k + x_{n+k})/sqrt(2) and (p_k - p_{n+k})/sqrt(2) in place of (x_k, p_k).
    That is r -> A r, A = [I | diag(1, -1, ..., 1, -1)] / sqrt(2) (2n x 4n) with
    A A^T = I, so h -> A^T h A, lin -> A^T lin and c0 stays: quadratic means
    halve and the open ports add vacuum noise.
    """
    n = obs.n_modes
    a = np.hstack([np.eye(2 * n), np.diag(np.tile([1.0, -1.0], n))]) / math.sqrt(2)
    return QuadraticObservable(obs.c0, a.T @ obs.h @ a, a.T @ obs.lin)
