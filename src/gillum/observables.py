"""Hermitian observables quadratic in mode operators, with exact Gaussian moments.

An observable is kept in normal-ordered canonical form

    O = c0 + sum_ij h_ij a_i^dag a_j
           + sum_ij (g_ij a_i^dag a_j^dag + conj(g_ij) a_i a_j)
           + sum_i (linear_i a_i^dag + conj(linear_i) a_i)

with ``h`` Hermitian and ``g`` symmetric, so Hermiticity is structural.
Means and variances on Gaussian states are evaluated exactly by moment
factorization (pair contractions of the ordered centered moments plus the
first-moment terms); nothing is sampled.  Receiver parameter rules are
written once here, and heterodyne readout adds a fixed vacuum term.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .states import GaussianState, _mode_basis, beam_splitter_matrix

_COEFF_TOL = 1e-12
_IMAG_TOL = 1e-10
_VAR_CLAMP = 1e-10


@dataclass(frozen=True)
class QuadraticObservable:
    """Normal-ordered quadratic observable on ``n_modes`` modes."""

    n_modes: int
    c0: float
    h: np.ndarray
    g: np.ndarray
    linear: np.ndarray

    def __post_init__(self):
        n = self.n_modes
        h = np.array(self.h, dtype=complex)
        g = np.array(self.g, dtype=complex)
        lin = np.array(self.linear, dtype=complex)
        if h.shape != (n, n) or g.shape != (n, n) or lin.shape != (n,):
            raise ValueError("coefficient blocks must be (n, n), (n, n) and (n,)")
        scale = max(1.0, float(np.max(np.abs(h))), float(np.max(np.abs(g))))
        if np.max(np.abs(h - h.conj().T)) > _COEFF_TOL * scale:
            raise ValueError("h must be Hermitian")
        if np.max(np.abs(g - g.T)) > _COEFF_TOL * scale:
            raise ValueError("g must be symmetric")
        for arr in (h, g, lin):
            arr.setflags(write=False)
        object.__setattr__(self, "c0", float(self.c0))
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "linear", lin)

    def coefficient_matrix(self) -> np.ndarray:
        """Quadratic coefficients K with O_quad = sum K_IJ u_I u_J (ordered)."""
        n = self.n_modes
        k = np.zeros((2 * n, 2 * n), dtype=complex)
        k[n:, :n] = self.h
        k[n:, n:] = self.g
        k[:n, :n] = self.g.conj()
        return k

    def linear_vector(self) -> np.ndarray:
        n = self.n_modes
        lvec = np.zeros(2 * n, dtype=complex)
        lvec[:n] = self.linear.conj()
        lvec[n:] = self.linear
        return lvec

    def affine(self, a: float, b: float = 0.0) -> "QuadraticObservable":
        """The observable a*O + b."""
        return QuadraticObservable(self.n_modes, a * self.c0 + b, a * self.h,
                                   a * self.g, a * self.linear)


@dataclass(frozen=True)
class ObservableStats:
    """Exact mean and variance of an observable on one state."""

    mean: float
    variance: float

    def __post_init__(self):
        if self.variance < -_VAR_CLAMP:
            raise ValueError(f"variance {self.variance} below clamp window")
        object.__setattr__(self, "variance", max(0.0, float(self.variance)))
        object.__setattr__(self, "mean", float(self.mean))


def _normal_order(n: int, k: np.ndarray, lvec: np.ndarray, c0: float):
    """Canonical (c0, h, g, linear) from arbitrary ordered coefficients."""
    h = k[n:, :n].copy()
    # a_i a_j^dag = a_j^dag a_i + delta_ij
    cross = k[:n, n:]
    h += cross.T
    c0 = c0 + float(np.trace(cross).real)
    g_dag = 0.5 * (k[n:, n:] + k[n:, n:].T)
    g_ann = 0.5 * (k[:n, :n] + k[:n, :n].T)
    scale = max(1.0, float(np.max(np.abs(k))))
    if np.max(np.abs(g_dag - g_ann.conj())) > 1e-9 * scale:
        raise ValueError("coefficients do not form a Hermitian observable")
    g = 0.5 * (g_dag + g_ann.conj())
    linear = lvec[n:].copy()
    if np.max(np.abs(lvec[:n] - linear.conj())) > 1e-9 * max(1.0, float(np.max(np.abs(lvec)))):
        raise ValueError("linear coefficients do not form a Hermitian observable")
    h = 0.5 * (h + h.conj().T)
    return QuadraticObservable(n, c0, h, g, linear)


def stats(obs: QuadraticObservable, state: GaussianState) -> ObservableStats:
    """Exact mean and variance of ``obs`` on ``state``.

    With m = <u>, M = <du du> (ordered) and K, lvec the coefficient blocks,

        <O>    = c0 + lvec.m + m^T K m + sum(K * M)
        Var(O) = b^T M b + sum(M * (K M K^T)) + sum(M * (K M K)),
        b      = lvec + (K + K^T) m

    which is the closed form of the pair-contraction expansion of <O^2>.
    """
    if obs.n_modes != state.n_modes:
        raise ValueError("observable and state mode counts differ")
    k = obs.coefficient_matrix()
    lvec = obs.linear_vector()
    m = state.mean
    mm = state.moment_matrix
    mean = obs.c0 + lvec @ m + m @ k @ m + np.sum(k * mm)
    b = lvec + (k + k.T) @ m
    km = k @ mm
    var = b @ mm @ b + np.sum(mm * (km @ k.T)) + np.sum(mm * (km @ k))
    if abs(mean.imag) > _IMAG_TOL * max(1.0, abs(mean.real)):
        raise ValueError(f"observable mean has imaginary part {mean.imag}")
    if abs(var.imag) > _IMAG_TOL * max(1.0, abs(var.real)):
        raise ValueError(f"observable variance has imaginary part {var.imag}")
    return ObservableStats(mean.real, var.real)


# ---------------------------------------------------------------------------
# receiver observables
# ---------------------------------------------------------------------------

def obs_bound(alpha: float, beta: float) -> QuadraticObservable:
    """Signal-idler squeeze coupling plus weighted photon numbers.

    O = a_S^dag a_I^dag + a_S a_I + alpha a_S^dag a_S + beta a_I^dag a_I.
    (0, 0) is the bare squeeze-correlation ("nearly bound") observable;
    a negative idler weight gives the bound observable for constant noise.
    """
    g = np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex)
    h = np.diag([alpha, beta]).astype(complex)
    return QuadraticObservable(2, 0.0, h, g, np.zeros(2, dtype=complex))


def _check_pc(mu: float, nu: float) -> None:
    if abs(mu * mu - nu * nu - 1.0) > 1e-9 or nu == 0.0:
        raise ValueError("phase-conjugate receiver requires mu^2 - nu^2 = 1 with nu != 0")


def _check_opa(gain: float) -> None:
    if gain <= 1.0:
        raise ValueError("amplifier gain must exceed 1")


def obs_pc(mu: float, nu: float) -> QuadraticObservable:
    """Phase-conjugate receiver observable on modes (S, I, V).

    The third mode is an explicit vacuum ancilla; callers append it to the
    two-mode state under test.  Requires mu^2 - nu^2 = 1 with nu != 0.
    """
    _check_pc(mu, nu)
    g = np.zeros((3, 3), dtype=complex)
    g[0, 1] = g[1, 0] = 0.5 * nu
    h = np.zeros((3, 3), dtype=complex)
    h[1, 2] = h[2, 1] = mu  # a_I a_V^dag + a_V a_I^dag, normal ordered
    return QuadraticObservable(3, 0.0, h, g, np.zeros(3, dtype=complex))


def obs_opa(gain: float) -> QuadraticObservable:
    """Parametric-amplifier receiver observable; requires gain > 1.

    O = sqrt(G(G-1)) (a_S^dag a_I^dag + a_S a_I) + (G-1) a_S a_S^dag
        + G a_I^dag a_I, with the reordering constant folded into c0.
    """
    _check_opa(gain)
    s = np.sqrt(gain * (gain - 1.0))
    g = s * np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex)
    h = np.diag([gain - 1.0, gain]).astype(complex)
    return QuadraticObservable(2, gain - 1.0, h, g, np.zeros(2, dtype=complex))


def obs_dh() -> QuadraticObservable:
    """Double-homodyne receiver observable.

    O = -(a_S^dag a_I^dag + a_S a_I) + a_S a_S^dag + a_I^dag a_I.
    """
    g = -np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex)
    h = np.eye(2, dtype=complex)
    return QuadraticObservable(2, 1.0, h, g, np.zeros(2, dtype=complex))


def obs_off() -> QuadraticObservable:
    """Cross-correlation observable a_S^dag a_I + a_I^dag a_S."""
    h = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    return QuadraticObservable(2, 0.0, h, np.zeros((2, 2), dtype=complex),
                               np.zeros(2, dtype=complex))


def obs_number(mode: int, n_modes: int) -> QuadraticObservable:
    """Photon number of one mode."""
    h = np.zeros((n_modes, n_modes), dtype=complex)
    h[mode, mode] = 1.0
    return QuadraticObservable(n_modes, 0.0, h, np.zeros((n_modes, n_modes), dtype=complex),
                               np.zeros(n_modes, dtype=complex))


def obs_number_difference() -> QuadraticObservable:
    """n_0 - n_1 on two modes (the photon-number-difference measurement)."""
    h = np.diag([1.0, -1.0]).astype(complex)
    return QuadraticObservable(2, 0.0, h, np.zeros((2, 2), dtype=complex),
                               np.zeros(2, dtype=complex))


def obs_quadrature(mode: int, angle: float, n_modes: int = 1) -> QuadraticObservable:
    """Rotated quadrature X(angle) = (a^dag e^{i angle} + a e^{-i angle})/sqrt(2)."""
    lin = np.zeros(n_modes, dtype=complex)
    lin[mode] = np.exp(1j * angle) / np.sqrt(2.0)
    zero = np.zeros((n_modes, n_modes), dtype=complex)
    return QuadraticObservable(n_modes, 0.0, zero, zero.copy(), lin)


def obs_hd_product(theta: float, phi: float) -> QuadraticObservable:
    """Product of rotated quadratures X_S(theta) X_I(phi) on two modes."""
    g = np.zeros((2, 2), dtype=complex)
    g[0, 1] = g[1, 0] = 0.25 * np.exp(1j * (theta + phi))
    h = np.zeros((2, 2), dtype=complex)
    h[0, 1] = 0.5 * np.exp(1j * (theta - phi))
    h[1, 0] = h[0, 1].conjugate()
    return QuadraticObservable(2, 0.0, h, g, np.zeros(2, dtype=complex))


def obs_squeeze_difference() -> QuadraticObservable:
    """(a_d^2 + a_d^dag^2 - a_c^2 - a_c^dag^2)/2 on modes (c, d).

    This is the coincidence observable measured after the 50:50 recombiner:
    it equals the squeeze-correlation observable of the pre-splitter modes.
    """
    g = np.diag([-0.5, 0.5]).astype(complex)
    return QuadraticObservable(2, 0.0, np.zeros((2, 2), dtype=complex), g,
                               np.zeros(2, dtype=complex))


def transform_by_beam_splitter(obs: QuadraticObservable, t: float, r: float,
                               phase: float, mode_i: int = 0,
                               mode_j: int = 1) -> QuadraticObservable:
    """Rewrite an observable of the output modes of a beam splitter in terms
    of its input modes.

    The substitution is ``c^dag -> t a_i^dag - i e^{-i phase} r a_j^dag`` and
    ``d^dag -> t a_j^dag - i e^{i phase} r a_i^dag`` where (c, d) are the
    observable's modes (mode_i, mode_j).  At t = r = 1/sqrt(2), phase = pi/2
    the photon-number difference maps to minus the cross-correlation
    observable.
    """
    n = obs.n_modes
    # u -> W S W^-1 u with sqrt(2) u = W r and W^-1 = W^dag / 2
    v = _mode_basis(n)[0]
    w = 0.5 * (v @ beam_splitter_matrix(n, mode_i, mode_j, t, r, phase) @ v.conj().T)
    k = w.T @ obs.coefficient_matrix() @ w
    lvec = w.T @ obs.linear_vector()
    return _normal_order(n, k, lvec, obs.c0)


def heterodyne_degrade(base: ObservableStats, state: GaussianState) -> ObservableStats:
    """Statistics after a readout by two heterodynes instead of directly.

    Each detector splits its mode with a vacuum ancilla, halving the mean and
    turning the variance into (var + 1 + <n_A + n_B>)/4, (A, B) the measured
    modes of ``state``.  Both readouts used here obey it: the X X - P P squeeze
    correlation and the quadrature squares after the 50:50 recombiner.
    """
    n_sum = state.mean_photon(0) + state.mean_photon(1)
    return ObservableStats(0.5 * base.mean, 0.25 * (base.variance + 1.0 + n_sum))
