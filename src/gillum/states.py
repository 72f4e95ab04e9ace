"""Multimode Gaussian states: first moments plus mode-operator covariance blocks.

A state of n modes is stored in the annihilation/creation representation.
Writing ``u = (a_1, ..., a_n, a_1^dag, ..., a_n^dag)``, the mean vector is
``<u>`` and the covariance matrix holds the centered second moments arranged
so that matrix entries are literally the familiar quantities::

    cov[i, j]         = <da_i da_j^dag>      (i, j < n)
    cov[i, n+j]       = <da_i da_j>
    cov[n+i, j]       = <da_i^dag da_j^dag>
    cov[n+i, n+j]     = <da_i^dag da_j>

with ``da = a - <a>``.  A vacuum mode therefore has ``cov = diag(1, 0)`` in
its (a a^dag, a^dag a) slots.  The equivalent real quadrature form uses
``x = (a + a^dag)/sqrt(2)`` and ``p = -i (a - a^dag)/sqrt(2)``, so the vacuum
quadrature variance is 1/2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

VACUUM_VARIANCE = 0.5

_STRUCT_TOL = 1e-10
PHYSICALITY_TOL = 1e-9


def block_swap(n: int) -> np.ndarray:
    """Permutation exchanging the annihilation and creation halves of u."""
    p = np.zeros((2 * n, 2 * n))
    p[:n, n:] = np.eye(n)
    p[n:, :n] = np.eye(n)
    return p


def symplectic_form(n: int) -> np.ndarray:
    """Symplectic form for (x_1, p_1, ..., x_n, p_n) ordering, [x, p] = i."""
    w = np.zeros((2 * n, 2 * n))
    for k in range(n):
        w[2 * k, 2 * k + 1] = 1.0
        w[2 * k + 1, 2 * k] = -1.0
    return w


def _quadrature_transform(n: int) -> np.ndarray:
    """Matrix T with r = T u, r = (x_1, p_1, ...), u = (a..., a^dag...)."""
    t = np.zeros((2 * n, 2 * n), dtype=complex)
    s = 1.0 / np.sqrt(2.0)
    for k in range(n):
        t[2 * k, k] = s
        t[2 * k, n + k] = s
        t[2 * k + 1, k] = -1j * s
        t[2 * k + 1, n + k] = 1j * s
    return t


def _validate_structure(mean: np.ndarray, cov: np.ndarray) -> None:
    if mean.ndim != 1 or cov.ndim != 2:
        raise ValueError("mean must be a vector and cov a square matrix")
    if mean.size % 2 != 0 or cov.shape != (mean.size, mean.size):
        raise ValueError("mean length must be 2*n_modes and cov (2n, 2n)")
    n = mean.size // 2
    if n < 1:
        raise ValueError("need at least one mode")
    if np.max(np.abs(mean[n:] - mean[:n].conj())) > _STRUCT_TOL:
        raise ValueError("mean is not conjugate symmetric")
    m = cov @ block_swap(n)  # ordered moment matrix <du_i du_j>
    aa = m[:n, :n]
    add = m[:n, n:]
    dd = m[n:, n:]
    da = m[n:, :n]
    if np.max(np.abs(aa - aa.T)) > _STRUCT_TOL:
        raise ValueError("<a a> block is not symmetric")
    if np.max(np.abs(dd - dd.T)) > _STRUCT_TOL:
        raise ValueError("<a^dag a^dag> block is not symmetric")
    if np.max(np.abs(add - add.conj().T)) > _STRUCT_TOL:
        raise ValueError("<a a^dag> block is not Hermitian")
    if np.max(np.abs(dd - aa.conj())) > _STRUCT_TOL:
        raise ValueError("<a^dag a^dag> block is not the conjugate of <a a>")
    if np.max(np.abs(da - (add.T - np.eye(n)))) > _STRUCT_TOL:
        raise ValueError("<a^dag a> block violates the commutation offset")


@dataclass(frozen=True)
class GaussianState:
    """Immutable n-mode Gaussian state (``mean``, ``cov``) as described above."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.array(self.mean, dtype=complex)
        cov = np.array(self.cov, dtype=complex)
        _validate_structure(mean, cov)
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def n_modes(self) -> int:
        return self.mean.size // 2

    @property
    def moment_matrix(self) -> np.ndarray:
        """Ordered centered moments M[i, j] = <du_i du_j> (M = cov @ P)."""
        return self.cov @ block_swap(self.n_modes)

    def mean_photon(self, mode: int) -> float:
        """Total <a^dag a> of one mode, including the first-moment part."""
        n = self.n_modes
        return float(self.cov[n + mode, n + mode].real + abs(self.mean[mode]) ** 2)

    def total_mean_photons(self) -> float:
        return sum(self.mean_photon(k) for k in range(self.n_modes))

    def reduced(self, modes) -> "GaussianState":
        """State of a subset of modes (partial trace over the rest)."""
        modes = list(modes)
        n = self.n_modes
        idx = modes + [n + k for k in modes]
        m = self.moment_matrix[np.ix_(idx, idx)]
        mean = self.mean[idx]
        return GaussianState(mean, m @ block_swap(len(modes)))

    def symplectic_eigenvalues(self) -> np.ndarray:
        return to_quadrature(self).symplectic_eigenvalues()

    def is_physical(self, tol: float = PHYSICALITY_TOL) -> bool:
        return bool(np.all(self.symplectic_eigenvalues() >= VACUUM_VARIANCE - tol))


@dataclass(frozen=True)
class QuadratureState:
    """Real (x_1, p_1, ..., x_n, p_n) moments; vacuum covariance = I/2."""

    mean_q: np.ndarray
    cov_q: np.ndarray

    def __post_init__(self):
        mean_q = np.array(self.mean_q, dtype=float)
        cov_q = np.array(self.cov_q, dtype=float)
        if mean_q.size % 2 != 0 or cov_q.shape != (mean_q.size, mean_q.size):
            raise ValueError("mean_q length must be 2*n_modes and cov_q (2n, 2n)")
        if np.max(np.abs(cov_q - cov_q.T)) > _STRUCT_TOL:
            raise ValueError("cov_q is not symmetric")
        mean_q.setflags(write=False)
        cov_q.setflags(write=False)
        object.__setattr__(self, "mean_q", mean_q)
        object.__setattr__(self, "cov_q", cov_q)

    @property
    def n_modes(self) -> int:
        return self.mean_q.size // 2

    def symplectic_eigenvalues(self) -> np.ndarray:
        """Moduli of the eigenvalue pairs of Omega @ cov_q, ascending."""
        n = self.n_modes
        ev = np.linalg.eigvals(symplectic_form(n) @ self.cov_q)
        return np.sort(np.abs(ev))[::2]

    def is_physical(self, tol: float = PHYSICALITY_TOL) -> bool:
        return bool(np.all(self.symplectic_eigenvalues() >= VACUUM_VARIANCE - tol))


def _from_moments(mean: np.ndarray, moment: np.ndarray) -> GaussianState:
    n = mean.size // 2
    return GaussianState(mean, moment @ block_swap(n))


def make_vacuum(n_modes: int) -> GaussianState:
    """Vacuum state of ``n_modes`` modes."""
    if n_modes < 1:
        raise ValueError("n_modes must be >= 1")
    cov = np.zeros((2 * n_modes, 2 * n_modes), dtype=complex)
    cov[:n_modes, :n_modes] = np.eye(n_modes)
    return GaussianState(np.zeros(2 * n_modes, dtype=complex), cov)


def make_thermal(n_mean: float) -> GaussianState:
    """Single-mode thermal state with mean photon number ``n_mean``."""
    if n_mean < 0:
        raise ValueError("thermal mean photon number must be >= 0")
    cov = np.diag([n_mean + 1.0, n_mean]).astype(complex)
    return GaussianState(np.zeros(2, dtype=complex), cov)


def make_coherent(amplitude: complex) -> GaussianState:
    """Single-mode coherent state |alpha>; covariance is the vacuum one."""
    a = complex(amplitude)
    vac = make_vacuum(1)
    return GaussianState(np.array([a, a.conjugate()]), vac.cov)


def make_tmsv(n_s: float) -> GaussianState:
    """Two-mode squeezed vacuum with per-mode mean photon number ``n_s``."""
    if n_s < 0:
        raise ValueError("squeezed-vacuum mean photon number must be >= 0")
    c = np.sqrt(n_s * (n_s + 1.0))
    cov = np.array(
        [
            [n_s + 1, 0, 0, c],
            [0, n_s + 1, c, 0],
            [0, c, n_s, 0],
            [c, 0, 0, n_s],
        ],
        dtype=complex,
    )
    return GaussianState(np.zeros(4, dtype=complex), cov)


def tensor(a: GaussianState, b: GaussianState) -> GaussianState:
    """Product state of two uncorrelated states, modes of ``a`` first."""
    na, nb = a.n_modes, b.n_modes
    n = na + nb
    ma, mb = a.moment_matrix, b.moment_matrix
    m = np.zeros((2 * n, 2 * n), dtype=complex)
    ia = list(range(na)) + list(range(n, n + na))
    ib = list(range(na, n)) + list(range(n + na, 2 * n))
    m[np.ix_(ia, ia)] = ma
    m[np.ix_(ib, ib)] = mb
    mean = np.zeros(2 * n, dtype=complex)
    mean[ia] = a.mean
    mean[ib] = b.mean
    return _from_moments(mean, m)


def beam_splitter_matrix(n: int, mode_i: int, mode_j: int, t: float, r: float,
                         phase: float) -> np.ndarray:
    """Heisenberg substitution on u: a_i -> t a_i + i e^{i phase} r a_j."""
    if abs(t * t + r * r - 1.0) > 1e-12:
        raise ValueError("beam splitter requires t^2 + r^2 = 1")
    if mode_i == mode_j or not (0 <= mode_i < n and 0 <= mode_j < n):
        raise ValueError("mode indices must be distinct and in range")
    s = np.eye(2 * n, dtype=complex)
    cij = 1j * np.exp(1j * phase) * r
    cji = 1j * np.exp(-1j * phase) * r
    s[mode_i, mode_i] = t
    s[mode_i, mode_j] = cij
    s[mode_j, mode_j] = t
    s[mode_j, mode_i] = cji
    s[n + mode_i, n + mode_i] = t
    s[n + mode_i, n + mode_j] = cij.conjugate()
    s[n + mode_j, n + mode_j] = t
    s[n + mode_j, n + mode_i] = cji.conjugate()
    return s


def apply_beam_splitter(state: GaussianState, mode_i: int, mode_j: int,
                        t: float, r: float, phase: float = 0.0) -> GaussianState:
    """Mix two modes on a beam splitter (transmission t, reflection r).

    The mode operators transform as ``a_i^dag -> t a_i^dag - i e^{-i phase} r
    a_j^dag`` and ``a_j^dag -> t a_j^dag - i e^{i phase} r a_i^dag``; the total
    mean photon number is preserved.
    """
    s = beam_splitter_matrix(state.n_modes, mode_i, mode_j, t, r, phase)
    mean = s @ state.mean
    m = s @ state.moment_matrix @ s.T
    return _from_moments(mean, m)


def make_cct(n_s: float, n_i: float) -> GaussianState:
    """Correlated two-mode thermal state, as made by splitting one thermal beam.

    The modes carry means exactly ``n_s`` and ``n_i`` with a real cross
    correlation ``<a_S^dag a_I> = sqrt(n_s n_i)`` and no squeeze
    correlations; zero power gives the two-mode vacuum.
    """
    if n_s < 0 or n_i < 0:
        raise ValueError("mode mean photon numbers must be >= 0")
    c = np.sqrt(n_s * n_i)
    cov = np.array(
        [
            [n_s + 1, c, 0, 0],
            [c, n_i + 1, 0, 0],
            [0, 0, n_s, c],
            [0, 0, c, n_i],
        ],
        dtype=complex,
    )
    return GaussianState(np.zeros(4, dtype=complex), cov)


def to_quadrature(state: GaussianState) -> QuadratureState:
    """Real quadrature form of a state; symmetrized, vacuum variance 1/2."""
    n = state.n_modes
    t = _quadrature_transform(n)
    q_full = t @ state.moment_matrix @ t.T
    cov_q = 0.5 * (q_full + q_full.T).real
    mean_q = (t @ state.mean).real
    return QuadratureState(mean_q, cov_q)


def from_quadrature(q: QuadratureState) -> GaussianState:
    """Inverse of :func:`to_quadrature`; round trip is the identity."""
    n = q.n_modes
    tinv = np.linalg.inv(_quadrature_transform(n))
    q_full = q.cov_q + 0.5j * symplectic_form(n)
    m = tinv @ q_full @ tinv.T
    mean = tinv @ q.mean_q.astype(complex)
    return _from_moments(mean, m)
