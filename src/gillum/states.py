"""Multimode Gaussian states as real quadrature moments.

Quadratures are ``x = (a + a^dag)/sqrt(2)`` and ``p = -i (a - a^dag)/sqrt(2)``,
ordered ``r = (x_1, p_1, ..., x_n, p_n)``, so ``[x, p] = i`` and the vacuum
covariance is I/2.  A state stores the mean ``mean_q = <r>`` and the normally
ordered covariance ``cov_n = cov_q - I/2``, cov_q the symmetrized covariance:
0 for vacuum and ``n I`` for a thermal mode of mean n, so photon numbers are
stored as written, without a round trip through n + 1/2.  Any real
symmetric cov_n gives Hermitian quadrature moments with [x, p] = i, so
construction checks shape and symmetry only; physicality (symplectic
eigenvalues >= 1/2) is tested by :func:`gillum.chernoff.williamson` alone.
Observables read these arrays directly; no mode-operator moments are derived.

A state may also be a stack of states along leading axes, ``mean_q``
(..., 2n) and ``cov_n`` (..., 2n, 2n), as the probe constructors give for
arrays: the channel and ``williamson`` map a stack matrix by matrix, each
with the bits it has alone.  ``tensor`` and ``mean_photon`` take one state.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

_SYM_TOL = 1e-10


@functools.cache
def symplectic_form(n: int) -> np.ndarray:
    """Symplectic form for (x_1, p_1, ..., x_n, p_n) ordering, [x, p] = i (read-only)."""
    w = np.zeros((2 * n, 2 * n))
    for k in range(n):
        w[2 * k, 2 * k + 1] = 1.0
        w[2 * k + 1, 2 * k] = -1.0
    w.setflags(write=False)
    return w


@dataclass(frozen=True)
class GaussianState:
    """Immutable n-mode Gaussian state (``mean_q``, ``cov_n``), or a stack, as above."""

    mean_q: np.ndarray
    cov_n: np.ndarray

    def __post_init__(self):
        mean_q = np.array(self.mean_q, dtype=float)
        cov_n = np.array(self.cov_n, dtype=float)
        if (mean_q.ndim < 1 or mean_q.shape[-1] < 2 or mean_q.shape[-1] % 2
                or cov_n.shape != mean_q.shape + mean_q.shape[-1:]):
            raise ValueError("mean_q must have shape (..., 2n), n >= 1, and cov_n (..., 2n, 2n)")
        asym = np.abs(cov_n - cov_n.swapaxes(-1, -2))  # per matrix, relative to its top entry
        if asym.max() > _SYM_TOL and (asym.max(axis=(-2, -1)) > _SYM_TOL * np.maximum(
                np.abs(cov_n).max(axis=(-2, -1)), 1.0)).any():
            raise ValueError("cov_n is not symmetric")
        mean_q.setflags(write=False)
        cov_n.setflags(write=False)
        object.__setattr__(self, "mean_q", mean_q)
        object.__setattr__(self, "cov_n", cov_n)

    @property
    def n_modes(self) -> int:
        return self.mean_q.shape[-1] // 2

    @property
    def cov_q(self) -> np.ndarray:
        """Symmetrized quadrature covariance; vacuum I/2."""
        return self.cov_n + 0.5 * np.eye(self.mean_q.shape[-1])

    def mean_photon(self, mode: int) -> float:
        """Total <a^dag a> of one mode, including the first-moment part."""
        c, x, p = self.cov_n, self.mean_q[2 * mode], self.mean_q[2 * mode + 1]
        return float(0.5 * (c[2 * mode, 2 * mode] + c[2 * mode + 1, 2 * mode + 1]
                            + x * x + p * p))


def make_vacuum(n_modes: int) -> GaussianState:
    """Vacuum state of ``n_modes >= 1`` modes."""
    return GaussianState(np.zeros(2 * n_modes), np.zeros((2 * n_modes, 2 * n_modes)))


def make_thermal(n_mean: float) -> GaussianState:
    """Single-mode thermal state with mean photon number ``n_mean``."""
    if n_mean < 0:
        raise ValueError("thermal mean photon number must be >= 0")
    return GaussianState(np.zeros(2), n_mean * np.eye(2))


def make_coherent(amplitude) -> GaussianState:
    """Coherent state |alpha>, a stack for an array; covariance is the vacuum one."""
    a = np.asarray(amplitude, dtype=complex)  # viewed as (re, im) pairs below
    return GaussianState(math.sqrt(2.0) * a[..., None].view(float), np.zeros(a.shape + (2, 2)))


def _extremes(value):
    """(min, max) of a number or an array; nan if any entry is nan."""
    return (value.min(), value.max()) if isinstance(value, np.ndarray) else (value, value)


def _two_mode(n_s, n_i, xx, pp) -> GaussianState:
    """Undisplaced modes of means n_s, n_i with <x_S x_I> = xx, <p_S p_I> = pp,
    one state per entry of the NumPy value ``xx``, whose shape they broadcast to."""
    cov = np.zeros(xx.shape + (4, 4))
    cov[..., 0, 0] = cov[..., 1, 1] = n_s
    cov[..., 2, 2] = cov[..., 3, 3] = n_i
    cov[..., 0, 2] = cov[..., 2, 0] = xx
    cov[..., 1, 3] = cov[..., 3, 1] = pp
    return GaussianState(np.zeros(cov.shape[:-1]), cov)


def make_tmsv(n_s) -> GaussianState:
    """Two-mode squeezed vacuum (a stack for an array) with per-mode mean photon
    number ``n_s``: <a_S a_I> = sqrt(n_s (n_s + 1)), so <p_S p_I> = -<x_S x_I>."""
    if _extremes(n_s)[0] < 0:
        raise ValueError("squeezed-vacuum mean photon number must be >= 0")
    c = np.sqrt(n_s * (n_s + 1.0))
    return _two_mode(n_s, n_s, c, -c)


def make_cct(n_s, n_i) -> GaussianState:
    """Correlated two-mode thermal state (a stack for arrays, one per entry of
    their broadcast), as made by splitting one thermal beam.

    The modes carry means exactly ``n_s`` and ``n_i`` with a real cross
    correlation ``<a_S^dag a_I> = sqrt(n_s n_i)`` and no squeeze
    correlations (<p_S p_I> = <x_S x_I>); zero power gives the two-mode vacuum.
    """
    if _extremes(n_s)[0] < 0 or _extremes(n_i)[0] < 0:
        raise ValueError("mode mean photon numbers must be >= 0")
    c = np.sqrt(n_s * n_i)
    return _two_mode(n_s, n_i, c, c)


def tensor(a: GaussianState, b: GaussianState) -> GaussianState:
    """Product state of two uncorrelated states, modes of ``a`` first."""
    if a.mean_q.ndim != 1 or b.mean_q.ndim != 1:
        raise ValueError("tensor takes one state per factor, not a stack")
    na = a.mean_q.size
    cov_n = np.zeros((na + b.mean_q.size,) * 2)
    cov_n[:na, :na] = a.cov_n
    cov_n[na:, na:] = b.cov_n
    return GaussianState(np.concatenate([a.mean_q, b.mean_q]), cov_n)


def beam_splitter_matrix(n: int, mode_i: int, mode_j: int, t: float, r: float,
                         phase: float) -> np.ndarray:
    """Real orthogonal symplectic S with r -> S r for the substitution
    a_i -> t a_i + i e^{i phase} r a_j, a_j -> t a_j + i e^{-i phase} r a_i."""
    if abs(t * t + r * r - 1.0) > 1e-12:
        raise ValueError("beam splitter requires t^2 + r^2 = 1")
    if mode_i == mode_j or not (0 <= mode_i < n and 0 <= mode_j < n):
        raise ValueError("mode indices must be distinct and in range")
    # i e^{+-i phase} r = -+r sin(phase) + i r cos(phase), as a 2x2 rotation on (x, p)
    c, s = r * math.cos(phase), r * math.sin(phase)
    out = np.eye(2 * n)
    i, j = slice(2 * mode_i, 2 * mode_i + 2), slice(2 * mode_j, 2 * mode_j + 2)
    out[i, i] = out[j, j] = t * np.eye(2)
    out[i, j] = [[-s, -c], [c, -s]]
    out[j, i] = [[s, -c], [c, s]]
    return out
