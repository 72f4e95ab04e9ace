"""Multimode Gaussian states as real quadrature moments.

Quadratures are ``x = (a + a^dag)/sqrt(2)`` and ``p = -i (a - a^dag)/sqrt(2)``,
ordered ``r = (x_1, p_1, ..., x_n, p_n)``, so ``[x, p] = i`` and the vacuum
covariance is I/2.  A state stores the mean ``mean_q = <r>`` and the normally
ordered covariance ``cov_n = cov_q - I/2``, cov_q the symmetrized covariance:
0 for vacuum and ``n I`` for a thermal mode of mean n, so photon numbers are
stored as written, without a round trip through n + 1/2.  Any real
symmetric cov_n gives Hermitian quadrature moments with [x, p] = i, so
construction checks shape and that cov_n is finite and symmetric only (one
test: a NaN or infinite entry fails the symmetry test); physicality (symplectic
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
import numbers
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
        if not mean_q.size:
            raise ValueError("mean_q and cov_n must not be an empty stack of states")
        # per matrix, relative to its top entry; a NaN or infinite entry of
        # cov_n gives a NaN or infinite asymmetry there, which fails both stages
        asym = np.abs(cov_n - cov_n.swapaxes(-1, -2))
        if not asym.max() <= _SYM_TOL:
            worst = asym.max(axis=(-2, -1))  # an infinite one fails, though its bound is inf too
            if not ((worst <= _SYM_TOL * np.maximum(np.abs(cov_n).max(axis=(-2, -1)), 1.0))
                    & (worst < math.inf)).all():
                raise ValueError("cov_n is not symmetric or not finite")
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
        """Total <a^dag a> of one mode, including the first-moment part; a
        non-finite one (from a NaN or infinite mean_q, which construction does
        not check) is refused."""
        if self.mean_q.ndim != 1:
            raise ValueError("mean_photon takes one state, not a stack of states")
        _check_mode(mode, self.n_modes)
        c, x, p = self.cov_n, self.mean_q[2 * mode], self.mean_q[2 * mode + 1]
        n = float(0.5 * (c[2 * mode, 2 * mode] + c[2 * mode + 1, 2 * mode + 1]
                         + x * x + p * p))
        if not math.isfinite(n):
            raise ValueError(f"mean photon number of mode {mode} is not finite, got {n}")
        return n


def make_vacuum(n_modes: int) -> GaussianState:
    """Vacuum state of ``n_modes >= 1`` modes."""
    _check_whole(n_modes=n_modes)
    if n_modes < 1:
        raise ValueError(f"n_modes must be a whole number >= 1, got {n_modes!r}")
    return GaussianState(np.zeros(2 * n_modes), np.zeros((2 * n_modes, 2 * n_modes)))


def make_thermal(n_mean) -> GaussianState:
    """Single-mode thermal state (a stack for an array) with mean photon number ``n_mean``."""
    _check_photons("thermal mean photon number", n_mean=n_mean)
    n = np.asarray(n_mean, dtype=float)
    return GaussianState(np.zeros(n.shape + (2,)), n[..., None, None] * np.eye(2))


def make_coherent(amplitude) -> GaussianState:
    """Coherent state |alpha>, a stack for an array; covariance is the vacuum one."""
    a = np.asarray(amplitude, dtype=complex)  # viewed as (re, im) pairs below
    if not a.size:
        raise ValueError("amplitude must not be an empty array")
    if not np.isfinite(a).all():
        raise ValueError("coherent amplitude must be finite")
    return GaussianState(math.sqrt(2.0) * a[..., None].view(float), np.zeros(a.shape + (2, 2)))


def _extremes(name: str, value):
    """(min, max) of a number or an array; nan if any entry is nan.  An empty
    array is refused by ``name``.  A complex number or array raises TypeError,
    as comparing a Python complex does: NumPy would order its complex values."""
    if not isinstance(value, np.ndarray):
        if isinstance(value, complex):  # NumPy's complex scalars subclass it
            raise TypeError(f"{name} is complex")
        return value, value
    if not value.size:
        raise ValueError(f"{name} must not be an empty array")
    if value.dtype.kind == "c":
        raise TypeError(f"{name} is complex")
    return value.min(), value.max()


def _not_real(name: str, value) -> ValueError:
    """The refusal of a value that does not compare as a number (a string, None)."""
    return ValueError(f"{name} must be a real number or an array of them, got {value!r}")


def _check_photons(subject: str, **values) -> None:
    """Refuse photon numbers (numbers or non-empty arrays, by keyword) unless
    finite and >= 0; nan fails, and a value that is not a number is refused
    by name."""
    for name, value in values.items():
        try:
            lo, hi = _extremes(name, value)
            valid = 0 <= lo and hi < math.inf
        except TypeError:
            raise _not_real(name, value) from None
        if not valid:
            raise ValueError(f"{subject} must be finite and >= 0")


def _check_whole(**values) -> None:
    """Refuse mode indices and counts (by keyword) that are not whole numbers,
    by name; NumPy integers pass."""
    for name, value in values.items():
        if not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be a whole number, got {value!r}")


def _check_mode(mode: int, n_modes: int) -> None:
    """Refuse a mode index or count that is not a whole number, or an index
    outside 0 <= mode < n_modes (no wrap-around)."""
    _check_whole(mode=mode, n_modes=n_modes)
    if not 0 <= mode < n_modes:
        raise ValueError(f"mode {mode} is out of range for {n_modes} mode(s)")


def _phase_insensitive(cov: np.ndarray) -> np.ndarray:
    """Per matrix of a stack (..., 2n, 2m) with rows and columns in the order
    (x_1, p_1, ...): whether it is exactly A (x) I_2, i.e. its p-p block equals
    its x-x block A = cov[..., 0::2, 0::2] and both x-p blocks are zero; for a
    covariance, no squeezing and real <a_i^dag a_j>, as in vacuum, thermal,
    coherent and split-thermal states and their channel images (not the TMSV).
    Two matrices side by side, covariances or Williamson bases, pass where both do."""
    return ((cov[..., 0::2, 0::2] == cov[..., 1::2, 1::2]) & (cov[..., 0::2, 1::2] == 0)
            & (cov[..., 1::2, 0::2] == 0)).all(axis=(-2, -1))


def _two_mode_matrix(diag, xx, pp) -> np.ndarray:
    """(..., 4, 4) matrix on (x_S, p_S, x_I, p_I) with diagonal ``diag`` (four
    entries), [x_S, x_I] = xx and [p_S, p_I] = pp, one per entry of ``xx``,
    whose shape they broadcast to."""
    m = np.zeros(np.asarray(xx).shape + (4, 4))
    m[..., 0, 0], m[..., 1, 1], m[..., 2, 2], m[..., 3, 3] = diag
    m[..., 0, 2] = m[..., 2, 0] = xx
    m[..., 1, 3] = m[..., 3, 1] = pp
    return m


def make_tmsv(n_s) -> GaussianState:
    """Two-mode squeezed vacuum (a stack for an array) with per-mode mean photon
    number ``n_s``: <a_S a_I> = sqrt(n_s (n_s + 1)), so <p_S p_I> = -<x_S x_I>."""
    _check_photons("squeezed-vacuum mean photon number", n_s=n_s)
    c = np.sqrt(n_s * (n_s + 1.0))
    return GaussianState(np.zeros(c.shape + (4,)), _two_mode_matrix((n_s,) * 4, c, -c))


def make_cct(n_s, n_i) -> GaussianState:
    """Correlated two-mode thermal state (a stack for arrays, one per entry of
    their broadcast), as made by splitting one thermal beam.

    The modes carry means exactly ``n_s`` and ``n_i`` with a real cross
    correlation ``<a_S^dag a_I> = sqrt(n_s n_i)`` and no squeeze
    correlations (<p_S p_I> = <x_S x_I>); zero power gives the two-mode vacuum.
    """
    _check_photons("mode mean photon numbers", n_s=n_s, n_i=n_i)
    c = np.sqrt(n_s * n_i)
    return GaussianState(np.zeros(c.shape + (4,)), _two_mode_matrix((n_s, n_s, n_i, n_i), c, c))


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
    a_i -> t a_i + i e^{i phase} r a_j, a_j -> t a_j + i e^{-i phase} r a_i.
    A NaN or infinite t, r or phase, or a mode count or index that is not a
    whole number, is refused."""
    if not abs(t * t + r * r - 1.0) <= 1e-12:  # nan fails too
        raise ValueError("beam splitter requires t^2 + r^2 = 1")
    if not math.isfinite(phase):
        raise ValueError(f"beam splitter phase must be finite, got {phase!r}")
    _check_whole(n=n, mode_i=mode_i, mode_j=mode_j)
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
