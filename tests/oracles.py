"""Independent test oracles: truncated Fock simulation, characteristic-function
differentiation, recursive pair contractions, and special-function references.

Everything here is deliberately implemented along different routes than the
library (dense Fock matrices, numerical derivatives, series expansions) so the
two sides can check each other.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm

from gillum import (GaussianState, NoiseModel, QuadraticObservable, make_cct, make_coherent,
                    make_thermal, make_tmsv, symplectic_form, tensor)
from gillum import chernoff as ch
from gillum.states import beam_splitter_matrix


# ---------------------------------------------------------------------------
# The paper's three probes, each built from a scenario's photon numbers
# ---------------------------------------------------------------------------

def tmsv_probe(params) -> GaussianState:
    return make_tmsv(params.n_s)


def cct_probe(params) -> GaussianState:
    return make_cct(params.n_s, params.n_i)


def coherent_probe(params) -> GaussianState:
    return make_coherent(math.sqrt(params.n_s))


PROBES = (tmsv_probe, cct_probe, coherent_probe)


# ---------------------------------------------------------------------------
# Fock-space machinery
# ---------------------------------------------------------------------------

def destroy(dim: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, dim)), 1).astype(complex)


def thermal_dm(n_mean: float, dim: int) -> np.ndarray:
    if n_mean == 0:
        rho = np.zeros((dim, dim), dtype=complex)
        rho[0, 0] = 1.0
        return rho
    n = np.arange(dim)
    p = (n_mean / (1.0 + n_mean)) ** n / (1.0 + n_mean)
    rho = np.diag(p).astype(complex)
    return rho / np.trace(rho).real


def coherent_vec(alpha: complex, dim: int) -> np.ndarray:
    n = np.arange(dim)
    log_fact = np.cumsum(np.log(np.maximum(n, 1)))
    vec = np.exp(-0.5 * abs(alpha) ** 2 + n * np.log(complex(alpha))
                 - 0.5 * log_fact) if alpha != 0 else None
    if alpha == 0:
        vec = np.zeros(dim, dtype=complex)
        vec[0] = 1.0
    return vec


def tmsv_vec(n_s: float, dim: int) -> np.ndarray:
    """Two-mode squeezed vacuum Schmidt vector on a dim x dim grid."""
    n = np.arange(dim)
    coeff = np.sqrt(n_s**n / (1.0 + n_s) ** (n + 1))
    vec = np.zeros((dim, dim), dtype=complex)
    vec[n, n] = coeff
    return vec.reshape(-1)


def beam_splitter_blocks(theta: float, phase: float, n_total_max: int):
    """Number-conserving blocks of U = exp(i theta (e^{i phase} a_i^dag a_j + h.c.)).

    The Heisenberg action is a_i -> cos(theta) a_i + i e^{i phase} sin(theta) a_j,
    matching the library's beam-splitter convention with t = cos, r = sin.
    Returns a list indexed by total photon number; block[N][k_out, k_in] acts on
    basis states |k>_i |N-k>_j.
    """
    blocks = []
    for total in range(n_total_max + 1):
        dim = total + 1
        h = np.zeros((dim, dim), dtype=complex)
        for k in range(total):
            # <k+1, N-k-1| a_i^dag a_j |k, N-k>
            amp = math.sqrt((k + 1) * (total - k))
            h[k + 1, k] += np.exp(1j * phase) * amp
            h[k, k + 1] += np.exp(-1j * phase) * amp
        blocks.append(expm(1j * theta * h))
    return blocks


def bs_unitary(dim_i: int, dim_j: int, theta: float, phase: float) -> np.ndarray:
    """Dense two-mode beam-splitter unitary (states outside the grid dropped)."""
    blocks = beam_splitter_blocks(theta, phase, dim_i + dim_j - 2)
    u = np.zeros((dim_i * dim_j, dim_i * dim_j), dtype=complex)
    for ki in range(dim_i):
        for kj in range(dim_j):
            total = ki + kj
            for ko in range(total + 1):
                jo = total - ko
                if ko >= dim_i or jo >= dim_j:
                    continue
                u[ko * dim_j + jo, ki * dim_j + kj] = blocks[total][ko, ki]
    return u


def loss_channel_kraus(dim: int, kappa: float, env_mean: float,
                       env_cutoff: int) -> list:
    """Kraus operators of the lossy thermal channel a -> sqrt(kappa) a + ...

    Mixes the mode with a thermal environment (mean env_mean, truncated at
    env_cutoff) on a beam splitter with transmission sqrt(kappa) toward the
    receiver and traces the environment out.
    """
    theta = math.acos(min(1.0, math.sqrt(kappa)))
    blocks = beam_splitter_blocks(theta, 0.0, dim + env_cutoff)
    if env_mean == 0:
        p = np.zeros(env_cutoff + 1)
        p[0] = 1.0
    else:
        m = np.arange(env_cutoff + 1)
        p = (env_mean / (1.0 + env_mean)) ** m / (1.0 + env_mean)
    kraus = []
    for m_in in range(env_cutoff + 1):
        if p[m_in] < 1e-18:
            continue
        for k_out in range(dim + env_cutoff + 1):
            k = np.zeros((dim, dim), dtype=complex)
            nonzero = False
            for s_in in range(dim):
                total = s_in + m_in
                s_out = total - k_out
                if 0 <= s_out < dim and k_out <= total:
                    # env plays the role of mode j in |s>_i |m>_j
                    amp = blocks[total][s_out, s_in]
                    if amp != 0:
                        k[s_out, s_in] = amp
                        nonzero = True
            if nonzero:
                kraus.append(math.sqrt(p[m_in]) * k)
    return kraus


def single_mode_channel_fock(rho: np.ndarray, kappa: float, env_mean: float,
                             env_cutoff: int) -> np.ndarray:
    """Lossy thermal channel on a single-mode density matrix (plain Kraus sum)."""
    dim = rho.shape[0]
    out = np.zeros_like(rho)
    for k in loss_channel_kraus(dim, kappa, env_mean, env_cutoff):
        out += k @ rho @ k.conj().T
    return out


def tmsv_channel_fock(n_s: float, kappa: float, env_mean: float, dim_s: int,
                      dim_i: int, env_cutoff: int) -> np.ndarray:
    """Two-mode squeezed vacuum through the signal-loss channel, exactly.

    Exploits the Schmidt form: the channel acts on signal dyads |n><n'| only,
    so the output is sum_{n,n'} c_n c_n' E(|n><n'|) (x) |n><n'|.  Returns the
    (dim_s * dim_i)-dimensional density matrix with the signal index first.
    """
    n = np.arange(dim_i)
    c = np.sqrt(n_s**n / (1.0 + n_s) ** (n + 1))
    kraus = loss_channel_kraus(dim_s, kappa, env_mean, env_cutoff)
    stack = np.stack([k[:, :dim_i] for k in kraus])  # (K, dim_s, dim_i)
    g = stack.reshape(len(kraus), dim_s * dim_i)
    dyads = (g.T @ g.conj()).reshape(dim_s, dim_i, dim_s, dim_i)
    rho4 = dyads * c[None, :, None, None] * c[None, None, None, :]
    return rho4.reshape(dim_s * dim_i, dim_s * dim_i)


def observable_matrix(obs: QuadraticObservable, dims) -> np.ndarray:
    """Dense Fock matrix of a quadratic observable on modes of sizes ``dims``:
    (c0 - tr h / 2) I + sum_k lin_k r_k + sum_kl h_kl r_k r_l, built from
    x = (a + a^dag)/sqrt2 and p = -i (a - a^dag)/sqrt2 on each mode."""
    n = obs.n_modes
    assert len(dims) == n
    total = int(np.prod(dims))
    quads = []
    for k in range(n):
        a = destroy(dims[k])
        for single in ((a + a.conj().T) / math.sqrt(2), -1j * (a - a.conj().T) / math.sqrt(2)):
            full = np.eye(1, dtype=complex)
            for j in range(n):
                full = np.kron(full, single if j == k else np.eye(dims[j], dtype=complex))
            quads.append(full)
    out = (obs.c0 - 0.5 * np.trace(obs.h)) * np.eye(total, dtype=complex)
    for k in range(2 * n):
        out += obs.lin[k] * quads[k]
        for l in range(2 * n):
            if obs.h[k, l] != 0:
                out += obs.h[k, l] * quads[k] @ quads[l]
    return out


def fock_stats(obs: QuadraticObservable, rho: np.ndarray, dims):
    """(mean, variance) of an observable on a Fock-space density matrix."""
    o = observable_matrix(obs, dims)
    mean = np.trace(rho @ o)
    second = np.trace(rho @ o @ o)
    return mean.real, (second - mean * mean).real


def beam_split(state: GaussianState, mode_i: int, mode_j: int, t: float, r: float,
               phase: float = 0.0) -> GaussianState:
    """The state after a beam splitter on two of its modes: mean S m and
    covariance S N S^T, S = ``beam_splitter_matrix`` (orthogonal, so cov_n
    maps as cov_q)."""
    s = beam_splitter_matrix(state.n_modes, mode_i, mode_j, t, r, phase)
    return GaussianState(s @ state.mean_q, s @ state.cov_n @ s.T)


def target_channel_reference(state: GaussianState, signal_mode: int, params,
                             present: bool) -> GaussianState:
    """The target channel as a circuit: tensor the state with the environment
    thermal mode, mix it into ``signal_mode`` on a beam splitter of
    transmission sqrt(kappa) and trace the environment out."""
    kappa = params.kappa if present else 0.0
    env_mean = params.n_b
    if present and params.noise_model is NoiseModel.CONSTANT:
        env_mean = params.n_b / (1.0 - kappa)
    joined = tensor(state, make_thermal(env_mean))
    mixed = beam_split(joined, signal_mode, state.n_modes,
                       t=math.sqrt(kappa), r=math.sqrt(1.0 - kappa))
    keep = slice(0, 2 * state.n_modes)
    return GaussianState(mixed.mean_q[keep], mixed.cov_n[keep, keep])


# ---------------------------------------------------------------------------
# bitwise references: the engine's formulas written out in full, with every
# term formed whatever its value, in the library's order of operations
# ---------------------------------------------------------------------------

def target_channel_formula(state: GaussianState, params, present: bool) -> GaussianState:
    """The lossy thermal map X N X + noise on the signal's (x, p), mode 0, with
    the scale as ``np.outer`` and the noise added through fancy indexing."""
    kappa = params.kappa if present else 0.0
    noise = params.n_b if params.noise_model is NoiseModel.CONSTANT else (1.0 - kappa) * params.n_b
    x = np.ones(2 * state.n_modes)
    x[:2] = np.sqrt(kappa)
    cov_n = state.cov_n * np.outer(x, x)
    cov_n[..., [0, 1], [0, 1]] += noise
    return GaussianState(x * state.mean_q, cov_n)


def stats_formula(obs: QuadraticObservable, state: GaussianState):
    """(mean, variance) of ``obs`` on one state by the moment formula with the
    displacement terms always formed, m and N zero-padded to the observable's
    modes; the variance unclamped."""
    h, lin, m, cov = obs.h, obs.lin, state.mean_q, state.cov_n
    k = m.size
    if k < lin.size:
        m = np.concatenate((m, np.zeros(lin.size - k)))
        cov = np.zeros_like(h)
        cov[:k, :k] = state.cov_n
    omega = symplectic_form(obs.n_modes)
    hm = h @ m
    hn = h @ cov
    b = lin + 2.0 * hm
    mean = obs.c0 + lin @ m + m @ hm + np.vdot(h, cov)
    var = (2.0 * np.vdot(hn, hn.T + h) + 0.5 * np.vdot(h, h + omega @ h @ omega)
           + b @ cov @ b + 0.5 * (b @ b))
    return float(mean), float(var)


# ---------------------------------------------------------------------------
# quadrature-product observables and the enlarged-mode heterodyne simulation
# ---------------------------------------------------------------------------

def obs_sum(terms) -> QuadraticObservable:
    """Linear combination sum_k f_k O_k of quadratic observables."""
    c0 = sum(f * o.c0 for f, o in terms)
    h = sum(f * o.h for f, o in terms)
    lin = sum(f * o.lin for f, o in terms)
    return QuadraticObservable(c0, h, lin)


def obs_quad_product(i: int, j: int, n: int, theta: float = 0.0,
                     phi: float = 0.0) -> QuadraticObservable:
    """X_i(theta) X_j(phi) on distinct modes of an n-mode system, with
    X(theta) = x cos(theta) + p sin(theta)."""
    h = np.zeros((2 * n, 2 * n))
    for a, ca in enumerate((math.cos(theta), math.sin(theta))):
        for b, cb in enumerate((math.cos(phi), math.sin(phi))):
            h[2 * i + a, 2 * j + b] = h[2 * j + b, 2 * i + a] = 0.5 * ca * cb
    return QuadraticObservable(0.0, h, np.zeros(2 * n))


def obs_quad_square(i: int, n: int, momentum: bool = False) -> QuadraticObservable:
    """X_i^2 (or P_i^2), whose vacuum mean is c0 = 1/2."""
    h = np.zeros((2 * n, 2 * n))
    k = 2 * i + int(momentum)
    h[k, k] = 1.0
    return QuadraticObservable(0.5, h, np.zeros(2 * n))


def heterodyned_cross_observable(sign: float) -> QuadraticObservable:
    """(1/2)[(X_0+X_2)(X_1+X_3) + sign (P_0-P_2)(P_1-P_3)] on 4 modes.

    Modes 2, 3 are the vacuum ancillas injected by heterodyning modes 0, 1;
    sign = +1 measures the X X + P P correlation, sign = -1 the X X - P P one.
    """
    half = np.pi / 2
    terms = []
    for (i, j, s) in (((0, 1, +1.0)), (0, 3, +1.0), (2, 1, +1.0), (2, 3, +1.0)):
        terms.append((0.5 * s, obs_quad_product(i, j, 4)))
    for (i, j, s) in ((0, 1, +1.0), (0, 3, -1.0), (2, 1, -1.0), (2, 3, +1.0)):
        terms.append((0.5 * sign * s, obs_quad_product(i, j, 4, half, half)))
    return obs_sum(terms)


def heterodyned_square_difference() -> QuadraticObservable:
    """(1/2)[(Xt_1^2 - Pt_1^2) - (Xt_0^2 - Pt_0^2)] with Xt = (X + X_v)/sqrt2.

    Modes (0, 1) carry the recombined signal/idler, modes (2, 3) their
    heterodyne vacuum ancillas; Xt_k = (X_k + X_{k+2})/sqrt2 and
    Pt_k = (P_k - P_{k+2})/sqrt2.
    """
    half = np.pi / 2
    terms = []
    for mode, anc, outer in ((1, 3, +1.0), (0, 2, -1.0)):
        terms += [
            (outer * 0.25, obs_quad_square(mode, 4)),
            (outer * -0.25, obs_quad_square(mode, 4, momentum=True)),
            (outer * 0.25, obs_quad_square(anc, 4)),
            (outer * -0.25, obs_quad_square(anc, 4, momentum=True)),
            (outer * 0.5, obs_quad_product(mode, anc, 4)),
            (outer * 0.5, obs_quad_product(mode, anc, 4, half, half)),
        ]
    return obs_sum(terms)


# ---------------------------------------------------------------------------
# mode-operator moments, normal-ordered characteristic function and moment
# extraction
# ---------------------------------------------------------------------------

def mode_moments(state: GaussianState):
    """(<u>, M) for u = (a_1, ..., a_n, a_1^dag, ..., a_n^dag), M[i, j] =
    <du_i du_j> ordered, from the non-symmetrized quadrature moments
    <dr_k dr_l> = cov_q + i Omega / 2 and sqrt2 u = W r, a_k = (x_k + i p_k)/sqrt2.
    W's entries are 1 and +-i, so the factor 1/2 of M is applied exactly."""
    n = state.n_modes
    w = np.zeros((2 * n, 2 * n), dtype=complex)
    for k in range(n):
        w[k, 2 * k], w[k, 2 * k + 1] = 1.0, 1j
        w[n + k, 2 * k], w[n + k, 2 * k + 1] = 1.0, -1j
    ordered = state.cov_q + 0.5j * symplectic_form(n)
    return w @ state.mean_q / math.sqrt(2), 0.5 * (w @ ordered @ w.T)


def normal_characteristic(state: GaussianState, xi: np.ndarray) -> complex:
    """chi_N(xi) = <exp(sum xi_k a_k^dag) exp(-sum conj(xi_k) a_k)>."""
    c = np.concatenate([-np.conj(xi), xi])
    m, mm = mode_moments(state)
    return complex(np.exp(c @ m + 0.5 * c @ mm @ c + 0.5 * np.vdot(xi, xi)))


_STENCIL = ((-2, 1.0 / 12.0), (-1, -8.0 / 12.0), (1, 8.0 / 12.0), (2, -1.0 / 12.0))


def char_fn_moment(state: GaussianState, create, annihilate,
                   step: float = 0.01) -> complex:
    """Normal-ordered moment <prod (a_k^dag)^create_k  prod a_k^annihilate_k>
    by nested fourth-order central differences of the characteristic function.

    ``create`` and ``annihilate`` are per-mode exponent tuples; total order
    up to ~4 stays accurate to well below 1e-6 for few-photon states.
    """
    n = state.n_modes
    derivs = []
    for mode in range(n):
        derivs += [("xi", mode)] * int(create[mode])
        derivs += [("xibar", mode)] * int(annihilate[mode])
    # each Wirtinger derivative is (d/dx -+ i d/dy)/2 built from 1-D stencils
    terms = [(np.zeros(2 * n), 1.0 + 0.0j)]
    for kind, mode in derivs:
        new_terms = []
        for offset, weight in terms:
            for axis, axis_w in ((0, 0.5), (1, -0.5j if kind == "xi" else 0.5j)):
                for shift, st_w in _STENCIL:
                    off = offset.copy()
                    off[2 * mode + axis] += shift * step
                    new_terms.append((off, weight * axis_w * st_w / step))
        terms = new_terms
    total = 0.0 + 0.0j
    for offset, weight in terms:
        xi = offset[0::2] + 1j * offset[1::2]
        total += weight * normal_characteristic(state, xi)
    sign = (-1.0) ** sum(int(a) for a in annihilate)
    return sign * total


# ---------------------------------------------------------------------------
# recursive pair-contraction moments (independent of the matrix engine)
# ---------------------------------------------------------------------------

def wick_moment(state: GaussianState, ops) -> complex:
    """<u_{i1} u_{i2} ...> for an ordered list of (mode, dagger) labels,
    by the recursion  <u1 R> = m1 <R> + sum_j M[1, j] <R without j>."""
    n = state.n_modes
    idx = [mode + (n if dag else 0) for mode, dag in ops]
    m, mm = mode_moments(state)

    def rec(indices) -> complex:
        if not indices:
            return 1.0 + 0.0j
        first, rest = indices[0], indices[1:]
        total = m[first] * rec(rest)
        for j in range(len(rest)):
            total += mm[first, rest[j]] * rec(rest[:j] + rest[j + 1:])
        return total

    return rec(idx)


# ---------------------------------------------------------------------------
# special functions
# ---------------------------------------------------------------------------

def erfc_reference(z: float) -> float:
    """erfc by Maclaurin series (|z| < 2) or Lentz continued fraction."""
    if z < 0:
        return 2.0 - erfc_reference(-z)
    if z < 2.0:
        # erf(z) = 2/sqrt(pi) sum (-1)^k z^(2k+1) / (k! (2k+1))
        term = z
        total = z
        for k in range(1, 200):
            term *= -z * z / k
            inc = term / (2 * k + 1)
            total += inc
            if abs(inc) < 1e-18 * abs(total):
                break
        return 1.0 - 2.0 / math.sqrt(math.pi) * total
    # erfc(z) = exp(-z^2)/sqrt(pi) / (z + (1/2)/(z + (2/2)/(z + (3/2)/(z + ...))))
    # evaluated by the modified Lentz algorithm with a_k = k/2, b_k = z
    tiny = 1e-300
    f = z if z != 0 else tiny
    c = f
    d = 0.0
    for k in range(1, 300):
        a = k / 2.0
        b = z
        d = b + a * d
        if d == 0:
            d = tiny
        c = b + a / c
        if c == 0:
            c = tiny
        d = 1.0 / d
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < 1e-17:
            break
    return math.exp(-z * z) / math.sqrt(math.pi) / f


def golden_max(fn, lo: float, hi: float, tol: float = 1e-12) -> float:
    """Golden-section maximizer of a unimodal function on [lo, hi]."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = fn(d)
    return 0.5 * (a + b)


# ---------------------------------------------------------------------------
# symplectic spectrum and quantum Chernoff bound
# ---------------------------------------------------------------------------

def symplectic_eigenvalues(state) -> np.ndarray:
    """Symplectic eigenvalues of a state, ascending: the moduli of the
    eigenvalue pairs +-i nu of Omega @ cov_q."""
    ev = np.linalg.eigvals(symplectic_form(state.n_modes) @ state.cov_q)
    return np.sort(np.abs(ev))[::2]


def chernoff_exponent_mp(pair, m: float, dps: int = 40) -> float:
    """-m log min_s Q_s of a Gaussian hypothesis pair at ``dps`` digits.

    Each state enters through its ``cov_q`` and ``mean_q``.
    """
    import mpmath as mp

    def moments(state):
        return mp.matrix(state.cov_q.tolist()), mp.matrix(state.mean_q.tolist())

    with mp.workdps(dps):
        return _chernoff_exponent_mp([moments(pair.on), moments(pair.off)], m)


def cct_exponent_mp(params, m: float, dps: int = 40) -> float:
    """chernoff_exponent_mp of the split-thermal (CCT) hypothesis pair, with
    the covariances written from the model at ``dps`` digits, so that no
    input to the bound is rounded to a double: the signal mode carries
    kappa N_S plus the received background (N_B, or (1 - kappa) N_B for
    nonconstant noise on), and <x_S x_I> = <p_S p_I> = sqrt(kappa N_S N_I)."""
    import mpmath as mp

    with mp.workdps(dps):
        kappa, n_s, n_i, n_b = (mp.mpf(v) for v in (params.kappa, params.n_s, params.n_i,
                                                     params.n_b))
        noise_on = n_b if params.noise_model is NoiseModel.CONSTANT else (1 - kappa) * n_b

        def moments(signal, cross):
            a, b = signal + mp.mpf(1) / 2, n_i + mp.mpf(1) / 2
            cov = mp.matrix([[a, 0, cross, 0], [0, a, 0, cross],
                             [cross, 0, b, 0], [0, cross, 0, b]])
            return cov, mp.matrix(4, 1)

        return _chernoff_exponent_mp([moments(kappa * n_s + noise_on,
                                              mp.sqrt(kappa * n_s * n_i)),
                                      moments(n_b, mp.mpf(0))], m)


def _chernoff_exponent_mp(hypotheses, m: float) -> float:
    """-m log min_s Q_s from the mpmath (cov_q, mean_q) of the on and off
    hypotheses, at the working precision of the caller.

    Uses neither Williamson nor Schur forms.  With V the doubled covariance,
    R = V^(1/2) and K = R Omega R, -K^2 is symmetric with the squared
    symplectic eigenvalues as its spectrum (each twice), and
    Lambda_p(V) = R F_p(-K^2) R with F_p(y) = lambda_p(sqrt y) / sqrt y;
    the product of g_p is the square root of its product over that spectrum.
    Q_s is then minimized by a 70-step golden search in mpmath.

    Covariances that arrive as doubles put a pure mode's symplectic
    eigenvalue x within their round-off of 1, on either side.  Every x with
    x - 1 < 1e-12 x is taken as exactly 1: then (x - 1)^s is 0, and Q_s of a
    pure mode keeps its s -> 0+ limit instead of tending to 1.
    """
    import mpmath as mp

    def powers(x, p):
        return (x + 1) ** p, (x - 1) ** p

    def decompose(cov_q, mean_q):
        w, u = mp.eigsy(2 * cov_q)
        r = u * mp.diag([mp.sqrt(x) for x in w]) * u.T
        k = r * omega * r
        y, z = mp.eigsy(-(k * k + (k * k).T) / 2)
        x = [mp.sqrt(v) for v in y]
        x = [mp.mpf(1) if v - 1 < 1e-12 * v else v for v in x]  # pure modes
        return x, r * z, mean_q

    def pieces(x, a, p):
        g2, f = mp.mpf(1), []
        for xi in x:
            plus, minus = powers(xi, p)
            g2 *= 2**p / (plus - minus)
            f.append((plus + minus) / (plus - minus) / xi)
        return mp.sqrt(g2), a * mp.diag(f) * a.T

    n = hypotheses[0][0].rows // 2
    omega = mp.matrix(symplectic_form(n).tolist())
    x_on, a_on, mean_on = decompose(*hypotheses[0])
    x_off, a_off, mean_off = decompose(*hypotheses[1])
    delta = mp.sqrt(2) * (mean_on - mean_off)

    def overlap(s):
        g_on, lam_on = pieces(x_on, a_on, s)
        g_off, lam_off = pieces(x_off, a_off, 1 - s)
        sig = lam_on + lam_off
        quad = (delta.T * mp.lu_solve(sig, delta))[0]
        return 2**n * g_on * g_off / mp.sqrt(mp.det(sig)) * mp.exp(-quad / 2)

    inv_phi = (mp.sqrt(5) - 1) / 2
    a, b = mp.mpf(0), mp.mpf(1)
    c, d = b - inv_phi * (b - a), a + inv_phi * (b - a)
    fc, fd = overlap(c), overlap(d)
    for _ in range(70):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = overlap(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = overlap(d)
    return float(-m * mp.log(min(fc, fd)))


# ---------------------------------------------------------------------------
# optimization
# ---------------------------------------------------------------------------

def bound_snr_mp(params, alpha, beta, dps: int = 50, *, extra_var=0):
    """SNR of the bound receiver on the TMSV pair in ``dps``-digit arithmetic,
    as an mpf; ``extra_var`` is added to both variances.

    The observable is O = alpha n_S + beta n_I + S, S = a_S a_I + a_S^dag
    a_I^dag.  A hypothesis of reflectance k leaves the signal mode with
    occupancy b = k N_S + N_B (constant noise) or k N_S + (1 - k) N_B
    (nonconstant), the idler with N_S and <a_S a_I> = c =
    sqrt(k N_S (N_S + 1)).  Wick's theorem gives the variances and
    covariances Var n_S = b (b + 1), Var n_I = N_S (N_S + 1),
    Cov(n_S, n_I) = c^2, Cov(n_S, S) = c (2 b + 1), Cov(n_I, S) = c (2 N_S + 1)
    and Var S = (b + 1)(N_S + 1) + b N_S + 2 c^2; the mean gap is
    alpha (b_on - b_off) + 2 c_on, and SNR = M gap^2 / (2 (sd_on + sd_off)^2).
    """
    import mpmath as mp

    with mp.workdps(dps):
        kappa, n, n_b, m = (mp.mpf(v) for v in (params.kappa, params.n_s, params.n_b,
                                                params.m_modes))
        a, w, extra = mp.mpf(alpha), mp.mpf(beta), mp.mpf(extra_var)
        constant = params.noise_model is NoiseModel.CONSTANT

        def moments(k):
            b = k * n + (n_b if constant else (1 - k) * n_b)
            return b, mp.sqrt(k * n * (n + 1))

        def sd(b, c):
            return mp.sqrt(a * a * b * (b + 1) + w * w * n * (n + 1) + 2 * a * w * c * c
                           + 2 * a * c * (2 * b + 1) + 2 * w * c * (2 * n + 1)
                           + (b + 1) * (n + 1) + b * n + 2 * c * c + extra)

        (b_on, c_on), (b_off, c_off) = moments(kappa), moments(mp.mpf(0))
        gap = a * (b_on - b_off) + 2 * c_on
        return m * gap * gap / (2 * (sd(b_on, c_on) + sd(b_off, c_off)) ** 2)


def tmsv_moment_snr_mp(obs: QuadraticObservable, params, dps: int = 50):
    """SNR of ``obs`` (no linear part) on the TMSV pair in ``dps``-digit
    arithmetic, as an mpf, by the moment formula of ``stats``.

    The pair's normally ordered covariances are written from the scenario:
    the signal (x, p) block k N_S + noise, the idler N_S, and the cross
    entries +-sqrt(k) sqrt(N_S (N_S + 1)) on (x_S x_I, p_S p_I), for k =
    kappa and 0; modes of ``obs`` beyond the two are vacuum.  With N that
    covariance, <O> = c0 + tr(h N) and Var(O) = 2 tr(hN (hN + h)) +
    tr(h (h + Omega h Omega)) / 2, exact in the float entries of ``h``.
    """
    import mpmath as mp

    if obs.lin.any():
        raise ValueError("linear parts are not covered")
    with mp.workdps(dps):
        n, n_b, m = (mp.mpf(v) for v in (params.n_s, params.n_b, params.m_modes))
        h = mp.matrix(obs.h.tolist())
        omega = mp.matrix(symplectic_form(obs.n_modes).tolist())
        rows = range(h.rows)

        def trace(a):
            return mp.fsum(a[i, i] for i in rows)

        vacuum = trace(h * (h + omega * h * omega)) / 2
        constant = params.noise_model is NoiseModel.CONSTANT

        def moments(k):
            cov = mp.zeros(h.rows)
            cov[0, 0] = cov[1, 1] = k * n + (n_b if constant else (1 - k) * n_b)
            cov[2, 2] = cov[3, 3] = n
            c = mp.sqrt(k) * mp.sqrt(n * (n + 1))
            cov[0, 2] = cov[2, 0] = c
            cov[1, 3] = cov[3, 1] = -c
            hn = h * cov
            return obs.c0 + trace(hn), 2 * trace(hn * (hn + h)) + vacuum

        (mean_on, var_on), (mean_off, var_off) = moments(mp.mpf(params.kappa)), moments(0)
        gap = mean_on - mean_off
        return m * gap * gap / (2 * (mp.sqrt(var_on) + mp.sqrt(var_off)) ** 2)


def opa_printed_snr_mp(params, gain, dps: int = 50):
    """SNR of the amplifier receiver's printed closed form in ``dps``-digit
    arithmetic, as an mpf, written from the printed excess-variance term

        q(k) = (G-1)/G b (b + 1) + G/(G-1) N_S (N_S + 1)
               + c / sqrt(G (G-1)) [(G-1)(4 b + 2) + G (4 N_S + 1)] + 2 c^2

    with b and c as in ``bound_snr_mp``: each variance is Var S + q(k) and the
    gap is 2 [c_on + sqrt((G-1)/G) (b_on - b_off) / 2].  The G (4 N_S + 1)
    is the printed coefficient, kept as printed.
    """
    import mpmath as mp

    with mp.workdps(dps):
        kappa, n, n_b, m, g = (mp.mpf(v) for v in (params.kappa, params.n_s, params.n_b,
                                                   params.m_modes, gain))
        constant = params.noise_model is NoiseModel.CONSTANT

        def variance(k):
            b = k * n + (n_b if constant else (1 - k) * n_b)
            c = mp.sqrt(k * n * (n + 1))
            q = ((g - 1) / g * b * (b + 1) + g / (g - 1) * n * (n + 1)
                 + c / mp.sqrt(g * (g - 1)) * ((g - 1) * (4 * b + 2) + g * (4 * n + 1))
                 + 2 * c * c)
            return (b + 1) * (n + 1) + b * n + 2 * c * c + q

        shift = kappa * n if constant else kappa * (n - n_b)
        gap = 2 * (mp.sqrt(kappa * n * (n + 1)) + mp.sqrt((g - 1) / g) * shift / 2)
        return m * gap * gap / (2 * (mp.sqrt(variance(kappa))
                                     + mp.sqrt(variance(mp.mpf(0)))) ** 2)


def _bound_snr_gradient(params, a, w, dps: int):
    """(dSNR/dalpha, dSNR/dbeta) of ``bound_snr_mp`` at mpf (a, w), by
    central differences with step 10^(-2 dps / 5), as mpf; the caller holds
    ``dps`` digits."""
    import mpmath as mp

    h = mp.mpf(10) ** (-(dps * 2 // 5))

    def snr(x, y):
        return bound_snr_mp(params, x, y, dps)

    return ((snr(a + h, w) - snr(a - h, w)) / (2 * h),
            (snr(a, w + h) - snr(a, w - h)) / (2 * h))


def bound_snr_gradient_mp(params, alpha: float, beta: float, dps: int = 50):
    """(dSNR/dalpha, dSNR/dbeta) of the bound receiver on the TMSV pair, by
    central differences of ``bound_snr_mp`` in ``dps``-digit arithmetic."""
    import mpmath as mp

    with mp.workdps(dps):
        return tuple(float(v) for v in _bound_snr_gradient(params, mp.mpf(alpha),
                                                           mp.mpf(beta), dps))


def optimal_weights_mp(params, alpha: float, beta: float, dps: int = 50):
    """The stationary point of ``bound_snr_mp`` near (alpha, beta), as mpf.

    Newton's method on the differenced gradient of ``bound_snr_gradient_mp``
    from the given weights, with the Jacobian taken once, at the start, by
    central differences of that gradient with step 10^(-dps / 5)
    (1 + |weight|).  The gradient carries about 3 dps / 5 digits, and so
    does the point.  It stops when a step is below 10^(-dps / 2)
    (1 + |weight|) and raises if 20 steps do not get there.
    """
    import mpmath as mp

    with mp.workdps(dps):
        x = mp.matrix([alpha, beta])
        jac = mp.matrix(2, 2)
        for j in range(2):
            k = mp.mpf(10) ** (-(dps // 5)) * (1 + abs(x[j]))
            up, down = x.copy(), x.copy()
            up[j] += k
            down[j] -= k
            grad_up = _bound_snr_gradient(params, up[0], up[1], dps)
            grad_down = _bound_snr_gradient(params, down[0], down[1], dps)
            for i in range(2):
                jac[i, j] = (grad_up[i] - grad_down[i]) / (2 * k)
        for _ in range(20):
            step = mp.lu_solve(jac, mp.matrix(_bound_snr_gradient(params, x[0], x[1], dps)))
            x -= step
            if all(abs(step[j]) <= mp.mpf(10) ** (-(dps // 2)) * (1 + abs(x[j]))
                   for j in range(2)):
                return x[0], x[1]
    raise ArithmeticError("Newton's method did not reach the stationary point")


def nelder_mead_max(fn, starts, max_evals: int = 2000) -> float:
    """Largest positive value of fn(a, b) found by Nelder-Mead from each start.

    A derivative-free local search on log fn, run from several starts so it
    can reach maxima a single descent would miss; it shares no seed, step
    rule or derivative with the library's solver.
    """
    from scipy.optimize import minimize

    def objective(x):
        val = fn(x[0], x[1])
        return -math.log(val) if val > 0 else math.inf

    best = math.inf
    for start in starts:
        res = minimize(objective, np.asarray(start, dtype=float), method="Nelder-Mead",
                       options={"xatol": 1e-10, "fatol": 1e-15,
                                "maxiter": max_evals, "maxfev": max_evals})
        best = min(best, res.fun)
    return math.exp(-best)


def zoom_qcb(pair, m_modes: float):
    """(s*, exponent) lists of ``gillum.chernoff._search`` as it was before
    its two-call search, the reference of that search: four batched rounds of
    33 overlaps zoom every row from [1e-6, 1 - 1e-6] into the neighbours of
    its argmin until every bracket is at most 1e-3 wide, then the same
    least-squares cubic through log Q of the last samples.  Only the overlap
    (``_PairData``) and the constants are the library's."""
    on, off = pair.on, pair.off
    live = ((on.cov_n != off.cov_n).any(axis=(-2, -1))
            | (on.mean_q != off.mean_q).any(axis=-1)).ravel().tolist()
    data = ch._PairData(pair)
    rows = len(live)
    lo, hi = [ch._S_EDGE] * rows, [1.0 - ch._S_EDGE] * rows
    while True:
        s = np.array([np.minimum(a + (b - a) * ch._UNIT, b) for a, b in zip(lo, hi)])
        q = data.overlap(s)
        argmin = q.argmin(axis=1).tolist()
        wide = [r for r in range(rows) if hi[r] - lo[r] > ch._STOP_WIDTH]
        if not wide:
            break
        for r in wide:
            i = argmin[r]
            lo[r], hi[r] = s[r, max(i - 1, 0)], s[r, min(i + 1, ch._BRACKET - 1)]
    s_star, exponent = [0.5] * rows, [0.0] * rows
    for r, i in enumerate(argmin):
        if not live[r]:
            continue
        q_r, s_r, t = q[r], float(s[r, i]), math.inf
        if not q_r[i] >= 0:
            raise ch.NumericalError(f"Chernoff overlap Q_s is {q_r[i]} at s = {s_r:.6g}")
        if 0 < i < ch._BRACKET - 1 and q_r[i] > 0:
            a3, a2, a1, a0 = ch._CUBIC_FIT @ np.log(q_r)
            disc = a2 * a2 - 3.0 * a3 * a1
            if a2 > 0 and disc > 0:
                t = -a1 / (a2 + math.sqrt(disc))
        if abs(t) < 1:
            s_r = float(lo[r] + 0.5 * (hi[r] - lo[r]) * (1.0 + t))
            log_q = float(((a3 * t + a2) * t + a1) * t + a0)
        else:
            log_q = math.log(q_r[i]) if q_r[i] > 0 else -math.inf
        xi = -log_q if log_q < 0 else 0.0
        if ch._ROUND_OFF > ch._MAX_ERROR * xi:
            raise ch.NumericalError(
                f"per-copy Chernoff exponent {xi:.3g} is below what double precision "
                f"resolves (estimated relative error {ch._ROUND_OFF / xi if xi else math.inf:.2g}"
                f" > {ch._MAX_ERROR:g})")
        s_star[r], exponent[r] = s_r, m_modes * xi
    return s_star, exponent


def loop_path_search(g_on: np.ndarray, g_off: np.ndarray, d: np.ndarray) -> np.ndarray:
    """``gillum.receivers._path_search`` as it was before its first Newton
    step came from closed forms, the reference of that step: the loop
    evaluates g and g' at lam = 1/2 too, through w = 1 - sigma + lam (2 sigma
    - 1), which is exactly 1/2 there unless 1 - sigma or 2 sigma - 1 rounds."""
    eps = np.finfo(float).eps
    chol = np.linalg.cholesky(g_on + g_off)
    sigma, u = np.linalg.eigh(
        np.linalg.solve(chol, np.linalg.solve(chol, g_on).swapaxes(-1, -2)))
    sigma = np.clip(sigma, 0.0, 1.0)
    z = (np.linalg.solve(chol, d[..., None]).swapaxes(-1, -2) @ u)[..., 0, :]
    base, slope = 1.0 - sigma, 2.0 * sigma - 1.0
    zz = z * z
    zz_on, zz_off, zz_dg = sigma * zz, base * zz, 2.0 * sigma * base * zz
    lo, hi = np.full(sigma.shape[:-1], eps * eps), np.ones(sigma.shape[:-1])
    lam = np.full(sigma.shape[:-1], 0.5)
    while True:
        w = base + lam[..., None] * slope
        ww = w * w
        on, off = lam * lam * (zz_on / ww).sum(-1), (1.0 - lam) ** 2 * (zz_off / ww).sum(-1)
        g, dg = on - off, (zz_dg / (ww * w)).sum(-1)
        tol = 4.0 * eps * (on + off)
        lo, hi = np.where(g > tol, lo, lam), np.where(g < -tol, hi, lam)
        mid = 0.5 * (lo + hi)
        live = (lo < mid) & (mid < hi)
        if not live.any():
            break
        step = lam - g / np.where(dg > 0.0, dg, np.inf)
        lam = np.where(live, np.where((lo < step) & (step < hi), step, mid), lam)
    return np.linalg.solve(chol.swapaxes(-1, -2), u @ (z / w)[..., None])[..., 0]
