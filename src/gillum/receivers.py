"""Receiver signal-to-noise ratios and error probabilities.

For M independent mode pairs the detection statistic is the summed outcome of
a mode-by-mode measurement of an observable O, Gaussian for large M, and the
discrimination error is minimized at

    SNR = M (<O>_on - <O>_off)^2 / (2 (sqrt(Var_on) + sqrt(Var_off))^2),
    P_err = erfc(sqrt(SNR)) / 2.

Every receiver returns this M-mode SNR: a float for one point, an array for
a sweep.  This module evaluates any receiver through the generic observable
engine and provides the closed-form expressions for the standard receivers,
the optimal idler weight for constant noise, and the two-parameter
optimization needed under nonconstant noise.

The bound observable O = alpha n_S + beta n_I + gamma S (S the squeeze
correlation) is a vector x = (alpha, beta, gamma) in the basis
A = (n_S, n_I, S): its mean gap is d^T x (``_gap``), and its variance on
either hypothesis is x^T G x with G = Re<dA dA^T> (``_gram``) positive
semidefinite.  Every bound-family receiver is a weight vector on this one
Gram: nOB at (0, 0, 1), DH at (-1, -1, 1), OB at (0, -|beta|, 1) or the
optimizer's weights, PC at (0, 0, 1) plus conjugation vacuum noise, and the
amplifier at (sqrt((G-1)/G), sqrt(G/(G-1)), 1) with its printed slip.

The SNR M (d^T x)^2 / (2 (||x||_on + ||x||_off)^2) does not change when x
is scaled, so maximizing it means minimizing the convex ||x||_on +
||x||_off on the plane d^T x = 1, the minimax probability machine of
Lanckriet et al. (JMLR 3, 555 (2002)).  Its minimizer lies on the
Anderson-Bahadur path x(lam) = (lam G_on + (1 - lam) G_off)^-1 d (Ann.
Math. Statist. 33, 420 (1962)) at the one sign change of lam ||x||_on -
(1 - lam) ||x||_off on (0, 1).  ``_path_search`` finds it by bracketed
Newton steps on lam^2 ||x||_on^2 - (1 - lam)^2 ||x||_off^2, whose derivative
in lam has a closed form, for every point of a sweep at once.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .channels import HypothesisPair, NoiseModel, ScenarioParams, _check_m_modes, _received_noise
from .observables import QuadraticObservable, stats

PC_MU = math.sqrt(2.0)
PC_NU = 1.0
OPA_GAIN = 1.0 + 7.4e-5  # implementable amplifier gain
_EPS = np.finfo(float).eps


def p_err(snr: float | np.ndarray) -> float | np.ndarray:
    """Minimum discrimination error erfc(sqrt(SNR))/2 entry by entry, like
    the receivers' SNRs: a float for one SNR, an array for a sweep.

    Decreases from 1/2 at SNR = 0; underflows to 0 for SNR beyond roughly 7e2.
    A NaN or negative entry is refused.
    """
    x = np.asarray(snr, dtype=float)
    if not (x >= 0).all():  # nan fails too
        raise ValueError("snr must be >= 0")
    out = 0.5 * np.array([math.erfc(math.sqrt(v)) for v in x.ravel().tolist()]).reshape(x.shape)
    return float(out) if out.ndim == 0 else out


def _snr(gap: float, var_on: float, var_off: float, m_modes: float) -> float:
    """M-mode SNR from per-mode statistics; callers form ``gap`` = <O>_on -
    <O>_off without cancellation where they can.  Elementwise over arrays."""
    s_on = np.sqrt(np.maximum(var_on, 0.0))
    s_off = np.sqrt(np.maximum(var_off, 0.0))
    s_sum = s_on + s_off
    denom = 2.0 * s_sum * s_sum  # not ** 2: a scalar's is pow, off by an ulp at times
    if (denom > 0).all():
        return m_modes * gap * gap / denom
    # zero noise: SNR 0 for a zero gap and inf otherwise
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(gap == 0, 0.0, m_modes * gap * gap / denom)[()]


def snr_generic(obs: QuadraticObservable, pair: HypothesisPair, m_modes: float) -> float:
    """SNR of measuring ``obs`` on every mode pair, through the moment engine.

    Modes of ``obs`` beyond the pair's are vacuum ancillas (see ``stats``);
    M must be one whole number >= 1, as in ``ScenarioParams``.
    """
    _check_m_modes(m_modes)
    on, off = stats(obs, pair.on), stats(obs, pair.off)
    return _snr(on.mean - off.mean, on.variance, off.variance, m_modes)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def _occupancy(params: ScenarioParams, kappa: float) -> float:
    """Signal-mode thermal-plus-reflection occupancy after the channel."""
    return kappa * params.n_s + _received_noise(params, kappa)


def _cross(params: ScenarioParams, kappa: float) -> float:
    return np.sqrt(kappa * params.n_s * (params.n_s + 1.0))


def _gram(params: ScenarioParams, kappa: float):
    """Gram matrix G = Re<dA dA^T> of the basis A = (n_S, n_I, S) on the
    hypothesis with reflectance ``kappa``, as three rows; each entry is a
    float, or an array over a sweep."""
    ns = params.n_s
    b = _occupancy(params, kappa)
    c = _cross(params, kappa)
    g01, g02, g12 = c * c, c * (2.0 * b + 1.0), c * (2.0 * ns + 1.0)
    return ((b * (b + 1.0), g01, g02),
            (g01, ns * (ns + 1.0), g12),
            (g02, g12, (b + 1.0) * (ns + 1.0) + 2.0 * g01 + b * ns))


def _gap(params: ScenarioParams):
    """Mean gap d = <A>_on - <A>_off of the basis (n_S, n_I, S): the occupancy
    gain kappa N_S (constant noise) or kappa (N_S - N_B), 0, and 2C."""
    nonconstant = params.noise_model is NoiseModel.NONCONSTANT
    shift = params.kappa * (params.n_s - params.n_b if nonconstant else params.n_s)
    return shift, 0.0, 2.0 * _cross(params, params.kappa)


def _family_moments(g_on, g_off, d, alpha, beta):
    """Statistics (d^T z, z^T G_on z, z^T G_off z) of the family member
    z = (alpha, beta, 1), for Grams given as three rows (``_gram``) and the
    mean gap d (``_gap``).

    The mean gap is formed from d, not as a difference of means, so it keeps
    its digits when the means are large.  Accepts arrays.
    """
    var_on, var_off = (
        g22 + (alpha * alpha * g00 + beta * beta * g11 + 2.0 * alpha * g02
               + 2.0 * beta * g12 + 2.0 * alpha * beta * g01)
        for (g00, g01, g02), (_, g11, g12), (_, _, g22) in (g_on, g_off))
    d0, d1, d2 = d
    return alpha * d0 + beta * d1 + d2, var_on, var_off


def _bound_moments(params: ScenarioParams, alpha, beta):
    """``_family_moments`` of the scenario's Grams and mean gap."""
    return _family_moments(_gram(params, params.kappa), _gram(params, 0.0), _gap(params),
                           alpha, beta)


def _bound_snr(params: ScenarioParams, alpha, beta):
    return _snr(*_bound_moments(params, alpha, beta), params.m_modes)


def snr_nearly_bound(params: ScenarioParams) -> float:
    """SNR of the bare squeeze-correlation observable (alpha = beta = 0)."""
    return _bound_snr(params, 0.0, 0.0)


def optimal_beta_closed(params: ScenarioParams) -> float:
    """Optimal idler-number weight |beta| for the constant-noise bound receiver.

    |beta| = (1 + 2 N_S)/sqrt(kappa N_S (N_S+1)^3) [f - sqrt(f (f - g))],
    f = 1 + N_S + N_B + 2 N_S N_B, g = kappa (N_S + 1), evaluated as
    f g / (f + sqrt(f (f - g))), which does not cancel when g << f, over
    (N_S + 1) sqrt(g N_S) without ``**`` (pow for a scalar, not for an
    array), so a sweep entry has the bits of its point call; converges to
    sqrt(kappa) for large N_S.  Singular at kappa N_S = 0, where callers
    fall back to beta = 0.
    """
    ns, nb, kappa = params.n_s, params.n_b, params.kappa
    if np.any(kappa * ns <= 0.0):
        raise ValueError("optimal beta is singular at kappa * n_s = 0")
    f = 1.0 + ns + nb + 2.0 * ns * nb
    g = kappa * (ns + 1.0)
    return (1.0 + 2.0 * ns) / ((ns + 1.0) * np.sqrt(g * ns)) * (
        f * g / (f + np.sqrt(f * (f - g))))


def _idler_weight(params: ScenarioParams):
    """``optimal_beta_closed`` elementwise, and 0 where kappa n_s = 0."""
    live = params.kappa * params.n_s > 0  # evaluated at kappa = 0.5, n_s = 1 elsewhere
    live_params = replace(params, kappa=np.where(live, params.kappa, 0.5),
                          n_s=np.where(live, params.n_s, 1.0))
    return np.where(live, optimal_beta_closed(live_params), 0.0)[()]


def snr_bound_constant(params: ScenarioParams) -> float:
    """Bound-receiver SNR under constant noise at alpha = 0 and the idler
    weight -|beta| of ``optimal_beta_closed`` (0 where kappa n_s = 0).

    A fixed weight b is ``snr_bound_nonconstant(params, 0.0, -b)``.
    """
    if params.noise_model is not NoiseModel.CONSTANT:
        raise ValueError("snr_bound_constant requires the constant noise model")
    return _bound_snr(params, 0.0, -_idler_weight(params))


def snr_bound_nonconstant(params: ScenarioParams, alpha, beta):
    """Bound-receiver SNR at explicit weights (alpha, beta), under either
    noise model.

    Evaluates M gap^2 / (2 [sqrt(V_on) + sqrt(V_off)]^2) with the exact
    observable variances and the gap 2C - alpha kappa (N_B - N_S) under
    nonconstant noise or 2C + alpha kappa N_S under constant noise.  Accepts
    arrays; scalar weights give a float.
    """
    snr = _bound_snr(params, alpha, beta)
    return snr if np.ndim(snr) else float(snr)


def _path_search(g_on: np.ndarray, g_off: np.ndarray, d: np.ndarray) -> np.ndarray:
    """x maximizing (d^T x)^2 / (||x||_on + ||x||_off)^2, ||x||^2 = x^T G x,
    for stacks (..., n, n) of PSD G_on, G_off with positive-definite sums and
    gaps d (..., n); each row is searched on its own, so it gets the bits it
    gets alone.

    With G_on + G_off = L L^T and L^-1 G_on L^-T = U diag(sigma) U^T,
    x(lam) = L^-T U z / w, z = U^T L^-1 d, w = 1 - sigma + lam (2 sigma - 1),
    and the squared norms are on = sum sigma z^2 / w^2 and off = sum
    (1 - sigma) z^2 / w^2.  The optimum is the one sign change of g(lam) =
    lam^2 on - (1 - lam)^2 off on (0, 1): in t = lam / (1 - lam) each term of
    g has derivative 2 sigma (1 - sigma) (t + 1) / (sigma t + 1 - sigma)^3 >= 0,
    and g'(lam) = 2 sum sigma (1 - sigma) z^2 / w^3 in closed form.  The
    search starts at lam = 1/2, where every w is 1/2, so on = sum sigma z^2,
    off = sum (1 - sigma) z^2, g = sum (2 sigma - 1) z^2 and g' = 16 sum
    sigma (1 - sigma) z^2 are plain sums: the first bracket split and Newton
    step come from them, with no evaluation of the loop.  A Newton step on g
    is taken where it stays inside the row's bracket, bisection elsewhere,
    until |g| is at round-off level, which collapses the bracket, or the
    bracket cannot be split.  No endpoint, where G_on or G_off may be
    singular and w vanish, is ever evaluated: the bracket starts at
    (eps^2, 1), and below eps^2 lam moves no w with sigma < 1 by more than a
    few ulps, nor the direction of x if some sigma is 1.
    """
    chol = np.linalg.cholesky(g_on + g_off)
    sigma, u = np.linalg.eigh(
        np.linalg.solve(chol, np.linalg.solve(chol, g_on).swapaxes(-1, -2)))
    sigma = np.clip(sigma, 0.0, 1.0)  # round-off of a singular G_on or G_off
    z = (np.linalg.solve(chol, d[..., None]).swapaxes(-1, -2) @ u)[..., 0, :]
    base, slope = 1.0 - sigma, 2.0 * sigma - 1.0
    zz = z * z
    zz_on, zz_off, zz_dg = sigma * zz, base * zz, 2.0 * sigma * base * zz
    lo, hi = np.full(sigma.shape[:-1], _EPS * _EPS), np.ones(sigma.shape[:-1])
    lam = np.full(sigma.shape[:-1], 0.5)
    # every w is 1/2 at lam = 1/2, so on, off, g and g' there are plain sums;
    # w itself is formed as the loop forms it, so a row that stops at 1/2 has
    # the same bits in any stack
    w = base + 0.5 * slope
    on, off = zz_on.sum(-1), zz_off.sum(-1)
    g, dg = on - off, 8.0 * zz_dg.sum(-1)
    while True:
        tol = 4.0 * _EPS * (on + off)  # |g| below this is round-off
        lo, hi = np.where(g > tol, lo, lam), np.where(g < -tol, hi, lam)
        mid = 0.5 * (lo + hi)
        live = (lo < mid) & (mid < hi)
        if not live.any():
            break
        step = lam - g / np.where(dg > 0.0, dg, np.inf)  # g is flat if each sigma is 0 or 1
        lam = np.where(live, np.where((lo < step) & (step < hi), step, mid), lam)
        w = base + lam[..., None] * slope
        ww = w * w
        on, off = lam * lam * (zz_on / ww).sum(-1), (1.0 - lam) ** 2 * (zz_off / ww).sum(-1)
        g, dg = on - off, (zz_dg / (ww * w)).sum(-1)
    return np.linalg.solve(chol.swapaxes(-1, -2), u @ (z / w)[..., None])[..., 0]


def optimize_alpha_beta_nonconstant(params: ScenarioParams):
    """Maximize the nonconstant-noise bound-receiver SNR over (alpha, beta),
    at one point or over a whole sweep.

    Convex in homogeneous coordinates x ~ (alpha, beta, 1), which cover both
    signs of the mean gap: ``_path_search`` finds each point's sign change
    along its Anderson-Bahadur path, every point a row of one stack, and
    alpha = x_0 / x_2, beta = x_1 / x_2.  A point with kappa = 0 carries no
    signal and gets (0, 0) with SNR 0.  N_S = 0 at any other point raises
    ValueError: the supremum there lies at |alpha| -> infinity.  Returns
    (alpha, beta, SNR): floats for one point, arrays over a sweep.
    """
    if params.noise_model is not NoiseModel.NONCONSTANT:
        raise ValueError("optimizer applies to the nonconstant noise model")
    kappa, n_s, _ = np.broadcast_arrays(params.kappa, params.n_s, params.n_b)
    live = kappa.ravel() != 0.0
    if (n_s.ravel()[live] == 0.0).any():
        raise ValueError("optimal weights are singular at n_s = 0: "
                         "the SNR supremum lies at |alpha| -> infinity")
    g_on, g_off, d = _gram(params, params.kappa), _gram(params, 0.0), _gap(params)
    entries = (*g_on[0], *g_on[1], *g_on[2], *g_off[0], *g_off[1], *g_off[2], *d)
    # a point's entries are all scalars; broadcasting them would cost it a tenth
    rows = np.array(np.broadcast_arrays(*entries) if kappa.ndim else entries)
    rows = rows.reshape(21, -1).T[live]  # one row of G_on, G_off and d per point
    x = _path_search(rows[:, :9].reshape(-1, 3, 3), rows[:, 9:18].reshape(-1, 3, 3),
                     rows[:, 18:])
    weights = np.zeros((live.size, 2))
    weights[live] = x[:, :2] / x[:, 2:]
    alpha, beta = weights.T.reshape((2,) + kappa.shape)
    snr = _snr(*_family_moments(g_on, g_off, d, alpha, beta), params.m_modes)
    if kappa.ndim:
        return alpha, beta, snr
    return float(alpha), float(beta), float(snr)


def snr_closed_pc(params: ScenarioParams) -> float:
    """Phase-conjugate receiver closed form at (mu, nu) = (PC_MU, PC_NU): the
    nearly-bound statistics with (mu/nu)^2 N_S of conjugation vacuum noise
    added to each hypothesis' variance."""
    extra = (PC_MU / PC_NU) ** 2 * params.n_s
    gap, var_on, var_off = _bound_moments(params, 0.0, 0.0)
    return _snr(gap, var_on + extra, var_off + extra, params.m_modes)


def snr_closed_opa(params: ScenarioParams) -> float:
    """Amplifier-receiver closed form at gain G = OPA_GAIN, as printed.

    The amplifier observable is sqrt(G (G-1)) times the family member
    z = (sqrt((G-1)/G), sqrt(G/(G-1)), 1), plus a constant.  The printed
    excess variance has G (4 N_S + 1) where the engine gives G (4 N_S + 2):
    that slip is the one extra term, -sqrt(G/(G-1)) C_on on the on-variance
    (C_off = 0), a small documented deviation from snr_generic (see tests).
    """
    g = OPA_GAIN
    beta = math.sqrt(g / (g - 1.0))
    gap, var_on, var_off = _bound_moments(params, math.sqrt((g - 1.0) / g), beta)
    slip = beta * _cross(params, params.kappa)
    return _snr(gap, var_on - slip, var_off, params.m_modes)


def snr_closed_dh(params: ScenarioParams) -> float:
    """Double-homodyne receiver closed form.

    Its observable is 1 minus the bound observable at alpha = beta = -1, and
    an affine map of the observable leaves the SNR unchanged.
    """
    return _bound_snr(params, -1.0, -1.0)


def snr_cct(params: ScenarioParams) -> float:
    """Cross-correlation receiver on the split-thermal probe.

    Constant noise reproduces 2 M kappa N_S N_I / (sqrt(4 kappa N_S N_I +
    kappa N_S + y) + sqrt(y))^2 with y = N_I + N_B (1 + 2 N_I); nonconstant
    noise substitutes the kappa-dependent occupancy in the on-hypothesis.
    """
    ns, ni, nb, kappa = params.n_s, params.n_i, params.n_b, params.kappa
    d = np.sqrt(kappa * ns * ni)
    b_on = _occupancy(params, kappa)
    y = ni + nb * (1.0 + 2.0 * ni)
    v_on = 2.0 * d * d + (2.0 * ni + 1.0) * b_on + ni
    return _snr(2.0 * d, v_on, y, params.m_modes)


def snr_coherent_hd(params: ScenarioParams) -> float:
    """Homodyne receiver on the coherent probe (quadrature mean shift)."""
    v_on = _received_noise(params, params.kappa) + 0.5
    v_off = params.n_b + 0.5
    gap = np.sqrt(2.0 * params.kappa * params.n_s)
    return _snr(gap, v_on, v_off, params.m_modes)
