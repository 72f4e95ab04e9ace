"""Receiver signal-to-noise ratios, decision thresholds and error probabilities.

For M independent mode pairs the detection statistic is the summed outcome of
a mode-by-mode measurement of an observable O, Gaussian for large M, and the
discrimination error is minimized at

    SNR = M (<O>_on - <O>_off)^2 / (2 (sqrt(Var_on) + sqrt(Var_off))^2),
    P_err = erfc(sqrt(SNR)) / 2.

This module evaluates any receiver through the generic observable engine and
provides the closed-form expressions for the standard receivers, the optimal
idler weight for constant noise, and the two-parameter optimization needed
under nonconstant noise.

The bound observable O = S + alpha n_S + beta n_I (S the squeeze correlation)
has one moment polynomial, ``_bound_moments``.  Its variance on either
hypothesis is z^T Re<dA dA^T> z with z = (alpha, beta, 1) and
A = (n_S, n_I, S): the real part of a Gram matrix, so a positive-semidefinite
quadratic form.  sqrt(Var_on) + sqrt(Var_off) is then a sum of norms of
affine maps of (alpha, beta), hence convex, while the mean gap
<O>_on - <O>_off is affine.  On each side of the line where the gap
vanishes, sqrt(SNR) is a nonnegative affine function over a positive convex
one: quasi-concave, indeed pseudo-concave, so every stationary point there is
the global maximum of that side.  A monotone ascent therefore finds the
optimum without a grid search.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .channels import HypothesisPair, NoiseModel, ScenarioParams
from .observables import (
    HeterodyneVariant,
    heterodyne_degrade,
    obs_bound,
    obs_dh,
    obs_hd_product,
    obs_number_difference,
    obs_off,
    obs_opa,
    obs_pc,
    obs_quadrature,
    obs_squeeze_difference,
    stats,
    transform_by_beam_splitter,
)
from .states import apply_beam_splitter, make_vacuum, tensor

DEFAULT_PC_MU = math.sqrt(2.0)
DEFAULT_PC_NU = 1.0
DEFAULT_OPA_GAIN = 1.0 + 7.4e-5  # implementable amplifier gain


@dataclass(frozen=True)
class SnrReport:
    """Per-mode on/off statistics with the M-mode SNR and error probability."""

    mean_on: float
    mean_off: float
    var_on: float
    var_off: float
    m_modes: float
    snr: float
    threshold: float
    p_err: float


class ReceiverKind(enum.Enum):
    BOUND = "bound"
    NEARLY_BOUND = "nearly_bound"
    PC = "pc"
    OPA = "opa"
    DH = "dh"
    PNDM = "pndm"
    COHERENT_HD = "coherent_hd"
    CCT_OFF = "cct_off"
    COHERENT_OFF = "cct_off"  # the same cross-correlation readout on a coherent pair
    SEPARATE_HTD = "separate_htd"
    DOUBLE_HTD = "double_htd"
    HD_PRODUCT = "hd_product"


@dataclass(frozen=True)
class ReceiverSpec:
    """A receiver kind plus its kind-specific real parameters."""

    kind: ReceiverKind
    alpha: float = 0.0
    beta: float = 0.0
    mu: float = DEFAULT_PC_MU
    nu: float = DEFAULT_PC_NU
    gain: float = DEFAULT_OPA_GAIN
    theta: float = 0.0
    phi: float = 0.0

    def __post_init__(self):
        if self.kind is ReceiverKind.PC and abs(self.mu**2 - self.nu**2 - 1.0) > 1e-9:
            raise ValueError("phase-conjugate receiver requires mu^2 - nu^2 = 1")
        if self.kind is ReceiverKind.OPA and self.gain <= 1.0:
            raise ValueError("amplifier gain must exceed 1")

    @classmethod
    def bound(cls, alpha: float, beta: float) -> "ReceiverSpec":
        return cls(ReceiverKind.BOUND, alpha=alpha, beta=beta)


def threshold(mean_on: float, mean_off: float, var_on: float, var_off: float,
              m_modes: float) -> float:
    """Decision threshold that equalizes the two error-term arguments.

    Weighted between the scaled hypothesis means by the standard deviations;
    equal variances give the midpoint.
    """
    s_on = math.sqrt(max(var_on, 0.0))
    s_off = math.sqrt(max(var_off, 0.0))
    if s_on + s_off == 0.0:
        return 0.5 * m_modes * (mean_on + mean_off)
    return m_modes * (mean_off * s_on + mean_on * s_off) / (s_on + s_off)


def p_err(snr: float) -> float:
    """Minimum discrimination error erfc(sqrt(SNR))/2.

    Decreases from 1/2 at SNR = 0; underflows to 0 for SNR beyond roughly
    7e2, where only :func:`p_err_exponential_bound` remains informative.
    """
    if snr < 0:
        raise ValueError("snr must be >= 0")
    return 0.5 * math.erfc(math.sqrt(snr))


def p_err_exponential_bound(snr: float) -> float:
    """Upper bound exp(-SNR) on the minimum error probability."""
    return math.exp(-snr)


def make_report(mean_on: float, mean_off: float, var_on: float, var_off: float,
                m_modes: float) -> SnrReport:
    """Assemble an SnrReport from per-mode statistics."""
    return _report(mean_on, mean_off, mean_on - mean_off, var_on, var_off, m_modes)


def _report(mean_on: float, mean_off: float, gap: float, var_on: float,
            var_off: float, m_modes: float) -> SnrReport:
    """make_report with the SNR taken from ``gap`` = mean_on - mean_off,
    for callers that form the gap without cancellation."""
    s_on = math.sqrt(max(var_on, 0.0))
    s_off = math.sqrt(max(var_off, 0.0))
    denom = 2.0 * (s_on + s_off) ** 2
    snr = m_modes * gap * gap / denom if denom > 0 else (
        0.0 if gap == 0 else math.inf)
    return SnrReport(
        mean_on=mean_on, mean_off=mean_off, var_on=var_on, var_off=var_off,
        m_modes=m_modes, snr=snr,
        threshold=threshold(mean_on, mean_off, var_on, var_off, m_modes),
        p_err=p_err(snr) if math.isfinite(snr) else 0.0,
    )


_HALF = 1 / math.sqrt(2)  # amplitude of the 50:50 signal-idler recombiner


# kind -> (observable from (spec, mode count), state preparation applied to
# each hypothesis or None, heterodyne readout variant or None)
_RECEIVERS = {
    ReceiverKind.BOUND: (lambda s, n: obs_bound(s.alpha, s.beta), None, None),
    ReceiverKind.NEARLY_BOUND: (lambda s, n: obs_bound(0.0, 0.0), None, None),
    # the conjugator's vacuum input is an explicit third mode
    ReceiverKind.PC: (lambda s, n: obs_pc(s.mu, s.nu),
                      lambda state: tensor(state, make_vacuum(1)), None),
    ReceiverKind.OPA: (lambda s, n: obs_opa(s.gain), None, None),
    ReceiverKind.DH: (lambda s, n: obs_dh(), None, None),
    # photon-number difference after the recombiner, referred back to the
    # (signal, idler) modes
    ReceiverKind.PNDM: (lambda s, n: transform_by_beam_splitter(
        obs_number_difference(), t=_HALF, r=_HALF, phase=math.pi / 2), None, None),
    ReceiverKind.COHERENT_HD: (lambda s, n: obs_quadrature(0, s.theta, n), None, None),
    ReceiverKind.CCT_OFF: (lambda s, n: obs_off(), None, None),
    ReceiverKind.HD_PRODUCT: (lambda s, n: obs_hd_product(s.theta, s.phi), None, None),
    ReceiverKind.SEPARATE_HTD: (lambda s, n: obs_bound(0.0, 0.0), None,
                                HeterodyneVariant.SEPARATE_HTD_QI),
    # the squared-quadrature coincidence observable on the recombined outputs
    ReceiverKind.DOUBLE_HTD: (
        lambda s, n: obs_squeeze_difference(),
        lambda state: apply_beam_splitter(state, 0, 1, _HALF, _HALF, phase=math.pi / 2),
        HeterodyneVariant.DOUBLE_HTD_AFTER_BS),
}


def snr_generic(spec: ReceiverSpec, pair: HypothesisPair, m_modes: float) -> SnrReport:
    """Evaluate any receiver on a hypothesis pair through the moment engine."""
    make_obs, prepare, variant = _RECEIVERS[spec.kind]
    obs = make_obs(spec, pair.on.n_modes)
    results = []
    for state in (pair.on, pair.off):
        if prepare is not None:
            state = prepare(state)
        st = stats(obs, state)
        results.append(st if variant is None else heterodyne_degrade(st, variant, state))
    on, off = results
    return make_report(on.mean, off.mean, on.variance, off.variance, m_modes)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def _occupancy(params: ScenarioParams, kappa: float) -> float:
    """Signal-mode thermal-plus-reflection occupancy after the channel."""
    if params.noise_model is NoiseModel.CONSTANT:
        return kappa * params.n_s + params.n_b
    return kappa * params.n_s + (1.0 - kappa) * params.n_b


def _cross(params: ScenarioParams, kappa: float) -> float:
    return math.sqrt(kappa * params.n_s * (params.n_s + 1.0))


def _numerator_shift(params: ScenarioParams) -> float:
    """Occupancy gain on - off: kappa N_S (constant) or kappa (N_S - N_B)."""
    if params.noise_model is NoiseModel.CONSTANT:
        return params.kappa * params.n_s
    return params.kappa * (params.n_s - params.n_b)


def _squeeze_variance(params: ScenarioParams, kappa: float) -> float:
    """Variance of the bare squeeze-correlation observable after the channel."""
    a = _occupancy(params, kappa)
    c = _cross(params, kappa)
    ns = params.n_s
    return (a + 1.0) * (ns + 1.0) + 2.0 * c * c + a * ns


def _bound_moments(params: ScenarioParams, alpha, beta):
    """Bound-observable statistics (mean_off, mean_on - mean_off, var_on, var_off).

    Each hypothesis adds to the squeeze-correlation variance the weight
    polynomial alpha^2 b (b+1) + beta^2 N_S (N_S+1) + 2 alpha c (2b+1)
    + 2 beta c (2 N_S+1) + 2 alpha beta c^2 in its occupancy b and
    signal-idler correlation c (zero without target).  The mean gap
    2c + alpha (b_on - b_off) is formed directly, so it keeps its digits when
    the means are large.  Accepts arrays and complex weights.
    """
    ns = params.n_s
    variances = []
    for kappa in (params.kappa, 0.0):
        b = _occupancy(params, kappa)
        c = _cross(params, kappa)
        variances.append(_squeeze_variance(params, kappa) + (
            alpha * alpha * b * (b + 1.0) + beta * beta * ns * (ns + 1.0)
            + 2.0 * alpha * c * (2.0 * b + 1.0) + 2.0 * beta * c * (2.0 * ns + 1.0)
            + 2.0 * alpha * beta * c * c))
    mean_off = alpha * _occupancy(params, 0.0) + beta * ns
    gap = 2.0 * _cross(params, params.kappa) + alpha * _numerator_shift(params)
    return mean_off, gap, variances[0], variances[1]


def _bound_report(params: ScenarioParams, alpha: float, beta: float) -> SnrReport:
    mean_off, gap, var_on, var_off = _bound_moments(params, alpha, beta)
    return _report(mean_off + gap, mean_off, gap, var_on, var_off, params.m_modes)


def snr_nearly_bound(params: ScenarioParams) -> SnrReport:
    """SNR of the bare squeeze-correlation observable (alpha = beta = 0)."""
    return _bound_report(params, 0.0, 0.0)


def optimal_beta_closed(params: ScenarioParams) -> float:
    """Optimal idler-number weight |beta| for the constant-noise bound receiver.

    |beta| = (1 + 2 N_S)/sqrt(kappa N_S (N_S+1)^3) [f - sqrt(f (f - kappa (N_S+1)))],
    f = 1 + N_S + N_B + 2 N_S N_B; converges to sqrt(kappa) for large N_S.
    Singular at kappa N_S = 0, where callers fall back to beta = 0.
    """
    ns, nb, kappa = params.n_s, params.n_b, params.kappa
    if kappa * ns <= 0.0:
        raise ValueError("optimal beta is singular at kappa * n_s = 0")
    f = 1.0 + ns + nb + 2.0 * ns * nb
    return (1.0 + 2.0 * ns) / math.sqrt(kappa * ns * (ns + 1.0) ** 3) * (
        f - math.sqrt(f * (f - kappa * (ns + 1.0))))


def snr_bound_constant(params: ScenarioParams, beta: float | None = None) -> SnrReport:
    """Bound-receiver SNR under constant noise.

    Uses the closed-form optimal |beta| when ``beta`` is omitted (0 in the
    degenerate kappa n_s = 0 case).  The report's means carry the signed
    idler weight -|beta|.
    """
    if params.noise_model is not NoiseModel.CONSTANT:
        raise ValueError("snr_bound_constant requires the constant noise model")
    if beta is None:
        beta_abs = 0.0 if params.kappa * params.n_s == 0 else optimal_beta_closed(params)
    else:
        beta_abs = abs(beta)
    return _bound_report(params, 0.0, -beta_abs)


def snr_bound_nonconstant(params: ScenarioParams, alpha, beta):
    """Bound-receiver SNR at explicit (alpha, beta), meant for nonconstant noise.

    Evaluates M [2C - alpha kappa (N_B - N_S)]^2 / (2 [sqrt(V_on) + sqrt(V_off)]^2)
    with the exact observable variances (under constant noise the gap is
    2C + alpha kappa N_S).  Accepts arrays, and complex arguments so that
    derivatives can be taken by complex steps.
    """
    _, gap, var_on, var_off = _bound_moments(params, alpha, beta)
    root = np.sqrt(var_on + 0j) + np.sqrt(var_off + 0j)
    val = params.m_modes * gap * gap / (2.0 * root * root)
    if np.iscomplexobj(alpha) or np.iscomplexobj(beta):
        return val
    return val.real if np.ndim(val) else float(val.real)


_COMPLEX_STEP = 1e-200
_EPS = float(np.finfo(float).eps)
_ARMIJO = 1e-4
_MAX_NEWTON = 50


def _log_snr_derivatives(params: ScenarioParams, x: np.ndarray):
    """log SNR, its gradient and its Hessian in (alpha, beta) at ``x``.

    One vectorized call takes complex steps along both weights at x and at
    x + delta e_k; their imaginary parts are the exact SNR gradients there.
    The Hessian is the symmetrized forward difference of log-SNR gradients.
    """
    delta = 1e-7 * (1.0 + np.abs(x))
    base = np.array([x, x + (delta[0], 0.0), x + (0.0, delta[1])])
    pts = np.repeat(base, 2, axis=0) + 1j * _COMPLEX_STEP * np.tile(np.eye(2), (3, 1))
    vals = snr_bound_nonconstant(params, pts[:, 0], pts[:, 1]).reshape(3, 2)
    snr = vals[:, 0].real
    grads = vals.imag / _COMPLEX_STEP / snr[:, None]
    hess = (grads[1:] - grads[0]) / delta[:, None]
    return math.log(snr[0]), grads[0], 0.5 * (hess + hess.T)


def optimize_alpha_beta_nonconstant(params: ScenarioParams):
    """Maximize the nonconstant-noise bound-receiver SNR over (alpha, beta).

    Damped Newton on log SNR from alpha = beta = -c (2 N_S + 1) / (2 N_S
    (N_S + 1)), c = sqrt(kappa N_S (N_S + 1)): gradients by complex step
    (Squire & Trapp, SIAM Rev. 40, 110 (1998)) through
    ``snr_bound_nonconstant``; the Hessian from their forward differences,
    shifted to negative definite wherever log SNR is not concave; Armijo
    backtracking; a stop once the step or the gain falls to round-off.  The
    mean gap 2c + alpha kappa (N_S - N_B) is positive at the seed for every
    kappa in (0, 1], and on that side sqrt(SNR) is pseudo-concave (see the
    module docstring), so the stationary point reached is its global
    maximum.  The negative-gap side approaches but has not exceeded it on any
    parameter set checked.

    kappa = 0 carries no signal and returns (0, 0) with SNR 0.  N_S = 0
    raises ValueError: the supremum there lies at |alpha| -> infinity.
    Returns (alpha, beta, SnrReport).
    """
    if params.noise_model is not NoiseModel.NONCONSTANT:
        raise ValueError("optimizer applies to the nonconstant noise model")
    ns = params.n_s
    if params.kappa == 0.0:
        return 0.0, 0.0, _bound_report(params, 0.0, 0.0)
    if ns == 0.0:
        raise ValueError("optimal weights are singular at n_s = 0: "
                         "the SNR supremum lies at |alpha| -> infinity")
    c = _cross(params, params.kappa)
    x = np.full(2, -c * (2.0 * ns + 1.0) / (2.0 * ns * (ns + 1.0)))
    for _ in range(_MAX_NEWTON):
        f, grad, hess = _log_snr_derivatives(params, x)
        if not np.any(grad):
            break
        top = np.linalg.eigvalsh(hess)[-1]
        if top >= 0.0:
            # not concave here: shift the spectrum below zero, by enough to
            # keep the step within the scale of the current point
            shift = top + np.linalg.norm(grad) / (1.0 + np.linalg.norm(x))
            hess = hess - shift * np.eye(2)
        step = np.linalg.solve(hess, -grad)
        slope = grad @ step
        roundoff = 16.0 * _EPS * (1.0 + abs(f))
        t = 1.0
        while t * np.linalg.norm(step) > _EPS * np.linalg.norm(x):
            trial = x + t * step
            snr = snr_bound_nonconstant(params, trial[0], trial[1])
            gain = math.log(snr) - f if snr > 0.0 else -math.inf
            if gain >= _ARMIJO * t * slope - roundoff:
                break
            t *= 0.5
        else:
            break  # the step fell to round-off
        x = trial
        if gain <= roundoff:
            break
    alpha, beta = float(x[0]), float(x[1])
    return alpha, beta, _bound_report(params, alpha, beta)


def snr_closed_pc(params: ScenarioParams, mu: float = DEFAULT_PC_MU,
                  nu: float = DEFAULT_PC_NU) -> SnrReport:
    """Phase-conjugate receiver closed form: the squeeze-correlation variance
    plus (mu/nu)^2 N_S of conjugation vacuum noise on each hypothesis."""
    if abs(mu * mu - nu * nu - 1.0) > 1e-9:
        raise ValueError("phase-conjugate receiver requires mu^2 - nu^2 = 1")
    extra = (mu / nu) ** 2 * params.n_s
    c = _cross(params, params.kappa)
    v_on = _squeeze_variance(params, params.kappa) + extra
    v_off = _squeeze_variance(params, 0.0) + extra
    return make_report(2.0 * c, 0.0, v_on, v_off, params.m_modes)


def snr_closed_opa(params: ScenarioParams, gain: float = DEFAULT_OPA_GAIN) -> SnrReport:
    """Amplifier-receiver closed form, in squeeze-normalized units.

    The printed excess-variance term q contains G (4 N_S + 1); the moment
    engine yields G (4 N_S + 2), so this form deviates from snr_generic by a
    small documented amount (see tests).
    """
    if gain <= 1.0:
        raise ValueError("amplifier gain must exceed 1")
    g = gain
    ns = params.n_s

    def q(kappa: float) -> float:
        a = _occupancy(params, kappa)
        c = _cross(params, kappa)
        return ((g - 1.0) / g * a * (a + 1.0) + g / (g - 1.0) * ns * (ns + 1.0)
                + c / math.sqrt(g * (g - 1.0)) * ((g - 1.0) * (4.0 * a + 2.0)
                                                  + g * (4.0 * ns + 1.0))
                + 2.0 * c * c)

    c = _cross(params, params.kappa)
    half_shift = math.sqrt((g - 1.0) / g) * 0.5 * _numerator_shift(params)
    v_on = _squeeze_variance(params, params.kappa) + q(params.kappa)
    v_off = _squeeze_variance(params, 0.0) + q(0.0)
    return make_report(2.0 * (c + half_shift), 0.0, v_on, v_off, params.m_modes)


def snr_closed_dh(params: ScenarioParams) -> SnrReport:
    """Double-homodyne receiver closed form.

    Its observable is 1 minus the bound observable at alpha = beta = -1, so
    it has the same variances and the opposite mean gap.
    """
    _, gap, var_on, var_off = _bound_moments(params, -1.0, -1.0)
    return make_report(0.0, gap, var_on, var_off, params.m_modes)


def snr_cct(params: ScenarioParams) -> SnrReport:
    """Cross-correlation receiver on the split-thermal probe.

    Constant noise reproduces 2 M kappa N_S N_I / (sqrt(4 kappa N_S N_I +
    kappa N_S + y) + sqrt(y))^2 with y = N_I + N_B (1 + 2 N_I); nonconstant
    noise substitutes the kappa-dependent occupancy in the on-hypothesis.
    """
    ns, ni, nb, kappa = params.n_s, params.n_i, params.n_b, params.kappa
    d = math.sqrt(kappa * ns * ni)
    b_on = _occupancy(params, kappa)
    y = ni + nb * (1.0 + 2.0 * ni)
    v_on = 2.0 * d * d + (2.0 * ni + 1.0) * b_on + ni
    return make_report(2.0 * d, 0.0, v_on, y, params.m_modes)


def snr_coherent_off(params: ScenarioParams) -> SnrReport:
    """Cross-correlation receiver on the split-coherent probe.

    Drops the 4 kappa N_S N_I self-noise of the thermal probe from the
    on-hypothesis variance.
    """
    ns, ni, nb, kappa = params.n_s, params.n_i, params.n_b, params.kappa
    d = math.sqrt(kappa * ns * ni)
    therm_on = _occupancy(params, kappa) - kappa * ns  # coherent probe: mean only
    y = ni + nb * (1.0 + 2.0 * ni)
    v_on = (2.0 * therm_on + 1.0) * ni + kappa * ns + therm_on
    return make_report(2.0 * d, 0.0, v_on, y, params.m_modes)


def snr_coherent_hd(params: ScenarioParams) -> SnrReport:
    """Homodyne receiver on the coherent probe (quadrature mean shift)."""
    kappa, ns = params.kappa, params.n_s
    therm_on = _occupancy(params, kappa) - kappa * ns
    v_on = therm_on + 0.5
    v_off = params.n_b + 0.5
    return make_report(math.sqrt(2.0 * kappa * ns), 0.0, v_on, v_off, params.m_modes)
