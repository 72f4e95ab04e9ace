"""SNR catalog: closed forms vs the moment engine, optimizers, error probability."""

import math
import sys
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))

import oracles as orc
from gillum import (
    NoiseModel,
    OPA_GAIN,
    QuadraticObservable,
    ScenarioParams,
    coherent_qcb_closed,
    hypothesis_pair,
    make_cct,
    make_coherent,
    make_tmsv,
    obs_bound,
    obs_dh,
    obs_number_difference,
    obs_off,
    obs_opa,
    obs_pc,
    obs_quadrature,
    optimal_beta_closed,
    optimize_alpha_beta_nonconstant,
    p_err,
    qcb,
    qcb_sweep,
    snr_bound_constant,
    snr_bound_nonconstant,
    snr_cct,
    snr_closed_dh,
    snr_closed_opa,
    snr_closed_pc,
    snr_coherent_hd,
    snr_generic,
    snr_nearly_bound,
    transform_by_beam_splitter,
)
from gillum.figures import _HETERODYNE
from gillum.receivers import (PC_MU, PC_NU, _bound_moments, _gap, _gram, _idler_weight,
                             _path_search, _snr)

M = 10**7
HALF = 1 / math.sqrt(2)
NEARLY_BOUND = obs_bound(0.0, 0.0)
PC = obs_pc(PC_MU, PC_NU)  # mode 2 is the conjugator's vacuum input
OPA = obs_opa(OPA_GAIN)
# photon-number difference after the 50:50 recombiner, on the incoming modes
PNDM = transform_by_beam_splitter(obs_number_difference(), HALF, HALF, math.pi / 2)


def params_for(kappa=0.01, n_s=0.01, n_b=30.0, n_i=0.0, model=NoiseModel.CONSTANT):
    return ScenarioParams(kappa=kappa, n_s=n_s, n_b=n_b, n_i=n_i, m_modes=M,
                          noise_model=model)


GRID = [(k, ns, nb) for k in (1e-3, 0.01, 0.1) for ns in (1e-3, 0.1, 1.0, 10.0)
        for nb in (1.0, 30.0, 100.0)]


def test_nearly_bound_matches_engine_everywhere():
    for model in (NoiseModel.CONSTANT, NoiseModel.NONCONSTANT):
        for k, ns, nb in GRID:
            p = params_for(k, ns, nb, model=model)
            pair = hypothesis_pair(make_tmsv(p.n_s), p)
            closed = snr_nearly_bound(p)
            generic = snr_generic(NEARLY_BOUND, pair, M)
            assert abs(closed - generic) <= 1e-10 * max(1.0, generic)


def test_bound_constant_matches_engine():
    for k, ns, nb in GRID:
        p = params_for(k, ns, nb)
        beta = optimal_beta_closed(p)
        pair = hypothesis_pair(make_tmsv(p.n_s), p)
        closed = snr_bound_constant(p)
        generic = snr_generic(obs_bound(0.0, -beta), pair, M)
        assert abs(closed - generic) <= 1e-10 * max(1.0, generic)


def test_pc_dh_closed_match_engine_both_models():
    for model in (NoiseModel.CONSTANT, NoiseModel.NONCONSTANT):
        for k, ns, nb in GRID:
            p = params_for(k, ns, nb, model=model)
            pair = hypothesis_pair(make_tmsv(p.n_s), p)
            pc_c = snr_closed_pc(p)
            pc_g = snr_generic(PC, pair, M)
            assert abs(pc_c - pc_g) <= 1e-10 * max(1.0, pc_g)
            dh_c = snr_closed_dh(p)
            dh_g = snr_generic(obs_dh(), pair, M)
            assert abs(dh_c - dh_g) <= 1e-10 * max(1.0, dh_g)


def test_opa_closed_form_printed_vs_engine_discrepancy():
    # the printed excess-variance term carries G (4 N_S + 1); the engine
    # (and the corrected form with G (4 N_S + 2)) disagree with it slightly
    worst = 0.0
    for k, ns, nb in GRID:
        p = params_for(k, ns, nb)
        pair = hypothesis_pair(make_tmsv(p.n_s), p)
        printed = snr_closed_opa(p)
        generic = snr_generic(OPA, pair, M)
        corrected = orc_opa_corrected_snr(p)
        assert abs(corrected - generic) <= 1e-10 * max(1.0, generic)
        worst = max(worst, abs(printed - generic) / max(generic, 1e-300))
    assert worst > 1e-10  # the printed form genuinely deviates
    assert worst < 0.05   # but only at the percent level
    print(f"\n  printed amplifier closed form deviates from engine by up to "
          f"{worst:.3%} (documented coefficient slip)")


def orc_opa_corrected_snr(p: ScenarioParams) -> float:
    """Closed form with the symmetric G(4 N_S + 2) coefficient (derived)."""
    import math

    g, ns = OPA_GAIN, p.n_s

    def occ(kk):
        if p.noise_model is NoiseModel.CONSTANT:
            return kk * ns + p.n_b
        return kk * ns + (1 - kk) * p.n_b

    def cross(kk):
        return math.sqrt(kk * ns * (ns + 1))

    def dsq(kk):
        a, c = occ(kk), cross(kk)
        return (a + 1) * (ns + 1) + 2 * c * c + a * ns

    def q(kk):
        a, c = occ(kk), cross(kk)
        return ((g - 1) / g * a * (a + 1) + g / (g - 1) * ns * (ns + 1)
                + c / math.sqrt(g * (g - 1)) * ((g - 1) * (4 * a + 2)
                                                + g * (4 * ns + 2)) + 2 * c * c)

    shift = ns if p.noise_model is NoiseModel.CONSTANT else ns - p.n_b
    num = 2 * (cross(p.kappa) + math.sqrt((g - 1) / g) * p.kappa * shift / 2)
    var_on, var_off = dsq(p.kappa) + q(p.kappa), dsq(0) + q(0)
    return p.m_modes * num**2 / (2 * (math.sqrt(var_on) + math.sqrt(var_off)) ** 2)


def test_cct_matches_engine():
    for model in (NoiseModel.CONSTANT, NoiseModel.NONCONSTANT):
        for k, ns, nb in GRID:
            p = ScenarioParams(kappa=k, n_s=ns, n_i=2 * ns, n_b=nb, m_modes=M,
                               noise_model=model)
            pair = hypothesis_pair(make_cct(p.n_s, p.n_i), p)
            closed = snr_cct(p)
            generic = snr_generic(obs_off(), pair, M)
            assert abs(closed - generic) <= 1e-10 * max(1.0, generic)


def test_pndm_receiver_equals_cross_correlation_receiver():
    # number difference after the 50:50 recombiner is the same measurement
    # as the cross correlation on the incoming modes (up to sign)
    p = ScenarioParams(kappa=0.02, n_s=1.0, n_i=2.0, n_b=30.0, m_modes=M)
    pair = hypothesis_pair(make_cct(p.n_s, p.n_i), p)
    pndm = snr_generic(PNDM, pair, M)
    direct = snr_generic(obs_off(), pair, M)
    assert abs(pndm - direct) <= 1e-10 * direct


def test_coherent_hd_matches_engine():
    for model in (NoiseModel.CONSTANT, NoiseModel.NONCONSTANT):
        p = params_for(0.02, 0.5, 20.0, model=model)
        pair = hypothesis_pair(make_coherent(math.sqrt(p.n_s)), p)
        closed = snr_coherent_hd(p)
        generic = snr_generic(obs_quadrature(0, 0.0), pair, M)
        assert abs(closed - generic) <= 1e-12 * max(1.0, generic)


@pytest.mark.parametrize("probe,obs", [
    (orc.tmsv_probe, NEARLY_BOUND),
    (orc.tmsv_probe, PC),
    (orc.tmsv_probe, OPA),
    (orc.tmsv_probe, obs_dh()),
    (orc.tmsv_probe, _HETERODYNE["separate HTD"]),
    (orc.tmsv_probe, _HETERODYNE["dHTD after BS"]),
    (orc.tmsv_probe, _HETERODYNE["HD product"]),
    (orc.cct_probe, obs_off()),
    (orc.cct_probe, PNDM),
    (orc.coherent_probe, obs_quadrature(0, 0.0)),
], ids=["nearly_bound", "pc", "opa", "dh", "separate_htd", "double_htd", "hd_product",
        "cct_off", "pndm", "coherent_hd"])
def test_zero_reflectance_gives_zero_snr_and_even_odds(probe, obs):
    p = ScenarioParams(kappa=0.0, n_s=0.5, n_i=0.7, n_b=3.0, m_modes=M)
    pair = hypothesis_pair(probe(p), p)
    snr = snr_generic(obs, pair, M)
    assert snr < 1e-20
    assert p_err(snr) == 0.5


def test_bound_beta_zero_reduces_to_nearly_bound():
    p = params_for(0.01, 7.0)
    assert snr_bound_nonconstant(p, 0.0, -0.0) == snr_nearly_bound(p)


def test_nearly_bound_low_signal_asymptote():
    p = ScenarioParams(kappa=1e-3, n_s=1e-3, n_b=100.0, m_modes=M)
    ratio = snr_nearly_bound(p) / (M * p.kappa * p.n_s / (2 * p.n_b))
    assert 0.98 <= ratio <= 1.02


def test_optimal_beta_closed_form_is_the_maximizer():
    for ns in np.logspace(-2, 1, 7):
        p = params_for(0.01, float(ns))
        beta_closed = optimal_beta_closed(p)
        beta_num = orc.golden_max(
            lambda b: snr_bound_nonconstant(p, 0.0, -b), 0.0, 6.0, tol=1e-13)
        assert abs(beta_closed - beta_num) < 1e-6


def test_optimal_beta_large_signal_limit():
    p = params_for(0.01, 100.0)
    assert abs(optimal_beta_closed(p) - np.sqrt(0.01)) < 0.01 * np.sqrt(0.01)


def test_optimal_beta_decreases_toward_sqrt_kappa():
    betas = [optimal_beta_closed(params_for(0.01, float(ns)))
             for ns in np.logspace(-2, 1, 30)]
    assert all(b1 > b2 for b1, b2 in zip(betas, betas[1:]))
    assert betas[-1] > np.sqrt(0.01)


@pytest.mark.parametrize("kind,kwargs", [
    ("pc", dict(mu=1.0, nu=0.0)),  # mu^2 - nu^2 = 1, but nu = 0
    ("pc", dict(mu=2.0, nu=1.0)),
    ("opa", dict(gain=1.0)),
    ("opa", dict(gain=0.5)),
])
def test_bad_receiver_parameters_rejected_everywhere(kind, kwargs):
    # the closed forms take no parameters, so the observables hold the rule
    with pytest.raises(ValueError):
        {"pc": obs_pc, "opa": obs_opa}[kind](**kwargs)


def test_optimal_beta_singular_inputs():
    with pytest.raises(ValueError):
        optimal_beta_closed(params_for(0.0, 1.0))
    with pytest.raises(ValueError):
        optimal_beta_closed(params_for(0.01, 0.0))


def test_optimizer_stationary_and_better_than_closed_forms():
    p = params_for(0.01, 0.01, model=NoiseModel.NONCONSTANT)
    alpha, beta, snr = optimize_alpha_beta_nonconstant(p)
    # stationarity certified by the gradient at the returned weights, taken
    # in 50-digit arithmetic
    ga, gb = orc.bound_snr_gradient_mp(p, alpha, beta)
    assert max(abs(ga), abs(gb)) < 1e-8
    assert snr >= snr_nearly_bound(p)
    assert snr >= snr_closed_dh(p)


def test_optimizer_nonzero_snr_at_vanishing_signal():
    p = ScenarioParams(kappa=0.01, n_s=1e-6, n_b=30.0, m_modes=M,
                       noise_model=NoiseModel.NONCONSTANT)
    _, _, snr = optimize_alpha_beta_nonconstant(p)
    assert snr > 1.0  # the transmitted noise itself carries reflectance info


def test_optimizer_multistart_consistency():
    from scipy.optimize import minimize

    p = params_for(0.01, 0.01, model=NoiseModel.NONCONSTANT)
    _, _, snr = optimize_alpha_beta_nonconstant(p)
    for corner in ((-50.0, -50.0), (-50.0, 50.0), (50.0, -50.0), (50.0, 50.0)):
        # a bare local search from the corner never finds anything better
        res = minimize(lambda x: -snr_bound_nonconstant(p, x[0], x[1]),
                       corner, method="Nelder-Mead",
                       options={"xatol": 1e-13, "fatol": 1e-14,
                                "maxiter": 5000, "maxfev": 10000})
        assert -res.fun <= snr * (1 + 1e-9)


@pytest.mark.parametrize("lo,hi", [
    ((1e-3, 1e-2, 1.0), (0.1, 10.0, 100.0)),   # the presets' (kappa, N_S, N_B)
    ((1e-6, 1e-8, 1e-3), (1.0, 1e3, 1e3)),     # far outside the working point
])
def test_optimizer_reaches_multistart_oracle(lo, hi):
    starts = [(sa * s, sb * s) for s in (1.0, 1e3) for sa in (-1, 1) for sb in (-1, 1)]
    rng = np.random.default_rng(2024)
    for k, ns, nb in 10.0 ** rng.uniform(np.log10(lo), np.log10(hi), size=(7, 3)):
        p = params_for(k, ns, nb, model=NoiseModel.NONCONSTANT)
        snr = optimize_alpha_beta_nonconstant(p)[2]
        best = orc.nelder_mead_max(lambda a, b: snr_bound_nonconstant(p, a, b), starts)
        assert snr >= best * (1 - 1e-9), (k, ns, nb)


def test_optimizer_finds_optimum_outside_a_bounded_box():
    # the optimal weights grow like N_S^(-1/2); here they sit near -1.6e3
    p = params_for(0.1, 1e-8, model=NoiseModel.NONCONSTANT)
    alpha, beta, snr = optimize_alpha_beta_nonconstant(p)
    assert -1.7e3 < alpha < -1.5e3 and -1.7e3 < beta < -1.5e3
    ga, gb = orc.bound_snr_gradient_mp(p, alpha, beta)
    assert max(abs(ga * alpha), abs(gb * beta)) < 1e-10 * snr
    assert snr > snr_nearly_bound(p)


def test_optimizer_degenerate_inputs():
    # no target: every weight gives SNR 0, and the solver reports the origin
    alpha, beta, snr = optimize_alpha_beta_nonconstant(
        params_for(0.0, 0.5, model=NoiseModel.NONCONSTANT))
    assert (alpha, beta, snr, p_err(snr)) == (0.0, 0.0, 0.0, 0.5)
    # no signal: the SNR supremum lies at |alpha| -> infinity
    with pytest.raises(ValueError):
        optimize_alpha_beta_nonconstant(params_for(0.01, 0.0, model=NoiseModel.NONCONSTANT))


ZERO_VARIANCE = [
    (1.0, 0.025, 0.005), (1.0, 0.14, 0.03), (1.0, 1.0, 30.0),  # pure on-state
    (0.3, 2.0, 0.0), (1.0, 0.5, 0.0),                            # vacuum off-state
]


@pytest.mark.parametrize("kappa,ns,nb", ZERO_VARIANCE)
def test_optimizer_reaches_oracle_at_zero_variance_directions(kappa, ns, nb):
    # Here one hypothesis gives some weight direction zero variance, and the
    # optimum sits at the kink of its sqrt(Var).  Near Var = 0 a round-off
    # error e in Var moves sqrt(Var) by e / sqrt(Var), so neither the solver
    # nor the oracle can resolve the SNR beyond about 1e-6 relative: that is
    # the floor of this comparison, not a tolerance for the solver.
    p = params_for(kappa, ns, nb, model=NoiseModel.NONCONSTANT)
    starts = [(sa * s, sb * s) for s in (1.0, 1e3) for sa in (-1, 1) for sb in (-1, 1)]
    snr = optimize_alpha_beta_nonconstant(p)[2]
    best = orc.nelder_mead_max(lambda a, b: snr_bound_nonconstant(p, a, b), starts)
    assert snr >= best * (1 - 1e-6)


@pytest.mark.parametrize("n_b,kappa", [(30.0, 0.01), (100.0, 0.1), (1.0, 1e-3),
                                         (3.7, 0.042), (0.05, 0.5), (1e3, 0.9)])
def test_optimizer_sweep_rows_equal_point_calls_bit_for_bit(n_b, kappa):
    # fig3 searches its whole sweep as one stack; each row keeps the bits of
    # its own one-point call
    from gillum import SweepConfig

    sweep = SweepConfig(figure="fig3", kappa=kappa, n_b=n_b).params
    rows = optimize_alpha_beta_nonconstant(sweep)
    for k, ns in enumerate(sweep.n_s):
        point = optimize_alpha_beta_nonconstant(replace(sweep, n_s=float(ns)))
        assert point == tuple(float(r[k]) for r in rows), ns


def test_path_search_rows_equal_one_row_calls_at_zero_variance_directions():
    cases = [params_for(*case, model=NoiseModel.NONCONSTANT) for case in ZERO_VARIANCE]
    g_on, g_off, d = (np.array([np.array(f(p)) for p in cases])
                      for f in (lambda p: _gram(p, p.kappa), lambda p: _gram(p, 0.0), _gap))
    stacked = _path_search(g_on, g_off, d)
    for k in range(len(cases)):
        assert np.array_equal(stacked[k], _path_search(g_on[k:k + 1], g_off[k:k + 1],
                                                       d[k:k + 1])[0])
    # the two vacuum off-state cases as one sweep
    sweep = params_for(np.array([0.3, 1.0]), np.array([2.0, 0.5]), 0.0,
                       model=NoiseModel.NONCONSTANT)
    rows = optimize_alpha_beta_nonconstant(sweep)
    for k, p in enumerate(cases[3:]):
        assert optimize_alpha_beta_nonconstant(p) == tuple(float(r[k]) for r in rows)


def test_optimizer_sweep_with_no_target_rows():
    # kappa = 0 rows get (0, 0) and SNR 0, the others their own bits; N_S = 0
    # raises only where kappa > 0
    kappa, ns = np.array([0.0, 0.01, 0.0, 0.5]), np.array([0.1, 0.1, 0.0, 2.0])
    sweep = params_for(kappa, ns, model=NoiseModel.NONCONSTANT)
    rows = optimize_alpha_beta_nonconstant(sweep)
    for k in range(kappa.size):
        point = replace(sweep, kappa=float(kappa[k]), n_s=float(ns[k]))
        assert optimize_alpha_beta_nonconstant(point) == tuple(float(r[k]) for r in rows)
    assert all(np.array_equal(r[::2], [0.0, 0.0]) for r in rows)
    none = optimize_alpha_beta_nonconstant(
        params_for(0.0, np.array([0.1, 1.0]), model=NoiseModel.NONCONSTANT))
    assert all(np.array_equal(r, [0.0, 0.0]) for r in none)
    with pytest.raises(ValueError, match="n_s = 0"):
        optimize_alpha_beta_nonconstant(
            params_for(np.array([0.01, 0.01]), np.array([0.1, 0.0]),
                       model=NoiseModel.NONCONSTANT))


@pytest.mark.filterwarnings("error")
def test_path_search_where_sigma_is_0_or_1():
    # G_on and G_off with no common null direction: sigma is exactly 0, 1/2
    # or 1, so w = lam or 1 - lam on some components, and g is flat in lam
    # where every sigma is 0 or 1.  No warning may fire on the way.
    g_on = np.array([np.diag([1.0, 0.0, 1.0]), np.diag([1.0, 0.0, 0.0]),
                     np.diag([1.0, 0.0, 0.0])])
    g_off = np.array([np.diag([0.0, 1.0, 1.0]), np.diag([0.0, 1.0, 1.0]),
                      np.diag([0.0, 1.0, 1.0])])
    d = np.array([[1.0, 1.0, 1.0], [2.0, 1.0, 1.0], [1.0, 1.0, 1.0]])
    x = _path_search(g_on, g_off, d)
    # a sign change at lam = 1/2: x = ((G_on + G_off) / 2)^-1 d
    assert np.allclose(x[0], [2.0, 2.0, 1.0], rtol=1e-15, atol=0)
    # flat g > 0: the optimum is G_off's null direction (lam -> 0), flat
    # g < 0 G_on's (lam -> 1)
    eps = np.finfo(float).eps
    assert abs(x[1, 1]) <= eps * x[1, 0] and x[1, 1] == x[1, 2]
    assert abs(x[2, 0]) <= eps * x[2, 1] and x[2, 1] == x[2, 2]
    for k in range(3):
        assert np.array_equal(x[k], _path_search(g_on[k:k + 1], g_off[k:k + 1],
                                                 d[k:k + 1])[0])


@pytest.mark.filterwarnings("error")
def test_path_search_first_step_has_the_bits_of_the_loop_at_one_half():
    # sigma = 0, 1/4, 1/2, 3/4 or 1 and diagonal Grams, so every w is exactly
    # 1/2 at lam = 1/2 and the closed-form first step is the loop's own:
    # g(1/2) within round-off of 0 (row 0: on = off up to an ulp of one z^2),
    # every sigma 0 or 1 (row 1: g' = 0, bisection), a Newton step below the
    # bracket (row 2: g = 9.5, g' = 3) and one above it (row 3), and a row
    # that needs several steps (row 4)
    g_on = np.array([np.diag([1.0, 0.0, 0.5]), np.diag([1.0, 0.0, 0.0]),
                     np.diag([3.0, 0.75, 0.5]), np.diag([0.0, 0.25, 0.5]),
                     np.diag([0.25, 0.75, 1.0])])
    g_off = np.array([np.diag([0.0, 1.0, 0.5]), np.diag([0.0, 1.0, 1.0]),
                      np.diag([0.0, 0.25, 0.5]), np.diag([3.0, 0.75, 0.5]),
                      np.diag([0.75, 0.25, 1.0])])
    d = np.array([[1.0, 1.0 + 2.0 ** -52, 1.0], [2.0, 1.0, 1.0], [3.0 * math.sqrt(3.0), 1.0, 0.0],
                  [3.0 * math.sqrt(3.0), 1.0, 0.0], [0.3, 2.0, 1.0]])
    x = _path_search(g_on, g_off, d)
    assert x.tobytes() == orc.loop_path_search(g_on, g_off, d).tobytes()
    # the round-off collapse stops at lam = 1/2: x = ((G_on + G_off) / 2)^-1 d
    assert np.array_equal(x[0], 2.0 * d[0] / np.diag(g_on[0] + g_off[0]))
    for k in range(len(d)):
        assert np.array_equal(x[k], _path_search(g_on[k:k + 1], g_off[k:k + 1],
                                                 d[k:k + 1])[0])


def test_path_search_is_near_the_loop_at_one_half_where_w_rounds():
    # where 1 - sigma or 2 sigma - 1 rounds, the loop's w at lam = 1/2 is
    # 1/2 - 2^-54 and the closed-form first step can take another path to
    # the same sign change: on a wide draw the SNR moves by a few ulps at
    # most; fig3's sweeps keep every bit of the loop's outputs
    from gillum import SweepConfig, receivers

    rng = np.random.default_rng(7)
    kappa, ns, nb = (10.0 ** rng.uniform(lo, hi, 400) for lo, hi in ((-3, 0), (-3, 2), (-3, 2)))
    sweeps = [params_for(kappa, ns, nb, model=NoiseModel.NONCONSTANT)] + [
        SweepConfig(figure="fig3", n_b=n_b, kappa=kappa).params for n_b, kappa in
        ((30.0, 0.01), (100.0, 0.1), (1.0, 1e-3))]
    got = [optimize_alpha_beta_nonconstant(p) for p in sweeps]
    with mock.patch.object(receivers, "_path_search", orc.loop_path_search):
        want = [optimize_alpha_beta_nonconstant(p) for p in sweeps]
    assert np.all(np.abs(got[0][2] / want[0][2] - 1) <= 8 * np.finfo(float).eps)
    for g, w in zip(got[1:], want[1:]):
        assert np.array(g).tobytes() == np.array(w).tobytes()


def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda x: 10.0**x)


@settings(max_examples=60, deadline=None)
@given(kappa=_log_uniform(1e-6, 0.999), ns=_log_uniform(1e-6, 1e3),
       nb=_log_uniform(1e-3, 1e3))
def test_optimizer_stationary_over_wide_range(kappa, ns, nb):
    p = params_for(kappa, ns, nb, model=NoiseModel.NONCONSTANT)
    alpha, beta, snr = optimize_alpha_beta_nonconstant(p)
    ga, gb = orc.bound_snr_gradient_mp(p, alpha, beta)
    # The check's own resolution: every Gram entry is >= 0, so the variances
    # at (|alpha|, |beta|) are the sums of magnitudes that the variances at
    # (alpha, beta) cancel down from, and eps times their ratio is the
    # relative round-off of the variances the solver locates the optimum by.
    _, var_on, var_off = _bound_moments(p, alpha, beta)
    _, mag_on, mag_off = _bound_moments(p, abs(alpha), abs(beta))
    noise = np.finfo(float).eps * max(mag_on / var_on, mag_off / var_off)
    assert max(abs(ga * alpha), abs(gb * beta)) < (1e-9 + noise) * snr


def test_bound_nonconstant_matches_engine():
    rng = np.random.default_rng(8)
    for k, ns, nb in GRID:
        p = params_for(k, ns, nb, model=NoiseModel.NONCONSTANT)
        pair = hypothesis_pair(make_tmsv(p.n_s), p)
        weights = rng.uniform(-3.0, 3.0, size=(2, 3))
        batch = snr_bound_nonconstant(p, weights[0], weights[1])
        for (a, b), value in zip(weights.T, batch):
            generic = snr_generic(obs_bound(a, b), pair, M)
            assert abs(value - generic) <= 1e-9 * max(1.0, generic)
            assert abs(value - snr_bound_nonconstant(p, a, b)) <= 1e-14 * value


def test_dh_is_closest_receiver_under_nonconstant_low_signal():
    for ns in (1e-3, 3e-3, 8e-3):
        p = params_for(0.01, ns, model=NoiseModel.NONCONSTANT)
        bound = optimize_alpha_beta_nonconstant(p)[2]
        dh = snr_closed_dh(p)
        pc = snr_closed_pc(p)
        opa = snr_generic(OPA, hypothesis_pair(make_tmsv(p.n_s), p), M)
        assert bound - dh < bound - pc
        assert bound - dh < bound - opa


def test_pc_overlaps_bound_at_low_signal():
    p = params_for(0.01, 0.005)
    gap = 1 - snr_closed_pc(p) / snr_bound_constant(p)
    assert 0 <= gap < 0.02


def test_cct_asymptote():
    p = ScenarioParams(kappa=1e-3, n_s=1e-3, n_i=100.0, n_b=100.0, m_modes=M)
    ratio = snr_cct(p) / (M * p.kappa * p.n_s / (4 * p.n_b))
    assert 0.98 <= ratio <= 1.02


def test_cct_zero_idler_gives_zero():
    p = ScenarioParams(kappa=0.01, n_s=1.0, n_i=0.0, n_b=30.0, m_modes=M)
    assert snr_cct(p) == 0.0


def test_cct_monotone_in_idler_power():
    values = [snr_cct(ScenarioParams(kappa=0.01, n_s=1.0, n_i=float(ni),
                                     n_b=30.0, m_modes=M))
              for ni in np.linspace(0.1, 20, 25)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_p_err_endpoints_and_bound():
    assert p_err(0.0) == 0.5
    for bad in (-1e-300, float("nan")):
        with pytest.raises(ValueError):
            p_err(bad)
    for snr in (0.5, 2.0, 10.0, 100.0):
        assert p_err(snr) <= math.exp(-snr)
    assert abs(p_err(1.0) - 0.5 * orc.erfc_reference(1.0)) < 1e-15


def test_p_err_is_elementwise_over_a_sweep():
    # before: an array raised NumPy's ambiguous-truth-value error, though
    # every receiver returns an array of SNRs for a sweep
    snrs = np.array([0.0, 0.25, 1.0, 7.5, 40.0, 800.0])
    for grid in (snrs, snrs.reshape(2, 3), snrs[:1]):
        got = p_err(grid)
        assert isinstance(got, np.ndarray) and got.shape == grid.shape
        assert got.ravel().tolist() == [0.5 * math.erfc(math.sqrt(s)) for s in grid.ravel()]
    assert p_err(np.float64(2.0)) == p_err(np.array(2.0)) == 0.5 * math.erfc(math.sqrt(2.0))
    assert type(p_err(np.array(2.0))) is float and p_err(np.array([])).shape == (0,)
    for bad in (np.array([1.0, -1e-300]), np.array([[0.5], [float("nan")]])):
        with pytest.raises(ValueError, match="snr must be >= 0"):
            p_err(bad)


def test_p_err_matches_mpmath():
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        for z in np.linspace(0.05, 26.0, 400):
            snr = float(z) ** 2
            ref = mp.erfc(mp.mpf(math.sqrt(snr))) / 2
            assert abs((mp.mpf(p_err(snr)) - ref) / ref) <= 1e-15, snr


def test_erfc_reference_matches_scipy():
    from scipy.special import erfc

    for z in np.linspace(0.05, 12, 40):
        a, b = orc.erfc_reference(float(z)), float(erfc(z))
        assert abs(a - b) <= 1e-12 * max(b, 1e-300)


def test_p_err_strictly_decreasing():
    snrs = np.linspace(0, 300, 200)
    vals = [p_err(float(s)) for s in snrs]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert all(0 < v <= 0.5 for v in vals)


def test_receiver_dominance_grid():
    for model in (NoiseModel.CONSTANT, NoiseModel.NONCONSTANT):
        for k, ns, nb in GRID:
            p = params_for(k, ns, nb, model=model)
            pair = hypothesis_pair(make_tmsv(p.n_s), p)
            if model is NoiseModel.CONSTANT:
                bound = snr_bound_constant(p)
            else:
                bound = optimize_alpha_beta_nonconstant(p)[2]
            competitors = [
                snr_nearly_bound(p),
                snr_closed_pc(p),
                snr_generic(OPA, pair, M),
                snr_closed_dh(p),
            ]
            assert snr_nearly_bound(p) >= 0.0
            for other in competitors:
                assert bound >= other * (1 - 1e-9)


def test_snr_invariant_under_observable_rescaling():
    rng = np.random.RandomState(31)
    p = params_for(0.05, 0.8, 5.0)
    pair = hypothesis_pair(make_tmsv(p.n_s), p)
    base_obs = obs_bound(0.4, -0.2)
    base = snr_generic(base_obs, pair, M)
    for _ in range(5):
        a = float(rng.uniform(0.1, 5)) * (1 if rng.rand() < 0.5 else -1)
        b = float(rng.randn())
        moved = snr_generic(base_obs.affine(a, b), pair, M)
        assert abs(moved - base) <= 1e-10 * base


def test_snr_linear_in_mode_count():
    p = params_for(0.01, 1.0)
    pair = hypothesis_pair(make_tmsv(p.n_s), p)
    one = snr_generic(NEARLY_BOUND, pair, 1)
    many = snr_generic(NEARLY_BOUND, pair, 12345)
    assert abs(many - 12345 * one) <= 1e-9 * many


def test_report_internal_consistency():
    p = params_for(0.01, 7.0)
    gap, var_on, var_off = _bound_moments(p, 0.0, -optimal_beta_closed(p))
    recomputed = M * gap ** 2 / (2 * (np.sqrt(var_on) + np.sqrt(var_off)) ** 2)
    assert abs(snr_bound_constant(p) - recomputed) <= 1e-12 * recomputed


def test_double_heterodyne_after_recombiner_equals_separate_heterodyne():
    # the recombiner and the coincidence observable undo each other, so both
    # heterodyne routes measure the same statistic
    double, separate = _HETERODYNE["dHTD after BS"], _HETERODYNE["separate HTD"]
    for kappa in (1e-3, 0.01, 0.1):
        for nb in (1.0, 3.7, 30.0, 100.0):
            for ns in np.logspace(-2, 1, 7):
                pair = hypothesis_pair(make_tmsv(float(ns)), params_for(kappa, float(ns), nb))
                a = snr_generic(double, pair, M)
                b = snr_generic(separate, pair, M)
                assert abs(a - b) <= 1e-14 * b, (kappa, nb, ns)


AXIS = np.logspace(-2, 1, 50)


def _closed_forms(model):
    forms = [snr_nearly_bound, snr_closed_pc, snr_closed_opa, snr_closed_dh, snr_cct,
             snr_coherent_hd, lambda p: snr_bound_nonconstant(p, -0.3, 0.7)]
    if model is NoiseModel.CONSTANT:
        forms += [snr_bound_constant, optimal_beta_closed,
                  lambda p: coherent_qcb_closed(p).exponent]
    return forms


@pytest.mark.parametrize("model", list(NoiseModel))
@pytest.mark.parametrize("axis", ["n_s", "kappa", "n_i"])
def test_array_closed_forms_equal_per_point_calls(model, axis):
    base = dict(kappa=0.03, n_s=0.7, n_i=1.3, n_b=3.7, m_modes=M, noise_model=model)
    xs = AXIS / 10.0 if axis == "kappa" else AXIS
    if axis == "kappa" and model is NoiseModel.CONSTANT:
        # the axis ends at kappa = 1, where the constant-noise channel is undefined
        with pytest.raises(ValueError, match="undefined at kappa = 1"):
            ScenarioParams(**{**base, axis: xs})
        xs = xs[:-1]
    whole = ScenarioParams(**{**base, axis: xs})
    points = [ScenarioParams(**{**base, axis: float(x)}) for x in xs]
    for form in _closed_forms(model):
        got = form(whole)
        ref = np.array([form(p) for p in points])
        # only the split-thermal receiver reads n_i; the rest give one value
        assert np.shape(got) in (xs.shape, () if axis == "n_i" else xs.shape)
        assert np.broadcast_to(got, xs.shape).tobytes() == ref.tobytes()


def test_closed_form_powers_give_sweep_entries_the_bits_of_their_point_calls():
    # before: a sweep formed (N_S + 1) ** 3 in optimal_beta_closed and
    # (sqrt(N_B + 1) + sqrt(N_B)) ** 2 in coherent_qcb_closed as array
    # powers, a point as pow, which differ by an ulp at times: 4 of s1's 200
    # |beta| entries, 27 |beta| and 1 exponent of this draw's 1,500
    from gillum import SweepConfig

    rng = np.random.default_rng(5)
    n = 1500
    kappa = np.exp(rng.uniform(math.log(1e-4), math.log(0.9), n))
    n_s = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), n))
    n_b = np.where(rng.uniform(size=n) < 0.1, 0.0,
                   np.exp(rng.uniform(math.log(1e-3), math.log(1e3), n)))
    for whole in (SweepConfig("s1").params, params_for(kappa, n_s, n_b)):
        axes = np.broadcast_arrays(whole.kappa, whole.n_s, whole.n_b)
        points = [replace(whole, kappa=float(k), n_s=float(s), n_b=float(b))
                  for k, s, b in zip(*axes)]
        for form in (optimal_beta_closed, lambda p: coherent_qcb_closed(p).exponent):
            assert form(whole).tobytes() == np.array([form(p) for p in points]).tobytes()


N_B_AXIS = np.array([0.0, 0.5, 3.0, 30.0, 100.0])


@pytest.mark.parametrize("model", list(NoiseModel))
@pytest.mark.parametrize("beside", [None, "kappa", "n_s"])
def test_n_b_axis_entries_equal_their_per_point_calls(model, beside):
    # an n_b axis (N_B = 0 included), alone or across a kappa axis (kappa = 1
    # under nonconstant noise) or an N_S axis: every entry of each closed
    # form, of the optimizer, of both hypotheses and of qcb_sweep on single
    # and stacked probes has the bytes of its per-point call
    top = 1.0 if model is NoiseModel.NONCONSTANT else 0.9
    fields = dict(kappa=0.02, n_s=0.4, n_i=1.3, n_b=N_B_AXIS, m_modes=M, noise_model=model)
    if beside is not None:
        fields["n_b"] = N_B_AXIS[:, None]
        fields[beside] = {"kappa": np.array([1e-3, 0.05, 0.3, top]),
                          "n_s": np.array([0.01, 0.4, 3.0, 50.0])}[beside]
    whole = ScenarioParams(**fields)
    axes = {name: fields[name] for name in ("kappa", "n_s", "n_b")}
    shape = np.broadcast_shapes(*(np.shape(v) for v in axes.values()))
    indices = list(np.ndindex(shape))
    points = [replace(whole, **{name: float(np.broadcast_to(v, shape)[i])
                                for name, v in axes.items()}) for i in indices]
    for form in _closed_forms(model):
        got = np.broadcast_to(form(whole), shape)
        assert [got[i].tobytes() for i in indices] == [
            np.float64(form(p)).tobytes() for p in points]
    if model is NoiseModel.NONCONSTANT:
        rows = optimize_alpha_beta_nonconstant(whole)
        for p, i in zip(points, indices):
            assert (np.array(optimize_alpha_beta_nonconstant(p)).tobytes()
                    == np.array([r[i] for r in rows]).tobytes())
    stacked = np.linspace(0.05, 2.0, len(indices)).reshape(shape)
    for make in (make_tmsv, lambda n: make_cct(n, 2.0 * n + 0.1),
                 lambda n: make_coherent(np.sqrt(n) * np.exp(1j * n))):
        for n in (0.4, stacked):
            pair = hypothesis_pair(make(n), whole)  # the channel does not read n_s
            lead = pair.on.mean_q.ndim - 1
            states = [np.broadcast_to(a, shape + a.shape[lead:])
                      for a in (pair.on.mean_q, pair.on.cov_n, pair.off.mean_q, pair.off.cov_n)]
            bound = qcb_sweep(pair, M)
            s_star, exponent = (np.broadcast_to(a, shape) for a in (bound.s_star, bound.exponent))
            for p, i in zip(points, indices):
                ref = hypothesis_pair(make(np.broadcast_to(n, shape)[i]), p)
                want = (ref.on.mean_q, ref.on.cov_n, ref.off.mean_q, ref.off.cov_n)
                assert [a[i].tobytes() for a in states] == [a.tobytes() for a in want]
                point = qcb(ref, M)
                assert (np.array([s_star[i], exponent[i]]).tobytes()
                        == np.array([point.s_star, point.exponent]).tobytes())


def test_bound_constant_zero_signal_rule_is_elementwise():
    ns = np.concatenate([[0.0], AXIS[1:]])
    whole = snr_bound_constant(params_for(0.01, ns))
    # the SNR is stationary in the idler weight, so check the weight itself
    weights = _idler_weight(params_for(0.01, ns))
    for k, x in enumerate(ns):
        point = snr_bound_constant(params_for(0.01, float(x)))
        assert abs(whole[k] - point) <= 4 * np.finfo(float).eps * point
        want = optimal_beta_closed(params_for(0.01, float(x))) if x > 0 else 0.0
        assert abs(weights[k] - want) <= 4 * np.finfo(float).eps * want
    assert whole[0] == 0.0 and p_err(whole[0]) == 0.5
    with pytest.raises(ValueError):
        optimal_beta_closed(params_for(0.01, ns))


def test_bound_receivers_refuse_the_other_noise_model():
    p = ScenarioParams(kappa=0.05, n_s=0.1, n_b=2.0)
    with pytest.raises(ValueError, match="snr_bound_constant requires the constant noise model"):
        snr_bound_constant(replace(p, noise_model=NoiseModel.NONCONSTANT))
    with pytest.raises(ValueError, match="optimizer applies to the nonconstant noise model"):
        optimize_alpha_beta_nonconstant(p)


def test_optimal_beta_closed_refuses_nonconstant_noise():
    # before: it returned the constant-noise formula's weight for any model
    p = ScenarioParams(kappa=0.05, n_s=0.1, n_b=2.0, noise_model=NoiseModel.NONCONSTANT)
    for params in (p, replace(p, n_s=np.array([0.1, 1.0]))):
        with pytest.raises(ValueError,
                           match="optimal_beta_closed requires the constant noise model"):
            optimal_beta_closed(params)


def test_zero_noise_snr_is_zero_without_a_gap_and_inf_with_one():
    zero = ScenarioParams(kappa=0.5, n_s=0.0, n_i=0.0, n_b=0.0)
    assert snr_cct(zero) == 0.0
    pair = hypothesis_pair(make_tmsv(0.3), ScenarioParams(kappa=0.05, n_s=0.3, n_b=2.0))
    assert snr_generic(QuadraticObservable(1.0, np.zeros((4, 4)), np.zeros(4)), pair, M) == 0.0
    assert _snr(1.0, 0.0, 0.0, 1) == math.inf
    assert _snr(np.array([0.0, 2.0]), 0.0, np.array([0.0, 1.0]), 1).tolist() == [0.0, 2.0]


@pytest.mark.parametrize("m_modes", [-5, 0, 0.5, math.nan, math.inf])
def test_snr_generic_refuses_an_m_that_is_not_a_whole_number(m_modes):
    # before: snr_generic(obs_off(), pair, -3) returned a negative SNR
    pair = hypothesis_pair(make_cct(1.0, 1.0), ScenarioParams(kappa=0.01, n_s=1.0, n_i=1.0,
                                                              n_b=30.0))
    with pytest.raises(ValueError, match="m_modes must be a whole number >= 1"):
        snr_generic(obs_off(), pair, m_modes)
