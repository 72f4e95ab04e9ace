"""Williamson decomposition and quantum Chernoff bounds vs analytic oracles."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles as orc

from gillum import (
    HypothesisPair,
    NoiseModel,
    ScenarioParams,
    SourceKind,
    coherent_qcb_closed,
    hypothesis_pair,
    make_coherent,
    make_thermal,
    make_tmsv,
    make_vacuum,
    qcb,
    snr_cct,
    symplectic_form,
    tensor,
    to_quadrature,
    williamson,
)
from gillum.chernoff import _S_EDGE, _PairData


def test_williamson_thermal():
    nu, s = williamson(to_quadrature(make_thermal(2.0)))
    assert np.allclose(nu, [2.5], atol=1e-12)
    assert np.allclose(s @ s.T * 2.5, to_quadrature(make_thermal(2.0)).cov_q)


def test_williamson_tmsv_pure():
    nu, _ = williamson(to_quadrature(make_tmsv(0.8)))
    assert np.allclose(nu, [0.5, 0.5], atol=1e-10)


def test_williamson_reconstruction_and_symplecticity():
    params = ScenarioParams(kappa=0.05, n_s=0.7, n_b=4.0)
    q = to_quadrature(hypothesis_pair(SourceKind.TMSV, params).on)
    nu, s = williamson(q)
    recon = s @ np.diag(np.repeat(nu, 2)) @ s.T
    assert np.max(np.abs(recon - q.cov_q)) < 1e-9
    omega = symplectic_form(2)
    assert np.max(np.abs(s @ omega @ s.T - omega)) < 1e-9
    assert np.all(nu >= 0.5 - 1e-9)


def test_identical_states_overlap_one():
    pair = HypothesisPair(on=make_coherent(0.4 + 0.1j), off=make_coherent(0.4 + 0.1j))
    res = qcb(pair, 7)
    assert res.q_value == 1.0
    assert res.p_err_bound == 0.5
    assert res.exponent == 0.0


def test_pure_coherent_overlap_exponent():
    rng = np.random.RandomState(2)
    for _ in range(4):
        a = complex(rng.randn(), rng.randn()) * 0.5
        b = complex(rng.randn(), rng.randn()) * 0.5
        res = qcb(HypothesisPair(on=make_coherent(a), off=make_coherent(b)), 1)
        assert abs(res.exponent - abs(a - b) ** 2) < 1e-8 * max(abs(a - b) ** 2, 1e-12)


def test_coherent_illumination_exponent_matches_closed_form():
    # 3x3 grid in (kappa, n_s); exponents stay large enough that -log(q)
    # is not float-limited (q within ~1e-8 of 1 caps the attainable accuracy)
    for kappa in (0.003, 0.01, 0.05):
        for n_s in (0.1, 1.0, 10.0):
            for n_b in (1.0, 30.0, 100.0):
                p = ScenarioParams(kappa=kappa, n_s=n_s, n_b=n_b, m_modes=1)
                num = qcb(hypothesis_pair(SourceKind.COHERENT, p), 1)
                closed = coherent_qcb_closed(p)
                assert abs(num.exponent / closed.exponent - 1) < 1e-8
                assert abs(num.s_star - 0.5) < 1e-4


def test_coherent_closed_form_matches_mpmath():
    mp = pytest.importorskip("mpmath")
    for kappa in np.logspace(-8, np.log10(0.5), 9):
        for n_s, n_b in ((0.01, 30.0), (1.0, 1.0), (10.0, 100.0)):
            p = ScenarioParams(kappa=float(kappa), n_s=n_s, n_b=n_b, m_modes=10**7)
            with mp.workdps(40):
                ref = p.m_modes * mp.mpf(p.kappa) * n_s * (
                    mp.sqrt(mp.mpf(n_b) + 1) - mp.sqrt(n_b)) ** 2
            assert abs(coherent_qcb_closed(p).exponent / float(ref) - 1) < 1e-14


def test_qcb_matches_mp_oracle():
    # fig5a-, fig5b- and fig3-type pairs at three (N_B, kappa) settings.  Q is
    # a double within ~1e-7 of 1 at the weakest of them, so the bound is on
    # the per-copy exponent 1 - Q in units of round-off of Q: 8 units is
    # 2e-8 relative once the per-copy exponent exceeds 8.9e-8.  A search
    # whose result is the argmin of noisy samples is off by more.
    pytest.importorskip("mpmath")
    rng = np.random.default_rng(0)
    m = 10**7
    for n_b, kappa in ((30.0, 0.01), (1.0, 1e-3), (100.0, 0.1)):
        cases = [(SourceKind.CCT, ScenarioParams(
                     kappa=float(10 ** rng.uniform(-3, -1)), n_s=1.0, n_i=n_i,
                     n_b=n_b, m_modes=m)) for n_i in (1.0, 2.0)]
        n_s = float(10 ** rng.uniform(-2, 1))
        cases.append((SourceKind.CCT, ScenarioParams(
            kappa=kappa, n_s=n_s, n_i=n_s, n_b=n_b, m_modes=m)))
        cases.append((SourceKind.COHERENT, ScenarioParams(
            kappa=kappa, n_s=float(10 ** rng.uniform(-2, 1)), n_b=n_b, m_modes=m,
            noise_model=NoiseModel.NONCONSTANT)))
        for source, p in cases:
            pair = hypothesis_pair(source, p)
            ref = orc.chernoff_exponent_mp(pair, m)
            assert abs(qcb(pair, m).exponent - ref) / m <= 8 * np.finfo(float).eps, p


def test_qcb_matches_mp_oracle_on_strongly_separated_pairs():
    # per-copy exponents near 0.5-0.8, where log Q is skewed across the last
    # bracket of the search; the relative error must stay at round-off
    pytest.importorskip("mpmath")
    pairs = [
        hypothesis_pair(SourceKind.TMSV, ScenarioParams(kappa=0.8, n_s=2.0, n_b=0.5)),
        hypothesis_pair(SourceKind.CCT, ScenarioParams(kappa=0.6, n_s=5.0, n_i=3.0, n_b=0.1)),
        hypothesis_pair(SourceKind.COHERENT, ScenarioParams(
            kappa=0.9, n_s=3.0, n_b=2.0, noise_model=NoiseModel.NONCONSTANT)),
    ]
    for pair in pairs:
        ref = orc.chernoff_exponent_mp(pair, 1)
        assert abs(qcb(pair, 1).exponent / ref - 1) <= 1e-14


def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda x: 10.0**x)


@settings(max_examples=60, deadline=None)
@given(source=st.sampled_from(SourceKind), kappa=_log_uniform(1e-4, 0.9),
       n_s=_log_uniform(1e-3, 20.0), n_i=_log_uniform(1e-3, 20.0),
       n_b=_log_uniform(1e-3, 20.0), model=st.sampled_from(NoiseModel))
def test_qcb_search_finds_the_sampled_minimum(source, kappa, n_s, n_i, n_b, model):
    p = ScenarioParams(kappa=kappa, n_s=n_s, n_i=n_i, n_b=n_b, noise_model=model)
    pair = hypothesis_pair(source, p)
    res = qcb(pair, 1)
    assert _S_EDGE <= res.s_star <= 1.0 - _S_EDGE
    data = _PairData(pair)
    grid = np.linspace(_S_EDGE, 1.0 - _S_EDGE, 2001)
    batched = data.overlap(grid)
    assert res.q_value <= np.min(batched) + 16 * np.finfo(float).eps
    single = np.array([data.overlap(float(s)) for s in grid[::20]])
    assert np.max(np.abs(batched[::20] - single)) <= 1e-14


def test_identical_hypotheses_give_unit_overlap():
    for source in SourceKind:
        for model in NoiseModel:
            p = ScenarioParams(kappa=0.0, n_s=1.0, n_i=2.0, n_b=30.0, m_modes=10**7,
                               noise_model=model)
            res = qcb(hypothesis_pair(source, p), p.m_modes)
            assert res.q_value == 1.0 and res.p_err_bound == 0.5
            assert res.exponent == 0.0 and math.copysign(1.0, res.exponent) == 1.0


def test_qcb_pure_modes_raise_no_runtime_warning():
    p = ScenarioParams(kappa=0.05, n_s=0.8, n_b=2.5)
    pair = hypothesis_pair(SourceKind.TMSV, p)
    padded = HypothesisPair(on=tensor(pair.on, make_vacuum(1)),
                            off=tensor(pair.off, make_vacuum(1)))
    coherent = HypothesisPair(on=make_coherent(0.3 + 0.2j), off=make_coherent(-0.1j))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        qcb(padded, 1)
        qcb(coherent, 1)


def test_coherent_bound_high_noise_limit():
    p = ScenarioParams(kappa=0.01, n_s=1.0, n_b=1000.0, m_modes=1)
    assert abs(coherent_qcb_closed(p).exponent
               / (p.kappa * p.n_s / (4 * p.n_b)) - 1) < 0.01


def test_zero_reflectance_zero_exponent():
    p = ScenarioParams(kappa=0.0, n_s=1.0, n_b=30.0, m_modes=1)
    assert coherent_qcb_closed(p).exponent == 0.0
    assert qcb(hypothesis_pair(SourceKind.TMSV, p), 1).exponent < 1e-12


def test_entangled_probe_exponent_advantage_factor_four():
    p = ScenarioParams(kappa=0.01, n_s=1e-3, n_b=100.0, m_modes=1)
    tmsv = qcb(hypothesis_pair(SourceKind.TMSV, p), 1)
    coh = coherent_qcb_closed(p)
    assert abs(tmsv.exponent / coh.exponent - 4.0) < 0.4


def test_chernoff_below_bhattacharyya():
    cases = [
        hypothesis_pair(SourceKind.TMSV, ScenarioParams(kappa=0.05, n_s=0.4, n_b=3.0)),
        hypothesis_pair(SourceKind.CCT, ScenarioParams(kappa=0.1, n_s=1.0, n_i=2.0, n_b=5.0)),
        hypothesis_pair(SourceKind.COHERENT, ScenarioParams(kappa=0.2, n_s=2.0, n_b=1.0)),
    ]
    for pair in cases:
        res = qcb(pair, 1)
        bhat = _PairData(pair).overlap(0.5)
        assert res.q_value <= bhat + 1e-12


def test_swap_symmetry():
    p = ScenarioParams(kappa=0.07, n_s=0.9, n_b=2.0)
    pair = hypothesis_pair(SourceKind.TMSV, p)
    fwd = qcb(pair, 1)
    rev = qcb(HypothesisPair(on=pair.off, off=pair.on), 1)
    assert abs(fwd.q_value - rev.q_value) < 1e-9
    assert abs(fwd.s_star - (1 - rev.s_star)) < 1e-6


def test_cct_receiver_attains_the_bound():
    worst = 0.0
    for kappa in np.logspace(-3, -1, 13):
        p = ScenarioParams(kappa=float(kappa), n_s=1.0, n_i=1.0, n_b=30.0,
                           m_modes=10**7)
        bound = qcb(hypothesis_pair(SourceKind.CCT, p), p.m_modes).exponent
        snr = snr_cct(p).snr
        worst = max(worst, abs(snr / bound - 1))
    assert worst <= 0.10


def test_uncoupled_vacuum_mode_is_ignored():
    p = ScenarioParams(kappa=0.05, n_s=0.8, n_b=2.5)
    pair = hypothesis_pair(SourceKind.TMSV, p)
    base = qcb(pair, 1)
    padded = HypothesisPair(on=tensor(pair.on, make_vacuum(1)),
                            off=tensor(pair.off, make_vacuum(1)))
    grown = qcb(padded, 1)
    assert abs(grown.q_value - base.q_value) < 1e-10


def test_nonconstant_noise_pair_has_nonzero_exponent_at_zero_signal():
    # the kappa-dependent background alone distinguishes the hypotheses
    p = ScenarioParams(kappa=0.1, n_s=0.0, n_b=5.0,
                       noise_model=NoiseModel.NONCONSTANT)
    res = qcb(hypothesis_pair(SourceKind.TMSV, p), 1)
    assert res.exponent > 1e-4


def test_qcb_rejects_mismatched_modes():
    with pytest.raises(ValueError):
        qcb(HypothesisPair(on=make_vacuum(1), off=make_vacuum(2)), 1)
