"""Williamson decomposition and quantum Chernoff bounds vs analytic oracles."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles as orc

from gillum import (
    GaussianState,
    HypothesisPair,
    NoiseModel,
    ScenarioParams,
    coherent_qcb_closed,
    hypothesis_pair,
    make_cct,
    make_coherent,
    make_thermal,
    make_tmsv,
    make_vacuum,
    qcb,
    snr_cct,
    symplectic_form,
    tensor,
    williamson,
)
from gillum.chernoff import _MAX_ERROR, _ROUND_OFF, _S_EDGE, NumericalError, _PairData, qcb_sweep


def test_williamson_thermal():
    nu, s = williamson(make_thermal(2.0))
    assert np.allclose(nu, [2.5], atol=1e-12)
    assert np.allclose(s @ s.T * 2.5, make_thermal(2.0).cov_q)


def test_williamson_tmsv_pure():
    nu, _ = williamson(make_tmsv(0.8))
    assert np.allclose(nu, [0.5, 0.5], atol=1e-10)


@pytest.mark.parametrize("n_s", [1.0, 3000.0, 1e4, 1e5])
def test_williamson_returns_pure_modes_exactly(n_s):
    # the eigvals(Omega V) spectrum misses 1/2 by 4.5e-9 at N_S = 3000 and by
    # 3.5e-6 at 1e5; the round-off rule in williamson snaps both modes
    nu, _ = williamson(make_tmsv(n_s))
    assert np.array_equal(nu, [0.5, 0.5])


@pytest.mark.parametrize("cov_n", [-0.1 * np.eye(2), np.diag([-0.4, 1.5]),
                                   np.diag([0.5, 0.5, -1e-9, -1e-9])])
def test_williamson_rejects_sub_vacuum_states(cov_n):
    # cov_q = cov_n + I/2 positive definite but nu < 1/2 beyond round-off:
    # not a quantum state
    with pytest.raises(ValueError, match="not physical"):
        williamson(GaussianState(np.zeros(len(cov_n)), cov_n))


def test_williamson_keeps_modes_beyond_round_off_of_pure():
    nu, _ = williamson(GaussianState(np.zeros(4), np.diag([1e-9] * 2 + [0.0] * 2)))
    assert sorted(nu.tolist()) == [0.5, 0.5 + 1e-9]


def test_williamson_on_a_stack_equals_per_state_calls():
    # every matrix of a stack is decomposed on its own: nu and s of each row
    # carry the bytes of the per-state call, pure modes snapped alike
    n_s = np.logspace(-3, 4, 12)
    for model in NoiseModel:
        p = ScenarioParams(kappa=0.3, n_s=n_s, n_b=2.0, noise_model=model)
        for make in (make_tmsv, lambda n: make_cct(n, 3.0 * n), make_coherent):
            for state in (make(n_s), hypothesis_pair(make(n_s), p).on,
                          hypothesis_pair(make(n_s.reshape(3, 4)), p).off):
                nu, s = williamson(state)
                rows = [williamson(GaussianState(m, c)) for m, c in
                        zip(state.mean_q.reshape(-1, state.mean_q.shape[-1]),
                            state.cov_n.reshape((-1,) + state.cov_n.shape[-2:]))]
                assert nu.shape == state.mean_q.shape[:-1] + (state.n_modes,)
                assert nu.tobytes() == np.array([r[0] for r in rows]).tobytes()
                assert s.tobytes() == np.array([r[1] for r in rows]).tobytes()
    bad = np.stack([np.zeros((2, 2)), np.diag([-0.4, 1.5])])
    with pytest.raises(ValueError, match="not physical"):
        williamson(GaussianState(np.zeros((2, 2)), bad))


def test_williamson_reconstruction_and_symplecticity():
    # a mixed two-mode state, then degenerate spectra: a pure TMSV (nu = 1/2,
    # 1/2), two equal thermal modes (one 4-dimensional eigenspace) and a
    # three-mode product with a repeated symplectic eigenvalue
    states = [
        hypothesis_pair(make_tmsv(0.7), ScenarioParams(kappa=0.05, n_s=0.7, n_b=4.0)).on,
        make_tmsv(0.8),
        tensor(make_thermal(3.0), make_thermal(3.0)),
        tensor(make_tmsv(0.8), make_thermal(2.0)),
    ]
    for state in states:
        nu, s = williamson(state)
        recon = s @ np.diag(np.repeat(nu, 2)) @ s.T
        assert np.max(np.abs(recon - state.cov_q)) < 1e-9
        omega = symplectic_form(state.n_modes)
        assert np.max(np.abs(s @ omega @ s.T - omega)) < 1e-9
        assert np.allclose(np.sort(nu), orc.symplectic_eigenvalues(state), rtol=0, atol=1e-9)
        assert np.all(nu >= 0.5 - 1e-9)


def test_identical_states_overlap_one():
    pair = HypothesisPair(on=make_coherent(0.4 + 0.1j), off=make_coherent(0.4 + 0.1j))
    res = qcb(pair, 7)
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
                num = qcb(hypothesis_pair(make_coherent(math.sqrt(p.n_s)), p), 1)
                closed = coherent_qcb_closed(p)
                assert abs(num.exponent / closed.exponent - 1) < 1e-8
                assert abs(num.s_star - 0.5) < 1e-4


def test_coherent_closed_form_matches_mpmath():
    mp = pytest.importorskip("mpmath")
    # at N_S = 1e6 and kappa near 0.5 the per-copy exponent is ~4.1e3, so
    # exp(-exponent) underflows to 0 while the exponent itself stays finite
    for kappa in np.logspace(-8, np.log10(0.5), 9):
        for n_s, n_b in ((0.01, 30.0), (1.0, 1.0), (10.0, 100.0), (1e6, 30.0)):
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
        cases = [(make_cct(1.0, n_i), ScenarioParams(
                     kappa=float(10 ** rng.uniform(-3, -1)), n_s=1.0, n_i=n_i,
                     n_b=n_b, m_modes=m)) for n_i in (1.0, 2.0)]
        n_s = float(10 ** rng.uniform(-2, 1))
        cases.append((make_cct(n_s, n_s), ScenarioParams(
            kappa=kappa, n_s=n_s, n_i=n_s, n_b=n_b, m_modes=m)))
        n_s = float(10 ** rng.uniform(-2, 1))
        cases.append((make_coherent(math.sqrt(n_s)), ScenarioParams(
            kappa=kappa, n_s=n_s, n_b=n_b, m_modes=m, noise_model=NoiseModel.NONCONSTANT)))
        for probe, p in cases:
            pair = hypothesis_pair(probe, p)
            ref = orc.chernoff_exponent_mp(pair, m)
            assert abs(qcb(pair, m).exponent - ref) / m <= 8 * np.finfo(float).eps, p


def test_qcb_matches_exact_model_oracle_at_weakest_cct_points():
    # fig5b's three weakest N_S = N_I at its defaults, against the bound of
    # the model covariance written in mpmath: no input is rounded to a
    # double, so the per-copy error counts the rounding the states add too
    pytest.importorskip("mpmath")
    m = 10**7
    for n_s in np.logspace(-2, 1, 200)[:3]:
        p = ScenarioParams(kappa=0.01, n_s=float(n_s), n_i=float(n_s), n_b=30.0, m_modes=m)
        ref = orc.cct_exponent_mp(p, m)
        assert abs(qcb(hypothesis_pair(make_cct(p.n_s, p.n_i), p), m).exponent - ref) / m \
            <= 8 * np.finfo(float).eps, p


@pytest.mark.parametrize("n_s,n_b", [(2.0, 0.5), (0.5, 3.0), (1.0, 30.0)])
def test_qcb_pure_on_state_matches_mp_oracle(n_s, n_b):
    # kappa = 1 leaves the on-state pure, so the infimum is the s -> 0+ limit.
    # The search stops at s = _S_EDGE = 1e-6, where Q_s still exceeds that
    # limit by a relative ~1e-6 of the exponent (7.2e-7 to 9.6e-7 measured)
    pytest.importorskip("mpmath")
    pair = hypothesis_pair(make_tmsv(n_s), ScenarioParams(
        kappa=1.0, n_s=n_s, n_b=n_b, noise_model=NoiseModel.NONCONSTANT))
    ref = orc.chernoff_exponent_mp(pair, 1)
    assert abs(qcb(pair, 1).exponent / ref - 1) <= 2e-6


def test_qcb_matches_mp_oracle_on_strongly_separated_pairs():
    # per-copy exponents near 0.5-0.8, where log Q is skewed across the last
    # bracket of the search; the relative error must stay at round-off
    pytest.importorskip("mpmath")
    pairs = [
        hypothesis_pair(make_tmsv(2.0), ScenarioParams(kappa=0.8, n_s=2.0, n_b=0.5)),
        hypothesis_pair(make_cct(5.0, 3.0), ScenarioParams(kappa=0.6, n_s=5.0, n_i=3.0, n_b=0.1)),
        hypothesis_pair(make_coherent(math.sqrt(3.0)), ScenarioParams(
            kappa=0.9, n_s=3.0, n_b=2.0, noise_model=NoiseModel.NONCONSTANT)),
    ]
    for pair in pairs:
        ref = orc.chernoff_exponent_mp(pair, 1)
        assert abs(qcb(pair, 1).exponent / ref - 1) <= 1e-14


def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda x: 10.0**x)


@settings(max_examples=60, deadline=None)
# batched and one-at-a-time overlaps once differed here by 1.42e-14 at s = 1e-6
@example(probe=orc.tmsv_probe, kappa=10**-0.0625, n_s=10.0, n_i=1.0, n_b=0.1,
         model=NoiseModel.CONSTANT)
# per-copy exponent 4.7e-12, below what a double Q_s resolves: refused
@example(probe=orc.cct_probe, kappa=1e-4, n_s=1e-3, n_i=1e-3, n_b=20.0,
         model=NoiseModel.CONSTANT)
@given(probe=st.sampled_from(orc.PROBES), kappa=_log_uniform(1e-4, 0.9),
       n_s=_log_uniform(1e-3, 20.0), n_i=_log_uniform(1e-3, 20.0),
       n_b=_log_uniform(1e-3, 20.0), model=st.sampled_from(NoiseModel))
def test_qcb_search_finds_the_sampled_minimum(probe, kappa, n_s, n_i, n_b, model):
    p = ScenarioParams(kappa=kappa, n_s=n_s, n_i=n_i, n_b=n_b, noise_model=model)
    pair = hypothesis_pair(probe(p), p)
    data = _PairData(pair)
    grid = np.linspace(_S_EDGE, 1.0 - _S_EDGE, 2001)
    batched = data.overlap(grid[None])[0]
    try:
        res = qcb(pair, 1)
    except NumericalError:
        # refused only where the per-copy exponent is below what doubles resolve
        assert -math.log(np.min(batched)) <= _ROUND_OFF / _MAX_ERROR + 16 * np.finfo(float).eps
    else:
        assert _S_EDGE <= res.s_star <= 1.0 - _S_EDGE
        assert math.exp(-res.exponent) <= np.min(batched) + 16 * np.finfo(float).eps
    single = np.array([data.overlap(np.array([[s]]))[0, 0] for s in grid[::20]])
    assert np.max(np.abs(batched[::20] - single)) <= 1e-14


def _stack_pairs(pairs: list) -> HypothesisPair:
    """One stacked pair from pairs of one mode count, each at its own scenario."""
    def stack(states):
        return GaussianState(np.stack([s.mean_q for s in states]),
                             np.stack([s.cov_n for s in states]))
    return HypothesisPair(on=stack([p.on for p in pairs]), off=stack([p.off for p in pairs]))


_POINT = st.tuples(_log_uniform(1e-4, 0.9), _log_uniform(1e-3, 20.0),
                   _log_uniform(1e-3, 20.0), _log_uniform(1e-3, 20.0))


@settings(max_examples=40, deadline=None)
@example(probe=orc.cct_probe, model=NoiseModel.CONSTANT,
         points=[(0.01, 1.0, 1.0, 30.0), (1e-4, 1e-3, 1e-3, 20.0)])
@given(probe=st.sampled_from(orc.PROBES), model=st.sampled_from(NoiseModel),
       points=st.lists(_POINT, min_size=1, max_size=4))
def test_qcb_sweep_rows_equal_qcb_bit_for_bit(probe, model, points):
    params = [ScenarioParams(kappa=k, n_s=s, n_i=i, n_b=b, noise_model=model)
              for k, s, i, b in points]
    pairs = [hypothesis_pair(probe(p), p) for p in params]
    # identical hypotheses (kappa = 0) second, a pure on-state of the same
    # mode count (kappa = 1 in nonconstant noise) last
    same = replace(params[0], kappa=0.0)
    pure = ScenarioParams(kappa=1.0, n_s=2.0, n_b=0.5, noise_model=NoiseModel.NONCONSTANT)
    pure_probe = orc.tmsv_probe if probe(same).n_modes == 2 else orc.coherent_probe
    pairs[1:1] = [hypothesis_pair(probe(same), same)]
    pairs.append(hypothesis_pair(pure_probe(pure), pure))
    stacked = _stack_pairs(pairs)
    try:
        rows = [qcb(pair, 10**7) for pair in pairs]
    except NumericalError:
        with pytest.raises(NumericalError):
            qcb_sweep(stacked, 10**7)
        return
    stack = qcb_sweep(stacked, 10**7)
    assert stack.s_star.tobytes() == np.array([r.s_star for r in rows]).tobytes()
    assert stack.exponent.tobytes() == np.array([r.exponent for r in rows]).tobytes()
    assert stack.exponent[1] == 0.0 and math.copysign(1.0, stack.exponent[1]) == 1.0
    assert stack.s_star[-1] == _S_EDGE


@pytest.mark.parametrize("model", list(NoiseModel))
@pytest.mark.parametrize("probe", ["cct", "coherent"])
def test_qcb_sweep_of_a_stacked_probe_equals_per_point_qcb(probe, model):
    # the figures' path: one stacked probe through the channel at one kappa,
    # a 2-D stack included; every row has the bits of its own per-point qcb
    n_s = np.logspace(-2, 1, 12).reshape(3, 4)
    params = ScenarioParams(kappa=0.01, n_s=n_s, n_b=30.0, m_modes=10**7, noise_model=model)
    make = (lambda n: make_cct(n, n)) if probe == "cct" else (lambda n: make_coherent(np.sqrt(n)))
    stack = qcb_sweep(hypothesis_pair(make(n_s), params), params.m_modes)
    rows = [qcb(hypothesis_pair(make(n), params), params.m_modes) for n in n_s.ravel()]
    assert stack.s_star.shape == stack.exponent.shape == n_s.shape
    assert stack.s_star.tobytes() == np.array([r.s_star for r in rows]).tobytes()
    assert stack.exponent.tobytes() == np.array([r.exponent for r in rows]).tobytes()


def test_qcb_sweep_rejects_on_off_mode_count_mismatch():
    # a stack holds one mode count; on and off of different counts cannot pair
    p = ScenarioParams(kappa=0.05, n_s=1.0, n_b=2.0)
    tmsv = hypothesis_pair(make_tmsv(np.ones(3)), p)
    coh = hypothesis_pair(make_coherent(np.ones(3)), p)
    for pair in (HypothesisPair(on=tmsv.on, off=coh.off), HypothesisPair(on=coh.on, off=tmsv.off)):
        with pytest.raises(ValueError, match="same mode count"):
            qcb_sweep(pair, 1)


def test_qcb_takes_one_pair_and_returns_floats():
    p = ScenarioParams(kappa=0.05, n_s=1.0, n_b=2.0)
    res = qcb(hypothesis_pair(make_tmsv(p.n_s), p), 1)
    assert type(res.s_star) is float and type(res.exponent) is float


def test_qcb_refuses_exponents_below_double_resolution():
    # fig5b's weakest default point at kappa = 1e-8: the per-copy exponent
    # is ~3e-14, where round-off in Q_s is a relative error near 0.5
    p = ScenarioParams(kappa=1e-8, n_s=0.01, n_i=0.01, n_b=30.0, m_modes=10**7)
    with pytest.raises(NumericalError, match="double precision"):
        qcb(hypothesis_pair(make_cct(p.n_s, p.n_i), p), p.m_modes)


def test_identical_hypotheses_give_unit_overlap():
    for probe in orc.PROBES:
        for model in NoiseModel:
            p = ScenarioParams(kappa=0.0, n_s=1.0, n_i=2.0, n_b=30.0, m_modes=10**7,
                               noise_model=model)
            res = qcb(hypothesis_pair(probe(p), p), p.m_modes)
            assert res.exponent == 0.0 and math.copysign(1.0, res.exponent) == 1.0


def test_qcb_pure_modes_raise_no_runtime_warning():
    p = ScenarioParams(kappa=0.05, n_s=0.8, n_b=2.5)
    pair = hypothesis_pair(make_tmsv(p.n_s), p)
    padded = HypothesisPair(on=tensor(pair.on, make_vacuum(1)),
                            off=tensor(pair.off, make_vacuum(1)))
    coherent = HypothesisPair(on=make_coherent(0.3 + 0.2j), off=make_coherent(-0.1j))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        qcb(padded, 1)
        qcb(coherent, 1)


def test_qcb_pure_on_state_reaches_the_trace_overlap():
    # kappa = 1 in nonconstant noise leaves the TMSV pure.  For a pure on-state
    # Q_s = <psi| rho_off^(1-s) |psi> rises with s, so the infimum is the
    # s -> 0+ limit Tr(rho_on rho_off) = det(V_on + V_off)^(-1/2), reached at
    # the lower edge of the search; round-off in the pure modes' symplectic
    # eigenvalues must not lift it
    for n_s in (0.1, 2.0, 20.0):
        pair = hypothesis_pair(make_tmsv(n_s), ScenarioParams(
            kappa=1.0, n_s=n_s, n_b=0.5, noise_model=NoiseModel.NONCONSTANT))
        res = qcb(pair, 1)
        v_sum = pair.on.cov_q + pair.off.cov_q
        ref = 0.5 * np.linalg.slogdet(v_sum)[1]
        assert abs(res.exponent / ref - 1) <= 1e-5, (n_s, res.exponent, ref)
        assert res.s_star == _S_EDGE


def test_coherent_bound_high_noise_limit():
    p = ScenarioParams(kappa=0.01, n_s=1.0, n_b=1000.0, m_modes=1)
    assert abs(coherent_qcb_closed(p).exponent
               / (p.kappa * p.n_s / (4 * p.n_b)) - 1) < 0.01


def test_zero_reflectance_zero_exponent():
    p = ScenarioParams(kappa=0.0, n_s=1.0, n_b=30.0, m_modes=1)
    assert coherent_qcb_closed(p).exponent == 0.0
    assert qcb(hypothesis_pair(make_tmsv(p.n_s), p), 1).exponent < 1e-12


def test_entangled_probe_exponent_advantage_factor_four():
    p = ScenarioParams(kappa=0.01, n_s=1e-3, n_b=100.0, m_modes=1)
    tmsv = qcb(hypothesis_pair(make_tmsv(p.n_s), p), 1)
    coh = coherent_qcb_closed(p)
    assert abs(tmsv.exponent / coh.exponent - 4.0) < 0.4


def test_chernoff_below_bhattacharyya():
    cases = [
        hypothesis_pair(make_tmsv(0.4), ScenarioParams(kappa=0.05, n_s=0.4, n_b=3.0)),
        hypothesis_pair(make_cct(1.0, 2.0), ScenarioParams(kappa=0.1, n_s=1.0, n_i=2.0, n_b=5.0)),
        hypothesis_pair(make_coherent(math.sqrt(2.0)),
                        ScenarioParams(kappa=0.2, n_s=2.0, n_b=1.0)),
    ]
    for pair in cases:
        res = qcb(pair, 1)
        bhat = _PairData(pair).overlap(np.array([[0.5]]))[0, 0]
        assert math.exp(-res.exponent) <= bhat + 1e-12


def test_swap_symmetry():
    p = ScenarioParams(kappa=0.07, n_s=0.9, n_b=2.0)
    pair = hypothesis_pair(make_tmsv(p.n_s), p)
    fwd = qcb(pair, 1)
    rev = qcb(HypothesisPair(on=pair.off, off=pair.on), 1)
    assert abs(math.exp(-fwd.exponent) - math.exp(-rev.exponent)) < 1e-9
    assert abs(fwd.s_star - (1 - rev.s_star)) < 1e-6


def test_cct_receiver_attains_the_bound():
    worst = 0.0
    for kappa in np.logspace(-3, -1, 13):
        p = ScenarioParams(kappa=float(kappa), n_s=1.0, n_i=1.0, n_b=30.0,
                           m_modes=10**7)
        bound = qcb(hypothesis_pair(make_cct(p.n_s, p.n_i), p), p.m_modes).exponent
        snr = snr_cct(p)
        worst = max(worst, abs(snr / bound - 1))
    assert worst <= 0.10


def test_uncoupled_vacuum_mode_is_ignored():
    p = ScenarioParams(kappa=0.05, n_s=0.8, n_b=2.5)
    pair = hypothesis_pair(make_tmsv(p.n_s), p)
    base = qcb(pair, 1)
    padded = HypothesisPair(on=tensor(pair.on, make_vacuum(1)),
                            off=tensor(pair.off, make_vacuum(1)))
    grown = qcb(padded, 1)
    assert abs(math.exp(-grown.exponent) - math.exp(-base.exponent)) < 1e-10


def test_nonconstant_noise_pair_has_nonzero_exponent_at_zero_signal():
    # the kappa-dependent background alone distinguishes the hypotheses
    p = ScenarioParams(kappa=0.1, n_s=0.0, n_b=5.0,
                       noise_model=NoiseModel.NONCONSTANT)
    res = qcb(hypothesis_pair(make_tmsv(p.n_s), p), 1)
    assert res.exponent > 1e-4


def test_qcb_rejects_mismatched_modes():
    with pytest.raises(ValueError):
        qcb(HypothesisPair(on=make_vacuum(1), off=make_vacuum(2)), 1)
