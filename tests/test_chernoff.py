"""Williamson decomposition and quantum Chernoff bounds vs analytic oracles."""

import contextlib
import math
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles as orc
import test_preset_bytes as preset_cases

from gillum import (
    GaussianState,
    HypothesisPair,
    NoiseModel,
    QcbResult,
    ScenarioParams,
    SweepConfig,
    coherent_qcb_closed,
    hypothesis_pair,
    make_cct,
    make_coherent,
    make_thermal,
    make_tmsv,
    make_vacuum,
    qcb,
    run_figure,
    snr_cct,
    symplectic_form,
    tensor,
    williamson,
)
from gillum import chernoff, figures
from gillum.chernoff import (
    _MAX_ERROR,
    _MEMO_SIZE,
    _ROUND_OFF,
    _S_EDGE,
    NumericalError,
    _decompose,
    _decompose_bytes,
    _PairData,
    qcb_sweep,
)
from gillum.states import _phase_insensitive


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


@pytest.mark.parametrize("model", list(NoiseModel))
def test_williamson_memo_hit_has_the_bits_of_a_fresh_decomposition(model):
    # a second call on equal bytes is a hit (the same arrays come back) and
    # carries the bits of a decomposition that never saw the memo
    p = ScenarioParams(kappa=0.05, n_s=0.7, n_i=1.3, n_b=4.0, noise_model=model)
    for probe in orc.PROBES:
        pair = hypothesis_pair(probe(p), p)
        for state in (pair.on, pair.off):
            _decompose_bytes.cache_clear()
            first = williamson(state)
            hit = williamson(GaussianState(state.mean_q.copy(), state.cov_n.copy()))
            assert hit[0] is first[0] and hit[1] is first[1]
            fresh = _decompose(state.cov_q)
            assert hit[0].tobytes() == fresh[0].tobytes()
            assert hit[1].tobytes() == fresh[1].tobytes()


def test_williamson_memo_keys_on_exact_bytes_and_shape():
    # -0.0 and +0.0 compare equal but are different bytes: keyed apart, each
    # with its own decomposition's bits; a state and its one-row stack too
    _decompose_bytes.cache_clear()
    plus = GaussianState(np.zeros(4), np.diag([1.0, 1.0, 0.0, 0.0]))
    cov = plus.cov_n.copy()
    cov[2, 2] = cov[0, 1] = cov[1, 0] = -0.0
    minus = GaussianState(np.zeros(4), cov)
    assert np.array_equal(plus.cov_n, minus.cov_n)
    assert plus.cov_n.tobytes() != minus.cov_n.tobytes()
    for state in (plus, minus):
        nu, s = williamson(state)
        fresh = _decompose(state.cov_q)
        assert nu.tobytes() == fresh[0].tobytes() and s.tobytes() == fresh[1].tobytes()
    assert williamson(plus)[0] is not williamson(minus)[0]
    assert _decompose_bytes.cache_info().currsize == 2
    stack = GaussianState(plus.mean_q[None], plus.cov_n[None])
    assert plus.cov_n.tobytes() == stack.cov_n.tobytes()
    nu, s = williamson(stack)
    assert nu.shape == (1, 2) and s.shape == (1, 4, 4)
    assert williamson(plus)[0].shape == (2,)


def test_williamson_results_are_read_only():
    p = ScenarioParams(kappa=0.05, n_s=0.7, n_b=4.0)
    for state in (make_thermal(2.0), hypothesis_pair(make_tmsv(np.ones(3)), p).on):
        for _ in range(2):  # the miss, then the hit
            nu, s = williamson(state)
            assert not nu.flags.writeable and not s.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                nu[..., 0] = 1.0
            with pytest.raises(ValueError, match="read-only"):
                s[..., 0, 0] = 1.0


def test_williamson_memo_stays_bounded_and_keeps_a_repeated_matrix():
    # fig5a's traffic: a new on state at every point, one off state asked
    # after each of them; the off state stays a hit however many pass
    p = ScenarioParams(kappa=0.01, n_s=1.0, n_i=1.0, n_b=30.0)
    off = williamson(hypothesis_pair(make_cct(1.0, 1.0), p).off)
    for kappa in np.linspace(0.01, 0.5, 5 * _MEMO_SIZE):
        pair = hypothesis_pair(make_cct(1.0, 1.0), replace(p, kappa=kappa))
        williamson(pair.on)
        assert williamson(pair.off)[1] is off[1]
        assert _decompose_bytes.cache_info().currsize <= _MEMO_SIZE
    for n in np.linspace(1.0, 2.0, 5 * _MEMO_SIZE):
        williamson(make_thermal(n))
    assert _decompose_bytes.cache_info().currsize == _MEMO_SIZE


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_williamson_refuses_non_finite_covariances(bad):
    # before: inf gave nu = [nan] and a NaN in a 4x4 raised LinAlgError
    cov = np.diag([1.0, 1.0, 2.0, 2.0])
    cov[2, 2] = bad
    with np.errstate(invalid="ignore"):  # the symmetry check's inf - inf
        states = (GaussianState(np.zeros(4), cov),
                  GaussianState(np.zeros((2, 4)), np.stack([np.eye(4), cov])),
                  GaussianState(np.zeros(2), np.diag([bad, 1.0])))
    for state in states:
        size = _decompose_bytes.cache_info().currsize
        for _ in range(2):  # a refusal is not kept: the second call refuses too
            with pytest.raises(ValueError, match="finite"):
                williamson(state)
        assert _decompose_bytes.cache_info().currsize == size


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


def test_single_mode_qcb_matches_mp_oracle():
    # coherent pairs, one mode each: Sigma_c is 1 x 1, so its determinant is
    # its entry and the quadratic form |delta|^2 / Sigma_c, formed without
    # LAPACK, whose det rounds through exp(log|a|).  On this seeded draw the
    # median per-copy error was 0.357 eps through np.linalg.det and
    # np.linalg.solve and is 0.267 eps now (max 1.29 and 0.69 eps)
    pytest.importorskip("mpmath")
    rng = np.random.default_rng(0)
    eps, errors = np.finfo(float).eps, []
    for case in range(50):
        kappa, n_s, n_b = (float(10 ** rng.uniform(math.log10(lo), math.log10(hi)))
                           for lo, hi in ((1e-3, 0.1), (1e-2, 10.0), (1.0, 100.0)))
        p = ScenarioParams(kappa=kappa, n_s=n_s, n_b=n_b, noise_model=list(NoiseModel)[case % 2])
        pair = hypothesis_pair(make_coherent(
            math.sqrt(n_s) * np.exp(1j * rng.uniform(0, 2 * math.pi))), p)
        errors.append(abs(qcb(pair, 1).exponent - orc.chernoff_exponent_mp(pair, 1)) / eps)
    assert max(errors) <= 8, max(errors)
    assert np.median(errors) <= 0.3, np.median(errors)


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


@pytest.mark.parametrize("n_b", [30.0, 0.0])
def test_qcb_sweep_of_identical_hypotheses_only(n_b):
    # a sweep at kappa = 0 is dead in every row: each row is searched with
    # the rest and returns s* = 1/2 and exponent +0.0
    n_s = np.logspace(-2, 1, 6).reshape(2, 3)
    for probe in (make_tmsv(n_s), make_cct(n_s, n_s), make_coherent(np.sqrt(n_s))):
        for model in NoiseModel:
            p = ScenarioParams(kappa=0.0, n_s=n_s, n_b=n_b, m_modes=10**7, noise_model=model)
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                res = qcb_sweep(hypothesis_pair(probe, p), p.m_modes)
            assert res.s_star.tobytes() == np.full(n_s.shape, 0.5).tobytes()
            assert res.exponent.tobytes() == np.zeros(n_s.shape).tobytes()


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


def test_williamson_refuses_covariances_that_are_not_positive_definite():
    for cov_n in (-0.5 * np.eye(2), np.diag([1.0, 1.0, -0.7, 2.0])):
        with pytest.raises(ValueError, match="positive definite"):
            williamson(GaussianState(np.zeros(len(cov_n)), cov_n))


def test_qcb_refuses_a_stack():
    p = ScenarioParams(kappa=0.05, n_s=1.0, n_b=2.0)
    with pytest.raises(ValueError, match="qcb takes one pair; qcb_sweep takes a stack"):
        qcb(hypothesis_pair(make_tmsv(np.ones(3)), p), 1)


def test_coherent_closed_form_is_elementwise_in_both_fields():
    # before: s_star was the float 0.5 for a sweep too
    n_s = np.logspace(-2, 1, 6).reshape(2, 3)
    sweep = coherent_qcb_closed(ScenarioParams(kappa=0.05, n_s=n_s, n_b=2.0))
    assert sweep.s_star.shape == sweep.exponent.shape == n_s.shape
    assert sweep.s_star.tobytes() == np.full(n_s.shape, 0.5).tobytes()
    for n, exponent in zip(n_s.ravel(), sweep.exponent.ravel()):
        point = coherent_qcb_closed(ScenarioParams(kappa=0.05, n_s=n, n_b=2.0))
        assert type(point.s_star) is float and point.s_star == 0.5
        assert point.exponent == exponent


def test_coherent_closed_form_refuses_nonconstant_noise():
    p = ScenarioParams(kappa=0.05, n_s=1.0, n_b=2.0, noise_model=NoiseModel.NONCONSTANT)
    with pytest.raises(ValueError, match="constant noise model"):
        coherent_qcb_closed(p)


def test_nan_overlap_is_refused_not_read_as_underflow():
    # before: argmin picked a NaN sample, Q > 0 was False and the row took the
    # underflow branch, returning s* = 1e-6 and exponent inf
    p = ScenarioParams(kappa=0.05, n_s=1.0, n_b=2.0)
    good = hypothesis_pair(make_coherent(np.array([0.5, 1.0, 1.5])), p)
    mean = good.on.mean_q.copy()
    mean[1, 0] = math.nan
    bad = HypothesisPair(on=GaussianState(mean, good.on.cov_n), off=good.off)
    one = HypothesisPair(on=GaussianState(mean[1], good.on.cov_n[1]), off=make_vacuum(1))
    with pytest.raises(NumericalError, match=r"overlap Q_s is nan at s = [0-9.e-]+$"):
        qcb(one, 10)
    with pytest.raises(NumericalError, match="overlap Q_s is nan at s = .* in row 1$"):
        qcb_sweep(bad, 10)  # one row of three


def test_an_overlap_that_underflows_is_refused_not_read_as_exponent_inf():
    # the coherent pair at N_S = 1000, kappa 0.999, N_B 1e-3 has a per-copy
    # exponent near 940, beyond the double range of Q_s: it used to return inf
    p = ScenarioParams(kappa=0.999, n_s=np.array([1.0, 1000.0]), n_b=1e-3,
                       noise_model=NoiseModel.NONCONSTANT)
    probe = make_coherent(np.sqrt(p.n_s))
    with pytest.raises(NumericalError, match=r"Q_s is 0.0 at s = [0-9.e-]+: it underflowed"):
        qcb(hypothesis_pair(make_coherent(math.sqrt(1000.0)), replace(p, n_s=1000.0)), 1)
    with pytest.raises(NumericalError, match="Q_s is 0.0 at s = .* in row 1: it underflowed"):
        qcb_sweep(hypothesis_pair(probe, p), 1)
    assert qcb(hypothesis_pair(make_coherent(1.0), replace(p, n_s=1.0)), 1).exponent > 0


def test_a_stack_names_the_row_below_double_resolution():
    # the refusal of test_qcb_refuses_exponents_below_double_resolution, as
    # the second row of a stack
    p = ScenarioParams(kappa=np.array([0.01, 1e-8]), n_s=0.01, n_i=0.01, n_b=30.0)
    with pytest.raises(NumericalError, match=r"exponent [0-9.e-]+ in row 1 is below what double"):
        qcb_sweep(hypothesis_pair(make_cct(p.n_s, p.n_i), p), 10**7)


@contextlib.contextmanager
def _general_path():
    """Every matrix and every pair row through the 2n x 2n path, the oracle of
    the n x n one; the memo is emptied on entry and exit, so no result of one
    path is served to the other."""
    _decompose_bytes.cache_clear()
    with mock.patch.object(chernoff, "_phase_insensitive",
                           lambda cov: np.zeros(cov.shape[:-2], dtype=bool)):
        try:
            yield
        finally:
            _decompose_bytes.cache_clear()


def _phase_insensitive_pairs() -> list:
    """Pairs whose rows all take the n x n path: split-thermal and coherent
    probes through the channel, thermal stacks, vacuum against a thermal
    state, and a three-mode product with a pure mode and a repeated
    symplectic eigenvalue (a CCT's 0.5 and 3.5 beside a thermal 3.5)."""
    pairs = []
    for model in NoiseModel:
        for n_s, n_i, kappa, n_b in ((1.0, 1.0, 0.01, 30.0), (1.0, 2.0, 0.1, 100.0),
                                     (0.01, 0.01, 1e-3, 3.7), (5.0, 3.0, 0.6, 0.1)):
            p = ScenarioParams(kappa=kappa, n_s=n_s, n_i=n_i, n_b=n_b, noise_model=model)
            pairs += [hypothesis_pair(make_cct(n_s, n_i), p),
                      hypothesis_pair(make_coherent(math.sqrt(n_s)), p)]
    pairs.append(HypothesisPair(on=make_thermal(np.array([[0.0, 0.3], [2.0, 40.0]])),
                                off=make_thermal(np.array([[1.0, 0.0], [2.5, 30.0]]))))
    pairs.append(HypothesisPair(on=make_vacuum(1), off=make_thermal(0.2)))
    pairs.append(HypothesisPair(on=tensor(make_cct(1.0, 2.0), make_thermal(3.0)),
                                off=tensor(make_cct(2.0, 2.0), make_thermal(1.0))))
    for pair in pairs:
        assert _phase_insensitive(pair.on.cov_n).all() and _phase_insensitive(pair.off.cov_n).all()
    return pairs


def test_orthogonal_williamson_agrees_with_the_symplectic_path():
    # nu within 16 ulp of the largest nu of its matrix, the 2n x 2n path's own
    # round-off: it puts a CCT on-state's nu = 1.4997 7.8 eps (relative) and
    # another's nu = 6.55 6 eps off a 40-digit eigsy of A, where the n x n
    # eigh is within 1 eps (next test)
    eps = np.finfo(float).eps
    for pair in _phase_insensitive_pairs():
        for state in (pair.on, pair.off):
            nu, s = williamson(state)
            with _general_path():
                ref = williamson(state)[0]
            top = ref.max(axis=-1, keepdims=True)
            assert np.all(np.abs(np.sort(nu, axis=-1) - np.sort(ref, axis=-1)) <= 16 * eps * top)
            recon = (s * nu.repeat(2, axis=-1)[..., None, :]) @ s.swapaxes(-1, -2)
            assert np.max(np.abs(recon - state.cov_q)) <= 1e-12 * np.abs(state.cov_q).max()
            omega = symplectic_form(state.n_modes)
            assert np.max(np.abs(s @ omega @ s.swapaxes(-1, -2) - omega)) <= 1e-12


def test_orthogonal_williamson_matches_mp_eigenvalues():
    mp = pytest.importorskip("mpmath")
    eps = np.finfo(float).eps
    for pair in _phase_insensitive_pairs():
        for state in (pair.on, pair.off):
            nus = williamson(state)[0].reshape(-1, state.n_modes)
            for nu, cov in zip(nus, state.cov_q.reshape((len(nus),) + state.cov_q.shape[-2:])):
                with mp.workdps(40):
                    ref = sorted(mp.eigsy(mp.matrix(cov[0::2, 0::2].tolist()))[0])
                for got, want in zip(np.sort(nu), ref):
                    assert abs(float((got - want) / want)) <= 2 * eps


def test_orthogonal_overlap_agrees_with_the_symplectic_path():
    # 1e-13 relative at 33 values of s, but 1e-9 at s = 1e-6 and 1 - 1e-6
    # where a state has a pure mode: there the 1/s weight of the other state's
    # modes conditions Sigma_s, and both paths miss a 50-digit overlap of the
    # three-mode pair by up to 4e-11 (n x n) and 2.5e-10 (2n x 2n)
    grid = np.linspace(_S_EDGE, 1.0 - _S_EDGE, 33)
    for pair in _phase_insensitive_pairs():
        rows = pair.on.mean_q[..., 0].size
        got = _PairData(pair).overlap(np.tile(grid, (rows, 1)))
        assert [orth for _, _, orth, _ in _PairData(pair).blocks] == [True]
        with _general_path():
            data = _PairData(pair)
            assert [orth for _, _, orth, _ in data.blocks] == [False]
            ref = data.overlap(np.tile(grid, (rows, 1)))
        tol = np.full(grid.shape, 1e-13)
        if (williamson(pair.on)[0] == 0.5).any() or (williamson(pair.off)[0] == 0.5).any():
            tol[[0, -1]] = 1e-9
        assert np.all(np.abs(got / ref - 1) <= tol)


def test_williamson_of_a_mixed_stack_carries_each_matrix_bytes():
    # CCT (n x n branch) and TMSV (2n x 2n branch) rows in one stack: each
    # matrix has the bits of its own call, in either order
    p = ScenarioParams(kappa=0.05, n_s=0.7, n_i=1.3, n_b=4.0)
    cct, tmsv = hypothesis_pair(make_cct(0.7, 1.3), p).on, hypothesis_pair(make_tmsv(0.7), p).on
    for states in ((cct, tmsv), (tmsv, cct, cct), (make_cct(0.7, 1.3), make_tmsv(0.7), tmsv)):
        stack = GaussianState(np.stack([s.mean_q for s in states]),
                              np.stack([s.cov_n for s in states]))
        assert _phase_insensitive(stack.cov_n).tolist() == [
            s.cov_n[0, 2] == s.cov_n[1, 3] for s in states]  # <x_S x_I> = <p_S p_I>
        nu, s = williamson(stack)
        rows = [williamson(state) for state in states]
        assert nu.tobytes() == np.array([r[0] for r in rows]).tobytes()
        assert s.tobytes() == np.array([r[1] for r in rows]).tobytes()
        assert not nu.flags.writeable and not s.flags.writeable
    # pure rows of both routes: TMSV at N_S = 0 is the vacuum (n x n rows,
    # written over the 2n x 2n basis of the stack), and so is its on-state
    # at kappa = 1 under nonconstant noise, where the others stay pure TMSV;
    # the off-states are phase-insensitive in every row
    probe = make_tmsv(np.array([0.0, 0.5, 0.0, 2.0]))
    pure = ScenarioParams(kappa=1.0, n_s=0.7, n_b=4.0, noise_model=NoiseModel.NONCONSTANT)
    pairs = [hypothesis_pair(probe, replace(p, noise_model=model)) for model in NoiseModel]
    pairs.append(hypothesis_pair(probe, pure))
    mixed = [True, False, True, False]
    for stack, routes in [(probe, mixed)] + [(x, r) for pair in pairs
                                             for x, r in ((pair.on, mixed), (pair.off, [True] * 4))]:
        assert _phase_insensitive(stack.cov_n).tolist() == routes
        nu, s = williamson(stack)
        rows = [williamson(GaussianState(m, c)) for m, c in zip(stack.mean_q, stack.cov_n)]
        assert nu.tobytes() == np.array([r[0] for r in rows]).tobytes()
        assert s.tobytes() == np.array([r[1] for r in rows]).tobytes()
    for state in (probe, pairs[-1].on):
        assert (williamson(state)[0] == 0.5).all()
    for pair in pairs:
        result = qcb_sweep(pair, 10**6)
        for r in range(4):
            alone = qcb(HypothesisPair(*(GaussianState(x.mean_q[r], x.cov_n[r])
                                         for x in (pair.on, pair.off))), 10**6)
            assert np.array([result.s_star[r], result.exponent[r]]).tobytes() == np.array(
                [alone.s_star, alone.exponent]).tobytes()


@pytest.mark.parametrize("cov_n", [-0.1 * np.eye(2), np.diag([0.5, 0.5, -1e-9, -1e-9])])
def test_orthogonal_williamson_keeps_the_sub_vacuum_refusal(cov_n):
    assert _phase_insensitive(cov_n)
    state = GaussianState(np.zeros(len(cov_n)), cov_n)
    with pytest.raises(ValueError, match="not physical"):
        williamson(state)
    with pytest.raises(ValueError, match="not physical"):
        williamson(GaussianState(np.zeros((2, len(cov_n))), np.stack([np.zeros_like(cov_n), cov_n])))


@pytest.mark.parametrize("m_modes", [-5, 0, 0.5, math.nan, math.inf])
def test_chernoff_entry_points_refuse_an_m_that_is_not_a_whole_number(m_modes):
    # before: qcb(pair, -5) returned a negative exponent, nan a nan one, and
    # 0.5 was accepted; ScenarioParams' M rule now guards both entry points
    p = ScenarioParams(kappa=0.01, n_s=1.0, n_i=1.0, n_b=30.0)
    coherent = hypothesis_pair(make_coherent(np.array([0.5, 1.0])), p)
    with pytest.raises(ValueError, match="m_modes must be a whole number >= 1"):
        qcb(hypothesis_pair(make_cct(1.0, 1.0), p), m_modes)
    with pytest.raises(ValueError, match="m_modes must be a whole number >= 1"):
        qcb_sweep(coherent, m_modes)


def test_pair_row_takes_the_route_of_its_williamson_bases():
    # the on cov_n is not A (x) I_2 but its cov_q is (1e-17 + 0.5 rounds to
    # 0.5), so williamson takes the n x n route; before, the row's route was
    # read from cov_n and it went to the 2n x 2n overlap with n x n bases
    pair = HypothesisPair(on=GaussianState(np.zeros(2), np.diag([1e-17, 0.0])),
                          off=make_thermal(0.3))
    assert not _phase_insensitive(pair.on.cov_n) and _phase_insensitive(pair.on.cov_q)
    assert williamson(pair.on)[1].tolist() == np.eye(2).tolist()
    data = _PairData(pair)
    assert [orth for _, _, orth, _ in data.blocks] == [True]
    grid = np.linspace(_S_EDGE, 1.0 - _S_EDGE, 33)[None, :]
    m_modes = 10
    got, result = data.overlap(grid), qcb(pair, m_modes)
    with _general_path():
        ref_data = _PairData(pair)
        assert [orth for _, _, orth, _ in ref_data.blocks] == [False]
        ref, ref_result = ref_data.overlap(grid), qcb(pair, m_modes)
    tol = np.full(grid.shape, 1e-13)  # as in the overlap test above: a pure mode
    tol[:, [0, -1]] = 1e-9
    assert np.all(np.abs(got / ref - 1) <= tol)
    xi = ref_result.exponent / m_modes  # the guard's 64 eps / xi
    assert abs(result.exponent / ref_result.exponent - 1) <= _ROUND_OFF / xi
    assert abs(result.s_star - ref_result.s_star) <= 1e-9


@pytest.mark.parametrize("model", list(NoiseModel))
def test_a_stack_of_both_routes_keeps_each_pair_bits(model):
    # a CCT row (n x n) between TMSV rows (2n x 2n): two blocks, each on its
    # own rows, and every row of the sweep with the bits of its pair alone
    p = ScenarioParams(kappa=0.05, n_s=0.7, n_i=1.3, n_b=4.0, noise_model=model)
    pairs = [hypothesis_pair(probe, p) for probe in (make_tmsv(0.7), make_cct(0.7, 1.3),
                                                     make_tmsv(2.0))]
    stack = HypothesisPair(*(GaussianState(np.stack([getattr(q, side).mean_q for q in pairs]),
                                           np.stack([getattr(q, side).cov_n for q in pairs]))
                             for side in ("on", "off")))
    data = _PairData(stack)
    assert [(orth, rows.tolist()) for rows, _, orth, _ in data.blocks] == [
        (False, [0, 2]), (True, [1])]
    grid = np.linspace(_S_EDGE, 1.0 - _S_EDGE, 33)
    got = data.overlap(np.tile(grid, (3, 1)))
    for row, pair in zip(got, pairs):
        assert row.tobytes() == _PairData(pair).overlap(grid[None, :])[0].tobytes()
    result = qcb_sweep(stack, 10**6)
    for r, pair in enumerate(pairs):
        alone = qcb(pair, 10**6)
        assert np.array([result.s_star[r], result.exponent[r]]).tobytes() == np.array(
            [alone.s_star, alone.exponent]).tobytes()


def _preset_pairs(figure: str, model: NoiseModel, **overrides) -> list:
    """Every hypothesis pair the preset hands to qcb or qcb_sweep, at 25
    points, captured before any search runs."""
    pairs = []

    def one(pair, m_modes):
        pairs.append(pair)
        return QcbResult(s_star=0.5, exponent=0.0)

    def stack(pair, m_modes):
        pairs.append(pair)
        shape = pair.on.mean_q.shape[:-1]
        return QcbResult(s_star=np.full(shape, 0.5), exponent=np.zeros(shape))

    with mock.patch.object(figures, "qcb", one), mock.patch.object(figures, "qcb_sweep", stack):
        run_figure(SweepConfig(figure, points=25, noise=model, **overrides))
    return pairs


@pytest.mark.parametrize("overrides", [{}, {"n_b": 100.0, "kappa": 0.1}])
def test_every_preset_chernoff_pair_takes_the_n_by_n_route(overrides):
    # fig1's and fig3's nonconstant Coh, fig5a's two QCB curves, fig5b's CCT
    # QCB and its nonconstant Coh QCB: every row n x n, so no preset reaches
    # the 2n x 2n overlap; a TMSV pair's rows do
    counts = {}
    for figure, models in (("fig1", [NoiseModel.NONCONSTANT]), ("fig3", [NoiseModel.NONCONSTANT]),
                           ("fig5a", list(NoiseModel)), ("fig5b", list(NoiseModel))):
        for model in models:
            pairs = _preset_pairs(figure, model, **overrides)
            counts[figure, model] = sum(pair.on.mean_q[..., 0].size for pair in pairs)
            for pair in pairs:
                assert [orth for _, _, orth, _ in _PairData(pair).blocks] == [True]
    assert counts == {("fig1", NoiseModel.NONCONSTANT): 25, ("fig3", NoiseModel.NONCONSTANT): 25,
                      ("fig5a", NoiseModel.CONSTANT): 50, ("fig5a", NoiseModel.NONCONSTANT): 50,
                      ("fig5b", NoiseModel.CONSTANT): 25, ("fig5b", NoiseModel.NONCONSTANT): 50}
    p = SweepConfig("fig5b", points=25, **overrides).params
    assert [orth for _, _, orth, _ in _PairData(hypothesis_pair(make_tmsv(p.n_s), p)).blocks] == [
        False]


def _overlap_calls(search, pair, m_modes=10**7) -> int:
    """How many overlap calls ``search(pair, m_modes)`` makes."""
    with mock.patch.object(_PairData, "overlap", autospec=True,
                           side_effect=_PairData.overlap) as spy:
        search(pair, m_modes)
    return spy.call_count


def test_the_search_makes_two_overlap_calls_on_every_preset_pair():
    # fig5a's per-point CCT pairs, fig5b's stacked CCT column and the
    # nonconstant coherent sweeps of fig1, fig3 and fig5b, at the defaults:
    # round 1 and the walked last bracket, no fallback
    for figure, models in (("fig1", [NoiseModel.NONCONSTANT]), ("fig3", [NoiseModel.NONCONSTANT]),
                           ("fig5a", list(NoiseModel)), ("fig5b", list(NoiseModel))):
        for model in models:
            for pair in _preset_pairs(figure, model):
                search = qcb if pair.on.mean_q.ndim == 1 else qcb_sweep
                assert _overlap_calls(search, pair) == 2, (figure, model, search.__name__)


def _exponent_pairs(seed: int, count: int) -> list:
    """Seeded one-pair scenarios over a wide range: TMSV, CCT and coherent
    probes, kappa 1e-3-0.9, N_S and N_I 1e-3-1e2, N_B 0.1-1e3, both models."""
    rng = np.random.default_rng(seed)

    def log_uniform(lo, hi):
        return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))

    pairs = []
    for case in range(count):
        n_s, n_i = log_uniform(1e-3, 1e2), log_uniform(1e-3, 1e2)
        p = ScenarioParams(kappa=log_uniform(1e-3, 0.9), n_s=n_s, n_i=n_i,
                           n_b=log_uniform(0.1, 1e3), noise_model=list(NoiseModel)[case % 2])
        pairs.append(hypothesis_pair(orc.PROBES[case % 3](p), p))
    return pairs


def _assert_near_the_zoom(pairs: list) -> None:
    """Each pair's qcb exponent within 64 eps / xi of the four-round zoom's
    (per-copy xi, M = 1), or both refused."""
    for pair in pairs:
        try:
            (_,), (want,) = orc.zoom_qcb(pair, 1)
        except NumericalError:
            with pytest.raises(NumericalError):
                qcb(pair, 1)
            continue
        assert abs(qcb(pair, 1).exponent - want) <= _ROUND_OFF, want


@pytest.mark.parametrize("figure, scenario", preset_cases.CASES)
def test_preset_chernoff_cells_equal_the_four_round_zoom(figure, scenario):
    # the two-call search walks the zoom's own brackets on every preset pair
    config = SweepConfig(figure=figure, points=preset_cases.POINTS,
                         **preset_cases.SCENARIOS[scenario])
    got = run_figure(config)
    with mock.patch.object(chernoff, "_search", orc.zoom_qcb):
        want = run_figure(config)
    assert list(got.curves) == list(want.curves)
    for label, y in want.curves.items():
        assert np.asarray(got.curves[label], dtype=float).tobytes() == np.asarray(
            y, dtype=float).tobytes(), label


def test_the_search_is_near_the_four_round_zoom_on_a_wide_draw():
    _assert_near_the_zoom(_exponent_pairs(31, 300))


@pytest.mark.parametrize("offset", [-2e-3, -1.2e-4, 1.2e-4, 2e-3])
def test_a_mispredicted_s_star_stays_near_the_four_round_zoom(offset):
    # one round-3 sample spacing off: the walked bracket mostly still holds
    # the minimiser; one round-2 spacing off: it never does, and every row
    # zooms on from its round-2 bracket
    guess = chernoff._guess
    pairs = _exponent_pairs(32, 60)
    with mock.patch.object(chernoff, "_guess", lambda q_r, i: guess(q_r, i) + offset):
        _assert_near_the_zoom(pairs)
        calls = [_overlap_calls(qcb, pair, 1) for pair in pairs[:12]]
    assert min(calls) > 2 if abs(offset) > 1e-3 else 2 in calls


def test_a_row_that_zooms_on_keeps_the_bits_of_its_pair_searched_alone():
    # the pure on-state row's s* sits on the lower edge (round-1 argmin 0);
    # mispredicted by one round-2 spacing, it misses its last bracket and
    # zooms on alone, in the zoom's own brackets, while the other rows keep
    # theirs and repeat their samples: the strong CCT row's walked bracket is
    # not the zoom's, so its bits are not the zoom's either
    weak = ScenarioParams(kappa=0.01, n_s=1.0, n_i=1.0, n_b=30.0)
    pure = ScenarioParams(kappa=1.0, n_s=2.0, n_b=0.5, noise_model=NoiseModel.NONCONSTANT)
    strong = ScenarioParams(kappa=0.6, n_s=5.0, n_i=3.0, n_b=0.1)
    pairs = [hypothesis_pair(make_cct(1.0, 1.0), weak), hypothesis_pair(make_tmsv(2.0), pure),
             hypothesis_pair(make_cct(5.0, 3.0), strong),
             hypothesis_pair(make_cct(1.0, 1.0), replace(weak, kappa=0.0))]
    stacked = _stack_pairs(pairs)
    guess = chernoff._guess
    with mock.patch.object(chernoff, "_guess",
                           lambda q_r, i: guess(q_r, i) + (2e-3 if i == 0 else 0.0)):
        # the zoom from the edge's half-width bracket takes 2 rounds, not 3
        assert [_overlap_calls(qcb, pair) for pair in pairs] == [2, 4, 2, 2]
        assert _overlap_calls(qcb_sweep, stacked) == 4
        rows = [qcb(pair, 10**7) for pair in pairs]
        stack = qcb_sweep(stacked, 10**7)
    assert stack.s_star.tobytes() == np.array([r.s_star for r in rows]).tobytes()
    assert stack.exponent.tobytes() == np.array([r.exponent for r in rows]).tobytes()
    assert [rows[1].s_star, rows[1].exponent] == [v[0] for v in orc.zoom_qcb(pairs[1], 10**7)]
    assert rows[2].exponent != orc.zoom_qcb(pairs[2], 10**7)[1][0]
