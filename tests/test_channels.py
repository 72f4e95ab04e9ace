"""Target channel outputs under both background-noise conventions."""

import math
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import block_diag

sys.path.insert(0, str(Path(__file__).parent))

import oracles as orc
from gillum import (
    GaussianState,
    NoiseModel,
    ScenarioParams,
    apply_target,
    hypothesis_pair,
    make_cct,
    make_coherent,
    make_tmsv,
    obs_number,
    obs_quadrature,
    stats,
    williamson,
)


def tmsv_output_expected(kappa, n_s, n_b):
    """cov_n of a channel-output TMSV, rows (x_S, p_S, x_I, p_I)."""
    a = kappa * n_s + n_b
    c = np.sqrt(kappa * n_s * (n_s + 1))
    return np.array([
        [a, 0, c, 0],
        [0, a, 0, -c],
        [c, 0, n_s, 0],
        [0, -c, 0, n_s],
    ])


def test_tmsv_constant_noise_matches_known_covariance():
    params = ScenarioParams(kappa=0.01, n_s=0.01, n_b=30.0)
    out = apply_target(make_tmsv(params.n_s), params, present=True)
    assert np.max(np.abs(out.cov_n - tmsv_output_expected(0.01, 0.01, 30.0))) < 1e-12
    assert np.max(np.abs(out.mean_q)) == 0.0


def test_kappa_zero_on_equals_off():
    params = ScenarioParams(kappa=0.0, n_s=0.4, n_b=2.0)
    pair = hypothesis_pair(make_tmsv(params.n_s), params)
    assert np.max(np.abs(pair.on.cov_n - pair.off.cov_n)) < 1e-14


def test_cct_output_matches_known_covariance():
    n_s, n_i, n_b, kappa = 1.0, 2.0, 30.0, 0.25
    params = ScenarioParams(kappa=kappa, n_s=n_s, n_i=n_i, n_b=n_b)
    pair = hypothesis_pair(make_cct(params.n_s, params.n_i), params)
    b = kappa * n_s + n_b
    d = np.sqrt(kappa * n_s * n_i)
    expected = np.array([
        [b, 0, d, 0],
        [0, b, 0, d],
        [d, 0, n_i, 0],
        [0, d, 0, n_i],
    ])
    assert np.max(np.abs(pair.on.cov_n - expected)) < 1e-12


def test_cct_kappa_zero_pair_identical():
    params = ScenarioParams(kappa=0.0, n_s=1.0, n_i=2.0, n_b=3.0)
    pair = hypothesis_pair(make_cct(params.n_s, params.n_i), params)
    assert np.max(np.abs(pair.on.cov_n - pair.off.cov_n)) < 1e-14


def test_tmsv_pair_differs_only_in_correlations_and_signal_number():
    params = ScenarioParams(kappa=0.01, n_s=0.01, n_b=30.0)
    pair = hypothesis_pair(make_tmsv(params.n_s), params)
    diff = pair.on.cov_n - pair.off.cov_n
    # only the signal-idler correlations and the signal-number diagonal move
    mask = np.zeros((4, 4), dtype=bool)
    mask[0, 2] = mask[2, 0] = mask[1, 3] = mask[3, 1] = True
    mask[0, 0] = mask[1, 1] = True
    assert np.max(np.abs(diff[~mask])) < 1e-14
    assert abs(diff[0, 0] - 0.01 * 0.01) < 1e-14


def test_coherent_pair_through_channel():
    params = ScenarioParams(kappa=0.2, n_s=0.3, n_b=0.3)
    pair = hypothesis_pair(make_coherent(math.sqrt(params.n_s)), params)
    assert abs(pair.on.mean_q[0] - np.sqrt(2 * 0.2 * 0.3)) < 1e-12  # <x> = sqrt(2) <a>
    assert abs(pair.off.mean_q[0]) < 1e-14
    # covariance is the thermal background in both hypotheses
    assert np.max(np.abs(pair.on.cov_n - np.diag([0.3, 0.3]))) < 1e-12
    # cross-check against the truncated-Fock channel at small photon numbers
    dim = 24
    vec = orc.coherent_vec(np.sqrt(params.n_s), dim)
    rho = np.outer(vec, vec.conj())
    rho_on = orc.single_mode_channel_fock(rho, params.kappa,
                                          params.n_b / (1 - params.kappa), 20)
    for obs in (obs_quadrature(0, 0.0, 1), obs_number(0, 1)):
        eng = stats(obs, pair.on)
        fm, fv = orc.fock_stats(obs, rho_on, (dim,))
        assert abs(eng.mean - fm) < 1e-7
        assert abs(eng.variance - fv) < 1e-6


def test_off_state_independent_of_noise_model():
    for model in (NoiseModel.CONSTANT, NoiseModel.NONCONSTANT):
        params = ScenarioParams(kappa=0.3, n_s=0.7, n_b=2.0, noise_model=model)
        off = hypothesis_pair(make_tmsv(params.n_s), params).off
        assert np.max(np.abs(off.cov_n - tmsv_output_expected(0.0, 0.7, 2.0))) < 1e-12


def test_nonconstant_occupancy():
    params = ScenarioParams(kappa=0.3, n_s=0.5, n_b=2.0,
                            noise_model=NoiseModel.NONCONSTANT)
    on = hypothesis_pair(make_tmsv(params.n_s), params).on
    b = 0.3 * 0.5 + 0.7 * 2.0
    assert abs(on.cov_n[0, 0] - b) < 1e-12


def test_models_coincide_at_kappa_zero():
    base = dict(kappa=0.0, n_s=0.4, n_b=1.5)
    on_c = hypothesis_pair(
        make_tmsv(0.4), ScenarioParams(**base, noise_model=NoiseModel.CONSTANT)).on
    on_n = hypothesis_pair(
        make_tmsv(0.4), ScenarioParams(**base, noise_model=NoiseModel.NONCONSTANT)).on
    assert np.max(np.abs(on_c.cov_n - on_n.cov_n)) == 0.0


def test_output_physical_for_random_inputs():
    rng = np.random.RandomState(3)
    for _ in range(6):
        params = ScenarioParams(kappa=float(rng.uniform(0, 0.9)),
                                n_s=float(rng.uniform(0, 3)),
                                n_b=float(rng.uniform(0, 5)))
        pair = hypothesis_pair(make_tmsv(params.n_s), params)
        for state in (pair.on, pair.off):
            assert np.all(williamson(state)[0] >= 0.5 - 1e-9)


def test_correlation_strictly_increasing_in_kappa():
    n_s = 0.5
    prev = -1.0
    for kappa in np.linspace(0.01, 0.9, 15):
        params = ScenarioParams(kappa=float(kappa), n_s=n_s, n_b=1.0)
        c = hypothesis_pair(make_tmsv(params.n_s), params).on.cov_n[0, 2]  # <x_S x_I>
        assert c > prev
        prev = c


def seeded_state(rng, n_modes):
    """Thermal modes, each squeezed along a random axis, mixed on beam
    splitters and displaced."""
    blocks = []
    for _ in range(n_modes):
        theta, r = rng.uniform(0, np.pi), rng.uniform(0, 1)
        rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        sq = rot @ np.diag([np.exp(r), np.exp(-r)]) @ rot.T
        blocks.append((rng.uniform(0, 3) + 0.5) * sq @ sq.T)
    state = GaussianState(np.zeros(2 * n_modes), block_diag(*blocks) - 0.5 * np.eye(2 * n_modes))
    for _ in range(n_modes - 1):
        i, j = rng.choice(n_modes, size=2, replace=False)
        t = np.cos(rng.uniform(0, np.pi / 2))
        state = orc.beam_split(state, i, j, t, np.sqrt(1 - t * t),
                               rng.uniform(0, 2 * np.pi))
    alpha = rng.normal(size=n_modes) + 1j * rng.normal(size=n_modes)
    mean_q = np.sqrt(2.0) * np.column_stack([alpha.real, alpha.imag]).ravel()
    return GaussianState(mean_q, state.cov_n)


def test_apply_target_matches_beam_splitter_circuit():
    rng = np.random.default_rng(4)
    for n_modes in (1, 2, 3):
        state = seeded_state(rng, n_modes)
        for model in NoiseModel:
            kappas = (0.0, 0.3, 1.0) if model is NoiseModel.NONCONSTANT else (0.0, 0.3)
            for kappa in kappas:
                params = ScenarioParams(kappa=kappa, n_s=0.0,
                                        n_b=float(rng.uniform(0, 5)), noise_model=model)
                for present in (True, False):
                    out = apply_target(state, params, present)
                    ref = orc.target_channel_reference(state, 0, params, present)
                    assert np.max(np.abs(out.cov_n - ref.cov_n)) < 1e-13
                    assert np.max(np.abs(out.mean_q - ref.mean_q)) < 1e-13


def test_constant_model_rejects_unit_reflectance():
    for kappa in (1.0, np.array([0.5, 1.0, 0.25])):
        with pytest.raises(ValueError, match="undefined at kappa = 1"):
            ScenarioParams(kappa=kappa, n_s=0.5, n_b=1.0)


def test_nonconstant_model_allows_unit_reflectance():
    params = ScenarioParams(kappa=1.0, n_s=0.5, n_b=1.0,
                            noise_model=NoiseModel.NONCONSTANT)
    on = apply_target(make_tmsv(0.5), params, present=True)
    assert abs(on.cov_n[0, 0] - 0.5) < 1e-12


def test_param_validation():
    with pytest.raises(ValueError):
        ScenarioParams(kappa=1.2, n_s=0.1, n_b=0.1)
    with pytest.raises(ValueError):
        ScenarioParams(kappa=0.1, n_s=-0.1, n_b=0.1)
    with pytest.raises(ValueError):
        ScenarioParams(kappa=0.1, n_s=0.1, n_b=0.1, m_modes=0)
    for bad in (np.nan, np.inf):
        for field in ("kappa", "n_s", "n_i", "n_b", "m_modes"):
            with pytest.raises(ValueError):
                ScenarioParams(**{"kappa": 0.1, "n_s": 0.1, "n_b": 0.1, field: bad})


def test_param_validation_reads_every_array_entry():
    axis = np.linspace(0.01, 0.5, 50)
    ScenarioParams(kappa=axis, n_s=axis, n_i=axis, n_b=1.0)
    for field, bad in (("kappa", 1.5), ("kappa", -0.1), ("n_s", -0.1), ("n_i", -0.1),
                       ("kappa", np.nan), ("kappa", np.inf), ("n_s", np.nan),
                       ("n_s", np.inf), ("n_i", np.nan), ("n_i", np.inf)):
        values = axis.copy()
        values[17] = bad
        with pytest.raises(ValueError):
            ScenarioParams(**{"kappa": 0.1, "n_s": 0.1, "n_b": 0.1, field: values})


def test_hypothesis_pair_rejects_array_parameters():
    params = ScenarioParams(kappa=np.linspace(0.01, 0.5, 5), n_s=0.1, n_b=1.0)
    for probe in (make_tmsv(0.1), make_cct(0.1, 0.2), make_coherent(0.3)):
        with pytest.raises(ValueError):
            hypothesis_pair(probe, params)
    with pytest.raises(ValueError, match="stacks the probe"):
        hypothesis_pair(make_tmsv(0.1), params)


def test_hypothesis_pair_accepts_a_zero_d_kappa():
    # ScenarioParams and every closed form take a 0-d array kappa; so does
    # the channel, with the bits of the float
    for model in NoiseModel:
        as_float = ScenarioParams(kappa=0.1, n_s=1.0, n_b=1.0, noise_model=model)
        as_array = ScenarioParams(kappa=np.array(0.1), n_s=1.0, n_b=1.0, noise_model=model)
        for probe in (make_tmsv(1.0), make_cct(1.0, 2.0), make_coherent(1.0)):
            a, b = hypothesis_pair(probe, as_float), hypothesis_pair(probe, as_array)
            for x, y in ((a.on, b.on), (a.off, b.off)):
                assert x.mean_q.tobytes() == y.mean_q.tobytes()
                assert x.cov_n.tobytes() == y.cov_n.tobytes()


@pytest.mark.parametrize("model", list(NoiseModel))
def test_stacked_probe_pairs_equal_per_point_pairs(model):
    # a stacked probe goes through the channel at one kappa as a stack of
    # pairs, each row with the bytes of its own per-point pair
    n_s = np.logspace(-2, 1, 12)
    kappas = (0.0, 0.01, 0.5, 1.0) if model is NoiseModel.NONCONSTANT else (0.0, 0.01, 0.5)
    for kappa in kappas:
        params = ScenarioParams(kappa=kappa, n_s=n_s, n_b=30.0, noise_model=model)
        for make in (make_tmsv, lambda n: make_cct(n, 2.0 * n),
                     lambda n: make_coherent(np.sqrt(n) * np.exp(1j * n))):
            for grid in (n_s, n_s.reshape(4, 3)):
                stack = hypothesis_pair(make(grid), params)
                rows = [hypothesis_pair(make(n), params) for n in grid.ravel()]
                for state, states in ((stack.on, [r.on for r in rows]),
                                      (stack.off, [r.off for r in rows])):
                    assert state.mean_q.tobytes() == np.array([s.mean_q for s in states]).tobytes()
                    assert state.cov_n.tobytes() == np.array([s.cov_n for s in states]).tobytes()
