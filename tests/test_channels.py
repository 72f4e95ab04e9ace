"""Target channel outputs under both background-noise conventions."""

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
    QuadratureState,
    ScenarioParams,
    SourceKind,
    apply_beam_splitter,
    apply_target,
    from_quadrature,
    hypothesis_pair,
    make_tmsv,
    obs_number,
    obs_quadrature,
    stats,
)


def tmsv_output_expected(kappa, n_s, n_b):
    a = kappa * n_s + n_b
    c = np.sqrt(kappa * n_s * (n_s + 1))
    return np.array([
        [a + 1, 0, 0, c],
        [0, n_s + 1, c, 0],
        [0, c, a, 0],
        [c, 0, 0, n_s],
    ])


def test_tmsv_constant_noise_matches_known_covariance():
    params = ScenarioParams(kappa=0.01, n_s=0.01, n_b=30.0)
    out = apply_target(make_tmsv(params.n_s), 0, params, present=True)
    assert np.max(np.abs(out.cov - tmsv_output_expected(0.01, 0.01, 30.0))) < 1e-12
    assert np.max(np.abs(out.mean)) == 0.0


def test_kappa_zero_on_equals_off():
    params = ScenarioParams(kappa=0.0, n_s=0.4, n_b=2.0)
    pair = hypothesis_pair(SourceKind.TMSV, params)
    assert np.max(np.abs(pair.on.cov - pair.off.cov)) < 1e-14


def test_cct_output_matches_known_covariance():
    n_s, n_i, n_b, kappa = 1.0, 2.0, 30.0, 0.25
    params = ScenarioParams(kappa=kappa, n_s=n_s, n_i=n_i, n_b=n_b)
    pair = hypothesis_pair(SourceKind.CCT, params)
    b = kappa * n_s + n_b
    d = np.sqrt(kappa * n_s * n_i)
    expected = np.array([
        [b + 1, d, 0, 0],
        [d, n_i + 1, 0, 0],
        [0, 0, b, d],
        [0, 0, d, n_i],
    ])
    assert np.max(np.abs(pair.on.cov - expected)) < 1e-12


def test_cct_kappa_zero_pair_identical():
    params = ScenarioParams(kappa=0.0, n_s=1.0, n_i=2.0, n_b=3.0)
    pair = hypothesis_pair(SourceKind.CCT, params)
    assert np.max(np.abs(pair.on.cov - pair.off.cov)) < 1e-14


def test_tmsv_pair_differs_only_in_correlations_and_signal_number():
    params = ScenarioParams(kappa=0.01, n_s=0.01, n_b=30.0)
    pair = hypothesis_pair(SourceKind.TMSV, params)
    diff = pair.on.cov - pair.off.cov
    # only the squeeze entries and the signal-number diagonal move
    mask = np.zeros((4, 4), dtype=bool)
    mask[0, 3] = mask[1, 2] = mask[2, 1] = mask[3, 0] = True
    mask[0, 0] = mask[2, 2] = True
    assert np.max(np.abs(diff[~mask])) < 1e-14
    assert abs(diff[0, 0] - 0.01 * 0.01) < 1e-14


def test_coherent_pair_through_channel():
    params = ScenarioParams(kappa=0.2, n_s=0.3, n_b=0.3)
    pair = hypothesis_pair(SourceKind.COHERENT, params)
    assert abs(pair.on.mean[0] - np.sqrt(0.2 * 0.3)) < 1e-12
    assert abs(pair.off.mean[0]) < 1e-14
    # covariance is the thermal background in both hypotheses
    assert np.max(np.abs(pair.on.cov - np.diag([1.3, 0.3]))) < 1e-12
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
        off = hypothesis_pair(SourceKind.TMSV, params).off
        assert np.max(np.abs(off.cov - tmsv_output_expected(0.0, 0.7, 2.0))) < 1e-12


def test_nonconstant_occupancy():
    params = ScenarioParams(kappa=0.3, n_s=0.5, n_b=2.0,
                            noise_model=NoiseModel.NONCONSTANT)
    on = hypothesis_pair(SourceKind.TMSV, params).on
    b = 0.3 * 0.5 + 0.7 * 2.0
    assert abs(on.cov[2, 2].real - b) < 1e-12


def test_models_coincide_at_kappa_zero():
    base = dict(kappa=0.0, n_s=0.4, n_b=1.5)
    on_c = hypothesis_pair(
        SourceKind.TMSV, ScenarioParams(**base, noise_model=NoiseModel.CONSTANT)).on
    on_n = hypothesis_pair(
        SourceKind.TMSV, ScenarioParams(**base, noise_model=NoiseModel.NONCONSTANT)).on
    assert np.max(np.abs(on_c.cov - on_n.cov)) == 0.0


def test_output_physical_for_random_inputs():
    rng = np.random.RandomState(3)
    for _ in range(6):
        params = ScenarioParams(kappa=float(rng.uniform(0, 0.9)),
                                n_s=float(rng.uniform(0, 3)),
                                n_b=float(rng.uniform(0, 5)))
        pair = hypothesis_pair(SourceKind.TMSV, params)
        assert pair.on.is_physical() and pair.off.is_physical()


def test_correlation_strictly_increasing_in_kappa():
    n_s = 0.5
    prev = -1.0
    for kappa in np.linspace(0.01, 0.9, 15):
        params = ScenarioParams(kappa=float(kappa), n_s=n_s, n_b=1.0)
        c = hypothesis_pair(SourceKind.TMSV, params).on.cov[0, 3].real
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
    state = from_quadrature(QuadratureState(np.zeros(2 * n_modes), block_diag(*blocks)))
    for _ in range(n_modes - 1):
        i, j = rng.choice(n_modes, size=2, replace=False)
        t = np.cos(rng.uniform(0, np.pi / 2))
        state = apply_beam_splitter(state, i, j, t, np.sqrt(1 - t * t),
                                    rng.uniform(0, 2 * np.pi))
    alpha = rng.normal(size=n_modes) + 1j * rng.normal(size=n_modes)
    return GaussianState(np.concatenate([alpha, alpha.conj()]), state.cov)


def test_apply_target_matches_beam_splitter_circuit():
    rng = np.random.default_rng(4)
    for n_modes in (1, 2, 3):
        for signal_mode in range(n_modes):
            state = seeded_state(rng, n_modes)
            for model in NoiseModel:
                kappas = (0.0, 0.3, 1.0) if model is NoiseModel.NONCONSTANT else (0.0, 0.3)
                for kappa in kappas:
                    params = ScenarioParams(kappa=kappa, n_s=0.0,
                                            n_b=float(rng.uniform(0, 5)), noise_model=model)
                    for present in (True, False):
                        out = apply_target(state, signal_mode, params, present)
                        ref = orc.target_channel_reference(state, signal_mode, params,
                                                           present)
                        assert np.max(np.abs(out.cov - ref.cov)) < 1e-13
                        assert np.max(np.abs(out.mean - ref.mean)) < 1e-13


def test_constant_model_rejects_unit_reflectance():
    params = ScenarioParams(kappa=1.0, n_s=0.5, n_b=1.0)
    with pytest.raises(ValueError):
        apply_target(make_tmsv(0.5), 0, params, present=True)
    # absent never raises
    apply_target(make_tmsv(0.5), 0, params, present=False)


def test_nonconstant_model_allows_unit_reflectance():
    params = ScenarioParams(kappa=1.0, n_s=0.5, n_b=1.0,
                            noise_model=NoiseModel.NONCONSTANT)
    on = apply_target(make_tmsv(0.5), 0, params, present=True)
    assert abs(on.cov[2, 2].real - 0.5) < 1e-12


def test_param_validation():
    with pytest.raises(ValueError):
        ScenarioParams(kappa=1.2, n_s=0.1, n_b=0.1)
    with pytest.raises(ValueError):
        ScenarioParams(kappa=0.1, n_s=-0.1, n_b=0.1)
    with pytest.raises(ValueError):
        ScenarioParams(kappa=0.1, n_s=0.1, n_b=0.1, m_modes=0)
