"""Observable engine: constructors, exact moments, transforms, heterodyne readout."""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

import oracles as orc
from gillum import (
    QuadraticObservable,
    ScenarioParams,
    heterodyne,
    hypothesis_pair,
    make_cct,
    make_coherent,
    make_thermal,
    make_tmsv,
    make_vacuum,
    obs_bound,
    obs_dh,
    obs_hd_product,
    obs_number,
    obs_number_difference,
    obs_off,
    obs_opa,
    obs_pc,
    obs_quadrature,
    obs_squeeze_difference,
    stats,
    tensor,
    transform_by_beam_splitter,
)

KAPPA, NS, NB = 0.01, 0.01, 30.0
A = KAPPA * NS + NB
C = np.sqrt(KAPPA * NS * (NS + 1))


@pytest.fixture(scope="module")
def tmsv_pair():
    return hypothesis_pair(make_tmsv(NS), ScenarioParams(kappa=KAPPA, n_s=NS, n_b=NB))


def random_observable(rng, n):
    hr = rng.randn(2 * n, 2 * n)
    return QuadraticObservable(float(rng.randn()), 0.5 * (hr + hr.T), rng.randn(2 * n))


def test_number_on_thermal():
    st = stats(obs_number(0, 1), make_thermal(2.0))
    assert abs(st.mean - 2.0) < 1e-14
    assert abs(st.variance - 6.0) < 1e-13


def test_squeeze_correlation_variance_on_channel_output(tmsv_pair):
    st = stats(obs_bound(0.0, 0.0), tmsv_pair.on)
    expected = (A + 1) * (NS + 1) + 2 * C**2 + A * NS
    assert abs(st.variance - expected) < 1e-12
    assert abs(st.mean - 2 * C) < 1e-14


def test_quadrature_on_coherent():
    st = stats(obs_quadrature(0, 0.0, 1), make_coherent(2.0))
    assert abs(st.mean - 2 * np.sqrt(2)) < 1e-12
    assert abs(st.variance - 0.5) < 1e-12
    # independent check through the characteristic-function oracle:
    # <X> = (<a> + <a+>)/sqrt2, <X^2> = (<a^2> + <a+^2> + 2<a+a> + 1)/2
    coh = make_coherent(2.0)
    m1 = orc.char_fn_moment(coh, (0,), (1,))
    m2 = orc.char_fn_moment(coh, (1,), (0,))
    s2 = orc.char_fn_moment(coh, (0,), (2,))
    s2d = orc.char_fn_moment(coh, (2,), (0,))
    nn = orc.char_fn_moment(coh, (1,), (1,))
    mean = ((m1 + m2) / np.sqrt(2)).real
    second = ((s2 + s2d + 2 * nn + 1) / 2).real
    assert abs(st.mean - mean) < 1e-6
    assert abs(st.variance - (second - mean**2)) < 1e-6


def test_random_observables_match_fock_oracle():
    ns, kappa, nb = 0.2, 0.3, 0.4
    pair = hypothesis_pair(make_tmsv(ns), ScenarioParams(kappa=kappa, n_s=ns, n_b=nb))
    dim_s, dim_i = 30, 24
    rho = orc.tmsv_channel_fock(ns, kappa, nb / (1 - kappa), dim_s, dim_i, 30)
    rng = np.random.RandomState(7)
    for _ in range(3):
        obs = random_observable(rng, 2)
        eng = stats(obs, pair.on)
        fm, fv = orc.fock_stats(obs, rho, (dim_s, dim_i))
        assert abs(eng.mean - fm) < 1e-6
        assert abs(eng.variance - fv) < 1e-6


def test_bound_zero_weights_is_squeeze_correlation():
    # x_S x_I - p_S p_I and no photon-number terms
    obs = obs_bound(0.0, 0.0)
    assert np.allclose(obs.h, [[0, 0, 0.5, 0], [0, 0, 0, -0.5],
                               [0.5, 0, 0, 0], [0, -0.5, 0, 0]])
    assert np.allclose(obs.lin, 0.0)
    assert obs.c0 == 0.0


def test_bound_negative_idler_weight():
    # beta n_I = beta (x_I^2 + p_I^2)/2 - beta/2
    obs = obs_bound(0.0, -0.37)
    assert obs.h[2, 2] == obs.h[3, 3] == -0.37 / 2
    assert obs.h[0, 0] == obs.h[1, 1] == 0.0


def test_dh_equals_shifted_negated_bound():
    dh = obs_dh()
    ref = obs_bound(1.0, 1.0)
    cross = ~np.eye(4, dtype=bool)
    assert np.allclose(np.diag(dh.h), np.diag(ref.h))  # the photon numbers
    assert np.allclose(dh.h[cross], -ref.h[cross])     # the squeeze coupling
    assert dh.c0 == 1.0


def test_pc_constraint_enforced():
    obs_pc(np.sqrt(2.0), 1.0)
    with pytest.raises(ValueError):
        obs_pc(1.0, 0.0)


def test_pc_stats_match_closed_form(tmsv_pair):
    obs = obs_pc(np.sqrt(2.0), 1.0)
    on3 = tensor(tmsv_pair.on, make_vacuum(1))
    off3 = tensor(tmsv_pair.off, make_vacuum(1))
    s_on, s_off = stats(obs, on3), stats(obs, off3)
    d_on = (A + 1) * (NS + 1) + 2 * C**2 + A * NS
    d_off = (NB + 1) * (NS + 1) + NB * NS
    # nu = 1 so variances are the squeeze-correlation ones plus (mu/nu)^2 N_S
    assert abs(s_on.variance - (d_on + 2 * NS)) < 1e-12
    assert abs(s_off.variance - (d_off + 2 * NS)) < 1e-12
    assert abs((s_on.mean - s_off.mean) - 2 * C) < 1e-14


def test_opa_rejects_unit_gain():
    with pytest.raises(ValueError):
        obs_opa(1.0)


@pytest.mark.parametrize("gain", [1.0 + 7.4e-5, 1.7, 40.0])
def test_opa_is_a_bound_family_member(gain):
    # sqrt(G(G-1)) O_bound(sqrt((G-1)/G), sqrt(G/(G-1))) + (G - 1): the
    # identity behind the amplifier closed form's weight vector; h to 1e-15
    # of its largest entry
    scale = np.sqrt(gain * (gain - 1.0))
    family = obs_bound(np.sqrt((gain - 1.0) / gain), np.sqrt(gain / (gain - 1.0)))
    opa, ref = obs_opa(gain), family.affine(scale, gain - 1.0)
    assert np.max(np.abs(opa.h - ref.h)) <= 1e-15 * np.max(np.abs(opa.h))
    assert np.max(np.abs(opa.lin - ref.lin)) <= 1e-15
    assert abs(opa.c0 - ref.c0) <= 1e-15


def test_opa_gain_to_one_limit(tmsv_pair):
    # as G -> 1+ the observable reduces to the idler number: no reflectance
    # dependence survives, so the SNR collapses
    from gillum import snr_generic, snr_nearly_bound

    snr = snr_generic(obs_opa(1.0 + 1e-12), tmsv_pair, 1)
    ref = snr_nearly_bound(ScenarioParams(kappa=KAPPA, n_s=NS, n_b=NB))
    assert snr < 1e-6 * ref


def test_dh_on_vacuum_mean_one():
    st = stats(obs_dh(), make_vacuum(2))
    assert abs(st.mean - 1.0) < 1e-14


def test_dh_mean_difference(tmsv_pair):
    s_on, s_off = stats(obs_dh(), tmsv_pair.on), stats(obs_dh(), tmsv_pair.off)
    assert abs((s_off.mean - s_on.mean) - (2 * C - KAPPA * NS)) < 1e-13


def test_off_observable_on_correlated_thermal_pair():
    params = ScenarioParams(kappa=0.01, n_s=1.0, n_i=2.0, n_b=30.0)
    pair = hypothesis_pair(make_cct(params.n_s, params.n_i), params)
    s_on = stats(obs_off(), pair.on)
    assert abs(s_on.mean - 2 * np.sqrt(0.01 * 1.0 * 2.0)) < 1e-12


def test_off_observable_on_uncorrelated_thermals():
    st = stats(obs_off(), tensor(make_thermal(1.0), make_thermal(2.0)))
    assert st.mean == 0.0


def test_number_difference_transforms_to_off_observable():
    sq = 1 / np.sqrt(2)
    out = transform_by_beam_splitter(obs_number_difference(), sq, sq, np.pi / 2)
    target = obs_off()
    assert np.max(np.abs(out.h + target.h)) < 1e-12  # minus the cross observable
    assert np.max(np.abs(out.lin)) < 1e-12
    assert abs(out.c0) < 1e-12


def test_number_difference_at_zero_phase_has_imaginary_coupling():
    # an imaginary a_S^dag a_I coupling is the antisymmetric x_S p_I - p_S x_I
    sq = 1 / np.sqrt(2)
    out = transform_by_beam_splitter(obs_number_difference(), sq, sq, 0.0)
    off = np.ones((4, 4), dtype=bool)
    off[0, 3] = off[3, 0] = off[1, 2] = off[2, 1] = False
    assert np.max(np.abs(out.h[off])) < 1e-12
    assert abs(out.h[0, 3] + out.h[1, 2]) < 1e-12
    assert abs(out.h[0, 3]) > 0.45
    # zero mean on correlated-thermal states (their cross moments are real)
    st = stats(out, hypothesis_pair(
        make_cct(1.0, 2.0), ScenarioParams(kappa=0.3, n_s=1.0, n_i=2.0, n_b=0.5)).on)
    assert abs(st.mean) < 1e-12


def test_transform_identity():
    obs = obs_bound(0.3, -0.2)
    out = transform_by_beam_splitter(obs, 1.0, 0.0, 0.7)
    assert np.max(np.abs(out.h - obs.h)) < 1e-12
    assert np.max(np.abs(out.lin - obs.lin)) < 1e-12


def test_transform_heisenberg_schroedinger_consistency():
    rng = np.random.RandomState(19)
    params = ScenarioParams(kappa=0.3, n_s=0.6, n_b=0.8)
    state = hypothesis_pair(make_tmsv(params.n_s), params).on
    for _ in range(5):
        obs = random_observable(rng, 2)
        t = np.cos(rng.uniform(0, np.pi / 2))
        r = np.sqrt(1 - t * t)
        phase = rng.uniform(0, 2 * np.pi)
        moved_state = orc.beam_split(state, 0, 1, t, r, phase)
        moved_obs = transform_by_beam_splitter(obs, t, r, phase)
        a = stats(obs, moved_state)
        b = stats(moved_obs, state)
        assert abs(a.mean - b.mean) < 1e-10 * max(1, abs(a.mean))
        assert abs(a.variance - b.variance) < 1e-10 * max(1, a.variance)


def test_hd_product_mean_shift(tmsv_pair):
    obs = obs_hd_product(0.0, 0.0)
    s_on, s_off = stats(obs, tmsv_pair.on), stats(obs, tmsv_pair.off)
    assert abs((s_on.mean - s_off.mean) - C) < 1e-14


def test_hd_product_optimal_at_angle_sum_pi(tmsv_pair):
    best = max(np.linspace(0, 2 * np.pi, 41),
               key=lambda phi: abs(stats(obs_hd_product(0.4, phi), tmsv_pair.on).mean
                                   - stats(obs_hd_product(0.4, phi), tmsv_pair.off).mean))
    target = (np.pi - 0.4) % (2 * np.pi)
    gaps = [abs(best - target), abs(best - target - np.pi), abs(best - target + np.pi)]
    assert min(gaps) < 0.2


def test_hd_product_on_vacuum():
    st = stats(obs_hd_product(0.0, 0.0), make_vacuum(2))
    assert abs(st.mean) < 1e-14
    assert abs(st.variance - 0.25) < 1e-14


def test_heterodyne_squeeze_correlation_rule(tmsv_pair):
    base = stats(obs_bound(0.0, 0.0), tmsv_pair.on)
    het = stats(heterodyne(obs_bound(0.0, 0.0)), tmsv_pair.on)
    expected = base.variance + (1 + NB + (1 + KAPPA) * NS)
    assert abs(4 * het.variance - expected) < 1e-12
    assert abs(2 * het.mean - base.mean) < 1e-15


def test_double_heterodyne_after_recombiner_rule(tmsv_pair):
    sq = 1 / np.sqrt(2)
    mixed = orc.beam_split(tmsv_pair.on, 0, 1, sq, sq, np.pi / 2)
    base = stats(obs_squeeze_difference(), mixed)
    het = stats(heterodyne(obs_squeeze_difference()), mixed)
    expected = base.variance + (1 + NB + (1 + KAPPA) * NS)
    assert abs(4 * het.variance - expected) < 1e-11


def test_heterodyne_rules_match_enlarged_mode_simulation():
    # the oracle writes the X X - P P readout's vacuum ancillas out by hand
    params = ScenarioParams(kappa=0.05, n_s=0.4, n_i=0.3, n_b=0.3)
    pair = hypothesis_pair(make_tmsv(params.n_s), params)
    for state in (pair.on, pair.off):
        big = tensor(tensor(state, make_vacuum(1)), make_vacuum(1))
        sim = stats(orc.heterodyned_cross_observable(-1.0), big)
        het = stats(heterodyne(obs_bound(0.0, 0.0)), state)
        assert abs(sim.mean - het.mean) < 1e-12
        assert abs(sim.variance - het.variance) < 1e-12


def test_double_heterodyne_matches_enlarged_mode_simulation(tmsv_pair):
    # heterodynes after the recombiner, referred back to the incoming modes,
    # against the oracle's readout of the recombined state
    sq = 1 / np.sqrt(2)
    recombined = transform_by_beam_splitter(heterodyne(obs_squeeze_difference()),
                                            sq, sq, np.pi / 2)
    for state in (tmsv_pair.on, tmsv_pair.off):
        mixed = orc.beam_split(state, 0, 1, sq, sq, np.pi / 2)
        big = tensor(tensor(mixed, make_vacuum(1)), make_vacuum(1))
        sim = stats(orc.heterodyned_square_difference(), big)
        het = stats(recombined, state)
        assert abs(sim.mean - het.mean) < 1e-12
        assert abs(sim.variance - het.variance) < 1e-10 * max(1, het.variance)


def test_heterodyne_keeps_c0_trace_and_vacuum_mean():
    # on vacuum input the open ports change no mean, for any mode count
    rng = np.random.RandomState(23)
    for n in (1, 2, 3):
        obs = random_observable(rng, n)
        het = heterodyne(obs)
        assert het.n_modes == 2 * n and het.c0 == obs.c0
        assert abs(np.trace(het.h) - np.trace(obs.h)) < 1e-13 * max(1, np.abs(obs.h).max())
        assert abs(stats(het, make_vacuum(n)).mean - stats(obs, make_vacuum(n)).mean) < 1e-13


def test_stats_pads_missing_modes_with_vacuum():
    rng = np.random.RandomState(29)
    pair = hypothesis_pair(make_tmsv(1.3), ScenarioParams(kappa=0.2, n_s=1.3, n_b=2.1))
    displaced = tensor(make_coherent(0.7 - 0.4j), make_thermal(0.9))
    for state in (pair.on, pair.off, displaced, make_thermal(2.5)):
        for extra in (1, 2):
            obs = random_observable(rng, state.n_modes + extra)
            short = stats(obs, state)
            full = stats(obs, tensor(state, make_vacuum(extra)))
            assert abs(short.mean - full.mean) <= 1e-15 * max(abs(full.mean), 1e-300)
            assert abs(short.variance - full.variance) <= 1e-15 * full.variance


def test_stats_rejects_state_with_more_modes_than_observable(tmsv_pair):
    with pytest.raises(ValueError, match="more modes"):
        stats(obs_number(0, 1), tmsv_pair.on)
    with pytest.raises(ValueError, match="more modes"):
        stats(heterodyne(obs_bound(0.0, 0.0)), tensor(tmsv_pair.on, make_vacuum(3)))


def test_one_state_operations_reject_stacks():
    # stats and tensor read one state; a stack of one or more rows is refused
    for stack in (make_tmsv(np.array([0.3, 1.2])), make_tmsv(np.array([0.3])),
                  make_coherent(np.ones((2, 2)))):
        with pytest.raises(ValueError, match="stack"):
            stats(obs_number(0, 2), stack)
        with pytest.raises(ValueError, match="stack"):
            tensor(stack, make_vacuum(1))
        with pytest.raises(ValueError, match="stack"):
            tensor(make_vacuum(1), stack)


def test_char_fn_oracle_basics():
    assert abs(orc.char_fn_moment(make_thermal(2.0), (1,), (1,)) - 2.0) < 1e-6
    assert abs(orc.char_fn_moment(make_tmsv(1.0), (0, 0), (1, 1))
               - np.sqrt(2.0)) < 1e-6


def test_char_fn_oracle_squeeze_square():
    # <(a_S+ a_I+ + a_S a_I)^2> expanded into normal-ordered moments;
    # the derivative oracle is accurate on small-photon-number states
    st = hypothesis_pair(make_tmsv(0.2), ScenarioParams(kappa=0.3, n_s=0.2, n_b=0.4)).on
    total = (orc.char_fn_moment(st, (2, 2), (0, 0))
             + 2 * orc.char_fn_moment(st, (1, 1), (1, 1))
             + orc.char_fn_moment(st, (1, 0), (1, 0))
             + orc.char_fn_moment(st, (0, 1), (0, 1)) + 1.0
             + orc.char_fn_moment(st, (0, 0), (2, 2)))
    eng = stats(obs_bound(0.0, 0.0), st)
    assert abs(total.real - (eng.variance + eng.mean**2)) < 1e-6


def test_wick_recursion_matches_engine(tmsv_pair):
    st = tmsv_pair.on
    terms = [((0, True), (1, True)), ((0, False), (1, False))]
    total = 0.0
    for first in terms:
        for second in terms:
            total += orc.wick_moment(st, list(first) + list(second)).real
    eng = stats(obs_bound(0.0, 0.0), st)
    assert abs(total - (eng.variance + eng.mean**2)) < 1e-12


def test_means_are_real_on_physical_states():
    rng = np.random.RandomState(23)
    params = ScenarioParams(kappa=0.2, n_s=0.7, n_b=1.1)
    states = [hypothesis_pair(make_tmsv(params.n_s), params).on,
              make_coherent(0.7 - 0.2j), make_thermal(0.4)]
    for st in states:
        out = stats(random_observable(rng, st.n_modes), st)
        assert type(out.mean) is float and np.isfinite(out.mean)


def test_affine_covariance():
    rng = np.random.RandomState(29)
    st = make_tmsv(0.5)
    for _ in range(5):
        obs = random_observable(rng, 2)
        a, b = float(rng.randn()), float(rng.randn())
        base = stats(obs, st)
        moved = stats(obs.affine(a, b), st)
        assert abs(moved.mean - (a * base.mean + b)) < 1e-12 * max(1, abs(base.mean))
        assert abs(moved.variance - a * a * base.variance) < 1e-11 * max(1, base.variance)


def test_variance_nonnegative_after_clamp():
    # pure-state squeeze correlations can cancel to zero variance numerically
    st = stats(obs_quadrature(0, 0.0, 2), make_tmsv(0.0))
    assert st.variance >= 0.0


def test_invalid_coefficient_blocks_rejected():
    with pytest.raises(ValueError, match="real"):  # would be cast to [[0, 0], [0, 0]]
        QuadraticObservable(0.0, np.array([[1j, 0], [0, 0]]), np.zeros(2))
    with pytest.raises(ValueError, match="real"):
        QuadraticObservable(0.0, np.zeros((2, 2)), np.array([1.0, 1j]))
    with pytest.raises(ValueError, match="symmetric"):
        QuadraticObservable(0.0, np.array([[1.0, 0.5], [0.0, 1.0]]), np.zeros(2))
    # an asymmetry within the relative tolerance of a large h is round-off
    QuadraticObservable(0.0, np.array([[1e6, 1.0], [1.0 + 1e-8, 1e6]]), np.zeros(2))
    for h, lin in ((np.zeros((2, 2)), np.zeros(3)), (np.zeros((4, 4)), np.zeros(2)),
                   (np.zeros((1, 1)), np.zeros(1)), (np.zeros((2, 2)), np.zeros((2, 1)))):
        with pytest.raises(ValueError, match="shape"):
            QuadraticObservable(0.0, h, lin)


def _squeeze(a, d):
    return d[0] @ d[1] + a[0] @ a[1]


def _quad(a, d, k, angle):
    return (d[k] * np.exp(1j * angle) + a[k] * np.exp(-1j * angle)) / np.sqrt(2)


_MU, _NU, _GAIN = np.cosh(0.4), np.sinh(0.4), 1.7
# each catalog constructor with the operator its docstring names, as a
# function of the truncated annihilators a[k] and creators d[k]
_CATALOG = {
    "bound": (obs_bound(0.3, -0.7),
              lambda a, d: _squeeze(a, d) + 0.3 * d[0] @ a[0] - 0.7 * d[1] @ a[1]),
    "pc": (obs_pc(_MU, _NU),
           lambda a, d: _NU * _squeeze(a, d) + _MU * (d[1] @ a[2] + d[2] @ a[1])),
    "opa": (obs_opa(_GAIN),
            lambda a, d: (np.sqrt(_GAIN * (_GAIN - 1)) * _squeeze(a, d)
                          + (_GAIN - 1) * a[0] @ d[0] + _GAIN * d[1] @ a[1])),
    "dh": (obs_dh(), lambda a, d: -_squeeze(a, d) + a[0] @ d[0] + d[1] @ a[1]),
    "off": (obs_off(), lambda a, d: d[0] @ a[1] + d[1] @ a[0]),
    "number": (obs_number(1, 2), lambda a, d: d[1] @ a[1]),
    "number_difference": (obs_number_difference(),
                          lambda a, d: d[0] @ a[0] - d[1] @ a[1]),
    "quadrature": (obs_quadrature(1, 0.7, 2), lambda a, d: _quad(a, d, 1, 0.7)),
    "hd_product": (obs_hd_product(0.4, 1.9),
                   lambda a, d: _quad(a, d, 0, 0.4) @ _quad(a, d, 1, 1.9)),
    "squeeze_difference": (obs_squeeze_difference(),
                           lambda a, d: 0.5 * (a[1] @ a[1] + d[1] @ d[1]
                                               - a[0] @ a[0] - d[0] @ d[0])),
}


@pytest.mark.parametrize("name", _CATALOG)
def test_catalog_constructor_equals_documented_operator(name):
    obs, operator = _CATALOG[name]
    dim, n = 6, obs.n_modes
    a = []
    for k in range(n):
        full = np.eye(1)
        for j in range(n):
            full = np.kron(full, orc.destroy(dim) if j == k else np.eye(dim))
        a.append(full)
    expected = operator(a, [x.conj().T for x in a])
    # truncation only alters matrix elements that touch the top two levels
    keep = np.all(np.indices((dim,) * n).reshape(n, -1) < dim - 2, axis=0)
    got = orc.observable_matrix(obs, (dim,) * n)
    assert np.max(np.abs((got - expected)[np.ix_(keep, keep)])) < 1e-12
