"""Gaussian state constructors, beam splitter, and their moments."""

import numpy as np
import oracles as orc
import pytest

from gillum import (
    GaussianState,
    make_cct,
    make_coherent,
    make_thermal,
    make_tmsv,
    make_vacuum,
    symplectic_form,
    tensor,
    williamson,
)
from gillum.states import beam_splitter_matrix


def random_state(rng, n_modes=2):
    """Random physical Gaussian state: a rotated/squeezed thermal product."""
    state = make_thermal(rng.uniform(0, 2))
    for _ in range(n_modes - 1):
        state = tensor(state, make_thermal(rng.uniform(0, 2)))
    for _ in range(3):
        i, j = rng.choice(n_modes, size=2, replace=False)
        t = np.cos(rng.uniform(0, np.pi / 2))
        state = orc.beam_split(state, i, j, t, np.sqrt(1 - t * t),
                               rng.uniform(0, 2 * np.pi))
    return state


def test_vacuum_cov_slots():
    v = make_vacuum(1)
    mean, moments = orc.mode_moments(v)
    # <a a>, <a a^dag>; <a^dag a>, <a^dag a^dag>
    assert np.allclose(moments, [[0.0, 1.0], [0.0, 0.0]])
    assert np.array_equal(v.cov_n, np.zeros((2, 2)))
    assert np.allclose(mean, 0.0)


def test_vacuum_symplectic_eigenvalues():
    v = make_vacuum(2)
    assert np.allclose(williamson(v)[0], 0.5, atol=1e-12)


def test_vacuum_mean_photons():
    assert make_vacuum(1).mean_photon(0) == 0.0


def test_thermal_zero_is_vacuum():
    assert np.allclose(make_thermal(0.0).cov_n, make_vacuum(1).cov_n)


def test_thermal_aadag_entry():
    assert orc.mode_moments(make_thermal(30.0))[1][0, 1] == 31.0  # <a a^dag>


def test_thermal_photon_variance_matches_geometric_sum():
    # brute-force moments of the geometric photon distribution, cutoff 40
    n_mean = 0.5
    n = np.arange(41)
    p = (n_mean / (1 + n_mean)) ** n / (1 + n_mean)
    var_fock = float(np.sum(p * n * n) - np.sum(p * n) ** 2)
    assert abs(var_fock - (n_mean**2 + n_mean)) < 1e-8
    # the covariance entries encode the same second moment
    st = make_thermal(n_mean)
    m = orc.mode_moments(st)[1]
    var_state = (m[0, 1] * m[1, 0]).real  # <a a+><a+ a> = n(n+1)
    assert abs(var_state - var_fock) < 1e-8


def test_coherent_zero_is_vacuum():
    c = make_coherent(0.0)
    assert np.allclose(c.cov_n, make_vacuum(1).cov_n)
    assert np.allclose(c.mean_q, 0.0)


def test_coherent_total_photons():
    n_s = 3.7
    c = make_coherent(np.sqrt(n_s))
    assert abs(c.mean_photon(0) - n_s) < 1e-12


def test_coherent_quadrature_means():
    q = make_coherent(1 + 1j)
    assert np.allclose(q.mean_q, [np.sqrt(2), np.sqrt(2)], atol=1e-12)


def test_tmsv_zero_is_vacuum():
    assert np.allclose(make_tmsv(0.0).cov_n, make_vacuum(2).cov_n)


def test_tmsv_cross_entry():
    assert abs(orc.mode_moments(make_tmsv(1.0))[1][0, 1] - np.sqrt(2.0)) < 1e-14  # <a_S a_I>


def test_tmsv_cross_moment_matches_schmidt_sum():
    # <a_S a_I> = sum_n c_n c_{n+1} (n+1) with c_n = sqrt(N^n/(1+N)^(n+1))
    n_s = 0.2
    n = np.arange(25)
    c = np.sqrt(n_s**n / (1 + n_s) ** (n + 1))
    mom = float(np.sum(c[:-1] * c[1:] * (n[:-1] + 1)))
    assert abs(orc.mode_moments(make_tmsv(n_s))[1][0, 1].real - mom) < 1e-9


def test_beam_splitter_identity():
    st = make_tmsv(0.7)
    out = orc.beam_split(st, 0, 1, 1.0, 0.0, 0.3)
    assert np.allclose(out.cov_n, st.cov_n, atol=1e-14)
    assert np.allclose(out.mean_q, st.mean_q, atol=1e-14)


def test_beam_splitter_splits_thermal_evenly():
    st = tensor(make_thermal(2.0), make_vacuum(1))
    out = orc.beam_split(st, 0, 1, 1 / np.sqrt(2), 1 / np.sqrt(2), 0.0)
    assert abs(out.mean_photon(0) - 1.0) < 1e-12
    assert abs(out.mean_photon(1) - 1.0) < 1e-12


@pytest.mark.parametrize("t,phase", [(0.3, 0.0), (0.8, 1.1), (0.6, -2.0)])
def test_beam_splitter_preserves_total_photons(t, phase):
    st = make_tmsv(1.0)
    out = orc.beam_split(st, 0, 1, t, np.sqrt(1 - t * t), phase)
    assert abs(out.mean_photon(0) + out.mean_photon(1) - 2.0) < 1e-12


def test_beam_splitter_rejects_nonunitary():
    with pytest.raises(ValueError):
        orc.beam_split(make_vacuum(2), 0, 1, 0.9, 0.9, 0.0)


def test_cct_zero_is_vacuum():
    assert np.allclose(make_cct(0.0, 0.0).cov_n, make_vacuum(2).cov_n)


def test_cct_cross_entry():
    st = make_cct(1.0, 2.0)
    assert abs(orc.mode_moments(st)[1][0, 3] - np.sqrt(2.0)) < 1e-12  # <a_S a_I^dag>
    assert abs(st.mean_photon(0) - 1.0) < 1e-12
    assert abs(st.mean_photon(1) - 2.0) < 1e-12


def test_cct_moments_are_exact_and_real():
    for n_s, n_i in ((1.0, 2.0), (0.3, 7.0), (20.0, 1e-3), (0.0, 2.5)):
        st = make_cct(n_s, n_i)
        assert st.mean_photon(0) == n_s
        assert st.mean_photon(1) == n_i
        moments = orc.mode_moments(st)[1]
        assert moments[2, 1] == np.sqrt(n_s * n_i)  # <a_S^dag a_I>
        assert np.all(moments.imag == 0)


def test_cct_is_classical_and_physical():
    st = make_cct(1.0, 1.0)
    m = orc.mode_moments(st)[1]
    assert np.max(np.abs(m[:2, :2])) < 1e-12  # no squeeze correlations
    assert np.all(williamson(st)[0] >= 0.5 - 1e-9)


def test_quadrature_vacuum():
    assert np.allclose(make_vacuum(1).cov_q, 0.5 * np.eye(2))


def test_quadrature_thermal():
    q = make_thermal(3.0)
    assert np.allclose(q.cov_q, 3.5 * np.eye(2), atol=1e-12)


def test_tmsv_is_pure():
    assert np.allclose(williamson(make_tmsv(1.0))[0], 0.5, atol=1e-10)


def test_constructors_are_physical():
    states = [make_vacuum(2), make_thermal(1.3), make_coherent(2 - 1j),
              make_tmsv(0.8), make_cct(0.5, 1.5)]
    for st in states:
        assert np.all(williamson(st)[0] >= 0.5 - 1e-9)


def test_beam_splitter_preserves_symplectic_spectrum():
    rng = np.random.RandomState(5)
    for _ in range(6):
        st = random_state(rng, n_modes=2)
        t = np.cos(rng.uniform(0, np.pi / 2))
        out = orc.beam_split(st, 0, 1, t, np.sqrt(1 - t * t),
                             rng.uniform(0, 2 * np.pi))
        assert np.allclose(np.sort(williamson(out)[0]),
                           np.sort(williamson(st)[0]), atol=1e-9)


def test_tmsv_reduction_is_thermal():
    n_s = 0.9
    red = make_tmsv(n_s).cov_n[2:, 2:]  # the idler's block
    assert np.max(np.abs(red - make_thermal(n_s).cov_n)) < 1e-12


def test_invalid_inputs_rejected():
    with pytest.raises(ValueError):
        make_thermal(-0.1)
    with pytest.raises(ValueError):
        make_tmsv(-1.0)
    with pytest.raises(ValueError):
        GaussianState(np.zeros(2), np.array([[1.0, 0.5], [0.0, 1.0]]))  # asymmetric cov_n
    with pytest.raises(ValueError):
        GaussianState(np.zeros(2), np.zeros((4, 4)))  # cov_n of the wrong shape


def test_beam_splitter_matrix_is_orthogonal_and_symplectic():
    rng = np.random.default_rng(9)
    for n, i, j in ((2, 0, 1), (2, 1, 0), (3, 2, 0)):
        t = np.cos(rng.uniform(0, np.pi / 2))
        s = beam_splitter_matrix(n, i, j, t, np.sqrt(1 - t * t), rng.uniform(0, 2 * np.pi))
        omega = symplectic_form(n)
        assert np.max(np.abs(s @ s.T - np.eye(2 * n))) < 1e-15
        assert np.max(np.abs(s @ omega @ s.T - omega)) < 1e-15


def test_symmetry_check_is_relative_to_the_largest_entry():
    # a bright beam-splitter output carries round-off asymmetry above 1e-10
    # in absolute terms; it is a symmetric state all the same
    bright = orc.beam_split(tensor(make_thermal(1e6), make_thermal(3.7e5)),
                            0, 1, 0.6, 0.8, 0.3)
    assert abs(bright.mean_photon(0) + bright.mean_photon(1) - 1.37e6) <= 1e-9 * 1.37e6
    with pytest.raises(ValueError):  # a real asymmetry of a bright state
        GaussianState(np.zeros(2), np.array([[1e6, 1.0], [0.0, 1e6]]))


def test_symmetry_check_is_per_matrix_in_a_stack():
    # a bright row's round-off asymmetry must not lend its tolerance to a dim
    # row: each matrix is checked relative to its own largest entry
    bright = np.array([[1e6, 1e-5], [0.0, 1e6]])  # 1e-11 relative: symmetric
    dim = np.array([[1.0, 1e-8], [0.0, 1.0]])  # 1e-8 relative: not symmetric
    GaussianState(np.zeros(2), bright)
    with pytest.raises(ValueError, match="not symmetric"):
        GaussianState(np.zeros(2), dim)
    GaussianState(np.zeros((2, 2)), np.stack([bright, np.eye(2)]))
    for stack in (np.stack([bright, dim]), np.stack([dim, bright]),
                  np.stack([[bright, bright], [bright, dim]])):
        with pytest.raises(ValueError, match="not symmetric"):
            GaussianState(np.zeros(stack.shape[:-1]), stack)


def test_stack_shapes_are_checked():
    GaussianState(np.zeros((3, 4)), np.zeros((3, 4, 4)))
    for mean_q, cov_n in ((np.zeros((3, 4)), np.zeros((2, 4, 4))),
                          (np.zeros((3, 4)), np.zeros((4, 4))),
                          (np.zeros(()), np.zeros(())), (np.zeros((3, 3)), np.zeros((3, 3, 3)))):
        with pytest.raises(ValueError, match="shape"):
            GaussianState(mean_q, cov_n)


def _same_bytes(state, states):
    assert state.mean_q.tobytes() == np.array([s.mean_q for s in states]).tobytes()
    assert state.cov_n.tobytes() == np.array([s.cov_n for s in states]).tobytes()


def test_stacked_constructors_equal_per_point_calls():
    # arrays of photon numbers or amplitudes give a stack whose rows carry
    # the bytes of the per-point calls, n_s = 0 (a -0.0 entry for TMSV) included
    n_s = np.concatenate([[0.0], np.logspace(-3, 3, 11)])
    for grid in (n_s, n_s.reshape(3, 4)):
        flat = grid.ravel()
        stack = make_tmsv(grid)
        assert stack.mean_q.shape == grid.shape + (4,) and stack.n_modes == 2
        _same_bytes(stack, [make_tmsv(n) for n in flat])
        _same_bytes(make_cct(grid, grid), [make_cct(n, n) for n in flat])
        _same_bytes(make_cct(grid, 0.7), [make_cct(n, 0.7) for n in flat])
        _same_bytes(make_cct(2.5, grid), [make_cct(2.5, n) for n in flat])
        _same_bytes(make_coherent(np.sqrt(grid)), [make_coherent(np.sqrt(n)) for n in flat])
        amp = np.sqrt(grid) * np.exp(0.3j * grid)
        _same_bytes(make_coherent(amp), [make_coherent(a) for a in amp.ravel()])
    for bad in (np.array([0.5, -0.1]), np.array(-1.0)):
        with pytest.raises(ValueError):
            make_tmsv(bad)
        with pytest.raises(ValueError):
            make_cct(bad, 1.0)
        with pytest.raises(ValueError):
            make_cct(1.0, bad)
