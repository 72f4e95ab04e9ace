"""Gaussian state constructors, beam splitter, and quadrature conversions."""

import numpy as np
import pytest

from gillum import (
    GaussianState,
    apply_beam_splitter,
    from_quadrature,
    make_cct,
    make_coherent,
    make_thermal,
    make_tmsv,
    make_vacuum,
    tensor,
    to_quadrature,
)


def random_state(rng, n_modes=2):
    """Random physical Gaussian state: a rotated/squeezed thermal product."""
    state = make_thermal(rng.uniform(0, 2))
    for _ in range(n_modes - 1):
        state = tensor(state, make_thermal(rng.uniform(0, 2)))
    for _ in range(3):
        i, j = rng.choice(n_modes, size=2, replace=False)
        t = np.cos(rng.uniform(0, np.pi / 2))
        state = apply_beam_splitter(state, i, j, t, np.sqrt(1 - t * t),
                                    rng.uniform(0, 2 * np.pi))
    return state


def test_vacuum_cov_slots():
    v = make_vacuum(1)
    assert np.allclose(v.cov, np.diag([1.0, 0.0]))
    assert np.allclose(v.mean, 0.0)


def test_vacuum_symplectic_eigenvalues():
    v = make_vacuum(2)
    assert np.allclose(v.symplectic_eigenvalues(), 0.5, atol=1e-12)


def test_vacuum_mean_photons():
    assert make_vacuum(1).mean_photon(0) == 0.0


def test_thermal_zero_is_vacuum():
    assert np.allclose(make_thermal(0.0).cov, make_vacuum(1).cov)


def test_thermal_aadag_entry():
    assert make_thermal(30.0).cov[0, 0] == 31.0


def test_thermal_photon_variance_matches_geometric_sum():
    # brute-force moments of the geometric photon distribution, cutoff 40
    n_mean = 0.5
    n = np.arange(41)
    p = (n_mean / (1 + n_mean)) ** n / (1 + n_mean)
    var_fock = float(np.sum(p * n * n) - np.sum(p * n) ** 2)
    assert abs(var_fock - (n_mean**2 + n_mean)) < 1e-8
    # the covariance entries encode the same second moment
    st = make_thermal(n_mean)
    var_state = (st.cov[0, 0] * st.cov[1, 1]).real  # <a a+><a+ a> = n(n+1)
    assert abs(var_state - var_fock) < 1e-8


def test_coherent_zero_is_vacuum():
    c = make_coherent(0.0)
    assert np.allclose(c.cov, make_vacuum(1).cov)
    assert np.allclose(c.mean, 0.0)


def test_coherent_total_photons():
    n_s = 3.7
    c = make_coherent(np.sqrt(n_s))
    assert abs(c.mean_photon(0) - n_s) < 1e-12


def test_coherent_quadrature_means():
    q = to_quadrature(make_coherent(1 + 1j))
    assert np.allclose(q.mean_q, [np.sqrt(2), np.sqrt(2)], atol=1e-12)


def test_tmsv_zero_is_vacuum():
    assert np.allclose(make_tmsv(0.0).cov, make_vacuum(2).cov)


def test_tmsv_cross_entry():
    assert abs(make_tmsv(1.0).cov[0, 3] - np.sqrt(2.0)) < 1e-14


def test_tmsv_cross_moment_matches_schmidt_sum():
    # <a_S a_I> = sum_n c_n c_{n+1} (n+1) with c_n = sqrt(N^n/(1+N)^(n+1))
    n_s = 0.2
    n = np.arange(25)
    c = np.sqrt(n_s**n / (1 + n_s) ** (n + 1))
    mom = float(np.sum(c[:-1] * c[1:] * (n[:-1] + 1)))
    assert abs(make_tmsv(n_s).cov[0, 3].real - mom) < 1e-9


def test_beam_splitter_identity():
    st = make_tmsv(0.7)
    out = apply_beam_splitter(st, 0, 1, 1.0, 0.0, 0.3)
    assert np.allclose(out.cov, st.cov, atol=1e-14)
    assert np.allclose(out.mean, st.mean, atol=1e-14)


def test_beam_splitter_splits_thermal_evenly():
    st = tensor(make_thermal(2.0), make_vacuum(1))
    out = apply_beam_splitter(st, 0, 1, 1 / np.sqrt(2), 1 / np.sqrt(2), 0.0)
    assert abs(out.mean_photon(0) - 1.0) < 1e-12
    assert abs(out.mean_photon(1) - 1.0) < 1e-12


@pytest.mark.parametrize("t,phase", [(0.3, 0.0), (0.8, 1.1), (0.6, -2.0)])
def test_beam_splitter_preserves_total_photons(t, phase):
    st = make_tmsv(1.0)
    out = apply_beam_splitter(st, 0, 1, t, np.sqrt(1 - t * t), phase)
    assert abs(out.total_mean_photons() - 2.0) < 1e-12


def test_beam_splitter_rejects_nonunitary():
    with pytest.raises(ValueError):
        apply_beam_splitter(make_vacuum(2), 0, 1, 0.9, 0.9, 0.0)


def test_cct_zero_is_vacuum():
    assert np.allclose(make_cct(0.0, 0.0).cov, make_vacuum(2).cov)


def test_cct_cross_entry():
    st = make_cct(1.0, 2.0)
    assert abs(st.cov[0, 1] - np.sqrt(2.0)) < 1e-12
    assert abs(st.mean_photon(0) - 1.0) < 1e-12
    assert abs(st.mean_photon(1) - 2.0) < 1e-12


def test_cct_moments_are_exact_and_real():
    for n_s, n_i in ((1.0, 2.0), (0.3, 7.0), (20.0, 1e-3), (0.0, 2.5)):
        st = make_cct(n_s, n_i)
        assert st.mean_photon(0) == n_s
        assert st.mean_photon(1) == n_i
        assert st.cov[2, 3] == np.sqrt(n_s * n_i)
        assert np.all(st.cov.imag == 0)


def test_cct_is_classical_and_physical():
    st = make_cct(1.0, 1.0)
    m = st.moment_matrix
    assert np.max(np.abs(m[:2, :2])) < 1e-12  # no squeeze correlations
    assert np.all(st.symplectic_eigenvalues() >= 0.5 - 1e-9)


def test_quadrature_vacuum():
    assert np.allclose(to_quadrature(make_vacuum(1)).cov_q, 0.5 * np.eye(2))


def test_quadrature_thermal():
    q = to_quadrature(make_thermal(3.0))
    assert np.allclose(q.cov_q, 3.5 * np.eye(2), atol=1e-12)


def test_tmsv_is_pure():
    assert np.allclose(make_tmsv(1.0).symplectic_eigenvalues(), 0.5, atol=1e-10)


def test_quadrature_round_trip_on_random_states():
    rng = np.random.RandomState(11)
    for _ in range(8):
        st = random_state(rng, n_modes=3)
        back = from_quadrature(to_quadrature(st))
        assert np.max(np.abs(back.cov - st.cov)) < 1e-12
        assert np.max(np.abs(back.mean - st.mean)) < 1e-12


def test_constructors_are_physical():
    states = [make_vacuum(2), make_thermal(1.3), make_coherent(2 - 1j),
              make_tmsv(0.8), make_cct(0.5, 1.5)]
    for st in states:
        assert st.is_physical()


def test_beam_splitter_preserves_symplectic_spectrum():
    rng = np.random.RandomState(5)
    for _ in range(6):
        st = random_state(rng, n_modes=2)
        t = np.cos(rng.uniform(0, np.pi / 2))
        out = apply_beam_splitter(st, 0, 1, t, np.sqrt(1 - t * t),
                                  rng.uniform(0, 2 * np.pi))
        assert np.allclose(np.sort(out.symplectic_eigenvalues()),
                           np.sort(st.symplectic_eigenvalues()), atol=1e-9)


def test_tmsv_reduction_is_thermal():
    n_s = 0.9
    red = make_tmsv(n_s).reduced([1])
    assert np.max(np.abs(red.cov - make_thermal(n_s).cov)) < 1e-12


def test_invalid_inputs_rejected():
    with pytest.raises(ValueError):
        make_thermal(-0.1)
    with pytest.raises(ValueError):
        make_tmsv(-1.0)
    with pytest.raises(ValueError):
        GaussianState(np.array([1.0, 2.0]), np.diag([1.0, 0.0]))  # bad mean pair
