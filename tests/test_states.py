"""Gaussian state constructors, beam splitter, and their moments."""

import numpy as np
import oracles as orc
import pytest

from gillum import (
    GaussianState,
    ScenarioParams,
    make_cct,
    make_coherent,
    make_thermal,
    make_tmsv,
    make_vacuum,
    symplectic_form,
    tensor,
    williamson,
)
from gillum.observables import obs_number, obs_quadrature
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


def test_an_infinite_asymmetry_is_not_symmetric():
    # before: the per-matrix bound, 1e-10 times an infinite top entry, was
    # infinite too, so this cov_n built silently, alone or inside a stack
    lopsided = np.array([[1.0, np.inf], [0.0, 1.0]])
    with pytest.raises(ValueError, match="not symmetric"):
        GaussianState(np.zeros(2), lopsided)
    with pytest.raises(ValueError, match="not symmetric"):
        GaussianState(np.zeros((2, 2)), np.stack([np.eye(2), lopsided]))


def test_a_non_finite_row_does_not_hide_an_asymmetric_neighbour():
    # before: a NaN anywhere made the whole-stack maximum NaN, and NaN > tol is
    # False, so the asymmetric neighbour built silently; a diagonal inf does
    # the same through its inf - inf
    for bad, neighbour in ((np.diag([np.nan, 1.0]), [[1.0, 5.0], [0.0, 1.0]]),
                           (np.diag([np.inf, 1.0]), [[1.0, np.inf], [0.0, 1.0]])):
        stack = np.stack([bad, neighbour])
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="not symmetric"):
            GaussianState(np.zeros((2, 2)), stack)
        with pytest.raises(ValueError, match="not symmetric"):
            GaussianState(np.zeros(2), np.array(neighbour))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("entry", [(0, 0), (2, 3)])
def test_non_finite_cov_n_is_refused(bad, entry):
    # before: a NaN cov_n, or a symmetric inf, built silently and was refused
    # only by williamson (ObservableStats read its variance as NaN)
    cov = np.diag([1.0, 1.0, 2.0, 2.0])
    cov[entry] = bad
    symmetric = cov.copy()
    symmetric[entry[::-1]] = bad
    for c in (cov, symmetric):
        stack = np.stack([np.eye(4), c, np.eye(4)])
        for mean_q, cov_n in ((np.zeros(4), c), (np.zeros((3, 4)), stack)):
            with np.errstate(invalid="ignore"):  # the symmetry check's inf - inf
                with pytest.raises(ValueError, match="cov_n is not symmetric or not finite"):
                    GaussianState(mean_q, cov_n)


def test_mean_photon_refuses_a_non_finite_mean():
    # before: a NaN mean_q, which construction does not check, gave nan
    for bad in (np.nan, np.inf, -np.inf):
        state = GaussianState(np.array([bad, 0.0, 0.0, 0.0]), 0.1 * np.eye(4))
        with pytest.raises(ValueError, match="mean photon number of mode 0 is not finite"):
            state.mean_photon(0)
        assert state.mean_photon(1) == 0.1


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_constructors_refuse_non_finite_inputs(bad):
    # before: nan built NaN states (each check was `< 0`), inf warned from
    # inf - inf in the symmetry check, and make_coherent checked nothing
    row = np.array([0.3, bad, 1.0])
    for make, args in ((make_thermal, (bad,)), (make_tmsv, (bad,)), (make_tmsv, (row,)),
                       (make_cct, (bad, 1.0)), (make_cct, (1.0, bad)), (make_cct, (row, 1.0)),
                       (make_cct, (0.5, row))):
        with pytest.raises(ValueError, match="must be finite and >= 0"):
            make(*args)
    for amplitude in (bad, complex(0.5, bad), row, np.array([0.3, complex(0.5, bad)])):
        with pytest.raises(ValueError, match="coherent amplitude must be finite"):
            make_coherent(amplitude)


@pytest.mark.parametrize("mode_i,mode_j", [(1, 1), (0, 2), (-1, 0), (0, 5)])
def test_beam_splitter_matrix_refuses_equal_or_out_of_range_modes(mode_i, mode_j):
    with pytest.raises(ValueError, match="mode indices must be distinct and in range"):
        beam_splitter_matrix(2, mode_i, mode_j, 0.6, 0.8, 0.0)


@pytest.mark.parametrize("call,message", [
    (lambda: obs_number(0.5, 2), "mode must be a whole number, got 0.5"),
    (lambda: make_tmsv(0.1).mean_photon(1.0), "mode must be a whole number, got 1.0"),
    (lambda: obs_quadrature(1.0, 0.3, 2), "mode must be a whole number, got 1.0"),
    (lambda: obs_number(0, 1.5), "n_modes must be a whole number, got 1.5"),
    (lambda: obs_number("0", 2), "mode must be a whole number, got '0'"),
    (lambda: make_vacuum(1.5), "n_modes must be a whole number, got 1.5"),
    (lambda: beam_splitter_matrix(2, 0.0, 1, 0.6, 0.8, 0.0),
     "mode_i must be a whole number, got 0.0"),
], ids=["obs_number-mode", "mean_photon", "obs_quadrature", "obs_number-n_modes",
        "obs_number-string", "make_vacuum", "beam_splitter_matrix"])
def test_mode_indices_and_counts_must_be_whole_numbers(call, message):
    # before: NumPy's IndexError, or a bare TypeError from slicing, shapes or
    # comparing a string, none of which names the value
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


@pytest.mark.parametrize("n_modes", [-1, 0])
def test_make_vacuum_refuses_a_mode_count_below_one_by_name(n_modes):
    # before: NumPy's "negative dimensions are not allowed" for -1, and the
    # GaussianState shape message for 0
    with pytest.raises(ValueError, match=f"^n_modes must be a whole number >= 1, got {n_modes}$"):
        make_vacuum(n_modes)


def test_numpy_integer_modes_pass():
    assert make_vacuum(np.int64(2)).n_modes == 2
    assert make_tmsv(0.5).mean_photon(np.int32(1)) == 0.5
    assert beam_splitter_matrix(np.int64(2), np.int8(0), np.uint8(1), 0.6, 0.8, 0.0).shape == (4, 4)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("field", ["t", "r", "phase"])
def test_beam_splitter_matrix_refuses_a_non_finite_parameter(field, bad):
    # before: a NaN t, r or phase gave a matrix with NaN entries (the
    # t^2 + r^2 check is False for NaN) and an infinite phase a math domain error
    args = {"t": 0.6, "r": 0.8, "phase": 0.3, field: bad}
    match = "phase must be finite" if field == "phase" else "requires t\\^2 \\+ r\\^2 = 1"
    with pytest.raises(ValueError, match=match):
        beam_splitter_matrix(2, 0, 1, **args)


def test_thermal_of_an_array_is_a_stack_of_thermal_states():
    # before: a 2-element array gave one single-mode state with cov_n =
    # diag(n_1, n_2), and a 3-element array raised NumPy's broadcast error
    n = np.array([0.0, 0.3, 2.0, 1e4, 7.5, 0.01])
    assert make_thermal(2.0).cov_n.tolist() == [[2.0, 0.0], [0.0, 2.0]]
    assert make_thermal(np.float64(2.0)).cov_n.tobytes() == make_thermal(2.0).cov_n.tobytes()
    for grid in (n, n.reshape(2, 3), n[:2]):
        stack = make_thermal(grid)
        assert stack.mean_q.shape == grid.shape + (2,) and stack.n_modes == 1
        _same_bytes(stack, [make_thermal(float(v)) for v in grid.ravel()])
        nu, s = williamson(stack)  # through the n x n branch
        assert nu.tobytes() == (grid[..., None] + 0.5).tobytes()
        assert s.tobytes() == np.broadcast_to(np.eye(2), grid.shape + (2, 2)).tobytes()
    with pytest.raises(ValueError, match="must be finite and >= 0"):
        make_thermal(np.array([0.5, -0.1]))


@pytest.mark.parametrize("mode", [-1, 2, 5])
def test_mean_photon_refuses_modes_out_of_range(mode):
    # before: -1 read mode 1 of two, and 2 raised IndexError
    with pytest.raises(ValueError, match=f"mode {mode} is out of range for 2 mode"):
        make_tmsv(0.5).mean_photon(mode)


_EMPTY = np.array([])


@pytest.mark.parametrize("build,args,name", [
    (make_cct, (_EMPTY, 0.1), "n_s"),
    (make_cct, (0.1, _EMPTY), "n_i"),
    (make_thermal, (_EMPTY,), "n_mean"),
    (make_tmsv, (_EMPTY,), "n_s"),
    (make_coherent, (_EMPTY,), "amplitude"),
    (lambda k, s: ScenarioParams(kappa=k, n_s=s, n_b=1.0), (_EMPTY, _EMPTY), "kappa"),
    (lambda i: ScenarioParams(kappa=0.1, n_s=0.1, n_i=i, n_b=1.0), (_EMPTY,), "n_i"),
    (GaussianState, (np.zeros((0, 2)), np.zeros((0, 2, 2))), "mean_q"),
], ids=["make_cct-n_s", "make_cct-n_i", "make_thermal", "make_tmsv", "make_coherent",
        "ScenarioParams-kappa", "ScenarioParams-n_i", "GaussianState"])
def test_empty_arrays_are_refused_by_name(build, args, name):
    # before: NumPy's "zero-size array to reduction operation" error, which
    # names no argument
    with pytest.raises(ValueError, match=f"{name} .*must not be an empty"):
        build(*args)
