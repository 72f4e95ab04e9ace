"""Tour of the Gaussian state layer.

Builds the standard probe states and shows how their stored covariance, the
normally ordered quadrature covariance cov_n = cov_q - I/2, maps to familiar
photon-number quantities, read directly or as the exact statistics of
number and cross-correlation observables.
"""

import numpy as np

from gillum import (
    GaussianState,
    make_cct,
    make_coherent,
    make_thermal,
    make_tmsv,
    make_vacuum,
    obs_number,
    obs_off,
    stats,
    tensor,
    williamson,
)
from gillum.states import beam_splitter_matrix

np.set_printoptions(precision=4, suppress=True)

print("== thermal state, mean photon number 2 ==")
th = make_thermal(2.0)
print("cov_n (rows x, p) =\n", th.cov_n)                          # N I
n_th = stats(obs_number(0, 1), th)
print("photon number mean, variance =", n_th.mean, n_th.variance, "= N, N (N + 1)")
print("quadrature covariance cov_q (vacuum = I/2) =\n", th.cov_q)
print("symplectic eigenvalue:", williamson(th)[0])                 # N + 1/2

print("\n== two-mode squeezed vacuum, N_S = 1 ==")
tmsv = make_tmsv(1.0)
print("cov_n (rows x_S, p_S, x_I, p_I) =\n", tmsv.cov_n)
print("<x_S x_I> = <a_S a_I> =", tmsv.cov_n[0, 2], "= sqrt(N_S (N_S+1))")
print("symplectic eigenvalues (pure state -> exactly 1/2):", williamson(tmsv)[0])
print("reduced signal mode (its cov_n block) equals a thermal state:",
      np.allclose(tmsv.cov_n[:2, :2], make_thermal(1.0).cov_n))

print("\n== correlated thermal pair from one split thermal beam ==")
cct = make_cct(1.0, 2.0)
print("mode means:", cct.mean_photon(0), cct.mean_photon(1))
print("<x_S x_I> = <a_S^dag a_I> =", cct.cov_n[0, 2], "= sqrt(N_S N_I)")
print("<a_S^dag a_I + a_I^dag a_S> =", stats(obs_off(), cct).mean, "= 2 sqrt(N_S N_I)")
print("<p_S p_I> = <x_S x_I> here; a TMSV has <p_S p_I> = -<x_S x_I>:",
      cct.cov_n[1, 3] == cct.cov_n[0, 2], tmsv.cov_n[1, 3] == -tmsv.cov_n[0, 2])

print("\n== coherent state on a beam splitter ==")
coh = tensor(make_coherent(2.0), make_vacuum(1))
s = beam_splitter_matrix(2, 0, 1, np.sqrt(0.7), np.sqrt(0.3), 0.0)  # r -> S r
pair = GaussianState(s @ coh.mean_q, s @ coh.cov_n @ s.T)
print("split 70/30:", pair.mean_photon(0), "+", pair.mean_photon(1),
      "= 4 photons total")
