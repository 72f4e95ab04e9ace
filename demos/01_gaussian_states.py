"""Tour of the Gaussian state layer.

Builds the standard probe states, shows how their covariance entries map to
familiar photon-number quantities, and round-trips through the real
quadrature representation.
"""

import numpy as np

from gillum import (
    apply_beam_splitter,
    from_quadrature,
    make_cct,
    make_coherent,
    make_thermal,
    make_tmsv,
    make_vacuum,
    tensor,
    to_quadrature,
    williamson,
)

np.set_printoptions(precision=4, suppress=True)

print("== thermal state, mean photon number 2 ==")
th = make_thermal(2.0)
print("cov =\n", th.cov.real)
print("symplectic eigenvalue:", williamson(to_quadrature(th))[0])   # N + 1/2

print("\n== two-mode squeezed vacuum, N_S = 1 ==")
tmsv = make_tmsv(1.0)
print("cov =\n", tmsv.cov.real)
print("cross moment <a_S a_I> =", tmsv.cov[0, 3].real, "= sqrt(N_S (N_S+1))")
print("symplectic eigenvalues (pure state -> exactly 1/2):",
      williamson(to_quadrature(tmsv))[0])
print("reduced signal mode equals a thermal state:",
      np.allclose(tmsv.reduced([0]).cov, make_thermal(1.0).cov))

print("\n== correlated thermal pair from one split thermal beam ==")
cct = make_cct(1.0, 2.0)
print("mode means:", cct.mean_photon(0), cct.mean_photon(1))
print("cross moment <a_S^dag a_I> =", cct.cov[0, 1].real, "= sqrt(N_S N_I)")

print("\n== coherent state on a beam splitter ==")
coh = tensor(make_coherent(2.0), make_vacuum(1))
pair = apply_beam_splitter(coh, 0, 1, np.sqrt(0.7), np.sqrt(0.3))
print("split 70/30:", pair.mean_photon(0), "+", pair.mean_photon(1),
      "= 4 photons total")

print("\n== quadrature representation round trip ==")
q = to_quadrature(tmsv)
print("quadrature covariance (vacuum = I/2):\n", q.cov_q)
back = from_quadrature(q)
print("round-trip error:", np.max(np.abs(back.cov - tmsv.cov)))
