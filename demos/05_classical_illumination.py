"""Classical illumination with a split thermal beam attains its own bound.

A thermal beam split in two gives a signal/reference pair with classical
intensity correlations.  Reading out the cross correlation (equivalently, a
photon-number difference after recombining on a 50:50 splitter) reaches the
pair's quantum Chernoff bound, and approaches the coherent-probe bound as
the reference brightness grows.
"""

import math

import numpy as np

from gillum import (
    ScenarioParams,
    coherent_qcb_closed,
    hypothesis_pair,
    make_cct,
    obs_number_difference,
    qcb_sweep,
    snr_cct,
    snr_generic,
    transform_by_beam_splitter,
)

M = 10**7

probe = make_cct(1.0, 1.0)  # one split thermal beam, N_S = N_I = 1, for every kappa
kappas = np.array([0.001, 0.003, 0.01, 0.03, 0.1])
sweep = ScenarioParams(kappa=kappas, n_s=1.0, n_i=1.0, n_b=30.0, m_modes=M)
snrs = snr_cct(sweep)
bounds = qcb_sweep(hypothesis_pair(probe, sweep), M).exponent  # one pair per kappa
print(f"{'kappa':>8} {'cross-corr SNR':>15} {'pair QCB':>10} {'gap':>7}")
for kappa, snr, bound in zip(kappas, snrs, bounds):
    print(f"{kappa:8.3f} {snr:15.2f} {bound:10.2f} {abs(snr/bound-1):7.2%}")

print("\nthe photon-number-difference receiver is the same measurement:")
p = ScenarioParams(kappa=0.01, n_s=1.0, n_i=1.0, n_b=30.0, m_modes=M)
pair = hypothesis_pair(probe, p)
half = 1 / math.sqrt(2)  # a 50:50 recombiner, read in the Heisenberg picture
pndm_obs = transform_by_beam_splitter(obs_number_difference(), half, half, math.pi / 2)
pndm = snr_generic(pndm_obs, pair, M)
print(f"  cross correlation: {snr_cct(p):.6f}   number difference: {pndm:.6f}")

print(f"\n{'N_I':>8} {'SNR':>10} {'coherent bound':>15}")
for ni in (0.5, 1.0, 5.0, 50.0, 500.0):
    p = ScenarioParams(kappa=0.01, n_s=1.0, n_i=ni, n_b=30.0, m_modes=M)
    print(f"{ni:8.1f} {snr_cct(p):10.2f} "
          f"{coherent_qcb_closed(p).exponent:15.2f}")
print("\na brighter reference buys more correlation; in the strong-reference")
print("limit the split-thermal receiver approaches the coherent-probe bound.")
