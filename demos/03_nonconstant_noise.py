"""What changes when the background noise depends on the target reflectance.

With an environment prepared at a fixed mean photon number, the received
thermal power is (1 - kappa) N_B, so the noise itself carries reflectance
information.  The signal-number term of the receiver observable then earns
its keep: the optimizer returns a distinctly nonzero signal weight, and the
SNR no longer vanishes with the probe brightness.
"""

import numpy as np

from gillum import (
    NoiseModel,
    ScenarioParams,
    optimize_alpha_beta_nonconstant,
    snr_closed_dh,
    snr_nearly_bound,
)

M = 10**7

signals = np.array([1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0])
sweep = ScenarioParams(kappa=0.01, n_s=signals, n_b=30.0, m_modes=M,
                       noise_model=NoiseModel.NONCONSTANT)  # one call per receiver
alphas, betas, snrs = optimize_alpha_beta_nonconstant(sweep)
print(f"{'N_S':>10} {'alpha*':>9} {'beta*':>9} {'SNR(opt)':>10} "
      f"{'SNR(bare)':>10} {'SNR(DH)':>10}")
for ns, alpha, beta, snr, bare, dh in zip(signals, alphas, betas, snrs,
                                          snr_nearly_bound(sweep), snr_closed_dh(sweep)):
    print(f"{ns:10.4f} {alpha:9.4f} {beta:9.4f} {snr:10.2f} {bare:10.4f} {dh:10.2f}")

print("\nas N_S -> 0 the optimized SNR converges to a nonzero value: the")
print("transmitted background alone distinguishes the hypotheses, and the")
print("double-homodyne receiver (whose observable contains the signal")
print("number) tracks the optimized bound closely in that regime.")
