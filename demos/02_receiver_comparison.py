"""Receiver shoot-out for the entangled probe under constant thermal noise.

Sweeps the signal brightness at the canonical working point (reflectance
0.01, background 30 photons, 1e7 mode pairs) and prints the SNR of each
receiver next to the coherent-probe baseline.  The probe is a state,
``make_tmsv(N_S)``, sent through the target channel by ``hypothesis_pair``.
Also writes the full sweep as an SVG plot.
"""

from gillum import (
    OPA_GAIN,
    ScenarioParams,
    SweepConfig,
    coherent_qcb_closed,
    emit,
    hypothesis_pair,
    make_tmsv,
    obs_opa,
    run_figure,
    snr_bound_constant,
    snr_closed_dh,
    snr_closed_pc,
    snr_generic,
    snr_nearly_bound,
)

M = 10**7

print(f"{'N_S':>8} {'coherent':>10} {'bound':>10} {'nearly':>10} "
      f"{'PC':>10} {'OPA':>10} {'DH':>10}")
for ns in (0.01, 0.1, 1.0, 7.0):
    p = ScenarioParams(kappa=0.01, n_s=ns, n_b=30.0, m_modes=M)
    pair = hypothesis_pair(make_tmsv(ns), p)
    opa = snr_generic(obs_opa(OPA_GAIN), pair, M)
    print(f"{ns:8.2f} {coherent_qcb_closed(p).exponent:10.2f} "
          f"{snr_bound_constant(p):10.2f} {snr_nearly_bound(p):10.2f} "
          f"{snr_closed_pc(p):10.2f} {opa:10.2f} {snr_closed_dh(p):10.2f}")

p7 = ScenarioParams(kappa=0.01, n_s=7.0, n_b=30.0, m_modes=M)
gap_bound = snr_bound_constant(p7) - coherent_qcb_closed(p7).exponent
gap_pc = snr_closed_pc(p7) - coherent_qcb_closed(p7).exponent
print(f"\nat N_S = 7 the bound receiver leads the coherent baseline by "
      f"{gap_bound:.0f} while the PC receiver leads by {gap_pc:.0f}")

curves = run_figure(SweepConfig(figure="fig1"))
emit(curves, "svg", "receiver_comparison.svg")
print("wrote receiver_comparison.svg")
