"""Why the squeeze-correlation receiver resists a linear-optics readout.

Measuring both quadratures of a mode by heterodyne splits it with a vacuum
ancilla: the outcome means halve and the variance gains vacuum terms.  For
the entangled probe this penalty is large enough that a plain coherent
probe with homodyne detection wins at every brightness.
"""

import math

from gillum import (
    ScenarioParams,
    heterodyne,
    hypothesis_pair,
    make_tmsv,
    obs_bound,
    obs_squeeze_difference,
    snr_coherent_hd,
    snr_generic,
    snr_nearly_bound,
    stats,
    transform_by_beam_splitter,
)

M = 10**7
p = ScenarioParams(kappa=0.01, n_s=1.0, n_b=30.0, m_modes=M)
pair = hypothesis_pair(make_tmsv(1.0), p)  # the entangled probe at N_S = 1

# the heterodyned observable acts on (signal, idler) plus one vacuum ancilla
# per detector; stats supplies the ancillas
separate = heterodyne(obs_bound(0.0, 0.0))
direct = stats(obs_bound(0.0, 0.0), pair.on)
noisy = stats(separate, pair.on)
print("direct squeeze-correlation readout:  mean %.4f  variance %.2f"
      % (direct.mean, direct.variance))
print("through two heterodyne detectors:    mean %.4f  variance %.2f"
      % (noisy.mean, noisy.variance))
print("(mean halves; quadrupled variance gains 1 + <n_S + n_I> of vacuum noise)")

# heterodynes after a 50:50 recombiner, referred back to the incoming modes
half = 1 / math.sqrt(2)
double = transform_by_beam_splitter(heterodyne(obs_squeeze_difference()),
                                    half, half, math.pi / 2)

print(f"\n{'N_S':>8} {'direct':>10} {'separate HTD':>13} {'dHTD (50:50)':>13} "
      f"{'coherent+HD':>12}")
for ns in (0.01, 0.1, 1.0, 10.0):
    pp = ScenarioParams(kappa=0.01, n_s=ns, n_b=30.0, m_modes=M)
    pr = hypothesis_pair(make_tmsv(ns), pp)
    row = (
        snr_nearly_bound(pp),
        snr_generic(separate, pr, M),
        snr_generic(double, pr, M),
        snr_coherent_hd(pp),
    )
    print(f"{ns:8.2f} {row[0]:10.2f} {row[1]:13.2f} {row[2]:13.2f} {row[3]:12.2f}")

print("\nthe two heterodyne routes coincide (a passive recombiner conserves")
print("the photon count entering the detectors) and both trail the coherent")
print("probe with homodyne detection across the sweep.")
