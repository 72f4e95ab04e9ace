"""The abstract's regimes against limits from the quantum-illumination
literature, which do not re-derive this package's formulas: a convention
error (the noise model, a factor of 2 in the SNR) moves these limits where
an oracle of the same formula would move with it.

Per-copy quantities (M = 1) under constant noise at kappa = 0.01, along
N_S -> 0, N_B -> infinity:

- the coherent state's QCB exponent tends to kappa N_S / (4 N_B) (Tan et
  al., PRL 101, 253601 (2008));
- the phase-conjugate receiver's SNR tends to kappa N_S / (2 N_B), 3 dB
  over the coherent state (Guha & Erkmen, PRA 80, 052310 (2009));
- the observable bound tends to half of the TMSV QCB's kappa N_S / N_B
  (Tan et al.): the abstract's "cannot approach the QCB".
"""

import math

import numpy as np
import pytest

import oracles as orc
from gillum import (NoiseModel, ScenarioParams, coherent_qcb_closed, hypothesis_pair, make_cct,
                    make_coherent, qcb_sweep, snr_bound_constant, snr_cct, snr_closed_pc)


def test_coherent_bound_approaches_its_high_noise_limit():
    # kappa N_S / (sqrt(N_B + 1) + sqrt(N_B))^2 over kappa N_S / (4 N_B) is
    # 1 - 1/(2 N_B) + O(N_B^-2)
    n_b = np.logspace(-1, 6, 29)
    p = ScenarioParams(kappa=0.01, n_s=0.1, n_b=n_b, m_modes=1)
    ratio = coherent_qcb_closed(p).exponent / (p.kappa * p.n_s / (4.0 * n_b))
    assert (np.abs(ratio - 1.0) <= 1.0 / n_b).all(), ratio


def test_pc_and_ob_approach_3_db_and_half_the_tmsv_bound():
    # (N_S, N_B) = (1e-k, 1e+k), k = 2 ... 5: PC / (kappa N_S / 2 N_B) rises
    # to 1 and OB / (kappa N_S / N_B) to 1/2 (1 - 2e-5 and 0.49999 at k = 5)
    pc, ob = [], []
    for k in range(2, 6):
        p = ScenarioParams(kappa=0.01, n_s=10.0 ** -k, n_b=10.0 ** k, m_modes=1)
        ref = p.kappa * p.n_s / p.n_b
        pc.append(snr_closed_pc(p) / (ref / 2.0))
        ob.append(snr_bound_constant(p) / ref)
    assert np.all(np.diff(pc) > 0) and np.all(np.diff(ob) > 0), (pc, ob)
    assert abs(pc[-1] - 1.0) <= 1e-3 and abs(ob[-1] - 0.5) <= 1e-3, (pc, ob)


def test_cct_receiver_approaches_the_coherent_bound_with_the_idler():
    # O_off / Coh QCB at N_S = 0.01, N_B = 30: 0.020, 0.670, 0.995 and
    # 0.99988 at N_I = 0.01, 1, 1e2 and 1e4, never above the coherent state
    p = ScenarioParams(kappa=0.01, n_s=0.01, n_i=np.logspace(-2, 4, 4), n_b=30.0, m_modes=1)
    ratio = snr_cct(p) / coherent_qcb_closed(p).exponent
    assert np.all(np.diff(ratio) > 0) and ratio[-1] <= 1.0 and ratio[-1] > 0.999, ratio


def _cct_and_coherent_exponents(model: NoiseModel, pairs: int = 200):
    """Per-copy QCB exponents of CCT and coherent probes with the same N_S on
    a seeded draw: kappa 1e-3-0.5, N_S 1e-2-10, N_I 1e-2-1e4, N_B 0.1-100."""
    rng = np.random.default_rng(11)

    def log_uniform(lo, hi):
        return np.exp(rng.uniform(math.log(lo), math.log(hi), pairs))

    p = ScenarioParams(kappa=log_uniform(1e-3, 0.5), n_s=log_uniform(1e-2, 10.0),
                       n_i=log_uniform(1e-2, 1e4), n_b=log_uniform(0.1, 100.0), m_modes=1,
                       noise_model=model)
    return (qcb_sweep(hypothesis_pair(make_cct(p.n_s, p.n_i), p), 1).exponent,
            qcb_sweep(hypothesis_pair(make_coherent(np.sqrt(p.n_s)), p), 1).exponent)


@pytest.mark.parametrize("model", list(NoiseModel))
def test_no_classical_probe_beats_the_coherent_state(model):
    """The CCT probe's QCB exponent is at most the coherent state's at the
    same signal N_S, under either noise model.

    The CCT probe is classical: its signal and idler have a P-function
    P(alpha, beta) >= 0, a mixture of coherent states |alpha>|beta> with
    E|alpha|^2 = N_S.  The target channel acts on the signal alone, and the
    off state does not depend on alpha, so on and off are the P-mixtures of
    rho_on(alpha) (x) |beta><beta| and rho_off (x) |beta><beta|.  Q_s =
    Tr(A^s B^(1-s)) is jointly concave in (A, B) for 0 <= s <= 1 (Lieb, Adv.
    Math. 11, 267 (1973)), so Q_s of the mixtures is at least the P-average
    of Q_s(rho_on(alpha), rho_off), the idler's Q_s of |beta><beta| with
    itself being 1.  That overlap of a displaced thermal state with a
    thermal one is C_s exp(-c_s |alpha|^2), c_s >= 0, convex in |alpha|^2,
    so by Jensen's inequality the average is at least C_s exp(-c_s N_S):
    Q_s of the coherent probe |sqrt(N_S)>.  This holds at every s, so min_s
    Q_s is at least the coherent state's, and the exponent -log min_s Q_s at
    most.  Each side is one ``qcb_sweep`` here; the coherent pairs run
    through the overlap's one-mode 1 x 1 block.
    """
    cct, coh = _cct_and_coherent_exponents(model)
    assert (cct <= coh * (1.0 + 1e-9)).all(), np.max(cct / coh)
    assert np.max(cct / coh) > 0.9999  # the draw reaches the coherent limit


def test_no_classical_probe_beats_the_coherent_state_in_mpmath():
    # the theorem above, spot-checked without doubles: the CCT bound written
    # from the model against the coherent pair's, at 30 digits
    pytest.importorskip("mpmath")
    for p in (ScenarioParams(kappa=0.01, n_s=0.01, n_i=1.0, n_b=30.0),
              ScenarioParams(kappa=0.1, n_s=1.0, n_i=100.0, n_b=1.0,
                             noise_model=NoiseModel.NONCONSTANT),
              ScenarioParams(kappa=0.5, n_s=3.0, n_i=0.5, n_b=0.1,
                             noise_model=NoiseModel.NONCONSTANT)):
        cct = orc.cct_exponent_mp(p, 1, dps=30)
        coh = orc.chernoff_exponent_mp(hypothesis_pair(make_coherent(math.sqrt(p.n_s)), p), 1,
                                       dps=30)
        assert cct < coh, p
