"""Target-interaction channel: a weakly reflecting object in thermal background.

The probe's signal mode mixes with an environment thermal mode on a beam
splitter whose reflectance toward the receiver is the target reflectance
kappa.  With the environment traced out this is the lossy thermal map of
the normally ordered quadrature covariance, V -> X V X + N I, where X scales
the signal mode's (x, p) by sqrt(kappa) and N is the thermal occupancy the
environment adds to the signal mode (``_received_noise``); ``apply_target``
applies it to the signal's rows and columns.  Two background conventions
are supported:

* ``CONSTANT``: the environment is prepared with mean ``n_b / (1 - kappa)``
  so the received thermal contribution is ``n_b`` independent of kappa.
* ``NONCONSTANT``: the environment is prepared with mean ``n_b`` and the
  received thermal contribution is ``(1 - kappa) n_b`` (passive signature).

Target absent is the kappa = 0 channel with environment mean ``n_b`` in both
conventions, so false-alarm statistics are model independent.

A probe is any ``GaussianState`` with its signal in mode 0 and any other
modes (an idler) kept at the receiver: ``hypothesis_pair`` sends it through
both hypotheses.  The paper's probes are ``states.make_tmsv`` (quantum),
``states.make_cct`` (split thermal, classical) and ``states.make_coherent``.
A stacked probe (``states``) goes through at one kappa as a stack of pairs.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .states import GaussianState, _extremes


class NoiseModel(enum.Enum):
    CONSTANT = "constant"
    NONCONSTANT = "nonconstant"


@dataclass(frozen=True)
class ScenarioParams:
    """One experiment configuration, or a sweep: kappa, n_s, n_i as arrays of one shape.

    kappa: target reflectance in [0, 1], below 1 under constant noise;
    n_s / n_i / n_b: signal, idler and background mean photon numbers;
    m_modes: number of independent mode pairs measured, a whole number;
    noise_model: background convention.  Every check is written so that nan
    fails it.
    """

    kappa: float
    n_s: float
    n_b: float
    n_i: float = 0.0
    m_modes: int = 1
    noise_model: NoiseModel = NoiseModel.CONSTANT

    def __post_init__(self):
        (k_lo, k_hi), (s_lo, s_hi), (i_lo, i_hi) = map(
            _extremes, (self.kappa, self.n_s, self.n_i))  # nan extremes for any nan entry
        if not (0.0 <= k_lo and k_hi <= 1.0):
            raise ValueError("kappa must lie in [0, 1]")
        if k_hi == 1.0 and self.noise_model is NoiseModel.CONSTANT:
            raise ValueError(
                "constant-noise channel is undefined at kappa = 1 "
                "(environment mean n_b / (1 - kappa) diverges)")
        if not (0.0 <= s_lo and s_hi < math.inf and 0.0 <= i_lo and i_hi < math.inf
                and 0.0 <= self.n_b < math.inf):
            raise ValueError("photon numbers must be finite and >= 0")
        if not (self.m_modes >= 1 and float(self.m_modes).is_integer()):
            raise ValueError(f"m_modes must be a whole number >= 1, got {self.m_modes!r}")


@dataclass(frozen=True)
class HypothesisPair:
    """Output states under target present (on) and absent (off)."""

    on: GaussianState
    off: GaussianState


def _received_noise(params: ScenarioParams, kappa: float) -> float:
    """Thermal occupancy the environment adds to the signal mode at reflectance
    ``kappa``: n_b (constant noise) or (1 - kappa) n_b (nonconstant)."""
    if params.noise_model is NoiseModel.CONSTANT:
        return params.n_b
    return (1.0 - kappa) * params.n_b


def apply_target(state: GaussianState, params: ScenarioParams,
                 present: bool) -> GaussianState:
    """Send the signal, mode 0 of ``state``, through the target channel.

    The signal mode a becomes sqrt(kappa) a + sqrt(1 - kappa) e with e an
    environment thermal mode (mean set by the noise model) that is traced
    out: the signal's x and p in the mean and in every row and column of
    cov_n scale by sqrt(kappa), and its two diagonal entries gain the
    received occupancy ``_received_noise``.  ``present=False`` always uses
    reflectance zero, which receives ``n_b`` in both conventions.
    """
    kappa = params.kappa if present else 0.0
    x = np.ones(2 * state.n_modes)
    x[:2] = np.sqrt(kappa)
    cov_n = state.cov_n * np.outer(x, x)
    cov_n[..., [0, 1], [0, 1]] += _received_noise(params, kappa)
    return GaussianState(x * state.mean_q, cov_n)


def hypothesis_pair(probe: GaussianState, params: ScenarioParams) -> HypothesisPair:
    """Send ``probe``, its signal in mode 0, through both channel hypotheses
    at one kappa (a scalar); a stacked probe gives a stack of pairs."""
    if np.ndim(params.kappa):
        raise ValueError("a hypothesis pair is at one kappa, a scalar; "
                         "a sweep over N_S stacks the probe instead")
    return HypothesisPair(
        on=apply_target(probe, params, present=True),
        off=apply_target(probe, params, present=False),
    )
