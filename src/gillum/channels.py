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
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .states import GaussianState, make_cct, make_coherent, make_tmsv


class NoiseModel(enum.Enum):
    CONSTANT = "constant"
    NONCONSTANT = "nonconstant"


class SourceKind(enum.Enum):
    TMSV = "tmsv"
    CCT = "cct"
    COHERENT = "coherent"


def _extremes(value):
    return (value.min(), value.max()) if isinstance(value, np.ndarray) else (value, value)


@dataclass(frozen=True)
class ScenarioParams:
    """One experiment configuration, or a sweep: kappa, n_s, n_i as arrays of one shape.

    kappa: target reflectance in [0, 1]; n_s / n_i / n_b: signal, idler and
    background mean photon numbers; m_modes: number of independent mode pairs
    measured; noise_model: background convention.
    """

    kappa: float
    n_s: float
    n_b: float
    n_i: float = 0.0
    m_modes: int = 1
    noise_model: NoiseModel = NoiseModel.CONSTANT

    def __post_init__(self):
        (k_lo, k_hi), (s_lo, _), (i_lo, _) = map(_extremes, (self.kappa, self.n_s, self.n_i))
        if not (0.0 <= k_lo and k_hi <= 1.0):
            raise ValueError("kappa must lie in [0, 1]")
        if s_lo < 0 or i_lo < 0 or self.n_b < 0:
            raise ValueError("photon numbers must be >= 0")
        if self.m_modes < 1:
            raise ValueError("m_modes must be >= 1")


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
    if kappa >= 1.0 and params.noise_model is NoiseModel.CONSTANT:
        raise ValueError(
            "constant-noise channel is undefined at kappa = 1 "
            "(environment mean n_b / (1 - kappa) diverges)")
    x = np.ones(2 * state.n_modes)
    x[:2] = np.sqrt(kappa)
    cov_n = state.cov_n * np.outer(x, x)
    cov_n[[0, 1], [0, 1]] += _received_noise(params, kappa)
    return GaussianState(x * state.mean_q, cov_n)


def _source_state(source: SourceKind, params: ScenarioParams) -> GaussianState:
    if source is SourceKind.TMSV:
        return make_tmsv(params.n_s)
    if source is SourceKind.CCT:
        return make_cct(params.n_s, params.n_i)
    if source is SourceKind.COHERENT:
        return make_coherent(np.sqrt(params.n_s))
    raise ValueError(f"unknown source {source}")


def hypothesis_pair(source: SourceKind, params: ScenarioParams) -> HypothesisPair:
    """Build the probe state and push it through both channel hypotheses.

    TMSV and CCT sources are two-mode with the signal in mode 0; the coherent
    source is a single signal mode (n_i is ignored for TMSV and coherent).
    """
    if any(isinstance(v, np.ndarray) for v in (params.kappa, params.n_s, params.n_i)):
        raise ValueError("a hypothesis pair is one point: kappa, n_s and n_i must be scalars")
    probe = _source_state(source, params)
    return HypothesisPair(
        on=apply_target(probe, params, present=True),
        off=apply_target(probe, params, present=False),
    )

