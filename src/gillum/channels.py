"""Target-interaction channel: a weakly reflecting object in thermal background.

The probe's signal mode mixes with an environment thermal mode on a beam
splitter whose reflectance toward the receiver is the target reflectance
kappa.  With the environment traced out this is the lossy thermal map of
the covariance, V -> X V X^T + Y, where X scales the signal mode by
sqrt(kappa) and Y is the environment's thermal contribution weighted by
1 - kappa; ``apply_target`` applies it entrywise to the signal slots.  Two
background conventions are supported:

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

from .states import GaussianState, make_cct, make_coherent, make_tmsv, tensor


class NoiseModel(enum.Enum):
    CONSTANT = "constant"
    NONCONSTANT = "nonconstant"


class SourceKind(enum.Enum):
    TMSV = "tmsv"
    CCT = "cct"
    COHERENT = "coherent"


@dataclass(frozen=True)
class ScenarioParams:
    """One experiment configuration.

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
        if not 0.0 <= self.kappa <= 1.0:
            raise ValueError("kappa must lie in [0, 1]")
        if self.n_s < 0 or self.n_i < 0 or self.n_b < 0:
            raise ValueError("photon numbers must be >= 0")
        if self.m_modes < 1:
            raise ValueError("m_modes must be >= 1")


@dataclass(frozen=True)
class HypothesisPair:
    """Output states under target present (on) and absent (off)."""

    on: GaussianState
    off: GaussianState


def apply_target(state: GaussianState, signal_mode: int, params: ScenarioParams,
                 present: bool) -> GaussianState:
    """Send one mode of ``state`` through the target channel.

    The signal mode a becomes sqrt(kappa) a + sqrt(1 - kappa) e with e an
    environment thermal mode (mean set by the noise model) that is traced
    out: the signal's two ``u`` slots of the mean and of every covariance
    row and column scale by sqrt(kappa), and the environment adds
    (1 - kappa)(N_env + 1) to its <a a^dag> entry and (1 - kappa) N_env to
    its <a^dag a> entry.  ``present=False`` always uses reflectance zero with
    environment mean ``n_b``.
    """
    n = state.n_modes
    if not 0 <= signal_mode < n:
        raise ValueError("signal mode out of range")
    if present:
        kappa = params.kappa
        if params.noise_model is NoiseModel.CONSTANT:
            if kappa >= 1.0:
                raise ValueError(
                    "constant-noise channel is undefined at kappa = 1 "
                    "(environment mean n_b / (1 - kappa) diverges)")
            env_mean = params.n_b / (1.0 - kappa)
        else:
            env_mean = params.n_b
    else:
        kappa = 0.0
        env_mean = params.n_b
    x = np.ones(2 * n)
    x[[signal_mode, n + signal_mode]] = np.sqrt(kappa)
    cov = state.cov * np.outer(x, x)
    cov[signal_mode, signal_mode] += (1.0 - kappa) * (env_mean + 1.0)
    cov[n + signal_mode, n + signal_mode] += (1.0 - kappa) * env_mean
    return GaussianState(x * state.mean, cov)


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
    probe = _source_state(source, params)
    return HypothesisPair(
        on=apply_target(probe, 0, params, present=True),
        off=apply_target(probe, 0, params, present=False),
    )


def coherent_pair_two_mode(params: ScenarioParams) -> HypothesisPair:
    """Split-coherent probe (means sqrt(n_s), sqrt(n_i)) through the channel.

    The classical-correlation receiver on a coherent source needs a retained
    reference beam; this builds the corresponding two-mode hypothesis pair.
    """
    probe = tensor(make_coherent(np.sqrt(params.n_s)),
                   make_coherent(np.sqrt(params.n_i)))
    return HypothesisPair(
        on=apply_target(probe, 0, params, present=True),
        off=apply_target(probe, 0, params, present=False),
    )
