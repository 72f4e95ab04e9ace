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
A kappa or n_b axis or a stacked probe gives a stack of pairs: see ``apply_target``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .states import GaussianState, _check_photons, _extremes, _not_real


class NoiseModel(enum.Enum):
    CONSTANT = "constant"
    NONCONSTANT = "nonconstant"


@dataclass(frozen=True)
class ScenarioParams:
    """One experiment configuration, or a sweep: kappa, n_s, n_i and n_b as
    numbers or non-empty arrays that broadcast together, each checked entry by
    entry; m_modes is one number for the whole sweep.

    kappa: target reflectance in [0, 1], below 1 under constant noise;
    n_s / n_i / n_b: signal, idler and background mean photon numbers;
    m_modes: number of independent mode pairs measured, one whole number >= 1;
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
        try:
            k_lo, k_hi = _extremes("kappa", self.kappa)  # nan extremes for any nan entry
            valid = 0.0 <= k_lo and k_hi <= 1.0
        except TypeError:
            raise _not_real("kappa", self.kappa) from None
        if not valid:
            raise ValueError("kappa must lie in [0, 1]")
        if k_hi == 1.0 and self.noise_model is NoiseModel.CONSTANT:
            raise ValueError(
                "constant-noise channel is undefined at kappa = 1 "
                "(environment mean n_b / (1 - kappa) diverges)")
        _check_photons("photon numbers", n_s=self.n_s, n_i=self.n_i, n_b=self.n_b)
        _check_m_modes(self.m_modes)
        shapes = {name: value.shape for name, value in
                  (("kappa", self.kappa), ("n_s", self.n_s), ("n_i", self.n_i), ("n_b", self.n_b))
                  if isinstance(value, np.ndarray) and value.ndim}
        if len(shapes) > 1:  # floats and 0-d arrays broadcast with anything
            try:
                np.broadcast_shapes(*shapes.values())
            except ValueError:
                raise ValueError(f"sweep shapes {shapes} do not broadcast together") from None


def _check_m_modes(m_modes) -> None:
    """Refuse an M that is not one whole number >= 1 (nan, inf, arrays, complex
    numbers, strings and None fail)."""
    try:
        valid = not (isinstance(m_modes, (complex, np.ndarray))
                     and (np.iscomplexobj(m_modes) or np.ndim(m_modes))) and (
            m_modes >= 1 and float(m_modes).is_integer())
    except TypeError:
        valid = False
    if not valid:
        raise ValueError(f"m_modes must be a whole number >= 1, got {m_modes!r}")


@dataclass(frozen=True)
class HypothesisPair:
    """Output states under target present (on) and absent (off), of one mode
    count and stack shape."""

    on: GaussianState
    off: GaussianState

    def __post_init__(self):
        if self.on.mean_q.shape != self.off.mean_q.shape:
            raise ValueError("hypotheses must have the same mode count and stack shape")


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

    Axis rule: kappa and n_b (each a float or an array) broadcast together and
    with the stack axes of ``state``: entry i of an axis pairs with row i of a
    stack, or with a single probe, and the absent hypothesis stacks alike at
    kappa = 0, so both hypotheses carry the axes of kappa and n_b under either
    noise model.  Shapes that do not broadcast raise NumPy's ``ValueError``,
    which names both.
    """
    kappa = np.asarray(params.kappa + 0.0 * params.n_b)  # kappa on the axes of kappa and n_b
    if not present:
        kappa = np.zeros(kappa.shape)
    x = np.ones(kappa.shape + (2 * state.n_modes,))
    x[..., :2] = np.sqrt(kappa[..., None])
    cov_n = state.cov_n * (x[..., :, None] * x[..., None, :])
    noise = _received_noise(params, kappa)
    cov_n[..., 0, 0] += noise
    cov_n[..., 1, 1] += noise
    return GaussianState(x * state.mean_q, cov_n)


def hypothesis_pair(probe: GaussianState, params: ScenarioParams) -> HypothesisPair:
    """Send ``probe``, its signal in mode 0, through both channel hypotheses;
    a kappa or n_b axis or a stacked probe gives a stack of pairs under
    ``apply_target``'s axis rule."""
    return HypothesisPair(
        on=apply_target(probe, params, present=True),
        off=apply_target(probe, params, present=False),
    )
