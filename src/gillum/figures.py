"""Parameter sweeps producing labeled curve sets for the standard comparisons.

A preset is one row of ``_PRESETS``: a row function, the ``ScenarioParams``
field it sweeps (``_AXES`` gives that field's x label and default range), the
y label, the noise models it is defined for and its curve labels, the only
place a curve is named.  ``SweepConfig`` checks the whole sweep, ``params``,
and the selected labels once before any row runs, and a row maps the sweep
to its curves' values in label order.
Closed forms take the sweep as arrays.  Chernoff bounds along an N_S axis
(fig5b's ``CCT QCB`` and, under nonconstant noise, the coherent ``Coh`` /
``Coh QCB``) are one ``qcb_sweep`` call per sweep, on the hypothesis pair of
one probe stacked over the axis, and the nonconstant-noise ``OB`` of fig1 and
fig3 is one optimizer call per sweep.
fig4's moment engine, fig5a's ``qcb`` and s2's optimizer run once per point,
on per-point probes, where the benchmark pins their calls per point.
Defaults follow the canonical working point kappa = 0.01, N_B = 30, M = 1e7
with 200 log-spaced sweep points.  Sweep evaluation is deterministic.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from .channels import NoiseModel, ScenarioParams, hypothesis_pair
from .chernoff import NumericalError, coherent_qcb_closed, qcb, qcb_sweep
from .observables import (
    heterodyne,
    obs_bound,
    obs_hd_product,
    obs_squeeze_difference,
    transform_by_beam_splitter,
)
from .receivers import (
    optimal_beta_closed,
    optimize_alpha_beta_nonconstant,
    snr_bound_constant,
    snr_cct,
    snr_closed_dh,
    snr_closed_opa,
    snr_closed_pc,
    snr_coherent_hd,
    snr_generic,
    snr_nearly_bound,
)
from .states import make_cct, make_coherent, make_tmsv


class ConfigError(ValueError):
    """Invalid sweep configuration."""


@dataclass(frozen=True)
class CurveSet:
    """Curves on one sweep axis ``x``, held once as {label: values}: ``x``
    finite and increasing, with one finite value per point on every curve."""

    x_label: str
    y_label: str
    x: np.ndarray
    curves: dict

    def __post_init__(self):
        if not self.curves or self.x.size < 1:
            raise ConfigError("curve set must contain at least one curve and one point")
        if not np.all(np.isfinite(self.x)):
            raise NumericalError("sweep axis contains non-finite values")
        if np.any(np.diff(self.x) <= 0):
            raise ConfigError("x values must increase")
        for label, y in self.curves.items():
            if y.size != self.x.size:
                raise ConfigError(f"curve {label!r} has mismatched points")
            if not np.all(np.isfinite(y)):
                raise NumericalError(f"curve {label!r} contains non-finite values")


@dataclass(frozen=True)
class SweepConfig:
    """Figure preset selection plus overrides.  ``kappa``, ``n_b``,
    ``m_modes`` and the sweep edges are each one real number, so a figure
    has one background; an omitted sweep edge or noise model takes the
    preset's default.  ``params`` is the whole sweep:
    the checked scenario (n_s = 0) with the preset's axis field set to the
    log-spaced sweep, so a bad value, a sweep that leaves the valid range or
    a ``receivers`` label the preset does not draw fails here, before any
    row runs."""

    figure: str
    kappa: float = 0.01
    n_b: float = 30.0
    m_modes: float = 1e7
    sweep_min: float | None = None
    sweep_max: float | None = None
    points: int = 200
    noise: NoiseModel | None = None
    receivers: tuple = ()
    params: ScenarioParams = field(init=False, repr=False)

    def __post_init__(self):
        if self.figure not in FIGURE_NAMES:
            raise ConfigError(
                f"unknown figure {self.figure!r}; expected one of {FIGURE_NAMES}")
        if not isinstance(self.points, numbers.Integral) or self.points < 2:  # np.int64 too
            raise ConfigError(f"points must be a whole number >= 2, got {self.points!r}")
        if self.noise is not None and not isinstance(self.noise, NoiseModel):
            raise ConfigError(f"noise must be a NoiseModel, one of "
                              f"{', '.join(map(str, NoiseModel))}, got {self.noise!r}")
        for name in ("kappa", "n_b", "m_modes", "sweep_min", "sweep_max"):
            value = getattr(self, name)
            real = isinstance(value, numbers.Real) or (  # NumPy scalars too
                isinstance(value, np.ndarray) and value.shape == () and value.dtype.kind in "iuf")
            if not (real or value is None and name.startswith("sweep")):
                raise ConfigError(f"{name} must be a real number, got {value!r}")
        if isinstance(self.receivers, str) or not isinstance(self.receivers, Sequence):
            raise ConfigError(f"receivers must be a sequence of labels, got {self.receivers!r}")
        _, axis, _, models, labels = _PRESETS[self.figure]
        unknown = [r for r in self.receivers if r not in labels]
        if unknown:
            raise ConfigError(f"unknown receivers {unknown}; available: {sorted(labels)}")
        noise = models[0] if self.noise is None else self.noise
        if noise not in models:
            raise ConfigError(f"{self.figure} is defined for {models[0].value} noise only")
        lo, hi = _AXES[axis][1]
        lo = lo if self.sweep_min is None else self.sweep_min
        hi = hi if self.sweep_max is None else self.sweep_max
        if not (0 < lo < hi < math.inf):
            raise ConfigError("sweep range must be positive, finite and ordered")
        try:
            params = ScenarioParams(kappa=self.kappa, n_s=0.0, n_b=self.n_b,
                                    m_modes=self.m_modes, noise_model=noise)
            params = replace(params, **{axis: np.logspace(math.log10(lo), math.log10(hi),
                                                          self.points)})
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        object.__setattr__(self, "params", params)


def _points(params: ScenarioParams) -> list:
    """The sweep split into scalar points, kappa, n_s and n_i broadcast together."""
    return [replace(params, kappa=k, n_s=s, n_i=i)
            for k, s, i in np.broadcast(params.kappa, params.n_s, params.n_i)]


def _coherent_baseline_snr(params: ScenarioParams):
    """Coherent-probe bound as an equivalent SNR (M times the QCB exponent)."""
    if params.noise_model is NoiseModel.CONSTANT:
        return coherent_qcb_closed(params).exponent
    pair = hypothesis_pair(make_coherent(np.sqrt(params.n_s)), params)
    return qcb_sweep(pair, params.m_modes).exponent


def _qi_receiver_values(params: ScenarioParams) -> tuple:
    coh = _coherent_baseline_snr(params)  # first: a sweep it refuses skips the optimizer
    if params.noise_model is NoiseModel.CONSTANT:
        ob = snr_bound_constant(params)
    else:
        ob = optimize_alpha_beta_nonconstant(params)[2]
    return (coh, ob, snr_nearly_bound(params), snr_closed_pc(params),
            snr_closed_opa(params), snr_closed_dh(params))


def _differences(params: ScenarioParams) -> tuple:
    coh = coherent_qcb_closed(params).exponent  # fig2 is constant noise only
    return snr_bound_constant(params) - coh, snr_closed_pc(params) - coh


def _heterodyne_snrs(params: ScenarioParams) -> list:
    pairs = [hypothesis_pair(make_tmsv(n), params) for n in params.n_s]
    return [snr_coherent_hd(params), *(
        np.array([snr_generic(obs, pair, params.m_modes) for pair in pairs])
        for obs in _HETERODYNE.values())]


def _cct_over_kappa(params: ScenarioParams) -> list:
    points = _points(params)
    curves = []
    for ns, ni in ((1.0, 1.0), (1.0, 2.0)):
        probe = make_cct(ns, ni)  # fixed along the kappa axis
        curves += (np.array([qcb(hypothesis_pair(probe, p), p.m_modes).exponent for p in points]),
                   snr_cct(replace(params, n_s=ns, n_i=ni)))
    return curves


def _cct_over_ns(params: ScenarioParams) -> tuple:
    return (qcb_sweep(hypothesis_pair(make_cct(params.n_s, params.n_s), params),
                      params.m_modes).exponent,
            snr_cct(replace(params, n_i=params.n_s)), _coherent_baseline_snr(params))


def _optimal_beta(params: ScenarioParams) -> tuple:
    return (optimal_beta_closed(params),)


def _optimal_alpha_beta(params: ScenarioParams) -> np.ndarray:
    # one optimizer call per point, which the benchmark pins for s2
    return np.array([optimize_alpha_beta_nonconstant(p)[:2] for p in _points(params)]).T


_CONSTANT, _NONCONSTANT = NoiseModel.CONSTANT, NoiseModel.NONCONSTANT
# the ScenarioParams field a preset sweeps -> its x label and default range
_AXES = {"n_s": ("N_S", (1e-2, 10.0)), "kappa": ("kappa", (1e-3, 0.1))}
# fig4's receiver observables on the signal, the idler and vacuum ancillas;
# the double heterodyne follows a 50:50 recombiner, read in the Heisenberg
# picture on the incoming modes
_HETERODYNE = {
    "dHTD after BS": transform_by_beam_splitter(heterodyne(obs_squeeze_difference()),
                                                1 / math.sqrt(2), 1 / math.sqrt(2),
                                                math.pi / 2),
    "separate HTD": heterodyne(obs_bound(0.0, 0.0)),
    "HD product": obs_hd_product(0.0, 0.0),
}
_QI_LABELS = ("Coh", "OB", "nOB", "PC", "OPA", "DH")
# preset -> (row, the ScenarioParams field it sweeps, y label, the noise
# models the preset is defined for with its default first, the curve labels);
# the row maps the whole sweep, SweepConfig.params, to its curves' values in
# label order, and these labels are the only place a curve is named
_PRESETS = {
    "fig1": (_qi_receiver_values, "n_s", "SNR", (_CONSTANT, _NONCONSTANT), _QI_LABELS),
    "fig2": (_differences, "n_s", "SNR difference", (_CONSTANT,), ("OB-Coh", "PC-Coh")),
    "fig3": (_qi_receiver_values, "n_s", "SNR", (_NONCONSTANT, _CONSTANT), _QI_LABELS),
    "fig4": (_heterodyne_snrs, "n_s", "SNR", (_CONSTANT,), ("Coh&HD", *_HETERODYNE)),
    "fig5a": (_cct_over_kappa, "kappa", "SNR", (_CONSTANT, _NONCONSTANT),
              ("QCB N_S=1 N_I=1", "O_off N_S=1 N_I=1", "QCB N_S=1 N_I=2", "O_off N_S=1 N_I=2")),
    "fig5b": (_cct_over_ns, "n_s", "SNR", (_CONSTANT, _NONCONSTANT),
              ("CCT QCB", "CCT O_off", "Coh QCB")),
    "s1": (_optimal_beta, "n_s", "|beta|", (_CONSTANT,), ("|beta|",)),
    "s2": (_optimal_alpha_beta, "n_s", "optimal weight", (_NONCONSTANT,), ("alpha", "beta")),
}
FIGURE_NAMES = tuple(_PRESETS)


def run_figure(config: SweepConfig) -> CurveSet:
    """Run one figure preset and return its deterministic curve set: the
    preset's row is called once on the whole sweep, ``config.params``, its
    values are paired with the preset's labels in order (a row that returns
    one curve too many or too few raises ValueError), and each selected label
    (``SweepConfig`` has checked them) becomes a curve."""
    row, axis, y_label, _, labels = _PRESETS[config.figure]
    curves = zip(labels, row(config.params), strict=True)
    return CurveSet(_AXES[axis][0], y_label, getattr(config.params, axis), {
        label: np.asarray(y, dtype=float) for label, y in curves
        if not config.receivers or label in config.receivers})
