"""Parameter sweeps producing labeled curve sets for the standard comparisons.

A preset is one row of ``_PRESETS``: a row function from the config and the
whole sweep axis to {curve label: values}, the axis labels, the noise models
it is defined for, and its default sweep range.  ``SweepConfig`` resolves the
preset's defaults and checks its scenario once, before any row runs.  Closed
forms take the axis as an array; the numerical engines run once per point,
on probe states the row builds with ``make_tmsv``, ``make_cct`` and
``make_coherent``.  Defaults follow the canonical working point kappa = 0.01,
N_B = 30, M = 1e7 with 200 log-spaced sweep points.  Sweep evaluation is
deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .channels import NoiseModel, ScenarioParams, hypothesis_pair
from .chernoff import coherent_qcb_closed, qcb
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
from .states import GaussianState, make_cct, make_coherent, make_tmsv


class ConfigError(ValueError):
    """Invalid sweep configuration."""


class NumericalError(RuntimeError):
    """A sweep produced a non-finite value."""


@dataclass(frozen=True)
class Curve:
    """One receiver's values along its curve set's sweep axis."""

    label: str
    y: np.ndarray


@dataclass(frozen=True)
class CurveSet:
    """Curves on one sweep axis ``x``, held once: finite and increasing,
    with one finite value per point on every curve."""

    x_label: str
    y_label: str
    x: np.ndarray
    curves: tuple

    def __post_init__(self):
        if not self.curves or self.x.size < 1:
            raise ConfigError("curve set must contain at least one curve and one point")
        if not np.all(np.isfinite(self.x)):
            raise NumericalError("sweep axis contains non-finite values")
        if np.any(np.diff(self.x) <= 0):
            raise ConfigError("x values must increase")
        for c in self.curves:
            if c.y.size != self.x.size:
                raise ConfigError(f"curve {c.label!r} has mismatched points")
            if not np.all(np.isfinite(c.y)):
                raise NumericalError(f"curve {c.label!r} contains non-finite values")


@dataclass(frozen=True)
class SweepConfig:
    """Figure preset selection plus overrides.  An omitted sweep edge or
    noise model takes the preset's default, and ``params`` is the scenario
    every row starts from (n_s = 0), so a bad value fails here."""

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
        if self.points < 2:
            raise ConfigError("points must be >= 2")
        *_, models, (lo, hi) = _PRESETS[self.figure]
        noise = models[0] if self.noise is None else self.noise
        if noise not in models:
            raise ConfigError(f"{self.figure} is defined for {models[0].value} noise only")
        lo = lo if self.sweep_min is None else self.sweep_min
        hi = hi if self.sweep_max is None else self.sweep_max
        if not (0 < lo < hi < math.inf):
            raise ConfigError("sweep range must be positive, finite and ordered")
        try:
            params = ScenarioParams(kappa=self.kappa, n_s=0.0, n_b=self.n_b,
                                    m_modes=self.m_modes, noise_model=noise)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        for name, value in (("noise", noise), ("sweep_min", lo), ("sweep_max", hi),
                            ("params", params)):
            object.__setattr__(self, name, value)


def _points(config: SweepConfig, axis: str, xs) -> list:
    """The config's scenario with its ``axis`` field at each x, one point each."""
    return [replace(config.params, **{axis: x}) for x in xs]


def _qcb_exponent(probe: GaussianState, params: ScenarioParams) -> float:
    """M-copy Chernoff exponent of ``probe`` at one point of the scenario."""
    return qcb(hypothesis_pair(probe, params), params.m_modes).exponent


def _coherent_baseline_snr(config: SweepConfig, ns):
    """Coherent-probe bound as an equivalent SNR (M times the QCB exponent)."""
    if config.noise is NoiseModel.CONSTANT:
        return coherent_qcb_closed(replace(config.params, n_s=ns)).exponent
    return np.array([_qcb_exponent(make_coherent(math.sqrt(n)), config.params) for n in ns])


def _qi_receiver_values(config: SweepConfig, ns) -> dict:
    params = replace(config.params, n_s=ns)
    coh = _coherent_baseline_snr(config, ns)
    if config.noise is NoiseModel.CONSTANT:
        ob = snr_bound_constant(params).snr
    else:
        ob = np.array([optimize_alpha_beta_nonconstant(p)[2].snr
                       for p in _points(config, "n_s", ns)])
    return {"Coh": coh, "OB": ob, "nOB": snr_nearly_bound(params).snr,
            "PC": snr_closed_pc(params).snr, "OPA": snr_closed_opa(params).snr,
            "DH": snr_closed_dh(params).snr}


def _differences(config: SweepConfig, ns) -> dict:
    vals = _qi_receiver_values(config, ns)
    return {"OB-Coh": vals["OB"] - vals["Coh"], "PC-Coh": vals["PC"] - vals["Coh"]}


def _heterodyne_snrs(config: SweepConfig, ns) -> dict:
    params = config.params
    pairs = [hypothesis_pair(make_tmsv(n), params) for n in ns]
    return {"Coh&HD": snr_coherent_hd(replace(params, n_s=ns)).snr, **{
        label: np.array([snr_generic(obs, pair, params.m_modes).snr for pair in pairs])
        for label, obs in _HETERODYNE.items()}}


def _cct_over_kappa(config: SweepConfig, kappa) -> dict:
    points = _points(config, "kappa", kappa)
    out = {}
    for ns, ni in ((1.0, 1.0), (1.0, 2.0)):
        probe = make_cct(ns, ni)  # fixed along the kappa axis
        out[f"QCB N_S={ns:g} N_I={ni:g}"] = np.array([_qcb_exponent(probe, p) for p in points])
        params = replace(config.params, kappa=kappa, n_s=ns, n_i=ni)
        out[f"O_off N_S={ns:g} N_I={ni:g}"] = snr_cct(params).snr
    return out


def _cct_over_ns(config: SweepConfig, ns) -> dict:
    return {
        "CCT QCB": np.array([_qcb_exponent(make_cct(n, n), config.params) for n in ns]),
        "CCT O_off": snr_cct(replace(config.params, n_s=ns, n_i=ns)).snr,
        "Coh QCB": _coherent_baseline_snr(config, ns),
    }


def _optimal_beta(config: SweepConfig, ns) -> dict:
    return {"|beta|": optimal_beta_closed(replace(config.params, n_s=ns))}


def _optimal_alpha_beta(config: SweepConfig, ns) -> dict:
    weights = np.array([optimize_alpha_beta_nonconstant(p)[:2]
                        for p in _points(config, "n_s", ns)])
    return {"alpha": weights[:, 0], "beta": weights[:, 1]}


_CONSTANT, _NONCONSTANT = NoiseModel.CONSTANT, NoiseModel.NONCONSTANT
_NS_AXIS, _KAPPA_AXIS = (1e-2, 10.0), (1e-3, 0.1)
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
# preset -> (row, x label, y label, the noise models the preset is defined
# for with its default first, default sweep range); the row maps the config
# and the whole sweep axis to {curve label: values}
_PRESETS = {
    "fig1": (_qi_receiver_values, "N_S", "SNR", (_CONSTANT, _NONCONSTANT), _NS_AXIS),
    "fig2": (_differences, "N_S", "SNR difference", (_CONSTANT,), _NS_AXIS),
    "fig3": (_qi_receiver_values, "N_S", "SNR", (_NONCONSTANT, _CONSTANT), _NS_AXIS),
    "fig4": (_heterodyne_snrs, "N_S", "SNR", (_CONSTANT,), _NS_AXIS),
    "fig5a": (_cct_over_kappa, "kappa", "SNR", (_CONSTANT, _NONCONSTANT), _KAPPA_AXIS),
    "fig5b": (_cct_over_ns, "N_S", "SNR", (_CONSTANT, _NONCONSTANT), _NS_AXIS),
    "s1": (_optimal_beta, "N_S", "|beta|", (_CONSTANT,), _NS_AXIS),
    "s2": (_optimal_alpha_beta, "N_S", "optimal weight", (_NONCONSTANT,), _NS_AXIS),
}
FIGURE_NAMES = tuple(_PRESETS)


def run_figure(config: SweepConfig) -> CurveSet:
    """Run one figure preset and return its deterministic curve set: the
    preset's row is called once on the log-spaced axis, and each selected
    label becomes a curve."""
    row, x_label, y_label, *_ = _PRESETS[config.figure]
    xs = np.logspace(math.log10(config.sweep_min), math.log10(config.sweep_max),
                     config.points)
    values = row(config, xs)
    if config.receivers:
        unknown = [r for r in config.receivers if r not in values]
        if unknown:
            raise ConfigError(f"unknown receivers {unknown}; available: {sorted(values)}")
    return CurveSet(x_label, y_label, xs, tuple(
        Curve(label, np.asarray(y, dtype=float)) for label, y in values.items()
        if not config.receivers or label in config.receivers))
