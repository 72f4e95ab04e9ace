"""Parameter sweeps producing labeled curve sets for the standard comparisons.

Each preset fixes a sweep axis and a set of receiver curves; defaults follow
the canonical working point kappa = 0.01, N_B = 30, M = 1e7 with 200
log-spaced sweep points.  Sweep evaluation is deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import NoiseModel, ScenarioParams, SourceKind, hypothesis_pair
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


class ConfigError(ValueError):
    """Invalid sweep configuration."""


class NumericalError(RuntimeError):
    """A sweep produced a non-finite value."""


@dataclass(frozen=True)
class Curve:
    label: str
    x: np.ndarray
    y: np.ndarray


@dataclass(frozen=True)
class CurveSet:
    x_label: str
    y_label: str
    curves: tuple

    def __post_init__(self):
        if not self.curves:
            raise ConfigError("curve set must contain at least one curve")
        for c in self.curves:
            if c.x.size != c.y.size or c.x.size < 1:
                raise ConfigError(f"curve {c.label!r} has mismatched points")
            if not (np.all(np.isfinite(c.x)) and np.all(np.isfinite(c.y))):
                raise NumericalError(f"curve {c.label!r} contains non-finite values")
            if np.any(np.diff(c.x) <= 0):
                raise ConfigError(f"curve {c.label!r} x values must increase")


@dataclass(frozen=True)
class SweepConfig:
    """Figure preset selection plus overrides; an omitted sweep edge takes
    the preset's default."""

    figure: str
    kappa: float = 0.01
    n_b: float = 30.0
    m_modes: float = 1e7
    sweep_min: float | None = None
    sweep_max: float | None = None
    points: int = 200
    noise: NoiseModel | None = None
    receivers: tuple = ()

    def __post_init__(self):
        if self.figure not in FIGURE_NAMES:
            raise ConfigError(
                f"unknown figure {self.figure!r}; expected one of {FIGURE_NAMES}")
        if self.points < 2:
            raise ConfigError("points must be >= 2")
        if not (self.m_modes >= 1 and float(self.m_modes).is_integer()):
            raise ConfigError(f"modes must be a whole number >= 1, got {self.m_modes!r}")
        _, models, (lo, hi) = _PRESETS[self.figure]
        if self.noise is not None and self.noise not in models:
            raise ConfigError(f"{self.figure} is defined for {models[0].value} noise only")
        lo = lo if self.sweep_min is None else self.sweep_min
        hi = hi if self.sweep_max is None else self.sweep_max
        if not (0 < lo < hi):
            raise ConfigError("sweep range must be positive and ordered")
        object.__setattr__(self, "sweep_min", lo)
        object.__setattr__(self, "sweep_max", hi)


def _params(config: SweepConfig, noise: NoiseModel, **overrides) -> ScenarioParams:
    base = dict(kappa=config.kappa, n_s=0.0, n_b=config.n_b,
                m_modes=int(config.m_modes), noise_model=noise)
    base.update(overrides)
    return ScenarioParams(**base)


def _points(config: SweepConfig, noise: NoiseModel, xs, *axes, **fixed) -> list:
    """Scalar parameters with the ``axes`` fields at each x, for the engines."""
    return [_params(config, noise, **dict.fromkeys(axes, x), **fixed) for x in xs]


def _coherent_baseline_snr(config: SweepConfig, noise: NoiseModel, ns):
    """Coherent-probe bound as an equivalent SNR (M times the QCB exponent)."""
    if noise is NoiseModel.CONSTANT:
        return coherent_qcb_closed(_params(config, noise, n_s=ns)).exponent
    return np.array([qcb(hypothesis_pair(SourceKind.COHERENT, p), p.m_modes).exponent
                     for p in _points(config, noise, ns, "n_s")])


def _qi_receiver_values(config: SweepConfig, noise: NoiseModel, ns) -> dict:
    params = _params(config, noise, n_s=ns)
    values = {"Coh": _coherent_baseline_snr(config, noise, ns)}
    if noise is NoiseModel.CONSTANT:
        values["OB"] = snr_bound_constant(params).snr
    else:
        values["OB"] = np.array([optimize_alpha_beta_nonconstant(p)[2].snr
                                 for p in _points(config, noise, ns, "n_s")])
    values["nOB"] = snr_nearly_bound(params).snr
    values["PC"] = snr_closed_pc(params).snr
    values["OPA"] = snr_closed_opa(params).snr
    values["DH"] = snr_closed_dh(params).snr
    return values


def _select(labels, config: SweepConfig):
    if not config.receivers:
        return list(labels)
    unknown = [r for r in config.receivers if r not in labels]
    if unknown:
        raise ConfigError(f"unknown receivers {unknown}; available: {sorted(labels)}")
    return [l for l in labels if l in config.receivers]


def _sweep(config: SweepConfig, row) -> tuple:
    """One curve per selected key of ``row``, called once on the log-spaced axis."""
    xs = np.logspace(math.log10(config.sweep_min), math.log10(config.sweep_max),
                     config.points)
    values = row(xs)
    return tuple(Curve(label, xs, np.asarray(values[label], dtype=float))
                 for label in _select(values, config))


def _fig_receivers(config: SweepConfig, noise: NoiseModel) -> CurveSet:
    return CurveSet("N_S", "SNR",
                    _sweep(config, lambda ns: _qi_receiver_values(config, noise, ns)))


def _fig_differences(config: SweepConfig, noise: NoiseModel) -> CurveSet:
    def row(ns):
        vals = _qi_receiver_values(config, noise, ns)
        return {"OB-Coh": vals["OB"] - vals["Coh"],
                "PC-Coh": vals["PC"] - vals["Coh"]}
    return CurveSet("N_S", "SNR difference", _sweep(config, row))


def _fig_heterodyne(config: SweepConfig, noise: NoiseModel) -> CurveSet:
    def row(ns):
        params = _params(config, noise, n_s=ns)
        pairs = [hypothesis_pair(SourceKind.TMSV, p) for p in _points(config, noise, ns, "n_s")]
        return {"Coh&HD": snr_coherent_hd(params).snr, **{
            label: np.array([snr_generic(obs, pair, params.m_modes).snr for pair in pairs])
            for label, obs in _HETERODYNE.items()}}
    return CurveSet("N_S", "SNR", _sweep(config, row))


def _fig_cct_kappa(config: SweepConfig, noise: NoiseModel) -> CurveSet:
    def row(kappa):
        out = {}
        for ns, ni in ((1.0, 1.0), (1.0, 2.0)):
            out[f"QCB N_S={ns:g} N_I={ni:g}"] = np.array([
                qcb(hypothesis_pair(SourceKind.CCT, p), p.m_modes).exponent
                for p in _points(config, noise, kappa, "kappa", n_s=ns, n_i=ni)])
            params = _params(config, noise, kappa=kappa, n_s=ns, n_i=ni)
            out[f"O_off N_S={ns:g} N_I={ni:g}"] = snr_cct(params).snr
        return out
    return CurveSet("kappa", "SNR", _sweep(config, row))


def _fig_cct_ns(config: SweepConfig, noise: NoiseModel) -> CurveSet:
    def row(ns):
        return {
            "CCT QCB": np.array([qcb(hypothesis_pair(SourceKind.CCT, p), p.m_modes).exponent
                                 for p in _points(config, noise, ns, "n_s", "n_i")]),
            "CCT O_off": snr_cct(_params(config, noise, n_s=ns, n_i=ns)).snr,
            "Coh QCB": _coherent_baseline_snr(config, noise, ns),
        }
    return CurveSet("N_S", "SNR", _sweep(config, row))


def _fig_optimal_beta(config: SweepConfig, noise: NoiseModel) -> CurveSet:
    def row(ns):
        return {"|beta|": optimal_beta_closed(_params(config, noise, n_s=ns))}
    return CurveSet("N_S", "|beta|", _sweep(config, row))


def _fig_optimal_alpha_beta(config: SweepConfig, noise: NoiseModel) -> CurveSet:
    def row(ns):
        weights = np.array([optimize_alpha_beta_nonconstant(p)[:2]
                            for p in _points(config, noise, ns, "n_s")])
        return {"alpha": weights[:, 0], "beta": weights[:, 1]}
    return CurveSet("N_S", "optimal weight", _sweep(config, row))


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
# preset -> (builder taking the config and the noise model, the noise models
# the preset is defined for, its default first, and the default sweep range)
_PRESETS = {
    "fig1": (_fig_receivers, (_CONSTANT, _NONCONSTANT), _NS_AXIS),
    "fig2": (_fig_differences, (_CONSTANT,), _NS_AXIS),
    "fig3": (_fig_receivers, (_NONCONSTANT, _CONSTANT), _NS_AXIS),
    "fig4": (_fig_heterodyne, (_CONSTANT,), _NS_AXIS),
    "fig5a": (_fig_cct_kappa, (_CONSTANT, _NONCONSTANT), _KAPPA_AXIS),
    "fig5b": (_fig_cct_ns, (_CONSTANT, _NONCONSTANT), _NS_AXIS),
    "s1": (_fig_optimal_beta, (_CONSTANT,), _NS_AXIS),
    "s2": (_fig_optimal_alpha_beta, (_NONCONSTANT,), _NS_AXIS),
}
FIGURE_NAMES = tuple(_PRESETS)


def run_figure(config: SweepConfig) -> CurveSet:
    """Run one figure preset and return its deterministic curve set."""
    build, models, _ = _PRESETS[config.figure]
    return build(config, config.noise or models[0])
