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
from .receivers import (
    ReceiverKind,
    ReceiverSpec,
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


def _coherent_baseline_snr(params: ScenarioParams) -> float:
    """Coherent-probe bound as an equivalent SNR (M times the QCB exponent)."""
    if params.noise_model is NoiseModel.CONSTANT:
        return coherent_qcb_closed(params).exponent
    pair = hypothesis_pair(SourceKind.COHERENT, params)
    return qcb(pair, params.m_modes).exponent


def _qi_receiver_values(config: SweepConfig, noise: NoiseModel, ns: float) -> dict:
    params = _params(config, noise, n_s=ns)
    values = {"Coh": _coherent_baseline_snr(params)}
    if noise is NoiseModel.CONSTANT:
        values["OB"] = snr_bound_constant(params).snr
    else:
        values["OB"] = optimize_alpha_beta_nonconstant(params)[2].snr
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
        raise ConfigError(
            f"unknown receivers {unknown}; available: {sorted(labels)}")
    return [l for l in labels if l in config.receivers]


def _sweep(config: SweepConfig, row) -> tuple:
    """One curve per selected key of ``row``, evaluated on the log-spaced axis."""
    xs = np.logspace(math.log10(config.sweep_min), math.log10(config.sweep_max),
                     config.points)
    rows = [row(x) for x in xs]
    return tuple(Curve(label, xs, np.array([r[label] for r in rows], dtype=float))
                 for label in _select(rows[0], config))


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
        pair = hypothesis_pair(SourceKind.TMSV, params)
        m = params.m_modes
        return {
            "Coh&HD": snr_coherent_hd(params).snr,
            "dHTD after BS": snr_generic(ReceiverSpec(ReceiverKind.DOUBLE_HTD), pair, m).snr,
            "separate HTD": snr_generic(ReceiverSpec(ReceiverKind.SEPARATE_HTD), pair, m).snr,
            "HD product": snr_generic(ReceiverSpec(ReceiverKind.HD_PRODUCT), pair, m).snr,
        }
    return CurveSet("N_S", "SNR", _sweep(config, row))


def _fig_cct_kappa(config: SweepConfig, noise: NoiseModel) -> CurveSet:
    def row(kappa):
        out = {}
        for ns, ni in ((1.0, 1.0), (1.0, 2.0)):
            params = _params(config, noise, kappa=kappa, n_s=ns, n_i=ni)
            pair = hypothesis_pair(SourceKind.CCT, params)
            out[f"QCB N_S={ns:g} N_I={ni:g}"] = qcb(pair, params.m_modes).exponent
            out[f"O_off N_S={ns:g} N_I={ni:g}"] = snr_cct(params).snr
        return out
    return CurveSet("kappa", "SNR", _sweep(config, row))


def _fig_cct_ns(config: SweepConfig, noise: NoiseModel) -> CurveSet:
    def row(ns):
        params = _params(config, noise, n_s=ns, n_i=ns)
        pair = hypothesis_pair(SourceKind.CCT, params)
        return {
            "CCT QCB": qcb(pair, params.m_modes).exponent,
            "CCT O_off": snr_cct(params).snr,
            "Coh QCB": _coherent_baseline_snr(params),
        }
    return CurveSet("N_S", "SNR", _sweep(config, row))


def _fig_optimal_beta(config: SweepConfig, noise: NoiseModel) -> CurveSet:
    def row(ns):
        return {"|beta|": optimal_beta_closed(_params(config, noise, n_s=ns))}
    return CurveSet("N_S", "|beta|", _sweep(config, row))


def _fig_optimal_alpha_beta(config: SweepConfig, noise: NoiseModel) -> CurveSet:
    def row(ns):
        alpha, beta, _ = optimize_alpha_beta_nonconstant(_params(config, noise, n_s=ns))
        return {"alpha": alpha, "beta": beta}
    return CurveSet("N_S", "optimal weight", _sweep(config, row))


_CONSTANT, _NONCONSTANT = NoiseModel.CONSTANT, NoiseModel.NONCONSTANT
_NS_AXIS, _KAPPA_AXIS = (1e-2, 10.0), (1e-3, 0.1)
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
