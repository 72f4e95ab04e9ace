"""Parse the CLI's outputs and check each preset's curves against invariants.

Every check here holds on the whole drawn range N_B in [1, 100],
kappa in [1e-3, 0.1] at the presets' defaults (M = 1e7), at any point count.  The
SVG emitter rounds pixel coordinates to 0.01 and maps values affinely onto
them, so an SVG figure is checked through an affine fit: its curves must be
an increasing affine image of the expected values to within the rounding.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass

import numpy as np

M_MODES = 10**7

LABELS = {
    "fig1": ("Coh", "OB", "nOB", "PC", "OPA", "DH"),
    "fig2": ("OB-Coh", "PC-Coh"),
    "fig3": ("Coh", "OB", "nOB", "PC", "OPA", "DH"),
    "fig4": ("Coh&HD", "dHTD after BS", "separate HTD", "HD product"),
    "fig5a": ("QCB N_S=1 N_I=1", "O_off N_S=1 N_I=1",
              "QCB N_S=1 N_I=2", "O_off N_S=1 N_I=2"),
    "fig5b": ("CCT QCB", "CCT O_off", "Coh QCB"),
    "s1": ("|beta|",),
    "s2": ("alpha", "beta"),
}
_X_RANGE = {"fig5a": (1e-3, 0.1)}
_DEFAULT_X_RANGE = (1e-2, 10.0)

_REL_TOL = 1e-11  # the emitters print 12 significant digits
# SVG coordinates are printed to 0.01, so each is off by up to 0.005; a
# least-squares fit of the unknown value-to-pixel map can miss the true map by
# as much again.
_PIXEL_TOL = 0.01
_FIG5A_RATIO_TOL = 0.10
_S2_REL_TOL = 1e-9
_COH_QCB_REL_TOL = 1e-6  # -M log(exp(-x)) loses digits when x is tiny


class CheckError(Exception):
    """An operation's output violates an invariant."""


@dataclass(frozen=True)
class Figure:
    """Parsed curves.  For SVG, ``x`` holds pixel x and the curves hold
    minus pixel y, an increasing affine image of the values."""

    x: np.ndarray
    curves: dict
    pixels: bool


def _parse_csv(text: str) -> Figure:
    lines = text.rstrip("\n").split("\n")
    header = lines[0].split(",")
    if header[0] != "x":
        raise CheckError(f"csv header starts with {header[0]!r}")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    if rows.shape[1:] != (len(header),):
        raise CheckError("csv rows do not match the header")
    return Figure(rows[:, 0], {lab: rows[:, k + 1] for k, lab in enumerate(header[1:])}, False)


def _parse_json(text: str) -> Figure:
    payload = json.loads(text)
    curves, xs = {}, None
    for c in payload["curves"]:
        pts = np.array(c["points"], dtype=float)
        if xs is None:
            xs = pts[:, 0]
        elif not np.array_equal(xs, pts[:, 0]):
            raise CheckError(f"json curve {c['label']!r} has its own x grid")
        curves[c["label"]] = pts[:, 1]
    return Figure(xs, curves, False)


_POLYLINE = re.compile(
    r'<polyline points="([^"]*)"[^>]*/>\n<line [^>]*/>\n<text [^>]*>([^<]*)</text>')


def _parse_svg(text: str) -> Figure:
    if not (text.startswith("<svg ") and text.endswith("</svg>\n")):
        raise CheckError("svg output is not a complete <svg> element")
    curves, xs = {}, None
    for points, label in _POLYLINE.findall(text):
        pts = np.array([[float(v) for v in p.split(",")] for p in points.split()])
        if xs is None:
            xs = pts[:, 0]
        elif not np.array_equal(xs, pts[:, 0]):
            raise CheckError(f"svg polyline {label!r} has its own x pixels")
        curves[label] = -pts[:, 1]
    if xs is None:
        raise CheckError("svg output has no curves")
    return Figure(xs, curves, True)


_PARSERS = {"csv": _parse_csv, "json": _parse_json, "svg": _parse_svg}


def parse(fmt: str, text: str) -> Figure:
    try:
        return _PARSERS[fmt](text)
    except (ValueError, KeyError, IndexError) as exc:
        raise CheckError(f"cannot parse {fmt} output: {exc!r}") from exc


def _close(observed, expected, rel_tol: float) -> float:
    """Largest relative deviation; raises when above ``rel_tol``."""
    observed, expected = np.asarray(observed), np.asarray(expected)
    err = float(np.max(np.abs(observed - expected)
                       / np.maximum(np.abs(expected), np.finfo(float).tiny)))
    if not err <= rel_tol:
        raise CheckError(f"relative deviation {err:.3g} exceeds {rel_tol:g}")
    return err


def _affine(observed, expected, pixel_tol: float) -> None:
    """``observed`` must be an increasing affine image of ``expected``."""
    observed, expected = np.ravel(observed), np.ravel(expected)
    slope, offset = np.polyfit(expected, observed, 1)
    resid = float(np.max(np.abs(observed - (slope * expected + offset))))
    if not (slope > 0 and resid <= pixel_tol):
        raise CheckError(f"svg pixels are not an affine image of the values "
                         f"(slope {slope:.3g}, residual {resid:.3g} px)")


def _matches(observed, expected, pixels: bool, rel_tol: float = _REL_TOL) -> None:
    if pixels:
        _affine(observed, expected, _PIXEL_TOL)
    else:
        _close(observed, expected, rel_tol)


def _dominates(fig: Figure, top: str, others, strict: bool) -> None:
    for label in others:
        a, b = fig.curves[top], fig.curves[label]
        if fig.pixels:
            bad = a < b - _PIXEL_TOL  # rounding hides ties and near-ties
        elif strict:
            bad = a <= b
        else:
            bad = a < b - _REL_TOL * np.abs(b)  # allow the last printed digit
        if np.any(bad):
            k = int(np.argmax(bad))
            raise CheckError(f"{top!r} does not dominate {label!r} at point {k}: "
                             f"{a[k]!r} vs {b[k]!r}")


def _check_shape(preset: str, fig: Figure, points: int) -> None:
    if tuple(fig.curves) != LABELS[preset]:
        raise CheckError(f"{preset}: curves {tuple(fig.curves)} != {LABELS[preset]}")
    if fig.x.size != points or any(y.size != points for y in fig.curves.values()):
        raise CheckError(f"{preset}: expected {points} points")
    if not all(np.all(np.isfinite(y)) for y in fig.curves.values()):
        raise CheckError(f"{preset}: non-finite values")
    lo, hi = _X_RANGE.get(preset, _DEFAULT_X_RANGE)
    grid = np.logspace(math.log10(lo), math.log10(hi), points)
    _matches(fig.x, np.log10(grid) if fig.pixels else grid, fig.pixels)


def _check_fig1_fig3(fig: Figure) -> None:
    _dominates(fig, "OB", ("nOB", "PC", "OPA", "DH"), strict=False)


def _check_fig2(fig2: Figure, fig1: Figure) -> None:
    if fig1.pixels and fig2.pixels:
        raise CheckError("fig1 and fig2 cannot both be checked from svg")
    # each side: "OB-Coh" then "PC-Coh" over all points
    diffs1 = np.concatenate([fig1.curves["OB"] - fig1.curves["Coh"],
                             fig1.curves["PC"] - fig1.curves["Coh"]])
    diffs2 = np.concatenate([fig2.curves["OB-Coh"], fig2.curves["PC-Coh"]])
    if fig1.pixels:
        # a difference of two rounded pixels is off by up to twice the rounding
        slope = np.dot(diffs1, diffs2) / np.dot(diffs2, diffs2)
        resid = float(np.max(np.abs(diffs1 - slope * diffs2)))
        if not (slope > 0 and resid <= 2 * _PIXEL_TOL):
            raise CheckError(f"fig1 svg differences do not match (residual {resid:.3g} px)")
    elif fig2.pixels:
        _affine(diffs2, diffs1, _PIXEL_TOL)
    else:
        scale = np.concatenate([np.abs(fig1.curves["OB"]) + np.abs(fig1.curves["Coh"]),
                                np.abs(fig1.curves["PC"]) + np.abs(fig1.curves["Coh"])])
        err = float(np.max(np.abs(diffs2 - diffs1) / scale))
        if not err <= _REL_TOL:
            raise CheckError(f"differs from fig1 differences by {err:.3g} relative")


def _check_fig4(fig: Figure) -> None:
    _dominates(fig, "Coh&HD", ("dHTD after BS", "separate HTD", "HD product"), strict=True)


def _check_fig5a(fig: Figure) -> None:
    for ni in ("1", "2"):
        ratio = fig.curves[f"O_off N_S=1 N_I={ni}"] / fig.curves[f"QCB N_S=1 N_I={ni}"]
        worst = float(np.max(np.abs(ratio - 1.0)))
        if not worst <= _FIG5A_RATIO_TOL:
            raise CheckError(f"N_I={ni}: |O_off/QCB - 1| = {worst:.3g}")


def _check_fig5b(fig: Figure, n_b: float, kappa: float) -> None:
    _dominates(fig, "Coh QCB", ("CCT QCB",), strict=False)
    closed = M_MODES * kappa * fig.x * (math.sqrt(n_b + 1.0) - math.sqrt(n_b)) ** 2
    _matches(fig.curves["Coh QCB"], closed, fig.pixels, _COH_QCB_REL_TOL)


def _check_s2(fig: Figure, fig3: Figure, n_b: float, kappa: float) -> None:
    from gillum.channels import NoiseModel, ScenarioParams
    from gillum.receivers import snr_bound_nonconstant

    snr = np.array([
        snr_bound_nonconstant(ScenarioParams(kappa=kappa, n_s=float(ns), n_b=n_b,
                                             m_modes=M_MODES,
                                             noise_model=NoiseModel.NONCONSTANT),
                              float(a), float(b))
        for ns, a, b in zip(fig.x, fig.curves["alpha"], fig.curves["beta"])])
    _close(snr, fig3.curves["OB"], _S2_REL_TOL)


def check_operation(scenario, figures: dict) -> None:
    """Check every figure of one operation; ``figures`` maps preset -> Figure.

    The fig5a and s2 checks read values, so those presets need csv or json.
    """
    for preset, fig in figures.items():
        _check_shape(preset, fig, scenario.points)
    for preset, fig in figures.items():
        try:
            if preset in ("fig1", "fig3"):
                _check_fig1_fig3(fig)
            elif preset == "fig2":
                _check_fig2(fig, figures["fig1"])
            elif preset == "fig4":
                _check_fig4(fig)
            elif preset == "fig5a":
                _check_fig5a(fig)
            elif preset == "fig5b":
                _check_fig5b(fig, scenario.n_b, scenario.kappa)
            elif preset == "s2":
                _check_s2(fig, figures["fig3"], scenario.n_b, scenario.kappa)
            elif preset == "s1" and not fig.pixels and not np.all(fig.curves["|beta|"] > 0):
                raise CheckError("|beta| must be positive")
        except CheckError as exc:
            raise CheckError(f"{preset}: {exc}") from exc
