"""Curve-set emitters: CSV, JSON and a dependency-free SVG line plot.

Output is byte-identical for identical input: fixed float formatting, fixed
curve order, fixed SVG template with no external assets.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .figures import ConfigError, CurveSet

_FMT = "{:.12g}"

_WIDTH, _HEIGHT = 800, 600
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 170, 30, 50
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
            "#8c564b", "#17becf", "#7f7f7f")


def to_csv(curves: CurveSet) -> str:
    lines = [",".join(["x", *curves.curves])]
    lines += [",".join(map(_FMT.format, row))
              for row in zip(curves.x, *curves.curves.values())]
    return "\n".join(lines) + "\n"


def to_json(curves: CurveSet) -> str:
    """``json.dumps(payload, indent=2)`` of the curves, numbers rounded to 12
    digits, written directly: indentation forces its pure-Python encoder.
    The shared x is formatted once and paired with every curve's values."""
    x = [repr(float(_FMT.format(v))) for v in curves.x.tolist()]
    blocks = []
    for label, values in curves.curves.items():
        y = [repr(float(_FMT.format(v))) for v in values.tolist()]
        points = ",\n".join(f"        [\n          {xv},\n          {yv}\n        ]"
                             for xv, yv in zip(x, y))
        blocks.append(f'    {{\n      "label": {json.dumps(label)},\n'
                      f'      "points": [\n{points}\n      ]\n    }}')
    return (f'{{\n  "x_label": {json.dumps(curves.x_label)},\n  "y_label": '
            f'{json.dumps(curves.y_label)},\n  "curves": [\n' + ",\n".join(blocks) + "\n  ]\n}\n")


def _ticks(lo: float, hi: float, log: bool):
    if log:
        first = math.ceil(math.log10(lo) - 1e-12)
        last = math.floor(math.log10(hi) + 1e-12)
        return [10.0**k for k in range(first, last + 1)]
    span = hi - lo
    if span <= 0:
        return [lo]
    step = 10.0 ** math.floor(math.log10(span / 4))
    for mult in (1, 2, 5, 10):
        if span / (step * mult) <= 6:
            step *= mult
            break
    first = math.ceil(lo / step)
    return [k * step for k in range(first, math.floor(hi / step) + 1)]


def to_svg(curves: CurveSet) -> str:
    x = curves.x
    log_x = bool(np.all(x > 0) and x[-1] / x[0] >= 50)
    xv = np.log10(x) if log_x else x
    ys = np.concatenate(list(curves.curves.values()))
    y_lo, y_hi = float(np.min(ys)), float(np.max(ys))
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad
    x_lo, x_hi = float(xv[0]), float(xv[-1])
    if x_hi == x_lo:
        x_hi = x_lo + 1.0

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def px(v: float) -> float:
        return _MARGIN_L + (v - x_lo) / (x_hi - x_lo) * plot_w

    def py(v: float) -> float:
        return _MARGIN_T + (y_hi - v) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="black"/>',
    ]
    for tick in _ticks(x[0], x[-1], log_x):
        tv = math.log10(tick) if log_x else tick
        if tv < x_lo - 1e-9 or tv > x_hi + 1e-9:
            continue
        xp = px(tv)
        parts.append(f'<line x1="{xp:.2f}" y1="{_MARGIN_T + plot_h}" '
                     f'x2="{xp:.2f}" y2="{_MARGIN_T + plot_h + 5}" stroke="black"/>')
        parts.append(f'<text x="{xp:.2f}" y="{_MARGIN_T + plot_h + 18}" '
                     f'font-size="11" text-anchor="middle">{tick:g}</text>')
    for tick in _ticks(y_lo, y_hi, False):
        yp = py(tick)
        parts.append(f'<line x1="{_MARGIN_L - 5}" y1="{yp:.2f}" '
                     f'x2="{_MARGIN_L}" y2="{yp:.2f}" stroke="black"/>')
        parts.append(f'<text x="{_MARGIN_L - 8}" y="{yp + 4:.2f}" '
                     f'font-size="11" text-anchor="end">{tick:g}</text>')
    parts.append(f'<text x="{_MARGIN_L + plot_w / 2:.1f}" y="{_HEIGHT - 10}" '
                 f'font-size="13" text-anchor="middle">{curves.x_label}</text>')
    parts.append(f'<text x="18" y="{_MARGIN_T + plot_h / 2:.1f}" font-size="13" '
                 f'text-anchor="middle" transform="rotate(-90 18 '
                 f'{_MARGIN_T + plot_h / 2:.1f})">{curves.y_label}</text>')
    for k, (label, y) in enumerate(curves.curves.items()):
        color = _PALETTE[k % len(_PALETTE)]
        pts = " ".join(f"{px(vx):.2f},{py(vy):.2f}" for vx, vy in zip(xv, y))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     'stroke-width="1.5"/>')
        ly = _MARGIN_T + 18 + 18 * k
        lx = _MARGIN_L + plot_w + 12
        parts.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{lx + 28}" y="{ly}" font-size="11">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


_RENDERERS = {"csv": to_csv, "json": to_json, "svg": to_svg}


def render(curves: CurveSet, fmt: str) -> str:
    """The curve set as text in format ``fmt`` (csv, json or svg)."""
    if fmt not in _RENDERERS:
        *rest, last = _RENDERERS
        raise ConfigError(f"unknown format {fmt!r}; expected {', '.join(rest)} or {last}")
    return _RENDERERS[fmt](curves)


def emit(curves: CurveSet, fmt: str, path: str) -> None:
    """Render a curve set to ``path``; nothing is written on invalid input."""
    text = render(curves, fmt)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
