"""Every preset's emitted bytes, pinned.

``data/preset_bytes.json`` holds, for each preset at 25 points under two
scenarios, and for the presets defined for a second noise model under that
model at the defaults, the CSV text and the SHA-256 of the JSON and SVG
renderings.  A
refactor that keeps the numbers keeps these bytes; a CSV mismatch names the
cells that moved.
"""

import hashlib
import json
from pathlib import Path

import pytest

from gillum import NoiseModel, SweepConfig, run_figure
from gillum.emit import render
from gillum.figures import FIGURE_NAMES

DATA = Path(__file__).resolve().parent / "data" / "preset_bytes.json"
POINTS = 25
SCENARIOS = {"defaults": {}, "nb100-kappa0.1": {"n_b": 100.0, "kappa": 0.1},
             "noise-constant": {"noise": NoiseModel.CONSTANT},
             "noise-nonconstant": {"noise": NoiseModel.NONCONSTANT}}
CASES = [(figure, scenario) for figure in FIGURE_NAMES
         for scenario in ("defaults", "nb100-kappa0.1")] + [
    ("fig1", "noise-nonconstant"), ("fig3", "noise-constant"),
    ("fig5a", "noise-nonconstant"), ("fig5b", "noise-nonconstant")]


def _render(figure, scenario):
    curves = run_figure(SweepConfig(figure=figure, points=POINTS, **SCENARIOS[scenario]))
    return {"csv": render(curves, "csv"),
            **{f"{fmt}_sha256": hashlib.sha256(render(curves, fmt).encode()).hexdigest()
               for fmt in ("json", "svg")}}


def _moved_cells(got: str, want: str) -> list:
    got_rows, want_rows = got.splitlines(), want.splitlines()
    if len(got_rows) != len(want_rows):
        return [f"{len(got_rows)} lines, expected {len(want_rows)}"]
    header = want_rows[0].split(",")
    moved = []
    for i, (g, w) in enumerate(zip(got_rows, want_rows)):
        g_cells, w_cells = g.split(","), w.split(",")
        if len(g_cells) != len(w_cells):
            moved.append(f"line {i}: {g!r}, expected {w!r}")
            continue
        moved += [f"line {i} {header[j] if i else 'header'}: {gc}, expected {wc}"
                  for j, (gc, wc) in enumerate(zip(g_cells, w_cells)) if gc != wc]
    return moved


@pytest.mark.parametrize("figure, scenario", CASES)
def test_preset_bytes_are_stable(figure, scenario):
    want = json.loads(DATA.read_text(encoding="utf-8"))[f"{figure}@{scenario}"]
    got = _render(figure, scenario)
    moved = _moved_cells(got["csv"], want["csv"])
    assert not moved, moved
    assert got == want

