"""Seeded workloads: which figure presets one operation runs, and on what.

One operation is one scenario: every preset of the workload, at the
workload's sweep point count, for one (N_B, kappa) draw.  A workload keeps
its presets together in every operation so per-operation times stay unimodal.

Draws come from a 2-D Halton sequence shifted by a seeded random offset
(Cranley-Patterson rotation).  Any prefix of it covers the parameter box
evenly, so a run of a few operations samples the same mix of easy and hard
parameters whatever the seed, and runs on different seeds stay comparable.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

FORMATS = ("csv", "json", "svg")

WORKLOADS = {
    # Chernoff bounds on undisplaced two-mode split-thermal pairs dominate;
    # the nonconstant-noise optimizer never runs.
    "chernoff": ("fig5a", "fig5b"),
    # The 2-D optimizer dominates; Chernoff runs on displaced single-mode
    # coherent pairs, the `solve` path the chernoff workload never takes.
    "nonconstant": ("fig3", "s2"),
    # The moment engine (stats, snr_generic, state validation, beam-splitter
    # and tensor composition), the emitters and the CLI; no Chernoff search
    # and no optimizer, so it is the bypass workload for both.
    "engine": ("fig1", "fig2", "fig4", "s1"),
}

# Sweep points per preset.  The engine presets run at their default 200.  The
# Chernoff and optimizer presets cost about 20-35 ms a point, so at 200 points
# a scenario takes 7 s and a 30 s run holds only four, too few for a steady
# median; at 25 points it holds about forty.
POINTS = {"chernoff": 25, "nonconstant": 25, "engine": 200}

# Workloads whose output format rotates, so every emitter is exercised.
ROTATE_FORMATS = {"engine"}

NB_RANGE = (1.0, 100.0)
KAPPA_RANGE = (1e-3, 0.1)


@dataclass(frozen=True)
class Scenario:
    """One operation: the presets to run, their formats, and the draw."""

    index: int
    n_b: float
    kappa: float
    points: int
    figures: tuple  # ((preset, fmt), ...)

    def argv(self, preset: str, fmt: str) -> list:
        return ["figure", preset, "--nb", repr(self.n_b), "--kappa", repr(self.kappa),
                "--points", str(self.points), "--format", fmt]


def _radical_inverse(n: int, base: int) -> float:
    q, denom = 0.0, 1.0
    while n:
        n, digit = divmod(n, base)
        denom *= base
        q += digit / denom
    return q


def _log_uniform(u: float, lo: float, hi: float) -> float:
    return 10.0 ** (math.log10(lo) + u * (math.log10(hi) - math.log10(lo)))


class Workload:
    """The seeded scenario sequence of one workload."""

    def __init__(self, name: str, seed: int):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; expected one of {sorted(WORKLOADS)}")
        self.name = name
        self.presets = WORKLOADS[name]
        self.points = POINTS[name]
        rng = random.Random(seed)
        self._shift = (rng.random(), rng.random())

    def scenario(self, index: int) -> Scenario:
        u_nb = (_radical_inverse(index, 2) + self._shift[0]) % 1.0
        u_kappa = (_radical_inverse(index, 3) + self._shift[1]) % 1.0
        if self.name in ROTATE_FORMATS:
            formats = [FORMATS[(index + j) % len(FORMATS)] for j in range(len(self.presets))]
        else:
            formats = ["csv"] * len(self.presets)
        return Scenario(index=index,
                        n_b=_log_uniform(u_nb, *NB_RANGE),
                        kappa=_log_uniform(u_kappa, *KAPPA_RANGE),
                        points=self.points,
                        figures=tuple(zip(self.presets, formats)))
