"""Print one SHA-256 over gillum's unrounded results, to show that a change
keeps every bit.

Two sets of values enter the digest, each as the raw bytes of its float64s:

- every preset's ``run_figure`` curves at 25 points, under each noise model
  the preset allows, at the defaults, at (N_B, kappa) = (100, 0.1) and at
  (1, 1e-3);
- 300 seeded one-pair ``qcb`` results: TMSV, CCT and coherent probes, both
  noise models, kappa log-uniform over 1e-6-0.9, N_S, N_I and N_B over
  1e-3-1e2 and whole M up to 1e6.

A refusal enters as its exception type and message.  Only public names are
used, so the script runs unchanged on any revision that has them:

    PYTHONPATH=src python tools/unrounded_digest.py
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from gillum import (NoiseModel, ScenarioParams, SweepConfig, hypothesis_pair, make_cct,
                    make_coherent, make_tmsv, qcb, run_figure)
from gillum.chernoff import NumericalError
from gillum.figures import FIGURE_NAMES, ConfigError

SCENARIOS = ({}, {"n_b": 100.0, "kappa": 0.1}, {"n_b": 1.0, "kappa": 1e-3})
QCB_CASES = 300
SEED = 2027


def _curves(digest) -> int:
    """Feed every preset curve to ``digest``; return the count of values."""
    count = 0
    for figure in FIGURE_NAMES:
        for model in NoiseModel:
            for overrides in SCENARIOS:
                try:
                    config = SweepConfig(figure, points=25, noise=model, **overrides)
                except ConfigError:  # a noise model the preset is not defined for
                    continue
                curves = run_figure(config)
                digest.update(f"{figure} {model.value} {sorted(overrides.items())}".encode())
                digest.update(np.asarray(curves.x, dtype=float).tobytes())
                for label, y in curves.curves.items():
                    digest.update(label.encode())
                    digest.update(np.asarray(y, dtype=float).tobytes())
                    count += y.size
    return count


def _log_uniform(rng, lo: float, hi: float) -> float:
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def _qcb_cases(digest) -> tuple:
    """Feed QCB_CASES seeded one-pair ``qcb`` results to ``digest``; return
    the counts of results and refusals."""
    rng = np.random.default_rng(SEED)
    results = refusals = 0
    for case in range(QCB_CASES):
        n_s, n_i, n_b = (_log_uniform(rng, 1e-3, 1e2) for _ in range(3))
        params = ScenarioParams(kappa=_log_uniform(rng, 1e-6, 0.9), n_s=n_s, n_i=n_i, n_b=n_b,
                                noise_model=list(NoiseModel)[int(rng.integers(2))])
        m_modes = int(rng.integers(1, 10 ** int(rng.integers(1, 7)) + 1))
        if case % 3 == 0:
            probe = make_tmsv(n_s)
        elif case % 3 == 1:
            probe = make_cct(n_s, n_i)
        else:
            probe = make_coherent(math.sqrt(n_s) * np.exp(1j * rng.uniform(0, 2 * math.pi)))
        try:
            result = qcb(hypothesis_pair(probe, params), m_modes)
        except NumericalError as exc:
            digest.update(f"{type(exc).__name__}: {exc}".encode())
            refusals += 1
            continue
        digest.update(np.array([result.s_star, result.exponent]).tobytes())
        results += 1
    return results, refusals


def main() -> None:
    digest = hashlib.sha256()
    values = _curves(digest)
    results, refusals = _qcb_cases(digest)
    print(f"{values} curve values, {results} qcb results, {refusals} refusals")
    print(digest.hexdigest())


if __name__ == "__main__":
    main()
