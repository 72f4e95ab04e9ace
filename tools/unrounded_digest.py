"""Print one SHA-256 over gillum's unrounded results, to show that a change
keeps every bit.

Two sets of values enter the digest, each as the raw bytes of its float64s:

- every preset's ``run_figure`` curves at 25 points, under each noise model
  the preset allows, at the defaults, at (N_B, kappa) = (100, 0.1) and at
  (1, 1e-3);
- 300 seeded one-pair ``qcb`` results: TMSV, CCT and coherent probes, both
  noise models, kappa log-uniform over 1e-6-0.9, N_S, N_I and N_B over
  1e-3-1e2 and whole M up to 1e6.

Their digest is printed first.  A second digest continues the first over
three more sets, which reach the Williamson and Chernoff code that routes
each matrix and pair row on its own:

- 60 seeded ``williamson`` stacks of 2 to 7 rows that mix phase-insensitive
  and other matrices and hold pure rows: two-mode stacks of TMSV (N_S = 0,
  the vacuum, included), CCT and their channel images, kappa = 1 under
  nonconstant noise among them; one-mode stacks of thermal, vacuum and
  squeezed-vacuum states;
- 60 ``qcb_sweep`` results of stacked pairs whose rows mix TMSV and CCT
  probes, each row at its own scenario, with identical-hypothesis
  (kappa = 0) and pure on-state rows;
- 300 near-pure one-pair ``qcb`` corners: TMSV, CCT and coherent probes,
  N_B log-uniform over 1e-9-1e-3 or exactly 0, kappa log-uniform over
  1e-3-1 under both models and exactly 1 under nonconstant noise.

A third digest continues the second over one more set, which reaches the
channel's kappa axis:

- 60 seeded ``qcb_sweep`` results of pairs over a kappa axis of 2 to 7
  entries (exactly 0 at times, and exactly 1 under nonconstant noise): TMSV,
  CCT and coherent probes, single or stacked one row per entry, both noise
  models.  A revision whose channel takes one scalar kappa refuses them all.

A fourth digest continues the third over one more set, which reaches the
background axis:

- 60 seeded scenarios over an n_b axis of 2 to 7 entries (exactly 0 at
  times), alone or across a kappa axis (exactly 1 at times under
  nonconstant noise) or an N_S axis, both noise models: every closed form,
  the optimizer, the coherent closed-form bound, and ``qcb_sweep`` of a
  TMSV, CCT or coherent probe, single or stacked one row per entry.  A
  revision whose ``ScenarioParams`` takes one scalar n_b refuses them all.

A refusal enters as its exception type and message.  Only public names are
used, so the script runs unchanged on any revision that has them:

    PYTHONPATH=src python tools/unrounded_digest.py [--dump PATH]

``--dump PATH`` also writes every hashed value as one JSON line: its set,
its index within the set, and ``float.hex()`` of a float or the text of a
label or refusal.  The digests print as without it.

``--diff OLD NEW`` computes no digest: it reads the dumps of two revisions
and prints, per set, how many of its entries moved (differ in any bit, or
exist in one dump only) out of the entries in either, and the largest
relative change |new - old| / |old| among the moved floats:

    python tools/unrounded_digest.py --diff OLD.jsonl NEW.jsonl
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math

import numpy as np

from gillum import (GaussianState, HypothesisPair, NoiseModel, ScenarioParams, SweepConfig,
                    coherent_qcb_closed, hypothesis_pair, make_cct, make_coherent, make_thermal,
                    make_tmsv, optimal_beta_closed, optimize_alpha_beta_nonconstant, qcb,
                    qcb_sweep, run_figure, snr_bound_constant, snr_bound_nonconstant, snr_cct,
                    snr_closed_dh, snr_closed_opa, snr_closed_pc, snr_coherent_hd,
                    snr_nearly_bound, williamson)
from gillum.chernoff import NumericalError
from gillum.figures import FIGURE_NAMES, ConfigError

SCENARIOS = ({}, {"n_b": 100.0, "kappa": 0.1}, {"n_b": 1.0, "kappa": 1e-3})
QCB_CASES = 300
SEED = 2027
STACKS = 60
CORNERS = 300
AXES = 60


class _Digest:
    """One SHA-256 over the values fed to it: the raw bytes of float64s, and
    text (labels, refusals) as UTF-8.  With a ``dump`` file it also writes
    each value as one JSON line: its set (the function that fed it), its
    index within the set, and ``float.hex()`` or the text."""

    def __init__(self, dump=None):
        self._sha, self._dump, self._set, self._index = hashlib.sha256(), dump, "", 0

    def run(self, feed):
        """``feed(self)``, its values dumped under the set ``feed``'s name."""
        self._set, self._index = feed.__name__.lstrip("_"), 0
        return feed(self)

    def floats(self, values) -> None:
        values = np.asarray(values, dtype=float)
        self._sha.update(values.tobytes())
        for value in values.ravel().tolist() if self._dump else ():
            self._write("hex", value.hex())

    def text(self, text: str) -> None:
        self._sha.update(text.encode())
        if self._dump:
            self._write("text", text)

    def _write(self, kind: str, value: str) -> None:
        self._dump.write(json.dumps({"set": self._set, "index": self._index, kind: value}) + "\n")
        self._index += 1

    def hexdigest(self) -> str:
        return self._sha.hexdigest()


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
                digest.text(f"{figure} {model.value} {sorted(overrides.items())}")
                digest.floats(curves.x)
                for label, y in curves.curves.items():
                    digest.text(label)
                    digest.floats(y)
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
            digest.text(f"{type(exc).__name__}: {exc}")
            refusals += 1
            continue
        digest.floats([result.s_star, result.exponent])
        results += 1
    return results, refusals


def _stack(states: list) -> GaussianState:
    return GaussianState(np.stack([s.mean_q for s in states]), np.stack([s.cov_n for s in states]))


def _refusal(digest, exc: Exception) -> int:
    digest.text(f"{type(exc).__name__}: {exc}")
    return 1


def _two_mode_row(rng):
    """A seeded TMSV (the vacuum for N_S = 0) or CCT probe and a scenario for
    it, kappa = 0 or 1 (nonconstant noise) at times."""
    n_s = 0.0 if rng.uniform() < 0.25 else _log_uniform(rng, 1e-3, 1e2)
    probe = make_tmsv(n_s) if rng.uniform() < 0.6 else make_cct(n_s, _log_uniform(rng, 1e-3, 1e2))
    model = list(NoiseModel)[int(rng.integers(2))]
    kappa = float(rng.choice([0.0, 1.0, _log_uniform(rng, 1e-3, 0.9)], p=[0.1, 0.2, 0.7]))
    if model is NoiseModel.CONSTANT:  # its channel is undefined at kappa = 1
        kappa = min(kappa, 0.9)
    params = ScenarioParams(kappa=kappa, n_s=n_s, n_b=_log_uniform(rng, 1e-3, 1e2),
                            noise_model=model)
    return probe, params


def _one_mode_row(rng) -> GaussianState:
    """A thermal state, the vacuum or a squeezed vacuum (pure, not phase-insensitive)."""
    kind = int(rng.integers(3))
    if kind == 0:
        return make_thermal(_log_uniform(rng, 1e-3, 1e2))
    if kind == 1:
        return make_thermal(0.0)
    r = rng.uniform(0.05, 2.0)
    return GaussianState(np.zeros(2), np.diag([np.expm1(2 * r) / 2, np.expm1(-2 * r) / 2]))


def _williamson_stacks(digest) -> tuple:
    """Feed STACKS seeded mixed-route ``williamson`` stacks to ``digest``;
    return the counts of decomposed matrices and refusals."""
    rng = np.random.default_rng(SEED + 1)
    matrices = refusals = 0
    for case in range(STACKS):
        rows = int(rng.integers(2, 8))
        if case % 3 == 2:
            states = [_one_mode_row(rng) for _ in range(rows)]
        else:
            states = []
            for _ in range(rows):
                probe, params = _two_mode_row(rng)
                pair = hypothesis_pair(probe, params)
                states.append((probe, pair.on, pair.off)[int(rng.choice(3, p=[0.3, 0.5, 0.2]))])
        try:
            nu, s = williamson(_stack(states))
        except ValueError as exc:
            refusals += _refusal(digest, exc)
            continue
        digest.floats(nu)
        digest.floats(s)
        matrices += rows
    return matrices, refusals


def _sweeps(digest) -> tuple:
    """Feed STACKS seeded ``qcb_sweep`` results of mixed-route pair stacks to
    ``digest``; return the counts of rows and refused stacks."""
    rng = np.random.default_rng(SEED + 2)
    results = refusals = 0
    for _ in range(STACKS):
        pairs = [hypothesis_pair(*_two_mode_row(rng)) for _ in range(int(rng.integers(2, 8)))]
        stacked = HypothesisPair(_stack([p.on for p in pairs]), _stack([p.off for p in pairs]))
        try:
            result = qcb_sweep(stacked, int(rng.integers(1, 10 ** 6)))
        except NumericalError as exc:
            refusals += _refusal(digest, exc)
            continue
        digest.floats(result.s_star)
        digest.floats(result.exponent)
        results += len(pairs)
    return results, refusals


def _corners(digest) -> tuple:
    """Feed CORNERS seeded near-pure one-pair ``qcb`` results to ``digest``;
    return the counts of results and refusals."""
    rng = np.random.default_rng(SEED + 3)
    results = refusals = 0
    for case in range(CORNERS):
        model = list(NoiseModel)[int(rng.integers(2))]
        n_b = 0.0 if rng.uniform() < 0.25 else _log_uniform(rng, 1e-9, 1e-3)
        if model is NoiseModel.NONCONSTANT and rng.uniform() < 0.3:
            kappa = 1.0
        else:
            kappa = _log_uniform(rng, 1e-3, 1.0 if model is NoiseModel.NONCONSTANT else 0.999)
        n_s, n_i = _log_uniform(rng, 1e-3, 1e2), _log_uniform(rng, 1e-3, 1e2)
        params = ScenarioParams(kappa=kappa, n_s=n_s, n_i=n_i, n_b=n_b, noise_model=model)
        probe = (make_tmsv(n_s), make_cct(n_s, n_i),
                 make_coherent(math.sqrt(n_s) * np.exp(1j * rng.uniform(0, 2 * math.pi))))[case % 3]
        try:
            result = qcb(hypothesis_pair(probe, params), int(rng.integers(1, 1000)))
        except NumericalError as exc:
            refusals += _refusal(digest, exc)
            continue
        digest.floats([result.s_star, result.exponent])
        results += 1
    return results, refusals


def _kappa_axes(digest) -> tuple:
    """Feed AXES seeded kappa-axis ``qcb_sweep`` results to ``digest``; return
    the counts of rows and refused stacks."""
    rng = np.random.default_rng(SEED + 4)
    results = refusals = 0
    for case in range(AXES):
        model = list(NoiseModel)[int(rng.integers(2))]
        top = 1.0 if model is NoiseModel.NONCONSTANT else 0.0  # constant noise: no kappa = 1
        kappa = np.array([float(rng.choice([0.0, top, _log_uniform(rng, 1e-3, 0.9)],
                                           p=[0.15, 0.15, 0.7]))
                          for _ in range(int(rng.integers(2, 8)))])
        stacked = case % 2 == 1
        n_s = np.array([_log_uniform(rng, 1e-3, 1e2) for _ in kappa]) if stacked \
            else _log_uniform(rng, 1e-3, 1e2)
        probe = (make_tmsv(n_s), make_cct(n_s, _log_uniform(rng, 1e-3, 1e2)),
                 make_coherent(np.sqrt(n_s) * np.exp(1j * rng.uniform(0, 2 * math.pi))))[case % 3]
        params = ScenarioParams(kappa=kappa, n_s=n_s, n_b=_log_uniform(rng, 1e-3, 1e2),
                                noise_model=model)
        try:
            result = qcb_sweep(hypothesis_pair(probe, params), int(rng.integers(1, 10 ** 6)))
        except (ValueError, NumericalError) as exc:
            refusals += _refusal(digest, exc)
            continue
        digest.floats(result.s_star)
        digest.floats(result.exponent)
        results += kappa.size
    return results, refusals


def _closed_forms(model: NoiseModel) -> list:
    """Every closed form of a scenario under ``model``, each giving arrays."""
    forms = [snr_nearly_bound, snr_closed_pc, snr_closed_opa, snr_closed_dh, snr_cct,
             snr_coherent_hd, lambda p: snr_bound_nonconstant(p, -0.3, 0.7)]
    if model is NoiseModel.NONCONSTANT:
        return forms + [optimize_alpha_beta_nonconstant]
    return forms + [snr_bound_constant, optimal_beta_closed,
                    lambda p: _bound_values(coherent_qcb_closed(p))]


def _bound_values(result) -> tuple:
    return result.s_star, result.exponent


def _result(digest, form, params) -> int:
    """Feed the float64 bytes of ``form(params)`` to ``digest``, or its
    refusal; return 1 for a refusal and 0 otherwise."""
    try:
        result = form(params)
    except (ValueError, NumericalError) as exc:
        return _refusal(digest, exc)
    digest.floats(result)
    return 0


def _background_axes(digest) -> tuple:
    """Feed AXES seeded n_b-axis scenarios to ``digest``: each closed form and
    one ``qcb_sweep``; return the counts of results and refusals."""
    rng = np.random.default_rng(SEED + 5)
    results = refusals = 0
    for case in range(AXES):
        model = list(NoiseModel)[int(rng.integers(2))]
        n_b = np.array([0.0 if rng.uniform() < 0.2 else _log_uniform(rng, 1e-3, 1e2)
                        for _ in range(int(rng.integers(2, 8)))])
        kappa, n_s = _log_uniform(rng, 1e-3, 0.9), _log_uniform(rng, 1e-3, 1e2)
        beside = case % 3  # the n_b axis alone, across a kappa axis or across an N_S axis
        if beside:
            n_b = n_b[:, None]
            across = range(int(rng.integers(2, 5)))
        if beside == 1:
            kappa = np.array([1.0 if model is NoiseModel.NONCONSTANT and rng.uniform() < 0.3
                              else _log_uniform(rng, 1e-3, 0.9) for _ in across])
        elif beside == 2:
            n_s = np.array([_log_uniform(rng, 1e-3, 1e2) for _ in across])
        n_i, m_modes = _log_uniform(rng, 1e-3, 1e2), int(rng.integers(1, 10 ** 6))
        shape = np.broadcast_shapes(np.shape(kappa), np.shape(n_s), n_b.shape)
        n = np.exp(rng.uniform(math.log(1e-3), math.log(1e2), shape)) if rng.uniform() < 0.5 \
            else n_s  # a probe stacked one row per entry, or the scenario's own
        phase = rng.uniform(0, 2 * math.pi)
        probe = (make_tmsv, lambda x: make_cct(x, n_i),
                 lambda x: make_coherent(np.sqrt(x) * np.exp(1j * phase)))[case // 3 % 3]
        try:
            params = ScenarioParams(kappa=kappa, n_s=n_s, n_i=n_i, n_b=n_b, m_modes=m_modes,
                                    noise_model=model)
        except ValueError as exc:
            refusals += _refusal(digest, exc)
            continue
        for form in _closed_forms(model) + [
                lambda p: _bound_values(qcb_sweep(hypothesis_pair(probe(n), p), p.m_modes))]:
            refused = _result(digest, form, params)
            results, refusals = results + 1 - refused, refusals + refused
    return results, refusals


def _read_dump(path: str) -> dict:
    """{(set, index): entry} of a ``--dump`` file, each entry its ``hex`` or
    ``text`` field as written."""
    with open(path, encoding="utf-8") as fh:
        return {(e["set"], e["index"]): e for e in map(json.loads, fh)}


def _relative_change(old: dict, new: dict) -> float:
    """|new - old| / |old| of two dumped floats (inf from a zero to a
    nonzero), or nan where either entry is missing or text."""
    if "hex" not in old or "hex" not in new:
        return math.nan
    a, b = float.fromhex(old["hex"]), float.fromhex(new["hex"])
    return abs(b - a) / abs(a) if a else (math.inf if b else 0.0)


def diff(old_path: str, new_path: str) -> None:
    """Print, per set of two ``--dump`` files, the moved entries out of all
    and the largest relative change of a moved float."""
    old, new = _read_dump(old_path), _read_dump(new_path)
    keys = sorted(old.keys() | new.keys(), key=lambda key: key[1])
    for name in dict.fromkeys(entry["set"] for entry in (*old.values(), *new.values())):
        entries = [(old.get(key, {}), new.get(key, {})) for key in keys if key[0] == name]
        moved = [pair for pair in entries if pair[0] != pair[1]]
        changes = [_relative_change(*pair) for pair in moved]
        floats = [c for c in changes if not math.isnan(c)]
        print(f"{name}: {len(moved)}/{len(entries)} moved, largest relative change "
              f"{max(floats, default=0.0):.3g}"
              + (f", {len(changes) - len(floats)} moved text or unpaired"
                 if len(floats) < len(changes) else ""))


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--dump", metavar="PATH",
                        help="also write every hashed value to PATH as JSON lines")
    parser.add_argument("--diff", nargs=2, metavar=("OLD", "NEW"),
                        help="compare two --dump files set by set instead")
    args = parser.parse_args(argv)
    if args.diff:
        diff(*args.diff)
        return
    with contextlib.ExitStack() as stack:
        digest = _Digest(stack.enter_context(open(args.dump, "w", encoding="utf-8"))
                         if args.dump else None)
        values = digest.run(_curves)
        results, refusals = digest.run(_qcb_cases)
        print(f"{values} curve values, {results} qcb results, {refusals} refusals")
        print(digest.hexdigest())
        matrices, w_refusals = digest.run(_williamson_stacks)
        rows, s_refusals = digest.run(_sweeps)
        corners, c_refusals = digest.run(_corners)
        print(f"then {matrices} williamson matrices ({w_refusals} stacks refused), {rows} "
              f"qcb_sweep rows ({s_refusals} stacks refused), {corners} corner results "
              f"({c_refusals} refused)")
        print(digest.hexdigest())
        rows, a_refusals = digest.run(_kappa_axes)
        print(f"then {rows} kappa-axis qcb_sweep rows ({a_refusals} stacks refused)")
        print(digest.hexdigest())
        results, b_refusals = digest.run(_background_axes)
        print(f"then {results} n_b-axis results ({b_refusals} refused)")
        print(digest.hexdigest())


if __name__ == "__main__":
    main()
