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

Each set is a generator of seeded cases, each case a call that returns the
values to feed and the count they add; ``DIGESTS`` lists the sets of each
digest in feed order, and a new set is one generator and one entry there.
A case that raises one of its set's refusal types enters as the exception
type and message.  One line per set reports its count and refusals, and
each digest follows its sets.  Only public names are used, so the script
runs unchanged on any revision that has them:

    PYTHONPATH=src python tools/unrounded_digest.py [--dump PATH]

``--dump PATH`` also writes every hashed value as one JSON line: its set,
its index within the set, and ``float.hex()`` of a float or the text of a
label or refusal.  The digests print as without it.

``--diff OLD NEW`` computes no digest: it reads the dumps of two revisions
and prints, per set, how many of its entries moved (differ in any bit, or
exist in one dump only) out of the entries in either, and the largest
relative change |new - old| / |old| among the moved floats.  It exits 1 if
any entry moved and 0 if none did, so "no bit moved" is its exit status:

    PYTHONPATH=src python tools/unrounded_digest.py --diff OLD.jsonl NEW.jsonl
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
    each value as one JSON line: its set, its index within the set, and
    ``float.hex()`` or the text."""

    def __init__(self, dump=None):
        self._sha, self._dump, self._set, self._index = hashlib.sha256(), dump, "", 0

    def feed(self, name: str, cases, refusals: tuple) -> tuple:
        """Feed the set ``name``.  Each case is called before the next is
        drawn and returns its values (text, or floats and arrays of them) and
        the count they add; a case that raises one of ``refusals`` is fed as
        the exception's type and message instead.  Return the count and the
        number of refusals."""
        self._set, self._index = name, 0
        count = refused = 0
        for case in cases:
            try:
                values, added = case()
            except refusals as exc:
                values, added, refused = [f"{type(exc).__name__}: {exc}"], 0, refused + 1
            for value in values:
                if isinstance(value, str):
                    self._text(value)
                else:
                    self._floats(value)
            count += added
        return count, refused

    def _floats(self, values) -> None:
        values = np.asarray(values, dtype=float)
        self._sha.update(values.tobytes())
        for value in values.ravel().tolist() if self._dump else ():
            self._write("hex", value.hex())

    def _text(self, text: str) -> None:
        self._sha.update(text.encode())
        if self._dump:
            self._write("text", text)

    def _write(self, kind: str, value: str) -> None:
        self._dump.write(json.dumps({"set": self._set, "index": self._index, kind: value}) + "\n")
        self._index += 1

    def hexdigest(self) -> str:
        return self._sha.hexdigest()


def _curves():
    """Every preset's curves, one case per preset, noise model and scenario,
    counting curve values."""
    for figure in FIGURE_NAMES:
        for model in NoiseModel:
            for overrides in SCENARIOS:
                header = f"{figure} {model.value} {sorted(overrides.items())}"
                with contextlib.suppress(ConfigError):  # a noise model the preset lacks
                    config = SweepConfig(figure, points=25, noise=model, **overrides)
                    yield lambda: _curve_values(run_figure(config), header)


def _curve_values(curves, header: str) -> tuple:
    """The header, x, and each label and its curve; the count of curve values."""
    return ([header, curves.x, *(value for item in curves.curves.items() for value in item)],
            sum(y.size for y in curves.curves.values()))


def _log_uniform(rng, lo: float, hi: float) -> float:
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def _bound_values(result) -> tuple:
    return result.s_star, result.exponent


def _qcb_cases():
    """QCB_CASES seeded one-pair ``qcb`` results."""
    rng = np.random.default_rng(SEED)
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
        yield lambda: (_bound_values(qcb(hypothesis_pair(probe, params), m_modes)), 1)


def _stack(states: list) -> GaussianState:
    return GaussianState(np.stack([s.mean_q for s in states]), np.stack([s.cov_n for s in states]))


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


def _williamson_stacks():
    """STACKS seeded mixed-route ``williamson`` stacks, counting matrices."""
    rng = np.random.default_rng(SEED + 1)
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
        yield lambda: (williamson(_stack(states)), rows)


def _sweeps():
    """STACKS seeded ``qcb_sweep`` results of mixed-route pair stacks,
    counting rows."""
    rng = np.random.default_rng(SEED + 2)
    for _ in range(STACKS):
        pairs = [hypothesis_pair(*_two_mode_row(rng)) for _ in range(int(rng.integers(2, 8)))]
        stacked = HypothesisPair(_stack([p.on for p in pairs]), _stack([p.off for p in pairs]))
        m_modes = int(rng.integers(1, 10 ** 6))
        yield lambda: (_bound_values(qcb_sweep(stacked, m_modes)), len(pairs))


def _corners():
    """CORNERS seeded near-pure one-pair ``qcb`` results."""
    rng = np.random.default_rng(SEED + 3)
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
        m_modes = int(rng.integers(1, 1000))
        yield lambda: (_bound_values(qcb(hypothesis_pair(probe, params), m_modes)), 1)


def _kappa_axes():
    """AXES seeded kappa-axis ``qcb_sweep`` results, counting rows."""
    rng = np.random.default_rng(SEED + 4)
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
        m_modes = int(rng.integers(1, 10 ** 6))
        yield lambda: (_bound_values(qcb_sweep(hypothesis_pair(probe, params), m_modes)),
                       kappa.size)


def _closed_forms(model: NoiseModel) -> list:
    """Every closed form of a scenario under ``model``, each giving arrays."""
    forms = [snr_nearly_bound, snr_closed_pc, snr_closed_opa, snr_closed_dh, snr_cct,
             snr_coherent_hd, lambda p: snr_bound_nonconstant(p, -0.3, 0.7)]
    if model is NoiseModel.NONCONSTANT:
        return forms + [optimize_alpha_beta_nonconstant]
    return forms + [snr_bound_constant, optimal_beta_closed,
                    lambda p: _bound_values(coherent_qcb_closed(p))]


def _background_axes():
    """AXES seeded n_b-axis scenarios, one result per closed form and one
    ``qcb_sweep``; each case builds its own ``ScenarioParams``."""
    rng = np.random.default_rng(SEED + 5)
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
        fields = dict(kappa=kappa, n_s=n_s, n_i=n_i, n_b=n_b, m_modes=m_modes, noise_model=model)
        for form in _closed_forms(model) + [
                lambda p: _bound_values(qcb_sweep(hypothesis_pair(probe(n), p), p.m_modes))]:
            yield lambda: ([form(ScenarioParams(**fields))], 1)


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


def diff(old_path: str, new_path: str) -> int:
    """Print, per set of two ``--dump`` files, the moved entries out of all
    and the largest relative change of a moved float; return the count of
    moved entries."""
    old, new = _read_dump(old_path), _read_dump(new_path)
    keys = sorted(old.keys() | new.keys(), key=lambda key: key[1])
    total = 0
    for name in dict.fromkeys(entry["set"] for entry in (*old.values(), *new.values())):
        entries = [(old.get(key, {}), new.get(key, {})) for key in keys if key[0] == name]
        moved = [pair for pair in entries if pair[0] != pair[1]]
        total += len(moved)
        changes = [_relative_change(*pair) for pair in moved]
        floats = [c for c in changes if not math.isnan(c)]
        print(f"{name}: {len(moved)}/{len(entries)} moved, largest relative change "
              f"{max(floats, default=0.0):.3g}"
              + (f", {len(changes) - len(floats)} moved text or unpaired"
                 if len(floats) < len(changes) else ""))
    return total


# Each chained digest's sets in feed order: (cases, the exception types fed as
# refusals, what the count counts).
DIGESTS = (
    ((_curves, (), "values"), (_qcb_cases, (NumericalError,), "results")),
    ((_williamson_stacks, (ValueError,), "matrices"), (_sweeps, (NumericalError,), "rows"),
     (_corners, (NumericalError,), "results")),
    ((_kappa_axes, (ValueError, NumericalError), "rows"),),
    ((_background_axes, (ValueError, NumericalError), "results"),),
)


def main(argv=None) -> int:
    """Run the command line; return its exit status."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--dump", metavar="PATH",
                        help="also write every hashed value to PATH as JSON lines")
    parser.add_argument("--diff", nargs=2, metavar=("OLD", "NEW"),
                        help="compare two --dump files set by set instead")
    args = parser.parse_args(argv)
    if args.diff:
        return 1 if diff(*args.diff) else 0
    with open(args.dump, "w", encoding="utf-8") if args.dump else contextlib.nullcontext() as dump:
        digest = _Digest(dump)
        for sets in DIGESTS:
            for cases, refusals, unit in sets:
                name = cases.__name__.lstrip("_")
                count, refused = digest.feed(name, cases(), refusals)
                print(f"{name}: {count} {unit}, {refused} refused")
            print(digest.hexdigest())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
