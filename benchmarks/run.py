"""gillum benchmark: whole figure scenarios through ``gillum.cli.main``, in process.

    python3 benchmarks/run.py --workload chernoff|nonconstant|engine \\
        [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root; the package is imported from ``src/``.

Load model: closed loop, one client, one process.  The next operation starts
when the previous one returns.  One operation runs every preset of the
workload for one seeded (N_B, kappa) draw (see ``workloads.py``), each at the
workload's point count.  ``GILLUM_THREADS`` is removed from the environment,
so sweeps run serially, as users get them by default.  Every output is
checked after its operation, outside the timed region (see ``checks.py``).

``--trace 0`` reports the end-to-end metrics: verified sweep points per
second, the median operation time, set-up time (a fresh interpreter's
``import gillum, gillum.cli`` plus a 2-point figure, the median of several
processes) and the benchmark process's peak resident memory.

On a shared host the speed of a core drifts by a third over minutes as
neighbours come and go, which no run length averages away.  So every timed
operation and set-up process is preceded by a fixed calibration loop
(``_calibration_s``), and each time is reported at reference speed: measured
time x ``REF_S`` / the loop's adjacent time.  The loop is benchmark code, so
a change to the program moves the reported times and a change of machine
speed cancels.  Raw wall times are in the details line.

``--trace 1`` runs each scenario untraced and then traced (see ``tracer.py``)
and reports per-operation call counts and self times per layer and for the
hot functions, the untraced time per preset (0 for presets the workload does
not run), and the tracing overhead.  It also checks that traced and untraced
runs emit identical bytes and that the traced call counts match what the
preset definitions imply.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment, the seed and per-run details.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import checks
from tracer import LAYERS, Tracer
from workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

DEFAULT_SEED = 1
DEFAULT_SECONDS = 30
# Times are reported at the speed where the calibration loop takes REF_S
# seconds, about its time on an idle 2-core x86-64 host.
REF_S = 0.07
SETUP_SAMPLES = 7
WALL_CAP_S = 120.0  # stop starting operations after this, whatever --seconds says
SETUP_SNIPPET = ("import sys, gillum, gillum.cli; "
                 "sys.exit(gillum.cli.main(['figure', 'fig1', '--points', '2']))")
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# Per-preset wall times at 200 points in ROADMAP.md's "Recent" table (2 cores,
# Python 3.11), printed beside the measured times so differences show.
ROADMAP_RECENT_S = {"fig1": 0.014, "fig2": 0.014, "fig3": 4.8, "fig4": 0.37,
                    "fig5a": 4.8, "fig5b": 2.3, "s1": 0.001, "s2": 2.3}

# Traced calls per sweep point that each preset's definition implies.
EXPECTED_CALLS_PER_POINT = {
    "fig5a": {"channels.hypothesis_pair": 2, "chernoff.qcb": 2, "chernoff.williamson": 4},
    "fig4": {"channels.hypothesis_pair": 1, "receivers.snr_generic": 3,
             "observables.stats": 6},
    "s2": {"receivers.optimize_alpha_beta_nonconstant": 1},
}

FUNCTION_SELF_S = ("channels.hypothesis_pair", "observables.stats", "receivers.snr_generic",
                   "receivers.optimize_alpha_beta_nonconstant", "chernoff.qcb",
                   "chernoff.williamson")
FUNCTION_CALLS = ("observables.stats", "receivers.optimize_alpha_beta_nonconstant",
                  "chernoff.qcb")


@dataclass
class Operation:
    seconds: float = 0.0
    preset_s: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)  # preset -> (fmt, text)
    preset_calls: dict = field(default_factory=dict)  # preset -> {function: calls}
    error: str | None = None


def _run_cli(argv):
    import gillum.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = gillum.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _run_operation(scenario, tracer=None) -> Operation:
    op = Operation()
    start = time.perf_counter()
    for preset, fmt in scenario.figures:
        before = dict(tracer.calls) if tracer else None
        t0 = time.perf_counter()
        try:
            code, text, err = _run_cli(scenario.argv(preset, fmt))
        except Exception:  # the run must go on; the failure is recorded
            code, text, err = None, "", traceback.format_exc(limit=3)
        op.preset_s[preset] = time.perf_counter() - t0
        op.outputs[preset] = (fmt, text)
        if tracer:
            op.preset_calls[preset] = {k: v - before[k] for k, v in tracer.calls.items()}
        if code != 0:
            op.error = f"{preset} exited with {code}: {err.strip()}"
            break
    op.seconds = time.perf_counter() - start
    return op


def _verify(scenario, op: Operation) -> str | None:
    if op.error:
        return op.error
    try:
        figures = {p: checks.parse(fmt, text) for p, (fmt, text) in op.outputs.items()}
        checks.check_operation(scenario, figures)
    except checks.CheckError as exc:
        return str(exc)
    return None


def _self_check(scenario, traced: Operation, plain: Operation) -> str | None:
    for preset, (fmt, text) in plain.outputs.items():
        if traced.outputs.get(preset) != (fmt, text):
            return f"traced {preset} output differs from the untraced output"
    for preset, expected in EXPECTED_CALLS_PER_POINT.items():
        if preset not in traced.preset_calls:
            continue
        for key, per_point in expected.items():
            got = traced.preset_calls[preset][key]
            if got != per_point * scenario.points:
                return f"trace self-check: {preset} made {got} {key} calls, " \
                       f"expected {per_point * scenario.points}"
    return None


def _operations(workload, seconds: float, run_one) -> int:
    """Closed loop: run scenarios until their summed time is nearest ``seconds``.

    Another operation starts while the time so far plus half a mean
    operation is short of ``seconds``, so the measured time lands within half
    an operation of it; ``WALL_CAP_S`` bounds a run on a much slower machine.
    """
    wall_start = time.perf_counter()
    busy, index = 0.0, 0
    while index == 0 or (busy + 0.5 * busy / index < seconds
                         and time.perf_counter() - wall_start < WALL_CAP_S):
        busy += run_one(workload.scenario(index))
        index += 1
    return index


def _calibration_s() -> float:
    """Time a fixed loop of interpreter work and small dense linear algebra,
    the program's own mix, to gauge the machine's current speed."""
    import numpy as np

    m = np.array([[5.0, 1.0, 0.5, 0.0], [1.0, 4.0, 0.0, 0.5],
                  [0.5, 0.0, 3.0, 1.0], [0.0, 0.5, 1.0, 6.0]])
    eye = np.eye(4)
    start = time.perf_counter()
    acc = 0.0
    for i in range(3500):
        w = np.linalg.eigvalsh(m + (i * 1e-6) * eye)
        acc += float(np.sum(np.log(w))) + sum(j * 0.5 for j in range(40))
    elapsed = time.perf_counter() - start
    if not acc > 0:
        raise RuntimeError("calibration loop computed a wrong sum")
    return elapsed


def _plain_run(workload, seconds: float):
    op_s, ref_s, scaled_s, per_preset, failures = [], [], [], {}, []
    points = 0

    def run_one(scenario):
        nonlocal points
        ref = _calibration_s()
        op = _run_operation(scenario)
        op_s.append(op.seconds)
        ref_s.append(ref)
        scaled_s.append(op.seconds * REF_S / ref)
        for preset, s in op.preset_s.items():
            per_preset.setdefault(preset, []).append(s)
        problem = _verify(scenario, op)
        if problem:
            failures.append(f"op {scenario.index}: {problem}")
        else:
            points += scenario.points * len(scenario.figures)
        return ref + op.seconds

    _operations(workload, seconds, run_one)
    metrics = {
        "points_per_s": (points / sum(scaled_s), "1/s"),
        "op_s.p50": (statistics.median(scaled_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    details = {"op_s.samples": len(op_s), "op_s.wall_p50": statistics.median(op_s),
               "points_per_s.wall": points / sum(op_s),
               "calibration_s.p50": statistics.median(ref_s), "points": points,
               "op_s.scaled": scaled_s}
    return len(op_s), failures, metrics, per_preset, details


def _traced_run(workload, seconds: float):
    tracer = Tracer()
    plain_s = traced_s = 0.0
    ops, per_preset, failures = 0, {}, []

    def run_one(scenario):
        nonlocal plain_s, traced_s, ops
        plain = _run_operation(scenario)
        with tracer:
            traced = _run_operation(scenario, tracer)
        plain_s += plain.seconds
        traced_s += traced.seconds
        ops += 1
        for preset, s in plain.preset_s.items():
            per_preset.setdefault(preset, []).append(s)
        problem = _verify(scenario, plain) or _self_check(scenario, traced, plain)
        if problem:
            failures.append(f"op {scenario.index}: {problem}")
        return plain.seconds + traced.seconds

    _operations(workload, seconds, run_one)
    metrics = {}
    for layer in LAYERS:
        calls, self_s, errors = tracer.layer_totals(layer)
        metrics[f"{layer}.calls"] = (calls / ops, "calls/op")
        metrics[f"{layer}.self_s"] = (self_s / ops, "s/op")
        metrics[f"{layer}.errors"] = (errors / ops, "errors/op")
    for key in FUNCTION_SELF_S:
        metrics[f"{key}.self_s"] = (tracer.self_s[key] / ops, "s/op")
    for key in FUNCTION_CALLS:
        metrics[f"{key}.calls"] = (tracer.calls[key] / ops, "calls/op")
    optimizes = tracer.calls["receivers.optimize_alpha_beta_nonconstant"]
    evals = tracer.calls["receivers.snr_bound_nonconstant"]
    metrics["receivers.evals_per_optimize"] = (evals / optimizes if optimizes else 0.0,
                                               "evals/call")
    metrics["chernoff.qcb.edge_hits"] = (tracer.edge_hits / ops, "count/op")
    metrics["emit.bytes"] = (tracer.emitted_bytes / ops, "B/op")
    for preset in ROADMAP_RECENT_S:
        samples = per_preset.get(preset)
        metrics[f"figures.{preset}.s"] = (statistics.median(samples) if samples else 0.0, "s")
    metrics["trace.overhead"] = (1.0 - plain_s / traced_s, "share")
    details = {"untraced_s": plain_s, "traced_s": traced_s}
    return ops, failures, metrics, per_preset, details


def _measure_setup():
    """Median time, at reference speed, of fresh processes that import gillum
    and run a tiny figure; also the raw wall times."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    scaled, wall = [], []
    for _ in range(SETUP_SAMPLES):
        ref = _calibration_s()
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_SNIPPET], cwd=ROOT, env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=120)
        wall.append(time.perf_counter() - start)
        scaled.append(wall[-1] * REF_S / ref)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr.strip()}")
    return statistics.median(scaled), wall


def _environment():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "GILLUM_THREADS": os.environ.get("GILLUM_THREADS"),
    }


def _warm_up(workload) -> None:
    """Run each preset and format of the workload once at 2 points, untimed."""
    formats = {fmt for i in range(3) for _, fmt in workload.scenario(i).figures}
    for preset in workload.presets:
        for fmt in formats:
            code, _, err = _run_cli(["figure", preset, "--points", "2", "--format", fmt])
            if code != 0:
                raise RuntimeError(f"warm-up {preset} {fmt} exited with {code}: {err}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.environ.pop("GILLUM_THREADS", None)  # sweeps run serially, the users' default
    if not (SRC / "gillum" / "__init__.py").is_file():
        print(f"error: no gillum package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = Workload(args.workload, args.seed)
    _warm_up(workload)
    if args.trace:
        attempted, failures, metrics, per_preset, details = _traced_run(workload, args.seconds)
    else:
        setup_s, setup_samples = _measure_setup()
        attempted, failures, metrics, per_preset, details = _plain_run(workload, args.seconds)
        metrics["setup_s"] = (setup_s, "s")
        details["setup_s.wall"] = setup_samples

    details.update({
        "workload": args.workload, "seed": args.seed, "default_seed": DEFAULT_SEED,
        "seconds": args.seconds, "trace": args.trace, "environment": _environment(),
        "failed_ops": len(failures) / attempted, "failures": failures[:5],
        "preset_s_median_vs_roadmap": {
            p: {"measured": statistics.median(s), "points": workload.points,
                "roadmap_at_200_points": ROADMAP_RECENT_S[p]}
            for p, s in per_preset.items()},
    })
    print(json.dumps(details))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
