"""Print each figure preset's ``run_figure`` time: the minimum and the median
process CPU time of ``--repeat`` runs at ``--points`` points, at the preset's
defaults.

    PYTHONPATH=src python tools/preset_times.py [--points 200] [--repeat 5]
                                                [--src DIR ...] [PRESET ...]

Without ``PRESET`` every preset runs.  Each ``--src DIR`` is a source tree
(a directory holding the ``gillum`` package, such as a checkout's ``src``),
imported afresh into this one process under its own modules; without it
the ``gillum`` on the import path runs.  Several trees alternate run by run,
each preset on every tree in turn, so drift of the host reaches them alike:

    python tools/preset_times.py --repeat 30 --src OLD/src --src NEW/src fig4 s2

Every preset and tree first runs once untimed.  Before each timed run the
``williamson`` memo is evicted, by decomposing 64 thermal states that no
preset builds, so no run reads a decomposition an earlier run left.  One
line per preset and tree gives its minimum and median in ms; a last line
per tree sums the minima.  Only public names are used, so the script runs
unchanged on any revision that has them.
"""

from __future__ import annotations

import argparse
import importlib
import statistics
import sys
import time

EVICT = 64  # distinct covariances decomposed before a timed run


def _is_gillum(name: str) -> bool:
    return name == "gillum" or name.startswith("gillum.")


def load(src: str | None):
    """The ``gillum`` package under ``src``, imported afresh, or the one on
    the import path for None.  A tree's modules leave ``sys.modules`` once
    imported, so the next tree imports its own beside them; the functions
    keep the modules they were defined in."""
    if src is None:
        return importlib.import_module("gillum")
    saved = {name: sys.modules.pop(name) for name in list(sys.modules) if _is_gillum(name)}
    sys.path.insert(0, src)
    try:
        return importlib.import_module("gillum")
    finally:
        sys.path.remove(src)
        for name in [name for name in sys.modules if _is_gillum(name)]:
            del sys.modules[name]
        sys.modules.update(saved)


def _cpu_time(gillum, config) -> float:
    """Process CPU seconds of one ``run_figure(config)``, memo evicted first."""
    for k in range(EVICT):
        gillum.williamson(gillum.make_thermal(1e3 + k))
    start = time.process_time()
    gillum.run_figure(config)
    return time.process_time() - start


def main(argv=None) -> int:
    """Run the command line; return its exit status."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("presets", nargs="*", metavar="PRESET",
                        help="presets to time (default: all)")
    parser.add_argument("--points", type=int, default=200, help="sweep points (default 200)")
    parser.add_argument("--repeat", type=int, default=5, help="timed runs (default 5)")
    parser.add_argument("--src", action="append", metavar="DIR",
                        help="a source tree to time; repeat it to alternate trees")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    trees = [(src or "gillum", load(src)) for src in args.src or [None]]
    names = args.presets or trees[0][1].figures.FIGURE_NAMES
    configs = {(name, label): gillum.SweepConfig(figure=name, points=args.points)
               for name in names for label, gillum in trees}
    times = {key: [] for key in configs}
    for run in range(args.repeat + 1):  # run 0 is the untimed warm-up
        for name in names:
            for label, gillum in trees:
                seconds = _cpu_time(gillum, configs[name, label])
                if run:
                    times[name, label].append(seconds)
    print(f"{args.points} points, {args.repeat} runs, process CPU time")
    for (name, label), runs in times.items():
        print(f"{name} {label}: min {1e3 * min(runs):.3f} ms, "
              f"median {1e3 * statistics.median(runs):.3f} ms")
    for label, _ in trees:
        total = sum(min(runs) for (_, key), runs in times.items() if key == label)
        print(f"sum of minima {label}: {1e3 * total:.3f} ms")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
