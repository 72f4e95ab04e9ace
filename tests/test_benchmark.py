"""The benchmark's own self-checks, run at their shortest.

``benchmarks/run.py --trace 1`` compares traced and untraced output bytes,
checks every output and pins the traced call counts per sweep point (fig5a,
fig4 and s2).  One operation per workload keeps that contract in the test run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["chernoff", "nonconstant", "engine"])
def test_benchmark_trace_self_check_passes(workload):
    pytest.importorskip("scipy")  # run.py records the SciPy version
    res = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seconds", "0",
         "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    assert res.returncode == 0, res.stderr
    last = json.loads(res.stdout.strip().splitlines()[-1])
    assert last["failed"] == 0, res.stdout.strip().splitlines()[-2]
    assert last["attempted"] >= 1
