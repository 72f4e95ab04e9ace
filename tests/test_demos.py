"""Every demo script runs to completion against the current public API and
prints what it printed when its output was recorded in data/demo_stdout.json."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
STDOUT = json.loads((ROOT / "tests" / "data" / "demo_stdout.json").read_text())


def test_all_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    # run from an empty directory: demo 02 writes its SVG into the cwd
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    # as in the test run itself, a RuntimeWarning is an error
    res = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", str(demo)],
                         cwd=tmp_path, capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout == STDOUT[demo.name]
