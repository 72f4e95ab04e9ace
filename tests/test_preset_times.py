"""``tools/preset_times.py``: its output lines at 2 points, alone and with two
source trees imported side by side."""

import contextlib
import importlib.util
import io
import re
import sys
from pathlib import Path

import pytest

import gillum

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "preset_times.py"
LINE = r"{} {}: min \d+\.\d{{3}} ms, median \d+\.\d{{3}} ms"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("preset_times", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(tool, argv) -> list:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert tool.main(argv) == 0
    return out.getvalue().splitlines()


def test_every_preset_gets_one_line_and_the_minima_their_sum(tool):
    lines = _run(tool, ["--points", "2", "--repeat", "2"])
    assert lines[0] == "2 points, 2 runs, process CPU time"
    names = gillum.figures.FIGURE_NAMES
    assert len(lines) == len(names) + 2
    for name, line in zip(names, lines[1:]):
        assert re.fullmatch(LINE.format(name, "gillum"), line), line
    minima = [float(line.split("min ")[1].split(" ms")[0]) for line in lines[1:-1]]
    assert re.fullmatch(r"sum of minima gillum: \d+\.\d{3} ms", lines[-1])
    assert float(lines[-1].split(": ")[1][:-3]) == pytest.approx(sum(minima), abs=2e-3)


def test_two_trees_alternate_and_leave_the_imported_package_alone(tool):
    src = str(ROOT / "src")
    before = sys.modules["gillum"]
    lines = _run(tool, ["--points", "2", "--repeat", "1", "--src", src, "--src", src + "/",
                        "s1", "fig4"])
    assert sys.modules["gillum"] is before and tool.load(None) is before
    assert [line.split(":")[0] for line in lines[1:]] == [
        f"s1 {src}", f"s1 {src}/", f"fig4 {src}", f"fig4 {src}/",
        f"sum of minima {src}", f"sum of minima {src}/"]
    assert tool.load(src) is not before
