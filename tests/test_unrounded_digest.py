"""``tools/unrounded_digest.py``: its digests, ``--dump`` and ``--diff``.

The digest values are not pinned here (a change that moves a bit changes
them on purpose); the tests check the tool's shape and its exit statuses,
and that every public name it uses still exists.
"""

import contextlib
import importlib.util
import io
import json
import math
import re
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "unrounded_digest.py"
SETS = ["curves", "qcb_cases", "williamson_stacks", "sweeps", "corners", "kappa_axes",
        "background_axes"]


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("unrounded_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def run(tool, tmp_path_factory):
    """(exit status, stdout lines, dump path) of one in-process ``--dump`` run."""
    dump = tmp_path_factory.mktemp("digest") / "dump.jsonl"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = tool.main(["--dump", str(dump)])
    return status, out.getvalue().splitlines(), dump


def _sets_in_order(path) -> list:
    with open(path, encoding="utf-8") as fh:
        return list(dict.fromkeys(json.loads(line)["set"] for line in fh))


def _diff(tool, capsys, old, new):
    status = tool.main(["--diff", str(old), str(new)])
    return status, dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())


def test_four_digests_and_every_set_in_table_order(tool, run):
    status, lines, dump = run
    assert status == 0
    digests = [line for line in lines if re.fullmatch(r"[0-9a-f]{64}", line)]
    assert len(digests) == 4 and len(set(digests)) == 4
    assert [cases.__name__.lstrip("_") for sets in tool.DIGESTS for cases, _, _ in sets] == SETS
    assert _sets_in_order(dump) == SETS
    # one summary line per set, each digest printed after its sets
    expected = []
    for sets in tool.DIGESTS:
        expected += [cases.__name__.lstrip("_") for cases, _, _ in sets] + ["digest"]
    assert ["digest" if line in digests else line.split(":")[0] for line in lines] == expected


def test_a_dump_against_itself_moves_nothing(tool, run, capsys):
    dump = run[2]
    status, report = _diff(tool, capsys, dump, dump)
    assert status == 0
    assert list(report) == SETS
    assert all(line.startswith("0/") for line in report.values())


def _rewrite(source, target, edit):
    lines = source.read_text(encoding="utf-8").splitlines(keepends=True)
    target.write_text("".join(edit(lines)), encoding="utf-8")


def test_a_flipped_hex_and_a_missing_entry_each_count_as_moved(tool, run, capsys, tmp_path):
    dump = run[2]
    entries = [json.loads(line) for line in dump.read_text(encoding="utf-8").splitlines()]
    totals = {name: sum(e["set"] == name for e in entries) for name in SETS}
    at = next(i for i, e in enumerate(entries) if e["set"] == "sweeps" and "hex" in e)
    value = float.fromhex(entries[at]["hex"])

    def flip(lines):  # one ulp up
        flipped = dict(entries[at], hex=math.nextafter(value, math.inf).hex())
        return lines[:at] + [json.dumps(flipped) + "\n"] + lines[at + 1:]

    _rewrite(dump, tmp_path / "flipped.jsonl", flip)
    status, report = _diff(tool, capsys, dump, tmp_path / "flipped.jsonl")
    assert status == 1
    assert report["sweeps"].startswith(f"1/{totals['sweeps']} moved")
    assert all(report[name].startswith("0/") for name in SETS if name != "sweeps")

    last = len(entries) - 1  # a background_axes entry
    _rewrite(dump, tmp_path / "short.jsonl", lambda lines: lines[:last])
    status, report = _diff(tool, capsys, dump, tmp_path / "short.jsonl")
    assert status == 1
    assert report["background_axes"].startswith(f"1/{totals['background_axes']} moved")
    assert all(report[name].startswith("0/") for name in SETS if name != "background_axes")
