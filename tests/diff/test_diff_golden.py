"""Goldens of the syntactic diff: the exhaustive listing must not move.

``charles diff`` and :func:`repro.diff.timeline_diff` are the paper's
"list every difference" baseline.  These tests pin their output on fixed
inputs byte for byte, so a rewrite of how changed cells are found or
counted can show that it reports exactly what it reported before.  A change
that is meant to alter the listing must say so in CHANGES.md and regenerate
the files under ``tests/diff/golden/``.
"""

import hashlib
from pathlib import Path

from repro.cli import main
from repro.diff import timeline_diff
from repro.workloads.streaming import streaming_employee_timeline

GOLDEN = Path(__file__).resolve().parent / "golden"


def render_timeline_diff() -> str:
    """Every hop of a 4-version, 200-row streaming chain: the listing, each
    attribute's exact statistics and a digest of every changed cell."""
    store, _ = streaming_employee_timeline(200, num_versions=4, seed=5)
    lines = []
    for source, target, report in timeline_diff(store):
        lines.append(f"== {source} -> {target}")
        lines.append(report.describe(limit=5))
        lines.extend(repr(diff) for diff in report.attribute_diffs)
        cells = "\n".join(str(change) for change in report)
        lines.append(f"cells sha256 {hashlib.sha256(cells.encode('utf-8')).hexdigest()}")
    return "\n".join(lines) + "\n"


def test_charles_diff_on_the_2000_row_employee_pair(tmp_path, capsys):
    assert main(["generate", "employee", "--rows", "2000", "--seed", "7",
                 "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    assert main(["diff", str(tmp_path / "employee_source.csv"),
                 str(tmp_path / "employee_target.csv"), "--key", "name"]) == 0
    expected = (GOLDEN / "charles_diff_employee_2000_seed7.txt").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected


def test_timeline_diff_of_a_streaming_chain():
    expected = (GOLDEN / "timeline_diff_streaming_200_seed5.txt").read_text(encoding="utf-8")
    assert render_timeline_diff() == expected
