"""The committed report table ``tools/reports.txt`` against the reports it digests.

The table is the output of ``python tools/reports.py``.  Its lines for the
exact reports (``expand``, ``reduce``, ``anomaly`` and ``lattice-trace``,
all rational arithmetic) are re-digested here; the lines that print floats
(``verify-suite``, ``transform-check``) are checked by running the script and
diffing its output against the table.  A change that moves a report
regenerates the table.
"""

from __future__ import annotations

import importlib.util
import shlex
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"
EXACT = ("expand", "reduce", "anomaly", "lattice-trace")


def _reports_module():
    spec = importlib.util.spec_from_file_location("reports", TOOLS / "reports.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


reports = _reports_module()
# each line is "<sha256> <exit code> <argv>"
TABLE = [line.split(" ", 2) for line in (TOOLS / "reports.txt").read_text().splitlines()]


def test_table_lists_every_call_in_order():
    assert [shlex.split(argv) for _, _, argv in TABLE] == reports.CALLS


def test_exact_reports_match_the_table():
    exact = [(sha, int(code), shlex.split(argv)) for sha, code, argv in TABLE
             if shlex.split(argv)[0] in EXACT]
    assert {argv[0] for _, _, argv in exact} == set(EXACT)
    moved = [shlex.join(argv) for sha, code, argv in exact if reports.digest(argv) != (sha, code)]
    assert moved == []
