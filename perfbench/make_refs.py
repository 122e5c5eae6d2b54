"""Write ``refs.json``: the reference outputs every benchmark check compares to.

Run from the repository root, at the commit whose outputs are the reference:

    python3 perfbench/make_refs.py

It records the case ids of each suite, the sha256 of each engine result's
exact terms in canonical order, and, for every CLI query of the candidate grid that exits 0,
the sha256 of its stdout.  Queries that exit non-zero are left out of the
query pool and listed under ``excluded`` with their exit code.
``transform-check`` prints floats, so its entry only admits the query: the
benchmark checks its own status instead of a digest.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from torusmodes import verify  # noqa: E402


def main() -> int:
    refs = {"suites": {}, "engine": {}, "cli": {}, "excluded": {}}
    for name in workloads.SUITE_ORDER:
        report = verify.run_suite(name)
        if report["status"] != "pass":
            raise SystemExit(f"suite {name} does not pass; no reference written")
        refs["suites"][name] = [c["id"] for c in report["cases"]]
    for op in workloads.engine_ops({"engine": {}}):
        value = op.call()
        if op.family == "roundtrip":
            value = value["back"]
        refs["engine"][op.label] = (
            workloads.digest(workloads.anomaly_json(value))
            if op.family == "anomaly_of_zero_modes" else workloads.expr_digest(value))
    for query in workloads.candidate_queries():
        code, stdout = workloads.run_cli(query.split())
        if code != 0:
            refs["excluded"][query] = code
        elif workloads.command_of(query) == "transform-check":
            refs["cli"][query] = "status"
        else:
            refs["cli"][query] = workloads.digest(stdout)
    missing = [q for q in workloads.README_EXAMPLES + workloads.HEAVY if q not in refs["cli"]]
    if missing:
        raise SystemExit(f"fixed session queries fail at this commit: {missing}")
    with open(HERE / "refs.json", "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(refs['cli'])} CLI queries admitted, {len(refs['excluded'])} excluded")
    return 0


if __name__ == "__main__":
    sys.exit(main())
