"""Test of the benchmark's output checks.

    python3 perfbench/selftest.py

A corrupted reference must make operations fail: first for single CLI
queries in this process, then end to end, where a copy of the benchmark
with one corrupted engine reference must report ``fail_ratio`` above 0 and
``correct`` false.  Exits 0 when every check behaves, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SCRATCH = ROOT / ".perfbench_out" / "selftest"


def load_refs():
    with open(HERE / "refs.json") as fh:
        return json.load(fh)


def corrupt(digest: str) -> str:
    return ("0" if digest[0] != "0" else "1") + digest[1:]


def check_cli(refs) -> list[str]:
    problems = []
    queries = list(workloads.README_EXAMPLES)
    good = [workloads.run_op(op) for op in workloads.cli_ops(queries, refs)]
    if any("error" in r for r in good):
        problems.append(f"clean references fail: {[r for r in good if 'error' in r]}")
    bad_refs = json.loads(json.dumps(refs))
    victim = queries[0]
    bad_refs["cli"][victim] = corrupt(bad_refs["cli"][victim])
    bad = [workloads.run_op(op) for op in workloads.cli_ops(queries, bad_refs)]
    if [r["label"] for r in bad if "error" in r] != [victim]:
        problems.append("a corrupted CLI digest did not fail exactly its query")
    unsupported = "anomaly --spec weight2 --correlator x0^4"  # exits 2
    rec = workloads.run_op(workloads.cli_ops([unsupported], refs)[0])
    if "error" not in rec:
        problems.append("a query that exits non-zero did not fail")
    return problems


def check_end_to_end(refs) -> list[str]:
    """Run the engine workload from a copy whose first engine digest is corrupted."""
    shutil.rmtree(SCRATCH, ignore_errors=True)
    shutil.copytree(HERE, SCRATCH / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "src", SCRATCH / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    bad_refs = json.loads(json.dumps(refs))
    victim = sorted(bad_refs["engine"])[0]
    bad_refs["engine"][victim] = corrupt(bad_refs["engine"][victim])
    with open(SCRATCH / "perfbench" / "refs.json", "w") as fh:
        json.dump(bad_refs, fh)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "engine", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=SCRATCH, capture_output=True, text=True, timeout=170)
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    if proc.returncode != 0:
        return [f"benchmark exited {proc.returncode}: {proc.stderr[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if not result["failed"] / result["attempted"] > 0:
        problems.append("a corrupted engine reference left fail_ratio at 0")
    if result["correct"]:
        problems.append("a corrupted engine reference still reported correct")
    return problems


def main() -> int:
    refs = load_refs()
    problems = check_cli(refs) + check_end_to_end(refs)
    for p in problems:
        print(f"FAIL: {p}")
    print("selftest: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
