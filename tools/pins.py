"""Pinned reports: each row's command must print its pinned bytes within its RSS bound.

Each row is (argv, sha256 of the report, peak-RSS bound in MB).  Neither a
benchmark digest nor tools/reports.txt pins these reports, which are the
largest the CLI prints:

- ``reduce --spec weight2 --correlator x0^7`` (41.5 MB, about 47 MB of RSS):
  ``reduce`` writes its expansion term by term, straight from the engine;
- ``anomaly --spec weight2 --correlator x0^7``, digested when that anomaly
  still inverted F(x0^7) and applied exp(B D) to every coefficient (378 MB
  of RSS); a built-in spec now takes N from the pair contraction;
- ``expand --function P_2000 --order 1`` (22.6 MB, about 32 MB of RSS):
  the layers are written pair by pair, straight from the series (54 MB
  through a dict of the whole report, 98 MB with its text built whole);
- ``reduce --spec weight1 --correlator a0^10`` (3.96 MB, about 22 MB of
  RSS): the weight-1 peel past the s <= 7 of the benchmark digests and the
  a0^7 of tools/reports.txt.

Every row runs under hash seeds 1 and 2.  A run passes when the child exits
0, its report has the row's sha256, its text is what
``json.dumps(json.loads(text), indent=2, sort_keys=True) + "\\n"`` prints,
and its peak RSS, read through ``os.wait4``, stays under the bound.  Each
child writes its report to a file, and no report is read back until every
child has run: a child starts as a fork of this process and inherits its RSS
high-water mark, so a report held here would swell the peak read for every
later child (105 MB instead of 47 MB for the ``reduce`` row after the
``expand`` report).

Standard library only; run it from anywhere (``expand`` takes about 6 s a seed):

    python tools/pins.py
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PINS = [
    (("reduce", "--spec", "weight2", "--correlator", "x0^7"),
     "cc82d09c2418b20df750ed1873abd16cc769ee8634afa02ba3bc8847e6b343d7", 60),
    (("anomaly", "--spec", "weight2", "--correlator", "x0^7"),
     "aa7c9b1f2ba9aa93956f0dab98da80337d8237a0107018e416c5d05c7e7d9eac", 60),
    (("expand", "--function", "P_2000", "--order", "1"),
     "5a38c85329350b6f317bed3e41875e7043502a93cadd7fb633860b5e2838dd27", 75),
    (("reduce", "--spec", "weight1", "--correlator", "a0^10"),
     "32c09fdfa2386c19c0ef61d33a8e1656c529577025623357593cb0fc2d54a17a", 40),
]
SEEDS = ("1", "2")


def run(argv, seed: str, path: Path) -> tuple[int, float]:
    """Run the CLI on ``argv`` under ``seed`` with stdout to ``path``: its exit code and peak RSS in MB."""
    env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)}
    with open(path, "wb") as out:
        proc = subprocess.Popen([sys.executable, "-m", "torusmodes.cli", *argv], stdout=out, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    return proc.returncode, usage.ru_maxrss / 1024  # kB on Linux


def main() -> int:
    problems = []
    with tempfile.TemporaryDirectory() as scratch:
        runs = []
        for argv, want, bound in PINS:
            for seed in SEEDS:
                path = Path(scratch) / f"{len(runs)}.json"
                code, peak_mb = run(argv, seed, path)
                runs.append((argv, want, bound, seed, path, code, peak_mb))
        for argv, want, bound, seed, path, code, peak_mb in runs:
            data = path.read_bytes()
            digest = hashlib.sha256(data).hexdigest()
            label = f"{' '.join(argv)} (seed {seed})"
            print(f"{label}: exit {code}, peak RSS {peak_mb:.1f} MB, sha256 {digest}")
            if code != 0:
                problems.append(f"{label}: exits {code}")
                continue
            if digest != want:
                problems.append(f"{label}: sha256 {digest}, not the pinned {want}")
            if peak_mb >= bound:
                problems.append(f"{label}: peak RSS {peak_mb:.1f} MB, not under {bound} MB")
            text = data.decode()
            if text != json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n":
                problems.append(f"{label}: the report is not printed as json.dumps prints it")
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print(f"{len(runs)} runs, {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
