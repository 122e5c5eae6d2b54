"""Standing mutation check: each seeded fault must fail the suites named for it.

Each entry is (file under src/torusmodes, exact old text, new text, suites
expected to exit 1).  For every entry the script copies src/ to a temporary
directory, replaces the old text, which must occur exactly once, and runs each
named suite through the CLI on that copy.  A suite kills the mutant when it
exits 1 with a JSON report on stdout whose status is "fail".  Each case runs
under its own guard, so the killing report must also list every case id of
the suite's report on the unmutated src/, in order.

The script exits 1 when an entry's old text is missing or not unique, when a
mutant survives one of its suites, when a killing suite gives no JSON report,
or when that report drops or reorders a case.  Standard library only; run it
from anywhere:

    python tools/mutants.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

MUTANTS = [
    ("symbols.py", "return -ONE", "return ONE", ("elliptic-numeric", "hha-contraction")),
    ("symbols.py", "lo) + (zvar(hi) - zvar(lo)) * _layer(i - 1, j, hi, lo)) * i", "lo)) * i",
     ("elliptic-numeric", "hha-contraction")),
    ("combinatorics.py", "stirling_first(n - 1, k - 1) - (n - 1) *",
     "stirling_first(n - 1, k - 1) + (n - 1) *",
     ("combinatorics", "qseries-identities", "hha-weight2")),
    ("lattice.py", "1 if lead and not v else 2", "2", ("lattice-oracle",)),
    ("ratfunc.py", "_lift(n.zeta_ddzeta(), 1) + n.shift(1) * k", "_lift(n.zeta_ddzeta(), 1)",
     ("elliptic-formal",)),
    ("verify.py", "ScaledRational(Fraction(1, 2), -2)", "ScaledRational(1, -2)",
     ("lattice-modular",)),
    ("verify.py", "ys, m + 1)", "ys, m)", ("elliptic-numeric",)),
    ("numerics.py", "_lambert_sum(0, two_k, 1.0, tau) / factorial",
     "_lambert_sum(0, two_k, 1.0, tau) / 2 / factorial", ("elliptic-numeric",)),
    ("ratfunc.py", "self._monic = -self.num if self.k % 2 else self.num",
     "self._monic = self.num", ("elliptic-numeric",)),
    ("qseries.py", "ys[:trunc + 1 - i]", "ys[:trunc - i]",
     ("qseries-identities", "lattice-oracle", "lattice-modular")),
    ("qseries.py", "den = dx * dy", "den = dx",
     ("qseries-identities", "lattice-oracle", "lattice-modular")),
    ("qseries.py", "for m in range(truncation, n - 1, -1):", "for m in range(n, truncation + 1):",
     ("lattice-oracle", "lattice-modular")),
    ("hha.py", "d = {key: -c for key, c in d.items()}", "d = {key: c for key, c in d.items()}",
     ("hha-weight2", "hha-contraction")),
    ("hha.py", "(m, keys, -v, t) for", "(m, keys, v, t) for", ("hha-weight1", "hha-weight2")),
    ("hha.py", "return p_layer_coefficient(s_len, m, pj, 1) * mult",
     "return p_layer_coefficient(s_len, m, pj, 1)", ("hha-weight2", "hha-contraction")),
    ("hha.py", "moves = _MOVES[label]", "moves = _MOVES[tuple(range(len(label)))]",
     ("hha-weight1", "hha-weight2", "hha-contraction")),
    ("lattice.py", "Fraction(ip2, sub_gram[0][0])", "Fraction(ip2, 2 * sub_gram[0][0])",
     ("lattice-oracle", "lattice-modular")),
    ("symbols.py", "_MOVES = Memo(lambda label: Memo(partial(_move, label)))",
     "_MOVES = Memo(lambda label: _MOVES.setdefault(None, Memo(partial(_move, label))))",
     ("hha-weight1", "hha-weight2", "hha-contraction")),
    ("verify.py", "u[end] < u[end - 1]", "u[end] > u[end - 1]", ("combinatorics",)),
    ("lattice.py", "scale, ip + gi * v", "scale, ip + v", ("lattice-oracle",)),
    ("lattice.py", "tuple(map(neg, c))", "c", ("lattice-oracle",)),
    ("ratfunc.py", "self.num.zeta_ddzeta()", "self.num", ("elliptic-formal",)),
    ("lattice.py", "(r + y1 + y2) % 4 == 0", "(r + y1 + y2) % 2 == 0",
     ("lattice-oracle", "lattice-modular")),
    ("numerics.py", "LaurentPoly({0: -1, 2: -1})", "LaurentPoly({0: -1, 2: 1})",
     ("qseries-identities", "elliptic-numeric")),
    ("combinatorics.py", "comb(n - des - 1, i) for i", "comb(n - des, i) for i",
     ("combinatorics",)),
    ("qseries.py", "self.tpi + other.tpi)", "self.tpi)", ("qseries-identities",)),
    ("qseries.py", "d.tpi + 1)", "d.tpi)", ("qseries-identities", "elliptic-formal")),
    ("elliptic.py", "sign = (-1) ** k", "sign = -(-1) ** k", ("elliptic-formal",)),
    ("elliptic.py", "d ** (j - 1 + n)", "d ** (j + n)", ("elliptic-formal", "elliptic-numeric")),
    ("elliptic.py", "value * q_powers[m]", "value * q_powers[m + 1]", ("elliptic-numeric",)),
    ("elliptic.py", "neg = pos if p % 2 else [-c for c in pos]", "neg = [-c for c in pos]",
     ("elliptic-formal", "elliptic-numeric")),
    ("symbols.py", "m[i] = (p[0], m1[i][1] + p[1])", "m[i] = (p[0], m1[i][1])",
     ("elliptic-numeric",)),
    ("symbols.py", "bisect.bisect_left", "bisect.bisect_right", ("elliptic-numeric", "hha-weight2")),
    ("symbols.py", "m[i] = (p[0], m[i][1] + p[1])", "m[i] = (p[0], m[i][1])", ("elliptic-numeric",)),
    ("symbols.py", "ks.insert(i, k)", "pass", ("elliptic-numeric", "hha-contraction")),
    ("symbols.py", "m = m1 + (p,)", "m = (p,) + m1",
     ("elliptic-numeric", "hha-weight1", "hha-weight2", "hha-contraction")),
    ("symbols.py", "m = (p,) + m1", "m = m1 + (p,)",
     ("elliptic-numeric", "hha-weight1", "hha-weight2", "hha-contraction")),
    ("symbols.py", "s[1] + s[2]", "s[1] + s[2] + 1",
     ("elliptic-numeric", "hha-weight2", "hha-contraction")),
    ("hha.py", "Fraction(1, k)", "1", ("hha-weight1", "hha-weight2", "lattice-modular")),
    ("symbols.py", "derive_poly(term) * Fraction(1, k)", "derive_poly(term)",
     ("elliptic-numeric",)),
    ("verify.py", "r * -c)", "r * c)", ("hha-contraction",)),
    ("hha.py", "if dpow:", "if dpow or target == spec.identity:",
     ("hha-weight1", "lattice-modular", "hha-contraction")),
    ("hha.py", "for j in ab if j <= m)", "for j in ab if j < m)",
     ("hha-weight2", "hha-contraction", "lattice-modular")),
    ("hha.py", "(-1) ** (n + j + 1)", "(-1) ** (n + j)",
     ("hha-weight1", "hha-weight2", "hha-contraction", "lattice-modular")),
    ("hha.py", "if n <= k <= top]", "if n < k <= top]",
     ("hha-weight1", "hha-weight2", "hha-contraction", "lattice-modular")),
    ("hha.py", "if len(ins) == 1 and ins[0][1]:", "if False:", ("hha-weight2",)),
    ("hha.py", "ins = other if gen == spec.identity else other + ((pj, dpow, gen),)",
     "ins = other + ((pj, dpow, gen),)", ("hha-weight1", "hha-weight2", "hha-contraction")),
    ("lattice.py", "(s - c) // ei + 1)", "(s - c) // ei)", ("lattice-oracle",)),
]


def run_suite(src: Path, suite: str) -> tuple[int, dict | None]:
    """The exit code of ``verify-suite suite`` on the copy, and its report if any."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run([sys.executable, "-m", "torusmodes.cli", "verify-suite", suite],
                          capture_output=True, text=True, env=env)
    try:
        report = json.loads(done.stdout)
    except ValueError:
        report = None
    return done.returncode, report


def case_ids(report: dict) -> list[str]:
    return [case["id"] for case in report["cases"]]


def check(entry, scratch: Path, pristine: dict) -> list[str]:
    """The problems with one entry: an empty list when every suite kills it
    and reports every case id of ``pristine[suite]``, the unmutated ids."""
    name, old, new, suites = entry
    label = f"{name}: {old!r} -> {new!r}"
    text = (SRC / "torusmodes" / name).read_text()
    if text.count(old) != 1:
        return [f"{label}: old text occurs {text.count(old)} times, not once"]
    src = scratch / "src"
    shutil.rmtree(src, ignore_errors=True)
    shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    (src / "torusmodes" / name).write_text(text.replace(old, new))
    problems = []
    for suite in suites:
        code, report = run_suite(src, suite)
        if code != 1:
            problems.append(f"{label}: survives {suite} (exit {code})")
        elif report is None or report.get("status") != "fail":
            problems.append(f"{label}: {suite} exits 1 without a failing JSON report")
        elif case_ids(report) != pristine[suite]:
            problems.append(f"{label}: {suite} reports cases {case_ids(report)}, "
                            f"not the unmutated {pristine[suite]}")
        else:
            failed = [case["id"] for case in report["cases"] if case["status"] != "pass"]
            print(f"killed by {suite}: {', '.join(failed)}")
    return problems


def main() -> int:
    problems = []
    pristine = {}
    for suite in sorted({suite for entry in MUTANTS for suite in entry[3]}):
        code, report = run_suite(SRC, suite)
        if code != 0 or report is None:
            print(f"FAIL unmutated {suite} exits {code}", file=sys.stderr)
            return 1
        pristine[suite] = case_ids(report)
    with tempfile.TemporaryDirectory() as scratch:
        for entry in MUTANTS:
            print(f"mutant {entry[0]}: {entry[1]!r} -> {entry[2]!r}")
            problems += check(entry, Path(scratch), pristine)
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print(f"{len(MUTANTS)} mutants, {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
