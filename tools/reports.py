"""Digest a fixed list of CLI calls, to compare two checkouts' outputs byte for byte.

Each entry of ``CALLS`` is one argv of ``torusmodes.cli.main``.  The script
runs every call in this process, with stdout and stderr captured, and prints
one line per call:

    <sha256 of exit code, stdout and stderr> <exit code> <argv>

Two checkouts print identical lines exactly when every call gives the same
exit code and the same bytes on both streams.  Standard library only; the
package is imported from the ``src/`` next to this script:

    python tools/reports.py > after.txt
    diff before.txt after.txt

Its output is committed as ``tools/reports.txt``, so a checkout is compared
with the table by ``python tools/reports.py | diff tools/reports.txt -``.  A
change that moves a report regenerates the table.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import shlex
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from torusmodes import cli, verify  # noqa: E402

SEEDED = ("combinatorics", "qseries-identities", "elliptic-numeric")
LAWS = ("Ptilde_1", "P_2", "P_3", "P_4", "P_7", "G_2", "G_4", "G_6", "g_1_3", "g_1_5")
GAMMAS = ("0,-1,1,0", "1,1,0,1", "1,0,1,1", "2,1,1,1", "1,-1,1,0")
POINTS = (("0.1+0.3i", "1.2i"), ("0.23-0.11i", "0.3+1.1i"))
EXPANSIONS = ("P_1", "P_2", "P_3", "P_4", "P_5", "g_0_2", "g_1_2", "g_1_3", "g_2_3", "g_2_4",
              "Ptilde_1", "G_2", "G_4", "G_6", "G_8", "eta_24", "eta_-24",
              "wp_1", "wp_2", "wp_3", "wp_4")
# at order 0 some of these series are zero and must still print their grade
ZERO_ORDER = ("g_1_3", "g_2_4", "P_2", "eta_-24")

CALLS = (
    [["verify-suite", s] for s in verify.SUITES]
    + [["verify-suite", "elliptic-numeric", "--order", str(n)] for n in (36, 40, 45, 50, 70)]
    + [["verify-suite", s, "--seed", str(seed)] for s in SEEDED for seed in (1, 7)]
    + [["transform-check", "--function", f, "--gamma", gamma, "--z", z, "--tau", tau]
       for f in LAWS for gamma in GAMMAS for z, tau in POINTS]
    + [["expand", "--function", f] for f in EXPANSIONS]
    + [["expand", "--function", f, "--order", "0"] for f in ZERO_ORDER]
    + [["expand", "--function", f"wp_{k}", *flags] for k in range(1, 5)
       for flags in (["--order", "0"], ["--z-order", str(-k)], ["--z-order", "12"])]
    # one large report whose longest numbers sit four containers deep (384 kB)
    + [["expand", "--function", "P_300", "--order", "1"]]
    + [["reduce", "--spec", "weight2", "--correlator", f"x0^{s}"] for s in range(1, 7)]
    + [["reduce", "--spec", "weight1", "--correlator", f"a0^{s}"] for s in range(1, 8)]
    + [["anomaly", "--spec", "weight1", "--correlator", f"a0^{s}"] for s in range(1, 9)]
    + [["anomaly", "--spec", "weight2", "--correlator", f"x0^{s}"] for s in range(1, 4)]
    + [["lattice-trace", "--lattice", name, "--n", str(n), "--oracle"]
       for name in ("a1", "e8", "e8x3") for n in range(4)]
    + [["lattice-trace", "--lattice", "a1", "--n", "2", "--order", "0", "--oracle"]]
    # past depth one: weight-2 anomalies at s = 4, 5 and the laws of g^2_4 and g^3_5
    + [["anomaly", "--spec", "weight2", "--correlator", f"x0^{s}"] for s in (4, 5)]
    + [["transform-check", "--function", f, "--gamma", "0,-1,1,0", "--z", "0.1+0.3i",
        "--tau", "1.2i"] for f in ("g_2_4", "g_3_5")]
    # the largest anomalies of each algebra within a few seconds
    + [["anomaly", "--spec", "weight1", "--correlator", "a0^9"],
       ["anomaly", "--spec", "weight2", "--correlator", "x0^6"],
       ["anomaly", "--spec", "weight1", "--correlator", "a0^10"]]
    # layers with negative powers of the divisor, and a long eta product
    + [["expand", "--function", f] for f in ("g_2_1", "g_3_2", "g_2_2")]
    + [["expand", "--function", "eta_-24", "--order", "100"]]
)


def digest(argv: list[str]) -> tuple[str, int]:
    """The sha256 of one call's exit code, stdout and stderr, and the exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    h = hashlib.sha256()
    for part in (str(code), out.getvalue(), err.getvalue()):
        data = part.encode()
        h.update(len(data).to_bytes(8, "big") + data)
    return h.hexdigest(), code


def main() -> int:
    for argv in CALLS:
        sha, code = digest(argv)
        print(f"{sha} {code} {shlex.join(argv)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
