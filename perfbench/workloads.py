"""The three benchmark workloads: their inputs, the calls that run them, and
the checks on every output.

Each workload is a list of operations.  An operation is one call into the
program; ``run_op`` times the call alone and checks its output afterwards, so
checking costs nothing in the reported times.

* ``suites``: the eight ``verify.run_suite`` reports at default flags.
* ``engine``: the symbolic-engine curve over the number of zero modes.
* ``cli-session``: a seeded mix of ``cli.main(argv)`` calls in one process.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time

WORKLOADS = ("suites", "engine", "cli-session")

SUITE_ORDER = ("combinatorics", "qseries-identities", "elliptic-formal",
               "elliptic-numeric", "hha-weight1", "hha-weight2",
               "lattice-oracle", "lattice-modular")

# (family, spec, generator, largest s).  The round trip is
# reduce_to_zero_modes(spec, invert_to_full(spec, gens)).
ENGINE_CURVE = (
    ("invert_to_full", "weight2", "x", 7),
    ("invert_to_full", "weight1", "a", 7),
    ("anomaly_of_zero_modes", "weight1", "a", 9),
    ("anomaly_of_zero_modes", "weight2", "x", 3),
    ("roundtrip", "weight2", "x", 5),
)

CLI_COMMANDS = ("expand", "reduce", "anomaly", "lattice-trace", "transform-check")

# Every CLI example of the README, verbatim.
README_EXAMPLES = (
    "expand --function G_4 --order 5",
    "expand --function P_2 --order 3",
    "expand --function g_1_3 --order 6",
    "reduce --spec weight2 --correlator x0^2",
    "anomaly --spec weight2 --correlator x0^3",
    "lattice-trace --lattice e8 --n 2 --order 4 --oracle",
    "transform-check --function P_3 --gamma 0,-1,1,0 --z 0.2+0.3i --tau 1.1i",
)

# (lattice, shell order) pairs of the lattice-trace pool.  Each pair is built
# cold once per session; the other traces on it are warm.  E8 and E8^3 stop
# at order 4 so that several sessions fit in one run; `suites` builds both to
# order 8 (lattice-modular).
LATTICE_ORDERS = (("a1", 2), ("a1", 4), ("a1", 6), ("a1", 8),
                  ("e8", 2), ("e8", 4), ("e8x3", 2), ("e8x3", 4))

GAMMAS = ("0,-1,1,0", "1,1,0,1", "1,-1,1,0", "1,0,1,1")
POINTS = (None, ("0.2+0.3i", "1.1i"))  # None: the CLI's default point

# Queries that take over 0.1 s each, about a fifth of a session between
# them.  A session runs them once and the other pool queries twice, which
# keeps it short enough for several passes in one run.
HEAVY = ("expand --function eta_-24 --order 100",
         "expand --function eta_24 --order 100",
         "reduce --spec weight2 --correlator x0^6",
         "anomaly --spec weight1 --correlator a0^7")

def candidate_queries():
    """The finite CLI query grid; the pool is the part the references admit."""
    out = []
    for two_k in (2, 4, 6, 8, 10, 12):
        out += [f"expand --function G_{two_k} --order {o}" for o in (5, 10, 20, 40)]
    for k in (1, 2, 3, 4, 5):
        out += [f"expand --function P_{k} --order {o}" for o in (3, 6, 10, 20)]
    out += [f"expand --function Ptilde_1 --order {o}" for o in (3, 6, 10, 20)]
    for i, j in ((1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4)):
        out += [f"expand --function g_{i}_{j} --order {o}" for o in (3, 6, 10)]
    for ell in (-24, -8, 1, 8, 24):
        out += [f"expand --function eta_{ell} --order {o}" for o in (20, 40)]
    out += [q for q in HEAVY if q.startswith("expand")]
    for k in (1, 2, 3, 4):
        out += [f"expand --function wp_{k} --order {o}" for o in (5, 10)]
    out += [f"reduce --spec weight1 --correlator a0^{s}" for s in range(1, 8)]
    out += [f"reduce --spec weight2 --correlator x0^{s}" for s in range(1, 7)]
    out += [f"anomaly --spec weight1 --correlator a0^{s}" for s in range(1, 8)]
    # weight-2 anomalies stop at s = 3: s >= 4 exits 2 at the seed commit
    out += [f"anomaly --spec weight2 --correlator x0^{s}" for s in range(1, 4)]
    for lat, order in LATTICE_ORDERS:
        for n in range(4):
            out.append(f"lattice-trace --lattice {lat} --n {n} --order {order}")
            out.append(f"lattice-trace --lattice {lat} --n {n} --order {order} --oracle")
    # g has no tabulated transformation law, so transform-check takes no g
    for fn in ("Ptilde_1", "P_2", "P_3", "P_4", "G_2", "G_4", "G_6"):
        for gamma in GAMMAS:
            for point in POINTS:
                q = f"transform-check --function {fn} --gamma {gamma}"
                if point is not None:
                    q += f" --z {point[0]} --tau {point[1]}"
                out.append(q)
    return out


def command_of(query: str) -> str:
    return query.split(" ", 1)[0]


def _flag(query: str, name: str, default=None):
    toks = query.split()
    return toks[toks.index(name) + 1] if name in toks else default


def object_keys(query: str) -> dict:
    """The exact objects a query builds, by kind, for the repeat-share report.

    ``series`` is a (function, order) pair, ``engine`` a (spec, correlator)
    pair (reduce and anomaly both invert the correlator first), ``lattice`` a
    (lattice, shell order) pair and ``argv`` the query itself.
    """
    cmd = command_of(query)
    keys = {"argv": query}
    if cmd == "expand":
        keys["series"] = (_flag(query, "--function"), _flag(query, "--order"))
    elif cmd == "transform-check":
        fn = _flag(query, "--function")
        if not fn.startswith("G_"):
            keys["series"] = (fn, "60")
    elif cmd in ("reduce", "anomaly"):
        keys["engine"] = (_flag(query, "--spec"), _flag(query, "--correlator"))
    elif cmd == "lattice-trace":
        keys["lattice"] = (_flag(query, "--lattice"), _flag(query, "--order"))
    return keys


def _size_of(query: str) -> str:
    corr = _flag(query, "--correlator")
    if corr is not None:
        return "s=" + corr.split("^")[1]
    return "order=" + _flag(query, "--order", "60")


def cli_session(seed: int, pool) -> list[str]:
    """A session: every heavy pool query once and every other pool query
    twice, in an order shuffled by the seed.

    The mix is synthetic; no usage data stands behind it.  The seed changes
    only the order, so every session does the same work and pays the same
    cold builds (each (lattice, order) pair, each heavy query).
    """
    session = [q for q in pool for _ in range(1 if q in HEAVY else 2)]
    random.Random(seed).shuffle(session)
    return session


def input_report(session) -> dict:
    """Per-command counts, order/size histogram and repeat shares of a session."""
    counts = {cmd: 0 for cmd in CLI_COMMANDS}
    sizes: dict[str, dict[str, int]] = {cmd: {} for cmd in CLI_COMMANDS}
    seen: dict[str, set] = {}
    repeats: dict[str, list[int]] = {}
    for query in session:
        cmd = command_of(query)
        counts[cmd] += 1
        size = _size_of(query)
        sizes[cmd][size] = sizes[cmd].get(size, 0) + 1
        for kind, key in object_keys(query).items():
            tally = repeats.setdefault(kind, [0, 0])
            tally[1] += 1
            if key in seen.setdefault(kind, set()):
                tally[0] += 1
            seen[kind].add(key)
    return {
        "queries": len(session),
        "per_command": counts,
        "size_histogram": {c: dict(sorted(h.items())) for c, h in sizes.items()},
        "repeat_share": {kind: round(r / n, 4) for kind, (r, n) in sorted(repeats.items())},
        "repeat_base": {kind: n for kind, (_, n) in sorted(repeats.items())},
    }


# ---------------------------------------------------------------------------
# canonical outputs
# ---------------------------------------------------------------------------

def digest(obj) -> str:
    text = obj if isinstance(obj, str) else json.dumps(obj, sort_keys=True,
                                                        separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def expr_digest(expr) -> str:
    """sha256 of a CorrExpression's exact terms, in a canonical order.

    Streams ``repr`` (exact: rationals print as n/d) into the hash instead of
    building ``to_json``, which for the largest inversion costs as much time
    as the call and doubles the worker's peak memory.
    """
    h = hashlib.sha256()
    for sym, poly in sorted((repr(s), p) for s, p in expr.terms.items()):
        h.update(sym.encode())
        for term in sorted(f"{m!r}={c!r}" for m, c in poly.terms.items()):
            h.update(term.encode())
    return h.hexdigest()


def anomaly_json(graded) -> list:
    return [[k, [[repr(sym), coeff.to_pairs()]
                 for sym, coeff in sorted(bucket.items(), key=lambda kv: repr(kv[0]))]]
            for k, bucket in graded]


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

class Op:
    """One timed call: ``call`` returns a value that ``check`` turns into an
    error message, or None when the output is right."""

    __slots__ = ("family", "label", "call", "check")

    def __init__(self, family, label, call, check):
        self.family, self.label, self.call, self.check = family, label, call, check


def run_op(op: Op) -> dict:
    """Time one operation; any exception or failed check makes it fail.

    ``t0``/``t1`` are its ``perf_counter`` stamps and ``ms`` their distance;
    ``parts`` holds the stamps of timed parts of the call, if any.
    """
    t0 = time.perf_counter()
    try:
        value = op.call()
    except Exception as exc:  # an operation that raises is a failed operation
        t1 = time.perf_counter()
        return {"family": op.family, "label": op.label, "t0": t0, "t1": t1,
                "ms": (t1 - t0) * 1e3, "error": f"{type(exc).__name__}: {exc}"}
    t1 = time.perf_counter()
    rec = {"family": op.family, "label": op.label, "t0": t0, "t1": t1, "ms": (t1 - t0) * 1e3}
    if isinstance(value, dict) and "parts" in value:
        rec["parts"] = value["parts"]
    try:
        error = op.check(value)
    except Exception as exc:  # a check that cannot read the output fails it
        error = f"unreadable output: {type(exc).__name__}: {exc}"
    if error:
        rec["error"] = error
    return rec


def _expect_digest(want, digest_of=None):
    """Check that the output hashes to the reference digest."""
    def check(value):
        if want is None:
            return "no reference"
        got = (digest_of or digest)(value)
        return None if got == want else f"digest {got[:12]} != reference {want[:12]}"
    return check


def suites_ops(refs) -> list[Op]:
    from torusmodes import verify
    ops = []
    for name in SUITE_ORDER:
        want = refs["suites"].get(name)

        def check(report, want=want):
            if report.get("status") != "pass":
                failed = [c["id"] for c in report["cases"] if c["status"] != "pass"]
                return f"status {report.get('status')}: {failed}"
            ids = [c["id"] for c in report["cases"]]
            return None if ids == want else f"case ids {ids} != reference {want}"

        ops.append(Op("suite", name,
                      lambda name=name: verify.run_suite(name), check))
    return ops


def engine_ops(refs) -> list[Op]:
    from torusmodes import hha
    specs = {name: make() for name, make in hha.BUILTIN_SPECS.items()}
    ops = []
    for family, spec_name, gen, top in ENGINE_CURVE:
        spec = specs[spec_name]
        for s in range(1, top + 1):
            gens = (gen,) * s
            label = f"{family}.{spec_name[-1]}.s{s}"
            want = refs["engine"].get(label)
            if family == "invert_to_full":
                call = lambda spec=spec, gens=gens: hha.invert_to_full(spec, gens)
                check = _expect_digest(want, expr_digest)
            elif family == "anomaly_of_zero_modes":
                call = lambda spec=spec, gens=gens: hha.anomaly_of_zero_modes(spec, gens)
                check = _expect_digest(want, lambda graded: digest(anomaly_json(graded)))
            else:
                call = lambda spec=spec, gens=gens: _roundtrip(hha, spec, gens)
                check = _roundtrip_check(hha, gens, want)
            ops.append(Op(family, label, call, check))
    return ops


def _roundtrip(hha, spec, gens):
    full = hha.invert_to_full(spec, gens)
    t0 = time.perf_counter()
    back = hha.reduce_to_zero_modes(spec, full)
    return {"back": back, "parts": {"reduce_to_zero_modes": (t0, time.perf_counter())}}


def _roundtrip_check(hha, gens, want):
    def check(value):
        back = value["back"]
        if back != hha.CorrExpression.single(hha.CorrSymbol(gens, ())):
            return "round trip did not return the zero-mode correlator"
        return _expect_digest(want, expr_digest)(back)
    return check


def run_cli(argv) -> tuple[int, str]:
    """One ``cli.main`` call with stdout and stderr captured."""
    from torusmodes import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def cli_check(query: str, refs):
    want = refs["cli"].get(query)

    def check(result):
        code, stdout = result
        if code != 0:
            return f"exit code {code}"
        if command_of(query) == "transform-check":
            status = json.loads(stdout)["status"]
            return None if status == "pass" else f"status {status}"
        return _expect_digest(want)(stdout)
    return check


def cli_ops(session, refs) -> list[Op]:
    return [Op(command_of(q), q, lambda argv=q.split(): run_cli(argv), cli_check(q, refs))
            for q in session]


def build(workload: str, seed: int, refs):
    """The operations of one pass, and the input report for cli-session."""
    if workload == "suites":
        return suites_ops(refs), None
    if workload == "engine":
        return engine_ops(refs), None
    if workload == "cli-session":
        session = cli_session(seed, sorted(refs["cli"]))
        return cli_ops(session, refs), input_report(session)
    raise ValueError(f"unknown workload {workload!r}")
