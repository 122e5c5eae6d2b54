"""torusmodes benchmark: one command for every workload, metric and check.

    python3 perfbench/run.py --workload {suites,engine,cli-session} \\
        --seed N --seconds S --trace {0,1}

Closed loop, one client: this process starts one fresh interpreter
(``worker.py``) at a time and waits for it.  ``SETUPS`` set-up-only workers
run first, and ``setup_s`` is the median of their set-up times.  Then
``pass_count(workload, seconds)`` workers each run one pass of the workload.
``wall_s`` is the median pass; ``op_p50_ms`` and ``op_tail_ms`` rank each
operation's median time over the passes.  Times are at the reference speed: each is divided by the host's
slowness measured alongside it (``speed.py``); the raw times are in the report
lines and the result file.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs one
untraced and one traced pass and reports the per-layer metrics.  The
human-readable report goes to stdout first; the last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The full result,
with the machine record, is written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUPS = 7  # set-up-only workers per run; a suites run has only one pass
# Seconds one pass takes at the seed commit on the reference machine while
# the host is quiet; a run makes about --seconds / PASS_S passes.
PASS_S = {"suites": 32.0, "engine": 7.0, "cli-session": 5.5}
LONG_SUITES = ("lattice-modular", "elliptic-numeric")  # the rest: suite.rest_s
DEADLINE_S = 170.0  # every run ends within 180 s
STARTED = time.monotonic()


class BenchError(RuntimeError):
    pass


def spawn(*extra) -> dict:
    """Run one worker to completion and return its JSON result."""
    left = DEADLINE_S - (time.monotonic() - STARTED)
    if left <= 1:
        raise BenchError("out of time before the next worker")
    cmd = [sys.executable, str(HERE / "worker.py"), "--t0", repr(time.time()), *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=left)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker did not finish within {left:.0f} s: {extra}") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def tail(values):
    """Highest percentile with at least ten samples beyond it (nearest rank).

    Returns (value, percentile, sample count); with ten samples or fewer no
    percentile qualifies and the maximum is reported as percentile 100.
    """
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def pass_count(workload: str, seconds: float) -> int:
    """The number of passes of a run.

    It depends on the run length only, never on how fast the code under test
    is, so that every commit's operations get the same number of samples.
    """
    return max(1, round(seconds / PASS_S[workload]))


def failures(passes):
    attempted = sum(len(p["ops"]) for p in passes)
    failed = [(r["label"], r["error"]) for p in passes for r in p["ops"] if "error" in r]
    return attempted, failed


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def end_to_end(setups, passes) -> tuple[dict, dict]:
    """Set-up median, peak memory, the median pass time, and the latency
    figures over each operation's median time over the passes.

    Every pass runs the same operations in the same order, so an operation's
    median over the passes damps its call-to-call noise before the ranking.
    """
    per_op = [statistics.median(ms)
              for ms in zip(*([r["ms"] for r in p["ops"]] for p in passes))]
    op_tail, pct, n = tail(per_op)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "peak_rss_mb": (max(p["peak_rss_mb"] for p in passes), "MB"),
        "op_p50_ms": (statistics.median(per_op), "ms"),
        "op_tail_ms": (op_tail, "ms"),
    }
    detail = {"tail_percentile": pct, "ops_per_pass": n, "passes": len(passes)}
    return metrics, detail


FAMILY_SUMS = {"invert_to_full": "engine.invert_s", "anomaly_of_zero_modes": "engine.anomaly_s",
               "roundtrip": "engine.roundtrip_s"}


def breakdown(passes) -> dict:
    """Workload-specific sums, median over passes: suite.*_s on suites,
    engine.*_s on engine."""
    sums = {}
    for i, p in enumerate(passes):
        for r in p["ops"]:
            if r["family"] == "suite":
                key = ("suite." + r["label"] + "_s" if r["label"] in LONG_SUITES
                       else "suite.rest_s")
            elif r["family"] in FAMILY_SUMS:
                key = FAMILY_SUMS[r["family"]]
            else:
                continue
            sums.setdefault(key, [0.0] * len(passes))[i] += r["ms"] / 1e3
    return {key: (statistics.median(v), "s") for key, v in sums.items()}


ENGINE_CURVE_NAMES = [
    f"hha.{'reduce_to_zero_modes' if fam == 'roundtrip' else fam}.w{spec[-1]}.s{s}_ms"
    for fam, spec, _, top in workloads.ENGINE_CURVE for s in range(1, top + 1)]


def untraced_layer_metrics(ops) -> dict:
    """Per-call and per-command figures taken from an untraced pass."""
    out = {name: (0.0, "ms") for name in ENGINE_CURVE_NAMES}
    by_cmd = {cmd: [] for cmd in workloads.CLI_COMMANDS}
    suites = {name: 0.0 for name in workloads.SUITE_ORDER}
    for r in ops:
        fam = r["family"]
        if fam in ("invert_to_full", "anomaly_of_zero_modes"):
            _, spec, s = r["label"].split(".")
            out[f"hha.{fam}.w{spec}.{s}_ms"] = (r["ms"], "ms")
        elif fam == "roundtrip":
            _, spec, s = r["label"].split(".")
            out[f"hha.reduce_to_zero_modes.w{spec}.{s}_ms"] = (
                r["parts_ms"]["reduce_to_zero_modes"], "ms")
        elif fam == "suite":
            suites[r["label"]] = r["ms"] / 1e3
        else:
            by_cmd[fam].append(r["ms"])
    for cmd, ms in by_cmd.items():
        out[f"cli.{cmd}.p50_ms"] = (statistics.median(ms) if ms else 0.0, "ms")
    for name, s in suites.items():
        out[f"verify.{name}_s"] = (s, "s")
    return out


LAYER_UNITS = {"calls": "count", "self_s": "s", "vectors": "count", "terms_in": "count",
               "terms_out": "count", "distinct_ratio": "ratio"}


def traced_layer_metrics(layers) -> dict:
    out = {}
    for key, value in layers.items():
        suffix = key.rsplit(".", 1)[-1]
        if suffix in LAYER_UNITS:
            out[key] = (value, LAYER_UNITS[suffix])
    return out


# ---------------------------------------------------------------------------
# machine record
# ---------------------------------------------------------------------------

def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def machine() -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu_model(),
            "python": platform.python_version(), "numpy": numpy_version,
            "loadavg_start": list(os.getloadavg())}


# ---------------------------------------------------------------------------

def run(args) -> dict:
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine()}

    if args.trace:
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.tsv"
        plain = spawn(*base)
        traced = spawn(*base, "--trace", "1", "--spans", str(spans))
        passes = [plain, traced]
        layers = traced["layers"]
        metrics = untraced_layer_metrics(plain["ops"])
        metrics.update(traced_layer_metrics(layers))
        metrics["trace.overhead_ratio"] = (traced["wall_s"] / plain["wall_s"], "ratio")
        record["trace_check"] = {
            "spans": layers["spans"], "spans_file": str(spans.relative_to(ROOT)),
            "top_level_self_s": layers["top_level_self_s"], "traced_wall_s": traced["raw_wall_s"],
            "self_within_wall": layers["top_level_self_s"] <= traced["raw_wall_s"]}
    else:
        setups = [spawn(*base, "--setup-only") for _ in range(SETUPS)]
        passes = [spawn(*base) for _ in range(pass_count(args.workload, args.seconds))]
        metrics, detail = end_to_end([s["setup_s"] for s in setups], passes)
        record.update(detail)
        record["setups_s"] = [s["setup_s"] for s in setups]
        record["raw"] = {
            "setup_s": statistics.median(s["raw_setup_s"] for s in setups),
            "wall_s": statistics.median(p["raw_wall_s"] for p in passes)}
        record["workload_breakdown"] = breakdown(passes)
        record["pass_ops_ms"] = [[r["ms"] for r in p["ops"]] for p in passes]
        record["pass_ops_raw_ms"] = [[r["raw_ms"] for r in p["ops"]] for p in passes]

    attempted, failed = failures(passes)
    correct = not failed and record.get("trace_check", {}).get("self_within_wall", True)
    record.update({
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "attempted": attempted, "failed": len(failed), "fail_ratio": len(failed) / attempted,
        "failures": failed[:20], "input_report": passes[0]["input_report"],
        "correct": correct})
    record["machine"]["loadavg_end"] = list(os.getloadavg())
    return record


def print_report(rec) -> None:
    m = rec["machine"]
    print(f"# torusmodes benchmark: workload={rec['workload']} seed={rec['seed']} "
          f"seconds={rec['seconds']} trace={rec['trace']}")
    print(f"# machine: nproc={m['nproc']} cpu={m['cpu_model']!r} python={m['python']} "
          f"numpy={m['numpy']} loadavg start={m['loadavg_start']} end={m['loadavg_end']}")
    if "passes" in rec:
        print(f"# passes={rec['passes']} ops_per_pass={rec['ops_per_pass']} "
              f"op_tail percentile=p{rec['tail_percentile']:.1f} "
              f"(highest with >= 10 samples beyond it, over {rec['ops_per_pass']} samples)")
    if rec["input_report"]:
        print("# input: " + json.dumps(rec["input_report"], sort_keys=True))
    print(f"# fail_ratio={rec['fail_ratio']} ({rec['failed']} of {rec['attempted']} "
          f"operations failed)")
    for label, error in rec["failures"]:
        print(f"#   FAILED {label}: {error}")
    rows = dict(rec["metrics"])
    for k, (v, u) in rec.get("workload_breakdown", {}).items():
        rows[k] = {"value": v, "unit": u}
    for k, v in rows.items():
        print(f"{k:48s} {v['value']:.6g} {v['unit']}")
    if "raw" in rec:
        print("# raw, as measured on this host: " + "  ".join(
            f"{k} {v:.6g} s" for k, v in rec["raw"].items()))
    if "trace_check" in rec:
        print("# trace: " + json.dumps(rec["trace_check"], sort_keys=True))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "torusmodes" / "__init__.py").is_file():
        print(f"error: program source {ROOT / 'src' / 'torusmodes'} not found",
              file=sys.stderr)
        return 2
    try:
        rec = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w") as fh:
        json.dump(rec, fh, indent=1, sort_keys=True)
    print_report(rec)
    print(json.dumps({"correct": rec["correct"], "attempted": rec["attempted"],
                      "failed": rec["failed"], "metrics": rec["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
