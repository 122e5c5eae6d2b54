"""One pass of one workload in a fresh interpreter.

Started by ``run.py``; prints one JSON object as its last line of stdout.
``--t0`` is the parent's ``time.time()`` just before it started this
process, so ``setup_s`` covers interpreter start, imports, input generation
and loading the references.  With ``--setup-only`` the worker stops there.

Every time is reported twice: ``raw_*`` as measured (without the probe's own
time) and, under the plain name, at the reference speed (see ``speed.py``).
The traced pass runs no probe, so that its spans hold only the program's
time: its operations are reported raw, and its ``wall_s`` is scaled by the
host's slowness sampled right before and right after the pass.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def at_reference_speed(rec: dict, probe) -> None:
    """Set ``raw_ms`` to the operation's time without the probe's, and
    ``ms`` to that time at the reference speed; the same for its parts."""
    def times(t0, t1):
        if probe is None:
            raw = t1 - t0
            return raw * 1e3, raw * 1e3
        raw = t1 - t0 - probe.paused(t0, t1)
        return raw * 1e3, raw * 1e3 / probe.factor(t0, t1)

    rec["raw_ms"], rec["ms"] = times(rec.pop("t0"), rec.pop("t1"))
    if "parts" in rec:
        rec["parts_ms"] = {name: times(*span)[1] for name, span in rec.pop("parts").items()}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", default=None, help="file the traced run writes its spans to")
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    # the program under test: the package and the two modules it does not import
    from torusmodes import cli, verify  # noqa: F401
    import speed
    import workloads

    with open(HERE / "refs.json") as fh:
        refs = json.load(fh)
    ops, report = workloads.build(args.workload, args.seed, refs)
    setup_s = time.time() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s / speed.setup_factor(), "raw_setup_s": setup_s}))
        return 0

    tracer = probe = None
    if args.trace:
        import tracer as tracing
        slowness = [speed.setup_factor()]
        tracer = tracing.Tracer()
        tracer.install()
    else:
        probe = speed.Probe()
        probe.start()
    records = []
    for op_id, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = op_id
        records.append(workloads.run_op(op))
    if probe is not None:
        probe.stop()
    for rec in records:
        at_reference_speed(rec, probe)
    raw_wall_s = sum(r["raw_ms"] for r in records) / 1e3
    wall_s = sum(r["ms"] for r in records) / 1e3
    if tracer is not None:
        tracer.uninstall()
        slowness.append(speed.setup_factor())
        wall_s = raw_wall_s / statistics.mean(slowness)
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "raw_wall_s": raw_wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops": records,
        "input_report": report,
    }
    if tracer is not None:
        if args.spans:
            tracer.write(args.spans)
        result["layers"] = tracer.summary()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
