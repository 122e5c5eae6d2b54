"""Batch command-line front end.

Commands: expand, verify-suite, reduce, anomaly, lattice-trace,
transform-check.  JSON goes to stdout, diagnostics to stderr; exit codes:
0 success / all checks pass, 1 a failed check (a verification report, or an
engine invariant: pi*i marker cancellation, anomaly residue, weight
bookkeeping), 2 usage error, 3 valid input that needs mathematics the engine
does not have yet.
"""

from __future__ import annotations

import argparse
import cmath
import json
import sys

from . import elliptic as el
from . import hha
from . import lattice as lt
from . import numerics as nm
from . import qseries as qs
from . import verify
from .symbols import UnsupportedError, function_symbol


class UsageError(ValueError):
    pass


def _parse_complex(flag: str, text: str) -> complex:
    try:
        value = complex(text.replace("i", "j"))
    except ValueError:
        raise UsageError(f"{flag} cannot parse complex number {text!r}") from None
    if not cmath.isfinite(value):
        raise UsageError(f"{flag} must be finite, got {text!r}")
    return value


def _parse_gamma(text: str):
    try:
        gamma = tuple(int(p) for p in text.split(","))
    except ValueError:
        gamma = ()
    if len(gamma) != 4:
        raise UsageError(f"--gamma {text!r} is not four comma-separated integers a,b,c,d")
    try:
        return nm.sl2_check(gamma)
    except ValueError:
        raise UsageError(f"--gamma {text!r} is not in SL(2,Z)") from None


def _emit(obj) -> None:
    json.dump(obj, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _load_spec(name: str) -> hha.HHASpec:
    if name in hha.BUILTIN_SPECS:
        return hha.BUILTIN_SPECS[name]()
    try:
        return hha.HHASpec.load(name)
    except FileNotFoundError:
        raise UsageError(f"no such HHA spec file or builtin: {name!r}")


def _load_lattice(name: str) -> lt.EvenLattice:
    if name in lt.PRESETS:
        return lt.PRESETS[name]()
    try:
        return lt.EvenLattice.load(name)
    except FileNotFoundError:
        raise UsageError(f"no such lattice file or preset: {name!r}")


def _zero_mode_name(sym: hha.CorrSymbol) -> str:
    counts = {}
    for g_ in sym.modes:
        counts[g_] = counts.get(g_, 0) + 1
    inner = " ".join(f"{g_}0^{c}" for g_, c in sorted(counts.items()))
    return f"F({inner})"


# expand ids by name; each "_" in a form stands before one integer index
_EXPAND_FORMS = {"G": "G_2k", "P": "P_k", "g": "g_i_j", "wp": "wp_k", "eta": "eta_l"}


def _parse_function_id(fn: str):
    """Split an expand id such as "g_1_3" into its name and integer indices."""
    if fn in ("Ptilde_1", "P~1"):
        return "Ptilde_1", ()
    name, _, rest = fn.partition("_")
    form = _EXPAND_FORMS.get(name)
    if form is None:
        raise UsageError(f"unknown function id {fn!r}")
    try:
        indices = tuple(int(t) for t in rest.split("_"))
    except ValueError:
        indices = ()
    if len(indices) != form.count("_"):
        raise UsageError(f"--function {fn!r} is not of the form {form} with integer indices")
    return name, indices


def cmd_expand(args) -> int:
    name, idx = _parse_function_id(args.function)
    order = args.order
    if order < 0:
        raise UsageError("--order must be >= 0")
    if name == "G":
        series = qs.eisenstein(idx[0], order)
    elif name == "eta":
        series = qs.eta_power(idx[0], order)
    elif name == "Ptilde_1":
        series = el.p_tilde_1(order)
    elif name == "P":
        series = el.p_expansion(idx[0], order)
    elif name == "g":
        series = el.g_expansion(idx[0], idx[1], order)
    else:
        series = el.wp_laurent(idx[0], args.z_order, order)
    _emit(series.to_json())
    return 0


def cmd_verify_suite(args) -> int:
    report = verify.run_suite(args.suite, order=args.order, tol=args.tol, seed=args.seed)
    _emit(report)
    return 0 if report["status"] == "pass" else 1


def _zero_mode_generators(spec: hha.HHASpec, correlator: str) -> tuple:
    try:
        gens = hha.parse_zero_mode_correlator(correlator)
    except ValueError as exc:
        raise UsageError(f"--correlator {exc}") from None
    unknown = [g_ for g_ in gens if g_ not in spec.weights]
    if unknown:
        raise UsageError(f"correlator references unknown generators {unknown}")
    return gens


def cmd_reduce(args) -> int:
    spec = _load_spec(args.spec)
    gens = _zero_mode_generators(spec, args.correlator)
    expr = hha.invert_to_full(spec, gens)
    _emit({"correlator": args.correlator, "spec": args.spec,
           "full_correlator_expansion": expr.to_json()})
    return 0


def cmd_anomaly(args) -> int:
    spec = _load_spec(args.spec)
    gens = _zero_mode_generators(spec, args.correlator)
    graded = hha.anomaly_of_zero_modes(spec, gens)
    out = {}
    for k, bucket in graded:
        rows = []
        for sym, coeff in sorted(bucket.items(), key=lambda kv: repr(kv[0])):
            beta = coeff.shift(2 * k)  # report against beta = c/(2 pi i (c tau + d))
            rows.append([repr(beta), _zero_mode_name(sym)])
        out[f"k{k}"] = rows
    _emit(out)
    return 0


def cmd_lattice_trace(args) -> int:
    if args.n < 0:
        raise UsageError("--n must be >= 0")
    lat = _load_lattice(args.lattice)
    closed = lt.quasimod_rhs(lat, args.axis, args.n, args.order)
    result = {"lattice": args.lattice, "n": args.n, "order": args.order,
              "axis": args.axis, "closed_form": closed.to_json()}
    status = 0
    if args.oracle:
        oracle = lt.fock_trace_oracle(lat, args.axis, args.n, args.order)
        equal = (closed - oracle).is_zero()
        result["oracle"] = oracle.to_json()
        result["equal"] = equal
        if not equal:
            status = 1
    _emit(result)
    return status


# the ids with a tabulated transformation law
_LAW_IDS = "Ptilde_1 | P_k (k>=2) | G_2k | g_1_j (g^1_j)"


def cmd_transform_check(args) -> int:
    try:
        function_symbol(args.function)
    except KeyError:
        raise UsageError(f"--function {args.function!r}: unknown function id; "
                         f"expected {_LAW_IDS}") from None
    gamma = _parse_gamma(args.gamma)
    z = _parse_complex("--z", args.z)
    tau = _parse_complex("--tau", args.tau)
    if tau.imag <= 0:
        raise UsageError(f"--tau {args.tau!r} must have a positive imaginary part")
    if args.order < 0:
        raise UsageError("--order must be >= 0")
    report = nm.verify_modular(args.function, gamma, z, tau,
                               truncation=args.order, tol=args.tol)
    _emit(report)
    return 0 if report["status"] == "pass" else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torusmodes",
        description="Exact q-expansions, quasi-Jacobi special functions, and "
                    "zero-mode correlator reductions.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="emit a named series as JSON")
    p.add_argument("--function", required=True,
                   help="G_2k | P_k | Ptilde_1 | g_i_j (g^i_j) | wp_k | eta_l")
    p.add_argument("--order", type=int, default=qs.DEFAULT_ORDER)
    p.add_argument("--z-order", type=int, default=8, help="z order for wp_k")
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("verify-suite", help="run a named verification suite")
    p.add_argument("suite", choices=sorted(verify.SUITES))
    p.add_argument("--order", type=int, default=None)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_verify_suite)

    p = sub.add_parser("reduce", help="expand a zero-mode correlator into full correlators")
    p.add_argument("--spec", required=True, help="HHA spec JSON file, or weight1|weight2")
    p.add_argument("--correlator", required=True, help='e.g. "x0^3"')
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("anomaly", help="modular anomaly of a zero-mode correlator")
    p.add_argument("--spec", required=True)
    p.add_argument("--correlator", required=True)
    p.set_defaults(func=cmd_anomaly)

    p = sub.add_parser("lattice-trace", help="closed-form lattice trace (and oracle)")
    p.add_argument("--lattice", required=True, help="lattice JSON file, or e8|e8x3|a1")
    p.add_argument("--n", type=int, required=True, help="zero-mode power")
    p.add_argument("--order", type=int, default=6)
    p.add_argument("--axis", type=int, default=0)
    p.add_argument("--oracle", action="store_true")
    p.set_defaults(func=cmd_lattice_trace)

    p = sub.add_parser("transform-check", help="check one modular transformation law")
    p.add_argument("--function", required=True, help=_LAW_IDS)
    p.add_argument("--gamma", required=True, help="a,b,c,d")
    p.add_argument("--z", default="0.1+0.3i")
    p.add_argument("--tau", default="1.2i")
    p.add_argument("--order", type=int, default=60)
    p.add_argument("--tol", type=float, default=None)
    p.set_defaults(func=cmd_transform_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except UnsupportedError as exc:
        print(f"unsupported: {exc.args[0]}", file=sys.stderr)
        return 3
    except (hha.CancellationError, hha.ResidueError, hha.WeightBookkeepingError) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    except (UsageError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
