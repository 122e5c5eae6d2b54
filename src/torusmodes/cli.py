"""Batch command-line front end.

Commands: expand, verify-suite, reduce, anomaly, lattice-trace,
transform-check.  JSON goes to stdout, diagnostics to stderr; exit codes:
0 success / all checks pass, 1 a failed check (a verification report, or an
engine invariant: pi*i marker cancellation or weight bookkeeping), 2 usage
error, 3 valid input that needs mathematics the engine does not have yet.
The layout of each report is defined here: the series, layer and expansion
reports are written straight from the objects, one coefficient or term at a
time, and every other report is a dict written by ``_write_json``.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import sys
from functools import cache, partial
from json.encoder import encode_basestring_ascii

from . import elliptic as el
from . import hha
from . import lattice as lt
from . import numerics as nm
from . import qseries as qs
from . import verify
from .scaled import Memo, format_fraction
from .symbols import UnsupportedError, function_symbol, sym_str


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """Raises its errors as ``UsageError``, which ``main`` prints on one line."""

    def error(self, message):
        raise UsageError(message)


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


def _check_order_tol(order, tol=None) -> None:
    """--order, when given, must be >= 0 and --tol, when given, finite and > 0."""
    if order is not None and order < 0:
        raise UsageError("--order must be >= 0")
    if tol is not None and not 0 < tol < math.inf:
        raise UsageError(f"--tol must be finite and > 0, got {tol:g}")


def _write_json(value, write, indent: str = "") -> None:
    """Write ``value`` as ``json.dumps(value, indent=2, sort_keys=True)`` prints it ``indent`` deep.

    Strings, ints and finite floats are written here, and every non-empty
    list, tuple and string-keyed dict item by item, so the text of one scalar
    at a time is all that is held: the stdlib's indenting encoder builds the
    whole text, in pure Python and about twice as slowly.  A callable value
    writes its own text, as ``value(write, indent)``.  Every other value (NaN
    or an infinity, a bool, None, an empty container, a dict with a key that
    is not a string, a subclass of any of these types) goes to ``json.dumps``
    itself, so the text never differs.
    """
    cls = type(value)
    if cls is str:
        write(encode_basestring_ascii(value))
        return
    if cls is int:
        write(int.__repr__(value))
        return
    if cls is float and math.isfinite(value):
        write(float.__repr__(value))
        return
    if (cls is list or cls is tuple) and value:
        brackets, items = "[]", (("", v) for v in value)
    elif cls is dict and value and {*map(type, value)} == {str}:
        brackets = "{}"
        items = ((encode_basestring_ascii(k) + ": ", v) for k, v in sorted(value.items()))
    elif callable(value):
        value(write, indent)
        return
    else:
        write(json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + indent))
        return
    inner = indent + "  "
    separator = brackets[0] + "\n" + inner
    for key, item in items:
        write(separator + key)
        _write_json(item, write, inner)
        separator = ",\n" + inner
    write("\n" + indent + brackets[1])


def _factor_text(indent: str, pair) -> str:
    """The text of ``[sym_str(symbol), exponent]`` for the (symbol, exponent)
    ``pair``, printed ``indent`` deep, as ``_write_json`` writes it."""
    inner = indent + "  "
    return f"[\n{inner}{encode_basestring_ascii(sym_str(pair[0]))},\n{inner}{pair[1]}\n{indent}]"


def _write_expansion(expr: hha.CorrExpression, write, indent: str) -> None:
    """Write ``expr`` as the ``reduce`` report's expansion, ``indent`` deep.

    The text is what ``_write_json`` writes for the list of
    ``{"coeff": [{"coeff": c.to_pairs(), "monomial": [[sym_str(s), e], ...]}, ...],
    "symbol": repr(sym)}``, both lists in ``sorted_terms`` order, but it is
    written one correlator term at a time without building that list.  Each
    (symbol, exponent) factor's text is built once per call.
    """
    if expr.is_zero():
        write("[]")
        return
    i2, i4, i6, i8, i10, i12 = (indent + "  " * k for k in range(1, 7))
    factor_texts = Memo(partial(_factor_text, i10))
    # an entry is {"coeff": [[grade, "p/q"]], "monomial": [factor, ...]}
    coeff_open = f'{{\n{i8}"coeff": [\n{i10}[\n{i12}'
    coeff_mid = f',\n{i12}"'
    coeff_close = f'"\n{i10}]\n{i8}],\n{i8}"monomial": '
    entry_close = "\n" + i6 + "}"
    factor_sep = ",\n" + i10
    separator = "[\n" + i2
    for sym, poly in expr.sorted_terms():
        entries = []
        for mono, c in poly.sorted_terms():
            monomial = ("[\n" + i10 + factor_sep.join([factor_texts[p] for p in mono])
                        + "\n" + i8 + "]") if mono else "[]"
            entries.append(f"{coeff_open}{c.tpi}{coeff_mid}{format_fraction(c.value)}"
                           f"{coeff_close}{monomial}{entry_close}")
        write(f'{separator}{{\n{i4}"coeff": [\n{i6}' + f",\n{i6}".join(entries)
              + f'\n{i4}],\n{i4}"symbol": {encode_basestring_ascii(repr(sym))}\n{i2}}}')
        separator = ",\n" + i2
    write("\n" + indent + "]")


def _write_series(series: qs.QExpansion, write, indent: str) -> None:
    """Write ``series`` as the report of a q-series, ``indent`` deep.

    The text is what ``_write_json`` writes for ``{"coeffs": [...], "lower": 0,
    "offset": "o", "truncation": N}``, where each coefficient c is
    ``[[tpi, "c"]]``, or ``[]`` when it is zero, and ``"lower"``, always 0, is
    kept for the report's readers.  Each coefficient is one write.
    """
    i1, i2, i3, i4 = (indent + "  " * k for k in range(1, 5))
    head, tail = f'[\n{i3}[\n{i4}{series.tpi},\n{i4}"', f'"\n{i3}]\n{i2}]'
    separator = f'{{\n{i1}"coeffs": [\n{i2}'
    for c in series.coeffs:
        write(f"{separator}{head}{format_fraction(c)}{tail}" if c else separator + "[]")
        separator = ",\n" + i2
    write(f'\n{i1}],\n{i1}"lower": 0,\n{i1}"offset": "{format_fraction(series.offset)}",'
          f'\n{i1}"truncation": {series.truncation}\n{indent}}}')


def _write_pairs(poly, write, indent: str) -> None:
    """Write the Laurent polynomial ``poly`` as its ``[[e, "c"], ...]`` list,
    ascending in e, ``indent`` deep.

    Each coefficient is one write, its pair's exponent the write before it, so
    no write holds more than the coefficient's line and the pair's close.
    """
    if not poly.coeffs:
        write("[]")
        return
    i1, i2 = indent + "  ", indent + "    "
    head, tail = f"[\n{i1}[\n{i2}", f'"\n{i1}]'
    for e, c in sorted(poly.coeffs.items()):
        write(f"{head}{e},\n{i2}")
        write(f'"{format_fraction(c)}{tail}')
        head = f",\n{i1}[\n{i2}"
    write("\n" + indent + "]")


def _write_layers(series: el.BivariateExpansion, write, indent: str) -> None:
    """Write ``series`` as the report of a layered expansion, ``indent`` deep.

    The text is what ``_write_json`` writes for ``{"layers": [...], "tpi": t,
    "truncation": N}``, where layer m is ``{"den": ..., "m": m, "num": ...}``:
    N(zeta)/(1-zeta)**k as its numerator over the monic denominator
    (zeta-1)**k, each a ``_write_pairs`` list read from the polynomial's
    coefficients.  The layers are written one at a time.
    """
    i1, i2, i3 = (indent + "  " * k for k in range(1, 4))
    separator = f'{{\n{i1}"layers": [\n{i2}'
    for m, layer in enumerate(series.coeffs):
        write(f'{separator}{{\n{i3}"den": ')
        _write_pairs(layer.den, write, i3)
        write(f',\n{i3}"m": {m},\n{i3}"num": ')
        _write_pairs(layer._monic_num(), write, i3)
        write(f"\n{i2}}}")
        separator = ",\n" + i2
    write(f'\n{i1}],\n{i1}"tpi": {series.tpi},\n{i1}"truncation": {series.truncation}'
          f"\n{indent}}}")


def _emit(obj) -> None:
    """Print ``obj`` as ``json.dump(obj, sys.stdout, indent=2, sort_keys=True)``, then a newline.

    A callable value in ``obj`` prints its own text (see ``_write_json``).

    A reader that closes the pipe early (``| head``) ends the output, not the
    command: stdout is pointed at the null device so that the interpreter's
    last flush stays silent, and the command keeps its exit code.
    """
    try:
        _write_json(obj, sys.stdout.write)
        sys.stdout.write("\n")
        sys.stdout.flush()
    except BrokenPipeError:
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)


# input kind -> (its built-ins by name, its reader of a JSON document)
_INPUTS = {"spec": (hha.BUILTIN_SPECS, hha.HHASpec.from_json),
           "lattice": (lt.PRESETS, lt.EvenLattice.from_json)}


@cache
def _builtin_once(what: str, name: str):
    """The built-in ``what`` called ``name``, built once per process: its memos
    serve every later query in the process."""
    return _INPUTS[what][0][name]()


def _load(what: str, name: str):
    """The built-in ``what`` called ``name``, else the ``what`` of the JSON file
    ``name``, read anew on every call."""
    builtins, from_json = _INPUTS[what]
    if name in builtins:
        return _builtin_once(what, name)
    try:
        with open(name) as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise UsageError(f"no such {what} file or built-in: {name!r}") from None
    except OSError as exc:
        raise UsageError(f"cannot read {what} file {name!r}: {exc.strerror}") from None
    except RecursionError:
        raise UsageError(f"cannot read {what} file {name!r}: JSON nested too deeply") from None
    return from_json(data)


def _zero_mode_name(sym: hha.CorrSymbol) -> str:
    return "F(" + " ".join(f"{g_}0^{c}" for g_, c in sym.mode_counts().items()) + ")"


# expand ids -> (form, builder).  An id is a key with no "_" at its end, or a
# key ending in "_" and then its integer indices, "_"-joined, one for each "_"
# of its form; the builder takes the indices and then --order.
_EXPAND = {"G_": ("G_2k", qs.eisenstein), "eta_": ("eta_l", qs.eta_power),
           "P_": ("P_k", el.p_expansion), "g_": ("g_i_j", el.g_expansion),
           "wp_": ("wp_k", el.wp_laurent), "Ptilde_1": ("P~1", el.p_tilde_1),
           "P~1": ("P~1", el.p_tilde_1)}


def cmd_expand(args) -> int:
    fn, order, z_order = args.function, args.order, args.z_order
    key = fn if fn in _EXPAND else fn.partition("_")[0] + "_"
    if key not in _EXPAND:
        raise UsageError(f"unknown function id {fn!r}")
    form, build = _EXPAND[key]
    try:
        idx = tuple(int(t) for t in fn[len(key):].split("_"))
    except ValueError:
        idx = ()
    if len(idx) != form.count("_"):
        raise UsageError(f"--function {fn!r} is not of the form {form} with integer indices")
    _check_order_tol(order)
    wp = key == "wp_"  # wp_laurent takes --z-order too, and returns {z-exponent: series}
    if wp and idx[0] >= 1 and z_order < -idx[0]:
        raise UsageError(f"--z-order {z_order} is below -{idx[0]}, the leading z order of {fn}")
    try:  # a builder refuses an index out of its range with a ValueError
        series = build(*idx, z_order, order) if wp else build(*idx, order)
    except ValueError as exc:
        raise UsageError(f"--function {fn!r}: {exc}") from None
    if wp:
        _emit({"z_coeffs": {str(e): partial(_write_series, series[e]) for e in series}})
    elif isinstance(series, el.BivariateExpansion):
        _emit(partial(_write_layers, series))
    else:
        _emit(partial(_write_series, series))
    return 0


def cmd_verify_suite(args) -> int:
    _check_order_tol(args.order, args.tol)
    report = verify.run_suite(args.suite, order=args.order, tol=args.tol, seed=args.seed)
    _emit(report)
    return 0 if report["status"] == "pass" else 1


def _zero_mode_generators(spec: hha.HHASpec, correlator: str) -> tuple:
    try:
        gens = hha.parse_zero_mode_correlator(correlator)
    except ValueError as exc:
        raise UsageError(f"--correlator {exc}") from None
    unknown = sorted({g_ for g_ in gens if g_ not in spec.weights})
    if unknown:
        raise UsageError(f"--correlator references unknown generators {unknown}")
    return gens


def cmd_reduce(args) -> int:
    spec = _load("spec", args.spec)
    gens = _zero_mode_generators(spec, args.correlator)
    expr = hha.invert_to_full(spec, gens)
    _emit({"correlator": args.correlator, "spec": args.spec,
           "full_correlator_expansion": partial(_write_expansion, expr)})
    return 0


def cmd_anomaly(args) -> int:
    spec = _load("spec", args.spec)
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
    if args.n > hha.MAX_ZERO_MODES:
        raise UsageError(f"--n {args.n} inserts {args.n} zero modes; "
                         f"at most {hha.MAX_ZERO_MODES} are supported")
    _check_order_tol(args.order)
    lat = _load("lattice", args.lattice)
    closed = lt.quasimod_rhs(lat, args.n, args.order)
    # "axis": 0 names h = e_0/|e_0|, kept so that reports stay as they were
    result = {"lattice": args.lattice, "n": args.n, "order": args.order,
              "axis": 0, "closed_form": partial(_write_series, closed)}
    status = 0
    if args.oracle:
        oracle = lt.fock_trace_oracle(lat, args.n, args.order)
        equal = closed == oracle
        result["oracle"] = partial(_write_series, oracle)
        result["equal"] = equal
        if not equal:
            status = 1
    _emit(result)
    return status


# the ids with a transformation law (symbols.derive reaches them)
_LAW_IDS = "Ptilde_1 | P_k (k>=2) | G_2k | g_i_j (g^i_j, j>i)"


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
    _check_order_tol(None, args.tol)
    try:
        report = nm.verify_modular(args.function, gamma, z, tau, tol=args.tol)
    except ZeroDivisionError:
        raise UsageError(f"--z {args.z!r} is at or too near a pole of {args.function}: "
                         f"z must stay off the lattice Z + tau Z") from None
    _emit(report)
    return 0 if report["status"] == "pass" else 1


_REQUIRED = object()

# command -> (its function, its help, {argument: (type, default, help)}): the
# one statement of the CLI grammar.  A default of _REQUIRED marks a required
# argument, type bool a store_true flag, and a name without "--" a positional
# whose type is its choices.
_COMMANDS = {
    "expand": (cmd_expand, "emit a named series as JSON", {
        "--function": (str, _REQUIRED, "G_2k | P_k | Ptilde_1 | g_i_j (g^i_j) | wp_k | eta_l"),
        "--order": (int, qs.DEFAULT_ORDER, None),
        "--z-order": (int, 8, "z order for wp_k")}),
    "verify-suite": (cmd_verify_suite, "run a named verification suite", {
        "suite": (sorted(verify.SUITES), _REQUIRED, None),
        "--order": (int, None, None), "--tol": (float, None, None), "--seed": (int, None, None)}),
    "reduce": (cmd_reduce, "expand a zero-mode correlator into full correlators", {
        "--spec": (str, _REQUIRED, "HHA spec JSON file, or weight1|weight2"),
        "--correlator": (str, _REQUIRED, 'e.g. "x0^3"')}),
    "anomaly": (cmd_anomaly, "modular anomaly of a zero-mode correlator", {
        "--spec": (str, _REQUIRED, None), "--correlator": (str, _REQUIRED, None)}),
    "lattice-trace": (cmd_lattice_trace, "closed-form lattice trace (and oracle)", {
        "--lattice": (str, _REQUIRED, "lattice JSON file, or e8|e8x3|a1"),
        "--n": (int, _REQUIRED, "zero-mode power"),
        "--order": (int, 6, None), "--oracle": (bool, False, None)}),
    "transform-check": (cmd_transform_check, "check one modular transformation law", {
        "--function": (str, _REQUIRED, _LAW_IDS),
        "--gamma": (str, _REQUIRED, "a,b,c,d"),
        "--z": (str, "0.1+0.3i", None), "--tau": (str, "1.2i", None),
        "--tol": (float, 1e-10, None)}),
}


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree of ``_COMMANDS``, built once per process, by the first
    argv that ``_read_flags`` declines; its ``commands`` map each command name
    to that command's parser.

    Reuse is safe: ``parse_args`` leaves the parser unchanged and returns a
    fresh namespace, and argparse looks up ``sys.stdout`` and ``sys.stderr``
    only when it prints.
    """
    parser = _Parser(
        prog="torusmodes",
        description="Exact q-expansions, quasi-Jacobi special functions, and "
                    "zero-mode correlator reductions.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_)
        for argument, (type_, default, text) in arguments.items():
            if not argument.startswith("--"):
                p.add_argument(argument, choices=type_, help=text)
            elif type_ is bool:
                p.add_argument(argument, action="store_true", help=text)
            else:
                p.add_argument(argument, type=type_, default=default,
                               required=default is _REQUIRED, help=text)
    parser.commands = sub.choices
    return parser


def _read_flags(command: str, words):
    """The namespace ``build_parser().commands[command].parse_args(words)``
    returns, read from the command's ``_COMMANDS`` entry; None unless
    ``words`` is a run of full-spelled flags, each but a ``store_true``
    followed by one value word that does not start with "-" and converts by
    the flag's type, and gives every required argument (so a positional is
    left to argparse).  A repeated flag keeps its last value, as in argparse.
    """
    arguments = _COMMANDS[command][2]
    values = {}
    words = iter(words)
    for word in words:
        spec = arguments.get(word) if word.startswith("--") else None
        if spec is None:
            return None
        type_ = spec[0]
        if type_ is bool:  # store_true
            values[word] = True
            continue
        value = next(words, "-")  # a missing value is declined as a "-"-led one is
        if value.startswith("-"):
            return None
        try:
            values[word] = type_(value)
        except ValueError:
            return None
    namespace = argparse.Namespace(command=command)
    for argument, (_, default, _) in arguments.items():
        value = values.get(argument, default)
        if value is _REQUIRED:
            return None
        setattr(namespace, argument[2:].replace("-", "_"), value)
    return namespace


def _parse_args(argv) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``.

    A command and then a well-formed run of flags (see ``_read_flags``) is
    read from ``_COMMANDS``, and no parser is built.  Any other words after a
    command (``-h``, ``--flag=value``, an abbreviated flag, a missing or
    "-"-led value, a failed conversion, a missing required argument, a
    positional) go to the command's own parser, as the top-level parser would
    hand them on unchanged (its subparsers action takes ``nargs=PARSER``).
    Any other argv (empty, ``--help``, ``--``, an unknown command) goes to the
    top-level parser.  Help and refusals stay argparse's own.
    """
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = _read_flags(command, argv[1:]) if command else None
    if args is not None:
        return args
    parser = build_parser()
    if command is None:
        return parser.parse_args(argv)
    return parser.commands[command].parse_args(argv[1:], argparse.Namespace(command=command))


def main(argv=None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
        for flag, value in vars(args).items():
            if isinstance(value, list):  # argparse reads --flag=-- as an empty list
                raise UsageError(f"--{flag.replace('_', '-')} expected one argument, got '--'")
        return _COMMANDS[args.command][0](args)
    except SystemExit:  # --help; argparse's errors raise UsageError instead
        return 0
    except UnsupportedError as exc:
        print(f"unsupported: {exc.args[0]}", file=sys.stderr)
        return 3
    except (hha.CancellationError, hha.WeightBookkeepingError) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    except (UsageError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
