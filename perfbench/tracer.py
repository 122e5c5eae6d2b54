"""Spans around the public functions of each torusmodes module.

The tracer wraps functions from outside the program: each traced function is
replaced at every module binding that holds it (``lattice`` binds
``eta_power``, ``numerics`` binds ``p_expansion``, and so on), so calls
between modules are seen too.  Methods are wrapped on their class.  Spans
(name, start, end, parent, operation id) stay in memory and are written out
at the end; a span's self time is its duration minus its child spans.

The untraced run never imports this module.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array

# layer -> public functions traced in it.  ``scaled`` is too fine-grained to
# wrap; its cost shows up in its callers' self time.
TRACED = {
    "combinatorics": ("c_polynomial",),
    "qseries": ("eta_power", "eisenstein", "QExpansion.power", "QExpansion.invert_unit"),
    "ratfunc": ("ZetaRational.from_poly",),
    "elliptic": ("p_expansion", "g_expansion", "BivariateExpansion.eval_numeric"),
    "numerics": ("verify_modular", "function_value", "g_value", "wp_value",
                 "eisenstein_lattice_value"),
    "symbols": ("delta_transform",),
    "hha": ("reduce_once", "peel_zero_modes", "reduce_to_zero_modes", "invert_to_full",
            "anomaly_of_zero_modes"),
    "lattice": ("enumerate_vectors", "theta_moment", "theta_series", "quasimod_rhs",
                "fock_trace_oracle", "trace_value", "chi_weight1"),
    "verify": ("run_suite",),
    "cli": ("main",),
}

# functions whose distinct-argument share is reported: distinct bound
# arguments over calls
DISTINCT = ("lattice.enumerate_vectors", "qseries.eta_power", "elliptic.p_expansion",
            "elliptic.g_expansion")


def span_names():
    return [f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns]


class Tracer:
    def __init__(self):
        self.names = span_names()
        self.name_ix = array("H")
        self.parent = array("l")
        self.op = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.op_id = -1
        self.extra: dict[str, float] = {}
        self.distinct: dict[str, set] = {name: set() for name in DISTINCT}
        self._undo = []

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, ix: int, fn):
        name = self.names[ix]
        name_ix, parent, op, start, end, stack = (self.name_ix, self.parent, self.op,
                                                  self.start, self.end, self.stack)
        after = self._after_hook(name, fn)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(start)
            name_ix.append(ix)
            parent.append(stack[-1])
            op.append(self.op_id)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _after_hook(self, name, fn):
        """Counters taken at the same boundary as the span."""
        hooks = []
        if name in self.distinct:
            sig = inspect.signature(fn)
            seen = self.distinct[name]

            def key(args, kwargs, out):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                seen.add(tuple(bound.arguments.values()))
            hooks.append(key)
        if name == "lattice.enumerate_vectors":
            def vectors(args, kwargs, out):
                self._count(name + ".vectors", sum(len(s.vectors) for s in out))
            hooks.append(vectors)
        if name == "hha.reduce_once":
            def terms(args, kwargs, out):
                expr = args[1] if len(args) > 1 else kwargs["expr"]
                self._count(name + ".terms_in", len(expr.terms))
                self._count(name + ".terms_out", len(out.terms))
            hooks.append(terms)
        if not hooks:
            return None

        def after(args, kwargs, out):
            for hook in hooks:
                hook(args, kwargs, out)
        return after

    def _count(self, key, n):
        self.extra[key] = self.extra.get(key, 0) + n

    def install(self):
        """Replace every traced function at every torusmodes binding."""
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "torusmodes" or n.startswith("torusmodes."))]
        for ix, name in enumerate(self.names):
            layer, _, attr = name.partition(".")
            mod = sys.modules[f"torusmodes.{layer}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(ix, raw.__func__))
                else:
                    new = self._wrap(ix, raw)
                setattr(cls, meth, new)
                self._undo.append((cls, meth, raw))
                continue
            orig = getattr(mod, attr)
            wrapped = self._wrap(ix, orig)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapped)
                        self._undo.append((m, key, orig))

    def uninstall(self):
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()

    # -- results -----------------------------------------------------------

    def self_times(self):
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        return [self.end[i] - self.start[i] - child[i] for i in range(n)]

    def summary(self) -> dict:
        """calls and self_s per traced function, plus the boundary counters."""
        out = {}
        for name in self.names:
            out[f"{name}.calls"] = 0
            out[f"{name}.self_s"] = 0.0
        top_self = 0.0
        for i, s in enumerate(self.self_times()):
            name = self.names[self.name_ix[i]]
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += s
            if self.parent[i] < 0:
                top_self += s
        for key in ("lattice.enumerate_vectors.vectors", "hha.reduce_once.terms_in",
                    "hha.reduce_once.terms_out"):
            out[key] = self.extra.get(key, 0)
        for name, seen in self.distinct.items():
            calls = out[f"{name}.calls"]
            out[f"{name}.distinct_ratio"] = len(seen) / calls if calls else 0.0
        out["spans"] = len(self.start)
        out["top_level_self_s"] = top_self
        return out

    def write(self, path):
        """Spans as tab-separated name, start, end, parent, operation id."""
        with open(path, "w") as fh:
            fh.write("name\tstart\tend\tparent\top\n")
            for i in range(len(self.start)):
                fh.write(f"{self.names[self.name_ix[i]]}\t{self.start[i]!r}\t"
                         f"{self.end[i]!r}\t{self.parent[i]}\t{self.op[i]}\n")
