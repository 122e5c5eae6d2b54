"""Symbolic engine for torus correlators with zero modes.

An :class:`HHASpec` lists a finite set of generators with their torus-grading
weights and a structure table for the nonnegative square-bracket products

    a[m] b = sum_l  c * L[-1]**k a^l            (m >= 0, k fixed by homogeneity)

closed inside the span of L[-1]-descendants of the generators; the zero
modes of all generators commute (declared, not verified).  On top of the
spec the module implements:

* the one-step recursion eliminating the first vertex-operator insertion of
  a mixed correlator (commuting and ordered zero-mode variants),
* full reduction of mixed correlators to zero-mode correlators,
* the triangular inversion expressing zero-mode correlators through full
  correlators, and
* propagation of the modular anomaly of zero-mode correlators through that
  inversion: full correlators are weight-graded modularly invariant atoms,
  all anomalies come from the tabulated coefficient functions.

Correlator symbols are kept in a normal form in which identity insertions
are dropped and a lone insertion of an L[-1]-descendant annihilates the
trace; states are always expanded onto the (L-power, generator) basis.
Each spec memoizes the commuting recursion step by symbol shape (zero modes
plus the (L-power, generator) of each insertion), for the life of the spec.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import comb, factorial

from .combinatorics import descent_count, recursion_coefficient
from .scaled import ScaledRational, as_fraction, format_fraction
from .symbols import (CoeffPoly, ONE, P, UnsupportedError, delta_transform,
                      p_layer_coefficient)


class HHAError(ValueError):
    pass


class ClosureError(HHAError):
    """A structure-table product lands outside the declared span."""


class CancellationError(HHAError):
    """The pi*i residuals of the P_1 splitting failed to cancel."""


class ResidueError(HHAError):
    """An anomaly computation left position- or function-symbol residue."""


class WeightBookkeepingError(HHAError):
    """A recursion tail broke the conservation of coefficient + symbol weight."""


def _falling(m: int, l: int) -> int:
    out = 1
    for j in range(l):
        out *= m - j
    return out


# ---------------------------------------------------------------------------
# states
# ---------------------------------------------------------------------------

class State:
    """Linear combination of basis states L[-1]**k a^gen with exact coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for key, c in terms.items():
                if c:
                    self.terms[key] = c

    @classmethod
    def basis(cls, gen: str, dpow: int = 0) -> "State":
        return cls({(dpow, gen): ScaledRational(1)})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def add_term(self, dpow, gen, coeff):
        key = (dpow, gen)
        cur = self.terms.get(key)
        new = coeff if cur is None else cur + coeff
        if new:
            self.terms[key] = new
        else:
            self.terms.pop(key, None)

    def scaled(self, c: ScaledRational) -> "State":
        if not c:
            return State()
        return State({k: v * c for k, v in self.terms.items()})

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"({c!r})*L^{k}[{g_}]" if k else f"({c!r})*[{g_}]"
                          for (k, g_), c in sorted(self.terms.items()))


# ---------------------------------------------------------------------------
# the algebra specification
# ---------------------------------------------------------------------------

class HHASpec:
    """Generators with weights plus the square-bracket structure table.

    ``table`` maps (a, b, m) to a tuple of (coefficient, L-power, generator)
    triples; absent keys mean the product vanishes.  Homogeneity
    w(a) - m - 1 + w(b) = k + w(target) is enforced for every entry.
    """

    def __init__(self, weights, table, identity: str = "1"):
        self.identity = identity
        self.weights = {name: as_fraction(w) for name, w in weights.items()}
        if identity not in self.weights:
            self.weights[identity] = Fraction(0)
        if self.weights[identity] != 0:
            raise HHAError("the identity must have weight 0")
        self.table = {}
        max_m = 0
        for (a, b, m), outs in table.items():
            if a not in self.weights or b not in self.weights:
                raise ClosureError(f"structure entry references unknown generator in {(a, b, m)}")
            if m < 0:
                raise HHAError("structure table covers square modes with m >= 0 only")
            cleaned = []
            for coeff, dpow, target in outs:
                if target not in self.weights:
                    raise ClosureError(f"structure target {target!r} not a generator")
                coeff = ScaledRational.of(coeff)
                if not coeff:
                    continue
                if target == identity and dpow > 0:
                    continue  # L[-1] annihilates the vacuum
                want = self.weights[a] - m - 1 + self.weights[b]
                have = dpow + self.weights[target]
                if want != have:
                    raise HHAError(
                        f"inhomogeneous entry {a}[{m}]{b} -> L^{dpow} {target}: "
                        f"weight {have}, expected {want}")
                cleaned.append((coeff, dpow, target))
            if cleaned:
                self.table[(a, b, m)] = tuple(cleaned)
                max_m = max(max_m, m)
        self.max_m = max_m
        # reduce_once results by canonical shape; valid because the table is
        # fixed from here on
        self.shape_memo = {}

    def weight_of(self, gen: str) -> Fraction:
        return self.weights[gen]

    def action(self, a: str, b: str, m: int):
        if a == self.identity or b == self.identity:
            return ()
        return self.table.get((a, b, m), ())

    def generators(self):
        return sorted(self.weights)

    # JSON wire format:
    # {generators:[{name, weight}], structure:[{i, j, m, out:[{coeff, tpi, gen, dpow}]}],
    #  identity}.  A "commuting" key may only be true: every spec's zero modes commute.
    def to_json(self) -> dict:
        gens = [{"name": n, "weight": format_fraction(w)}
                for n, w in sorted(self.weights.items())]
        struct = []
        for (a, b, m), outs in sorted(self.table.items()):
            struct.append({
                "i": a, "j": b, "m": m,
                "out": [{"coeff": format_fraction(c.value), "tpi": c.tpi,
                         "gen": t, "dpow": d} for c, d, t in outs],
            })
        return {"generators": gens, "structure": struct, "identity": self.identity}

    @classmethod
    def from_json(cls, data) -> "HHASpec":
        commuting = data.get("commuting", True)
        if not isinstance(commuting, bool):
            raise HHAError(f'"commuting" must be true or false, got {commuting!r}')
        if not commuting:
            raise UnsupportedError('"commuting": false: the reduction of non-commuting '
                                   'zero modes to zero-mode correlators is not implemented')
        weights = {e["name"]: Fraction(e["weight"]) for e in data["generators"]}
        table = {}
        for e in data["structure"]:
            outs = tuple(
                (ScaledRational(Fraction(o["coeff"]), int(o.get("tpi", 0))),
                 int(o.get("dpow", 0)), o["gen"])
                for o in e["out"])
            table[(e["i"], e["j"], int(e["m"]))] = outs
        return cls(weights, table, identity=data.get("identity", "1"))

    @classmethod
    def load(cls, path) -> "HHASpec":
        with open(path) as fh:
            return cls.from_json(json.load(fh))


def weight1_spec(pairing=1) -> HHASpec:
    """The weight-1 algebra {1, a}: a[1]a = <a,a>/(2*pi*i)**2 * 1, all else zero."""
    pairing = as_fraction(pairing)
    return HHASpec(
        {"1": 0, "a": 1},
        {("a", "a", 1): ((ScaledRational(pairing, -2), 0, "1"),)},
    )


def weight2_spec() -> HHASpec:
    """The weight-2 algebra {1, x} built on a unit-norm Heisenberg field:

        x[0]x = 2/(2*pi*i)**2 L[-1]x,  x[1]x = 4/(2*pi*i)**2 x,
        x[3]x = 2/(2*pi*i)**4 1,       all other m >= 0 vanish.
    """
    return HHASpec(
        {"1": 0, "x": 2},
        {
            ("x", "x", 0): ((ScaledRational(2, -2), 1, "x"),),
            ("x", "x", 1): ((ScaledRational(4, -2), 0, "x"),),
            ("x", "x", 3): ((ScaledRational(2, -4), 0, "1"),),
        },
    )


BUILTIN_SPECS = {"weight1": weight1_spec, "weight2": weight2_spec}


# ---------------------------------------------------------------------------
# mode actions
# ---------------------------------------------------------------------------

def square_action(spec: HHASpec, b: State, m: int, a: State) -> State:
    """b[m] a normalized onto the span basis.

    L[-1]-powers on b lower the mode with falling-factorial signs,
    (L[-1]**l c)[m] = (-1)**l m(m-1)...(m-l+1) c[m-l]; L[-1]-powers on a are
    commuted out with a[m'](L[-1]**n b) = sum_k C(m',k) k! C(n,k)
    L[-1]**(n-k) a[m'-k] b; then the structure table applies.
    """
    if m < 0:
        raise HHAError("square_action covers m >= 0 only")
    out = State()
    for (lb, gb), cb in b.terms.items():
        ff = _falling(m, lb)
        if not ff:
            continue
        sgn_ff = (-1) ** lb * ff
        mp = m - lb
        for (la, ga), ca in a.terms.items():
            base = cb * ca
            for k in range(0, min(mp, la) + 1):
                c2 = comb(mp, k) * factorial(k) * comb(la, k)
                if not c2:
                    continue
                for cs, dp, target in spec.action(gb, ga, mp - k):
                    out.add_term(la - k + dp, target, base * cs * (sgn_ff * c2))
    return out


def d_state(spec: HHASpec, modes, a: State) -> State:
    """d-state: (-1)**s  b^{u_1}[0] b^{u_2}[0] ... b^{u_s}[0] a, applied right to left."""
    d = a
    for gen in reversed(tuple(modes)):
        d = square_action(spec, State.basis(gen), 0, d)
        if not d:
            return State()
    if len(tuple(modes)) % 2:
        d = d.scaled(ScaledRational(-1))
    return d


def bracket_conversion(h, i: int, s: int) -> Fraction:
    """Coefficient c(h, i, s): [z**i] (1/s!) (log(1+z))**s (1+z)**(h-1)."""
    h = as_fraction(h)
    if i < 0 or s < 0:
        raise ValueError("need i, s >= 0")
    # log(1+z)**s / s! to order i
    logpow = [Fraction(0)] * (i + 1)
    logpow[0] = Fraction(1)
    log1p = [Fraction(0)] + [Fraction((-1) ** (n + 1), n) for n in range(1, i + 1)]
    for _ in range(s):
        new = [Fraction(0)] * (i + 1)
        for e1, c1 in enumerate(logpow):
            if not c1:
                continue
            for e2 in range(1, i + 1 - e1):
                new[e1 + e2] += c1 * log1p[e2]
        logpow = new
    total = Fraction(0)
    binom = Fraction(1)
    for n in range(0, i + 1):  # C(h-1, n) z**n
        if logpow[i - n]:
            total += logpow[i - n] * binom
        binom *= (h - 1 - n)
        binom /= (n + 1)
    return total / factorial(s)


# ---------------------------------------------------------------------------
# correlator symbols and expressions
# ---------------------------------------------------------------------------

class CorrSymbol:
    """Normal-form correlator symbol: zero-mode content plus basis insertions.

    ``modes`` is a tuple of generator names, sorted when the zero modes
    commute and kept in operator order otherwise; ``insertions`` is a tuple
    of (position, L-power, generator), ascending in position.
    """

    __slots__ = ("modes", "insertions", "ordered", "_hash")

    def __init__(self, modes, insertions=(), ordered=False):
        modes = tuple(modes)
        if not ordered:
            modes = tuple(sorted(modes))
        insertions = tuple(sorted(insertions))
        positions = [p for p, _, _ in insertions]
        if len(set(positions)) != len(positions):
            raise HHAError(f"duplicate insertion positions: {positions}")
        self.modes = modes
        self.insertions = insertions
        self.ordered = ordered
        self._hash = hash((modes, insertions, ordered))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if not isinstance(other, CorrSymbol):
            return NotImplemented
        return (self.modes, self.insertions, self.ordered) == \
               (other.modes, other.insertions, other.ordered)

    def weight(self, spec: HHASpec) -> Fraction:
        w = sum((spec.weight_of(g_) for g_ in self.modes), Fraction(0))
        for _, dpow, g_ in self.insertions:
            w += dpow + spec.weight_of(g_)
        return w

    def kind(self) -> str:
        if not self.insertions:
            return "zero-mode"
        if not self.modes:
            return "full"
        return "mixed"

    def positions(self):
        return [p for p, _, _ in self.insertions]

    def __repr__(self):
        parts = []
        if self.modes:
            if self.ordered:
                parts.append(" ".join(f"{g_}0" for g_ in self.modes))
            else:
                counts = {}
                for g_ in self.modes:
                    counts[g_] = counts.get(g_, 0) + 1
                parts.append(" ".join(f"{g_}0^{c}" if c > 1 else f"{g_}0"
                                      for g_, c in sorted(counts.items())))
        ins = ",".join(
            f"(L{d}.{g_},{p})" if d else f"({g_},{p})" for p, d, g_ in self.insertions)
        if ins:
            parts.append(ins)
        return "F(" + ";".join(parts) + ")"


class CorrExpression:
    """Formal sum of coefficient-polynomial times correlator-symbol terms."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for sym, poly in terms.items():
                if poly:
                    self.terms[sym] = poly

    @classmethod
    def single(cls, sym: CorrSymbol, poly: CoeffPoly = ONE) -> "CorrExpression":
        return cls({sym: poly})

    def add_term(self, sym: CorrSymbol, poly: CoeffPoly):
        cur = self.terms.get(sym)
        new = poly if cur is None else cur + poly
        if new:
            self.terms[sym] = new
        else:
            self.terms.pop(sym, None)

    def __add__(self, other):
        out = CorrExpression(dict(self.terms))
        for sym, poly in other.terms.items():
            out.add_term(sym, poly)
        return out

    def __sub__(self, other):
        out = CorrExpression(dict(self.terms))
        for sym, poly in other.terms.items():
            out.add_term(sym, -poly)
        return out

    def __neg__(self):
        return CorrExpression({s: -p for s, p in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, CorrExpression):
            return NotImplemented
        return self.terms == other.terms

    def is_zero(self) -> bool:
        return not self.terms

    def max_insertions(self) -> int:
        return max((len(s.insertions) for s in self.terms), default=0)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: repr(kv[0]))

    def __repr__(self):
        if not self.terms:
            return "0"
        return "\n+ ".join(f"[{poly!r}] * {sym!r}" for sym, poly in self.sorted_terms())

    def to_json(self):
        return [{"symbol": repr(sym), "coeff": poly.to_json()}
                for sym, poly in self.sorted_terms()]


def attach_insertion(spec: HHASpec, modes, base_insertions, pos: int, state: State,
                     coeff: CoeffPoly, ordered=False) -> CorrExpression:
    """Multilinear expansion of one symbol with a state inserted at ``pos``.

    Applies the normal form: identity insertions are dropped; a lone
    insertion of an L[-1]-descendant kills the term (its zero mode
    vanishes inside the graded trace).
    """
    out = CorrExpression()
    for (dpow, gen), c in state.terms.items():
        term_coeff = coeff * c
        if gen == spec.identity:
            if dpow > 0:
                continue  # L[-1] vacuum descendant is the zero state
            ins = tuple(base_insertions)
        else:
            ins = tuple(base_insertions) + ((pos, dpow, gen),)
        if len(ins) == 1 and ins[0][1] > 0:
            continue  # o(L[-1] b) = 0 under the trace
        out.add_term(CorrSymbol(modes, ins, ordered), term_coeff)
    return out


def _sub_multisets(counts: dict):
    """All sub-multisets of a generator multiset with binomial multiplicities."""
    gens = sorted(counts)

    def rec(idx):
        if idx == len(gens):
            yield (), 1
            return
        gen = gens[idx]
        for rest, mult in rec(idx + 1):
            for take in range(counts[gen] + 1):
                yield (gen,) * take + rest, mult * comb(counts[gen], take)

    for sel, mult in rec(0):
        yield tuple(sorted(sel)), mult


def _m_bound(spec: HHASpec, d: State, target_dpow: int) -> int:
    if not d:
        return -1
    max_l = max(l for l, _ in d.terms)
    return max_l + target_dpow + spec.max_m


# ---------------------------------------------------------------------------
# the recursion
# ---------------------------------------------------------------------------

def reduce_once(spec: HHASpec, expr: CorrExpression) -> CorrExpression:
    """One elimination step of the commuting recursion on every mixed term.

    The lowest-position insertion a^1 of each term is removed: the head
    appends its zero mode, and for every other insertion j, sub-multiset S
    of the zero modes and m >= 0 a tail

        g^{|S|}_{m+1}(zeta_j / zeta_1) F(modes - S; ..., d^S(a^1)[m] a^j, ...)

    is produced.  The depth-zero m = 0 layer enters as P~_1 minus the pi*i
    marker; the markers cancel once reduction reaches zero-mode level.

    The step depends on the insertion positions only through their order, so
    each shape is reduced once at positions 1..n (see :func:`_reduce_shape`)
    and relabeled onto the positions of every later symbol of that shape.
    """
    out = CorrExpression()
    for sym, poly in expr.terms.items():
        if sym.ordered:
            raise HHAError("ordered symbols require reduce_once_ordered")
        if not sym.insertions:
            out.add_term(sym, poly)
            continue
        key = (sym.modes, tuple((d, g_) for _, d, g_ in sym.insertions))
        canon = spec.shape_memo.get(key)
        if canon is None:
            canon = spec.shape_memo[key] = _reduce_shape(spec, *key)
        label = (None,) + tuple(sym.positions())
        for tsym, tpoly in canon:
            out.add_term(_relabel_symbol(tsym, label), poly * _relabel_poly(tpoly, label))
    return out


def _reduce_shape(spec: HHASpec, modes, shape) -> tuple:
    """reduce_once of F(modes; shape at positions 1..n) with coefficient ONE, as term pairs."""
    sym = CorrSymbol(modes, tuple((p, d, g_) for p, (d, g_) in enumerate(shape, 1)))
    (p1, d1, g1), rest = sym.insertions[0], sym.insertions[1:]
    out = CorrExpression()
    if d1 == 0:
        out.add_term(CorrSymbol(modes + (g1,), rest), ONE)
    if not rest:
        return tuple(out.terms.items())
    W = sym.weight(spec)
    counts = {}
    for g_ in modes:
        counts[g_] = counts.get(g_, 0) + 1
    first = State.basis(g1, d1)
    for s_gens, mult in _sub_multisets(counts):
        d = d_state(spec, s_gens, first)
        if not d:
            continue
        remaining = list(modes)
        for g_ in s_gens:
            remaining.remove(g_)
        for pj, dj, gj in rest:
            other = [ins for ins in rest if ins[0] != pj]
            for m in range(0, _m_bound(spec, d, dj) + 1):
                st = square_action(spec, d, m, State.basis(gj, dj))
                if not st:
                    continue
                layer = p_layer_coefficient(len(s_gens), m, pj, p1)
                tail = attach_insertion(spec, tuple(remaining), other, pj, st, layer * mult)
                _assert_tail_weight(spec, tail, W)
                for tsym, tpoly in tail.terms.items():
                    out.add_term(tsym, tpoly)
    return tuple(out.terms.items())


def _assert_tail_weight(spec, tail: CorrExpression, W):
    """Tail grading bookkeeping: coefficient weight + symbol weight is conserved."""
    for sym, poly in tail.terms.items():
        for w in poly.monomial_weights().values():
            if w + sym.weight(spec) != W:
                raise WeightBookkeepingError(
                    f"weight bookkeeping violated: {sym!r} with coefficient weight "
                    f"{w} against head weight {W}")


# position-carrying coefficient symbols: the slice of the symbol tuple holding positions
_POSITION_SLOTS = {"P": slice(2, 4), "Pt": slice(1, 3), "g": slice(3, 5), "z": slice(1, 2)}


def _relabel_symbol(sym: CorrSymbol, label) -> CorrSymbol:
    return CorrSymbol(sym.modes, tuple((label[p], d, g_) for p, d, g_ in sym.insertions))


def _relabel_poly(poly: CoeffPoly, label) -> CoeffPoly:
    """Map position i to label[i] in every coefficient symbol.

    ``label`` is increasing, so every hi > lo orientation and the monomial
    order are kept: no sign changes and nothing is re-sorted.
    """
    terms = {}
    for mono, c in poly.terms.items():
        moved = []
        for s, e in mono:
            slots = _POSITION_SLOTS.get(s[0])
            if slots is not None:
                s = s[:slots.start] + tuple(label[p] for p in s[slots]) + s[slots.stop:]
            moved.append((s, e))
        terms[tuple(moved)] = c
    return CoeffPoly._of_terms(terms)


def reduce_once_ordered(spec: HHASpec, expr: CorrExpression) -> CorrExpression:
    """One elimination step of the general (ordered zero-mode) recursion.

    For each proper subtuple s of the zero-mode tuple and each permutation u
    of the complement, the tail coefficient on g^t_{m+1} is

        (2*pi*i)**(u-t) * sum_i binom(u-des-1, i) s(i+des+1, t) / (i+des+1)!

    with des the descent count of u; the full-tuple layer carries the
    depth-zero coefficients g^0_{m+1} with the plain product a^1[m] a^j.
    Individual t-layers are weight-inhomogeneous; only the Eulerian-weighted
    collapse restores termwise homogeneity, so no grading is asserted here.
    """
    from itertools import permutations

    out = CorrExpression()
    for sym, poly in expr.terms.items():
        if not sym.insertions:
            out.add_term(sym, poly)
            continue
        modes = sym.modes
        r = len(modes)
        (p1, d1, g1), rest = sym.insertions[0], sym.insertions[1:]
        if d1 == 0:
            head = CorrSymbol((g1,) + modes, rest, ordered=True)
            out.add_term(head, poly)
        if not rest:
            continue
        first = State.basis(g1, d1)
        indices = tuple(range(r))
        for kept_mask in range(1 << r):
            kept = tuple(i for i in indices if kept_mask >> i & 1)
            comp = tuple(i for i in indices if not kept_mask >> i & 1)
            kept_modes = tuple(modes[i] for i in kept)
            if not comp:
                # s = full tuple: the depth-zero layer
                for pj, dj, gj in rest:
                    other = [ins for ins in rest if ins[0] != pj]
                    for m in range(0, _m_bound(spec, first, dj) + 1):
                        st = square_action(spec, first, m, State.basis(gj, dj))
                        if not st:
                            continue
                        layer = p_layer_coefficient(0, m, pj, p1)
                        tail = attach_insertion(spec, kept_modes, other, pj, st,
                                                poly * layer, ordered=True)
                        for tsym, tpoly in tail.terms.items():
                            out.add_term(tsym, tpoly)
                continue
            for perm in permutations(comp):
                u = len(perm)
                des = descent_count(perm)
                d = d_state(spec, tuple(modes[i] for i in perm), first)
                if not d:
                    continue
                for pj, dj, gj in rest:
                    other = [ins for ins in rest if ins[0] != pj]
                    for m in range(0, _m_bound(spec, d, dj) + 1):
                        st = square_action(spec, d, m, State.basis(gj, dj))
                        if not st:
                            continue
                        layer = CoeffPoly.zero()
                        for t in range(1, u + 1):
                            rc = recursion_coefficient(u, des, t)
                            if rc:
                                layer = layer + p_layer_coefficient(t, m, pj, p1) * \
                                    ScaledRational(rc, u - t)
                        tail = attach_insertion(spec, kept_modes, other, pj, st,
                                                poly * layer, ordered=True)
                        for tsym, tpoly in tail.terms.items():
                            out.add_term(tsym, tpoly)
    return out


def to_commuting(expr: CorrExpression) -> CorrExpression:
    """Forget zero-mode ordering (valid when the spec's zero modes commute)."""
    out = CorrExpression()
    for sym, poly in expr.terms.items():
        out.add_term(CorrSymbol(sym.modes, sym.insertions, ordered=False), poly)
    return out


def reduce_to_zero_modes(spec: HHASpec, expr: CorrExpression) -> CorrExpression:
    """Iterate reduce_once until no insertions remain; assert pi*i cancellation."""
    guard = expr.max_insertions()
    cur = expr
    passes = 0
    while cur.max_insertions() > 0:
        cur = reduce_once(spec, cur)
        passes += 1
        if passes > guard:
            raise HHAError("reduction failed to terminate: insertion count did not decrease")
    for sym, poly in cur.terms.items():
        for mono in poly.terms:
            if any(s == ("pi",) for s, _ in mono):
                raise CancellationError(
                    f"pi*i residual failed to cancel on {sym!r}: {poly!r}")
    return cur


# ---------------------------------------------------------------------------
# inversion and anomalies
# ---------------------------------------------------------------------------

def _referenced_positions(sym: CorrSymbol, poly: CoeffPoly):
    used = set(sym.positions())
    for mono in poly.terms:
        for s, _ in mono:
            slots = _POSITION_SLOTS.get(s[0])
            if slots is not None:
                used.update(s[slots])
    return used


def invert_to_full(spec: HHASpec, gens, positions=None, steps=None) -> CorrExpression:
    """Express F(a_0^{gens}) through full correlators, by peeling zero modes.

    Each peel rewrites the zero mode of largest name as a fresh insertion at
    the largest unreferenced position below the term's current insertions
    and subtracts the recursion tails of that expansion; the map is unit
    triangular in the number of insertions, so the loop terminates with
    full correlators only.  ``steps`` caps the number of peel rounds (used
    to inspect intermediate states).
    """
    gens = tuple(sorted(gens))
    if positions is None:
        positions = list(range(1, len(gens) + 1))
    if len(positions) < len(gens):
        raise HHAError("position pool smaller than the number of zero modes")
    return peel_zero_modes(spec, CorrExpression.single(CorrSymbol(gens, ())),
                           positions, steps=steps)


def peel_zero_modes(spec: HHASpec, expr: CorrExpression, positions,
                    steps=None) -> CorrExpression:
    """Peel every zero mode of every term into fresh insertions (see invert_to_full)."""
    rounds = 0
    while True:
        moded = [(s, p) for s, p in expr.terms.items() if s.modes]
        if not moded or (steps is not None and rounds >= steps):
            return expr
        out = CorrExpression()
        for sym, poly in expr.terms.items():
            if not sym.modes:
                out.add_term(sym, poly)
                continue
            b = sym.modes[-1]
            used = _referenced_positions(sym, poly)
            floor = min(sym.positions(), default=max(positions) + 1)
            fresh = max((p for p in positions if p < floor and p not in used), default=None)
            if fresh is None:
                raise HHAError(f"no fresh position available for peeling {sym!r}")
            target = CorrSymbol(sym.modes[:-1], sym.insertions + ((fresh, 0, b),))
            expansion = reduce_once(spec, CorrExpression.single(target))
            if sym not in expansion.terms or not (expansion.terms[sym] - ONE).is_zero():
                raise HHAError(f"peel head mismatch for {sym!r}")
            tails = CorrExpression(
                {s: p for s, p in expansion.terms.items() if s != sym})
            replacement = CorrExpression.single(target) - tails
            for s, p in replacement.terms.items():
                out.add_term(s, p * poly)
        expr = out
        rounds += 1


def weight1_configuration_formula(n: int, s: int, pairing=1) -> CorrExpression:
    """Direct enumeration of the weight-1 pairing sum.

    Index set: n full indices at positions s+1..s+n, s zero indices at
    positions 1..s (where the inversion inserts the peeled fields).  A
    configuration is a set of unordered index pairs, each containing at
    least one zero index, together with the unpaired rest U; it contributes
    F_0(U) times the product over pairs of -<a,a> P_2 / (2*pi*i)**2.
    """
    pairing = as_fraction(pairing)
    indices = tuple(range(1, s + n + 1))
    out = CorrExpression()

    def rec(remaining, unpaired, coeff):
        if not remaining:
            out.add_term(CorrSymbol((), tuple((p, 0, "a") for p in unpaired)), coeff)
            return
        first, rest = remaining[0], remaining[1:]
        rec(rest, unpaired + (first,), coeff)
        for idx, partner in enumerate(rest):
            if first <= s or partner <= s:
                rec(rest[:idx] + rest[idx + 1:], unpaired,
                    coeff * P(2, partner, first) * ScaledRational(-pairing, -2))

    rec(indices, (), ONE)
    return out


def anomaly_of_zero_modes(spec: HHASpec, gens) -> list[tuple[int, dict]]:
    """Modular anomaly of F(a_0^{gens}) as B-graded zero-mode correlator sums.

    The zero-mode correlator is expanded through full correlators, which are
    modularly invariant atoms of their weight; the anomaly of every
    coefficient follows from the tabulated table via the product rule, and
    the resulting full correlators are rewritten back into zero-mode
    correlators.  The result must be free of position and function symbols.
    """
    full = invert_to_full(spec, gens)
    delta_expr = CorrExpression()
    for sym, poly in full.terms.items():
        dpoly = delta_transform(poly)
        if dpoly:
            delta_expr.add_term(sym, dpoly)

    result = CorrExpression()
    for sym, poly in delta_expr.terms.items():
        if sym.insertions:
            red = reduce_to_zero_modes(spec, CorrExpression.single(sym))
            for s, p in red.terms.items():
                result.add_term(s, p * poly)
        else:
            result.add_term(sym, poly)

    graded: dict[int, dict] = {}
    for sym, poly in result.terms.items():
        for mono, c in poly.terms.items():
            bad = [s for s_e in mono for s in [s_e[0]] if s[0] == "z"]
            if bad:
                raise ResidueError(
                    f"anomaly left z-dependence on {sym!r}: {poly!r}")
            try:
                grading = CoeffPoly({mono: c}).pure_b_grading()
            except ValueError:
                raise ResidueError(
                    f"anomaly left function symbols on {sym!r}: {poly!r}") from None
            for k, coeff in grading.items():
                if k == 0:
                    raise ResidueError(
                        f"anomaly produced an ungraded (B^0) term on {sym!r}")
                bucket = graded.setdefault(k, {})
                bucket[sym] = bucket.get(sym, ScaledRational()) + coeff
    out = []
    for k in sorted(graded):
        clean = {s: c for s, c in graded[k].items() if c}
        if clean:
            out.append((k, clean))
    return out


# ---------------------------------------------------------------------------
# parsing of correlator strings for the CLI
# ---------------------------------------------------------------------------

_CORR_TOKEN = re.compile(r"([A-Za-z_]\w*?)0(?:\^(\d+))?$")


# zero modes one correlator string may hold; the engine's cost grows steeply
# with their number (weight-2 inversion at 7 already gives 1059 terms)
MAX_ZERO_MODES = 16


def parse_zero_mode_correlator(text: str) -> tuple[str, ...]:
    """Parse strings like "x0^3" or "a0 a0" into a generator multiset.

    A string with more than MAX_ZERO_MODES zero modes is rejected before the
    multiset is built.
    """
    factors: list[tuple[str, int]] = []
    for token in re.split(r"[\s*]+", text.strip()):
        if not token:
            continue
        m = _CORR_TOKEN.match(token)
        if not m:
            raise ValueError(f"cannot parse zero-mode factor {token!r}")
        factors.append((m.group(1), int(m.group(2) or 1)))
    count = sum(n for _, n in factors)
    if not count:
        raise ValueError(f"no zero modes in correlator string {text!r}")
    if count > MAX_ZERO_MODES:
        raise ValueError(f"{text!r} has {count} zero modes; at most {MAX_ZERO_MODES} are supported")
    return tuple(gen for gen, n in factors for _ in range(n))
