"""Symbolic engine for torus correlators with zero modes.

An :class:`HHASpec` lists a finite set of generators with their torus-grading
weights and a structure table for the nonnegative square-bracket products

    a[m] b = sum_l  c * L[-1]**k a^l            (m >= 0, k fixed by homogeneity)

closed inside the span of L[-1]-descendants of the generators, checked once
to be a vertex algebra; that the zero modes of all generators commute is
verified from the table.  On top of the spec the module implements:

* the one-step recursion eliminating the first vertex-operator insertion of
  a mixed correlator, and the general step for zero modes in operator order
  as a reference that collects its terms in the same commuting symbols,
* full reduction of mixed correlators to zero-mode correlators,
* the triangular inversion expressing zero-mode correlators through full
  correlators, and
* the modular anomaly of zero-mode correlators: full correlators are
  weight-graded modularly invariant atoms, all anomalies come from the
  coefficient functions' law exp(B D), so the anomaly of zero-mode
  correlators is exp(B N) for one linear map N, the pair contraction
  through the [1]-product (Zhu 1996, section 4).

Correlator symbols are kept in a normal form in which identity insertions
are dropped and a lone insertion of an L[-1]-descendant annihilates the
trace; states are always expanded onto the (L-power, generator) basis.
Each spec memoizes, by symbol shape (zero modes plus the (L-power, generator)
of each insertion) and for the life of the spec, the commuting recursion step
and the full reduction to zero-mode correlators (that step with each term
reduced through its own shape's entry), both at positions 1..n; reductions,
the peel and the anomaly read these memos and relabel them onto their
positions.  The square actions of a step's d-states are memoized on the spec
too, so a step shares them with every other shape, and its layer coefficients,
which read no table, once per process.  The spec also memoizes N of each
sorted zero-mode multiset.
The public entry points (invert_to_full, peel_zero_modes, reduce_to_zero_modes,
anomaly_of_zero_modes) run with the cyclic GC paused.
"""

from __future__ import annotations

import re
from collections import Counter
from fractions import Fraction
from functools import cache, partial
from itertools import combinations, count, product
from math import comb, factorial, floor, perm

from .combinatorics import descent_count, recursion_coefficient
from .scaled import ScaledRational, _gc_paused, as_fraction, format_fraction
from .symbols import (_MOVES, CoeffPoly, ONE, P, UnsupportedError, add_products,
                      p_layer_coefficient)


class HHAError(ValueError):
    pass


class ClosureError(HHAError):
    """A structure-table product lands outside the declared span."""


class CancellationError(HHAError):
    """The pi*i residuals of the P_1 splitting failed to cancel."""


class WeightBookkeepingError(HHAError):
    """A recursion tail broke the conservation of coefficient + symbol weight."""


class AxiomError(HHAError):
    """The structure table breaks skew-symmetry or the commutator formula (it is
    not a vertex algebra), or its grades fit no rescaling (see _check_grades)."""


# ---------------------------------------------------------------------------
# states: {(L-power, generator): ScaledRational}, zero coefficients dropped
# ---------------------------------------------------------------------------

def basis(gen: str, dpow: int = 0) -> dict:
    """The state L[-1]**dpow a^gen."""
    return {(dpow, gen): ScaledRational(1)}


# ---------------------------------------------------------------------------
# the algebra specification
# ---------------------------------------------------------------------------

_REQUIRED = object()
_JSON_TYPE_NAMES = {int: "an integer", float: "a decimal number", str: "a string", list: "a list"}


def _json_field(obj, key, at, *kinds, default=_REQUIRED):
    """obj[key] of one of the JSON types ``kinds`` (a boolean is not an
    integer, and a float is not truncated); an HHAError names the field."""
    if type(obj) is not dict:
        raise HHAError(f"{at} must be a JSON object, got {obj!r}")
    value = obj.get(key, default)
    if value is _REQUIRED:
        raise HHAError(f'{at} has no "{key}"')
    if type(value) not in kinds:
        *others, last = [_JSON_TYPE_NAMES[k] for k in kinds]
        want = f"{', '.join(others)} or {last}" if others else last
        raise HHAError(f"{at}.{key} must be {want}, got {value!r}")
    return value


def _json_rational(obj, key, at) -> Fraction:
    value = _json_field(obj, key, at, int, float, str)
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError, OverflowError):
        raise HHAError(f"{at}.{key} must be a finite rational number, got {value!r}") from None


class HHASpec:
    """Generators with weights plus the square-bracket structure table.

    ``table`` maps (a, b, m) to a tuple of (coefficient, L-power, generator)
    triples; absent keys mean the product vanishes.  Homogeneity
    w(a) - m - 1 + w(b) = k + w(target) is enforced for every entry, and no
    generator weight may be negative.
    """

    identity = "1"

    def __init__(self, weights, table):
        # an integral weight is kept as an int, as ScaledRational keeps its value,
        # so that the engine's weight checks add ints
        self.weights = {}
        for name, w in weights.items():
            w = as_fraction(w)
            # a[m]b has weight wt a + wt b - m - 1, so with no negative weight it
            # vanishes above the bounds that _check_axioms loops to
            if w < 0:
                raise HHAError(f"generator {name!r} has negative weight {format_fraction(w)}")
            self.weights[name] = w.numerator if w.denominator == 1 else w
        if self.weights.setdefault(self.identity, 0) != 0:
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
        _check_axioms(self)
        for a, b, m in sorted(self.table):  # [o(a), o(b)] = o(a[0]b), and o(L[-1] v) = 0
            if m == 0 and not all(dpow for _, dpow, _ in self.action(a, b, 0)):
                raise UnsupportedError(f"{a}[0]{b} has a term without L[-1]: the zero modes of "
                                       f"{a} and {b} do not commute, which is not implemented")
        _check_grades(self)
        # plain dicts: a scaled.Memo closing over the spec would make a reference cycle.
        # reduce_once and reduce_to_zero_modes results by canonical shape;
        # valid because the table is fixed from here on
        self.shape_memo = {}
        self.zero_mode_memo = {}
        # the square actions those steps read (see _square_actions)
        self.action_memo = {}
        # N of each sorted zero-mode multiset (see contraction_n)
        self.anomaly_memo = {}

    def action(self, a: str, b: str, m: int):
        if a == self.identity or b == self.identity:
            return ()
        return self.table.get((a, b, m), ())

    # JSON wire format:
    # {generators:[{name, weight}], structure:[{i, j, m, out:[{coeff, tpi, gen, dpow}]}]}.
    # A "commuting" key may only be true, and an "identity" key only "1".
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
        return {"generators": gens, "structure": struct}

    @classmethod
    def from_json(cls, data) -> "HHASpec":
        if type(data) is not dict:
            raise HHAError(f"spec must be a JSON object, got {data!r}")
        commuting = data.get("commuting", True)
        if not isinstance(commuting, bool):
            raise HHAError(f'"commuting" must be true or false, got {commuting!r}')
        if not commuting:
            raise UnsupportedError('"commuting": false: the reduction of non-commuting '
                                   'zero modes to zero-mode correlators is not implemented')
        weights = {}
        for n, e in enumerate(_json_field(data, "generators", "spec", list)):
            at = f"spec.generators[{n}]"
            name = _json_field(e, "name", at, str)
            if name in weights:
                raise HHAError(f"{at}.name {name!r} names an earlier generator again")
            weights[name] = _json_rational(e, "weight", at)
        table = {}
        for n, e in enumerate(_json_field(data, "structure", "spec", list)):
            at = f"spec.structure[{n}]"
            outs = []
            for k, o in enumerate(_json_field(e, "out", at, list)):
                out_at = f"{at}.out[{k}]"
                coeff = ScaledRational(_json_rational(o, "coeff", out_at),
                                       _json_field(o, "tpi", out_at, int, default=0))
                dpow = _json_field(o, "dpow", out_at, int, default=0)
                if dpow < 0:
                    raise HHAError(f"{out_at}.dpow must be >= 0, got {dpow}")
                outs.append((coeff, dpow, _json_field(o, "gen", out_at, str)))
            key = (_json_field(e, "i", at, str), _json_field(e, "j", at, str),
                   _json_field(e, "m", at, int))
            if key in table:
                raise HHAError(f"{at} repeats the entry (i, j, m) = {key} of an earlier one")
            table[key] = tuple(outs)
        identity = data.get("identity", cls.identity)
        if identity != cls.identity:
            raise HHAError(f'spec.identity must be "{cls.identity}", got {identity!r}')
        return cls(weights, table)


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

def square_action(spec: HHASpec, b: dict, m: int, a: dict) -> dict:
    """b[m] a normalized onto the span basis.

    L[-1]-powers on b lower the mode with falling-factorial signs,
    (L[-1]**l c)[m] = (-1)**l m(m-1)...(m-l+1) c[m-l]; L[-1]-powers on a are
    commuted out with a[m'](L[-1]**n b) = sum_k C(m',k) k! C(n,k)
    L[-1]**(n-k) a[m'-k] b; then the structure table applies.  L[-1]
    annihilates the vacuum, so L[-1]**k 1 with k >= 1 is the zero state and
    never kept.
    """
    if m < 0:
        raise HHAError("square_action covers m >= 0 only")
    out = {}
    for (lb, gb), cb in b.items():
        ff = perm(m, lb)
        if not ff:
            continue
        sgn_ff = (-1) ** lb * ff
        mp = m - lb
        for (la, ga), ca in a.items():
            base = cb * ca
            for k in range(0, min(mp, la) + 1):
                c2 = comb(mp, k) * factorial(k) * comb(la, k)
                if not c2:
                    continue
                for cs, dp, target in spec.action(gb, ga, mp - k):
                    key = (la - k + dp, target)
                    if key[0] and target == spec.identity:
                        continue
                    c = base * cs * (sgn_ff * c2)
                    if key in out:
                        c = out[key] + c
                    if c:
                        out[key] = c
                    else:
                        out.pop(key, None)
    return out


def d_state(spec: HHASpec, modes, a: dict) -> dict:
    """d-state: (-1)**s  b^{u_1}[0] b^{u_2}[0] ... b^{u_s}[0] a, applied right to left."""
    d = a
    for gen in reversed(modes):
        d = square_action(spec, basis(gen), 0, d)
        if not d:
            return {}
    if len(modes) % 2:
        d = {key: -c for key, c in d.items()}
    return d


def _check_axioms(spec: HHASpec):
    """Refuse a structure table that is not a vertex algebra: on generators a,
    b, c and modes m, n >= 0, the two identities of a Lie conformal algebra
    (Kac, "Vertex Algebras for Beginners", 2nd ed.) must hold,

        skew-symmetry   b[n]a = sum_j (-1)**(n+j+1) L[-1]**j/j! a[n+j]b,
        commutator      a[m](b[n]c) - b[n](a[m]c) = sum_j C(m,j) (a[j]b)[m+n-j]c.

    By homogeneity a[m]b vanishes for m > wt a + wt b - 1, and both sides of the
    commutator formula for m + n > wt a + wt b + wt c - 2.  The table bounds the
    modes too.  With M = ``max_m`` and R = M + the table's largest L-power, a
    generator's a[n]b vanishes for n > M, a[m](L[-1]**k t) for m > M + k and
    (L[-1]**k t)[m]c for m > M + k (see square_action).  So both sides of
    skew-symmetry vanish for n > M; a[m](b[n]c) needs n <= M and m <= R,
    b[n](a[m]c) needs m <= M and n <= R, and the j-th term on the right needs
    j <= min(m, M) and m + n - j <= R, so all three vanish for n > R or
    m > R + M.  The loops stop at these bounds, so a high-weight generator costs
    no more than its table, and the first failing tuple is the same.  A j-sum
    runs over the modes j of the table's a[j]b entries alone, and a product
    x[k]y of two generators is made once per check, when first needed.  An
    AxiomError names the first (a, b, n) or (a, b, c, m, n) at which an
    identity fails or two grades of the table meet in one sum."""
    e = {g_: basis(g_) for g_ in sorted(spec.weights) if g_ != spec.identity}
    act, wt, max_m = partial(square_action, spec), spec.weights, spec.max_m
    reach = max_m + max((d for outs in spec.table.values() for _, d, _ in outs), default=0)
    prod = cache(lambda x, k, y: act(e[x], k, e[y]))  # x[k]y of two generators
    for a, b in product(e, repeat=2):
        top = min(floor(wt[a] + wt[b] - 1), max_m)
        ab = [k for k in range(max_m + 1) if spec.action(a, b, k)]
        for n in range(top + 1):
            # L[-1]**j/j! a[n+j]b, with L[-1]**j 1 = 0 for j >= 1 as in square_action
            _assert_identity("skew-symmetry", (a, b, n), lambda: (
                prod(b, n, a),
                _combine((Fraction((-1) ** (n + j + 1), factorial(j)), {
                    (l + j, t): c for (l, t), c in prod(a, n + j, b).items()
                    if not (j and t == spec.identity)})
                    for j in [k - n for k in ab if n <= k <= top])))
    for a, b, c in product(e, repeat=3):
        top = floor(wt[a] + wt[b] + wt[c] - 2)
        ab = [k for k in range(max_m + 1) if spec.action(a, b, k)]
        for m in range(min(top, reach + max_m) + 1):
            for n in range(min(top - m, reach) + 1):
                _assert_identity("the commutator formula", (a, b, c, m, n), lambda: (
                    _combine(((1, act(e[a], m, prod(b, n, c))),
                              (-1, act(e[b], n, prod(a, m, c))))),
                    _combine((comb(m, j), act(prod(a, j, b), m + n - j, e[c]))
                             for j in ab if j <= m)))


def _check_grades(spec: HHASpec):
    """Refuse a table whose grades fit no rescaling a -> (2*pi*i)**g(a) a with
    g(identity) = 0: each entry a[m]b -> (2*pi*i)**tpi L[-1]**dpow t asks
    g(a) + g(b) - g(t) = tpi + m + 1 + dpow.  Eliminating in table order, an
    AxiomError names the first entry that contradicts the ones before it."""
    rows = []  # (pivot, {generator: coefficient}, right side); later rows lack each pivot
    for (a, b, m), outs in sorted(spec.table.items()):
        for coeff, dpow, t in outs:
            eq, rhs = Counter((a, b)), Fraction(coeff.tpi + m + 1 + dpow)
            eq[t] -= 1
            eq[spec.identity] = 0
            for pivot, row, value in rows:
                k = eq[pivot]
                eq.subtract({g_: k * c for g_, c in row.items()})
                rhs -= k * value
            eq = {g_: c for g_, c in eq.items() if c}
            if eq:
                pivot, k = next(iter(eq.items()))
                rows.append((pivot, {g_: Fraction(c) / k for g_, c in eq.items()}, rhs / k))
            elif rhs:
                raise AxiomError(f"grades fit no rescaling of the generators: {a}[{m}]{b} -> "
                                 f"(2*pi*i)^{coeff.tpi} L^{dpow} {t} contradicts earlier entries")


def _assert_identity(name: str, at: tuple, sides):
    """An AxiomError naming the (a, b, n) or (a, b, c, m, n) tuple ``at``
    unless the two states that ``sides()`` makes are equal; two grades met in
    one sum while they are made (see ScaledRational.grade_error) fail it too."""
    names = "(a, b, n)" if len(at) == 3 else "(a, b, c, m, n)"
    try:
        lhs, rhs = sides()
    except ValueError as err:
        raise AxiomError(f"not a vertex algebra: {name} fails at {names} = {at}: {err}") from None
    if lhs != rhs:
        raise AxiomError(f"not a vertex algebra: {name} fails at {names} = {at}")


def _combine(terms) -> dict:
    """The state sum of scale * state over the (scale, state) pairs ``terms``."""
    out = {}
    for scale, state in terms:
        for key, c in state.items():
            c = out[key] + c * scale if key in out else c * scale
            if c:
                out[key] = c
            else:
                del out[key]
    return out


# ---------------------------------------------------------------------------
# correlator symbols and expressions
# ---------------------------------------------------------------------------

class CorrSymbol:
    """Normal-form correlator symbol: zero-mode content plus basis insertions.

    ``modes`` is the sorted tuple of the commuting zero modes' generator
    names; ``insertions`` is a tuple of (position, L-power, generator),
    ascending in position.
    """

    __slots__ = ("modes", "insertions", "_hash")

    def __init__(self, modes, insertions=()):
        modes = tuple(sorted(modes))
        insertions = tuple(sorted(insertions))
        positions = [p for p, _, _ in insertions]
        if len(set(positions)) != len(positions):
            raise HHAError(f"duplicate insertion positions: {positions}")
        self.modes = modes
        self.insertions = insertions
        self._hash = hash((modes, insertions))

    @classmethod
    def _of_sorted(cls, modes: tuple, insertions: tuple) -> "CorrSymbol":
        """Wrap sorted modes and insertions at distinct ascending positions as is."""
        obj = object.__new__(cls)
        obj.modes = modes
        obj.insertions = insertions
        obj._hash = hash((modes, insertions))
        return obj

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if not isinstance(other, CorrSymbol):
            return NotImplemented
        return self.modes == other.modes and self.insertions == other.insertions

    def weight(self, spec: HHASpec) -> int | Fraction:
        w = sum(spec.weights[g_] for g_ in self.modes)
        for _, dpow, g_ in self.insertions:
            w += dpow + spec.weights[g_]
        return w

    def positions(self):
        return [p for p, _, _ in self.insertions]

    def mode_counts(self) -> dict:
        """generator -> its number of zero modes, in name order."""
        counts = {}
        for g_ in self.modes:
            counts[g_] = counts.get(g_, 0) + 1
        return counts

    def __repr__(self):
        parts = []
        if self.modes:
            parts.append(" ".join(f"{g_}0^{c}" if c > 1 else f"{g_}0"
                                  for g_, c in self.mode_counts().items()))
        ins = ",".join(
            f"(L{d}.{g_},{p})" if d else f"({g_},{p})" for p, d, g_ in self.insertions)
        if ins:
            parts.append(ins)
        return "F(" + ";".join(parts) + ")"


class CorrExpression:
    """Formal sum of coefficient-polynomial times correlator-symbol terms.

    An expression owns its polynomials: it stores a copy of each one it is
    given and accumulates into that copy in place, so no caller's polynomial
    (the global ONE included) is ever changed.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for sym, poly in terms.items():
                if poly:
                    self.terms[sym] = poly.copy()

    @classmethod
    def single(cls, sym: CorrSymbol) -> "CorrExpression":
        return cls({sym: ONE})

    def add_term(self, sym: CorrSymbol, poly: CoeffPoly):
        cur = self.terms.get(sym)
        if cur is None:
            if poly:
                self.terms[sym] = poly.copy()
        elif not cur.iadd(poly):
            del self.terms[sym]

    def __eq__(self, other):
        if not isinstance(other, CorrExpression):
            return NotImplemented
        return self.terms == other.terms

    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: repr(kv[0]))


def _sub_multisets(counts: dict):
    """All sub-multisets of a generator multiset with binomial multiplicities,
    the count taken of the first generator (in name order) varying fastest."""
    gens = sorted(counts, reverse=True)
    for takes in product(*(range(counts[gen] + 1) for gen in gens)):
        sel, mult = (), 1
        for gen, take in zip(gens, takes):
            sel = (gen,) * take + sel
            mult *= comb(counts[gen], take)
        yield sel, mult


def _m_bound(spec: HHASpec, d: dict, target_dpow: int) -> int:
    if not d:
        return -1
    max_l = max(l for l, _ in d)
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
    return _map_shapes(spec, expr.terms.items(), _shape_step)


def _map_shapes(spec: HHASpec, terms, shape_terms) -> CorrExpression:
    """Each (symbol, polynomial) term with insertions replaced by
    ``shape_terms(spec, modes, shape)``, its shape's canonical result at
    positions 1..n, relabeled onto the symbol's positions and multiplied by
    the polynomial (see :func:`_add_relabeled`); terms without insertions pass
    through."""
    out = CorrExpression()
    into = lambda _: out.terms
    for sym, poly in terms:
        if sym.insertions:
            _add_relabeled(poly.rows(), shape_terms(spec, sym.modes, _shape(sym)),
                           (None,) + tuple(sym.positions()), into)
        else:
            out.add_term(sym, poly)
    return out


def _add_relabeled(rows, step, label, into):
    """Add ``rows``, a polynomial's kernel rows, times each (symbol,
    polynomial) term of ``step`` relabeled onto the positions label[p], into
    the relabeled symbol's polynomial in the dict ``into(symbol)``: made if
    the symbol has none, dropped once it cancels.  The rows are read once and
    multiply every term with no more monomials in one kernel call, each factor
    relabeled through the label's move map; a larger term is read as
    relabeled rows itself, with the rows as its entries."""
    moves = _MOVES[label]
    entries, targets = [], []
    for tsym, tpoly in step:
        tsym = _relabel_symbol(tsym, label)
        terms = into(tsym)
        poly = terms.get(tsym)
        if poly is None:
            poly = terms[tsym] = CoeffPoly()
        dest = poly.terms
        targets.append((terms, tsym, dest))
        if len(tpoly.terms) > len(rows):
            add_products(_moved_rows(tpoly, moves),
                         [(dest, tuple(zip(m, keys)), v, t) for m, keys, v, t in rows])
        else:
            entries += [(dest, tuple([moves[p] for p in m]), c.value, c.tpi)
                        for m, c in tpoly.terms.items()]
    add_products(rows, entries)
    for terms, tsym, dest in targets:
        if not dest:
            del terms[tsym]


def _moved_rows(poly: CoeffPoly, moves) -> list:
    """``poly.rows()`` with every factor relabeled through the move map ``moves``."""
    move = moves.__getitem__
    return [(*zip(*map(move, m)), c.value, c.tpi) if m else ((), (), c.value, c.tpi)
            for m, c in poly.terms.items()]


def _shape(sym: CorrSymbol) -> tuple:
    return tuple((d, g_) for _, d, g_ in sym.insertions)


def _shape_step(spec: HHASpec, modes, shape) -> tuple:
    """reduce_once of one shape at positions 1..n, from the spec's memo."""
    key = (modes, shape)
    canon = spec.shape_memo.get(key)
    if canon is None:
        canon = spec.shape_memo[key] = _reduce_shape(spec, modes, shape)
    return canon


def _reduce_shape(spec: HHASpec, modes, shape) -> tuple:
    """reduce_once of F(modes; shape at positions 1..n) with coefficient ONE, as term pairs:
    the head first, then the tails of each sub-multiset of the zero modes as
    :func:`_add_tails` writes them, each checked against the head's weight.

    Its square actions come from a memo that every shape of the spec shares,
    its layer coefficients from the process cache of :func:`_layer_coefficient`;
    a canonical step's first insertion sits at position 1."""
    sym = CorrSymbol(modes, tuple((p, d, g_) for p, (d, g_) in enumerate(shape, 1)))
    (_, d1, g1), rest = sym.insertions[0], sym.insertions[1:]
    out = CorrExpression.single(CorrSymbol(modes + (g1,), rest)) if d1 == 0 else CorrExpression()
    if not rest:
        return tuple(out.terms.items())
    W = sym.weight(spec)
    for s_gens, mult in _sub_multisets(sym.mode_counts()):
        remaining = list(modes)
        for g_ in s_gens:
            remaining.remove(g_)
        layer = lambda m, pj: _layer_coefficient(len(s_gens), m, pj, mult)
        _add_tails(spec, s_gens, (d1, g1), rest, tuple(remaining), layer, out, W)
    return tuple(out.terms.items())


def _add_tails(spec: HHASpec, s_gens, first, rest, modes, layer, out: CorrExpression, W=None):
    """Add to ``out``, in turn for every other insertion (p_j, a^j), every
    m >= 0 and every state c L[-1]**l b of d[m] a^j, the recursion tail
    layer(m, p_j) * c F(modes; the others, L[-1]**l b at p_j), for d the
    d-state of ``s_gens`` on ``first`` = (L-power, generator).  Normal form:
    an identity insertion is dropped, and a lone L[-1]-descendant kills its
    term.  Given the head weight W, a coefficient monomial whose weight is not
    W less the symbol's weight raises WeightBookkeepingError."""
    for pj, dj, gj in rest:
        other = tuple(ins for ins in rest if ins[0] != pj)
        for m, st in _square_actions(spec, s_gens, first, (dj, gj)):
            coeff = layer(m, pj)
            for (dpow, gen), c in st.items():
                ins = other if gen == spec.identity else other + ((pj, dpow, gen),)
                if len(ins) == 1 and ins[0][1]:
                    continue  # o(L[-1] b) = 0 under the trace
                sym, term = CorrSymbol(modes, ins), coeff * c
                if W is not None:
                    want = W - sym.weight(spec)
                    for w in term.monomial_weights().values():
                        if w != want:
                            raise WeightBookkeepingError(
                                f"weight bookkeeping violated: {sym!r} with coefficient "
                                f"weight {w} against head weight {W}")
                out.add_term(sym, term)


def _square_actions(spec: HHASpec, s_gens, first, target) -> tuple:
    """The (m, d[m] target) pairs with a nonzero state, for the d-state d of
    ``s_gens`` on ``first`` and ``target`` = (L-power, generator), from the spec's memo."""
    key = (s_gens, first, target)
    acts = spec.action_memo.get(key)
    if acts is None:
        (d1, g1), (dj, gj) = first, target
        d = d_state(spec, s_gens, basis(g1, d1))
        acts = spec.action_memo[key] = tuple(
            (m, st) for m in range(_m_bound(spec, d, dj) + 1)
            if (st := square_action(spec, d, m, basis(gj, dj))))
    return acts


@cache
def _layer_coefficient(s_len: int, m: int, pj: int, mult: int) -> CoeffPoly:
    """p_layer_coefficient(s_len, m, pj, 1) * mult, the coefficient of a tail
    of a step whose first insertion sits at position 1; it reads no table, so
    it is made once per process."""
    return p_layer_coefficient(s_len, m, pj, 1) * mult


def _relabel_symbol(sym: CorrSymbol, label) -> CorrSymbol:
    """``sym`` at positions label[p]: an increasing label keeps the insertions
    sorted and their positions distinct, so nothing is re-sorted or checked."""
    return CorrSymbol._of_sorted(
        sym.modes, tuple([(label[p], d, g_) for p, d, g_ in sym.insertions]))


def reduce_once_ordered(spec: HHASpec, modes, insertions) -> CorrExpression:
    """One elimination step of the general recursion on F(modes; insertions),
    with the zero modes ``modes`` in operator order.

    For each proper subtuple s of the zero-mode tuple and each permutation u
    of the complement, the tail coefficient on g^t_{m+1} is

        (2*pi*i)**(u-t) * sum_i binom(u-des-1, i) s(i+des+1, t) / (i+des+1)!

    with des the descent count of u; the full-tuple layer carries the
    depth-zero coefficients g^0_{m+1} with the plain product a^1[m] a^j.
    The terms are collected in commuting symbols by :func:`_add_tails`, the
    writer of the commuting step, so the result is directly comparable with
    :func:`reduce_once`: this general step is the reference the commuting one
    collapses onto.  Individual t-layers are weight-inhomogeneous; only the
    Eulerian-weighted collapse restores termwise homogeneity, so the writer
    gets no head weight here.
    """
    from itertools import permutations

    modes = tuple(modes)
    (p1, d1, g1), *rest = sorted(insertions)
    out = CorrExpression.single(CorrSymbol((g1,) + modes, rest)) if d1 == 0 else CorrExpression()
    if not rest:
        return out
    indices = range(len(modes))
    for kept_mask in range(1 << len(modes)):
        kept_modes = tuple(modes[i] for i in indices if kept_mask >> i & 1)
        comp = tuple(i for i in indices if not kept_mask >> i & 1)
        for u in permutations(comp):  # s = full tuple: the one empty permutation
            des = descent_count(u)
            layer = lambda m, pj: _ordered_layer(len(u), des, m, pj, p1)
            _add_tails(spec, tuple(modes[i] for i in u), (d1, g1), rest, kept_modes, layer, out)
    return out


def _ordered_layer(u: int, des: int, m: int, pj: int, p1: int) -> CoeffPoly:
    """One ordered tail layer: sum_t (2*pi*i)**(u-t) rc(u, des, t) g^t_{m+1}(zeta_j/zeta_1),
    or the depth-zero g^0_{m+1} when u = 0."""
    if not u:
        return p_layer_coefficient(0, m, pj, p1)
    layer = CoeffPoly()
    for t in range(1, u + 1):
        rc = recursion_coefficient(u, des, t)
        if rc:
            layer = layer + p_layer_coefficient(t, m, pj, p1) * ScaledRational(rc, u - t)
    return layer


@_gc_paused
def reduce_to_zero_modes(spec: HHASpec, expr: CorrExpression) -> CorrExpression:
    """Reduce every term through its shape's memo entry; assert pi*i cancellation."""
    return _assert_cancelled(_map_shapes(spec, expr.terms.items(), _shape_zero_modes))


def _shape_zero_modes(spec: HHASpec, modes, shape) -> tuple:
    """reduce_to_zero_modes of one shape at positions 1..n, from the spec's memo:
    one step, then every term of that step through its own shape's entry."""
    key = (modes, shape)
    canon = spec.zero_mode_memo.get(key)
    if canon is None:
        step = _shape_step(spec, modes, shape)
        if any(len(sym.insertions) >= len(shape) for sym, _ in step):
            raise HHAError("reduction failed to terminate: insertion count did not decrease")
        canon = spec.zero_mode_memo[key] = tuple(_assert_cancelled(
            _map_shapes(spec, step, _shape_zero_modes)).terms.items())
    return canon


def _assert_cancelled(expr: CorrExpression) -> CorrExpression:
    for sym, poly in expr.terms.items():
        if poly.mentions("pi"):
            raise CancellationError(
                f"pi*i residual failed to cancel on {sym!r}: {poly!r}")
    return expr


# ---------------------------------------------------------------------------
# inversion and anomalies
# ---------------------------------------------------------------------------

@_gc_paused
def invert_to_full(spec: HHASpec, gens) -> CorrExpression:
    """Express F(a_0^{gens}) through full correlators, by peeling zero modes.

    Each peel rewrites the zero mode of largest name as a fresh insertion at
    the largest unreferenced position of 1..s (s = len(gens)) below the
    term's current insertions and subtracts the recursion tails of that
    expansion; the map is unit triangular in the number of insertions, so the
    loop terminates with full correlators only.
    """
    return peel_zero_modes(spec, CorrExpression.single(CorrSymbol(gens, ())))


@_gc_paused
def peel_zero_modes(spec: HHASpec, expr: CorrExpression) -> CorrExpression:
    """Peel every zero mode of every term into fresh insertions (see invert_to_full).

    The fresh positions are 1..s, for s the largest number of zero modes of
    any term of ``expr``; a term with no free candidate below its lowest
    insertion raises HHAError.  ``expr`` is copied once, and the peel owns
    every polynomial after that: a head takes over its term's polynomial, and
    finished correlators stay in one dict for every round.  Each step reads a
    term's polynomial once, as rows with the positions it uses, and adds the
    rows, negated once, times every tail of the shape's step (see
    :func:`_add_relabeled`): F(head) = F(sym) + tails gives
    F(sym) = F(head) - tails.
    """
    todo, done = {}, {}
    for sym, poly in expr.terms.items():
        if poly:
            (todo if sym.modes else done)[sym] = poly.copy()
    positions = range(1, max((len(sym.modes) for sym in todo), default=0) + 1)
    into = lambda sym: nxt if sym.modes else done
    while todo:
        nxt = {}
        for sym, poly in todo.items():
            b = sym.modes[-1]
            rows, used = poly.rows_and_positions()
            used.update(sym.positions())
            floor = min(sym.positions(), default=positions.stop)
            fresh = max((p for p in positions if p < floor and p not in used), default=None)
            if fresh is None:
                raise HHAError(f"no fresh position available for peeling {sym!r}")
            step = _shape_step(spec, sym.modes[:-1], ((0, b),) + _shape(sym))
            label = (None, fresh) + tuple(sym.positions())
            if not step or _relabel_symbol(step[0][0], label) != sym or step[0][1] != ONE:
                raise HHAError(f"peel head mismatch for {sym!r}")
            # fresh sits below every insertion, so the head's insertions stay sorted
            head = CorrSymbol._of_sorted(sym.modes[:-1], ((fresh, 0, b),) + sym.insertions)
            terms = into(head)
            cur = terms.get(head)
            if cur is None:
                terms[head] = poly
            elif not cur.iadd(poly):
                del terms[head]
            _add_relabeled([(m, keys, -v, t) for m, keys, v, t in rows], step[1:], label, into)
        todo = nxt
    out = CorrExpression()
    out.terms = done
    return out


def weight1_configuration_formula(n: int, s: int) -> CorrExpression:
    """Direct enumeration of the weight-1 pairing sum.

    Index set: n full indices at positions s+1..s+n, s zero indices at
    positions 1..s (where the inversion inserts the peeled fields).  A
    configuration is a set of unordered index pairs, each containing at
    least one zero index, together with the unpaired rest U; it contributes
    F_0(U) times the product over pairs of -<a,a> P_2 / (2*pi*i)**2 at <a,a> = 1.
    """
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
                    coeff * P(2, partner, first) * ScaledRational(-1, -2))

    rec(indices, (), ONE)
    return out


@_gc_paused
def anomaly_of_zero_modes(spec: HHASpec, gens) -> list[tuple[int, dict]]:
    """Modular anomaly of F(a_0^{gens}) as B-graded zero-mode correlator sums.

    The anomaly is exp(B N) - 1 for the linear map N of :func:`contraction_n`,
    so the B^k part is N^k F(a_0^{gens}) / k!, built as N of the B^(k-1) part
    divided by k.  Each N lowers the zero-mode weight by 2, and no engine step
    raises the number of zero modes plus insertions, so the powers vanish.
    """
    graded = []
    part = {CorrSymbol(gens, ()): ScaledRational(1)}
    for k in count(1):
        nxt = {}
        for sym, c in part.items():
            for tsym, tc in contraction_n(spec, sym.modes):
                nxt[tsym] = nxt.get(tsym, 0) + c * tc
        part = {sym: c * Fraction(1, k) for sym, c in nxt.items() if c}
        if not part:
            return graded
        graded.append((k, part))


def contraction_n(spec: HHASpec, modes) -> tuple:
    """N F(b_1 ... b_s), the B^1 part of the anomaly of that zero-mode
    correlator, as the pair contraction through the [1]-product,

        N F(b_1 ... b_s) = sum_{i<j} F(the b's with b_i, b_j replaced by o(b_i[1] b_j)),

    the B^1 part of Zhu's recursion for zero modes (Zhu 1996, section 4), as
    (symbol, constant) pairs, from the spec's memo of the sorted multiset.
    Each pair reads the spec's (b_i, b_j, 1) entry with the modes sorted;
    o(1) = 1, so an identity target drops the pair, and o(L[-1]**k v) = 0 for
    k >= 1.  The spec's homogeneity makes every term 2 lower in zero-mode weight.
    """
    modes = tuple(sorted(modes))
    canon = spec.anomaly_memo.get(modes)
    if canon is None:
        out = {}
        for i, j in combinations(range(len(modes)), 2):
            rest = modes[:i] + modes[i + 1:j] + modes[j + 1:]
            for coeff, dpow, target in spec.action(modes[i], modes[j], 1):
                if dpow:
                    continue
                sym = CorrSymbol(rest if target == spec.identity else rest + (target,))
                out[sym] = out.get(sym, 0) + coeff
        canon = spec.anomaly_memo[modes] = tuple((sym, c) for sym, c in out.items() if c)
    return canon


# ---------------------------------------------------------------------------
# parsing of correlator strings for the CLI
# ---------------------------------------------------------------------------

_CORR_TOKEN = re.compile(r"([A-Za-z_]\w*?)0(?:\^(\d+))?$")


# zero modes one correlator string or lattice trace may hold; the cost grows
# steeply with their number (weight-2 inversion at 7 already gives 1059 terms)
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
