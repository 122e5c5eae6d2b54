"""Coefficient ring for correlator expressions, with the modular-anomaly calculus.

Polynomials over Q*(2*pi*i)**Z in the formal symbols

    G_{2k},  P_k(zeta_h/zeta_l),  P~_1(zeta_h/zeta_l),  g^i_j(zeta_h/zeta_l),
    B = 2*pi*i*c/(c*tau+d),  z_a,  and the pi*i residual marker

with a fixed symbol order (G < P < P~ < g < B < z < pi) and sorted monomials,
so symbolic equality of reduced correlator expressions is decidable.  A
monomial is a tuple of (symbol, exponent) pairs in that order, with no bound
on the exponents.  The engine (hha) reads no monomial: it relabels and
inspects polynomials through CoeffPoly's methods, and reads a constant as the
coefficient of the empty monomial; numerics.poly_value evaluates the
monomials of ``terms`` one by one.

Every product goes through one kernel, ``add_products``: its multiplicand is
``rows()``, one row per monomial with the sort keys of the monomial's
symbols, so a polynomial multiplied by many others is read once, and its
other operand is a list of entries, each a monomial's factors with their keys
and a coefficient aimed at a destination polynomial, so one call multiplies
the rows by terms bound for many polynomials.  Every factor is placed into a
row by bisection on its keys.  ``CoeffPoly.__mul__`` runs the kernel on the
rows of the operand with more terms (the left one on a tie), with every entry
of the other aimed at the product.

The anomaly Delta f = (c*tau+d)**-w f(gamma.) - f is exp(B D) f - f for the
derivation D of ``derive``, which ``derive_poly`` extends to polynomials;
``delta_transform`` sums the finite series sum_{k>=1} B**k D**k f / k! in
order of k.

P_1 itself is never stored: it enters reductions as P~_1 minus the pi*i
marker, whose final cancellation is a theorem the engine asserts.
"""

from __future__ import annotations

import bisect
from fractions import Fraction
from functools import cache, partial
from typing import Callable, NamedTuple

from .scaled import Memo, ScaledRational


class UnsupportedError(Exception):
    """Valid input that needs mathematics the engine does not have yet."""


class DeltaUnknownError(UnsupportedError, KeyError):
    """Anomaly requested where D does not reach: P_1, and g^i_j with j <= i."""


class _Kind(NamedTuple):
    rank: int  # symbols sort by kind rank, then by their arguments
    weight: Callable[[tuple], int]
    text: str  # a str.format template over the symbol's arguments
    slots: slice | None  # the slice of the symbol tuple holding positions


# the symbol kinds, in sort order
_KINDS = {
    "G": _Kind(0, lambda s: s[1], "G_{}", None),
    "P": _Kind(1, lambda s: s[1], "P_{}({}/{})", slice(2, 4)),
    "Pt": _Kind(2, lambda s: 1, "P~1({}/{})", slice(1, 3)),
    "g": _Kind(3, lambda s: s[1] + s[2], "g^{}_{}({}/{})", slice(3, 5)),
    "B": _Kind(4, lambda s: 2, "B", None),
    "z": _Kind(5, lambda s: -1, "z_{}", slice(1, 2)),
    # slot weight: the marker stands in the weight-1 slot vacated by P~_1
    "pi": _Kind(6, lambda s: 1, "piRes", None),
}


def _kind(sym) -> _Kind:
    """The kind of ``sym``; a symbol of no kind raises KeyError("unknown symbol ...")."""
    try:
        return _KINDS[sym[0]]
    except KeyError:
        raise KeyError(f"unknown symbol {sym!r}") from None


def sym_weight(sym) -> int:
    return _kind(sym).weight(sym)


def sym_str(sym) -> str:
    return _kind(sym).text.format(*sym[1:])


# symbol -> its sort key: kind rank, then the symbol's arguments
_sym_key = Memo(lambda sym: (_kind(sym).rank,) + tuple(sym[1:])).__getitem__

# kind rank -> the slice of a symbol, or of its sort key, that holds positions
_SLOTS_BY_RANK = tuple(kind.slots for kind in sorted(_KINDS.values(), key=lambda k: k.rank))

# (symbol, exponent) -> the symbol's sort key with the exponent appended.  The
# symbols of a kind have one number of arguments, so lists of these flat keys sort
# monomials as lists of (sort key, exponent) pairs do, with cheaper comparisons.
_pair_key = Memo(lambda pair: _sym_key(pair[0]) + (pair[1],)).__getitem__


def _move(label: tuple, pair):
    """(``pair`` with each position p of its symbol moved to label[p], the moved symbol's key)."""
    s = pair[0]
    slots = _kind(s).slots
    if slots is not None:
        s = s[:slots.start] + tuple(label[i] for i in s[slots]) + s[slots.stop:]
    return (s, pair[1]), _sym_key(s)


# label -> its map of pair -> _move(label, pair), kept for the life of the process
_MOVES = Memo(lambda label: Memo(partial(_move, label)))


def add_products(rows, entries) -> None:
    """The product kernel: add every row times every entry into the entry's
    destination, in place, dropping monomials that cancel.

    ``rows`` is ``a.rows()`` of a polynomial a, read once however many entries
    it is multiplied by.  An entry ``(terms, factors, value, grade)`` stands
    for the monomial ``factors`` with coefficient ScaledRational(value, grade):
    ``factors`` are its (symbol, exponent) pairs in ``_sym_key`` order, each
    paired with its symbol's key, and ``terms`` is the dict of the polynomial
    the products go to (not a's).  Entries may share a destination; one that
    cancels to empty is left empty, for the caller to drop.

    The kernel runs row by row.  The factor of a one-factor entry that lands
    past the last or before the first symbol of the row is spliced on with one
    concatenation.  Any other factor is placed by bisection on the row's keys:
    it bumps an equal symbol's exponent or is spliced in before the first
    larger symbol, with its key for the entry's next factor.  The coefficients
    are multiplied and summed as ScaledRational's operators do, on value and
    grade; a product whose monomial is new is stored as made, with one lookup,
    and a sum of two grades raises ScaledRational.grade_error.
    """
    place = bisect.bisect_left
    new, SR = object.__new__, ScaledRational
    # a one-factor entry as (terms, pair, key, value, grade), any other as
    # (terms, None, factors, value, grade)
    entries = [(t, *f[0], v, g) if len(f) == 1 else (t, None, f, v, g) for t, f, v, g in entries]
    for m1, keys, v1, t1 in rows:
        # () sorts before every key, so an empty row takes each factor at its end
        first, last = (keys[0], keys[-1]) if keys else ((), ())
        for terms, p, k, v2, t2 in entries:
            if p is not None:
                if k > last:
                    m = m1 + (p,)
                elif k < first:
                    m = (p,) + m1
                else:
                    i = place(keys, k)
                    m = [*m1]
                    if keys[i] == k:
                        m[i] = (p[0], m1[i][1] + p[1])
                    else:
                        m.insert(i, p)
                    m = tuple(m)
            else:
                m, ks, factors = [*m1], [*keys], k
                for p, k in factors:
                    i = place(ks, k)
                    if i < len(ks) and ks[i] == k:
                        m[i] = (p[0], m[i][1] + p[1])
                    else:
                        m.insert(i, p)
                        ks.insert(i, k)
                m = tuple(m)
            # one new coefficient per product, as ScaledRational._make builds
            # it (a product of nonzero values is nonzero); a collision
            # stores the sum in it rather than in a second object
            c = new(SR)
            v = v1 * v2
            c.value = v if v.__class__ is int or v.denominator != 1 else v.numerator
            c.tpi = t1 + t2
            cur = terms.setdefault(m, c)
            if cur is c:
                continue
            if cur.tpi != c.tpi:
                raise SR.grade_error(cur.tpi, c.tpi)
            if v := cur.value + c.value:
                c.value = v if v.__class__ is int or v.denominator != 1 else v.numerator
                terms[m] = c
            else:
                del terms[m]


class CoeffPoly:
    """Multivariate polynomial: map sorted monomial -> nonzero ScaledRational.

    A monomial is a tuple of (symbol, exponent) pairs in ``_sym_key`` order,
    with no bound on the exponents; ``terms`` is the dict itself.  ``rows()``
    is the same polynomial as the product kernel ``add_products`` reads it,
    and ``entries(terms)`` as the kernel's other operand.

    Each monomial's coefficient has one 2*pi*i grade; adding coefficients of
    different grades to the same monomial raises ValueError.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for mono, c in terms.items():
                c = ScaledRational.of(c)
                if c:
                    self.terms[mono] = c

    @classmethod
    def _of_terms(cls, terms: dict) -> "CoeffPoly":
        """Wrap a fresh dict of sorted monomials -> nonzero coefficients as is."""
        obj = object.__new__(cls)
        obj.terms = terms
        return obj

    @classmethod
    def scalar(cls, c) -> "CoeffPoly":
        return cls({(): ScaledRational.of(c)})

    @classmethod
    def symbol(cls, sym, coeff=1) -> "CoeffPoly":
        return cls({((sym, 1),): ScaledRational.of(coeff)})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, CoeffPoly):
            return NotImplemented
        return self.terms == other.terms

    def __neg__(self):
        return CoeffPoly._of_terms({m: -c for m, c in self.terms.items()})

    def copy(self) -> "CoeffPoly":
        return CoeffPoly._of_terms(dict(self.terms))

    def iadd(self, other: "CoeffPoly") -> "CoeffPoly":
        """Add ``other`` into this polynomial in place; returns self."""
        terms = self.terms
        for m, c in other.terms.items():
            cur = terms.get(m)
            if cur is None:
                terms[m] = c
                continue
            c = cur + c
            if c:
                terms[m] = c
            else:
                del terms[m]
        return self

    def __add__(self, other):
        if isinstance(other, (int, Fraction, ScaledRational)):
            other = CoeffPoly.scalar(other)
        return self.copy().iadd(other)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def rows(self) -> list:
        """The multiplicand form of the product kernel: one row per monomial,
        (monomial, the tuple of its symbols' ``_sym_key``s, value, grade)."""
        key = _sym_key
        return [(m, tuple([key(s) for s, _ in m]), c.value, c.tpi) for m, c in self.terms.items()]

    def rows_and_positions(self) -> tuple:
        """``rows()`` and the positions of every coefficient symbol the
        polynomial holds, from one pass over the monomials: the positions are
        read off the distinct keys of the rows."""
        rows, used = self.rows(), set()
        for k in set().union(*[keys for _, keys, _, _ in rows]):
            slots = _SLOTS_BY_RANK[k[0]]
            if slots is not None:
                used.update(k[slots])
        return rows, used

    def entries(self, terms: dict) -> list:
        """The product kernel's entries of this polynomial, aimed at ``terms``."""
        key = _sym_key
        return [(terms, tuple([(p, key(p[0])) for p in m]), c.value, c.tpi)
                for m, c in self.terms.items()]

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, ScaledRational)):
            if not other:
                return CoeffPoly()
            return CoeffPoly._of_terms({m: c * other for m, c in self.terms.items()})
        a, b = (other, self) if len(self.terms) < len(other.terms) else (self, other)
        out = CoeffPoly()
        add_products(a.rows(), b.entries(out.terms))
        return out

    __rmul__ = __mul__

    def mentions(self, kind: str) -> bool:
        """Whether some monomial holds a symbol of ``kind`` ("z", "pi", ...)."""
        return any(s[0] == kind for mono in self.terms for s, _ in mono)

    def monomial_weights(self):
        return {m: sum(e * sym_weight(s) for s, e in m) for m in self.terms}

    def sorted_terms(self):
        key = _pair_key
        return sorted(self.terms.items(), key=lambda kv: [*map(key, kv[0])])

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for mono, c in self.sorted_terms():
            factors = ["*".join([sym_str(s)] * e) if e > 1 else sym_str(s) for s, e in mono]
            body = "*".join(factors)
            parts.append(f"({c!r})" + (f"*{body}" if body else ""))
        return " + ".join(parts)


ONE = CoeffPoly.scalar(1)


# -- symbol constructors with argument canonicalization ----------------------

def _orient(hi, lo, parity_sign):
    """Return (hi, lo, sign) with hi > lo, flipping by the function's zeta -> 1/zeta parity."""
    if hi == lo:
        raise ValueError("coincident positions in a coefficient symbol")
    if hi > lo:
        return hi, lo, 1
    return lo, hi, parity_sign


def P(k: int, hi: int, lo: int) -> CoeffPoly:
    """P_k(zeta_hi/zeta_lo) for k >= 2; P_k(1/zeta) = (-1)**k P_k(zeta)."""
    if k < 2:
        raise ValueError("P_1 is not a stored symbol; it enters as P~_1 - pi*i")
    hi, lo, sign = _orient(hi, lo, (-1) ** k)
    return CoeffPoly.symbol(("P", k, hi, lo), sign)


def Pt(hi: int, lo: int) -> CoeffPoly:
    """P~_1(zeta_hi/zeta_lo); odd under zeta -> 1/zeta."""
    hi, lo, sign = _orient(hi, lo, -1)
    return CoeffPoly.symbol(("Pt", hi, lo), sign)


def g(i: int, j: int, hi: int, lo: int) -> CoeffPoly:
    """g^i_j(zeta_hi/zeta_lo) for i >= 1; picks up (-1)**(j-i) under inversion."""
    if i < 1:
        raise ValueError("use P / Pt for the depth-zero layer")
    hi, lo, sign = _orient(hi, lo, (-1) ** (j - i))
    return CoeffPoly.symbol(("g", i, j, hi, lo), sign)


def G(two_k: int) -> CoeffPoly:
    return CoeffPoly.symbol(("G", two_k))


def B(power: int = 1) -> CoeffPoly:
    return CoeffPoly({((("B",), power),): ScaledRational(1)})


def zvar(a: int) -> CoeffPoly:
    return CoeffPoly.symbol(("z", a))


# P_1 = P~_1 - pi*i; the marker symbol carries the constant's value
PI_MARK = CoeffPoly.symbol(("pi",), ScaledRational(Fraction(1, 2), 1))


def p_layer_coefficient(s_len: int, m: int, hi: int, lo: int) -> CoeffPoly:
    """Coefficient symbol g^{s}_{m+1}(zeta_hi/zeta_lo) of one recursion tail layer.

    The depth-zero m = 0 layer is P_1, stored immediately as P~_1 - pi*i.
    """
    if s_len == 0 and m == 0:
        return Pt(hi, lo) - PI_MARK
    return _layer(s_len, m + 1, hi, lo)


def _layer(i: int, j: int, hi: int, lo: int) -> CoeffPoly:
    """g^i_j(zeta_hi/zeta_lo), with g^0_1 = P~_1 and g^0_m = P_m (m >= 2)."""
    return g(i, j, hi, lo) if i else Pt(hi, lo) if j == 1 else P(j, hi, lo)


# -- the anomaly table --------------------------------------------------------

def function_symbol(fn_id: str) -> tuple:
    """The symbol a function id names, at positions (hi, lo) = (2, 1).

    Ids: "Ptilde_1" (or "P~1"), "P_k" (k >= 1), "G_2k" (even 2k >= 2) and
    "g_i_j" (g^i_j, i, j >= 1).  Any other id raises KeyError.  "P_1" names a
    symbol the engine never stores; it exists here to be evaluated.
    """
    if fn_id in ("Ptilde_1", "P~1"):
        return ("Pt", 2, 1)
    name, _, rest = fn_id.partition("_")
    parts = rest.split("_")
    idx = tuple(int(t) for t in parts) if all(t.isdecimal() for t in parts) else ()
    if name == "P" and len(idx) == 1 and idx[0] >= 1:
        return ("P", idx[0], 2, 1)
    if name == "G" and len(idx) == 1 and idx[0] >= 2 and idx[0] % 2 == 0:
        return ("G", idx[0])
    if name == "g" and len(idx) == 2 and min(idx) >= 1:
        return ("g", idx[0], idx[1], 2, 1)
    raise KeyError(f"unknown function id {fn_id!r}")


@cache
def derive(sym) -> CoeffPoly:
    """D sym, for the one derivation D with Delta = exp(B D) - 1 (z = z_hi - z_lo):
    D P_2 = D G_2 = -1, D P~_1 = -z, D g^i_j = i (g^{i-1}_{j-1} + z g^{i-1}_j),
    and D is 0 on every other symbol.  Memoised per symbol: callers must not mutate it."""
    kind = sym[0]
    if kind == "P" and sym[1] < 2:
        raise DeltaUnknownError("P_1 is not in the tabulated set; use Ptilde_1")
    if kind in ("P", "G") and sym[1] == 2:
        return -ONE
    if kind == "Pt":
        return -(zvar(sym[1]) - zvar(sym[2]))
    if kind != "g":
        return CoeffPoly()
    _, i, j, hi, lo = sym
    if j <= i:
        raise DeltaUnknownError(f"Delta g^{i}_{j} lowers to g^0_0, which is not a symbol")
    return (_layer(i - 1, j - 1, hi, lo) + (zvar(hi) - zvar(lo)) * _layer(i - 1, j, hi, lo)) * i


def derive_poly(poly: CoeffPoly) -> CoeffPoly:
    """D poly, by the Leibniz rule: each factor s**e of a monomial contributes
    e s**(e-1) (D s) times the rest of the monomial.  The cofactors of each
    symbol s are gathered as rows of the product kernel, cut from the rows of
    poly, and multiplied by D s once."""
    cofactors = {}
    for mono, keys, v, t in poly.rows():
        for i, (s, e) in enumerate(mono):
            if derive(s):
                if e > 1:
                    row = (mono[:i] + ((s, e - 1),) + mono[i + 1:], keys, v * e, t)
                else:
                    row = (mono[:i] + mono[i + 1:], keys[:i] + keys[i + 1:], v, t)
                cofactors.setdefault(s, []).append(row)
    out = CoeffPoly()
    for s, rows in cofactors.items():
        add_products(rows, derive(s).entries(out.terms))
    return out


def delta_transform(poly: CoeffPoly) -> CoeffPoly:
    """Delta poly = exp(B D) poly - poly = sum_{k>=1} B**k D**k poly / k!, in order of k.

    The series is finite: D lowers the depth of g^i_j, and D P_2, D G_2 and
    D P~_1 are constants of D.
    """
    total = CoeffPoly()
    term, k = derive_poly(poly), 1
    while term:
        total.iadd(B(k) * term)
        k += 1
        term = derive_poly(term) * Fraction(1, k)
    return total


@cache
def delta_of_symbol(sym) -> CoeffPoly:
    """Delta sym, memoised per symbol: callers must not mutate it.

    Its terms run by degree in z, then by power of B: the order
    numerics.poly_value sums in, which fixes reports' last digits.
    """
    terms = delta_transform(CoeffPoly.symbol(sym)).terms
    return CoeffPoly._of_terms(dict(sorted(
        terms.items(), key=lambda mc: sum(e for s, e in mc[0] if s[0] == "z"))))
