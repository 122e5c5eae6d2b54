"""Coefficient ring for correlator expressions, with the modular-anomaly calculus.

Polynomials over Q*(2*pi*i)**Z in the formal symbols

    G_{2k},  P_k(zeta_h/zeta_l),  P~_1(zeta_h/zeta_l),  g^i_j(zeta_h/zeta_l),
    B = 2*pi*i*c/(c*tau+d),  z_a,  and the pi*i residual marker

with a fixed symbol order (G < P < P~ < g < B < z < pi) and sorted monomials,
so symbolic equality of reduced correlator expressions is decidable.

The anomaly Delta f = (c*tau+d)**-w f(gamma.) - f is tabulated on the
generating symbols; products transform multiplicatively,
prod_i (f_i + Delta f_i), from which Delta of any polynomial follows.

P_1 itself is never stored: it enters reductions as P~_1 minus the pi*i
marker, whose final cancellation is a theorem the engine asserts.
"""

from __future__ import annotations

from fractions import Fraction

from .scaled import ScaledRational

_KIND_RANK = {"G": 0, "P": 1, "Pt": 2, "g": 3, "B": 4, "z": 5, "pi": 6}


class UnsupportedError(Exception):
    """Valid input that needs mathematics the engine does not have yet."""


class DeltaUnknownError(UnsupportedError, KeyError):
    """Anomaly requested for a function outside the tabulated depth-one set."""


def sym_weight(sym) -> int:
    kind = sym[0]
    if kind == "G":
        return sym[1]
    if kind == "P":
        return sym[1]
    if kind == "Pt":
        return 1
    if kind == "g":
        return sym[1] + sym[2]
    if kind == "B":
        return 2
    if kind == "z":
        return -1
    if kind == "pi":
        # slot weight: the marker stands in the weight-1 slot vacated by P~_1
        return 1
    raise KeyError(f"unknown symbol {sym!r}")


def _sym_key(sym):
    return (_KIND_RANK[sym[0]],) + tuple(sym[1:])


def sym_str(sym) -> str:
    kind = sym[0]
    if kind == "G":
        return f"G_{sym[1]}"
    if kind == "P":
        return f"P_{sym[1]}({sym[2]}/{sym[3]})"
    if kind == "Pt":
        return f"P~1({sym[1]}/{sym[2]})"
    if kind == "g":
        return f"g^{sym[1]}_{sym[2]}({sym[3]}/{sym[4]})"
    if kind == "B":
        return "B"
    if kind == "z":
        return f"z_{sym[1]}"
    if kind == "pi":
        return "piRes"
    raise KeyError(sym)


class CoeffPoly:
    """Multivariate polynomial: map sorted monomial -> nonzero ScaledRational.

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
    def zero(cls) -> "CoeffPoly":
        return cls()

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

    def __add__(self, other):
        if isinstance(other, (int, Fraction, ScaledRational)):
            other = CoeffPoly.scalar(other)
        terms = dict(self.terms)
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
        return CoeffPoly._of_terms(terms)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    @staticmethod
    def _mono_mul(m1, m2):
        if not m1:
            return m2
        if not m2:
            return m1
        d = dict(m1)
        for s, e in m2:
            d[s] = d.get(s, 0) + e
        return tuple(sorted(d.items(), key=lambda p: _sym_key(p[0])))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, ScaledRational)):
            if not other:
                return CoeffPoly()
            return CoeffPoly._of_terms({m: c * other for m, c in self.terms.items()})
        terms = {}
        mono_mul = self._mono_mul
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                c = c1 * c2
                cur = terms.get(m)
                terms[m] = c if cur is None else cur + c
        return CoeffPoly._of_terms({m: c for m, c in terms.items() if c})

    __rmul__ = __mul__

    def monomial_weights(self):
        return {m: sum(e * sym_weight(s) for s, e in m) for m in self.terms}

    def contains_kind(self, *kinds) -> bool:
        return any(s[0] in kinds for m in self.terms for s, _ in m)

    def pure_b_grading(self) -> dict[int, ScaledRational]:
        """Split a polynomial known to be a polynomial in B alone by B-power."""
        out: dict[int, ScaledRational] = {}
        for m, c in self.terms.items():
            if not m:
                out[0] = out.get(0, ScaledRational()) + c
            elif len(m) == 1 and m[0][0] == ("B",):
                k = m[0][1]
                out[k] = out.get(k, ScaledRational()) + c
            else:
                raise ValueError(f"not a pure B-polynomial: contains {m}")
        return out

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: [(_sym_key(s), e) for s, e in kv[0]])

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for mono, c in self.sorted_terms():
            factors = ["*".join([sym_str(s)] * e) if e > 1 else sym_str(s) for s, e in mono]
            body = "*".join(factors)
            parts.append(f"({c!r})" + (f"*{body}" if body else ""))
        return " + ".join(parts)

    def to_json(self):
        out = []
        for mono, c in self.sorted_terms():
            out.append({"monomial": [[sym_str(s), e] for s, e in mono], "coeff": c.to_pairs()})
        return out


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
    if s_len == 0:
        if m == 0:
            return Pt(hi, lo) - PI_MARK
        return P(m + 1, hi, lo)
    return g(s_len, m + 1, hi, lo)


# -- the anomaly table --------------------------------------------------------

def function_symbol(fn_id: str, hi: int = 2, lo: int = 1) -> tuple:
    """The symbol a function id names, at positions (hi, lo).

    Ids: "Ptilde_1" (or "P~1"), "P_k" (k >= 1), "G_2k" (even 2k >= 2) and
    "g_i_j" (g^i_j, i, j >= 1).  Any other id raises KeyError.  "P_1" names a
    symbol the engine never stores; it exists here to be evaluated.
    """
    if fn_id in ("Ptilde_1", "P~1"):
        return ("Pt", hi, lo)
    name, _, rest = fn_id.partition("_")
    parts = rest.split("_")
    idx = tuple(int(t) for t in parts) if all(t.isdecimal() for t in parts) else ()
    if name == "P" and len(idx) == 1 and idx[0] >= 1:
        return ("P", idx[0], hi, lo)
    if name == "G" and len(idx) == 1 and idx[0] >= 2 and idx[0] % 2 == 0:
        return ("G", idx[0])
    if name == "g" and len(idx) == 2 and min(idx) >= 1:
        return ("g", idx[0], idx[1], hi, lo)
    raise KeyError(f"unknown function id {fn_id!r}")


def delta_anomaly(fn_id: str, hi: int = 2, lo: int = 1) -> CoeffPoly:
    """Tabulated Delta of a function id (see :func:`function_symbol`).

    P_1 and g^i_j with i >= 2 have no tabulated law and raise
    DeltaUnknownError.
    """
    return delta_of_symbol(function_symbol(fn_id, hi, lo))


def delta_of_symbol(sym) -> CoeffPoly:
    kind = sym[0]
    if kind == "P":
        k = sym[1]
        if k < 2:
            raise DeltaUnknownError("P_1 is not in the tabulated set; use Ptilde_1")
        if k == 2:
            return -B()
        return CoeffPoly.zero()
    if kind == "Pt":
        _, hi, lo = sym
        return -B() * (zvar(hi) - zvar(lo))
    if kind == "g":
        _, i, j, hi, lo = sym
        if i != 1:
            raise DeltaUnknownError(
                f"Delta g^{i}_{j} is outside the tabulated depth-one set")
        # chain rule through g^1_{m+1} = (2*pi*i/m) d_tau P_m: the z-tail terms
        # B z P_{m+1} (and -B**2 z at m = 1) are forced by d(gamma z)/dtau and
        # are verified numerically against the transformation laws.
        m = j - 1
        dz = zvar(hi) - zvar(lo)
        if m == 1:
            return B() * Pt(hi, lo) + B() * dz * P(2, hi, lo) - B(2) * dz
        if m == 2:
            return B() * P(2, hi, lo) - B(2) * Fraction(1, 2) + B() * dz * P(3, hi, lo)
        return B() * P(m, hi, lo) + B() * dz * P(m + 1, hi, lo)
    if kind == "G":
        return -B() if sym[1] == 2 else CoeffPoly.zero()
    if kind in ("z", "pi"):
        return CoeffPoly.zero()
    if kind == "B":
        raise ValueError("B appears only after a transform; cannot transform it again")
    raise KeyError(f"unknown symbol {sym!r}")


def delta_transform(poly: CoeffPoly) -> CoeffPoly:
    """Delta of a polynomial: prod_i (f_i + Delta f_i)**e_i expanded, minus the original.

    This implements the multiplicativity of weight-normalized transforms
    (equivalently Delta(fg) = f Delta g + (Delta f) g + (Delta f)(Delta g)).
    """
    total = CoeffPoly.zero()
    for mono, c in poly.terms.items():
        transformed = CoeffPoly.scalar(c)
        for s, e in mono:
            factor = CoeffPoly.symbol(s) + delta_of_symbol(s)
            for _ in range(e):
                transformed = transformed * factor
        total = total + transformed
    return total - poly
