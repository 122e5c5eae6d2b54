"""Laurent polynomials and reduced rational functions in the variable zeta.

These carry the q**0 layer of the two-variable expansions: the m = 0 layer
of P_k is a genuine rational function (e.g. zeta/(1-zeta) for P_1), while
every higher layer is a Laurent polynomial.  Coefficients are plain
Fractions; the global 2*pi*i grade lives on the enclosing expansion.
"""

from __future__ import annotations

from fractions import Fraction

from .scaled import as_fraction, format_fraction


class LaurentPoly:
    """Laurent polynomial in zeta with Fraction coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        if coeffs is None:
            coeffs = {}
        self.coeffs = {e: as_fraction(c) for e, c in coeffs.items() if c != 0}

    @classmethod
    def const(cls, c) -> "LaurentPoly":
        return cls({0: c})

    @classmethod
    def zeta(cls, e: int = 1) -> "LaurentPoly":
        return cls({e: 1})

    def is_zero(self) -> bool:
        return not self.coeffs

    def min_exp(self) -> int:
        return min(self.coeffs) if self.coeffs else 0

    def max_exp(self) -> int:
        return max(self.coeffs) if self.coeffs else 0

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __neg__(self):
        return LaurentPoly({e: -c for e, c in self.coeffs.items()})

    def __add__(self, other):
        coeffs = dict(self.coeffs)
        for e, c in other.coeffs.items():
            coeffs[e] = coeffs.get(e, 0) + c
        return LaurentPoly(coeffs)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return LaurentPoly({e: c * other for e, c in self.coeffs.items()})
        coeffs = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                coeffs[e1 + e2] = coeffs.get(e1 + e2, 0) + c1 * c2
        return LaurentPoly(coeffs)

    __rmul__ = __mul__

    def shift(self, k: int) -> "LaurentPoly":
        return LaurentPoly({e + k: c for e, c in self.coeffs.items()})

    def zeta_ddzeta(self) -> "LaurentPoly":
        """zeta d/dzeta."""
        return LaurentPoly({e: e * c for e, c in self.coeffs.items()})

    def evaluate(self, z: complex) -> complex:
        return sum((complex(c) * z ** e for e, c in self.coeffs.items()), 0j)

    def to_pairs(self):
        return [[e, format_fraction(c)] for e, c in sorted(self.coeffs.items())]

    @classmethod
    def from_pairs(cls, pairs) -> "LaurentPoly":
        return cls({int(e): Fraction(s) for e, s in pairs})

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs):
            c = format_fraction(self.coeffs[e])
            mono = "1" if e == 0 else ("zeta" if e == 1 else f"zeta^{e}")
            parts.append(c if e == 0 else f"{c}*{mono}")
        return " + ".join(parts)


def _dense(p: LaurentPoly) -> list[Fraction]:
    """Dense coefficient list of a genuine polynomial (min exponent >= 0)."""
    if p.is_zero():
        return []
    if p.min_exp() < 0:
        raise ValueError("not a polynomial")
    out = [Fraction(0)] * (p.max_exp() + 1)
    for e, c in p.coeffs.items():
        out[e] = c
    return out


def _from_dense(c: list[Fraction]) -> LaurentPoly:
    return LaurentPoly({e: v for e, v in enumerate(c)})


def _poly_divmod(a: list[Fraction], b: list[Fraction]):
    a = list(a)
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    inv = 1 / b[-1]
    for i in range(len(a) - len(b), -1, -1):
        f = a[i + len(b) - 1] * inv
        q[i] = f
        if f:
            for j, bj in enumerate(b):
                a[i + j] -= f * bj
    while a and not a[-1]:
        a.pop()
    return q, a


def _poly_gcd(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    while b:
        _, r = _poly_divmod(a, b)
        a, b = b, r
    if a:
        inv = 1 / a[-1]
        a = [c * inv for c in a]
    return a


class ZetaRational:
    """Reduced fraction of Laurent polynomials, denominator monic with nonzero
    constant term (zeta powers are shifted into the numerator)."""

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly | None = None):
        if den is None:
            den = LaurentPoly.const(1)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            self.num = LaurentPoly()
            self.den = LaurentPoly.const(1)
            return
        # move the denominator's zeta content into the numerator
        k = den.min_exp()
        if k:
            den = den.shift(-k)
            num = num.shift(-k)
        if den.coeffs == {0: 1}:
            # already reduced; ascending keys keep evaluate's summation order
            self.num = LaurentPoly({e: num.coeffs[e] for e in sorted(num.coeffs)})
            self.den = den
            return
        nshift = min(num.min_exp(), 0)
        dn, dd = _dense(num.shift(-nshift)), _dense(den)
        g = _poly_gcd(dn, dd)
        if len(g) > 1:
            dn, _ = _poly_divmod(dn, g)
            dd, _ = _poly_divmod(dd, g)
        lead = dd[-1]
        if lead != 1:
            inv = 1 / lead
            dn = [c * inv for c in dn]
            dd = [c * inv for c in dd]
        num = _from_dense(dn).shift(nshift)
        den = _from_dense(dd)
        k = den.min_exp()
        if k:  # cancellation can re-expose a zeta factor
            den = den.shift(-k)
            num = num.shift(-k)
        self.num = num
        self.den = den

    @classmethod
    def const(cls, c) -> "ZetaRational":
        return cls(LaurentPoly.const(c))

    @classmethod
    def from_poly(cls, p: LaurentPoly) -> "ZetaRational":
        return cls(p)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.den == LaurentPoly.const(1)

    def as_poly(self) -> LaurentPoly:
        if not self.is_polynomial():
            raise ValueError("not a Laurent polynomial")
        return self.num

    def __eq__(self, other):
        if not isinstance(other, ZetaRational):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __neg__(self):
        return ZetaRational(-self.num, self.den)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = ZetaRational.const(other)
        return ZetaRational(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return ZetaRational(self.num * other, self.den)
        return ZetaRational(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def zeta_ddzeta(self) -> "ZetaRational":
        """zeta d/dzeta by the quotient rule."""
        n, d = self.num, self.den
        return ZetaRational(n.zeta_ddzeta() * d - n * d.zeta_ddzeta(), d * d)

    def evaluate(self, z: complex, pole_tol: float = 1e-12) -> complex:
        dv = self.den.evaluate(z)
        scale = max(abs(complex(c)) * abs(z) ** e for e, c in self.den.coeffs.items())
        if abs(dv) <= pole_tol * max(scale, 1.0):
            raise ZeroDivisionError(f"evaluation too close to a pole at zeta={z}")
        return self.num.evaluate(z) / dv

    def to_json(self) -> dict:
        return {"num": self.num.to_pairs(), "den": self.den.to_pairs()}

    def __repr__(self):
        if self.is_polynomial():
            return repr(self.num)
        return f"({self.num!r})/({self.den!r})"
