"""Laurent polynomials and the zeta-rational functions N(zeta)/(1-zeta)**k.

``LaurentPoly`` is the one exact polynomial type in one variable: it also
holds the run-counting polynomials C_u in w of ``torusmodes.combinatorics``
and the cotangent-derivative polynomials of ``torusmodes.numerics``.  Its
coefficients are exact, stored as ``ScaledRational`` stores its value: an
integral coefficient as an int, so products of integral coefficients skip the
gcd of ``Fraction``, and any other as a Fraction.  The zeta-rational functions
carry the layers of the two-variable expansions: the m = 0 layer of P_k is the
Eulerian closed form zeta A_{k-1}(zeta)/(1-zeta)**k (e.g. zeta/(1-zeta) for
P_1), while every higher layer is a Laurent polynomial (k = 0).  Sums and
zeta d/dzeta stay in this family, so the only reduction ever needed is
cancelling factors of (1-zeta); a scalar multiple or a negation keeps the
normal form it scales.  The global 2*pi*i grade lives on the enclosing
expansion.  Each object converts its coefficients to complex once, on its
first evaluation, and every evaluation is one loop that sums c * zeta**e in
``coeffs`` order, reading each power from a :class:`PowerMap`.  A caller that
evaluates many polynomials at one point shares one map among them, so each
power is taken once; ``evaluate(z)`` sums over a fresh map.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb

from .scaled import as_exact, format_fraction

POLE_TOL = 1e-12  # evaluate refuses a zeta where |den| is this small against its terms


# not a scaled.Memo: its misses are the hot path, and a call through ``fn`` slowed them
class PowerMap(dict):
    """exponent -> base**e, each power taken on first use by the same ``**``."""

    __slots__ = ("base",)

    def __init__(self, base):
        self.base = base

    def __missing__(self, e):
        power = self[e] = self.base ** e
        return power


class LaurentPoly:
    """Laurent polynomial in one variable; an integral coefficient is stored as an int."""

    __slots__ = ("coeffs", "_floats")

    def __init__(self, coeffs=None):
        if coeffs is None:
            coeffs = {}
        self.coeffs = {e: c if c.__class__ is int else as_exact(c)
                       for e, c in coeffs.items() if c != 0}
        self._floats = None

    @classmethod
    def _make(cls, coeffs: dict) -> "LaurentPoly":
        """Wrap a dict of nonzero exact coefficients, an integral one an int:
        stored as given, in its key order, with no normalisation."""
        obj = object.__new__(cls)
        obj.coeffs, obj._floats = coeffs, None
        return obj

    @classmethod
    def const(cls, c) -> "LaurentPoly":
        return cls({0: c})

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __neg__(self):
        return LaurentPoly({e: -c for e, c in self.coeffs.items()})

    def __add__(self, other):
        coeffs = dict(self.coeffs)
        for e, c in other.coeffs.items():
            coeffs[e] = coeffs.get(e, 0) + c
        return LaurentPoly(coeffs)

    def __mul__(self, other):
        """The product with a polynomial, or with an int or Fraction scalar.

        A scalar makes each coefficient once, in ``coeffs`` order: an int times
        an int is an int, and any other product is one ``Fraction`` of the
        numerators' and the denominators' products, reduced by its one gcd and
        stored as an int when integral.
        """
        if isinstance(other, (int, Fraction)):
            if not other:
                return LaurentPoly._make({})
            p, q = other.numerator, other.denominator
            coeffs = {}
            for e, c in self.coeffs.items():
                if q == 1 and c.__class__ is int:
                    coeffs[e] = c * p
                else:
                    c = Fraction(c.numerator * p, c.denominator * q)
                    coeffs[e] = c.numerator if c.denominator == 1 else c
            return LaurentPoly._make(coeffs)
        coeffs = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                coeffs[e1 + e2] = coeffs.get(e1 + e2, 0) + c1 * c2
        return LaurentPoly(coeffs)

    def shift(self, k: int) -> "LaurentPoly":
        return LaurentPoly({e + k: c for e, c in self.coeffs.items()})

    def zeta_ddzeta(self) -> "LaurentPoly":
        """zeta d/dzeta."""
        return LaurentPoly({e: e * c for e, c in self.coeffs.items()})

    def _float_terms(self) -> tuple:
        """((e, complex(c)), ...) in ``coeffs`` order, converted on the first call."""
        if self._floats is None:
            self._floats = tuple((e, complex(c)) for e, c in self.coeffs.items())
        return self._floats

    def sum_powers(self, powers: PowerMap) -> complex:
        """The value at ``powers.base``: sum c * powers[e], from 0j in ``coeffs`` order."""
        total = 0j
        for e, c in self._float_terms():
            total += c * powers[e]
        return total

    def evaluate(self, z: complex) -> complex:
        return self.sum_powers(PowerMap(z))

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs):
            c = format_fraction(self.coeffs[e])
            mono = "1" if e == 0 else ("zeta" if e == 1 else f"zeta^{e}")
            parts.append(c if e == 0 else f"{c}*{mono}")
        return " + ".join(parts)


@lru_cache(maxsize=None)
def _one_minus_zeta_power(j: int) -> LaurentPoly:
    """(1 - zeta)**j."""
    return LaurentPoly({e: (-1) ** e * comb(j, e) for e in range(j + 1)})


@lru_cache(maxsize=None)
def _monic_den(k: int) -> LaurentPoly:
    """(zeta - 1)**k, the monic form of the denominator."""
    return _one_minus_zeta_power(k) * (-1) ** k


def _lift(num: LaurentPoly, j: int) -> LaurentPoly:
    """num * (1 - zeta)**j: the numerator over a denominator raised by j."""
    return num * _one_minus_zeta_power(j) if j else num


def _normal_form(num: LaurentPoly, k: int) -> tuple[LaurentPoly, int]:
    """Cancel factors of (1 - zeta) until k = 0 or num(1) != 0.

    The numerator comes back with ascending keys, the order evaluate sums in.
    """
    coeffs = {e: num.coeffs[e] for e in sorted(num.coeffs)}
    if not coeffs:
        return LaurentPoly(), 0
    while k and not sum(coeffs.values()):
        # num = (1 - zeta) * quot, and quot's coefficients are num's prefix sums
        quot, run = {}, 0
        for e in range(min(coeffs), max(coeffs)):
            run += coeffs.get(e, 0)
            if run:
                quot[e] = run
        coeffs, k = quot, k - 1
    return LaurentPoly(coeffs), k


class ZetaRational:
    """N(zeta)/(1-zeta)**k with k >= 0, in the normal form k = 0 or N(1) != 0.

    The normal form is unique, so equal values have equal (num, k).
    """

    __slots__ = ("num", "k", "_monic")

    def __init__(self, num: LaurentPoly, k: int = 0):
        if k < 0:
            raise ValueError("k must be >= 0")
        self.num, self.k = _normal_form(num, k)
        self._monic = None

    @classmethod
    def _make(cls, num: LaurentPoly, k: int) -> "ZetaRational":
        """(num, k) already in normal form, keys ascending: no reduction is run."""
        obj = object.__new__(cls)
        obj.num, obj.k, obj._monic = num, k, None
        return obj

    @classmethod
    def const(cls, c) -> "ZetaRational":
        return cls(LaurentPoly.const(c))

    @classmethod
    def from_poly(cls, p: LaurentPoly) -> "ZetaRational":
        return cls(p)

    @property
    def den(self) -> LaurentPoly:
        """The monic denominator (zeta - 1)**k."""
        return _monic_den(self.k)

    def _monic_num(self) -> LaurentPoly:
        """The numerator over the monic denominator: N * (-1)**k, built once."""
        if self._monic is None:
            self._monic = -self.num if self.k % 2 else self.num
        return self._monic

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self):
        return not self.num.is_zero()

    def __eq__(self, other):
        if not isinstance(other, ZetaRational):
            return NotImplemented
        return self.k == other.k and self.num == other.num

    def __neg__(self):
        return ZetaRational._make(-self.num, self.k)

    def __add__(self, other):
        k = max(self.k, other.k)
        return ZetaRational(_lift(self.num, k - self.k) + _lift(other.num, k - other.k), k)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, c):
        """Multiplication by an int or Fraction scalar.

        A nonzero scalar keeps N(1) != 0 and the numerator's keys, so k and the
        normal form carry over; zero gives the zero function, with k = 0.
        """
        if not c:
            return ZetaRational._make(LaurentPoly(), 0)
        return ZetaRational._make(self.num * c, self.k)

    def zeta_ddzeta(self) -> "ZetaRational":
        """zeta d/dzeta [N/(1-zeta)**k] = (zeta N'(1-zeta) + k zeta N)/(1-zeta)**(k+1).

        At k = 0 that is the polynomial zeta N', made with no lift by (1-zeta)
        for the normal form to cancel again.
        """
        if not self.k:
            return ZetaRational._make(self.num.zeta_ddzeta(), 0)
        n, k = self.num, self.k
        return ZetaRational(_lift(n.zeta_ddzeta(), 1) + n.shift(1) * k, k + 1)

    def evaluate(self, z: complex) -> complex:
        den, powers = self.den, PowerMap(z)
        dv = den.sum_powers(powers)
        scale = max(abs(c) * abs(z) ** e for e, c in den._float_terms())
        if abs(dv) <= POLE_TOL * max(scale, 1.0):
            raise ZeroDivisionError(f"evaluation too close to a pole at zeta={z}")
        return self._monic_num().sum_powers(powers) / dv

    def __repr__(self):
        if not self.k:
            return repr(self.num)
        return f"({self._monic_num()!r})/({self.den!r})"
