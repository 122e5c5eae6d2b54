"""Exact coefficient arithmetic in the ring Q * (2*pi*i)**Z.

Every constant that the series machinery meets (Eisenstein constants, the
pi*i shift of the odd Weierstrass function, mode-algebra prefactors) is a
rational multiple of an integer power of 2*pi*i.  Tracking that power as an
explicit grade keeps all arithmetic exact; nothing transcendental is
evaluated until an explicit numeric call.

``ScaledRational`` is the coefficient type of the symbolic correlator engine,
and the value ``QExpansion.coefficient`` returns; a q-expansion itself keeps
rational coefficients and one grade for the whole series.  It holds a single
grade: the correlators are quasi-modular (zero modes) or quasi-Jacobi (mixed)
forms of fixed weight, so a sum of nonzero terms of different grades never
arises, and building one raises ``ValueError``.

An integral value is stored as an ``int`` and any other as a ``Fraction``:
almost every product the correlator engine forms is integer by integer,
and ``int`` arithmetic skips the gcd of ``Fraction``.  The two forms compare,
hash and print alike, so the choice never shows in results.
"""

from __future__ import annotations

import cmath
import gc
from decimal import Decimal
from fractions import Fraction
from functools import wraps

TWO_PI_I = 2j * cmath.pi


def _gc_paused(fn):
    """``fn`` run with the cyclic GC paused, and the GC's state restored after.

    The engine's entry points and the lattice walks make no reference cycles
    (tier-1 tests hold them to that), so a collection inside such a call frees
    nothing: it walks the call's growing heap (the engine's memos, a walk's
    kept vectors), whose survivors the collections after the call walk anyway.
    A call made while the GC is off (a nested entry point, or a caller that
    disabled it) passes straight through and leaves it off.
    """
    @wraps(fn)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()
    return paused


class Memo(dict):
    """key -> fn(key), made on first use and kept; a key whose ``fn`` raises is not kept.

    A hit is a dict lookup; a ``functools.cache`` hit, which also builds and
    hashes an argument tuple, measured about twice as slow (50.9 ms against
    25.7 ms for 392k hits)."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


def as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


def as_exact(x):
    """x as an int when integral, else as a Fraction."""
    x = as_fraction(x)
    return x.numerator if x.denominator == 1 else x


def format_fraction(x: int | Fraction) -> str:
    """str(x): "p/q", or "p" when x is integral, also past Python's int-to-str
    digit limit (Decimal has none)."""
    try:
        return str(x)
    except ValueError:
        num = str(Decimal(x.numerator))
        return num if x.denominator == 1 else f"{num}/{Decimal(x.denominator)}"


class ScaledRational:
    """value * (2*pi*i)**tpi with rational value (int when integral); zero by default.

    Zero is normalized to grade 0 and adds to any grade; nonzero values add
    only within one grade.  int and Fraction operands are grade-0 values.
    """

    __slots__ = ("value", "tpi")

    def __init__(self, value=0, tpi: int = 0):
        if type(value) is not int:
            value = as_exact(value)
        self.value = value
        self.tpi = tpi if value else 0

    @classmethod
    def _make(cls, value, tpi: int) -> "ScaledRational":
        """Build from an int or Fraction the arithmetic produced, skipping type checks."""
        obj = object.__new__(cls)
        if value.__class__ is not int and value.denominator == 1:
            value = value.numerator
        obj.value = value
        obj.tpi = tpi if value else 0
        return obj

    @staticmethod
    def grade_error(tpi1: int, tpi2: int) -> ValueError:
        """The error for a sum of nonzero values of grades tpi1 and tpi2."""
        return ValueError(f"cannot add grades (2*pi*i)^{tpi1} and (2*pi*i)^{tpi2}")

    @classmethod
    def of(cls, x) -> "ScaledRational":
        return x if isinstance(x, ScaledRational) else cls(x)

    def __bool__(self):
        return self.value != 0

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.tpi == 0 and self.value == other
        if not isinstance(other, ScaledRational):
            return NotImplemented
        return self.value == other.value and self.tpi == other.tpi

    def __hash__(self):
        return hash(self.value) if self.tpi == 0 else hash((self.value, self.tpi))

    def __neg__(self):
        return ScaledRational._make(-self.value, self.tpi)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = ScaledRational(other)
        elif not isinstance(other, ScaledRational):
            return NotImplemented
        if not self:
            return other
        if not other:
            return self
        if self.tpi != other.tpi:
            raise ScaledRational.grade_error(self.tpi, other.tpi)
        return ScaledRational._make(self.value + other.value, self.tpi)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-ScaledRational.of(other))

    def __mul__(self, other):
        if isinstance(other, ScaledRational):
            return ScaledRational._make(self.value * other.value, self.tpi + other.tpi)
        if isinstance(other, (int, Fraction)):
            return ScaledRational._make(self.value * other, self.tpi)
        return NotImplemented

    __rmul__ = __mul__

    def shift(self, k: int) -> "ScaledRational":
        """Multiply by (2*pi*i)**k."""
        return ScaledRational(self.value, self.tpi + k)

    def __complex__(self):
        return complex(self.value) * TWO_PI_I ** self.tpi

    def to_pairs(self):
        """[] for zero, else [[grade, "p/q"]], for JSON output."""
        return [[self.tpi, format_fraction(self.value)]] if self else []

    def __repr__(self):
        if self.tpi == 0:
            return format_fraction(self.value)
        return f"{format_fraction(self.value)}*(2*pi*i)^{self.tpi}"
