"""Exact truncated q-expansions over Q * (2*pi*i)**Z.

A :class:`QExpansion` is a truncated Laurent series, its start, one 2*pi*i
grade and its coefficients:

    (2*pi*i)**tpi * sum_{m=0}^{truncation} c_m * q**(offset + m),
    truncation = len(coeffs) - 1,

with a single rational exponent offset (eta powers are the only source of
fractional exponents and introduce them uniformly).  Every series the package
builds is of fixed weight, so one grade serves all its coefficients; a sum of
nonzero series of two grades raises ``ValueError``, and a zero series adds to
any grade.  Coefficients beyond the truncation order are *unknown*, not zero;
ring operations propagate the reliable order pessimistically.  Coefficients
below the offset vanish; a leading power q**k folds into the offset.

The coefficients are rationals for a q-series, an integral one stored as an
int, and the zeta-rational layers for
:class:`~torusmodes.elliptic.BivariateExpansion`, which shares the additive
and derivative operations below.  The series product, inversion and numerics
read rational coefficients only.  The product reads each operand as int
numerators over one common denominator (1 when every coefficient is an int),
convolves the numerators in int arithmetic, and makes each output coefficient
once, as an int when it is integral.

Named series: Eisenstein series G_{2k} (constants rationalized through
Bernoulli numbers), Dedekind eta powers, and the geometric factors
(1-q**k)**-1 together with their tau-derivatives.

An expansion converts its nonzero coefficients to complex once, on its first
numeric evaluation, and every later evaluation sums over those values.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm

from .scaled import TWO_PI_I, ScaledRational, as_exact, as_fraction, format_fraction


class OffsetError(ValueError):
    """Arithmetic between expansions whose offsets do not differ by an integer."""


class NonUnitError(ValueError):
    """Inversion of a series whose leading coefficient is not invertible."""


DEFAULT_ORDER = 40


class QExpansion:
    __slots__ = ("offset", "coeffs", "tpi", "truncation", "_floats")

    def __init__(self, offset, coeffs, tpi: int = 0):
        self.offset = as_fraction(offset)
        self.coeffs = tuple(coeffs)
        if not self.coeffs:
            raise ValueError("truncation must be >= 0")
        self.tpi = tpi
        self.truncation = len(self.coeffs) - 1
        self._floats = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, truncation: int = DEFAULT_ORDER) -> "QExpansion":
        return cls(0, [0] * (truncation + 1))

    @classmethod
    def one(cls, truncation: int = DEFAULT_ORDER) -> "QExpansion":
        return cls.from_dict({0: 1}, truncation)

    @classmethod
    def from_dict(cls, d, truncation: int, offset=0, tpi: int = 0) -> "QExpansion":
        """d maps integer m >= 0 -> coefficient, for exponents offset + m."""
        if d and min(d) < 0:
            raise ValueError(f"key {min(d)} is negative: a series starts at its offset")
        return cls(offset, [d.get(m, 0) for m in range(truncation + 1)], tpi)

    # -- bookkeeping -------------------------------------------------------

    def coefficient(self, m: int) -> ScaledRational:
        """Coefficient of q**(offset + m); m must not exceed the truncation."""
        if m > self.truncation:
            raise IndexError(f"coefficient q^(offset+{m}) beyond truncation {self.truncation}")
        return ScaledRational(self.coeffs[m], self.tpi) if m >= 0 else ScaledRational()

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def truncate(self, truncation: int) -> "QExpansion":
        if not 0 <= truncation <= self.truncation:
            raise ValueError(f"truncation {truncation} is outside 0..{self.truncation}")
        return type(self)(self.offset, self.coeffs[:truncation + 1], self.tpi)

    # -- ring operations ---------------------------------------------------

    def __neg__(self):
        return type(self)(self.offset, [-c for c in self.coeffs], self.tpi)

    def __add__(self, other):
        if not isinstance(other, QExpansion):
            return NotImplemented
        tpi = self.tpi
        if other.tpi != tpi:
            if self.is_zero():
                tpi = other.tpi
            elif not other.is_zero():
                raise ScaledRational.grade_error(self.tpi, other.tpi)
        offset = min(self.offset, other.offset)
        a, b = self.offset - offset, other.offset - offset
        if a.denominator != 1 or b.denominator != 1:
            raise OffsetError(f"offsets {self.offset} and {other.offset} differ by a non-integer")
        # zeros pad the series that starts higher; zip stops at the lower truncation
        padded = zip((0,) * int(a) + self.coeffs, (0,) * int(b) + other.coeffs)
        return type(self)(offset, [x + y for x, y in padded], tpi)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, ScaledRational)):
            return self.scalar_mul(other)
        if not isinstance(other, QExpansion):
            return NotImplemented
        trunc = min(self.truncation, other.truncation)
        xs, dx = _numerators(self.coeffs[:trunc + 1])
        ys, dy = _numerators(other.coeffs[:trunc + 1])
        out = [0] * (trunc + 1)
        for i, a in enumerate(xs):
            if a:
                for j, b in enumerate(ys[:trunc + 1 - i]):
                    if b:
                        out[i + j] += a * b
        den = dx * dy
        if den != 1:
            out = [n // den if not n % den else Fraction(n, den) for n in out]
        return QExpansion(self.offset + other.offset, out, self.tpi + other.tpi)

    __rmul__ = __mul__

    def scalar_mul(self, s) -> "QExpansion":
        s = ScaledRational.of(s)
        return type(self)(self.offset, [c * s.value for c in self.coeffs], self.tpi + s.tpi)

    def power(self, k: int) -> "QExpansion":
        if k < 0:
            return self.invert_unit().power(-k)
        result = None
        base = self
        while k:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if k:
                base = base * base
        return QExpansion.one(self.truncation) if result is None else result

    def invert_unit(self) -> "QExpansion":
        """Inverse of q**(offset+low) u with u(0) != 0: q**-(offset+low) u**-1."""
        low = next((m for m, c in enumerate(self.coeffs) if c), None)
        if low is None:
            raise NonUnitError("cannot invert the zero series")
        u = self.coeffs[low:]
        b0 = Fraction(1, u[0])
        if b0.denominator == 1:  # a unit +-1 keeps the inverse in int arithmetic
            b0 = b0.numerator
        inv = [b0]
        for m in range(1, len(u)):
            acc = 0
            for j in range(1, m + 1):
                if u[j]:
                    acc += u[j] * inv[m - j]
            inv.append(acc * -b0)
        return QExpansion(-self.offset - low, inv, -self.tpi)

    # -- derivatives -------------------------------------------------------

    def q_derivative(self) -> "QExpansion":
        """q d/dq: multiplies the coefficient of q**(offset+m) by offset+m, an int
        when the offset is integral."""
        offset = as_exact(self.offset)
        return type(self)(self.offset, [c * (offset + m) for m, c in enumerate(self.coeffs)],
                          self.tpi)

    def tau_derivative(self) -> "QExpansion":
        """d/dtau = 2*pi*i * q d/dq; raises the 2*pi*i grade by one."""
        d = self.q_derivative()
        return type(self)(d.offset, d.coeffs, d.tpi + 1)

    # -- comparisons -------------------------------------------------------

    def __eq__(self, other):
        """``(self - other).is_zero()`` without building the difference: nonzero
        series of two grades raise ``ValueError``, and offsets that differ by a
        non-integer compare unequal."""
        if not isinstance(other, QExpansion):
            return NotImplemented
        if other.tpi != self.tpi and not self.is_zero() and not other.is_zero():
            raise ScaledRational.grade_error(self.tpi, other.tpi)
        shift = self.offset - other.offset
        if shift.denominator != 1:
            return False
        # zeros pad the series that starts higher (a negative count repeats nothing);
        # both stop at the lower truncation
        a = (0,) * shift.numerator + self.coeffs
        b = (0,) * -shift.numerator + other.coeffs
        end = min(len(a), len(b))
        return a[:end] == b[:end]

    __hash__ = None  # not hashable; equality is coefficientwise

    # -- numerics ----------------------------------------------------------

    def evaluate(self, tau=None, q=None) -> complex:
        """Numeric sum of the stored coefficients at q = exp(2*pi*i*tau)."""
        import cmath
        if q is None:
            if tau is None:
                raise ValueError("need tau or q")
            q = cmath.exp(2j * cmath.pi * tau)
        if abs(q) >= 1:
            raise ValueError("divergent evaluation: |q| >= 1")
        qo = q ** complex(self.offset)
        if self._floats is None:  # the nonzero values, 2*pi*i power included
            unit = TWO_PI_I ** self.tpi
            self._floats = tuple((m, complex(c) * unit) for m, c in enumerate(self.coeffs) if c)
        total = 0j
        for m, c in self._floats:
            total += c * q ** m
        return qo * total

    def tail_estimate(self, q) -> float:
        """Geometric tail bound |q|**(N+1)/(1-|q|) scaled by recent coefficient size."""
        aq = abs(q)
        if aq >= 1:
            return float("inf")
        unit = TWO_PI_I ** self.tpi
        scale = max(abs(complex(c) * unit) for c in self.coeffs[-5:])
        return max(scale, 1.0) * aq ** (self.truncation + 1) / (1 - aq)

    def __repr__(self):
        terms = [f"({c})*q^{format_fraction(self.offset + m)}"
                 for m, c in enumerate(self.coeffs) if c]
        body = " + ".join(terms[:6] + ["..."] * (len(terms) > 6)) or "0"
        end = format_fraction(self.offset + self.truncation + 1)
        return f"<{type(self).__name__} (2*pi*i)^{self.tpi} * ({body}) + O(q^{end})>"


def _numerators(coeffs) -> tuple:
    """(numerators, den): the rationals ``coeffs`` as ints over their least
    common denominator, which is 1 when every coefficient is an int."""
    if all(c.__class__ is int for c in coeffs):
        return coeffs, 1
    den = lcm(*[c.denominator for c in coeffs])
    return [c.numerator * (den // c.denominator) for c in coeffs], den


# -- named series -----------------------------------------------------------

@lru_cache(maxsize=None)
def bernoulli(m: int) -> Fraction:
    """Bernoulli number B_m for m >= 0, with B_1 = -1/2:
    sum_{j=0}^{m} binom(m+1, j) B_j = 0 for m >= 1."""
    if m < 0:
        raise ValueError("argument must be nonnegative")
    if m == 0:
        return Fraction(1)
    acc = Fraction(0)
    for j in range(m):
        acc += comb(m + 1, j) * bernoulli(j)
    return -acc / (m + 1)


def sigma(k: int, n: int) -> int:
    """Divisor power sum sigma_k(n)."""
    if n < 1:
        raise ValueError("n must be positive")
    return sum(d ** k for d in range(1, n + 1) if n % d == 0)


@lru_cache(maxsize=None)
def eisenstein(two_k: int, truncation: int = DEFAULT_ORDER) -> QExpansion:
    """G_{2k} with every coefficient carried at 2*pi*i grade 2k.

    Constant term -B_{2k}/(2k)!; the coefficient of q**n is
    2*sigma_{2k-1}(n)/(2k-1)!, an int when integral (every one of G_2's).
    """
    if two_k < 2 or two_k % 2:
        raise ValueError("weight must be a positive even integer")
    const = -bernoulli(two_k) / factorial(two_k)
    den = factorial(two_k - 1)
    return QExpansion(0, [as_exact(Fraction(2 * sigma(two_k - 1, n), den)) if n else const
                          for n in range(truncation + 1)], two_k)


def euler_product(truncation: int) -> QExpansion:
    """prod_{n>=1} (1 - q**n) to the given order.

    Multiplies by each factor in place, the higher coefficients first so that
    c[m - n] is still the coefficient before this factor: O(truncation**2).
    """
    c = [int(m == 0) for m in range(truncation + 1)]
    for n in range(1, truncation + 1):
        for m in range(truncation, n - 1, -1):
            c[m] -= c[m - n]
    return QExpansion(0, c)


@lru_cache(maxsize=None)
def eta_power(ell: int, truncation: int = DEFAULT_ORDER) -> QExpansion:
    """eta(q)**ell = q**(ell/24) prod (1-q**n)**ell, offset ell/24."""
    return QExpansion(Fraction(ell, 24), euler_product(truncation).power(ell).coeffs)


def geometric_inverse_factor(k: int, truncation: int = DEFAULT_ORDER) -> QExpansion:
    """(1 - q**k)**-1 expanded in nonnegative powers of q (k != 0).

    For k < 0 this is the rewriting -q**|k|/(1-q**|k|), the unique expansion
    convergent for |q| < 1.
    """
    if k == 0:
        raise ValueError("k must be nonzero")
    if k > 0:
        return QExpansion.from_dict({k * i: 1 for i in range(truncation // k + 1)}, truncation)
    a = -k
    return QExpansion.from_dict({a * i: -1 for i in range(1, truncation // a + 1)}, truncation)


def w_factor(k: int, truncation: int = DEFAULT_ORDER) -> QExpansion:
    """q**k/(1-q**k) (k != 0), expanded in nonnegative powers of q."""
    if k == 0:
        raise ValueError("k must be nonzero")
    if k > 0:
        return QExpansion.from_dict({k * i: 1 for i in range(1, truncation // k + 1)}, truncation)
    a = -k
    return QExpansion.from_dict({0: -1}, truncation) - w_factor(a, truncation)


