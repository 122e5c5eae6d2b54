"""Two-variable special functions: P_k, the shifted P~_1, and g^i_j.

A :class:`BivariateExpansion` is the QExpansion at offset 0 whose
coefficients are the layers of a double expansion

    (2*pi*i)**tpi * sum_{m=0}^{N} layer_m(zeta) * q**m

convergent on |q| < |zeta| < 1.  Only the m = 0 layer may be a genuine
rational function of zeta, N(zeta)/(1-zeta)**k; all higher layers are
Laurent polynomials built from a divisor rule.  The n < 0 half of the
defining sums is expanded as -sum_{i>=1} zeta**n q**(-n*i), the unique
rewriting convergent in the region.

The q**0 layers come from the Eulerian closed form
sum_{n>0} n**(k-1) zeta**n = zeta A_{k-1}(zeta) / (1-zeta)**k, which ties
this module to the combinatorics of permutation descents.

An expansion is summed at a :class:`StripPoint`, which holds the power maps
of zeta and q: every layer, and every expansion evaluated at that point,
reads zeta**e and q**m from them, so each power is taken once.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .combinatorics import eulerian_polynomial
from .qseries import DEFAULT_ORDER, QExpansion, bernoulli
from .ratfunc import LaurentPoly, PowerMap, ZetaRational
from .scaled import TWO_PI_I, as_exact


class StripPoint:
    """A point (z, tau) of the open strip 0 < Im z < Im tau, where the layer
    sums converge (|q| < |zeta| < 1): the power maps of zeta and q, each
    holding its base."""

    __slots__ = ("zeta_powers", "q_powers")

    def __init__(self, z: complex, tau: complex):
        if not (0 < z.imag < tau.imag):
            raise ValueError(f"z={z} outside the strip 0 < Im z < Im tau for tau={tau}")
        self.zeta_powers = PowerMap(cmath.exp(2j * cmath.pi * z))
        self.q_powers = PowerMap(cmath.exp(2j * cmath.pi * tau))


class BivariateExpansion(QExpansion):
    """A QExpansion at offset 0 whose coefficients are the zeta-rational layers.

    Negation, sums, scalar multiples, tau_derivative and truncate come from
    QExpansion and return a BivariateExpansion; the series product and the
    q-numerics do not apply to layers.
    """

    __slots__ = ()

    def zeta_derivative(self) -> "BivariateExpansion":
        """zeta d/dzeta applied layerwise; grade unchanged."""
        return BivariateExpansion(0, [l.zeta_ddzeta() for l in self.coeffs], self.tpi)

    def eval_numeric(self, point: StripPoint):
        """Numeric value at a :class:`StripPoint`.

        A Laurent-polynomial layer (k = 0) is its numerator's sum over the
        point's zeta powers, divided by 1 + 0j, the value of its constant
        denominator; the rational layer goes through ``ZetaRational.evaluate``
        and its pole check.  Layer m is weighted by the point's q**m.
        """
        zeta_powers, q_powers = point.zeta_powers, point.q_powers
        total = 0j
        for m, layer in enumerate(self.coeffs):
            if layer.k:
                value = layer.evaluate(zeta_powers.base)
            else:
                value = layer.num.sum_powers(zeta_powers) / (1 + 0j)
            total += value * q_powers[m]
        return TWO_PI_I ** self.tpi * total


def _positive_sum_closed_form(k: int) -> ZetaRational:
    """sum_{n>0} n**(k-1) zeta**n = zeta A_{k-1}(zeta) / (1-zeta)**k."""
    a = eulerian_polynomial(k - 1)
    return ZetaRational(LaurentPoly({1 + j: c for j, c in enumerate(a)}), k)


def _g_layer(i: int, j: int, m: int) -> ZetaRational:
    """Layer m >= 1 of g^i_j/(2*pi*i)**(i+j), p = j - i - 1:

        m**i/(j-1)! * sum_{d | m} (d**p zeta**d - (-d)**p zeta**-d).

    Each coefficient is made once from ints, as an int when integral: the one
    at zeta**d is m**i d**p/(j-1)!, over (j-1)! d**-p for p < 0, and the one at
    zeta**-d is its negative for even p and itself for odd p.  The keys
    ascend, -m up to m, the order ``from_poly`` leaves and evaluation sums in.
    """
    divisors = [d for d in range(1, m + 1) if not m % d]
    num, den = m ** i, factorial(j - 1)
    p = j - i - 1
    if p >= 0:
        pos = [as_exact(Fraction(num * d ** p, den)) for d in divisors]
    else:
        pos = [as_exact(Fraction(num, den * d ** -p)) for d in divisors]
    neg = pos if p % 2 else [-c for c in pos]
    coeffs = {-d: c for d, c in zip(reversed(divisors), reversed(neg))}
    coeffs.update(zip(divisors, pos))
    return ZetaRational._make(LaurentPoly._make(coeffs), 0)


@lru_cache(maxsize=None)
def p_expansion(k: int, truncation: int = DEFAULT_ORDER) -> BivariateExpansion:
    """P_k/(2*pi*i)**k at grade k.

    Layer 0 is the Eulerian closed form of the n > 0 half; layer m >= 1 is
    the divisor rule obtained from expanding 1/(1-q**n) for n > 0 and
    -q**(-n)/(1-q**(-n)) for n < 0.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    return BivariateExpansion(0, [
        _g_layer(0, k, m) if m
        else _positive_sum_closed_form(k) * Fraction(1, factorial(k - 1))
        for m in range(truncation + 1)], k)


def p_tilde_1(truncation: int = DEFAULT_ORDER) -> BivariateExpansion:
    """P~_1 = P_1 + pi*i; the constant enters layer 0 as 1/2 at grade 1."""
    p1 = p_expansion(1, truncation)
    layers = list(p1.coeffs)
    layers[0] = layers[0] + ZetaRational.const(Fraction(1, 2))
    return BivariateExpansion(0, layers, 1)


@lru_cache(maxsize=None)
def g_expansion(i: int, j: int, truncation: int = DEFAULT_ORDER) -> BivariateExpansion:
    """g^i_j/(2*pi*i)**(i+j) at grade i+j.

    For i = 0 this is P_j.  For i >= 1 the q**0 layer vanishes and layer m
    carries the extra factor m**i from the tau-derivatives of the geometric
    factors.
    """
    if j < 1:
        raise ValueError("j must be >= 1")
    if i < 0:
        raise ValueError("i must be >= 0")
    if i == 0:
        return p_expansion(j, truncation)
    return BivariateExpansion(0, [
        _g_layer(i, j, m) if m else ZetaRational.const(0)
        for m in range(truncation + 1)], i + j)


def z_expansion(i: int, j: int, z_order: int, q_order: int) -> dict[int, QExpansion]:
    """z-expansion of g^i_j about z = 0 to z-order ``z_order``, as
    {z-exponent: q-series} without the zero series.

    The Taylor series of zeta**d in the Lambert sums gives, for n >= 0 with
    n = i + j (mod 2), the coefficient of z**n

        (2*pi*i)**(i+j+n) 2/((j-1)! n!) sum_{N>=1} (sum_{d|N} d**(j-1+n) (N/d)**i) q**N.

    For i = 0 the term Li_{1-j}(zeta) adds the pole (-1)**j z**-j and the
    constant (2*pi*i)**(j+n) zeta(1-j-n)/(n! (j-1)!) at every n >= 0, with
    zeta(1-m) = (-1)**(m-1) B_m/m, so zeta(0) = B_1 = -1/2.
    """
    if j < 1:
        raise ValueError("j must be >= 1")
    if i < 0:
        raise ValueError("i must be >= 0")
    coeffs = {-j: QExpansion.from_dict({0: (-1) ** j}, q_order)} if i == 0 else {}
    divisors = [[d for d in range(1, bign + 1) if not bign % d] for bign in range(q_order + 1)]
    for n in range(z_order + 1):
        den = factorial(j - 1) * factorial(n)
        c = {}
        if i == 0:
            m = j + n
            c[0] = (-1) ** (m - 1) * bernoulli(m) / (m * den)
        if (n - i - j) % 2 == 0:
            for bign in range(1, q_order + 1):
                total = 2 * sum(d ** (j - 1 + n) * (bign // d) ** i for d in divisors[bign])
                c[bign] = total // den if not total % den else Fraction(total, den)
        series = QExpansion.from_dict(c, q_order, tpi=i + j + n)
        if not series.is_zero():
            coeffs[n] = series
    return coeffs


def wp_laurent(k: int, z_order: int, q_order: int) -> dict[int, QExpansion]:
    """Laurent expansion of wp_k about z = 0 to z-order ``z_order``, as
    {z-exponent: q-series}, read from

        P_k = (-1)**k wp_k + [k = 2] G_2 + [k = 1] (G_2 z - pi*i):

    the z-expansion of P_k times (-1)**k, without its z**0 term for k = 2 and
    its z**0 and z**1 terms for k = 1.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    sign = (-1) ** k
    return {e: c if sign > 0 else -c for e, c in z_expansion(0, k, z_order, q_order).items()
            if not 0 <= e <= 2 - k}
