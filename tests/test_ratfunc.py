"""Properties of the ZetaRational normal form N(zeta)/(1-zeta)**k."""

import io
import json
from fractions import Fraction
from math import comb

import pytest
from hypothesis import assume, given, strategies as st

from torusmodes import cli
from torusmodes import elliptic as el
from torusmodes.ratfunc import LaurentPoly, ZetaRational, _lift

POINTS = (Fraction(2), Fraction(-1, 3), Fraction(3, 5))

# ints too, which LaurentPoly keeps as ints: polynomials of ints, of Fractions and of both
coeffs = st.one_of(st.fractions(min_value=-5, max_value=5, max_denominator=6).filter(bool),
                   st.integers(-5, 5).filter(bool))
laurent = st.builds(LaurentPoly, st.dictionaries(st.integers(-3, 3), coeffs, max_size=4))
powers = st.integers(min_value=0, max_value=8)
scalars = st.fractions(min_value=-5, max_value=5, max_denominator=6)


def one_minus_zeta(j):
    out = LaurentPoly.const(1)
    for _ in range(j):
        out = out * LaurentPoly({0: 1, 1: -1})
    return out


@st.composite
def inputs(draw):
    """(N, k) with N = M (1-zeta)**j, so that some inputs cancel factors."""
    j, k = draw(st.integers(0, 3)), draw(powers)
    return draw(laurent) * one_minus_zeta(j), k


def value(num, k, x):
    """N(x)/(1-x)**k in exact arithmetic."""
    return sum((c * x ** e for e, c in num.coeffs.items()), Fraction(0)) / (1 - x) ** k


def derivative_value(num, k, x):
    """x d/dx [N/(1-x)**k] at x by the quotient rule."""
    dn = sum((e * c * x ** (e - 1) for e, c in num.coeffs.items()), Fraction(0))
    d = (1 - x) ** k
    dd = -k * (1 - x) ** (k - 1) if k else 0
    n = value(num, 0, x)
    return x * (dn * d - n * dd) / d ** 2


def assert_normal(r):
    assert r.k >= 0
    assert r.k == 0 or sum(r.num.coeffs.values()) != 0
    assert list(r.num.coeffs) == sorted(r.num.coeffs)


def _pairs(poly) -> str:
    """The ``[[e, "c"], ...]`` text of ``poly`` in a layer report."""
    out = io.StringIO()
    cli._write_pairs(poly, out.write, "")
    return out.getvalue()


def test_int_and_fraction_coefficients_make_one_polynomial():
    a, b = LaurentPoly({0: 2}), LaurentPoly({0: Fraction(2)})
    assert a == b and _pairs(a) == _pairs(b) == json.dumps([[0, "2"]], indent=2)
    # an integral coefficient is stored as an int, whatever type it arrives as
    assert type(LaurentPoly({0: Fraction(4, 2)}).coeffs[0]) is int
    assert type((LaurentPoly({1: Fraction(1, 3)}) * 3).coeffs[1]) is int
    assert type(LaurentPoly({0: Fraction(1, 2)}).coeffs[0]) is Fraction


@given(inputs(), st.one_of(scalars, st.integers(-3, 3), st.just(0)))
def test_scaling_and_negation_keep_the_reduced_pair(a, c):
    # without a fresh reduction: the same value, k and numerator key order as reducing
    x = ZetaRational(*a)
    for got, want in ((x * c, ZetaRational(x.num * c, x.k)), (-x, ZetaRational(-x.num, x.k))):
        assert_normal(got)
        assert (got.num, got.k) == (want.num, want.k)
        assert list(got.num.coeffs.items()) == list(want.num.coeffs.items())
        assert _pairs(got._monic_num()) == _pairs(want._monic_num())
        assert _pairs(got.den) == _pairs(want.den)


def items_and_types(p):
    return [(e, c, type(c)) for e, c in p.coeffs.items()]


@given(laurent, st.one_of(scalars, st.integers(-6, 6), st.sampled_from(
    [0, Fraction(0), -1, Fraction(-4, 2), Fraction(6, 3), Fraction(-5, 3), True])))
def test_scaling_makes_the_fraction_reference(p, c):
    # the reference multiplies every coefficient as a Fraction and normalises each
    want = LaurentPoly({e: Fraction(v) * c for e, v in p.coeffs.items()})
    assert items_and_types(p * c) == items_and_types(want)


def general_zeta_ddzeta(r):
    """zeta d/dzeta through the lift by (1-zeta) and the normal form, at every k."""
    n, k = r.num, r.k
    return ZetaRational(_lift(n.zeta_ddzeta(), 1) + n.shift(1) * k, k + 1)


def test_zeta_derivative_of_a_polynomial_layer_skips_the_lift():
    layers = [r for k in range(1, 5) for r in el.p_expansion(k, 60).coeffs]
    layers += [r for i in (1, 2) for j in range(1, 6) for r in el.g_expansion(i, j, 30).coeffs]
    assert any(not r.k for r in layers) and any(r.k for r in layers)
    for r in layers + [ZetaRational(LaurentPoly()), ZetaRational.const(Fraction(1, 3))]:
        got, want = r.zeta_ddzeta(), general_zeta_ddzeta(r)
        assert got.k == want.k
        assert items_and_types(got.num) == items_and_types(want.num)


@pytest.mark.parametrize("c", [Fraction(-2, 3), -1, 0])
def test_scaling_a_pole(c):
    x = ZetaRational(LaurentPoly({1: 1, 2: 3}), 3)
    assert x.k == 3
    y = x * c
    assert (y.num, y.k) == ((x.num * c), 3 if c else 0)
    assert y == ZetaRational(x.num * c, 3) and (-y) == ZetaRational(-(x.num * c), 3)


@given(inputs(), inputs(), scalars)
def test_operations_keep_normal_form_and_value(a, b, c):
    x, y = ZetaRational(*a), ZetaRational(*b)
    results = {
        "x": (x, lambda t: value(*a, t)),
        "+": (x + y, lambda t: value(*a, t) + value(*b, t)),
        "-": (x - y, lambda t: value(*a, t) - value(*b, t)),
        "neg": (-x, lambda t: -value(*a, t)),
        "*": (x * c, lambda t: c * value(*a, t)),
        "d": (x.zeta_ddzeta(), lambda t: derivative_value(*a, t)),
    }
    for name, (r, exact) in results.items():
        assert_normal(r)
        for t in POINTS:
            assert value(r.num, r.k, t) == exact(t), name


@given(laurent, powers, st.integers(0, 3), laurent, powers)
def test_equal_values_have_equal_pairs(m, k, j, other, k2):
    x = ZetaRational(m, k)
    # the same value with j extra factors of (1-zeta) above and below
    y = ZetaRational(m * one_minus_zeta(j), k + j)
    assert (y.num, y.k) == (x.num, x.k) and y == x
    z = ZetaRational(other, k2)
    s, t = x + z, z + x
    assert (s.num, s.k) == (t.num, t.k)
    assert (s - z) == x and (s - z).k == x.k
    assert (x == z) == ((x.num, x.k) == (z.num, z.k))
    assert x != ZetaRational(m, k + 1) or m.is_zero()


# -- the complex values each object keeps for evaluate -------------------------

points = st.complex_numbers(min_magnitude=0.2, max_magnitude=3, allow_nan=False,
                            allow_infinity=False)


def per_term(coeffs, z):
    """The sum evaluate makes, with every coefficient converted afresh."""
    return sum((complex(c) * z ** e for e, c in coeffs.items()), 0j)


def rational_per_term(r, z):
    """N(-1)**k / (zeta - 1)**k, both sums converted afresh."""
    sign = (-1) ** r.k
    den = {e: sign * (-1) ** e * comb(r.k, e) for e in range(r.k + 1)}
    return per_term({e: sign * c for e, c in r.num.coeffs.items()}, z) / per_term(den, z)


def same(a, b):
    """Bit-for-bit equality of two complex values, signed zeros included."""
    return repr(a) == repr(b)


@given(laurent, laurent, scalars, st.integers(-2, 2), points, points)
def test_laurent_evaluate_keeps_the_per_term_sum(p, other, c, k, z, w):
    for x in (z, w, z):  # a second point gets its own value, the first its old one
        assert same(p.evaluate(x), per_term(p.coeffs, x))
    # objects derived after the first evaluate convert their own coefficients
    for derived in (-p, p + other, p * other, p * c, p.shift(k), p.zeta_ddzeta()):
        assert same(derived.evaluate(z), per_term(derived.coeffs, z))


@given(laurent, powers, inputs(), scalars, points, points)
def test_rational_evaluate_keeps_the_per_term_sum(num, k, b, c, z, w):
    assume(sum(num.coeffs.values()) != 0)  # keeps k, so both parities occur
    r = ZetaRational(num, k)
    assert r.k == k
    assume(abs(z - 1) > 0.1 and abs(w - 1) > 0.1)
    for x in (z, w, z):
        assert same(r.evaluate(x), rational_per_term(r, x))
    for derived in (-r, r + ZetaRational(*b), r * c, r.zeta_ddzeta()):
        assert same(derived.evaluate(z), rational_per_term(derived, z))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_pole_still_refused_after_a_cached_evaluate(k):
    r = ZetaRational(LaurentPoly({1: 1}), k)
    r.evaluate(0.5)
    for _ in range(2):
        for zeta in (1, 1 + 1e-14, 1 - 1e-14j):
            with pytest.raises(ZeroDivisionError):
                r.evaluate(zeta)
    assert same(r.evaluate(0.5), rational_per_term(r, 0.5))
