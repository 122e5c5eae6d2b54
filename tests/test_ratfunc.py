"""Properties of the ZetaRational normal form N(zeta)/(1-zeta)**k."""

from fractions import Fraction

from hypothesis import given, strategies as st

from torusmodes.ratfunc import LaurentPoly, ZetaRational

POINTS = (Fraction(2), Fraction(-1, 3), Fraction(3, 5))

coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=6).filter(bool)
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
