"""Properties of ScaledRational, the one exact coefficient type."""

import io
import json
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from torusmodes import cli
from torusmodes import qseries as qs
from torusmodes.scaled import Memo, ScaledRational, format_fraction

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)
nonzero = rationals.filter(bool)
grades = st.integers(min_value=-6, max_value=6)
scaled = st.builds(ScaledRational, rationals, grades)


@given(rationals, rationals, rationals, grades)
def test_addition_within_one_grade(x, y, z, e):
    a, b, c = (ScaledRational(v, e) for v in (x, y, z))
    assert a + b == b + a == ScaledRational(x + y, e)
    assert (a + b) + c == a + (b + c)
    assert a + ScaledRational() == a == ScaledRational() + a
    assert a - b == ScaledRational(x - y, e)
    assert a - a == 0


@given(scaled, rationals, rationals, grades)
def test_multiplication_laws(a, x, y, e):
    b, c = ScaledRational(x, e), ScaledRational(y, e)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * 1 == a == 1 * a


@given(rationals, st.integers(min_value=-5, max_value=5))
def test_int_and_fraction_operands_are_grade_zero(x, n):
    a = ScaledRational(x)
    assert a == x and hash(a) == hash(x)
    assert a + n == n + a == ScaledRational(x + n)
    assert a - n == ScaledRational(x - n)
    assert a + Fraction(1, 3) == x + Fraction(1, 3)
    assert ScaledRational(x, 1) != x or x == 0


@given(nonzero, nonzero, grades, st.integers(min_value=1, max_value=6))
def test_mixed_grade_addition_raises(x, y, e, d):
    with pytest.raises(ValueError):
        ScaledRational(x, e) + ScaledRational(y, e + d)
    with pytest.raises(ValueError):
        ScaledRational(x, e) - ScaledRational(y, e - d)
    if e + d != 0:
        with pytest.raises(ValueError):
            ScaledRational(x, e + d) + y


@given(scaled, grades)
def test_zero_normalizes_to_grade_zero(a, e):
    for zero in (ScaledRational(0, e), a - a, a * 0, ScaledRational(0, e).shift(e)):
        assert not zero and zero.tpi == 0
        assert zero == 0 == ScaledRational()
        assert zero.to_pairs() == [] and repr(zero) == "0"


@given(scaled)
def test_pairs_round_trip(a):
    pairs = json.loads(json.dumps(a.to_pairs()))
    assert pairs == ([[a.tpi, str(a.value)]] if a else [])


@given(rationals, st.integers(min_value=0, max_value=6), grades, st.data())
def test_qexpansion_report_format(offset, truncation, tpi, data):
    coeffs = data.draw(st.lists(rationals, min_size=truncation + 1, max_size=truncation + 1))
    series = qs.QExpansion(offset, coeffs, tpi)
    out = io.StringIO()
    cli._write_series(series, out.write, "")
    # the format ``expand`` prints: a "lower" key that is always 0, kept for its readers;
    # every nonzero coefficient names the series' one grade
    assert json.loads(out.getvalue()) == {
        "offset": format_fraction(offset), "lower": 0, "truncation": truncation,
        "coeffs": [[[tpi, str(c)]] if c else [] for c in coeffs]}


def _fraction_valued(a):
    """``a`` with its value held as a Fraction, bypassing the int normalization."""
    obj = object.__new__(ScaledRational)
    obj.value, obj.tpi = Fraction(a.value), a.tpi
    return obj


@given(scaled, scaled, st.integers(min_value=-30, max_value=30), grades)
def test_integral_values_are_ints(a, b, n, e):
    for r in (a + ScaledRational(n, a.tpi), a * b, a * n, -a, a.shift(e),
              ScaledRational(Fraction(2 * n, 2), e)):
        assert type(r.value) is (int if r.value.denominator == 1 else Fraction)
    assert type((ScaledRational(Fraction(n, 3), e) * 3).value) is int
    for r in (a, ScaledRational(n, e)):
        c = _fraction_valued(r)
        assert repr(c) == repr(r) and c.to_pairs() == r.to_pairs()
        assert c == r == c.value * ScaledRational(1, c.tpi) and hash(c) == hash(r)


def test_format_fraction_past_the_int_str_digit_limit():
    # Eulerian coefficients of P_2000 have more digits than str(int) prints by default
    n = 10 ** 5000 + 7
    lifted = subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.set_int_max_str_digits(0); n = 10 ** 5000 + 7; print(n, -n)"],
        capture_output=True, text=True, check=True).stdout.split()
    assert [format_fraction(n), format_fraction(-n)] == lifted
    assert [format_fraction(Fraction(n, 3)), format_fraction(Fraction(-n, 3))] == \
        [f"{digits}/3" for digits in lifted]
    assert format_fraction(Fraction(n)) == lifted[0]
    assert format_fraction(Fraction(1, n)) == f"1/{lifted[0]}"


@pytest.mark.parametrize("x", [0, 7, -7, 10 ** 40, Fraction(6, 3), Fraction(-12, 4),
                               Fraction(0), Fraction(-5, 7), Fraction(5, 7)])
def test_format_fraction_is_str(x):
    # "p/q", or "p" when the value is integral, whether it is stored as an int or a Fraction
    assert format_fraction(x) == str(x)


def test_memo_makes_each_value_once_and_keeps_no_failure():
    calls = []

    def fn(key):
        calls.append(key)
        if key < 0:
            raise KeyError(f"negative key {key}")
        return [key]

    memo = Memo(fn)
    value = memo[2]
    assert value == [2] and calls == [2] and memo == {2: [2]}
    # a hit calls nothing and hands out the kept value
    assert memo[2] is value and calls == [2]
    # a raising fn keeps nothing, so the next lookup calls it again
    for _ in range(2):
        with pytest.raises(KeyError, match="negative key -1"):
            memo[-1]
    assert calls == [2, -1, -1] and memo == {2: [2]}
