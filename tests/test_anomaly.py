from fractions import Fraction
from functools import reduce
from math import comb, factorial
from operator import mul

import pytest
from hypothesis import given, strategies as st

from torusmodes import hha
from torusmodes.hha import CorrSymbol, anomaly_of_zero_modes, weight1_spec, weight2_spec
from torusmodes.scaled import ScaledRational
from torusmodes.symbols import (B, CoeffPoly, DeltaUnknownError, G, P, Pt,
                                delta_of_symbol, delta_transform, function_symbol,
                                g, zvar)

from suite_cases import assert_case


def _hand_table(hi, lo):
    """The 15 entries of the hand-written Delta table that the derivation replaced."""
    dz = zvar(hi) - zvar(lo)
    table = {("P", 2, hi, lo): -B(), ("P", 5, hi, lo): CoeffPoly(), ("G", 2): -B(),
             ("G", 4): CoeffPoly(), ("Pt", hi, lo): -B() * dz,
             ("g", 1, 2, hi, lo): B() * Pt(hi, lo) + B() * dz * P(2, hi, lo) - B(2) * dz,
             ("g", 1, 3, hi, lo):
                 B() * P(2, hi, lo) - B(2) * Fraction(1, 2) + B() * dz * P(3, hi, lo)}
    table.update({("g", 1, m + 1, hi, lo): B() * P(m, hi, lo) + B() * dz * P(m + 1, hi, lo)
                  for m in range(3, 11)})
    return table


def test_delta_table_entries():
    # exp(B D) reproduces every entry of the hand-written table, at any positions
    for hi, lo in ((2, 1), (3, 2), (7, 4)):
        table = _hand_table(hi, lo)
        assert len(table) == 15
        for sym, delta in table.items():
            assert delta_of_symbol(sym) == delta, sym
        # depth two: 2B g^1_3 + 2Bz g^1_4 + B^2 P_2 + 2B^2 z P_3 + B^2 z^2 P_4 - B^3/3
        dz = zvar(hi) - zvar(lo)
        assert delta_of_symbol(("g", 2, 4, hi, lo)) == (
            B() * 2 * g(1, 3, hi, lo) + B() * 2 * dz * g(1, 4, hi, lo) + B(2) * P(2, hi, lo)
            + B(2) * 2 * dz * P(3, hi, lo) + B(2) * dz * dz * P(4, hi, lo)
            - B(3) * Fraction(1, 3))
        # D g^i_j with j <= i lowers to g^0_0, which is not a symbol
        for i, j in ((1, 1), (2, 2), (3, 1)):
            with pytest.raises(DeltaUnknownError, match=r"g\^0_0"):
                delta_of_symbol(("g", i, j, hi, lo))
    assert delta_of_symbol(function_symbol("P_4")).is_zero()


def test_delta_product_rule():
    # Delta(f g) = f Delta g + (Delta f) g + Delta f Delta g, on Pt*Pt
    f = Pt(2, 1)
    fg = f * f
    direct = delta_transform(fg)
    df = delta_transform(f)
    assert direct == f * df + df * f + df * df


def test_symbol_parity_canonicalization():
    assert P(2, 1, 2) == P(2, 2, 1)          # even
    assert P(3, 1, 2) == -P(3, 2, 1)         # odd
    assert Pt(1, 2) == -Pt(2, 1)             # odd
    assert g(1, 3, 1, 2) == g(1, 3, 2, 1)    # (-1)^{j-i} = +1
    assert g(1, 2, 1, 2) == -g(1, 2, 2, 1)
    with pytest.raises(ValueError):
        P(2, 1, 1)


def test_weight1_anomaly_closed_form():
    # s!/(2^k k! (s-2k)!) beta^k F(a0^(s-2k)) for s <= 6
    assert_case("hha-weight1", "pairing_anomaly_closed_form_s<=6")


def test_weight1_anomaly_scales_with_pairing():
    spec = weight1_spec(pairing=Fraction(3, 2))
    got = dict(anomaly_of_zero_modes(spec, ("a", "a")))
    assert got == {1: {CorrSymbol((), ()): ScaledRational(Fraction(3, 2), -2)}}


def test_weight2_anomalies():
    assert anomaly_of_zero_modes(weight2_spec(), ("x",)) == []
    assert_case("hha-weight2", "anomaly_s2_(1,4)")
    assert_case("hha-weight2", "anomaly_s3_(1,12,24)")


@pytest.mark.parametrize("s, coeffs", [
    (4, [24, 144, 192]), (5, [40, 480, 1920, 1920]), (6, [60, 1200, 9600, 28800, 23040])])
def test_weight2_anomalies_follow_the_lah_law(s, coeffs):
    # the B^k coefficient is 2^k L(s, s-k) (2 pi i)^(-2k) F(x0^(s-k)), with the Lah
    # numbers L(n, j) = C(n-1, j-1) n!/j!
    assert coeffs == [2 ** k * comb(s - 1, s - k - 1) * factorial(s) // factorial(s - k)
                      for k in range(1, s)]
    assert anomaly_of_zero_modes(weight2_spec(), ("x",) * s) == [
        (k, {CorrSymbol(("x",) * (s - k), ()): ScaledRational(c, -2 * k)})
        for k, c in enumerate(coeffs, 1)]


def test_weight2_s4_reduction_still_works():
    spec = weight2_spec()
    inv = hha.invert_to_full(spec, ("x",) * 4)
    assert max(len(sym.insertions) for sym in inv.terms) == 4
    back = hha.reduce_to_zero_modes(spec, inv)
    assert back == hha.CorrExpression.single(CorrSymbol(("x",) * 4, ()))


def test_coeffpoly_weights():
    poly = B() * P(2, 2, 1) * zvar(2)
    (mono, w), = poly.monomial_weights().items()
    assert w == 2 + 2 - 1
    assert not poly.is_zero()
    assert (poly - poly).is_zero()


def test_pure_b_grading():
    poly = B(2) * Fraction(24) + CoeffPoly.scalar(1)
    grading = poly.pure_b_grading()
    assert set(grading) == {0, 2}
    with pytest.raises(ValueError):
        (B() * P(2, 2, 1)).pure_b_grading()


def test_p1_redirects_to_ptilde():
    with pytest.raises(DeltaUnknownError):
        delta_of_symbol(function_symbol("P_1"))


# symbols at positions (2, 1) whose Delta the derivation reaches, B excepted
_TABULATED = ([P(k, 2, 1) for k in (2, 3, 4, 5)] + [Pt(2, 1)]
              + [g(i, j, 2, 1) for i in (1, 2, 3) for j in range(i + 1, i + 4)]
              + [G(2), G(4), zvar(1), zvar(2)])
_monomials = st.builds(lambda c, factors: reduce(mul, factors, CoeffPoly.scalar(c)),
                       st.fractions(-3, 3, max_denominator=4),
                       st.lists(st.sampled_from(_TABULATED), max_size=2))
_b_free_polys = st.lists(_monomials, max_size=3).map(lambda ms: sum(ms, CoeffPoly()))


@given(_b_free_polys, _b_free_polys)
def test_delta_product_rule_random_polynomials(f, h):
    df, dh = delta_transform(f), delta_transform(h)
    assert delta_transform(f * h) == f * dh + df * h + df * dh
