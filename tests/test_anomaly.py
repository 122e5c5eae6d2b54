from fractions import Fraction
from functools import reduce
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


def test_delta_table_entries():
    assert delta_of_symbol(function_symbol("P_4")).is_zero()
    assert delta_of_symbol(function_symbol("P_2")) == -B()
    assert delta_of_symbol(function_symbol("G_2")) == -B()
    assert delta_of_symbol(function_symbol("G_4")).is_zero()
    d = delta_of_symbol(function_symbol("Ptilde_1", hi=2, lo=1))
    assert d == -B() * (zvar(2) - zvar(1))
    d = delta_of_symbol(function_symbol("g_1_3", hi=3, lo=2))
    assert d == B() * P(2, 3, 2) - B(2) * Fraction(1, 2) + B() * (zvar(3) - zvar(2)) * P(3, 3, 2)
    d = delta_of_symbol(function_symbol("g_1_5", hi=3, lo=2))
    assert d == B() * P(4, 3, 2) + B() * (zvar(3) - zvar(2)) * P(5, 3, 2)
    with pytest.raises(DeltaUnknownError):
        delta_of_symbol(function_symbol("g_2_4"))
    with pytest.raises(DeltaUnknownError):
        delta_of_symbol(("g", 2, 4, 2, 1))


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


def test_weight2_s4_needs_untabulated_depth():
    # the s=4 inversion involves g^2_j coefficients whose anomaly the table
    # does not cover; the computation must refuse rather than guess
    spec = weight2_spec()
    with pytest.raises(DeltaUnknownError):
        anomaly_of_zero_modes(spec, ("x",) * 4)


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


# every symbol at positions (2, 1) whose Delta is tabulated, B excepted
_TABULATED = ([P(k, 2, 1) for k in (2, 3, 4, 5)] + [Pt(2, 1)]
              + [g(1, j, 2, 1) for j in (2, 3, 4, 5)] + [G(2), G(4), zvar(1), zvar(2)])
_monomials = st.builds(lambda c, factors: reduce(mul, factors, CoeffPoly.scalar(c)),
                       st.fractions(-3, 3, max_denominator=4),
                       st.lists(st.sampled_from(_TABULATED), max_size=2))
_b_free_polys = st.lists(_monomials, max_size=3).map(lambda ms: sum(ms, CoeffPoly.zero()))


@given(_b_free_polys, _b_free_polys)
def test_delta_product_rule_random_polynomials(f, h):
    df, dh = delta_transform(f), delta_transform(h)
    assert delta_transform(f * h) == f * dh + df * h + df * dh
