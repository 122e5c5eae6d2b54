from fractions import Fraction
from math import factorial

import pytest

from torusmodes import hha
from torusmodes.hha import CorrSymbol, anomaly_of_zero_modes, weight1_spec, weight2_spec
from torusmodes.scaled import ScaledRational
from torusmodes.symbols import (B, CoeffPoly, DeltaUnknownError, P, Pt,
                                delta_anomaly, delta_of_symbol, delta_transform,
                                g, zvar)


def test_delta_table_entries():
    assert delta_anomaly("P_4").is_zero()
    assert delta_anomaly("P_2") == -B()
    assert delta_anomaly("G_2") == -B()
    assert delta_anomaly("G_4").is_zero()
    d = delta_anomaly("Ptilde_1", hi=2, lo=1)
    assert d == -B() * (zvar(2) - zvar(1))
    d = delta_anomaly("g_1_3", hi=3, lo=2)
    assert d == B() * P(2, 3, 2) - B(2) * Fraction(1, 2) + B() * (zvar(3) - zvar(2)) * P(3, 3, 2)
    d = delta_anomaly("g_1_5", hi=3, lo=2)
    assert d == B() * P(4, 3, 2) + B() * (zvar(3) - zvar(2)) * P(5, 3, 2)
    with pytest.raises(DeltaUnknownError):
        delta_anomaly("g_2_4")
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
    spec = weight1_spec()
    for s in range(1, 7):
        got = dict(anomaly_of_zero_modes(spec, ("a",) * s))
        want = {}
        for k in range(1, s // 2 + 1):
            c = Fraction(factorial(s), 2 ** k * factorial(k) * factorial(s - 2 * k))
            want[k] = {CorrSymbol(("a",) * (s - 2 * k), ()): ScaledRational(c, -2 * k)}
        assert got == want, s


def test_weight1_anomaly_scales_with_pairing():
    spec = weight1_spec(pairing=Fraction(3, 2))
    got = dict(anomaly_of_zero_modes(spec, ("a", "a")))
    assert got == {1: {CorrSymbol((), ()): ScaledRational(Fraction(3, 2), -2)}}


def test_weight2_anomalies():
    spec = weight2_spec()
    F = lambda s: CorrSymbol(("x",) * s, ())
    assert anomaly_of_zero_modes(spec, ("x",)) == []
    got2 = dict(anomaly_of_zero_modes(spec, ("x",) * 2))
    assert got2 == {1: {F(1): ScaledRational(4, -2)}}
    got3 = dict(anomaly_of_zero_modes(spec, ("x",) * 3))
    assert got3 == {1: {F(2): ScaledRational(12, -2)}, 2: {F(1): ScaledRational(24, -4)}}


def test_weight2_s4_needs_untabulated_depth():
    # the s=4 inversion involves g^2_j coefficients whose anomaly the table
    # does not cover; the computation must refuse rather than guess
    spec = weight2_spec()
    with pytest.raises(DeltaUnknownError):
        anomaly_of_zero_modes(spec, ("x",) * 4)


def test_weight2_s4_reduction_still_works():
    spec = weight2_spec()
    inv = hha.invert_to_full(spec, ("x",) * 4)
    assert inv.max_insertions() == 4
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
        delta_anomaly("P_1")
