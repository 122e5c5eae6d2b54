from fractions import Fraction
from functools import reduce
from math import comb, factorial
from operator import mul

import pytest
from hypothesis import given, strategies as st

from torusmodes import hha, verify
from torusmodes.hha import (CorrExpression, CorrSymbol, HHASpec, anomaly_of_zero_modes,
                            weight1_spec, weight2_spec)
from torusmodes.scaled import ScaledRational
from torusmodes.symbols import (B, CoeffPoly, DeltaUnknownError, G, P, Pt,
                                delta_of_symbol, delta_transform, derive_poly,
                                function_symbol, g, zvar)

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
    # Delta(f f) = f Delta f + (Delta f) f + Delta f Delta f exactly, on f = P~_1
    assert_case("elliptic-numeric", "delta_anomaly_Ptilde_1")


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


def _reference_anomaly(spec, gens):
    """The anomaly through exp(B D) - 1 on every coefficient of the inversion,
    reduced and split by B-power: the route the engine took before it computed
    N once per zero-mode multiset, kept as its reference."""
    result = hha.reduce_to_zero_modes(spec, CorrExpression(
        {sym: delta_transform(poly) for sym, poly in hha.invert_to_full(spec, gens).terms.items()}))
    graded = {}
    for sym, poly in result.terms.items():
        if poly.mentions("z"):
            raise AssertionError(f"anomaly left z-dependence on {sym!r}: {poly!r}")
        for mono, c in poly.terms.items():
            if len(mono) != 1 or mono[0][0] != ("B",):
                raise AssertionError(f"anomaly left a term {mono} that is no power of B")
            graded.setdefault(mono[0][1], {})[sym] = c
    return [(k, graded[k]) for k in sorted(graded)]


def _perturbed_weight2(m, value):
    """weight2_spec with the constant of x[m]x set to ``value``."""
    table = dict(weight2_spec().table)
    (coeff, dpow, target), = table[("x", "x", m)]
    table[("x", "x", m)] = ((ScaledRational(value, coeff.tpi), dpow, target),)
    return HHASpec({"1": 0, "x": 2}, table)


def _heisenberg(cross):
    """a (weight 1) and x = a[-1]**2 1 - 1/12 (weight 2) of one Heisenberg field:
    a[1]a = (2 pi i)**-2, the x.x entries of weight2_spec, and a[1]x = x[1]a =
    cross (2 pi i)**-2 a, x[0]a = cross (2 pi i)**-2 L[-1]a, with cross = 2 there."""
    table = dict(weight2_spec().table)
    table[("a", "a", 1)] = ((ScaledRational(1, -2), 0, "1"),)
    table[("a", "x", 1)] = table[("x", "a", 1)] = ((ScaledRational(cross, -2), 0, "a"),)
    table[("x", "a", 0)] = ((ScaledRational(cross, -2), 1, "a"),)
    return HHASpec({"1": 0, "a": 1, "x": 2}, table)


_MIXED = [("a",) * s + ("x",) * r for s in range(5) for r in range(4) if 0 < s + r <= 5]
# (spec factory, correlators): the built-in algebras, four weight-2 tables with
# one constant changed, and the two-generator table with cross constant 1, 2 or 3
_FAMILIES = {
    "weight1": (weight1_spec, [("a",) * s for s in range(1, 9)]),
    "weight2": (weight2_spec, [("x",) * s for s in range(1, 6)]),
    **{f"weight2_x{m}x={v}": (lambda m=m, v=v: _perturbed_weight2(m, v),
                              [("x",) * s for s in range(1, 6)])
       for m, v in ((0, 3), (1, 3), (1, 5), (3, 1))},
    **{f"heisenberg_cross={c}": (lambda c=c: _heisenberg(c), _MIXED) for c in (1, 2, 3)},
}


# the first tuple at which the table check refuses each faulty table
_REFUSED = {
    **{f"weight2_x{m}x={v}": r"skew-symmetry fails at \(a, b, n\) = \('x', 'x', 0\)"
       for m, v in ((0, 3), (1, 3), (1, 5))},
    **{f"heisenberg_cross={c}": r"commutator formula fails at "
                                r"\(a, b, c, m, n\) = \('a', 'x', 'x', 1, 0\)" for c in (1, 3)},
}


@pytest.mark.parametrize("family", _FAMILIES)
def test_engine_equals_the_exp_bd_reference(family):
    # exp(B N) on the zero-mode correlators against exp(B D) - 1 on every
    # coefficient of the inversion: the same result on every algebra (x[3]x = 1
    # is the Virasoro table at central charge 1/2 in place of 1), while a faulty
    # table is refused when its spec is built, before any correlator is reduced
    make, correlators = _FAMILIES[family]
    if family in _REFUSED:
        with pytest.raises(hha.AxiomError, match=_REFUSED[family]):
            make()
        return
    for gens in correlators:
        assert anomaly_of_zero_modes(make(), gens) == _reference_anomaly(make(), gens), gens


def test_linear_part_is_memoised_per_multiset():
    spec = weight1_spec()
    anomaly_of_zero_modes(spec, ("a",) * 6)
    assert sorted(spec.anomaly_memo) == [("a",) * s for s in (0, 2, 4, 6)]
    assert spec.anomaly_memo[("a",) * 6] == ((CorrSymbol(("a",) * 4, ()), ScaledRational(15, -2)),)
    assert spec.anomaly_memo[()] == ()


def _assert_both_routes(spec, modes, want):
    """N F(modes) is ``want`` by the pair contraction, and by the reduction of
    its full correlator, the second route of the hha-contraction suite."""
    assert hha.contraction_n(spec, modes) == want, modes
    assert verify._reduction_n(spec, modes) == CorrExpression(
        {sym: CoeffPoly.scalar(c) for sym, c in want}), modes


@pytest.mark.parametrize("pairing", [1, Fraction(3, 2)])
def test_linear_part_of_weight1_pairs_two_zero_modes(pairing):
    # N F(a0^s) = C(s, 2) <a,a> (2 pi i)^-2 F(a0^(s-2))
    spec = weight1_spec(pairing)
    for s in range(1, 11):
        want = ((CorrSymbol(("a",) * (s - 2), ()), ScaledRational(comb(s, 2) * pairing, -2)),)
        _assert_both_routes(spec, ("a",) * s, want if s > 1 else ())


def test_linear_part_of_weight2_lowers_one_zero_mode():
    # N F(x0^s) = 2 s (s-1) (2 pi i)^-2 F(x0^(s-1))
    spec = weight2_spec()
    for s in range(1, 7):
        want = ((CorrSymbol(("x",) * (s - 1), ()), ScaledRational(2 * s * (s - 1), -2)),)
        _assert_both_routes(spec, ("x",) * s, want if s > 1 else ())


@pytest.mark.parametrize("pairing", [1, Fraction(3, 2)])
def test_weight1_anomaly_is_gaussian_up_to_the_largest_correlator(pairing):
    # G(t) = sum_s F(a0^s) t^s/s! goes to exp(<a,a> beta t^2/2) G(t): the beta^k part
    # of F(a0^s) is s!/(2^k k! (s-2k)!) <a,a>^k F(a0^(s-2k))
    spec = weight1_spec(pairing)
    for s in range(1, hha.MAX_ZERO_MODES + 1):
        assert anomaly_of_zero_modes(spec, ("a",) * s) == [
            (k, {CorrSymbol(("a",) * (s - 2 * k), ()): ScaledRational(
                Fraction(factorial(s), 2 ** k * factorial(k) * factorial(s - 2 * k))
                * pairing ** k, -2 * k)})
            for k in range(1, s // 2 + 1)], s


def test_weight2_anomaly_is_mobius_up_to_the_largest_correlator():
    # G(t) goes to G(t/(1 - 2 beta t)): the beta^k part of F(x0^s) is
    # 2^k L(s, s-k) F(x0^(s-k)), with the Lah numbers L(n, j) = C(n-1, j-1) n!/j!
    spec = weight2_spec()
    for s in range(1, hha.MAX_ZERO_MODES + 1):
        assert anomaly_of_zero_modes(spec, ("x",) * s) == [
            (k, {CorrSymbol(("x",) * (s - k), ()): ScaledRational(
                2 ** k * comb(s - 1, s - k - 1) * factorial(s) // factorial(s - k), -2 * k)})
            for k in range(1, s)], s


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


@given(_b_free_polys, _b_free_polys)
def test_derive_poly_is_a_derivation(f, h):
    assert derive_poly(f * h) == f * derive_poly(h) + derive_poly(f) * h


def _product_delta(poly):
    """Delta through multiplicativity: prod_i (s_i + Delta s_i)**e_i expanded,
    minus poly, with each Delta s_i from delta_of_symbol: the route
    delta_transform took before it summed exp(B D) - 1 on the whole
    polynomial, kept as its reference."""
    total = CoeffPoly()
    for mono, c in poly.terms.items():
        factors = [CoeffPoly.symbol(s) + delta_of_symbol(s) for s, e in mono for _ in range(e)]
        total.iadd(reduce(mul, factors, CoeffPoly.scalar(c)))
    return total - poly


@given(_b_free_polys)
def test_delta_transform_equals_the_product_expansion(f):
    assert delta_transform(f) == _product_delta(f)


def test_delta_of_symbol_runs_by_z_degree_then_b_power():
    # the order numerics.poly_value sums in, which fixes reports' last digits
    syms = ([function_symbol(f"P_{k}") for k in range(2, 7)]
            + [function_symbol(fn) for fn in ("Ptilde_1", "G_2", "G_4")]
            + [function_symbol(f"g_{i}_{j}") for i in range(1, 5) for j in range(i + 1, i + 7)])
    for sym in syms:
        keys = [(sum(e for s, e in m if s[0] == "z"), dict(m).get(("B",), 0))
                for m in delta_of_symbol(sym).terms]
        assert keys == sorted(keys), sym
