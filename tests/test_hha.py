import json
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from torusmodes import hha
from torusmodes.hha import (CorrExpression, CorrSymbol, HHAError, State,
                            bracket_conversion, d_state, invert_to_full,
                            parse_zero_mode_correlator, peel_zero_modes,
                            reduce_once, reduce_once_ordered,
                            reduce_to_zero_modes, square_action, to_commuting,
                            weight1_configuration_formula, weight1_spec,
                            weight2_spec)
from torusmodes.scaled import ScaledRational
from torusmodes.symbols import ONE, CoeffPoly, G, P, Pt, UnsupportedError, g, zvar


@pytest.fixture(scope="module")
def w2():
    return weight2_spec()


@pytest.fixture(scope="module")
def w1():
    return weight1_spec()


def test_spec_validation():
    with pytest.raises(HHAError):
        # inhomogeneous entry: weights 2-1-1+2 = 2 but target claims L^2 x (weight 4)
        hha.HHASpec({"1": 0, "x": 2},
                    {("x", "x", 1): ((ScaledRational(1), 2, "x"),)})
    with pytest.raises(hha.ClosureError):
        hha.HHASpec({"1": 0, "x": 2},
                    {("x", "x", 1): ((ScaledRational(1), 0, "y"),)})
    with pytest.raises(HHAError):
        hha.HHASpec({"1": 1}, {})


def test_spec_json_round_trip(w2, tmp_path):
    data = w2.to_json()
    back = hha.HHASpec.from_json(data)
    assert back.table == w2.table and back.weights == w2.weights
    path = tmp_path / "weight2.json"
    path.write_text(json.dumps(data))
    loaded = hha.HHASpec.load(path)
    assert loaded.table == w2.table


def test_square_action_table(w2):
    x = State.basis("x")
    assert square_action(w2, x, 1, x).terms == {(0, "x"): ScaledRational(4, -2)}
    assert square_action(w2, x, 2, x).terms == {}
    assert square_action(w2, x, 3, x).terms == {(0, "1"): ScaledRational(2, -4)}
    assert square_action(w2, x, 0, x).terms == {(1, "x"): ScaledRational(2, -2)}
    # (x[0]x)[m]x = (2/(2 pi i)^2)(-m) x[m-1]x
    x0x = square_action(w2, x, 0, x)
    assert square_action(w2, x0x, 2, x).terms == {(0, "x"): ScaledRational(-16, -4)}
    assert square_action(w2, x0x, 4, x).terms == {(0, "1"): ScaledRational(-16, -6)}
    # identity acts trivially on nonnegative modes
    one = State.basis("1")
    assert square_action(w2, one, 1, x).terms == {}
    assert square_action(w2, x, 1, one).terms == {}


def test_d_states(w2, w1):
    x = State.basis("x")
    assert d_state(w2, (), x).terms == x.terms
    d1 = d_state(w2, ("x",), x)
    assert d1.terms == {(1, "x"): ScaledRational(-2, -2)}
    d2 = d_state(w2, ("x", "x"), x)
    assert d2.terms == {(2, "x"): ScaledRational(4, -4)}
    assert d_state(w1, ("a",), State.basis("a")).terms == {}


def test_bracket_conversion():
    assert bracket_conversion(1, 0, 0) == 1
    assert bracket_conversion(1, 2, 0) == 0  # c(1,i,0) = delta_{i,0}
    for h in (Fraction(5, 2), 3, Fraction(1, 3)):
        # c(h, i, 0) = binom(h-1, i)
        b = Fraction(1)
        for i in range(4):
            assert bracket_conversion(h, i, 0) == b
            b *= (Fraction(h) - 1 - i)
            b /= (i + 1)
    assert bracket_conversion(2, 1, 1) == 1


def test_corr_symbol_normal_form(w2):
    with pytest.raises(HHAError):
        CorrSymbol((), ((1, 0, "x"), (1, 0, "x")))  # duplicate positions
    sym = CorrSymbol(("x", "x"), ((2, 0, "x"),))
    assert sym.weight(w2) == 6
    assert sym.kind() == "mixed"
    assert repr(CorrSymbol(("x",) * 2, ())) == "F(x0^2)"


def test_reduce_head_only_without_other_positions(w2):
    expr = CorrExpression.single(CorrSymbol((), ((5, 0, "x"),)))
    red = reduce_once(w2, expr)
    assert red == CorrExpression.single(CorrSymbol(("x",), ()))
    # lone L[-1]-descendant insertions vanish
    expr = CorrExpression.single(CorrSymbol(("x",), ((5, 1, "x"),)))
    assert reduce_once(w2, expr).is_zero()


def test_two_zero_mode_expansion_fixture(w2):
    inv = invert_to_full(w2, ("x", "x"))
    want = CorrExpression()
    want.add_term(CorrSymbol((), ((1, 0, "x"), (2, 0, "x"))), ONE)
    want.add_term(CorrSymbol((), ((2, 0, "x"),)), -(P(2, 2, 1) * ScaledRational(4, -2)))
    want.add_term(CorrSymbol((), ()), -(P(4, 2, 1) * ScaledRational(2, -4)))
    assert inv == want


def test_three_zero_mode_first_peel_fixture(w2):
    two = invert_to_full(w2, ("x",) * 3, steps=2)
    want = CorrExpression()
    want.add_term(CorrSymbol(("x",), ((2, 0, "x"), (3, 0, "x"))), ONE)
    want.add_term(CorrSymbol(("x",), ((3, 0, "x"),)), -(P(2, 3, 2) * ScaledRational(4, -2)))
    want.add_term(CorrSymbol(("x",), ()), -(P(4, 3, 2) * ScaledRational(2, -4)))
    want.add_term(CorrSymbol((), ((3, 0, "x"),)), -(g(1, 3, 3, 2) * ScaledRational(16, -4)))
    want.add_term(CorrSymbol((), ()), -(g(1, 5, 3, 2) * ScaledRational(16, -6)))
    assert two == want


def test_round_trip_triangularity(w1, w2):
    for spec, gen in ((w1, "a"), (w2, "x")):
        for s in range(1, 5):
            inv = invert_to_full(spec, (gen,) * s)
            back = reduce_to_zero_modes(spec, inv)
            assert back == CorrExpression.single(CorrSymbol((gen,) * s, ()))


def test_weight1_recursion_matches_configurations(w1):
    for s in range(0, 7):
        for n in range(0, 7 - s):
            if s == 0 and n == 0:
                continue
            start = CorrExpression.single(
                CorrSymbol(("a",) * s,
                           tuple((p, 0, "a") for p in range(s + 1, s + n + 1))))
            engine = peel_zero_modes(w1, start, list(range(1, s + 1)))
            assert engine == weight1_configuration_formula(n, s)


def test_weight1_reduction_to_zero_modes(w1):
    # F((a,1),(a,2)) = F(a0^2) + <a,a>/(2 pi i)^2 P_2(2/1) F(,)
    expr = CorrExpression.single(CorrSymbol((), ((1, 0, "a"), (2, 0, "a"))))
    red = reduce_to_zero_modes(w1, expr)
    want = CorrExpression()
    want.add_term(CorrSymbol(("a", "a"), ()), ONE)
    want.add_term(CorrSymbol((), ()), P(2, 2, 1) * ScaledRational(1, -2))
    assert red == want


def test_repeated_zero_mode_binomial_multiplicity(w2):
    # for r identical zero modes, the |S| = s tail coefficient carries binom(r, s)
    r = 3
    sym = CorrSymbol(("x",) * r, ((1, 0, "x"), (2, 0, "x")))
    red = reduce_once(w2, CorrExpression.single(sym))
    # the g^1_3(2/1)-coefficient term comes with d^(1)[2]x = 16/(2pi i)^4 x and binom(3,1)
    target = CorrSymbol(("x",) * (r - 1), ((2, 0, "x"),))
    poly = red.terms[target]
    want = -(g(1, 3, 2, 1) * ScaledRational(3 * 16, -4))
    mono = next(iter(want.terms))
    assert poly.terms[mono] == want.terms[mono] * (-1)


def test_ordered_collapse(w2):
    for r in range(0, 5):
        ins = ((1, 0, "x"), (2, 0, "x"), (3, 0, "x"))
        red_c = reduce_once(w2, CorrExpression.single(CorrSymbol(("x",) * r, ins)))
        red_o = to_commuting(reduce_once_ordered(
            w2, CorrExpression.single(CorrSymbol(("x",) * r, ins, ordered=True))))
        assert red_c == red_o


def test_ordered_r1_tail_is_g1(w2):
    # r=1: the |S|=1 layer coefficient is exactly g^1_{m+1}
    sym = CorrSymbol(("x",), ((1, 0, "x"), (2, 0, "x")), ordered=True)
    red = reduce_once_ordered(w2, CorrExpression.single(sym))
    target = CorrSymbol((), ((2, 0, "x"),), ordered=True)
    poly = red.terms[target]
    # coefficient should contain g^1_3(2/1) * 16/(2pi i)^4 exactly (2 pi i)^{1-1} rc(1,0,1)=1
    mono = next(iter(g(1, 3, 2, 1).terms))
    assert poly.terms[mono] == ScaledRational(16, -4)


def test_a0_cancellation_pair(w2):
    e = CorrExpression()
    e.add_term(CorrSymbol((), ((2, 1, "x"), (3, 0, "x"))), ONE)
    e.add_term(CorrSymbol((), ((2, 0, "x"), (3, 1, "x"))), ONE)
    assert reduce_to_zero_modes(w2, e).is_zero()


def test_pi_marker_present_mid_reduction_absent_at_end(w2):
    expr = CorrExpression.single(
        CorrSymbol((), ((1, 0, "x"), (2, 0, "x"), (3, 0, "x"))))
    once = reduce_once(w2, expr)
    has_marker = any(any(s == ("pi",) for s, _ in mono)
                     for poly in once.terms.values() for mono in poly.terms)
    assert has_marker
    final = reduce_to_zero_modes(w2, expr)
    has_marker = any(any(s == ("pi",) for s, _ in mono)
                     for poly in final.terms.values() for mono in poly.terms)
    assert not has_marker


def test_weight_bookkeeping_guard():
    # a deliberately inhomogeneous table is rejected at construction
    with pytest.raises(HHAError):
        hha.HHASpec({"1": 0, "x": 2}, {("x", "x", 1): ((ScaledRational(1), 1, "x"),)})


def test_parse_zero_mode_correlator():
    assert parse_zero_mode_correlator("x0^3") == ("x", "x", "x")
    assert parse_zero_mode_correlator("a0 a0") == ("a", "a")
    assert parse_zero_mode_correlator("x0 * x0^2") == ("x", "x", "x")
    with pytest.raises(ValueError):
        parse_zero_mode_correlator("bogus")
    with pytest.raises(ValueError):
        parse_zero_mode_correlator("")
    assert parse_zero_mode_correlator(f"x0^{hha.MAX_ZERO_MODES}") == ("x",) * hha.MAX_ZERO_MODES
    with pytest.raises(ValueError, match="at most"):
        parse_zero_mode_correlator(f"x0 x0^{hha.MAX_ZERO_MODES}")


def test_expression_serialization(w2):
    inv = invert_to_full(w2, ("x", "x"))
    data = inv.to_json()
    assert any(entry["symbol"] == "F((x,1),(x,2))" for entry in data)


def test_noncommuting_spec_rejected_at_load(w2):
    data = w2.to_json()
    with pytest.raises(UnsupportedError, match='"commuting": false'):
        hha.HHASpec.from_json({**data, "commuting": False})
    # bool("no") would read as True; only JSON booleans are accepted
    with pytest.raises(HHAError, match='"commuting" must be true or false'):
        hha.HHASpec.from_json({**data, "commuting": "no"})
    assert hha.HHASpec.from_json({**data, "commuting": True}).table == w2.table


def _two_heisenberg_spec():
    # two commuting weight-1 fields with orthogonal pairings
    return hha.HHASpec(
        {"1": 0, "a": 1, "b": 1},
        {("a", "a", 1): ((ScaledRational(1, -2), 0, "1"),),
         ("b", "b", 1): ((ScaledRational(2, -2), 0, "1"),)})


def test_two_generator_multiset_reduction():
    spec = _two_heisenberg_spec()
    # cross products vanish: F(a0 b0) = F((a,1),(b,2)) with no pairing tail
    inv = invert_to_full(spec, ("a", "b"))
    assert len(inv.terms) == 1
    (sym, poly), = inv.terms.items()
    assert sorted(gen for _, _, gen in sym.insertions) == ["a", "b"]
    assert (poly - ONE).is_zero()
    # same-species pairs survive with their own pairing constants
    inv2 = invert_to_full(spec, ("a", "a", "b", "b"))
    back = reduce_to_zero_modes(spec, inv2)
    assert back == CorrExpression.single(CorrSymbol(("a", "a", "b", "b"), ()))
    poly = inv2.terms[CorrSymbol((), ())]
    (mono, coeff), = poly.terms.items()
    assert coeff == ScaledRational(2, -4)  # (-1)(-2) from the two species pairings
    assert {s[0] for s, _ in mono} == {"P"}


def test_invert_pool_too_small(w2):
    with pytest.raises(HHAError):
        hha.invert_to_full(w2, ("x", "x"), positions=[1])


# -- the shape memo of reduce_once ---------------------------------------------

SPECS = {"weight1": weight1_spec, "weight2": weight2_spec,
         "two-heisenberg": _two_heisenberg_spec}
WARM_SPECS = {name: make() for name, make in SPECS.items()}  # memos fill across examples
# a caller coefficient on positions outside every drawn symbol, of mixed weight
BASE = P(2, 100, 99) * ScaledRational(3) + G(4)


@st.composite
def placed_shapes(draw):
    """A spec name, zero modes, a shape of (L-power, generator) and increasing positions."""
    name = draw(st.sampled_from(sorted(SPECS)))
    gens = [gen for gen in SPECS[name]().generators() if gen != "1"]
    modes = draw(st.lists(st.sampled_from(gens), max_size=3))
    shape = draw(st.lists(st.tuples(st.integers(0, 1), st.sampled_from(gens)),
                          min_size=1, max_size=3))
    positions = sorted(draw(st.sets(st.integers(1, 40), min_size=len(shape),
                                    max_size=len(shape))))
    return name, tuple(modes), shape, positions


def _placed(modes, shape, positions):
    return CorrSymbol(modes, tuple((p, d, gen) for p, (d, gen) in zip(positions, shape)))


def _moved(sym, label):
    kind = sym[0]
    if kind == "P":
        return P(sym[1], label[sym[2]], label[sym[3]])
    if kind == "Pt":
        return Pt(label[sym[1]], label[sym[2]])
    if kind == "g":
        return g(sym[1], sym[2], label[sym[3]], label[sym[4]])
    if kind == "z":
        return zvar(label[sym[1]])
    return CoeffPoly.symbol(sym)


def _relabeled(expr, label):
    """Move position i to label[i], rebuilding every coefficient through the
    orienting symbol constructors and the sorting product."""
    out = CorrExpression()
    for sym, poly in expr.terms.items():
        moved = CoeffPoly.zero()
        for mono, c in poly.terms.items():
            term = CoeffPoly.scalar(c)
            for s, e in mono:
                for _ in range(e):
                    term = term * _moved(s, label)
            moved = moved + term
        out.add_term(_placed(sym.modes, [(d, gen) for _, d, gen in sym.insertions],
                             [label[p] for p in sym.positions()]), moved)
    return out


def _memo_snapshot(spec):
    return {key: [(sym, dict(poly.terms)) for sym, poly in terms]
            for key, terms in spec.shape_memo.items()}


@given(placed_shapes())
def test_reduce_once_is_position_equivariant(case):
    name, modes, shape, positions = case
    sym = _placed(modes, shape, positions)
    warm = WARM_SPECS[name]
    got = reduce_once(warm, CorrExpression.single(sym))
    assert got == reduce_once(SPECS[name](), CorrExpression.single(sym))
    canonical = reduce_once(SPECS[name](), CorrExpression.single(
        _placed(modes, shape, range(1, len(shape) + 1))))
    assert got == _relabeled(canonical, (None,) + tuple(positions))
    scaled = reduce_once(warm, CorrExpression.single(sym, BASE))
    assert scaled.terms == {s: p * BASE for s, p in got.terms.items()}


@given(placed_shapes())
def test_repeated_reduce_once_leaves_memo_unchanged(case):
    name, modes, shape, positions = case
    spec = SPECS[name]()
    sym = _placed(modes, shape, positions)
    first = reduce_once(spec, CorrExpression.single(sym))
    snapshot = _memo_snapshot(spec)
    assert reduce_once(spec, CorrExpression.single(sym)) == first
    reduce_once(spec, CorrExpression.single(_placed(modes, shape, [2 * p for p in positions])))
    assert _memo_snapshot(spec) == snapshot


def test_weight_check_runs_on_memo_miss(monkeypatch):
    # a layer coefficient of the wrong weight is caught even under a caller
    # coefficient of mixed weight
    layer = hha.p_layer_coefficient
    monkeypatch.setattr(hha, "p_layer_coefficient", lambda *args: layer(*args) * G(2))
    sym = CorrSymbol(("x",), ((3, 0, "x"), (7, 0, "x")))
    with pytest.raises(hha.WeightBookkeepingError, match="weight bookkeeping"):
        reduce_once(weight2_spec(), CorrExpression.single(sym, ONE + P(2, 9, 8)))
