import gc
import inspect
import json
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from torusmodes import cli, hha
from torusmodes.hha import (CorrExpression, CorrSymbol, HHAError, basis,
                            d_state, invert_to_full,
                            parse_zero_mode_correlator, reduce_once, reduce_once_ordered,
                            reduce_to_zero_modes, square_action, weight1_spec,
                            weight2_spec)
from torusmodes.scaled import ScaledRational
from torusmodes.symbols import (ONE, PI_MARK, CoeffPoly, DeltaUnknownError, G, P, Pt,
                                UnsupportedError, g, zvar)

from suite_cases import assert_case
from test_symbols import _positions, _reference_mono_mul, _relabel


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
    loaded = cli._load("spec", str(path))
    assert loaded.table == w2.table
    # a file may name the identity, as "1"
    assert hha.HHASpec.from_json({**data, "identity": "1"}).table == w2.table


def test_spec_without_grades_is_a_rescaled_generator(w2):
    # with every "tpi" dropped the file reads x[0]x = 2 L[-1]x, x[1]x = 4 x and
    # x[3]x = 2: the built-in algebra in the generator x' = (2*pi*i)**2 x.  A
    # correlator with s zero modes x'_0 and n insertions of x' is (2*pi*i)**(2(s-n))
    # times the built-in one, in the engine's results as in the algebra.
    data = w2.to_json()
    for entry in data["structure"]:
        for out in entry["out"]:
            del out["tpi"]
    bare = hha.HHASpec.from_json(data)
    for s in range(1, 6):
        want = invert_to_full(w2, ("x",) * s).terms
        got = invert_to_full(bare, ("x",) * s).terms
        assert got == {sym: poly * ScaledRational(1, 2 * (s - len(sym.insertions)))
                       for sym, poly in want.items()}
    for s in range(1, 4):
        want = hha.anomaly_of_zero_modes(w2, ("x",) * s)
        got = hha.anomaly_of_zero_modes(bare, ("x",) * s)
        assert got == [(k, {sym: c * ScaledRational(1, 2 * (s - len(sym.modes)))
                            for sym, c in coeffs.items()}) for k, coeffs in want]
    # the two files differ in their printed grades: F(x0^2) has 12, not 12/(2*pi*i)**2
    assert got[0][1] != want[0][1]


def test_square_action_table(w2):
    x = basis("x")
    assert square_action(w2, x, 1, x) == {(0, "x"): ScaledRational(4, -2)}
    assert square_action(w2, x, 2, x) == {}
    assert square_action(w2, x, 3, x) == {(0, "1"): ScaledRational(2, -4)}
    assert square_action(w2, x, 0, x) == {(1, "x"): ScaledRational(2, -2)}
    # (x[0]x)[m]x = (2/(2 pi i)^2)(-m) x[m-1]x
    x0x = square_action(w2, x, 0, x)
    assert square_action(w2, x0x, 2, x) == {(0, "x"): ScaledRational(-16, -4)}
    assert square_action(w2, x0x, 4, x) == {(0, "1"): ScaledRational(-16, -6)}
    # identity acts trivially on nonnegative modes
    one = basis("1")
    assert square_action(w2, one, 1, x) == {}
    assert square_action(w2, x, 1, one) == {}


def test_square_action_drops_the_vacuums_descendants(w2):
    # x[3](L[-1]x) = L[-1](x[3]x) + 3 x[2]x = 2/(2 pi i)^4 L[-1]1, and L[-1]1 = 0
    assert square_action(w2, basis("x"), 3, basis("x", 1)) == {}


def test_table_check_names_the_first_failing_tuple():
    # h[0]h = 1 for a weight-1/2 field: skew-symmetry asks h[0]h = -h[0]h at n = 0,
    # the only mode n <= floor(1/2 + 1/2 - 1) = 0
    failure = r"skew-symmetry fails at \(a, b, n\) = \('h', 'h', 0\)"
    with pytest.raises(hha.AxiomError, match=failure):
        hha.HHASpec({"h": Fraction(1, 2)}, {("h", "h", 0): ((ScaledRational(1), 0, "1"),)})


def test_table_off_its_grades_names_the_first_entry_that_contradicts():
    # two weight-1 fields paired at grades -2, -3, -3, -2: each entry alone fits
    # a rescaling a -> (2*pi*i)**g(a) a, but a[1]a puts g(a) = 0, a[1]b then
    # g(b) = -1, and b[1]b asks 2 g(b) = 0
    def pair(tpi):
        return ((ScaledRational(1, tpi), 0, "1"),)

    table = {("a", "a", 1): pair(-2), ("a", "b", 1): pair(-3), ("b", "a", 1): pair(-3),
             ("b", "b", 1): pair(-2)}
    with pytest.raises(hha.AxiomError, match=r"b\[1\]b -> \(2\*pi\*i\)\^-2 L\^0 1 contradicts"):
        hha.HHASpec({"a": 1, "b": 1}, table)
    # at one grade the same pairing fits g = 0
    hha.HHASpec({"a": 1, "b": 1}, {key: pair(-2) for key in table})


@pytest.mark.parametrize("weight, pairing", [(200, False), (2000, False), (10 ** 6, False),
                                             (100, True)],
                         ids=["200", "2000", "1000000", "pairing-100"])
def test_table_check_stops_where_the_table_reaches(weight, pairing):
    # one generator with an empty table: the check runs to the table's largest
    # mode, 0, and not to the homogeneity bound 2 * weight - 1; with the pairing
    # v[2 * weight - 1]v = 1/(2 pi i)**(2 * weight) it runs to that mode, and
    # each j-sum reads the table's one mode
    table = {}
    if pairing:
        table["v", "v", 2 * weight - 1] = ((ScaledRational(1, -2 * weight), 0, "1"),)
    start = time.perf_counter()
    hha.HHASpec({"v": weight}, table)
    assert time.perf_counter() - start < 1
    # v[0]v = L[-1]**(weight - 1) v breaks skew-symmetry at n = 0, within that reach
    failure = r"skew-symmetry fails at \(a, b, n\) = \('v', 'v', 0\)"
    with pytest.raises(hha.AxiomError, match=failure):
        hha.HHASpec({"v": weight}, {**table, ("v", "v", 0): ((1, weight - 1, "v"),)})
    assert time.perf_counter() - start < 1


def test_negative_weight_is_refused():
    # a[4]b = a is homogeneous (-1 - 4 - 1 + 5 = -1), and b[4]a = 0 breaks skew-symmetry
    # at n = 4, above the check's bound floor(-1 + 5 - 1) = 3: the weight is refused first
    with pytest.raises(HHAError, match="generator 'a' has negative weight -1"):
        hha.HHASpec({"1": 0, "a": -1, "b": 5}, {("a", "b", 4): ((1, 0, "a"),)})
    with pytest.raises(HHAError, match="negative weight -1/2"):
        hha.HHASpec({"h": Fraction(-1, 2)}, {})


def test_d_states(w2, w1):
    x = basis("x")
    assert d_state(w2, (), x) == x
    assert d_state(w2, ("x",), x) == {(1, "x"): ScaledRational(-2, -2)}
    assert d_state(w2, ("x", "x"), x) == {(2, "x"): ScaledRational(4, -4)}
    assert d_state(w1, ("a",), basis("a")) == {}


def test_corr_symbol_normal_form(w2):
    with pytest.raises(HHAError):
        CorrSymbol((), ((1, 0, "x"), (1, 0, "x")))  # duplicate positions
    sym = CorrSymbol(("x", "x"), ((2, 0, "x"),))
    assert sym.weight(w2) == 6 and type(sym.weight(w2)) is int
    # integral weights are kept as ints, others as Fractions
    half = hha.HHASpec({"h": Fraction(1, 2), "y": Fraction(3)}, {})
    assert half.weights == {"1": 0, "h": Fraction(1, 2), "y": 3} and type(half.weights["y"]) is int
    assert CorrSymbol(("h",), ((1, 1, "y"),)).weight(half) == Fraction(9, 2)
    assert repr(CorrSymbol(("x",) * 2, ())) == "F(x0^2)"


def test_reduce_head_only_without_other_positions(w2):
    expr = CorrExpression.single(CorrSymbol((), ((5, 0, "x"),)))
    red = reduce_once(w2, expr)
    assert red == CorrExpression.single(CorrSymbol(("x",), ()))
    # lone L[-1]-descendant insertions vanish
    expr = CorrExpression.single(CorrSymbol(("x",), ((5, 1, "x"),)))
    assert reduce_once(w2, expr).is_zero()


def test_two_zero_mode_expansion_fixture():
    assert_case("hha-weight2", "two_zero_modes_expansion_termwise")


def test_three_zero_mode_first_peel_fixture():
    assert_case("hha-weight2", "three_zero_modes_first_peel_termwise")


def test_round_trip_triangularity():
    assert_case("hha-weight1", "round_trip_s<=4")
    assert_case("hha-weight2", "round_trip_s<=4")


def test_weight1_recursion_matches_configurations():
    assert_case("hha-weight1", "configuration_formula_n+s<=6")


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


def test_ordered_collapse():
    assert_case("hha-weight2", "ordered_collapse_r<=4")


def test_ordered_r1_tail_is_g1(w2):
    # r=1: the |S|=1 layer coefficient is exactly g^1_{m+1}
    red = reduce_once_ordered(w2, ("x",), ((1, 0, "x"), (2, 0, "x")))
    poly = red.terms[CorrSymbol((), ((2, 0, "x"),))]
    # coefficient should contain g^1_3(2/1) * 16/(2pi i)^4 exactly (2 pi i)^{1-1} rc(1,0,1)=1
    mono = next(iter(g(1, 3, 2, 1).terms))
    assert poly.terms[mono] == ScaledRational(16, -4)


def test_a0_cancellation_pair():
    assert_case("hha-weight2", "zero_action_position_sum_cancels")


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


def test_expression_serialization(capsys):
    assert cli.main(["reduce", "--spec", "weight2", "--correlator", "x0^2"]) == 0
    data = json.loads(capsys.readouterr().out)["full_correlator_expansion"]
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


# -- the shape memos of reduce_once and reduce_to_zero_modes -------------------

SPECS = {"weight1": weight1_spec, "weight2": weight2_spec,
         "two-heisenberg": _two_heisenberg_spec}
WARM_SPECS = {name: make() for name, make in SPECS.items()}  # memos fill across examples
# a caller coefficient on positions outside every drawn symbol, of mixed weight
BASE = P(2, 100, 99) * ScaledRational(3) + G(4)


@st.composite
def placed_shapes(draw):
    """A spec name, zero modes, a shape of (L-power, generator) and increasing positions."""
    name = draw(st.sampled_from(sorted(SPECS)))
    gens = [gen for gen in sorted(SPECS[name]().weights) if gen != "1"]
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
        moved = CoeffPoly()
        for mono, c in poly.terms.items():
            term = CoeffPoly.scalar(c)
            for s, e in mono:
                for _ in range(e):
                    term = term * _moved(s, label)
            moved = moved + term
        out.add_term(_placed(sym.modes, [(d, gen) for _, d, gen in sym.insertions],
                             [label[p] for p in sym.positions()]), moved)
    return out


def _copied(entry):
    """A memo entry with every polynomial and state copied into a plain dict."""
    if isinstance(entry, CoeffPoly):
        return dict(entry.terms)
    if isinstance(entry, dict):
        return dict(entry)
    if isinstance(entry, tuple):
        return tuple(_copied(item) for item in entry)
    return entry


_MEMOS = ("shape_memo", "zero_mode_memo", "action_memo", "anomaly_memo")


def _memo_snapshot(spec, layers=()):
    """Every memo entry of the spec, and the layer coefficients ``layers``, copied."""
    return {**{(memo, key): _copied(entry)
               for memo in _MEMOS for key, entry in getattr(spec, memo).items()},
            **{("layer", n): _copied(poly) for n, poly in enumerate(layers)}}


@pytest.fixture
def layers(monkeypatch):
    """Every layer coefficient that the process cache hands out while the test runs."""
    seen, layer = [], hha._layer_coefficient
    monkeypatch.setattr(hha, "_layer_coefficient",
                        lambda *key: seen.append(layer(*key)) or seen[-1])
    return seen


def test_a_spec_carries_exactly_four_memos():
    # each memo holds a fact about the spec's table; the layer coefficients read
    # no table and the peel reads the shape step itself
    spec = weight2_spec()
    reduce_to_zero_modes(spec, invert_to_full(spec, ("x",) * 3))
    hha.anomaly_of_zero_modes(spec, ("x",) * 3)
    assert sorted(vars(spec)) == sorted(("weights", "table", "max_m", *_MEMOS))
    assert all(getattr(spec, memo) for memo in _MEMOS)


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
    scaled = reduce_once(warm, CorrExpression({sym: BASE}))
    assert scaled.terms == {s: p * BASE for s, p in got.terms.items()}
    # the per-shape zero-mode reduction the anomaly reads, moved onto the positions
    zero_modes = CorrExpression(dict(hha._shape_zero_modes(warm, sym.modes, tuple(shape))))
    assert _relabeled(zero_modes, (None,) + tuple(positions)) == \
        reduce_to_zero_modes(SPECS[name](), CorrExpression.single(sym))


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


@given(placed_shapes())
def test_shape_step_on_a_warm_spec_is_the_fresh_step(case):
    # the step of a shape and its full reduction, built from memos that other
    # shapes filled, term for term and in the same order as on a spec that has none
    name, modes, shape, _ = case
    warm, fresh = WARM_SPECS[name], SPECS[name]()
    shape = tuple(shape)
    assert hha._shape_step(warm, modes, shape) == hha._shape_step(fresh, modes, shape)
    assert hha._shape_zero_modes(warm, modes, shape) == hha._shape_zero_modes(fresh, modes, shape)


def _reduce_by_passes(spec, expr):
    """The reference full reduction: reduce_once over the whole expression
    until no term keeps an insertion."""
    while any(sym.insertions for sym in expr.terms):
        expr = reduce_once(spec, expr)
    return expr


def _descendant_expression(name):
    """Three-insertion terms with L[-1]-descendants, under caller coefficients."""
    a, b = ("x", "x") if name == "weight2" else ("a", "b")
    return CorrExpression({
        CorrSymbol((b,), ((1, 1, a), (3, 0, a), (5, 2, b))): BASE,
        CorrSymbol((a,), ((2, 0, b), (4, 1, b), (7, 0, a))): P(2, 7, 4) + ONE,
        CorrSymbol((a, b), ((1, 0, a), (2, 1, b), (6, 0, b))): ONE})


@pytest.mark.parametrize("name, build", [
    *[pytest.param("weight1", lambda spec, s=s: invert_to_full(spec, ("a",) * s),
                   id=f"weight1-inverse-s{s}") for s in range(1, 7)],
    *[pytest.param("weight2", lambda spec, s=s: invert_to_full(spec, ("x",) * s),
                   id=f"weight2-inverse-s{s}") for s in range(1, 6)],
    *[pytest.param(name, lambda spec, name=name: _descendant_expression(name),
                   id=f"{name}-descendants") for name in ("weight2", "two-heisenberg")],
])
def test_memo_reduction_matches_repeated_reduce_once(name, build):
    # the recursive per-shape memo against passes of reduce_once over the whole expression
    spec = SPECS[name]()
    expr = build(spec)
    want = _reduce_by_passes(spec, expr)
    assert want == reduce_to_zero_modes(SPECS[name](), expr)
    assert not any(sym.insertions for sym in want.terms)


def _reference_peel(spec, expr, positions):
    # the peel term by term, as it read before the product kernel, at the given
    # fresh positions: -poly times each relabeled tail, every product taken
    # monomial by monomial with _reference_mono_mul
    while any(sym.modes for sym in expr.terms):
        out = CorrExpression()
        for sym, poly in expr.terms.items():
            if not sym.modes:
                out.add_term(sym, poly)
                continue
            b = sym.modes[-1]
            used = _positions(poly).union(sym.positions())
            floor = min(sym.positions(), default=max(positions) + 1)
            fresh = max(p for p in positions if p < floor and p not in used)
            canon = hha._shape_step(spec, sym.modes[:-1], ((0, b),) + hha._shape(sym))
            label = (None, fresh) + tuple(sym.positions())
            out.add_term(CorrSymbol(sym.modes[:-1], sym.insertions + ((fresh, 0, b),)), poly)
            minus = -poly
            for tsym, tpoly in canon[1:]:
                product = CoeffPoly()
                for m1, c1 in minus.terms.items():
                    for m2, c2 in _relabel(tpoly, label).terms.items():
                        product.iadd(CoeffPoly({_reference_mono_mul(m1, m2): c1 * c2}))
                out.add_term(hha._relabel_symbol(tsym, label), product)
        expr = out
    return expr


@pytest.mark.parametrize("name, gens", [
    *[pytest.param("weight2", ("x",) * s, id=f"weight2-s{s}") for s in range(1, 6)],
    *[pytest.param("weight1", ("a",) * s, id=f"weight1-s{s}") for s in range(1, 7)],
])
def test_peel_matches_the_term_by_term_reference(name, gens):
    # the peel multiplies each term's rows by every negated tail; weight 2 from
    # s = 4 on bumps an exponent, which no engine suite reaches
    got = invert_to_full(SPECS[name](), gens)
    want = _reference_peel(SPECS[name](), CorrExpression.single(CorrSymbol(gens, ())),
                           range(1, len(gens) + 1))
    assert got == want
    if name == "weight2" and len(gens) >= 4:
        assert any(e >= 2 for poly in got.terms.values() for m in poly.terms for _, e in m)


@pytest.mark.parametrize("name, terms", [
    # the term of fewest zero modes first: the candidates come from the largest count
    pytest.param("weight2", {CorrSymbol(("x",), ()): ONE, CorrSymbol(("x",) * 3, ()): P(2, 5, 4)},
                 id="weight2-two-terms"),
    pytest.param("weight2", {CorrSymbol(("x",), ((4, 0, "x"),)): G(2),
                             CorrSymbol(("x",) * 2, ((3, 0, "x"), (5, 0, "x"))): ONE},
                 id="weight2-two-terms-insertions-above"),
    pytest.param("weight1", {CorrSymbol(("a",), ((5, 0, "a"),)): P(2, 7, 6),
                             CorrSymbol(("a",) * 3, ()): ONE,
                             CorrSymbol((), ((1, 0, "a"), (2, 0, "a"))): G(4)},
                 id="weight1-three-terms-insertions-above"),
    pytest.param("weight2", {CorrSymbol(("x",) * 2, ()): zvar(3),
                             CorrSymbol(("x",), ()): ONE,
                             CorrSymbol(("x",) * 3, ((6, 1, "x"),)): ONE},
                 id="weight2-three-terms"),
])
def test_peel_derives_its_fresh_positions(name, terms):
    # the fresh candidates are 1..s, s the largest zero-mode count of any term
    s = max(len(sym.modes) for sym in terms)
    want = _reference_peel(SPECS[name](), CorrExpression(terms), range(1, s + 1))
    assert hha.peel_zero_modes(SPECS[name](), CorrExpression(terms)) == want
    assert not any(sym.modes for sym in want.terms)


def test_peel_refuses_a_term_with_no_fresh_position():
    sym = CorrSymbol(("a",) * 2, ((1, 0, "a"),))
    with pytest.raises(HHAError, match="no fresh position available for peeling"):
        hha.peel_zero_modes(weight1_spec(), CorrExpression.single(sym))


def _memo_polys(spec, layers):
    """Every polynomial that a step memo of the spec holds, and the layer coefficients."""
    for memo in ("shape_memo", "zero_mode_memo"):
        for entry in getattr(spec, memo).values():
            yield from (poly for _, poly in entry)
    yield from layers


@pytest.mark.parametrize("cancel", [False, True], ids=["kept", "cancelled"])
def test_peel_owns_every_polynomial_it_returns(cancel, layers):
    # the head of F(x; (x,2)) and the second head of F(x0^2) both land on
    # F(; (x,1), (x,2)), a term with no zero modes; with cancel the three
    # polynomials of that symbol sum to zero and the symbol is dropped
    full = CorrSymbol((), ((1, 0, "x"), (2, 0, "x")))
    a, b = G(4) + ONE, P(2, 4, 3) * ScaledRational(3)
    terms = {CorrSymbol(("x",), ((2, 0, "x"),)): a, CorrSymbol(("x",) * 2, ()): b,
             full: -(a + b) if cancel else zvar(3)}
    expr = CorrExpression(terms)
    before = {sym: dict(poly.terms) for sym, poly in expr.terms.items()}
    spec = weight2_spec()
    got = hha.peel_zero_modes(spec, expr)
    want = _reference_peel(weight2_spec(), CorrExpression(terms), range(1, 3))
    assert got == want and (full in got.terms) is not cancel
    assert {sym: poly.terms for sym, poly in expr.terms.items()} == before
    # no two terms share a polynomial, and none is the caller's, ONE, a memo's
    # or a layer coefficient
    assert layers
    owned = [id(poly) for poly in got.terms.values()]
    shared = {id(poly) for poly in
              [*expr.terms.values(), *terms.values(), ONE, *_memo_polys(spec, layers)]}
    assert len(set(owned)) == len(owned) and not shared.intersection(owned)
    # changing every returned polynomial in place changes no memo, no layer
    # coefficient and no later peel
    snapshot = _memo_snapshot(spec, layers)
    for poly in got.terms.values():
        poly.iadd(poly.copy())
    assert hha.peel_zero_modes(spec, expr) == want
    assert _memo_snapshot(spec, layers) == snapshot and ONE == CoeffPoly.scalar(1)


def test_expression_drops_a_symbol_whose_product_cancels():
    # the peel and the shape map aim the kernel at a symbol's polynomial, made
    # if the symbol has none, and drop the symbol once its polynomial cancels,
    # whichever operand is read as rows; the identity label moves no factor
    sym, other = CorrSymbol(("x",), ()), CorrSymbol((), ((1, 0, "x"),))
    b = Pt(2, 1) - PI_MARK
    for a in (zvar(2), P(2, 2, 1) + zvar(1) * G(4), P(2, 2, 1) + zvar(1) * G(4) + ONE):
        terms = {sym: a * b, other: ONE.copy()}
        for c, want in ((-b, {other: ONE}), (b, {other: ONE, sym: a * b})):
            hha._add_relabeled(a.rows(), ((sym, c),), (None, 1, 2), lambda _: terms)
            assert terms == want


def test_peel_refuses_a_corrupted_memo_head():
    spec = weight2_spec()
    expected = invert_to_full(spec, ("x",) * 2)
    key = (("x",), ((0, "x"),))  # the first peel of F(x0 x0)
    (head, poly), *tails = spec.shape_memo[key]
    for bad in ((head, poly * 2), (CorrSymbol(("x",) * 3, ()), poly)):
        broken = weight2_spec()
        broken.shape_memo = {**spec.shape_memo, key: (bad, *tails)}
        with pytest.raises(HHAError, match="peel head mismatch for F\\(x0\\^2\\)"):
            invert_to_full(broken, ("x",) * 2)
    assert spec.shape_memo[key][0] == (head, poly) and poly == ONE
    assert invert_to_full(spec, ("x",) * 2) == expected


def test_full_reduction_refuses_a_corrupted_step():
    # each full-reduction entry checks that its step lowers the insertion count,
    # so the recursion ends, and that the pi*i markers of its terms cancel
    sym = CorrSymbol((), ((1, 0, "x"), (2, 0, "x")))
    key = ((), ((0, "x"), (0, "x")))
    for step, error, message in (
            (((sym, ONE),), HHAError, "failed to terminate"),
            (((CorrSymbol(("x", "x"), ()), PI_MARK),), hha.CancellationError, "failed to cancel")):
        spec = weight2_spec()
        spec.shape_memo[key] = step
        with pytest.raises(error, match=message):
            reduce_to_zero_modes(spec, CorrExpression.single(sym))
        assert key not in spec.zero_mode_memo


def test_weight_check_runs_on_memo_miss(monkeypatch):
    # a layer coefficient of the wrong weight is caught even under a caller
    # coefficient of mixed weight; the process cache of the layer coefficients
    # is emptied around the patch, so that it neither hides the patched
    # coefficient nor keeps it for a later test
    layer = hha.p_layer_coefficient
    monkeypatch.setattr(hha, "p_layer_coefficient", lambda *args: layer(*args) * G(2))
    hha._layer_coefficient.cache_clear()
    sym = CorrSymbol(("x",), ((3, 0, "x"), (7, 0, "x")))
    try:
        with pytest.raises(hha.WeightBookkeepingError, match="weight bookkeeping"):
            reduce_once(weight2_spec(), CorrExpression({sym: ONE + P(2, 9, 8)}))
    finally:
        hha._layer_coefficient.cache_clear()


def test_accumulation_leaves_shared_polynomials_unchanged(layers):
    # a CorrExpression accumulates in place into its own copies: the global ONE,
    # a caller's polynomial, the entries of every memo of the spec and the
    # cached layer coefficients are never changed
    spec = weight2_spec()
    invert_to_full(spec, ("x",) * 4)
    hha.anomaly_of_zero_modes(spec, ("x",) * 3)
    snapshot = _memo_snapshot(spec, layers)
    invert_to_full(spec, ("x",) * 4)
    hha.anomaly_of_zero_modes(spec, ("x",) * 3)
    hha.anomaly_of_zero_modes(weight1_spec(), ("a",) * 6)
    reduce_to_zero_modes(spec, _descendant_expression("weight2"))
    assert ONE == CoeffPoly.scalar(1)
    assert {k: v for k, v in _memo_snapshot(spec, layers).items() if k in snapshot} == snapshot

    sym = CorrSymbol((), ((1, 0, "x"),))
    expr = CorrExpression.single(sym)
    expr.add_term(sym, ONE)
    assert ONE == CoeffPoly.scalar(1) and expr.terms[sym] == CoeffPoly.scalar(2)
    poly = P(2, 2, 1) + ONE
    before = dict(poly.terms)
    expr = CorrExpression()
    expr.add_term(sym, poly)
    expr.add_term(sym, poly)
    assert poly.terms == before and expr.terms[sym] == poly * 2


# the engine's public entry points, each run with the cyclic GC paused
GC_PAUSED = {
    "invert_to_full": lambda: invert_to_full(weight2_spec(), ("x",) * 3),
    "peel_zero_modes": lambda: hha.peel_zero_modes(
        weight1_spec(), CorrExpression.single(CorrSymbol(("a",) * 2, ((3, 0, "a"),)))),
    "reduce_to_zero_modes": lambda: reduce_to_zero_modes(
        weight2_spec(), CorrExpression.single(CorrSymbol((), ((1, 0, "x"), (2, 0, "x"))))),
    "anomaly_of_zero_modes": lambda: hha.anomaly_of_zero_modes(weight1_spec(), ("a",) * 4),
}
# the engine function each entry point is seen to call: the anomaly takes no recursion step
WATCHED = {name: "contraction_n" if name == "anomaly_of_zero_modes" else "_shape_step"
           for name in GC_PAUSED}


def test_engine_makes_no_reference_cycles():
    # the GC pause rests on this: a collection inside an engine call would free nothing
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        invert_to_full(weight2_spec(), ("x",) * 5)
        hha.anomaly_of_zero_modes(weight1_spec(), ("a",) * 6)
        hha.anomaly_of_zero_modes(hha.HHASpec.from_json(weight1_spec().to_json()), ("a",) * 6)
        gc.collect()
        kinds = sorted({type(obj).__name__ for obj in gc.garbage})
        assert not gc.garbage, f"{len(gc.garbage)} objects in reference cycles: {kinds}"
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


@pytest.mark.parametrize("name", GC_PAUSED)
def test_entry_points_pause_and_restore_the_gc(name, monkeypatch):
    seen = []
    step = getattr(hha, WATCHED[name])
    monkeypatch.setattr(hha, WATCHED[name], lambda *args: seen.append(gc.isenabled()) or step(*args))
    assert gc.isenabled()
    GC_PAUSED[name]()
    assert gc.isenabled() and seen and not any(seen)
    gc.disable()
    try:
        GC_PAUSED[name]()
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_gc_is_restored_after_a_raising_call(monkeypatch):
    def unknown(spec, modes):
        raise DeltaUnknownError("no law")

    # N raises inside the paused anomaly call
    monkeypatch.setattr(hha, "contraction_n", unknown)
    with pytest.raises(DeltaUnknownError):
        hha.anomaly_of_zero_modes(weight2_spec(), ("x",) * 2)
    assert gc.isenabled()


@pytest.mark.parametrize("name", GC_PAUSED)
def test_paused_entry_points_keep_their_signatures(name):
    # perfbench/tracer.py binds the arguments of traced calls by signature
    fn = getattr(hha, name)
    assert inspect.signature(fn) == inspect.signature(fn.__wrapped__)
    assert next(iter(inspect.signature(fn).parameters)) == "spec"
