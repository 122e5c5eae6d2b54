"""Ring laws of CoeffPoly, the coefficient ring of correlator expressions."""

from functools import partial

import pytest
from hypothesis import given, strategies as st

from torusmodes.scaled import ScaledRational
from torusmodes.symbols import (_MOVES, CoeffPoly, P, PI_MARK, Pt, _sym_key, add_products,
                               sym_str, sym_weight, zvar)

# one symbol of each kind; a monomial's coefficient takes its weight as its
# 2*pi*i grade, so sums and products stay within one grade per monomial
SYMBOLS = [("G", 4), ("P", 2, 2, 1), ("Pt", 3, 1), ("g", 1, 3, 3, 2), ("B",), ("z", 1), ("pi",)]

monomials = st.dictionaries(st.sampled_from(range(len(SYMBOLS))), st.integers(1, 2),
                            max_size=3).map(
    lambda d: tuple((SYMBOLS[i], e) for i, e in sorted(d.items())))
rationals = st.fractions(min_value=-20, max_value=20, max_denominator=6)


def _poly(terms):
    return CoeffPoly({m: ScaledRational(c, sum(e * sym_weight(s) for s, e in m))
                      for m, c in terms.items()})


polys = st.dictionaries(monomials, rationals, max_size=4).map(_poly)


def _positions(poly):
    """The positions of every coefficient symbol the polynomial holds."""
    return poly.rows_and_positions()[1]


def _relabel(poly, label):
    """The polynomial with position p moved to label[p] in every coefficient
    symbol, through the label's move map; ``label`` is increasing, so no
    orientation flips and no monomial is re-sorted."""
    moves = _MOVES[label]
    return CoeffPoly({tuple([moves[p][0] for p in mono]): c for mono, c in poly.terms.items()})


def _normalized(p):
    return all(c for c in p.terms.values())


@given(polys, polys, polys)
def test_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a * CoeffPoly.scalar(1) == a == a + CoeffPoly()


@given(polys, polys, rationals)
def test_no_stored_zero_coefficient(a, b, x):
    assert not (a - a).terms
    assert not (a + (-a)).terms and not (a * 0).terms
    assert a + (b - a) == b
    assert (a + b) * (a - b) == a * a - b * b
    for result in (a + b, a - b, a * b, -a, a * x, a * ScaledRational(x, 2), a + (b - a),
                   (a + b) * (a - b)):
        assert _normalized(result)


@given(polys, polys, polys)
def test_add_product_accumulates_in_place(a, b, c):
    # the kernel adds into a destination that holds terms, on the rows of either
    # operand, and leaves both operands unchanged
    a_terms, b_terms = dict(a.terms), dict(b.terms)
    for x, y in ((a, b), (b, a)):
        got = c.copy()
        add_products(x.rows(), y.entries(got.terms))
        assert got == c + a * b and _normalized(got)
        add_products(x.rows(), (-y).entries(got.terms))
        assert got == c
    assert a.terms == a_terms and b.terms == b_terms


@given(rationals.filter(bool), rationals.filter(bool))
def test_add_product_refuses_mixed_grades(x, y):
    c = CoeffPoly.symbol(("B",), ScaledRational(x, 2)) + CoeffPoly.scalar(y)
    with pytest.raises(ValueError, match="cannot add grades"):
        add_products(CoeffPoly.symbol(("B",), ScaledRational(y, 3)).rows(),
                     CoeffPoly.scalar(x).entries(c.terms))


# several symbols of every kind, so monomials share symbols and interleave;
# exponents reach 300: nothing bounds them
MERGE_SYMBOLS = SYMBOLS + [("G", 2), ("P", 3, 2, 1), ("P", 2, 3, 1), ("P", 2, 3, 2), ("Pt", 2, 1),
                           ("g", 1, 3, 2, 1), ("g", 2, 4, 3, 1), ("z", 2), ("z", 3)]
sorted_monomials = st.dictionaries(st.sampled_from(MERGE_SYMBOLS), st.integers(1, 300),
                                   max_size=6).map(
    lambda d: tuple(sorted(d.items(), key=lambda p: _sym_key(p[0]))))


def _reference_mono_mul(m1, m2):
    d = dict(m1)
    for s, e in m2:
        d[s] = d.get(s, 0) + e
    return tuple(sorted(d.items(), key=lambda p: _sym_key(p[0])))


@given(sorted_monomials, sorted_monomials)
def test_mono_mul_is_the_sorted_product(m1, m2):
    for a, b in ((m1, m2), (m2, m1), (m1, m1), (m1, ()), ((), m2), ((), ())):
        want = _reference_mono_mul(a, b)
        got = CoeffPoly()
        add_products(CoeffPoly({b: 1}).rows(), CoeffPoly({a: 1}).entries(got.terms))
        assert got.terms == {want: 1}
        assert (CoeffPoly({a: 1}) * CoeffPoly({b: 1})).terms == {want: 1}


@given(st.lists(st.tuples(sorted_monomials.filter(bool), rationals.filter(bool)),
                min_size=3, max_size=5, unique_by=lambda t: t[0]),
       st.integers(1, 300), st.booleans())
def test_one_factor_merge_matches_mono_mul(terms, e, with_empty):
    # a * b places a one-factor monomial of the operand with fewer terms
    # straight into the other operand's monomials; every symbol lands at the
    # front, in the middle, at the end of or on an equal symbol of each
    # monomial, and _reference_mono_mul is the reference
    a = _poly(dict(terms))
    m1 = terms[0][0]
    for sym in MERGE_SYMBOLS:
        one = ((sym, e),)
        b = _poly({one: 3, (): -2} if with_empty else {one: 3})
        want = {}
        for ma, ca in a.terms.items():
            for mb, cb in b.terms.items():
                m = _reference_mono_mul(ma, mb)
                want[m] = want[m] + ca * cb if m in want else ca * cb
        want = {m: c for m, c in want.items() if c}
        assert (a * b).terms == want  # ScaledRational equality compares grades too
        assert b * a == a * b
        grade = a.terms[m1].tpi + b.terms[one].tpi
        clash = CoeffPoly({_reference_mono_mul(m1, one): ScaledRational(1, grade + 1)})
        for x, y in ((a, b), (b, a)):
            with pytest.raises(ValueError, match="cannot add grades"):
                add_products(x.rows(), y.entries(clash.copy().terms))


def _reference_product(a, b):
    # a*b by _reference_mono_mul on every pair of monomials, summed with ScaledRational's operators
    want = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            m = _reference_mono_mul(ma, mb)
            want[m] = want[m] + ca * cb if m in want else ca * cb
    return {m: c for m, c in want.items() if c}


def _entries(dest: CoeffPoly, terms: dict) -> list:
    """Kernel entries of ``_poly(terms)``, each monomial at its weight as its grade, aimed at dest."""
    return [(dest.terms, tuple((p, _sym_key(p[0])) for p in m), c.value, c.tpi)
            for m, c in _poly(terms).terms.items()]


kernel_terms = st.lists(st.tuples(sorted_monomials, rationals.filter(bool)),
                        min_size=1, max_size=5, unique_by=lambda t: t[0])


@given(kernel_terms, kernel_terms, kernel_terms)
def test_rows_kernel_matches_mono_mul(a_terms, b_terms, c_terms):
    # monomials of b with one factor, several factors or none, against rows of a
    # that share, interleave or lack their symbols; the rows are read as often as
    # the kernel is called and stay unchanged
    a, b, c = _poly(dict(a_terms)), _poly(dict(b_terms)), _poly(dict(c_terms))
    rows = a.rows()
    assert rows == [(m, tuple(_sym_key(s) for s, _ in m), k.value, k.tpi)
                    for m, k in a.terms.items()]
    got, acc = CoeffPoly(), c.copy()
    add_products(rows, b.entries(got.terms))
    assert got.terms == _reference_product(a, b) and _normalized(got)
    add_products(rows, b.entries(acc.terms))
    assert acc == c + got
    add_products(rows, (-b).entries(got.terms))
    assert got.is_zero()  # every entry cancels and is deleted
    assert rows == a.rows()


@pytest.mark.parametrize("sym, want", [
    (("G", 2), (("G", 2), 5)),  # before the first symbol
    (("G", 4), (("G", 4), 8)),  # on the first symbol
    (("Pt", 2, 1), (("Pt", 2, 1), 5)),  # between two symbols
    (("z", 1), (("z", 1), 7)),  # on the last symbol
    (("pi",), (("pi",), 5)),  # after the last symbol
])
def test_rows_kernel_places_a_one_factor_monomial(sym, want):
    row = ((("G", 4), 3), (("P", 2, 2, 1), 1), (("z", 1), 2))
    out = CoeffPoly()
    add_products(_poly({row: 1}).rows(), _entries(out, {((sym, 5),): 1}))
    (mono,) = out.terms
    assert mono == _reference_mono_mul(row, ((sym, 5),)) and want in mono
    assert len(mono) == len(row) + (want[1] == 5)


_P3, _g1, _z2 = (("P", 2, 2, 1), 3), (("g", 1, 3, 3, 2), 1), (("z", 1), 2)  # the row's factors


@pytest.mark.parametrize("m2, want", [
    pytest.param(((("G", 2), 5), (("G", 4), 6)), ((("G", 2), 5), (("G", 4), 6), _P3, _g1, _z2),
                 id="both-before-the-first"),
    pytest.param(((("P", 2, 2, 1), 5), (("Pt", 2, 1), 6)),
                 ((("P", 2, 2, 1), 8), (("Pt", 2, 1), 6), _g1, _z2),
                 id="one-on-an-equal-one-between-two"),
    pytest.param(((("Pt", 2, 1), 5), (("Pt", 3, 1), 6)),
                 (_P3, (("Pt", 2, 1), 5), (("Pt", 3, 1), 6), _g1, _z2),
                 id="second-after-the-spliced-first"),
    pytest.param(((("z", 2), 5), (("pi",), 6)), (_P3, _g1, _z2, (("z", 2), 5), (("pi",), 6)),
                 id="both-after-the-last"),
])
def test_rows_kernel_places_a_two_factor_monomial(m2, want):
    # the factors are placed one at a time, each by bisection on the row's keys
    # with the keys of the factors placed before it spliced in
    row = (_P3, _g1, _z2)
    out = CoeffPoly()
    add_products(_poly({row: 2}).rows(), _entries(out, {m2: 3}))
    assert list(out.terms) == [want] and want == _reference_mono_mul(row, m2)
    assert out.terms[want].value == 6


def test_rows_kernel_refuses_mixed_grades():
    a = _poly({((("z", 1), 1),): 1, ((("G", 4), 1),): 2})
    b = CoeffPoly.symbol(("B",), ScaledRational(3, 2))
    clash = CoeffPoly({((("B",), 1), (("z", 1), 1)): ScaledRational(1, 0)})
    with pytest.raises(ValueError, match="cannot add grades"):
        add_products(a.rows(), b.entries(clash.copy().terms))
    # within one call: B*1 at grade 2 meets 1*B at grade 0
    rows = CoeffPoly({((("B",), 1),): ScaledRational(1, 2), (): ScaledRational(1, 0)}).rows()
    b = CoeffPoly({(): ScaledRational(1, 0), ((("B",), 1),): ScaledRational(1, 0)})
    with pytest.raises(ValueError, match="cannot add grades"):
        add_products(rows, b.entries({}))


@given(kernel_terms, st.lists(st.tuples(st.integers(0, 2), sorted_monomials, rationals.filter(bool)),
                              max_size=8),
       st.lists(kernel_terms, min_size=3, max_size=3))
def test_multi_destination_kernel_matches_mono_mul(a_terms, aimed, starts):
    # entries of one, several or no factors, aimed at three destinations in any
    # order and more than once: each destination ends as what it held plus the
    # rows times every entry aimed at it
    a = _poly(dict(a_terms))
    dests = [_poly(dict(terms)) for terms in starts]
    want = [dest.copy() for dest in dests]
    entries = []
    for d, m, c in aimed:
        entries += _entries(dests[d], {m: c})
        want[d] = want[d] + CoeffPoly(_reference_product(a, _poly({m: c})))
    rows = a.rows()
    add_products(rows, entries)
    assert [dest.terms for dest in dests] == [w.terms for w in want]
    assert all(_normalized(dest) for dest in dests) and rows == a.rows()


def test_multi_destination_kernel_places_every_entry():
    # one-factor entries before the first symbol, on the first, between two, on
    # the last and past the last symbol of a row, and a two-factor entry, aimed
    # in turn at two destinations, against rows that include the empty monomial
    a = _poly({((("G", 4), 3), (("P", 2, 2, 1), 1), (("z", 1), 2)): 2, (): 1,
               ((("Pt", 2, 1), 1),): -1})
    monos = [((("G", 2), 5),), ((("G", 4), 5),), ((("Pt", 3, 1), 5),), ((("z", 1), 5),),
             ((("pi",), 5),), ((("Pt", 2, 1), 5),), ((("G", 2), 1), (("z", 2), 4))]
    dests = [CoeffPoly(), CoeffPoly()]
    entries = []
    for i, m in enumerate(monos):
        entries += _entries(dests[i % 2], {m: i + 1})
    add_products(a.rows(), entries)
    for d, dest in enumerate(dests):
        b = _poly({m: i + 1 for i, m in enumerate(monos) if i % 2 == d})
        assert dest.terms == _reference_product(a, b)


def test_multi_destination_kernel_empties_refills_and_refuses_mixed_grades():
    row = ((("G", 4), 3), (("P", 2, 2, 1), 1), (("z", 1), 2))
    a, one, other = _poly({row: 2}), ((("Pt", 2, 1), 5),), ((("pi",), 1),)
    filled, emptied, refilled = CoeffPoly(), -(a * _poly({one: 3})), -(a * _poly({one: 3}))
    add_products(a.rows(), [*_entries(emptied, {one: 3}), *_entries(filled, {other: 1}),
                            *_entries(refilled, {one: 3}), *_entries(refilled, {other: 1})])
    # one destination cancels to empty while another fills; the kernel leaves
    # it empty for its caller to drop
    assert emptied.terms == {} and filled == a * _poly({other: 1})
    # emptied by the first entry aimed at it and refilled by the next one
    assert refilled == a * _poly({other: 1})
    grade = sum(e * sym_weight(s) for s, e in row + one)
    clash = CoeffPoly({_reference_mono_mul(row, one): ScaledRational(1, grade + 1)})
    with pytest.raises(ValueError, match="cannot add grades"):
        add_products(a.rows(), [*_entries(CoeffPoly(), {other: 1}), *_entries(clash, {one: 3})])


def test_relabel_maps_positions_through_each_label():
    poly = P(2, 2, 1) * zvar(2) + Pt(3, 1) * PI_MARK
    assert _positions(poly) == {1, 2, 3}
    assert poly.mentions("pi") and poly.mentions("z") and not poly.mentions("g")
    for label in ((None, 4, 6, 9), (None, 1, 2, 5), (None, 4, 6, 9)):
        moved = _relabel(poly, label)
        assert moved == (P(2, label[2], label[1]) * zvar(label[2])
                         + Pt(label[3], label[1]) * PI_MARK)
        assert _positions(moved) == set(label[1:])
    # the move maps: one per label, kept, and another for another label
    assert _MOVES[(None, 4, 6, 9)] is _MOVES[(None, 4, 6, 9)]
    assert _MOVES[(None, 4, 6, 9)] is not _MOVES[(None, 1, 2, 5)]


# one symbol of each kind -> (its text, weight, sort rank, positions, and the
# symbol relabelled by _LABEL), as each reader gave them before the kind table
_LABEL = (None, 3, 4, 6, 7, 8, 9)
_KIND_FIXTURE = {
    ("G", 4): ("G_4", 4, 0, set(), ("G", 4)),
    ("P", 3, 5, 2): ("P_3(5/2)", 3, 1, {2, 5}, ("P", 3, 8, 4)),
    ("Pt", 5, 2): ("P~1(5/2)", 1, 2, {2, 5}, ("Pt", 8, 4)),
    ("g", 1, 3, 5, 2): ("g^1_3(5/2)", 4, 3, {2, 5}, ("g", 1, 3, 8, 4)),
    ("B",): ("B", 2, 4, set(), ("B",)),
    ("z", 5): ("z_5", -1, 5, {5}, ("z", 8)),
    ("pi",): ("piRes", 1, 6, set(), ("pi",)),
}


def test_each_kind_reads_as_before():
    for sym, (text, weight, rank, positions, moved) in _KIND_FIXTURE.items():
        poly = CoeffPoly.symbol(sym)
        assert sym_str(sym) == text and sym_weight(sym) == weight
        assert _sym_key(sym) == (rank,) + sym[1:]
        assert _positions(poly) == positions
        assert _relabel(poly, _LABEL) == CoeffPoly.symbol(moved)
    unknown = ("X", 1)
    poly = CoeffPoly.symbol(unknown)
    for read in (partial(sym_str, unknown), partial(sym_weight, unknown),
                 partial(_sym_key, unknown), poly.rows_and_positions,
                 partial(_MOVES[_LABEL].__getitem__, (unknown, 1))):
        with pytest.raises(KeyError) as raised:
            read()
        assert raised.value.args == ("unknown symbol ('X', 1)",)
