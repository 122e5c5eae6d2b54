import cmath
import gc
from fractions import Fraction
from operator import neg

import pytest
from hypothesis import assume, given, strategies as st

from torusmodes import cli
from torusmodes import lattice as lt
from torusmodes import qseries as qs
from torusmodes import verify
from torusmodes.scaled import TWO_PI_I, ScaledRational

from suite_cases import assert_case


def test_lattice_validation():
    with pytest.raises(lt.LatticeError):
        lt.EvenLattice(((1,),))  # odd diagonal
    with pytest.raises(lt.LatticeError):
        lt.EvenLattice(((2, 1), (0, 2)))  # not symmetric
    with pytest.raises(lt.LatticeError):
        lt.EvenLattice(((2, 3), (3, 2)))  # not positive definite
    with pytest.raises(lt.LatticeError, match="not positive definite"):
        lt.EvenLattice(((2, 0, 0), (0, 2, 3), (0, 3, 2)))  # one block of two is not
    with pytest.raises(lt.LatticeError, match="not positive definite"):
        lt.EvenLattice(((2, 0, 3), (0, 2, 0), (3, 0, 2)))  # nor when its rows interleave
    lat = lt.a1()
    assert lat.rank == 1 and lat.norm2((3,)) == 18


def test_blocks():
    assert lt.e8().blocks() == [tuple(range(8))]
    e83 = lt.e8_cubed()
    assert e83.blocks() == [tuple(range(8)), tuple(range(8, 16)), tuple(range(16, 24))]


def test_e8_shells():
    assert_case("lattice-oracle", "e8_shell_sizes")
    assert_case("lattice-oracle", "shells_negation_symmetric")
    shells = lt.enumerate_vectors(lt.e8(), 4)
    assert [s.norm_half for s in shells] == [0, 1, 2, 3, 4]
    assert [240 * qs.sigma(3, n) for n in (1, 2, 3, 4)] == [240, 2160, 6720, 17520]


def test_theta_series_block_convolution():
    th = lt.theta_series(lt.e8_cubed(), 3)
    assert th.coefficient(1) == ScaledRational(720)
    assert th.coefficient(2) == ScaledRational(3 * 2160 + 3 * 240 * 240)


def test_theta_moment_values():
    tm0 = lt.theta_moment(lt.e8(), 0, 3)
    assert tm0.coefficient(1) == ScaledRational(240)
    tm2 = lt.theta_moment(lt.e8(), 2, 3)
    assert tm2.coefficient(1) == ScaledRational(60)
    assert not tm2.coefficient(0)
    # odd moments vanish identically
    assert lt.theta_moment(lt.e8(), 3, 3).is_zero()


@pytest.mark.parametrize("first", [1, 4, 7])
def test_theta_moments_of_a_permuted_e8_basis(first):
    # h = e_0/|e_0|: a permuted E8 basis puts another simple root first, and the
    # Weyl group carries one simple root to another, so the moments agree
    order = [first] + [i for i in range(8) if i != first]
    gram = lt.e8().gram
    permuted = lt.EvenLattice(tuple(tuple(gram[i][j] for j in order) for i in order))
    for p in range(7):
        assert (lt.theta_moment(permuted, p, 3) - lt.theta_moment(lt.e8(), p, 3)).is_zero(), p


def test_quasimod_vs_oracle_e8():
    assert_case("lattice-oracle", "e8_closed_form_equals_oracle_n<=3")
    for n in range(0, 4):
        assert lt.quasimod_rhs(lt.e8(), n, 4).offset == Fraction(-1, 3), n


def test_quasimod_vs_oracle_e8cubed():
    assert_case("lattice-oracle", "e8cubed_closed_form_equals_oracle_n<=1")


def test_character_is_j():
    assert_case("lattice-oracle", "e8cubed_character_is_j")
    assert lt.quasimod_rhs(lt.e8_cubed(), 0, 3).offset == -1


def test_literal_oracle_matches_counting():
    for lat in (lt.a1(), lt.EvenLattice(((2, 0), (0, 4))), lt.EvenLattice(((4, 0), (0, 2)))):
        for n in range(0, 3):
            a = lt.fock_trace_literal(lat, n, 3)
            b = lt.fock_trace_oracle(lat, n, 3)
            assert (a - b).is_zero(), (lat, n)


def test_fock_labels_levels():
    labels = list(lt.fock_labels(lt.a1(), 2))
    # level <= 2: alpha in {0,+-1} (norms 0,1), partitions of the rest
    assert all(lab.level(lt.a1()) <= 2 for lab in labels)
    dim_by_level = {}
    for lab in labels:
        lvl = int(lab.level(lt.a1()))
        dim_by_level[lvl] = dim_by_level.get(lvl, 0) + 1
    # graded dimensions of the rank-1 lattice VOA (A1): theta/eta structure
    char = lt.quasimod_rhs(lt.a1(), 0, 2)
    for lvl, dim in dim_by_level.items():
        assert char.coefficient(lvl) == ScaledRational(dim)


def test_eval_trace_numeric():
    ch = lt.quasimod_rhs(lt.e8(), 0, 6)
    val = ch.evaluate(tau=1.5j)
    # independent: theta/eta^8 at tau=1.5i by direct summation
    q = cmath.exp(TWO_PI_I * 1.5j)
    theta = sum(len(s.vectors) * q ** s.norm_half
                for s in lt.enumerate_vectors(lt.e8(), 6))
    eta8 = (q ** Fraction(8, 24) *
            __import__("math").prod((1 - q ** n) ** 8 for n in range(1, 200)))
    assert abs(val - theta / eta8) < 1e-6
    with pytest.raises(ValueError):
        ch.evaluate(tau=-1.5j)


def test_json_round_trip(tmp_path):
    import json
    lat = lt.e8()
    path = tmp_path / "e8.json"
    path.write_text(json.dumps(lat.to_json()))
    assert cli._load("lattice", str(path)) == lat


def test_chi_weight1_at_zero_is_character():
    lat = lt.e8()
    tau = 1.4j
    chi0 = lt.chi_weight1(lat, 0.0, tau, 6)
    val = lt.quasimod_rhs(lat, 0, 6).evaluate(tau=tau)
    assert abs(chi0 - val) / abs(val) < 1e-8


def test_trace_value_matches_series_eval():
    lat = lt.e8()
    tau = 1.4j
    direct = lt.quasimod_rhs(lat, 2, 6).evaluate(tau=tau)
    factored = lt.trace_value(lat, 2, tau, 6)
    assert abs(direct - factored) / abs(direct) < 1e-12


def test_chi_z_derivatives_match_moments():
    # finite differences of chi in z at 0 reproduce the zero-mode moments
    lat = lt.e8()
    tau = 1.4j
    h = 1e-3
    zs = [k * h for k in (-2, -1, 0, 1, 2)]
    vals = [lt.chi_weight1(lat, z, tau, 6) for z in zs]
    # second derivative: (f1 - 2 f0 + f-1)/h^2 = (2 pi i)^2 Tr a_0^2 q^{...}
    d2 = (vals[3] - 2 * vals[2] + vals[1]) / h ** 2
    m2 = lt.moment_trace_value(lat, 2, tau, 6)
    assert abs(d2 / TWO_PI_I ** 2 - m2) / abs(m2) < 1e-4
    # first derivative vanishes (odd moments are zero)
    d1 = (vals[3] - vals[1]) / (2 * h)
    assert abs(d1) / abs(m2) < 1e-6


def test_tail_estimate_shrinks_with_order():
    tails = []
    for order in (3, 5, 8):
        series = lt.quasimod_rhs(lt.e8(), 0, order)
        tails.append(series.tail_estimate(q=cmath.exp(TWO_PI_I * 1.5j)))
    assert tails[0] > tails[1] > tails[2]


def _small_even_lattices():
    """A1, A2, a two-block rank 3, D4, seeded random rank <= 4 sublattices, and
    A3 and D4 in bases whose LDL^T has large denominators (D_2 = 4/667, 4/523
    for A3; 20/131 for D4)."""
    import random
    fixed = [((2,),), ((2, -1), (-1, 2)), ((2, -1, 0), (-1, 2, 0), (0, 0, 4)),
             ((2, -1, 0, 0), (-1, 2, -1, -1), (0, -1, 2, 0), (0, -1, 0, 2))]
    rng = random.Random(2024)
    out = [lt.EvenLattice(g) for g in fixed]
    while len(out) < len(fixed) + 6:
        base = fixed[rng.randrange(1, len(fixed))]
        k = len(base)
        b = [[rng.choice((-1, 0, 0, 1)) for _ in range(k)] for _ in range(k)]
        for i in range(k):
            b[i][i] += rng.choice((1, 2))
        gram = tuple(tuple(sum(b[r][i] * base[r][s] * b[s][j]
                               for r in range(k) for s in range(k))
                           for j in range(k)) for i in range(k))
        try:
            out.append(lt.EvenLattice(gram))
        except lt.LatticeError:  # singular change of basis
            continue
    skewed = [((22, 13, 9), (13, 38, 23), (9, 23, 14)),
              ((46, 11, -12), (11, 14, -6), (-12, -6, 4)),
              ((30, 7, -17, 7), (7, 6, -3, 1), (-17, -3, 10, -4), (7, 1, -4, 2))]
    return out + [lt.EvenLattice(g) for g in skewed]


def _box(lat, max_norm_half):
    """Every x in a box that holds the ellipsoid <x,x> <= 2N: |x_i|^2 <= 2N (G^-1)_ii."""
    from itertools import product
    from math import isqrt
    n = lat.rank
    inv = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    m = [[Fraction(v) for v in row] for row in lat.gram]
    for c in range(n):  # Gauss-Jordan inverse
        p = m[c][c]
        m[c] = [v / p for v in m[c]]
        inv[c] = [v / p for v in inv[c]]
        for r in range(n):
            if r != c and m[r][c]:
                f = m[r][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
                inv[r] = [a - f * b for a, b in zip(inv[r], inv[c])]
    radii = [isqrt(int(2 * max_norm_half * inv[i][i])) + 1 for i in range(n)]
    return product(*(range(-r, r + 1) for r in radii))


def test_walk_counts_match_box_enumeration():
    N = 5
    for lat in _small_even_lattices():
        sizes = [0] * (N + 1)
        shells = [[] for _ in range(N + 1)]
        for x in _box(lat, N):
            norm = lat.norm2(x)
            if norm <= 2 * N:
                sizes[norm // 2] += 1
                shells[norm // 2].append(x)
        assert lt._shell_sizes(lat.gram, N) == tuple(sizes), lat.gram
        assert [s.vectors for s in lt.enumerate_vectors(lat, N)] == \
            [sorted(s) for s in shells], lat.gram
        # the first block's shells grouped by <h,x>^2 = <e_0,x>^2 / G_00
        block = lat.blocks()[0]
        sub = lat.sublattice(block)
        grouped = {}
        for x in _box(sub, N):
            norm = sub.norm2(x)
            if norm <= 2 * N:
                t2 = Fraction(sum(g * v for g, v in zip(sub.gram[0], x)) ** 2, sub.gram[0][0])
                grouped[(norm // 2, t2)] = grouped.get((norm // 2, t2), 0) + 1
        data, got_block = lt._axis_shell_data(lat, N)
        assert got_block == block
        assert data == tuple((nh, t2, cnt) for (nh, t2), cnt in sorted(grouped.items()))


def test_walk_is_exact_on_a_rebased_gram_beyond_float_precision():
    # ((2, 2k), (2k, 2k^2 + 2)) is A1 + A1 in the basis e_0, e_1 + k e_0, which fixes e_0;
    # at k = 10^17 + 1 the float k x_1 is off by more than one coordinate step
    k = 10 ** 17 + 1
    rebased = lt.EvenLattice(((2, 2 * k), (2 * k, 2 * k * k + 2)))
    plain = lt.EvenLattice(((2, 0), (0, 2)))
    N = 5
    shells = lt.enumerate_vectors(plain, N)
    assert [sorted((x0 + k * x1, x1) for x0, x1 in s.vectors)
            for s in lt.enumerate_vectors(rebased, N)] == [s.vectors for s in shells]
    assert lt.theta_series(rebased, N) == lt.theta_series(plain, N)
    grouped = {}
    for s in shells:
        for x in s.vectors:
            key = (s.norm_half, Fraction(x[0] ** 2 * 2))
            grouped[key] = grouped.get(key, 0) + 1
    assert lt._axis_shell_data(rebased, N) == (
        tuple((nh, t2, cnt) for (nh, t2), cnt in sorted(grouped.items())), (0, 1))
    for power in (0, 2, 4):
        assert lt.theta_moment(rebased, power, N) == lt.theta_moment(plain, power, N)


def test_e8_shell_sizes_are_240_sigma3():
    sizes = lt._shell_sizes(lt.e8().gram, 24)
    assert sizes == (1,) + tuple(240 * qs.sigma(3, n) for n in range(1, 25))


def test_e8_product_route_equals_the_walk():
    gram = lt.e8().gram
    for N in range(8, -1, -1):  # deepest first: one walk, which the lower orders read
        assert lt._e8_groups(N) == lt._grouped_walk(gram, N), N


def test_e8_cubed_axis_data_equals_a_walk_only_computation():
    walked = lt._grouped_walk(lt.e8().gram, 6)
    assert lt._axis_shell_data(lt.e8_cubed(), 6) == (
        tuple((nh, Fraction(ip2, 2), cnt) for nh, ip2, cnt in walked), tuple(range(8)))


def test_negative_order_raises_on_every_walk_route():
    lat = lt.e8()
    for call in (lambda: lt.enumerate_vectors(lat, -1),
                 lambda: lt._shell_sizes(lat.gram, -1),
                 lambda: lt._axis_shell_data(lat, -1),
                 lambda: lt.theta_series(lat, -1),
                 lambda: lt.chi_weight1(lat, 0.1, 1.2j, -1)):
        with pytest.raises(lt.LatticeError, match="max_norm_half must be >= 0"):
            call()


# even bases: any integer change of basis M keeps M B M^T even
_EVEN_BASES = {1: ((2,),), 2: ((2, -1), (-1, 2)), 3: ((2, -1, 0), (-1, 2, 0), (0, 0, 4)),
               4: ((2, -1, 0, 0), (-1, 2, -1, -1), (0, -1, 2, 0), (0, -1, 0, 2))}


@st.composite
def _even_lattices(draw):
    """A random even lattice of rank <= 4: M B M^T."""
    k = draw(st.integers(1, 4))
    base = _EVEN_BASES[k]
    m = [[draw(st.integers(-1, 1)) + (i == j) * draw(st.integers(0, 2)) for j in range(k)]
         for i in range(k)]
    gram = tuple(tuple(sum(m[i][r] * base[r][t] * m[j][t] for r in range(k) for t in range(k))
                       for j in range(k)) for i in range(k))
    try:
        lat = lt.EvenLattice(gram)
    except lt.LatticeError:  # singular change of basis
        assume(False)
    return lat


@given(_even_lattices(), st.integers(0, 3))
def test_half_walk_matches_box(lat, N):
    box = [x for x in _box(lat, N) if lat.norm2(x) <= 2 * N]
    assume(len(box) <= 4000)
    sizes = [0] * (N + 1)
    shells = [[] for _ in range(N + 1)]
    grouped = {}
    for x in box:
        nh = lat.norm2(x) // 2
        ip = sum(g * v for g, v in zip(lat.gram[0], x))
        sizes[nh] += 1
        shells[nh].append(x)
        grouped[(nh, ip * ip)] = grouped.get((nh, ip * ip), 0) + 1
    assert sizes[0] == 1  # the zero vector, once
    assert lt._shell_sizes(lat.gram, N) == tuple(sizes)
    assert [s.vectors for s in lt.enumerate_vectors(lat, N)] == [sorted(s) for s in shells]
    assert lt._grouped_walk(lat.gram, N) == \
        tuple((nh, ip2, cnt) for (nh, ip2), cnt in sorted(grouped.items()))


def test_one_walk_per_block_gram_and_order(monkeypatch):
    for cached in (lt._grouped_walk, lt._e8_groups, lt._shell_sizes, lt._axis_shell_data,
                   lt.quasimod_rhs, lt.fock_trace_oracle):
        cached.cache_clear()
    walks = []
    walk = lt._walk

    def counted(gram, max_norm_half, leaf):
        walks.append((gram, max_norm_half))
        walk(gram, max_norm_half, leaf)

    monkeypatch.setattr(lt, "_walk", counted)
    e8, e8_cubed = lt.e8(), lt.e8_cubed()
    lt.theta_series(e8, 8)
    lt.theta_moment(e8_cubed, 2, 8)
    lt.chi_weight1(e8_cubed, 0.1 + 0.2j, 1.3j, 8)
    assert verify.run_suite("lattice-modular")["status"] == "pass"
    # the preset E8 Gram, alone and as each block of E8^3, takes the product route
    assert walks == []
    # E8 in another basis is walked
    order = [1, 0] + list(range(2, 8))
    swapped = lt.EvenLattice(tuple(tuple(e8.gram[i][j] for j in order) for i in order))
    lt.theta_series(swapped, 2)
    assert walks == [(swapped.gram, 2)]


def test_one_walk_per_gram_and_order_in_lattice_oracle(monkeypatch):
    for cached in (lt._grouped_walk, lt._e8_groups, lt._shell_sizes, lt._axis_shell_data,
                   lt.theta_moment, lt._literal_eigenvalues, lt.quasimod_rhs,
                   lt.fock_trace_oracle):
        cached.cache_clear()
    walks = []
    walk = lt._walk

    def counted(gram, max_norm_half, leaf):
        walks.append((len(gram), max_norm_half))
        walk(gram, max_norm_half, leaf)

    monkeypatch.setattr(lt, "_walk", counted)
    assert verify.run_suite("lattice-oracle")["status"] == "pass"
    # E8: its shells' walk, which also tallies the groups that the oracle reads at order 4
    # and the E8^3 oracle at order 3 (the closed forms walk nothing); A1: the literal Fock
    # labels' walk, whose groups the counted oracle reads
    assert walks == [(8, 4), (1, 4)]


def test_enumerate_vectors_keeps_its_walk_groups(monkeypatch):
    # the vectors' walk tallies the groups a grouped walk would, and keeps them unless a
    # deeper walk's are kept already
    for lat in _small_even_lattices():
        lt._grouped_walk.cache_clear()
        lt.enumerate_vectors(lat, 3)
        kept = lt._DEEPEST_WALK[lat.gram]
        lt._grouped_walk.cache_clear()
        assert kept == (3, lt._grouped_walk(lat.gram, 3)), lat.gram
        lt.enumerate_vectors(lat, 1)
        assert lt._DEEPEST_WALK[lat.gram] == kept
    walks = []
    walk = lt._walk

    def counted(gram, max_norm_half, leaf):
        walks.append(max_norm_half)
        walk(gram, max_norm_half, leaf)

    monkeypatch.setattr(lt, "_walk", counted)
    lt._grouped_walk.cache_clear()
    lat = lt.a1()
    lt.enumerate_vectors(lat, 5)
    assert lt._grouped_walk(lat.gram, 5) == lt._grouped_walk(lat.gram, 7)[:6]
    assert walks == [5, 7]


def _per_vector_shells(lat, max_norm_half):
    """The shells as built one vector at a time: each x the walk visits, then its negation."""
    shells = [[] for _ in range(max_norm_half + 1)]

    def leaf(x, nh, ip, mult):
        x = tuple(x)
        shells[nh].append(x)
        if mult == 2:
            shells[nh].append(tuple(map(neg, x)))

    lt._walk(lat.gram, max_norm_half, leaf)
    return [sorted(vecs) for vecs in shells]


def test_bulk_negation_equals_the_per_vector_shells():
    cases = [(lt.e8(), 4), (lt.a1(), 9), (lt.e8_cubed(), 1)]
    cases += [(lat, 4) for lat in _small_even_lattices()]
    for lat, N in cases:
        shells = lt.enumerate_vectors(lat, N)
        assert [s.norm_half for s in shells] == list(range(N + 1))
        got = [[(x, type(x), [type(c) for c in x]) for x in s.vectors] for s in shells]
        want = [[(x, type(x), [type(c) for c in x]) for x in vecs]
                for vecs in _per_vector_shells(lat, N)]
        assert got == want, lat.gram


def test_walks_make_no_reference_cycles():
    # a dropped enumeration is freed at once, its vectors with it, and the GC pause rests on it
    def raising(x, nh, ip, mult):
        raise ZeroDivisionError

    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for lat in (lt.e8(), lt.a1()):  # the recursion, and level 0 alone
            lt.enumerate_vectors(lat, 2)
            lt._grouped_walk.cache_clear()
            lt._grouped_walk(lat.gram, 3)
            try:
                lt._walk(lat.gram, 2, raising)
            except ZeroDivisionError:
                pass
        gc.collect()
        kinds = sorted({type(obj).__name__ for obj in gc.garbage})
        assert not gc.garbage, f"{len(gc.garbage)} objects in reference cycles: {kinds}"
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        lt._grouped_walk.cache_clear()


def test_enumerate_vectors_pauses_and_restores_the_gc(monkeypatch):
    seen = {"walk": [], "negation": []}
    walk = lt._walk
    monkeypatch.setattr(lt, "_walk", lambda *args: seen["walk"].append(gc.isenabled())
                        or walk(*args))
    monkeypatch.setattr(lt, "neg", lambda v: seen["negation"].append(gc.isenabled()) or -v)
    assert gc.isenabled()
    assert [len(s.vectors) for s in lt.enumerate_vectors(lt.a1(), 4)] == [1, 2, 0, 0, 2]
    assert gc.isenabled() and seen["walk"] == [False] and seen["negation"] == [False] * 2
    gc.disable()
    try:
        lt.enumerate_vectors(lt.a1(), 4)
        assert not gc.isenabled()
    finally:
        gc.enable()

    def raising(*args):
        raise ZeroDivisionError

    monkeypatch.setattr(lt, "_walk", raising)
    with pytest.raises(ZeroDivisionError):
        lt.enumerate_vectors(lt.a1(), 4)
    assert gc.isenabled()


def _sorted_negations(vectors):
    """The negation check by sorting: the shell is its negations, sorted."""
    return sorted(tuple(-v for v in x) for x in vectors) == vectors


def test_negation_check_refuses_what_sorting_refused():
    roots = lt.enumerate_vectors(lt.e8(), 1)[1].vectors
    x = roots[5]
    faulty = {"unsorted": roots[1:2] + roots[:1] + roots[2:],
              "missing -x": [v for v in roots if v != tuple(-c for c in x)],
              "duplicated": sorted(roots + [x])}
    assert verify._negation_closed(roots) and _sorted_negations(roots)
    for name, shell in faulty.items():
        assert not verify._negation_closed(shell) and not _sorted_negations(shell), name


@given(st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)), max_size=6),
       st.booleans(), st.booleans())
def test_negation_check_agrees_with_sorting(vectors, closed, ordered):
    if closed:
        vectors = vectors + [tuple(-c for c in x) for x in vectors]
    if ordered:
        vectors = sorted(vectors)
    assert verify._negation_closed(vectors) == _sorted_negations(vectors)


@pytest.mark.parametrize("suite, lattices", [("lattice-modular", ("e8",)),
                                             ("lattice-oracle", ("e8", "a1"))])
def test_one_decomposition_per_gram(monkeypatch, suite, lattices):
    for cached in (lt._ldl, lt._grouped_walk, lt._e8_groups, lt._shell_sizes,
                   lt._axis_shell_data, lt.theta_moment, lt.eta_derivative_factor,
                   lt._literal_eigenvalues, lt.quasimod_rhs, lt.fock_trace_oracle):
        cached.cache_clear()
    grams = []
    ldl = lt._ldl

    def recorded(gram):
        grams.append(gram)
        return ldl(gram)

    monkeypatch.setattr(lt, "_ldl", recorded)
    assert verify.run_suite(suite)["status"] == "pass"
    # every lattice built asks for each block's LDL^T, and every walk for its Gram's; each
    # Gram is decomposed once, and E8^3's three blocks reuse E8's (no 24-row Gram)
    assert set(grams) == {lt.PRESETS[name]().gram for name in lattices}
    assert ldl.cache_info().misses == len(lattices) < len(grams)
