import cmath
import io
import json
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from torusmodes import cli
from torusmodes import combinatorics as cb
from torusmodes import elliptic as el
from torusmodes import lattice as lt
from torusmodes import qseries as qs
from torusmodes.scaled import ScaledRational

from suite_cases import assert_case


def test_scaled_rational_grades():
    a = ScaledRational(Fraction(1, 2), 1)
    assert complex(a) == complex(0, 3.141592653589793)
    with pytest.raises(ValueError):
        ScaledRational(1, 2) + ScaledRational(1, 3)
    assert ScaledRational(0, 5).tpi == 0  # zero normalizes its grade
    with pytest.raises(ValueError, match="cannot add grades"):  # G_2 has grade 2, 1 grade 0
        qs.QExpansion.one(4) + qs.eisenstein(2, 4)


def test_bernoulli():
    assert qs.bernoulli(2) == Fraction(1, 6)
    assert qs.bernoulli(4) == Fraction(-1, 30)
    assert qs.bernoulli(12) == Fraction(-691, 2730)
    assert qs.bernoulli(3) == 0
    assert qs.bernoulli(1) == Fraction(-1, 2)
    with pytest.raises(ValueError):
        qs.bernoulli(-1)


def test_eisenstein_expansions():
    g2 = qs.eisenstein(2, 6)
    assert g2.coefficient(0) == ScaledRational(Fraction(-1, 12), 2)
    assert [g2.coefficient(n) for n in (1, 2, 3)] == [ScaledRational(v, 2) for v in (2, 6, 8)]
    g4 = qs.eisenstein(4, 6)
    assert g4.coefficient(0) == ScaledRational(Fraction(1, 720), 4)
    assert [g4.coefficient(n) for n in (1, 2, 3)] == \
        [ScaledRational(v, 4) for v in (Fraction(1, 3), Fraction(3), Fraction(28, 3))]
    # an integral coefficient is an int: all of G_2's beyond the constant, G_4's 3
    assert [type(c) for c in g2.coeffs] == [Fraction] + [int] * 6
    assert [type(c) for c in g4.coeffs[:4]] == [Fraction, Fraction, int, Fraction]
    g6 = qs.eisenstein(6, 2)
    assert g6.coefficient(0) == ScaledRational(Fraction(-1, 42) / 720, 6)


def test_eta_powers():
    em1 = qs.eta_power(-1, 10)
    assert em1.offset == Fraction(-1, 24)
    assert [em1.coefficient(m) for m in range(6)] == [1, 1, 2, 3, 5, 7]
    assert qs.eta_power(-24, 4).offset == -1
    prod = qs.eta_power(24, 10) * qs.eta_power(-24, 10)
    assert (prod - qs.QExpansion.one(prod.truncation)).is_zero()


def test_geometric_series_and_inverse():
    one_minus_q = qs.QExpansion.from_dict({0: 1, 1: -1}, 12)
    assert (one_minus_q * qs.geometric_inverse_factor(1, 12)
            - qs.QExpansion.one(11)).is_zero()
    inv = one_minus_q.invert_unit()
    assert all(inv.coefficient(m) == ScaledRational(1) for m in range(inv.truncation + 1))
    # negative k: (1-q^-2)^{-1} = -q^2/(1-q^2)
    neg = qs.geometric_inverse_factor(-2, 12)
    assert neg.coefficient(2) == ScaledRational(-1)
    assert neg.coefficient(4) == ScaledRational(-1)
    assert not neg.coefficient(3)
    with pytest.raises(qs.NonUnitError):
        qs.QExpansion.zero(4).invert_unit()


def test_offset_compatibility():
    a = qs.eta_power(1, 8)
    b = qs.eta_power(2, 8)
    with pytest.raises(qs.OffsetError):
        a + b  # offsets differ by 1/24
    c = qs.eta_power(25, 8)
    assert (a + c).offset == a.offset  # offsets differ by exactly 1


def test_truncation_bookkeeping():
    a = qs.QExpansion.zero(5)
    b = qs.QExpansion.zero(9)
    assert (a * b).truncation == 5
    assert (a + b).truncation == 5


def test_tau_derivative():
    dq = qs.QExpansion.from_dict({1: 1}, 6).tau_derivative()
    assert dq.coefficient(1) == ScaledRational(1, 1)
    const = qs.QExpansion.one(6).tau_derivative()
    assert const.is_zero()
    # fractional offsets weight by offset + m
    eta = qs.eta_power(1, 6)
    d = eta.tau_derivative()
    assert d.coefficient(0) == ScaledRational(Fraction(1, 24), 1)


def test_dtau_inverse_factor_examples():
    # d/dtau applied n times to (1-q**k)**-1
    d1 = qs.geometric_inverse_factor(1, 9).tau_derivative()
    # (2 pi i) q/(1-q)^2 = (2 pi i) sum n q^n
    for n in range(1, 10):
        assert d1.coefficient(n) == ScaledRational(n, 1)
    d2 = d1.tau_derivative()
    # (2 pi i)^2 (q/(1-q)^2 + 2 q^2/(1-q)^3) = (2 pi i)^2 sum n^2 q^n
    for n in range(1, 10):
        assert d2.coefficient(n) == ScaledRational(n * n, 2)
    d0 = qs.geometric_inverse_factor(2, 9)
    assert all(d0.coefficient(2 * i) == ScaledRational(1) for i in range(5))


def test_tau_derivative_recurrence():
    for k in (1, 2, 3):
        assert_case("qseries-identities", f"tau_derivative_recurrence_k={k}_n<=5")


def test_stirling_expansion_and_inversion():
    from math import factorial
    for k in (1, 2):
        assert_case("qseries-identities", f"stirling_closed_form_k={k}_m<=5")
        assert_case("qseries-identities", f"stirling_inversion_k={k}_l<=5")
    # k = -1, outside the suite's k = 1, 2, 3
    N, k = 30, -1
    base = qs.geometric_inverse_factor(k, N)
    w = qs.w_factor(k, N)
    derivs = [base]
    for _ in range(5):
        derivs.append(derivs[-1].tau_derivative())
    for m in range(6):
        rhs = None
        for i in range(m + 1):
            S = cb.stirling_second(m, i)
            if not S:
                continue
            term = (base * w.power(i)).scalar_mul(
                ScaledRational(Fraction(factorial(i) * S) * k ** m, m))
            rhs = term if rhs is None else rhs + term
        assert (derivs[m] - rhs).is_zero()
    for l in range(6):
        lhs = base * w.power(l)
        rhs = None
        for m in range(l + 1):
            s = cb.stirling_first(l, m)
            if not s:
                continue
            term = derivs[m].scalar_mul(
                ScaledRational(Fraction(s, factorial(l)) * Fraction(1, k ** m), -m))
            rhs = term if rhs is None else rhs + term
        assert (lhs - rhs).is_zero()


small_series = st.builds(
    lambda d: qs.QExpansion.from_dict({m: Fraction(v) for m, v in d.items()}, 8),
    st.dictionaries(st.integers(min_value=0, max_value=4),
                    st.integers(min_value=-5, max_value=5), max_size=5))


@settings(max_examples=60, deadline=None)
@given(small_series, small_series, small_series)
def test_ring_laws(a, b, c):
    assert ((a * b) * c - a * (b * c)).is_zero()
    assert (a * (b + c) - (a * b + a * c)).is_zero()
    assert (a * b - b * a).is_zero()


# -- the product over one common denominator --------------------------------------

def _reference_mul(a, b):
    """The series product as a convolution of the stored coefficients, in the
    arithmetic of their own types."""
    trunc = min(a.truncation, b.truncation)
    out = [0] * (trunc + 1)
    for i, x in enumerate(a.coeffs[:trunc + 1]):
        if x:
            for j, y in enumerate(b.coeffs[:trunc + 1 - i]):
                if y:
                    out[i + j] += x * y
    return qs.QExpansion(a.offset + b.offset, out, a.tpi + b.tpi)


def _reference_power(x, k):
    out = qs.QExpansion.one(x.truncation)
    for _ in range(k):
        out = _reference_mul(out, x)
    return out


def assert_same_series(got, want):
    """Equal offsets, grades and coefficients, each an int exactly when integral."""
    assert (got.offset, got.tpi, got.coeffs) == (want.offset, want.tpi, want.coeffs)
    assert [type(c) for c in got.coeffs] == \
        [int if Fraction(c).denominator == 1 else Fraction for c in want.coeffs]


coefficients = st.one_of(
    st.integers(-30, 30),
    st.integers(-30, 30).map(Fraction),
    st.builds(Fraction, st.integers(-30, 30), st.sampled_from([3, 24, 24 ** 2, 24 ** 3])),
    st.fractions(max_denominator=50))


@st.composite
def operands(draw):
    """One series of int, integral-Fraction or mixed-denominator coefficients, at
    an integral or fractional offset and any grade; sometimes the zero series."""
    coeffs = draw(st.lists(coefficients, min_size=1, max_size=9))
    if draw(st.integers(0, 5)) == 0:
        coeffs = [draw(st.sampled_from([0, Fraction(0)]))] * len(coeffs)
    offset = draw(st.sampled_from([0, 3, Fraction(-1, 24), Fraction(2, 3)]))
    return qs.QExpansion(offset, coeffs, draw(st.integers(-2, 2)))


@settings(max_examples=300, deadline=None)
@given(operands(), operands())
def test_product_equals_the_fraction_convolution(a, b):
    assert_same_series(a * b, _reference_mul(a, b))


def test_power_and_eta_factors_match_the_fraction_convolution():
    # the E8 and E8^3 orders and ranks of lattice-oracle and lattice-modular
    for n in (3, 4, 8):
        e = qs.euler_product(n)
        for ell in (1, 8, 24):
            assert_same_series(e.power(ell), _reference_power(e, ell))
            assert_same_series(e.power(-ell), _reference_power(e.invert_unit(), ell))
        g4 = qs.eisenstein(4, n)
        assert_same_series(g4.power(3), _reference_power(g4, 3))
        for ell in (8, 24):
            inv = _reference_power(e.invert_unit(), ell - 1)
            head = qs.QExpansion(Fraction(-(ell - 1), 24), inv.coeffs)
            d = qs.eta_power(-1, n)
            for r in range(4):
                assert_same_series(lt.eta_derivative_factor.__wrapped__(ell, r, n),
                                   _reference_mul(head, d))
                d = d.q_derivative().scalar_mul(2)


def _report(series) -> str:
    """The text ``expand`` prints for ``series``, its final newline left out."""
    out = io.StringIO()
    cli._write_series(series, out.write, "")
    return out.getvalue()


def test_series_report_format():
    data = json.loads(_report(qs.eisenstein(2, 2)))
    assert data == {"offset": "0", "lower": 0, "truncation": 2,
                    "coeffs": [[[2, "-1/12"]], [[2, "2"]], [[2, "6"]]]}
    assert json.loads(_report(qs.eta_power(-1, 1)))["offset"] == "-1/24"


def test_numeric_evaluation_guard():
    with pytest.raises(ValueError):
        qs.eisenstein(4, 10).evaluate(q=1.5)


def test_truncation_access_guards():
    g2 = qs.eisenstein(2, 5)
    with pytest.raises(IndexError):
        g2.coefficient(6)
    assert not g2.truncate(3).coefficient(3) == ScaledRational(99)
    with pytest.raises(ValueError):
        g2.truncate(9)
    with pytest.raises(ValueError):
        g2.truncate(-1)
    assert g2.coefficient(-3) == 0  # below the offset every coefficient vanishes


# -- the complex values each expansion keeps for evaluate -----------------------

@st.composite
def offset_series(draw, offset, tpi):
    """An expansion at the offset moved down by 0-3, of the given grade, with some zero
    coefficients."""
    values = draw(st.lists(st.integers(-4, 4), min_size=1, max_size=8))
    return qs.QExpansion(offset - draw(st.integers(0, 3)), values, tpi)


nomes = st.builds(lambda re, im: cmath.exp(2j * cmath.pi * complex(re, im)),
                  st.floats(-0.5, 0.5), st.floats(0.2, 1.5))


def per_term(x, q):
    """The sum evaluate makes, with every nonzero coefficient converted afresh."""
    total = 0j
    for m in range(x.truncation + 1):
        c = x.coefficient(m)
        if c:
            total += complex(c) * q ** m
    return q ** complex(x.offset) * total


def same(a, b):
    """Bit-for-bit equality of two complex values, signed zeros included."""
    return repr(a) == repr(b)


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(-24, 24), st.integers(0, 2), nomes, nomes)
def test_evaluate_keeps_the_per_term_sum(data, offset, tpi, q, r):
    x = data.draw(offset_series(Fraction(offset, 24), tpi))
    y = data.draw(offset_series(Fraction(offset, 24), tpi))
    for point in (q, r, q):  # a second point gets its own value, the first its old one
        assert same(x.evaluate(q=point), per_term(x, point))
    # expansions derived after the first evaluate convert their own coefficients
    derived = [-x, x + y, x * y, x.scalar_mul(ScaledRational(Fraction(2, 3), 1)),
               x.truncate(0)]
    for d in derived:
        assert same(d.evaluate(q=q), per_term(d, q))


# -- a series is its offset and its coefficients --------------------------------

def test_from_dict_refuses_a_negative_key():
    with pytest.raises(ValueError, match="negative"):
        qs.QExpansion.from_dict({-1: 1, 0: 2}, 4)
    # the start goes into the offset instead
    assert qs.QExpansion.from_dict({0: 1, 1: 2}, 4, offset=-1).coefficient(0) == 1


@pytest.mark.parametrize("k, offset", [(0, 0), (2, 0), (3, Fraction(1, 24))])
def test_invert_unit_folds_the_leading_power(k, offset):
    # x = q**(offset + k) (1 - q), so 1/x = q**-(offset + k) sum_n q**n
    x = qs.QExpansion.from_dict({k: 1, k + 1: -1}, 10, offset)
    inv = x.invert_unit()
    assert inv.offset == -offset - k and inv.truncation == 10 - k
    assert all(c == 1 and type(c) is int for c in inv.coeffs)  # a unit 1 stays in ints
    assert x * inv == qs.QExpansion.one(10 - k)


def test_sum_across_offsets():
    # offsets 1/24 and 1/24 - 2, both reliable up to q**(1/24 + 6)
    x = qs.QExpansion(Fraction(1, 24), [1, 0, 3, -1, 2, 5, 1])
    y = qs.QExpansion(Fraction(1, 24) - 2, [2, -1, 0, 4, 1, 1, 0, 2, 3])
    for s in (x + y, y + x):
        assert s.offset == y.offset and s.truncation == 8
        assert s == x + y
        for tau in (1.1j, 0.3 + 0.7j):
            assert s.evaluate(tau=tau) == pytest.approx(x.evaluate(tau=tau) + y.evaluate(tau=tau),
                                                        rel=1e-12)
    assert (x - x).is_zero() and (x - y) + y == x.truncate(6)


def _builders():
    a1, e8 = lt.a1(), lt.e8()
    return {
        "zero": lambda n: qs.QExpansion.zero(n), "one": lambda n: qs.QExpansion.one(n),
        "from_dict": lambda n: qs.QExpansion.from_dict({1: 2}, n, Fraction(1, 3)),
        "eisenstein": lambda n: qs.eisenstein(4, n), "eta_power": lambda n: qs.eta_power(-3, n),
        "euler_product": qs.euler_product,
        "geometric_inverse_factor": lambda n: qs.geometric_inverse_factor(-2, n),
        "w_factor": lambda n: qs.w_factor(-2, n),
        "power_0": lambda n: qs.eisenstein(4, n).power(0),
        "q_derivative": lambda n: qs.eta_power(2, n).q_derivative(),
        "theta_series": lambda n: lt.theta_series(e8, n),
        "theta_moment": lambda n: lt.theta_moment(e8, 2, n),
        "quasimod_rhs": lambda n: lt.quasimod_rhs(a1, 2, n),
        "fock_trace_literal": lambda n: lt.fock_trace_literal(a1, 2, n),
        "fock_trace_oracle": lambda n: lt.fock_trace_oracle(a1, 2, n),
        "p_expansion": lambda n: el.p_expansion(3, n), "p_tilde_1": el.p_tilde_1,
        "g_expansion": lambda n: el.g_expansion(1, 3, n),
        "bivariate_zero": lambda n: el.g_expansion(1, 3, n).scalar_mul(0),
        "bivariate_sum": lambda n: el.p_expansion(2, n) + el.p_expansion(2, n + 2),
    }


@pytest.mark.parametrize("name", sorted(_builders()))
def test_truncation_is_the_last_index(name):
    for n in (0, 1, 4):
        x = _builders()[name](n)
        assert x.truncation == len(x.coeffs) - 1 == n, (name, n)


@pytest.mark.parametrize("build", [
    lambda: qs.eisenstein(2, -1), lambda: qs.eta_power(1, -1), lambda: qs.eta_power(-2, -1),
    lambda: el.p_expansion(2, -1), lambda: el.g_expansion(1, 3, -1), lambda: el.p_tilde_1(-1),
], ids=["eisenstein", "eta_power", "eta_power_negative", "p_expansion", "g_expansion",
        "p_tilde_1"])
def test_negative_truncation_is_refused(build):
    with pytest.raises(ValueError):
        build()


def test_euler_product_matches_the_product_of_its_factors():
    # the in-place product against the plain product of the factors (1 - q^n)
    for order in range(31):
        want = qs.QExpansion.one(order)
        for n in range(1, order + 1):
            want = want * qs.QExpansion.from_dict({0: 1, n: -1}, order)
        assert qs.euler_product(order) == want, order


# -- one grade per series ---------------------------------------------------------

def test_zero_series_adds_to_any_grade():
    # the sum keeps the nonzero operand's grade (two nonzero grades raise, above)
    g4 = qs.eisenstein(4, 6)
    for zero in (qs.QExpansion.zero(6), qs.QExpansion.one(6).tau_derivative(),
                 qs.eisenstein(2, 6).scalar_mul(0)):
        assert (g4 + zero).tpi == (zero + g4).tpi == 4
        assert _report(g4 + zero) == _report(zero + g4) == _report(g4)
    assert (g4 - g4).tpi == 4  # a zero series keeps the grade it was built with


def test_bivariate_expansion_stays_one():
    p2 = el.p_expansion(2, 5)
    for x in (-p2, p2 + p2, p2 - p2, p2.scalar_mul(ScaledRational(3, 1)),
              p2.tau_derivative(), p2.zeta_derivative(), p2.truncate(2)):
        assert type(x) is el.BivariateExpansion and x.offset == 0
    assert p2.scalar_mul(ScaledRational(3, 1)).tpi == 3 and p2.tau_derivative().tpi == 3


def test_inverse_has_the_opposite_grade():
    for n in (0, 1, 12):
        g4 = qs.eisenstein(4, n)
        inv = g4.invert_unit()
        assert inv.tpi == -4
        assert inv * g4 == qs.QExpansion.one(n) and (inv * g4).tpi == 0


# -- equality is the zero test of the difference ----------------------------------

def difference_is_zero(a, b):
    """What equality meant as ``(a - b).is_zero()``: False across a non-integer offset."""
    try:
        return (a - b).is_zero()
    except qs.OffsetError:
        return False


def assert_eq_as_difference(a, b):
    """a == b and b == a give the outcome of the difference test, or raise its error."""
    for x, y in ((a, b), (b, a)):
        try:
            want = difference_is_zero(x, y)
        except ValueError as err:
            with pytest.raises(ValueError) as got:
                x == y  # noqa: B015
            assert type(got.value) is type(err) and str(got.value) == str(err)
        else:
            assert (x == y) is want and (x != y) is (not want)


@st.composite
def windows(draw):
    """Two windows on one coefficient sequence: different starts and truncations,
    a perturbed coefficient, another grade, or a non-integer offset apart."""
    seq = [0] * draw(st.integers(0, 3)) + draw(st.lists(st.integers(-2, 2), min_size=1,
                                                        max_size=8))
    base = draw(st.sampled_from([Fraction(0), Fraction(-1, 24), Fraction(5, 3)]))

    def window():
        start = draw(st.integers(0, len(seq) - 1))
        end = draw(st.integers(start + 1, len(seq)))
        return base + start, list(seq[start:end])

    (oa, ca), (ob, cb_) = window(), window()
    tpi_a = draw(st.integers(0, 2))
    tpi_b = draw(st.sampled_from([tpi_a, tpi_a, draw(st.integers(0, 2))]))
    if draw(st.booleans()):
        i = draw(st.integers(0, len(cb_) - 1))
        cb_[i] += draw(st.sampled_from([1, Fraction(1, 2)]))
    if draw(st.integers(0, 4)) == 0:
        ob += Fraction(1, 2)
    if draw(st.integers(0, 4)) == 0:
        ca = [0] * len(ca)
    return qs.QExpansion(oa, ca, tpi_a), qs.QExpansion(ob, cb_, tpi_b)


@settings(max_examples=200)
@given(windows())
def test_equality_agrees_with_the_difference_test(pair):
    assert_eq_as_difference(*pair)


def test_equality_outcomes_across_grades_and_offsets():
    g4, g6 = qs.eisenstein(4, 6), qs.eisenstein(6, 6)
    zero2, zero0 = qs.eisenstein(2, 6).scalar_mul(0), qs.QExpansion.zero(3)
    assert zero2.tpi == 2 and zero2 == zero0 and zero0 == zero2  # zeros of two grades
    with pytest.raises(ValueError, match=r"cannot add grades \(2\*pi\*i\)\^4 and \(2\*pi\*i\)\^6"):
        g4 == g6  # noqa: B015
    assert g4 == g4.truncate(2) and g4.truncate(2) == g4  # up to the lower truncation
    one = qs.QExpansion.one(4)
    # q**1 (0, 1, ...) is q**2 (1, ...); a half-integer apart, never equal
    assert qs.QExpansion(1, [0, 1, 0]) == qs.QExpansion(2, [1, 0, 0, 5])
    assert qs.QExpansion(Fraction(1, 2), [1]) != one and one != qs.QExpansion(Fraction(1, 2), [1])
    for pair in ((g4, g6), (zero2, zero0), (g4, g4.truncate(2)), (one, g4)):
        assert_eq_as_difference(*pair)


def test_bivariate_equality_agrees_with_the_difference_test():
    p2, p3 = el.p_expansion(2, 5), el.p_expansion(3, 5)
    layers = list(p2.coeffs)
    layers[3] = layers[3] * 2
    perturbed = el.BivariateExpansion(0, layers, 2)
    zero3, zero1 = p3.scalar_mul(0), el.g_expansion(1, 3, 4).scalar_mul(ScaledRational(0, -3))
    pairs = [(p2, el.p_expansion(2, 7)), (p2, perturbed), (p2, p3), (zero3, zero1),
             (p2.zeta_derivative(), p3.scalar_mul(ScaledRational(2, -1))),
             (el.g_expansion(0, 2, 5), p2), (p2, p2.truncate(0)), (p2, el.p_tilde_1(5))]
    for a, b in pairs:
        assert_eq_as_difference(a, b)
    assert p2 == el.p_expansion(2, 7) and p2 != perturbed and zero3 == zero1
    assert p2.zeta_derivative() == p3.scalar_mul(ScaledRational(2, -1))
    with pytest.raises(ValueError, match="cannot add grades"):
        p2 == p3  # noqa: B015


def test_q_derivative_multiplies_by_ints_at_an_integral_offset():
    x = qs.QExpansion(2, [Fraction(1, 2), 3, Fraction(2, 3)])
    assert x.q_derivative().coeffs == (1, 9, Fraction(8, 3))
    assert type(x.q_derivative().coeffs[1]) is int
    y = qs.QExpansion(Fraction(1, 2), [1, 3])
    assert y.q_derivative().coeffs == (Fraction(1, 2), Fraction(9, 2))
