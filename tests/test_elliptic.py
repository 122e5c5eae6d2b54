import cmath
import io
import json
from fractions import Fraction
from math import factorial

import pytest

from torusmodes import cli
from torusmodes import elliptic as el
from torusmodes import numerics as nm
from torusmodes import qseries as qs
from torusmodes import verify
from torusmodes.ratfunc import LaurentPoly, ZetaRational
from torusmodes.scaled import TWO_PI_I, ScaledRational

from suite_cases import assert_case


def _report(series) -> str:
    """The text ``expand`` prints for ``series``, its final newline left out."""
    out = io.StringIO()
    layered = isinstance(series, el.BivariateExpansion)
    (cli._write_layers if layered else cli._write_series)(series, out.write, "")
    return out.getvalue()


def test_ratfunc_normalization():
    # zeta/(1-zeta) - 1/(1-zeta) = -1: the factor (1-zeta) cancels
    f = ZetaRational(LaurentPoly({1: 1}), 1)
    g = f - ZetaRational(LaurentPoly.const(1), 1)
    assert (g.num, g.k) == (LaurentPoly.const(-1), 0)
    # (zeta^-1 - 2 + zeta)/(1-zeta)^3 = zeta^-1/(1-zeta): two factors cancel
    h = ZetaRational(LaurentPoly({-1: 1, 0: -2, 1: 1}), 3)
    assert (h.num, h.k) == (LaurentPoly({-1: 1}), 1)
    # reports use the numerator over the monic denominator (zeta-1)^k
    assert json.loads(_report(el.BivariateExpansion(0, [h], 0)))["layers"] == [
        {"m": 0, "num": [[-1, "-1"]], "den": [[0, "-1"], [1, "1"]]}]
    assert (f + (-f)).is_zero() and (f - f).k == 0
    # from_poly keeps ascending keys, the order evaluate sums in
    for p in (_divisor_layer(3, 12), _divisor_layer(0, 7) * Fraction(1, 6),
              LaurentPoly({5: 1, -3: 2, 0: -1, 1: Fraction(1, 3)})):
        r = ZetaRational.from_poly(p)
        assert r.k == 0 and r.den == LaurentPoly.const(1)
        assert list(r.num.coeffs) == sorted(p.coeffs)


def _divisor_layer(power, m):
    """sum_{d | m} (d**power zeta**d - (-d)**power zeta**-d), in Fraction powers
    for a negative power."""
    coeffs = {}
    for d in range(1, m + 1):
        if m % d:
            continue
        if power >= 0:
            pos, neg = d ** power, (-d) ** power
        else:
            pos, neg = Fraction(d) ** power, Fraction(-d) ** power
        coeffs[d] = coeffs.get(d, 0) + pos
        coeffs[-d] = coeffs.get(-d, 0) - neg
    return LaurentPoly(coeffs)


def _reference_layer(i, j, m):
    """Layer m >= 1 of g^i_j as the divisor rule scaled by m**i/(j-1)! and
    normalised through ``from_poly``."""
    return ZetaRational.from_poly(_divisor_layer(j - i - 1, m) * Fraction(m ** i, factorial(j - 1)))


def test_layers_are_the_scaled_divisor_rule():
    # every layer m >= 1 of g^i_j (P_j at i = 0) for i <= 4, j <= 8, to order 40:
    # the same keys in the same order, the same values and the same types,
    # for negative powers of the divisor (j <= i) too
    for i in range(5):
        for j in range(1, 9):
            layers = el.g_expansion.__wrapped__(i, j, 40).coeffs
            for n in (0, 1, 17):  # a lower order builds the same first layers
                assert el.g_expansion.__wrapped__(i, j, n).coeffs == layers[:n + 1]
            for m in range(1, 41):
                got, want = layers[m], _reference_layer(i, j, m)
                assert got.k == want.k == 0
                assert list(got.num.coeffs.items()) == list(want.num.coeffs.items())
                assert [type(c) for c in got.num.coeffs.values()] == \
                    [type(c) for c in want.num.coeffs.values()]
    # g^2_2, layer 2: 2**2 * (d**-1 zeta**d - (-d)**-1 zeta**-d) over d = 1, 2
    assert el.g_expansion(2, 2, 2).coeffs[2].num.coeffs == {-2: 2, -1: 4, 1: 4, 2: 2}


def test_cached_builders_match_fresh_builds():
    for build, args in ((el.p_expansion, (3, 12)), (el.g_expansion, (2, 3, 12)),
                        (qs.eisenstein, (6, 12)), (qs.eta_power, (-8, 12))):
        cached = build(*args)
        assert build(*args) is cached
        fresh = build.__wrapped__(*args)
        assert _report(cached) == _report(fresh)
        assert isinstance(cached.coeffs, tuple)


def test_zeta_rational_derivative():
    f = ZetaRational(LaurentPoly({1: 1}), 1)
    df = f.zeta_ddzeta()  # zeta d/dzeta [zeta/(1-zeta)] = zeta/(1-zeta)^2
    assert df == ZetaRational(LaurentPoly({1: 1}), 2)


def test_p_expansion_layers():
    p1 = el.p_expansion(1, 3)
    assert p1.tpi == 1
    assert p1.coeffs[0] == ZetaRational(LaurentPoly({1: 1}), 1)
    assert p1.coeffs[1] == ZetaRational.from_poly(LaurentPoly({1: 1, -1: -1}))
    assert p1.coeffs[2] == ZetaRational.from_poly(
        LaurentPoly({2: 1, 1: 1, -1: -1, -2: -1}))
    p2 = el.p_expansion(2, 2)
    assert p2.coeffs[0] == ZetaRational(LaurentPoly({1: 1}), 2)


def test_p_tilde_offset():
    pt = el.p_tilde_1(4)
    p1 = el.p_expansion(1, 4)
    diff = pt - p1
    assert diff.coeffs[0] == ZetaRational.const(Fraction(1, 2))
    assert all(diff.coeffs[m].is_zero() for m in range(1, 5))


def test_g_reduces_to_p():
    assert_case("elliptic-formal", "g_j0_equals_P_j")


def test_g_as_tau_derivatives():
    assert_case("elliptic-formal", "g_as_tau_derivative_of_P")


def test_dtau_ladder():
    assert_case("elliptic-formal", "dtau_g_raises_depth")


def test_zeta_derivative_ladder():
    assert_case("elliptic-formal", "zeta_derivative_ladder")


def test_grade_mismatch_raises():
    with pytest.raises(ValueError, match="cannot add grades"):
        el.p_expansion(1, 4) + el.p_expansion(2, 4)


def test_wp_laurent():
    for case_id in ("wp2_leading_terms", "wp_derivative_ladder", "wp1_has_no_linear_term"):
        assert_case("elliptic-formal", case_id)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_wp_laurent_sums_to_the_lattice_sum(k):
    # wp_laurent reads wp_k from the z-expansion of P_k through
    # P_k = (-1)**k wp_k + [k = 2] G_2 + [k = 1] (G_2 z - pi*i), and
    # numerics.wp_value sums the lattice, so this also checks that identity;
    # a flipped sign of the z**(2n+2-k) terms moves the sum by about 1e-5 of its size
    z, tau = 0.05 + 0.02j, 1.1j
    q = cmath.exp(TWO_PI_I * tau)
    laurent = el.wp_laurent(k, 12, 10)
    total = sum(complex(c.evaluate(q=q)) * z ** e for e, c in laurent.items())
    ref = nm.wp_value(k, z, tau)
    assert abs(total - ref) <= 1e-9 * abs(ref)


def test_g1m_z_expansion_structure():
    assert_case("elliptic-formal", "g1m_z_parity")
    # lowest main term of g^1_1: (2 pi i) d_tau G_2 z^2/2, beside the z^0 term
    za = el.z_expansion(1, 1, 8, 8)
    assert set(za) <= {0, 2, 4, 6, 8}
    lead = za[2]
    want = qs.eisenstein(2, 8).tau_derivative().scalar_mul(ScaledRational(Fraction(1, 2), 1))
    assert (lead - want).is_zero()


def test_g11_constant_term_is_g2_plus_a_constant():
    # g^1_1's z^0 coefficient is G_2 + (2 pi i)^2/12, which no law exp(B D) in
    # the symbols completes: a second reason transform-check refuses g_1_1
    order = 12
    diff = el.z_expansion(1, 1, 0, order)[0] - qs.eisenstein(2, order)
    assert diff == qs.QExpansion.from_dict({0: Fraction(1, 12)}, order, tpi=2)


@pytest.mark.parametrize("i,j", [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 1), (1, 2),
                                 (1, 3), (1, 5), (2, 1), (2, 3), (2, 4), (3, 5)])
def test_z_expansion_sums_to_the_lambert_sums(i, j):
    # numerics.g_value sums the Lambert series and reads no z-expansion;
    # (0, 1) is P_1, whose z^0 term is the zeta(0) = -1/2 constant
    z, tau = 0.03 + 0.02j, 1.1j
    q = cmath.exp(TWO_PI_I * tau)
    za = el.z_expansion(i, j, 14, 30)
    total = sum(complex(c.evaluate(q=q)) * z ** e for e, c in za.items())
    ref = nm.g_value(i, j, z, tau)
    assert abs(total - ref) <= 1e-12 * abs(ref)


def test_z_expansions_hold_no_zero_series():
    # at q-order 0 every g^i_j with i >= 1 vanishes term by term
    for i in range(4):
        for j in range(1, 6):
            if i:
                assert el.z_expansion(i, j, 8, 0) == {}
            for q_order in range(3):
                za = el.z_expansion(i, j, 8, q_order)
                assert not any(c.is_zero() for c in za.values())
                assert (-j in za) == (i == 0)
    for k in range(1, 5):
        for z_order in range(-k, 11):
            for q_order in range(3):
                za = el.wp_laurent(k, z_order, q_order)
                assert -k in za and not any(c.is_zero() for c in za.values())


def test_bivariate_eval_region_guard():
    p2 = el.p_expansion(2, 10)
    with pytest.raises(ValueError):
        p2.eval_numeric(el.StripPoint(1.5j, 1.2j))  # Im z > Im tau
    with pytest.raises(ZeroDivisionError):
        p2.eval_numeric(el.StripPoint(1e-14j + 0.0, 1.2j))  # pole of the q^0 layer at zeta=1


def _layer_sum_reference(expansion, z, tau):
    """eval_numeric's value rebuilt from the exact coefficients, one term at a time.

    Every layer is its numerator over the monic denominator (zeta - 1)**k,
    each summed from 0j in ``coeffs`` order with terms c * zeta**e, and the
    quotient is taken even where k = 0 and the denominator is 1.
    """
    zeta, q = cmath.exp(2j * cmath.pi * z), cmath.exp(2j * cmath.pi * tau)

    def poly(p):
        total = 0j
        for e, c in p.coeffs.items():
            total += complex(c) * zeta ** e
        return total
    total = 0j
    for m, layer in enumerate(expansion.coeffs):
        num = -layer.num if layer.k % 2 else layer.num
        total += poly(num) / poly(layer.den) * q ** m
    return TWO_PI_I ** expansion.tpi * total


def test_layer_eval_bits_at_suite_points():
    # the k = 0 layers skip their denominator; the value must keep every bit,
    # at the elliptic-numeric sample points and at their images under its gammas
    points = []
    for z, tau in nm.sample_points(20, gammas=verify._ELLIPTIC_GAMMAS):
        points.append((nm.strip_reduce(z, tau)[0], tau))
        for gamma in verify._ELLIPTIC_GAMMAS:
            gz, gtau = nm.apply_gamma(gamma, z, tau)
            points.append((nm.strip_reduce(gz, gtau)[0], gtau))
    for expansion in (el.p_expansion(2, 60), el.p_expansion(3, 60), el.p_expansion(4, 60),
                      el.g_expansion(1, 3, 60)):
        assert any(layer.k == 0 for layer in expansion.coeffs)
        for z, tau in points:
            assert expansion.eval_numeric(el.StripPoint(z, tau)) == _layer_sum_reference(
                expansion, z, tau)


def _suite_strip_points(count):
    """The first ``count`` elliptic-numeric sample points, each with its images
    under the suite's gammas, reduced into the strip."""
    points = []
    for z, tau in nm.sample_points(count, gammas=verify._ELLIPTIC_GAMMAS):
        points.append((nm.strip_reduce(z, tau)[0], tau))
        for gamma in verify._ELLIPTIC_GAMMAS:
            gz, gtau = nm.apply_gamma(gamma, z, tau)
            points.append((nm.strip_reduce(gz, gtau)[0], gtau))
    return points


def test_shared_point_eval_bits():
    # one StripPoint serves every expansion below, in turn, and each value
    # keeps the bits of the term-by-term reference: the rational q^0 layers of
    # P_1 and P~_1 (k = 1), g^2_4, the orders the reports pin, and a layer
    # that holds exponents beyond the truncation, so no exponent range is assumed
    wide = el.BivariateExpansion(0, [
        ZetaRational.const(Fraction(1, 3)),
        ZetaRational.from_poly(LaurentPoly({-9: 2, 1: Fraction(-1, 7), 7: 5})),
        ZetaRational.from_poly(LaurentPoly({11: Fraction(3, 2), -2: 1}))], 2)
    assert max(wide.coeffs[1].num.coeffs) > wide.truncation
    expansions = [el.p_expansion(1, 60), el.p_tilde_1(60), el.g_expansion(2, 4), wide]
    expansions += [el.p_expansion(k, n) for n in (36, 70) for k in (1, 2, 3, 4)]
    assert [e.coeffs[0].k for e in expansions[:2]] == [1, 1]
    for z, tau in _suite_strip_points(4):
        point = el.StripPoint(z, tau)
        for expansion in expansions:
            assert expansion.eval_numeric(point) == _layer_sum_reference(expansion, z, tau)


def test_elliptic_numeric_evaluates_each_function_once_per_point(monkeypatch):
    # the four P_k laws (P~_1 through P_1) at 20 points and their images under
    # 5 gammas: 120 strip points, each summed once per P_k
    calls, points = [], []
    eval_numeric, strip_point = el.BivariateExpansion.eval_numeric, el.StripPoint

    def counted_eval(self, point):
        calls.append(point)
        return eval_numeric(self, point)

    def counted_point(z, tau):
        points.append((z, tau))
        return strip_point(z, tau)
    monkeypatch.setattr(el.BivariateExpansion, "eval_numeric", counted_eval)
    monkeypatch.setattr(el, "StripPoint", counted_point)
    report = verify.run_suite("elliptic-numeric")
    assert report["status"] == "pass"
    assert len(calls) == 480 and len(points) == 120 == len(set(points))
