from fractions import Fraction
from math import factorial

import pytest

from torusmodes import elliptic as el
from torusmodes import qseries as qs
from torusmodes.ratfunc import LaurentPoly, ZetaRational
from torusmodes.scaled import ScaledRational


def test_ratfunc_normalization():
    # zeta/(1-zeta) - 1/(1-zeta) = -1: the factor (1-zeta) cancels
    f = ZetaRational(LaurentPoly({1: 1}), 1)
    g = f - ZetaRational(LaurentPoly.const(1), 1)
    assert (g.num, g.k) == (LaurentPoly.const(-1), 0)
    # (zeta^-1 - 2 + zeta)/(1-zeta)^3 = zeta^-1/(1-zeta): two factors cancel
    h = ZetaRational(LaurentPoly({-1: 1, 0: -2, 1: 1}), 3)
    assert (h.num, h.k) == (LaurentPoly({-1: 1}), 1)
    # reports use the numerator over the monic denominator (zeta-1)^k
    assert h.to_json() == {"num": [[-1, "-1"]], "den": [[0, "-1"], [1, "1"]]}
    assert (f + (-f)).is_zero() and (f - f).k == 0
    # from_poly keeps ascending keys, the order evaluate sums in
    for p in (el._divisor_layer(3, 12), el._divisor_layer(0, 7) * Fraction(1, 6),
              LaurentPoly({5: 1, -3: 2, 0: -1, 1: Fraction(1, 3)})):
        r = ZetaRational.from_poly(p)
        assert r.k == 0 and r.den == LaurentPoly.const(1)
        assert list(r.num.coeffs) == sorted(p.coeffs)


def test_cached_builders_match_fresh_builds():
    for build, args in ((el.p_expansion, (3, 12)), (el.g_expansion, (2, 3, 12)),
                        (qs.eisenstein, (6, 12)), (qs.eta_power, (-8, 12))):
        cached = build(*args)
        assert build(*args) is cached
        fresh = build.__wrapped__(*args)
        assert cached.to_json() == fresh.to_json()
        stored = cached.layers if isinstance(cached, el.BivariateExpansion) else cached.coeffs
        assert isinstance(stored, tuple)


def test_zeta_rational_derivative():
    f = ZetaRational(LaurentPoly({1: 1}), 1)
    df = f.zeta_ddzeta()  # zeta d/dzeta [zeta/(1-zeta)] = zeta/(1-zeta)^2
    assert df == ZetaRational(LaurentPoly({1: 1}), 2)


def test_p_expansion_layers():
    p1 = el.p_expansion(1, 3)
    assert p1.tpi == 1
    assert p1.layer(0) == ZetaRational(LaurentPoly({1: 1}), 1)
    assert p1.layer(1) == ZetaRational.from_poly(LaurentPoly({1: 1, -1: -1}))
    assert p1.layer(2) == ZetaRational.from_poly(
        LaurentPoly({2: 1, 1: 1, -1: -1, -2: -1}))
    p2 = el.p_expansion(2, 2)
    assert p2.layer(0) == ZetaRational(LaurentPoly({1: 1}), 2)


def test_p_tilde_offset():
    pt = el.p_tilde_1(4)
    p1 = el.p_expansion(1, 4)
    diff = pt - p1
    assert diff.layer(0) == ZetaRational.const(Fraction(1, 2))
    assert all(diff.layer(m).is_zero() for m in range(1, 5))


def test_g_reduces_to_p():
    for j in (1, 2, 3, 4):
        assert el.g_expansion(0, j, 8) == el.p_expansion(j, 8)


def test_g_as_tau_derivatives():
    N = 30
    for i in (1, 2):
        for m in (1, 2, 3):
            lhs = el.g_expansion(i, m + i, N)
            rhs = el.p_expansion(m, N)
            for _ in range(i):
                rhs = rhs.tau_derivative()
            rhs = rhs.scalar_mul(ScaledRational(
                Fraction(factorial(m - 1), factorial(m + i - 1)), i))
            assert lhs == rhs


def test_dtau_ladder():
    N = 30
    for i in (0, 1, 2):
        for j in (1, 2, 3, 4):
            lhs = el.g_expansion(i, j, N).tau_derivative()
            rhs = el.g_expansion(i + 1, j + 1, N).scalar_mul(ScaledRational(j, -1))
            assert lhs == rhs


def test_zeta_derivative_ladder():
    N = 30
    for k in (1, 2, 3):
        lhs = el.zeta_derivative(el.p_expansion(k, N))
        rhs = el.p_expansion(k + 1, N).scalar_mul(ScaledRational(k, -1))
        assert lhs == rhs


def test_grade_mismatch_raises():
    with pytest.raises(ValueError):
        el.p_expansion(1, 4) + el.p_expansion(2, 4)


def test_wp_laurent():
    wp2 = el.wp_laurent(2, 9, 8)
    assert wp2.coefficient(-2).coefficient(0) == ScaledRational(1)
    assert (wp2.coefficient(2) - qs.eisenstein(4, 8).scalar_mul(3)).is_zero()
    # wp_{k+1} = -(1/k) d/dz wp_k
    wp3 = el.wp_laurent(3, 8, 8)
    assert (wp2.d_dz().scalar_mul(Fraction(-1, 2)) - wp3).is_zero()
    # wp_1 has no z^1 term; its z^3 coefficient is -G_4
    wp1 = el.wp_laurent(1, 7, 8)
    assert wp1.coefficient(1, 8).is_zero()
    assert (wp1.coefficient(3) + qs.eisenstein(4, 8)).is_zero()


def test_g1m_z_expansion_structure():
    za = el.g1m_z_expansion(1, 8, 8)
    # lowest main term: (2 pi i) d_tau G_2 z^2/2 plus the integration-constant
    # correction at z^0
    assert set(za.exponents()) <= {0, 2, 4, 6, 8}
    lead = za.coefficient(2)
    want = qs.eisenstein(2, 8).tau_derivative().scalar_mul(ScaledRational(Fraction(1, 2), 1))
    assert (lead - want).is_zero()
    for m in (1, 2, 3):
        zs = el.g1m_z_expansion(m, 9, 8)
        assert all((e - (1 + m)) % 2 == 0 for e in zs.exponents())


def test_bivariate_eval_region_guard():
    p2 = el.p_expansion(2, 10)
    with pytest.raises(ValueError):
        p2.eval_numeric(1.5j, 1.2j)  # Im z > Im tau
    with pytest.raises(ZeroDivisionError):
        p2.eval_numeric(1e-14j + 0.0, 1.2j)  # pole of the q^0 layer at zeta=1
