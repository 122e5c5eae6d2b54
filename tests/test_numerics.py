import math

import pytest
from hypothesis import given, strategies as st

from torusmodes import elliptic as el
from torusmodes import numerics as nm
from torusmodes import symbols, verify
from torusmodes.ratfunc import LaurentPoly
from torusmodes.scaled import TWO_PI_I
from torusmodes.symbols import (DeltaUnknownError, delta_of_symbol, function_symbol,
                               sym_weight)

from suite_cases import assert_case


def test_weierstrass_oracle_matches_p_values():
    for k in (1, 2, 3, 4, 5):
        assert_case("elliptic-numeric", f"weierstrass_match_P_{k}")


def test_layer_eval_matches_lambert():
    z, tau = 0.25 + 0.4j, 0.1 + 1.2j
    for k in (1, 2, 3):
        val = el.p_expansion(k, 60).eval_numeric(el.StripPoint(z, tau))
        assert abs(val - nm.p_value(k, z, tau)) < 1e-10
    for (i, j) in ((1, 2), (1, 3), (2, 3)):
        val = el.g_expansion(i, j, 60).eval_numeric(el.StripPoint(z, tau))
        assert abs(val - nm.g_value(i, j, z, tau)) < 1e-9


def test_cot_derivative_polynomials():
    # (d/dw) cot = -1 - cot^2 and (d/dw)^2 cot = 2 cot + 2 cot^3
    assert nm._cot_deriv_poly(1) == LaurentPoly({0: -1, 2: -1})
    assert nm._cot_deriv_poly(2) == LaurentPoly({1: 2, 3: 2})
    for n in range(12):  # evaluate sums in key order, which must stay ascending
        keys = list(nm._cot_deriv_poly(n).coeffs)
        assert keys == sorted(keys)


def test_eisenstein_double_sum_oracle():
    for two_k in (4, 6, 8, 10):
        a = nm.eisenstein_value(two_k, 1.3j, truncation=60)
        b = nm.eisenstein_lattice_value(two_k, 1.3j)
        assert abs(a - b) < 1e-8


def test_elliptic_shifts():
    z, tau = 0.12 + 0.3j, 1.4j
    assert abs(nm.p_value(1, z + tau, tau) - nm.p_value(1, z, tau) - TWO_PI_I) < 1e-10
    for k in (2, 3, 4):
        assert abs(nm.p_value(k, z + tau, tau) - nm.p_value(k, z, tau)) < 1e-10
    # periodicity under z -> z+1
    assert abs(nm.p_value(1, z + 1, tau) - nm.p_value(1, z, tau)) < 1e-12


def test_modular_laws_at_samples():
    # at the suite's five gammas and all 20 of its sample points
    for fn in ("Ptilde_1", "P_2", "P_3", "P_4", "G_2", "G_4"):
        assert_case("elliptic-numeric", f"modular_law_{fn}")


def test_sample_points_deterministic():
    gammas = verify._ELLIPTIC_GAMMAS
    assert nm.sample_points(6, gammas=gammas) == nm.sample_points(6, gammas=gammas)


def test_strip_reduce():
    z, tau = 0.3 + 2.9j, 1.2j
    zr, lam = nm.strip_reduce(z, tau)
    assert lam == 2 and abs(z - zr - 2 * tau) < 1e-15
    with pytest.raises(ValueError):
        nm.strip_reduce(1.2j, 1.2j)  # lands on the boundary


def test_gamma_checks():
    with pytest.raises(ValueError):
        nm.sl2_check((1, 1, 1, 1))
    assert nm.sl2_check((0, -1, 1, 0)) == (0, -1, 1, 0)


def test_corrected_delta_g_laws_numeric():
    # the derived Delta g^i_j, z-tails included, against the actual transforms
    z, tau = 0.11 + 0.23j, 0.13 + 1.21j
    for gamma in ((0, -1, 1, 0), (1, 0, 1, 1)):
        a, b, c, d = gamma
        gz, gt = nm.apply_gamma(gamma, z, tau)
        for i, j in [(i, j) for i in (1, 2, 3) for j in range(i + 1, 9)]:
            lhs = (c * tau + d) ** (-(i + j)) * nm.g_value(i, j, gz, gt) \
                - nm.g_value(i, j, z, tau)
            rhs = nm.poly_value(delta_of_symbol(function_symbol(f"g_{i}_{j}")), {2: z, 1: 0.0},
                                tau, TWO_PI_I * c / (c * tau + d))
            assert abs(lhs - rhs) < 1e-10, (gamma, i, j, abs(lhs - rhs))


def test_function_symbols_and_weights():
    assert nm.elliptic_shift(1, 1) == TWO_PI_I and nm.elliptic_shift(2, 3) == 0
    for fn_id, sym, weight in (("Ptilde_1", ("Pt", 2, 1), 1), ("P~1", ("Pt", 2, 1), 1),
                               ("P_2", ("P", 2, 2, 1), 2), ("G_4", ("G", 4), 4),
                               ("g_1_3", ("g", 1, 3, 2, 1), 4)):
        assert function_symbol(fn_id) == sym and sym_weight(sym) == weight
    for bad in ("nosuch", "G_x", "P_x", "P_0", "G_3", "g_1", "g_0_2", "g_1_2_3", "P_+2"):
        with pytest.raises(KeyError):
            function_symbol(bad)
    with pytest.raises(KeyError):
        nm.function_value("nosuch", 0.1 + 0.3j, 1.2j)
    # an unknown id is not missing mathematics
    with pytest.raises(KeyError) as info:
        delta_of_symbol(function_symbol("nosuch"))
    assert not isinstance(info.value, DeltaUnknownError)


def test_eisenstein_lambert_sum():
    # G_2k from the Lambert sum at zeta = 1 against the lattice double sum,
    # and G_2 (no absolutely convergent double sum) against its q-expansion
    for tau in (1.3j, 0.3 + 0.9j):
        for two_k in (4, 6, 8, 10):
            lambert = nm.function_value(f"G_{two_k}", 0j, tau)
            lattice = nm.eisenstein_lattice_value(two_k, tau)
            assert abs(lambert - lattice) < 1e-8 * max(1.0, abs(lattice)), (tau, two_k)
    g2 = nm.function_value("G_2", 0j, 1.3j)
    assert abs(g2 - nm.eisenstein_value(2, 1.3j, truncation=120)) < 1e-12


def test_zeta_sum_once_per_argument():
    nm.zeta_even_numeric.cache_clear()
    for two_k in (2, 4, 2, 2):
        assert nm.zeta_even_numeric(two_k) == pytest.approx(
            {2: math.pi ** 2 / 6, 4: math.pi ** 4 / 90}[two_k], rel=1e-10)
    info = nm.zeta_even_numeric.cache_info()
    assert (info.misses, info.hits) == (2, 2)


def test_zeta_sum_stops_where_terms_no_longer_count():
    # bit for bit the full left-to-right sum over n < ZETA_TERMS plus the tail
    for two_k in range(2, 22, 2):
        full = 0.0
        for n in range(1, nm.ZETA_TERMS):
            full += n ** (-two_k)
        full += nm.ZETA_TERMS ** (1 - two_k) / (two_k - 1)
        assert nm.zeta_even_numeric(two_k).hex() == full.hex(), two_k


# -- the symbol-value memo ------------------------------------------------------

_MEMO_SYMBOLS = tuple(function_symbol(f) for f in
                      ("Ptilde_1", "P_2", "P_3", "P_4", "g_1_3", "g_2_5", "G_2", "G_4", "G_6"))
_PART = st.one_of(st.sampled_from([0.0, -0.0, 0.25, -0.5]),
                  st.floats(-0.9, 0.9, allow_subnormal=False))


def _bits(value: complex) -> tuple[str, str]:
    return value.real.hex(), value.imag.hex()


def _equal_spellings(x: float, y: float) -> list:
    """complex(x, y) with each zero part's sign flipped, and as a float and an int if it is one."""
    def signs(v):
        return (v, -v) if v == 0 else (v,)
    out = [complex(a, b) for a in signs(x) for b in signs(y)]
    if y == 0:
        out += [float(a) for a in signs(x)] + ([int(x)] if x.is_integer() else [])
    return out


@given(sym=st.sampled_from(_MEMO_SYMBOLS), x=_PART, y=_PART, tau_re=_PART,
       tau_im=st.floats(0.8, 1.6))
def test_symbol_value_memo_returns_the_bits_of_a_cold_call(sym, x, y, tau_re, tau_im):
    # every spelling of one point, signed zeros included, warm after the first and
    # cold after a cleared memo, gives the first call's bits
    zs, taus = _equal_spellings(x, y), _equal_spellings(tau_re, tau_im)
    nm._symbol_value.cache_clear()
    try:
        first = _bits(nm.symbol_value(sym, zs[0], taus[0]))
    except ZeroDivisionError:  # z on the lattice Z + tau Z
        assert nm._symbol_value.cache_info().currsize == 0
        return
    for z in zs:
        for tau in taus:
            assert _bits(nm.symbol_value(sym, z, tau)) == first, (z, tau)
            nm._symbol_value.cache_clear()
            assert _bits(nm.symbol_value(sym, z, tau)) == first, (z, tau)


def test_signed_zero_twins_sum_to_the_same_bits():
    # the sums themselves, before the memo reads -0.0 as +0.0: no twin on this grid
    # differs, so reading it so changes no value
    raw = nm._symbol_value.__wrapped__
    parts = (0.0, 0.25, -0.25, -0.4)
    for sym in _MEMO_SYMBOLS:
        for x in parts:
            for y in parts:
                for tau in (1.1j, complex(-0.3, 0.8)):
                    z = None if sym[0] == "G" else complex(x, y)
                    try:
                        ref = _bits(raw(sym, z, tau))
                    except ZeroDivisionError:
                        continue
                    twins = [complex(-a if a == 0 else a, -b if b == 0 else b)
                             for a, b in ((x, y), (tau.real, tau.imag))]
                    z_twin = None if z is None else twins[0]
                    assert _bits(raw(sym, z_twin, tau)) == ref, (sym, z, tau)
                    assert _bits(raw(sym, z, twins[1])) == ref, (sym, z, tau)


def test_symbol_value_memo_is_bounded():
    nm._symbol_value.cache_clear()
    sym = function_symbol("G_4")
    for n in range(nm.SYMBOL_VALUES + 10):
        nm.symbol_value(sym, None, complex(0, 1 + n / 1000))
    info = nm._symbol_value.cache_info()
    assert info.maxsize == info.currsize == nm.SYMBOL_VALUES
    nm.symbol_value(sym, None, complex(0, 1 + (nm.SYMBOL_VALUES + 9) / 1000))
    assert nm._symbol_value.cache_info().hits == info.hits + 1


def test_symbol_value_keeps_no_refused_call():
    nm._symbol_value.cache_clear()
    refused = [(("P", 3, 2, 1), 0j, 1.2j, ZeroDivisionError),  # a pole
               (("G", 172), None, 1.2j, symbols.UnsupportedError),  # (2k-1)! past the floats
               (("P", 4, 2, 1), 0.0001j, 0.0005j, symbols.UnsupportedError),  # the term cap
               (("P", 3, 2, 1), 1e308, 1.2j, symbols.UnsupportedError),  # Re z past the floats
               (("P", 3, 2, 1), 0.1, complex(1e308, 1), symbols.UnsupportedError),
               (("g", 150, 151, 2, 1), 0.1, 0.5j, OverflowError),  # l**150 is no float
               (("B",), 0.1, 1.2j, KeyError)]  # no numeric value
    for sym, z, tau, error in refused:
        with pytest.raises(error):
            nm.symbol_value(sym, z, tau)
    assert nm._symbol_value.cache_info().currsize == 0
    # the largest G_2k whose sum stays in the floats is near 2 zeta(170) = 2 at tau = 1.2i
    assert abs(nm.symbol_value(("G", 170), None, 1.2j) - 2) < 1e-6
