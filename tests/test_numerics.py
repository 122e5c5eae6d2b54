import cmath

import pytest

from torusmodes import elliptic as el
from torusmodes import numerics as nm
from torusmodes.scaled import TWO_PI_I
from torusmodes.symbols import (DeltaUnknownError, delta_anomaly, function_symbol,
                               sym_weight)


def test_weierstrass_oracle_matches_p_values():
    z, tau = 0.3j, 1.1j
    assert abs(nm.p_value(1, z, tau)
               - (-nm.wp_value(1, z, tau) + nm.eisenstein_value(2, tau) * z
                  - 1j * cmath.pi)) < 1e-8
    assert abs(nm.p_value(2, z, tau)
               - (nm.wp_value(2, z, tau) + nm.eisenstein_value(2, tau))) < 1e-8
    for k in (3, 4, 5):
        assert abs(nm.p_value(k, z, tau) - (-1) ** k * nm.wp_value(k, z, tau)) < 1e-8


def test_layer_eval_matches_lambert():
    z, tau = 0.25 + 0.4j, 0.1 + 1.2j
    for k in (1, 2, 3):
        val, tail = el.p_expansion(k, 60).eval_numeric(z, tau)
        assert abs(val - nm.p_value(k, z, tau)) < 1e-10
        assert tail < 1e-10
    for (i, j) in ((1, 2), (1, 3), (2, 3)):
        val, _ = el.g_expansion(i, j, 60).eval_numeric(z, tau)
        assert abs(val - nm.g_value(i, j, z, tau)) < 1e-9


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
    # P~1 shifts by 2 pi i as well
    assert abs(nm.p_tilde_1_value(z + tau, tau) - nm.p_tilde_1_value(z, tau)
               - TWO_PI_I) < 1e-10


def test_modular_laws_at_samples():
    pts = nm.sample_points(20)
    assert len(pts) == 20
    gammas = ((0, -1, 1, 0), (1, 1, 0, 1), (1, -1, 1, 0), (1, 0, 1, 1))
    for fn in ("Ptilde_1", "P_2", "P_3", "P_4", "G_2", "G_4"):
        for gamma in gammas:
            for z, tau in pts[:5]:
                rep = nm.verify_modular(fn, gamma, z, tau, truncation=60)
                assert rep["residual"] < 1e-6, (fn, gamma, rep)


def test_sample_points_deterministic():
    assert nm.sample_points(6) == nm.sample_points(6)


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
    # the tabulated Delta g^1_j, z-tails included, against the actual transforms
    z, tau = 0.11 + 0.23j, 0.13 + 1.21j
    for gamma in ((0, -1, 1, 0), (1, 0, 1, 1)):
        a, b, c, d = gamma
        gz, gt = nm.apply_gamma(gamma, z, tau)
        for j in (2, 3, 4, 5):
            lhs = (c * tau + d) ** (-(1 + j)) * nm.g_value(1, j, gz, gt) \
                - nm.g_value(1, j, z, tau)
            rhs = nm.poly_value(delta_anomaly(f"g_1_{j}"), gamma, z, tau, route="lambert")
            assert abs(lhs - rhs) < 1e-10, (gamma, j)


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
        delta_anomaly("nosuch")
    assert not isinstance(info.value, DeltaUnknownError)
