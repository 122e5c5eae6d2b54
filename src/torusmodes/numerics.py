"""Numeric evaluation and transformation-law checks.

Two independent numeric routes are provided for the two-variable functions:

* the truncated layer expansion of :class:`~torusmodes.elliptic.BivariateExpansion`,
  valid in the strip 0 < Im z < Im tau, and
* closed Lambert-type sums

      P_k/(2*pi*i)**k = (1/(k-1)!) [ sum_{l>=0} Li_{1-k}(zeta q**l)
                                     + (-1)**k sum_{l>=1} Li_{1-k}(zeta**-1 q**l) ]

  where Li_{1-k}(w) = w A_{k-1}(w)/(1-w)**k is a rational function; these
  converge geometrically and analytically continue the functions beyond the
  strip (needed for elliptic-shift checks).

Weierstrass functions are evaluated by a third route, independent of any
q-expansion: grouped lattice sums with the inner sum in closed cotangent
form,

      sum_{n in Z} (w+n)**-k = ((-1)**(k-1)/(k-1)!) (d/dw)**(k-1) [pi cot(pi w)],

with cot-derivatives generated by the polynomial recurrence P' -> P'(c)(-1-c**2).
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache
from math import factorial

from .combinatorics import eulerian_polynomial
from .elliptic import g_expansion, p_expansion
from .qseries import eisenstein
from .scaled import TWO_PI_I
from .symbols import delta_of_symbol, function_symbol, sym_weight

SL2Z_S = (0, -1, 1, 0)
SL2Z_T = (1, 1, 0, 1)


def sl2_check(gamma) -> tuple[int, int, int, int]:
    a, b, c, d = (int(x) for x in gamma)
    if a * d - b * c != 1:
        raise ValueError(f"gamma={gamma} is not in SL(2,Z)")
    return a, b, c, d


def sl2_compose(g1, g2):
    a1, b1, c1, d1 = g1
    a2, b2, c2, d2 = g2
    return (a1 * a2 + b1 * c2, a1 * b2 + b1 * d2, c1 * a2 + d1 * c2, c1 * b2 + d1 * d2)


def apply_gamma(gamma, z: complex, tau: complex) -> tuple[complex, complex]:
    a, b, c, d = sl2_check(gamma)
    j = c * tau + d
    return z / j, (a * tau + b) / j


# -- Lambert-route evaluation -------------------------------------------------

@lru_cache(maxsize=None)
def _li_neg_poly(p: int):
    """Numerator coefficients of Li_{-p}(w) = sum n**p w**n = w A_p(w)/(1-w)**(p+1)."""
    return tuple(eulerian_polynomial(p))


def li_neg(p: int, w: complex) -> complex:
    """sum_{n>=1} n**p w**n as a rational function (analytic continuation)."""
    omw = 1 - w
    if abs(omw) < 1e-10:
        raise ZeroDivisionError(f"Li_{-p} evaluated too close to the pole w=1 (w={w})")
    num = 0j
    for j, c in enumerate(_li_neg_poly(p)):
        num += c * w ** (j + 1)
    return num / omw ** (p + 1)


def g_value(i: int, j: int, z: complex, tau: complex, tol: float = 1e-14) -> complex:
    """g^i_j(z, tau) by geometrically convergent Lambert sums.

    Valid for any z off the poles and Im tau > 0; in particular outside the
    fundamental strip, where the layer expansion does not converge.
    """
    if j < 1:
        raise ValueError("j must be >= 1")
    q = cmath.exp(TWO_PI_I * tau)
    zeta = cmath.exp(TWO_PI_I * z)
    if abs(q) >= 1:
        raise ValueError("Im tau must be positive")
    pref = TWO_PI_I ** (i + j) / factorial(j - 1)
    sign = (-1) ** (j - i)
    total = 0j
    if i == 0:
        total += li_neg(j - 1, zeta)
    l = 1
    # both |zeta q**l| and |zeta**-1 q**l| decay geometrically in l
    while True:
        term = l ** i * li_neg(j - 1, zeta * q ** l)
        term += sign * l ** i * li_neg(j - 1, q ** l / zeta)
        total += term
        bound = max(abs(zeta), 1 / abs(zeta)) * abs(q) ** (l + 1)
        if bound < 1 and abs(term) < tol and l ** i * bound / (1 - abs(q)) < tol:
            break
        l += 1
        if l > 4000:
            raise RuntimeError("Lambert sum failed to converge")
    return pref * total


def p_value(k: int, z: complex, tau: complex) -> complex:
    return g_value(0, k, z, tau)


def p_tilde_1_value(z: complex, tau: complex) -> complex:
    return p_value(1, z, tau) + 1j * cmath.pi


# -- Weierstrass oracles ------------------------------------------------------

@lru_cache(maxsize=None)
def _cot_deriv_poly(n: int) -> tuple[int, ...]:
    """Coefficients of P_n(c) with (d/dw)^n cot(w) = P_n(cot w); P' -> P'(c)(-1-c^2)."""
    if n == 0:
        return (0, 1)
    prev = _cot_deriv_poly(n - 1)
    deriv = [0] * len(prev)
    for e, c in enumerate(prev):
        if e:
            deriv[e - 1] += e * c
    out = [0] * (len(prev) + 1)
    for e, c in enumerate(deriv):
        if c:
            out[e] -= c
            out[e + 2] -= c
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out)


def _sum_over_integers(k: int, w: complex) -> complex:
    """T_k(w) = sum_{n in Z} (w+n)**-k in closed cotangent form."""
    cw = 1 / cmath.tan(cmath.pi * w)
    poly = _cot_deriv_poly(k - 1)
    val = sum(c * cw ** e for e, c in enumerate(poly))
    return (-1) ** (k - 1) / factorial(k - 1) * cmath.pi ** k * val


def zeta_even_numeric(two_k: int, terms: int = 200000) -> float:
    """sum n**-2k by direct summation with an integral tail correction."""
    s = sum(n ** (-two_k) for n in range(1, terms))
    s += terms ** (1 - two_k) / (two_k - 1)
    return s


def wp_value(k: int, z: complex, tau: complex, m_max: int = 60) -> complex:
    """wp_k(z, tau) by grouped lattice sums (independent of any q-expansion)."""
    if k >= 3:
        total = 0j
        for m in range(-m_max, m_max + 1):
            total += _sum_over_integers(k, z - m * tau)
        return total
    if k == 2:
        total = _sum_over_integers(2, z)
        for m in range(1, m_max + 1):
            total += (_sum_over_integers(2, z - m * tau) - _sum_over_integers(2, m * tau)
                      + _sum_over_integers(2, z + m * tau) - _sum_over_integers(2, m * tau))
        return total - 2 * zeta_even_numeric(2)
    if k == 1:
        total = cmath.pi / cmath.tan(cmath.pi * z) + 2 * z * zeta_even_numeric(2)
        for m in range(1, m_max + 1):
            for sgn in (1, -1):
                total += (cmath.pi / cmath.tan(cmath.pi * (z - sgn * m * tau))
                          + cmath.pi / cmath.tan(cmath.pi * (sgn * m * tau))
                          + z * _sum_over_integers(2, sgn * m * tau))
        return total
    raise ValueError("k must be >= 1")


def eisenstein_lattice_value(two_k: int, tau: complex, m_max: int = 80) -> complex:
    """G_{2k}(tau) summed over the lattice with closed inner sums (2k >= 4)."""
    if two_k < 4 or two_k % 2:
        raise ValueError("absolutely convergent double sum needs even weight >= 4")
    total = 2 * zeta_even_numeric(two_k)
    for m in range(1, m_max + 1):
        total += _sum_over_integers(two_k, m * tau) + _sum_over_integers(two_k, -m * tau)
    return total


def eisenstein_value(two_k: int, tau: complex, truncation: int = 60) -> complex:
    return eisenstein(two_k, truncation).evaluate(tau=tau)


# -- strip reduction and modular laws ----------------------------------------

def strip_reduce(z: complex, tau: complex):
    """Shift z by an integer multiple of tau into 0 < Im z < Im tau.

    Returns (z_reduced, lam) with z = z_reduced + lam * tau.
    """
    lam = math.floor(z.imag / tau.imag)
    zr = z - lam * tau
    # guard against landing exactly on the boundary
    if zr.imag <= 0 or zr.imag >= tau.imag:
        raise ValueError(f"z={z} reduces onto the strip boundary for tau={tau}")
    return zr, lam


def elliptic_shift(k: int, lam: int):
    """P_k(z + lam*tau) - P_k(z): 2*pi*i*lam for k = 1, zero for k >= 2."""
    return TWO_PI_I * lam if k == 1 else 0


def symbol_value(sym, z: complex, tau: complex, truncation: int = 60,
                 route: str = "layers") -> complex:
    """Evaluate a coefficient symbol; two-point symbols take the argument z.

    route="layers" uses the truncated layer expansion after strip reduction
    and applies the elliptic shift; route="lambert" uses the closed Lambert
    sums directly (no reduction needed).
    """
    kind = sym[0]
    if kind == "G":
        return eisenstein_value(sym[1], tau, truncation)
    if kind == "Pt":
        return symbol_value(("P", 1) + sym[1:], z, tau, truncation, route) + 1j * cmath.pi
    if kind == "P":
        i, j = 0, sym[1]
    elif kind == "g":
        i, j = sym[1], sym[2]
    else:
        raise KeyError(f"no numeric value for symbol {sym!r}")
    if route == "lambert":
        return g_value(i, j, z, tau)
    zr, lam = strip_reduce(z, tau)
    if i == 0:
        series = p_expansion(j, truncation)
        shift = elliptic_shift(j, lam)
    else:
        if lam != 0:
            raise ValueError("g^i_j layer evaluation requires z in the fundamental strip "
                             "(elliptic shifts of g are not polynomial with known constants)")
        series = g_expansion(i, j, truncation)
        shift = 0
    value, _tail = series.eval_numeric(zr, tau)
    return value + shift


def function_value(fn_id: str, z: complex, tau: complex, truncation: int = 60,
                   route: str = "layers") -> complex:
    """Evaluate a named function (an id of :func:`symbols.function_symbol`)."""
    return symbol_value(function_symbol(fn_id), z, tau, truncation, route)


def poly_value(poly, gamma, z: complex, tau: complex, truncation: int = 60,
               route: str = "layers") -> complex:
    """Numeric value of a coefficient polynomial over positions 2 and 1.

    Position 2 sits at z and position 1 at 0, so every two-point symbol takes
    the argument z; B = 2*pi*i*c/(c*tau + d) for gamma.
    """
    _, _, c, d = gamma
    bval = TWO_PI_I * c / (c * tau + d)
    total = 0j
    for mono, coeff in poly.terms.items():
        val = complex(coeff)
        for sym, e in mono:
            if sym[0] == "B":
                base = bval
            elif sym[0] == "z":
                base = z if sym[1] == 2 else 0.0
            else:
                base = symbol_value(sym, z, tau, truncation, route)
            val *= base ** e
        total += val
    return total


def modular_rhs(fn_id: str, gamma, z: complex, tau: complex, truncation: int = 60) -> complex:
    """(c*tau + d)**w (f + Delta f) at (z, tau), with Delta f from the anomaly table.

    The law is looked up before anything is evaluated, so an id without one
    raises DeltaUnknownError at every point.
    """
    gamma = sl2_check(gamma)
    _, _, c, d = gamma
    sym = function_symbol(fn_id)
    delta = delta_of_symbol(sym)
    f = symbol_value(sym, z, tau, truncation)
    return (c * tau + d) ** sym_weight(sym) * (f + poly_value(delta, gamma, z, tau, truncation))


def verify_modular(fn_id: str, gamma, z: complex, tau: complex,
                   truncation: int = 60, tol: float | None = None) -> dict:
    """Check one tabulated modular law; returns a residual report."""
    gamma = sl2_check(gamma)
    # the right-hand side first: an id without a law fails before any evaluation
    rhs = modular_rhs(fn_id, gamma, z, tau, truncation)
    gz, gt = apply_gamma(gamma, z, tau)
    lhs = function_value(fn_id, gz, gt, truncation)
    scale = max(1.0, abs(lhs), abs(rhs))
    residual = abs(lhs - rhs) / scale
    if tol is None:
        q = cmath.exp(TWO_PI_I * gt)
        tol = max(1e-10, 10 * abs(q) ** (truncation * 0.2))
    return {
        "function": fn_id,
        "gamma": list(gamma),
        "z": [z.real, z.imag],
        "tau": [tau.real, tau.imag],
        "lhs": [lhs.real, lhs.imag],
        "rhs": [rhs.real, rhs.imag],
        "residual": residual,
        "tolerance": tol,
        "status": "pass" if residual < tol else "fail",
    }


def verify_elliptic_shift(k: int, z: complex, tau: complex, truncation: int = 60) -> dict:
    """Check P_k(z+tau) - P_k(z) against the elliptic shift, via Lambert values."""
    lhs = p_value(k, z + tau, tau) - p_value(k, z, tau)
    expected = elliptic_shift(k, 1)
    residual = abs(lhs - expected) / max(1.0, abs(expected))
    return {"function": f"P_{k}", "shift": "z -> z+tau", "residual": residual,
            "z": [z.real, z.imag], "tau": [tau.real, tau.imag]}


def sample_points(count: int, seed: int = 20409,
                  gammas=((0, -1, 1, 0), (1, 1, 0, 1), (1, 0, 1, 1), (1, -1, 1, 0))):
    """Deterministic (z, tau) samples with Im tau >= 1, safe for all gammas.

    Points are chosen so that z and every gamma z reduce comfortably inside
    the fundamental strip of the corresponding tau; this keeps the layer
    expansions geometrically convergent at truncation-dominated accuracy.
    """
    import random
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        tau = complex(0.8 * rng.random() - 0.4, 1.0 + 0.6 * rng.random())
        lam = 0.2 + 0.6 * rng.random()
        mu = 0.8 * rng.random() - 0.4
        z = mu + lam * tau
        ok = True
        for gamma in gammas:
            gz, gt = apply_gamma(gamma, z, tau)
            frac = (gz.imag / gt.imag) % 1.0
            if not (0.18 < frac < 0.82):
                ok = False
                break
        if ok and 0.15 < (z.imag / tau.imag) < 0.85:
            out.append((z, tau))
    return out
