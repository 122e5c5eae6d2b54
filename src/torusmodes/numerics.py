"""Numeric evaluation and transformation-law checks.

The coefficient functions are evaluated by closed Lambert-type sums,

      g^i_j/(2*pi*i)**(i+j) = (1/(j-1)!) [ [i = 0] Li_{1-j}(zeta)
          + sum_{l>=1} l**i (Li_{1-j}(zeta q**l) + (-1)**(j-i) Li_{1-j}(zeta**-1 q**l)) ]

with P_k = g^0_k and P~_1 = P_1 + pi*i, where Li_{1-k}(w) = w A_{k-1}(w)/(1-w)**k
is a rational function.  The sums converge geometrically for any z off the
lattice Z + tau Z, with no reduction into a strip.  G_{2k} is the same l >= 1
sum at zeta = 1 plus its constant term -B_{2k}/(2k)!, so one stopping rule and
one term cap serve every symbol.  :func:`symbol_value` sums each value once
per (symbol, point) per process and keeps it in a bounded memo, so a
repeated check pays only for its report.  The truncated layer expansions of
:class:`~torusmodes.elliptic.BivariateExpansion` are evaluated only where they
are under test: the ``elliptic-numeric`` suite passes its own evaluator to
:func:`verify_modular`.

Weierstrass functions and G_{2k} (2k >= 4) have oracles independent of any
q-expansion: grouped lattice sums with the inner sum in closed cotangent form,

      sum_{n in Z} (w+n)**-k = ((-1)**(k-1)/(k-1)!) (d/dw)**(k-1) [pi cot(pi w)],

with cot-derivatives generated by the polynomial recurrence P' -> P'(c)(-1-c**2).
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache
from math import factorial

from .combinatorics import eulerian_polynomial
from .qseries import bernoulli, eisenstein
from .ratfunc import LaurentPoly
from .scaled import TWO_PI_I
from .symbols import UnsupportedError, delta_of_symbol, derive, function_symbol, sym_weight

LAMBERT_TOL = 1e-14  # a Lambert sum stops once its terms and tail bound are below this
LAMBERT_TERMS = 4000  # a Lambert sum that needs more terms is refused as unsupported
SYMBOL_VALUES = 1024  # values symbol_value keeps: 7x the 144 all suites sum, so memory stays flat
ZETA_TERMS = 200000  # terms of the direct zeta(2k) sum before its integral tail
WP_ROWS = 60  # lattice rows m tau, |m| <= WP_ROWS, of the Weierstrass sums
EISENSTEIN_ROWS = 80  # lattice rows of the G_{2k} double sum


def sl2_check(gamma) -> tuple[int, int, int, int]:
    a, b, c, d = (int(x) for x in gamma)
    if a * d - b * c != 1:
        raise ValueError(f"gamma={gamma} is not in SL(2,Z)")
    return a, b, c, d


def apply_gamma(gamma, z: complex, tau: complex) -> tuple[complex, complex]:
    a, b, c, d = sl2_check(gamma)
    j = c * tau + d
    return z / j, (a * tau + b) / j


# -- Lambert sums -------------------------------------------------------------

def li_neg(p: int, w: complex) -> complex:
    """sum_{n>=1} n**p w**n = w A_p(w)/(1-w)**(p+1) (analytic continuation)."""
    omw = 1 - w
    if abs(omw) < 1e-10:
        raise ZeroDivisionError(f"Li_{-p} evaluated too close to the pole w=1 (w={w})")
    num = 0j
    for j, c in enumerate(eulerian_polynomial(p)):
        num += c * w ** (j + 1)
    return num / omw ** (p + 1)


def _too_many_terms(tau: complex) -> UnsupportedError:
    return UnsupportedError(f"the Lambert sums at tau={tau} need more than {LAMBERT_TERMS} "
                            f"terms; Im tau is too small for them")


def _exp_2pi_i(name: str, x: complex) -> complex:
    """exp(2*pi*i*x), refused when 2*pi*Re x leaves the floating-point range."""
    arg = TWO_PI_I * x
    if math.isinf(arg.imag):
        raise UnsupportedError(f"exp(2*pi*i*{name}) at {name}={x} leaves the floating-point "
                               f"range: |Re {name}| is too large for it")
    return cmath.exp(arg)


def _lambert_nome(tau: complex) -> complex:
    """q = exp(2*pi*i*tau), refused up front when no Lambert sum at it can stop.

    The tail bound of term l is at least |q|**(l+1), so at a |q| with
    |q|**(LAMBERT_TERMS+1) >= LAMBERT_TOL every sum would run into the term cap.
    """
    if tau.imag <= 0:
        raise ValueError("Im tau must be positive")
    q = _exp_2pi_i("tau", tau)
    if abs(q) ** (LAMBERT_TERMS + 1) >= LAMBERT_TOL:
        raise _too_many_terms(tau)
    return q


def _lambert_sum(i: int, j: int, zeta: complex, tau: complex, total: complex = 0j) -> complex:
    """total + sum_{l>=1} l**i [Li_{1-j}(zeta q**l) + (-1)**(j-i) Li_{1-j}(q**l/zeta)].

    Both arguments decay geometrically in l.  The sum stops once its last term
    and its geometric tail bound are below LAMBERT_TOL; one that needs more
    than LAMBERT_TERMS terms (Im tau too small) raises UnsupportedError.
    """
    q = _lambert_nome(tau)
    sign = (-1) ** (j - i)
    l = 1
    while True:
        term = l ** i * li_neg(j - 1, zeta * q ** l)
        term += sign * l ** i * li_neg(j - 1, q ** l / zeta)
        total += term
        bound = max(abs(zeta), 1 / abs(zeta)) * abs(q) ** (l + 1)
        if bound < 1 and max(abs(term), l ** i * bound / (1 - abs(q))) < LAMBERT_TOL:
            return total
        l += 1
        if l > LAMBERT_TERMS:
            raise _too_many_terms(tau)


def g_value(i: int, j: int, z: complex, tau: complex) -> complex:
    """g^i_j(z, tau) by geometrically convergent Lambert sums.

    Valid for any z off the poles and Im tau > 0; in particular outside the
    fundamental strip, where the layer expansion does not converge.
    """
    if j < 1:
        raise ValueError("j must be >= 1")
    # li_neg takes w**j with |w| up to exp(2*pi*|Im z|), times Eulerian numbers below (j-1)!
    if j * 2 * math.pi * abs(z.imag) + math.lgamma(j) > 700:
        raise UnsupportedError(f"the Lambert sums of g^{i}_{j} at z={z} leave the "
                               f"floating-point range: |Im z| is too large for them")
    _lambert_nome(tau)  # a tau the sums cannot finish at is refused before the l = 0 term
    zeta = _exp_2pi_i("z", z)
    total = li_neg(j - 1, zeta) if i == 0 else 0j
    return TWO_PI_I ** (i + j) / factorial(j - 1) * _lambert_sum(i, j, zeta, tau, total)


def p_value(k: int, z: complex, tau: complex) -> complex:
    return g_value(0, k, z, tau)


# -- Weierstrass oracles ------------------------------------------------------

@lru_cache(maxsize=None)
def _cot_deriv_poly(n: int) -> LaurentPoly:
    """P_n(c) with (d/dw)^n cot(w) = P_n(cot w), keys ascending; P' -> P'(c)(-1-c^2)."""
    if n == 0:
        return LaurentPoly({1: 1})
    return _cot_deriv_poly(n - 1).zeta_ddzeta().shift(-1) * LaurentPoly({0: -1, 2: -1})


def _sum_over_integers(k: int, w: complex) -> complex:
    """T_k(w) = sum_{n in Z} (w+n)**-k in closed cotangent form."""
    val = _cot_deriv_poly(k - 1).evaluate(1 / cmath.tan(cmath.pi * w))
    return (-1) ** (k - 1) / factorial(k - 1) * cmath.pi ** k * val


@lru_cache(maxsize=None)
def zeta_even_numeric(two_k: int) -> float:
    """sum n**-2k by direct summation with an integral tail correction.

    The terms are added left to right for n < ZETA_TERMS, up to the first n
    with n**2k >= 2**54: that term and every later one lie below half an ulp
    of the running sum, which is in [1, 2), so they would leave it unchanged.
    """
    stop = math.ceil(2 ** (54 / two_k))
    while stop ** two_k < 1 << 54:
        stop += 1
    s = 0.0
    for n in range(1, min(stop, ZETA_TERMS)):
        s += n ** (-two_k)
    return s + ZETA_TERMS ** (1 - two_k) / (two_k - 1)


def wp_value(k: int, z: complex, tau: complex) -> complex:
    """wp_k(z, tau) by grouped lattice sums (independent of any q-expansion)."""
    if k >= 3:
        total = 0j
        for m in range(-WP_ROWS, WP_ROWS + 1):
            total += _sum_over_integers(k, z - m * tau)
        return total
    if k == 2:
        total = _sum_over_integers(2, z)
        for m in range(1, WP_ROWS + 1):
            total += (_sum_over_integers(2, z - m * tau) - _sum_over_integers(2, m * tau)
                      + _sum_over_integers(2, z + m * tau) - _sum_over_integers(2, m * tau))
        return total - 2 * zeta_even_numeric(2)
    if k == 1:
        total = cmath.pi / cmath.tan(cmath.pi * z) + 2 * z * zeta_even_numeric(2)
        for m in range(1, WP_ROWS + 1):
            for sgn in (1, -1):
                total += (cmath.pi / cmath.tan(cmath.pi * (z - sgn * m * tau))
                          + cmath.pi / cmath.tan(cmath.pi * (sgn * m * tau))
                          + z * _sum_over_integers(2, sgn * m * tau))
        return total
    raise ValueError("k must be >= 1")


def eisenstein_lattice_value(two_k: int, tau: complex) -> complex:
    """G_{2k}(tau) summed over the lattice with closed inner sums (2k >= 4)."""
    if two_k < 4 or two_k % 2:
        raise ValueError("absolutely convergent double sum needs even weight >= 4")
    total = 2 * zeta_even_numeric(two_k)
    for m in range(1, EISENSTEIN_ROWS + 1):
        total += _sum_over_integers(two_k, m * tau) + _sum_over_integers(two_k, -m * tau)
    return total


def eisenstein_value(two_k: int, tau: complex, truncation: int = 60) -> complex:
    return eisenstein(two_k, truncation).evaluate(tau=tau)


# -- symbol values and modular laws ------------------------------------------

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


def symbol_value(sym, z: complex, tau: complex) -> complex:
    """Evaluate a coefficient symbol by Lambert sums; two-point symbols take the argument z.

    Each value is summed once per (symbol, point) per process and kept in a
    memo of SYMBOL_VALUES entries; a call that raises stores nothing.  The memo
    reads z and tau as complex numbers with -0.0 made +0.0 (x + 0j is x
    otherwise), and G_2k takes no z, so arguments that compare equal (-0.0 and
    0.0, or an int, float and complex of one number) share one entry, and a
    warm call returns the bits of a cold one.
    """
    z = None if z is None or sym[0] == "G" else z + 0j
    return _symbol_value(sym, z, tau + 0j)


@lru_cache(maxsize=SYMBOL_VALUES)
def _symbol_value(sym, z: complex | None, tau: complex) -> complex:
    kind = sym[0]
    if kind == "G":
        two_k = sym[1]
        if two_k > 170:  # 170! is a float and 171! is not
            raise UnsupportedError(f"the Lambert sum of G_{two_k} divides by {two_k - 1}!, "
                                   f"which leaves the floating-point range")
        return TWO_PI_I ** two_k * (_lambert_sum(0, two_k, 1.0, tau) / factorial(two_k - 1)
                                    - float(bernoulli(two_k) / factorial(two_k)))
    if kind == "Pt":
        return g_value(0, 1, z, tau) + 1j * cmath.pi
    if kind == "P":
        return g_value(0, sym[1], z, tau)
    if kind == "g":
        return g_value(sym[1], sym[2], z, tau)
    raise KeyError(f"no numeric value for symbol {sym!r}")


def function_value(fn_id: str, z: complex, tau: complex) -> complex:
    """Evaluate a named function (an id of :func:`symbols.function_symbol`)."""
    return symbol_value(function_symbol(fn_id), z, tau)


def poly_value(poly, zs, tau: complex, b: complex = 0) -> complex:
    """Numeric value of a coefficient polynomial with position a at z = zs[a].

    A two-point symbol at (hi, lo) takes the argument zs[hi] - zs[lo], z_a
    takes zs[a], B takes ``b`` and the pi*i marker 1 (its value lives in its
    coefficient); G_2k takes no z.
    """
    total = 0j
    for mono, coeff in poly.terms.items():
        val = complex(coeff)
        for sym, e in mono:
            kind = sym[0]
            if kind == "B":
                base = b
            elif kind == "z":
                base = zs[sym[1]]
            elif kind == "pi":
                base = 1.0
            elif kind == "G":
                base = symbol_value(sym, None, tau)
            else:
                base = symbol_value(sym, zs[sym[-2]] - zs[sym[-1]], tau)
            val *= base ** e
        total += val
    return total


def _law_out_of_range(fn_id: str, z: complex, tau: complex) -> UnsupportedError:
    return UnsupportedError(f"the law of {fn_id} at z={z}, tau={tau} leaves the "
                            f"floating-point range")


def verify_modular(fn_id: str, gamma, z: complex, tau: complex, tol: float = 1e-10,
                   value=symbol_value) -> dict:
    """Check one law (c*tau + d)**-w f(gamma z, gamma tau) = f + Delta f.

    ``value(sym, z, tau)`` evaluates f at both points; Delta f is delta_of_symbol's,
    through :func:`poly_value`.  D f is taken before anything is evaluated, so an
    id D does not reach raises DeltaUnknownError at every point, and a gamma tau
    whose imaginary part is lost in floating point raises UnsupportedError before
    anything is evaluated.  Delta f, whose expansion takes seconds for a deep
    g^i_j, is expanded only once f(z, tau) and f(gamma z, gamma tau) are summed,
    so a value out of the floating-point range is refused first, and a side that
    leaves that range raises UnsupportedError.  Returns a residual report.
    """
    gamma = sl2_check(gamma)
    _, _, c, d = gamma
    sym = function_symbol(fn_id)
    derive(sym)  # DeltaUnknownError where D does not reach, before any sum
    w = sym_weight(sym)
    try:
        factor = (c * tau + d) ** w
    except OverflowError:
        raise UnsupportedError(f"(c*tau + d)**{w} at tau={tau} leaves the floating-point "
                               f"range: |tau| is too large for it") from None
    gz, gt = apply_gamma(gamma, z, tau)
    if gt.imag <= 0:
        raise UnsupportedError(f"gamma tau = {gt} at tau={tau} loses its imaginary part in "
                               f"floating point: |c*tau + d| is too large for it")
    b = TWO_PI_I * c / (c * tau + d)
    try:  # a sum's weight l**i, or a power of z in Delta f, can pass the largest float
        f = value(sym, z, tau)  # both values are summed before Delta f is expanded
        lhs = value(sym, gz, gt)
        rhs = factor * (f + poly_value(delta_of_symbol(sym), {2: z, 1: 0.0}, tau, b))
    except OverflowError:
        raise _law_out_of_range(fn_id, z, tau) from None
    if not (cmath.isfinite(lhs) and cmath.isfinite(rhs)):
        raise _law_out_of_range(fn_id, z, tau)
    scale = max(1.0, abs(lhs), abs(rhs))
    residual = abs(lhs - rhs) / scale
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


def verify_elliptic_shift(k: int, z: complex, tau: complex) -> dict:
    """Check P_k(z+tau) - P_k(z) against the elliptic shift, via Lambert values."""
    lhs = p_value(k, z + tau, tau) - p_value(k, z, tau)
    expected = elliptic_shift(k, 1)
    residual = abs(lhs - expected) / max(1.0, abs(expected))
    return {"function": f"P_{k}", "shift": "z -> z+tau", "residual": residual,
            "z": [z.real, z.imag], "tau": [tau.real, tau.imag]}


def sample_points(count: int, seed: int = 20409, *, gammas):
    """Deterministic (z, tau) samples with Im tau >= 1, safe for every gamma of ``gammas``.

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
