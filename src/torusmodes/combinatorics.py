"""Stirling/Eulerian combinatorics behind the correlator recursion.

Exact integer and rational apparatus: Stirling numbers of both kinds,
Eulerian numbers, descent statistics, the unique partition of a tuple into
maximal increasing runs, the run-counting polynomials C_u in the variable
w = q**k/(1-q**k) (each a ``LaurentPoly`` in w with int coefficients), and
the Kronecker-delta collapse identity that reduces the ordered zero-mode
recursion to the commuting one.

Everything here is arbitrary precision; the brute-force enumerations that
check it live in ``torusmodes.verify``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .ratfunc import LaurentPoly


@lru_cache(maxsize=None)
def stirling_first(n: int, k: int) -> int:
    """Signed Stirling number of the first kind s(n, k).

    Coefficient of x**k in the falling factorial (x)_n; s(0,0) = 1 and
    s(n,k) = 0 for k < 0 or k > n.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if k < 0 or k > n:
        return 0
    if n == 0:
        return 1
    # (x)_n = (x - (n-1)) (x)_{n-1}
    return stirling_first(n - 1, k - 1) - (n - 1) * stirling_first(n - 1, k)


@lru_cache(maxsize=None)
def stirling_second(n: int, k: int) -> int:
    """Stirling number of the second kind S(n, k), with S(0,0) = 1."""
    if n < 0 or k < 0:
        raise ValueError("n, k must be nonnegative")
    if k > n:
        return 0
    if n == 0:
        return 1
    if k == 0:
        return 0
    return k * stirling_second(n - 1, k) + stirling_second(n - 1, k - 1)


def eulerian(n: int, k: int) -> int:
    """Eulerian number A(n, k): permutations of (1..n) with k descents."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if k < 0 or k > n - 1:
        return 0
    return eulerian_polynomial(n)[k]


@lru_cache(maxsize=None)
def eulerian_polynomial(n: int) -> tuple[int, ...]:
    """(A(n,0), ..., A(n,n-1)), each row built from the previous one; A_0 = (1,)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    row = (1,)
    for m in range(1, n + 1):
        p = (0, *row, 0)  # p[k + 1] = A(m-1, k), zero off the row
        row = tuple((k + 1) * p[k + 1] + (m - k) * p[k] for k in range(m))
    return row


def _check_distinct(u):
    if len(set(u)) != len(u):
        raise ValueError(f"tuple entries must be distinct: {u}")


def descent_count(u: tuple[int, ...]) -> int:
    """Number of positions j with u[j+1] < u[j]."""
    return sum(1 for a, b in zip(u, u[1:]) if b < a)


def increasing_runs(u: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The unique maximal partition of u into strictly increasing runs.

    Splits exactly at the descents, so the number of runs is
    descent_count(u) + 1 for nonempty u.
    """
    _check_distinct(u)
    if not u:
        return ()
    runs = []
    start = 0
    for j in range(len(u) - 1):
        if u[j + 1] < u[j]:
            runs.append(tuple(u[start:j + 1]))
            start = j + 1
    runs.append(tuple(u[start:]))
    return tuple(runs)


def c_polynomial(u: tuple[int, ...]) -> LaurentPoly:
    """C_u as a polynomial in w, via the descent closed form.

    C_u = sum_i binom(u - des - 1, i) w**(i + des + 1) where des is the
    descent count; C_() = 1.
    """
    _check_distinct(u)
    if not u:
        return LaurentPoly.const(1)
    n = len(u)
    des = descent_count(u)
    return LaurentPoly({i + des + 1: comb(n - des - 1, i) for i in range(n - des)})


@lru_cache(maxsize=None)
def _one_run_polynomial(r: int) -> LaurentPoly:
    """C of one increasing run of length r >= 1: sum_j binom(r-1, j) w**(j+1)."""
    return LaurentPoly({j + 1: comb(r - 1, j) for j in range(r)})


def c_polynomial_by_runs(u: tuple[int, ...]) -> LaurentPoly:
    """C_u as the product over maximal increasing runs of the one-run polynomials."""
    runs = increasing_runs(u)
    if not runs:
        return LaurentPoly.const(1)
    result = _one_run_polynomial(len(runs[0]))
    for run in runs[1:]:
        result = result * _one_run_polynomial(len(run))
    return result


@lru_cache(maxsize=None)
def recursion_coefficient(u: int, des: int, t: int) -> Fraction:
    """Inner rational coefficient of the ordered recursion.

    The coefficient multiplying (2*pi*i)**(u-t) g^t_{m+1} contributed by one
    permutation block of length u with des descents:

        sum_i binom(u-des-1, i) * s(i+des+1, t) / (i+des+1)!
    """
    if not (0 <= t <= u):
        raise ValueError("need 0 <= t <= u")
    if u >= 1 and des > u - 1:
        raise ValueError("need des <= u - 1")
    total = Fraction(0)
    for i in range(u - des):
        order = i + des + 1
        s = stirling_first(order, t)
        if s:
            total += Fraction(comb(u - des - 1, i) * s, factorial(order))
    return total


def identity_comm_lhs(u: int, t: int) -> Fraction:
    """Eulerian-weighted sum of recursion coefficients; equals delta_{u,t}."""
    if u < 1:
        raise ValueError("u must be >= 1")
    if not (0 <= t <= u):
        raise ValueError("need 0 <= t <= u")
    total = Fraction(0)
    for des in range(u):
        a = eulerian(u, des)
        if a:
            total += a * recursion_coefficient(u, des, t)
    return total
