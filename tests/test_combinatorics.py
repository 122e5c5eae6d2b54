import itertools
import math
import random
from fractions import Fraction

import pytest

from torusmodes import combinatorics as cb
from torusmodes import verify
from torusmodes.ratfunc import LaurentPoly

from suite_cases import assert_case


def test_stirling_first_examples():
    assert cb.stirling_first(0, 0) == 1
    assert cb.stirling_first(3, 2) == -3  # x(x-1)(x-2) = x^3 - 3x^2 + 2x
    assert cb.stirling_first(4, -1) == 0
    assert cb.stirling_first(5, 6) == 0


def test_stirling_first_matches_falling_factorial():
    # expand (x)_n brute force as integer polynomial coefficients
    for n in range(0, 9):
        coeffs = [Fraction(0)] * (n + 1)
        poly = [Fraction(1)]
        for j in range(n):
            # multiply by (x - j)
            new = [Fraction(0)] * (len(poly) + 1)
            for e, c in enumerate(poly):
                new[e + 1] += c
                new[e] -= j * c
            poly = new
        for e, c in enumerate(poly):
            coeffs[e] = c
        for k in range(n + 1):
            assert cb.stirling_first(n, k) == coeffs[k]


def test_stirling_second_examples():
    assert cb.stirling_second(0, 0) == 1
    assert cb.stirling_second(3, 2) == 3
    assert cb.stirling_second(2, 5) == 0
    assert cb.stirling_second(4, 0) == 0


def test_stirling_second_counts_set_partitions():
    def blocks(n, k):
        count = 0
        # assign each element to a block index, count surjections / k!
        for assign in itertools.product(range(k), repeat=n):
            if len(set(assign)) == k:
                count += 1
        import math
        return count // math.factorial(k)

    for n in range(1, 7):
        for k in range(1, n + 1):
            assert cb.stirling_second(n, k) == blocks(n, k)


def test_eulerian_examples_and_enumeration():
    assert cb.eulerian(1, 0) == 1
    assert cb.eulerian(3, 1) == 4
    assert cb.eulerian(3, 3) == 0
    for n in range(1, 8):
        seen = {}
        for perm in itertools.permutations(range(1, n + 1)):
            d = cb.descent_count(perm)
            seen[d] = seen.get(d, 0) + 1
        for k in range(n):
            assert cb.eulerian(n, k) == seen.get(k, 0)


def test_eulerian_row_is_built_without_deep_recursion():
    # row n counts all n! permutations; a recursion n levels deep fails at n = 600
    assert sum(cb.eulerian_polynomial(600)) == math.factorial(600)
    assert cb.eulerian_polynomial(0) == (1,) and cb.eulerian_polynomial(1) == (1,)


def test_descents_and_runs():
    assert cb.descent_count((2, 3, 1, 4)) == 1
    assert cb.descent_count(()) == 0
    assert cb.descent_count((3, 2, 1)) == 2
    assert cb.increasing_runs((2, 3, 1, 4)) == ((2, 3), (1, 4))
    assert cb.increasing_runs((1, 2, 3)) == ((1, 2, 3),)
    assert cb.increasing_runs((3, 2, 1)) == ((3,), (2,), (1,))
    with pytest.raises(ValueError):
        cb.increasing_runs((1, 1))


def test_run_count_is_descents_plus_one():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 9)
        perm = tuple(rng.sample(range(1, 20), n))
        runs = cb.increasing_runs(perm)
        assert len(runs) == cb.descent_count(perm) + 1
        assert sum(runs, ()) == perm


def test_c_polynomial_worked_example():
    assert_case("combinatorics", "worked_example_C_2314")
    assert cb.c_polynomial(()).coeffs == cb.c_polynomial_by_runs(()).coeffs == {0: 1}


def test_c_polynomial_increasing_tuple():
    from math import comb
    for n in range(1, 7):
        u = tuple(range(1, n + 1))
        assert cb.c_polynomial(u).coeffs == cb.c_polynomial_by_runs(u).coeffs == \
            {j + 1: comb(n - 1, j) for j in range(n)}


def test_c_polynomial_three_routes_exhaustive():
    assert_case("combinatorics", "c_polynomial_three_routes")


def test_c_polynomial_three_routes_sampled_n8():
    rng = random.Random(20409)
    for n in (7, 8):
        for _ in range(400):
            perm = tuple(rng.sample(range(1, n + 1), n))
            closed = cb.c_polynomial(perm)
            assert closed == verify._brute_c_polynomial(perm)
            assert closed == cb.c_polynomial_by_runs(perm)


def _c_polynomial_by_masks(u):
    """C_u by the exhaustive filter: all 2^(n-1) compositions, increasing pieces kept."""
    n = len(u)
    coeffs = {}
    for mask in range(1 << max(n - 1, 0)):
        pieces = []
        start = 0
        for j in range(n - 1):
            if mask >> j & 1:
                pieces.append(u[start:j + 1])
                start = j + 1
        pieces.append(u[start:])
        if n and all(a <= b for piece in pieces for a, b in zip(piece, piece[1:])):
            coeffs[len(pieces)] = coeffs.get(len(pieces), 0) + 1
    return LaurentPoly(coeffs) if n else LaurentPoly.const(1)


def test_pruned_oracle_equals_mask_filter():
    for n in range(0, 8):
        for perm in itertools.permutations(range(1, n + 1)):
            assert verify._brute_c_polynomial(perm) == _c_polynomial_by_masks(perm)
    # ties are not descents, as in the filter
    for u in ((2, 2, 1), (1, 1, 1), (3, 1, 1, 2, 2)):
        assert verify._brute_c_polynomial(u) == _c_polynomial_by_masks(u)


def test_recursion_coefficient_examples():
    assert cb.recursion_coefficient(1, 0, 1) == 1
    # direct evaluation of the u=2, des=0, t=2 sum
    from math import comb, factorial
    want = sum(Fraction(comb(1, i) * cb.stirling_first(i + 1, 2), factorial(i + 1))
               for i in range(2))
    assert cb.recursion_coefficient(2, 0, 2) == want


def test_cached_recursion_coefficient_equals_the_sum():
    from math import comb, factorial
    for u in range(9):
        for des in range(max(u, 1)):
            for t in range(u + 1):
                want = sum(Fraction(comb(u - des - 1, i) * cb.stirling_first(i + des + 1, t),
                                    factorial(i + des + 1)) for i in range(u - des))
                assert cb.recursion_coefficient(u, des, t) == want
                assert cb.recursion_coefficient(u, des, t) is cb.recursion_coefficient(u, des, t)
                assert cb.recursion_coefficient.__wrapped__(u, des, t) == want


def test_identity_comm_is_kronecker_delta():
    assert_case("combinatorics", "identity_comm_delta_u<=8")


def test_stirling_pair_inversion():
    assert_case("combinatorics", "stirling_inverse_pair_n<=12")


def test_eulerian_stirling_identity():
    assert_case("combinatorics", "eulerian_to_stirling_n<=12")
