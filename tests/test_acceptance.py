"""Acceptance criteria, one test per criterion.

Each test prints a single pass/fail line with its runtime and asserts both
the mathematical content at the stated tolerance and the runtime budget.
Run with `pytest tests/test_acceptance.py -v -s`.
"""

import cmath
import time
from fractions import Fraction
from math import comb, factorial

from torusmodes import combinatorics as cb
from torusmodes import elliptic as el
from torusmodes import hha
from torusmodes import lattice as lt
from torusmodes import numerics as nm
from torusmodes import qseries as qs
from torusmodes.hha import CorrExpression, CorrSymbol
from torusmodes.scaled import TWO_PI_I, ScaledRational
from torusmodes.symbols import ONE, P, g


class _Timer:
    def __init__(self, name, budget):
        self.name, self.budget = name, budget

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"\n{self.name}: {status} ({elapsed:.2f}s, budget {self.budget}s)")
        if exc_type is None:
            assert elapsed < self.budget, f"{self.name} exceeded runtime budget"


def test_ac1_combinatorics_exactness():
    with _Timer("AC1 combinatorics exactness", 2.0):
        for u in range(1, 9):
            for t in range(0, u + 1):
                assert cb.identity_comm_lhs(u, t) == (1 if u == t else 0)
        for n in range(0, 13):
            for k in range(0, n + 1):
                assert sum(cb.stirling_second(n, j) * cb.stirling_first(j, k)
                           for j in range(k, n + 1)) == (1 if n == k else 0)
        for n in range(1, 13):
            for k in range(1, n + 1):
                assert cb.stirling_second(n, k) == Fraction(
                    sum(cb.eulerian(n, j) * comb(n - j - 1, k - j - 1)
                        for j in range(k)), factorial(k))
        assert cb.c_polynomial((2, 3, 1, 4)).coeffs == {4: 1, 3: 2, 2: 1}


def test_ac2_formal_series_identities():
    with _Timer("AC2 formal series identities to q^30", 30.0):
        N = 30
        for k in (1, 2, 3):
            base = qs.geometric_inverse_factor(k, N)
            w = qs.w_factor(k, N)
            derivs = [base]
            for _ in range(5):
                derivs.append(derivs[-1].tau_derivative())
            for n in range(1, 6):
                rhs = None
                for r in range(n):
                    term = derivs[r].scalar_mul(
                        ScaledRational(Fraction(comb(n, r)) * k ** (n - r), n - r))
                    rhs = term if rhs is None else rhs + term
                assert (derivs[n] - w * rhs).is_zero()
            for m in range(6):
                rhs = None
                for i in range(m + 1):
                    S = cb.stirling_second(m, i)
                    if S:
                        term = (base * w.power(i)).scalar_mul(
                            ScaledRational(Fraction(factorial(i) * S) * k ** m, m))
                        rhs = term if rhs is None else rhs + term
                assert (derivs[m] - rhs).is_zero()
            for l in range(6):
                rhs = None
                for m in range(l + 1):
                    s = cb.stirling_first(l, m)
                    if s:
                        term = derivs[m].scalar_mul(ScaledRational(
                            Fraction(s, factorial(l)) * Fraction(1, k ** m), -m))
                        rhs = term if rhs is None else rhs + term
                assert (base * w.power(l) - rhs).is_zero()
        for j in (1, 2, 3, 4):
            assert el.g_expansion(0, j, N) == el.p_expansion(j, N)
        for m in (1, 2, 3):
            lhs = el.g_expansion(1, m + 1, N)
            rhs = el.p_expansion(m, N).tau_derivative().scalar_mul(
                ScaledRational(Fraction(1, m), 1))
            assert lhs == rhs
        for i in (0, 1, 2):
            for j in (1, 2, 3, 4):
                lhs = el.g_expansion(i, j, N).tau_derivative()
                rhs = el.g_expansion(i + 1, j + 1, N).scalar_mul(ScaledRational(j, -1))
                assert lhs == rhs
        for k in (1, 2, 3):
            lhs = el.p_expansion(k, N).zeta_derivative()
            rhs = el.p_expansion(k + 1, N).scalar_mul(ScaledRational(k, -1))
            assert lhs == rhs


def test_ac3_numeric_transformation_laws():
    with _Timer("AC3 numeric transformation laws", 10.0):
        gammas = ((0, -1, 1, 0), (1, 1, 0, 1), (1, -1, 1, 0), (1, 0, 1, 1))
        pts = nm.sample_points(20, gammas=gammas)
        assert len(pts) == 20
        for fn in ("Ptilde_1", "P_2", "P_3", "P_4", "G_2", "G_4"):
            for gamma in gammas:
                for z, tau in pts:
                    rep = nm.verify_modular(fn, gamma, z, tau, truncation=60,
                                            tol=1e-6)
                    assert rep["residual"] < 1e-6, (fn, gamma, rep)
        for k in (1, 2):
            for z, tau in pts:
                assert nm.verify_elliptic_shift(k, z, tau)["residual"] < 1e-6


def test_ac4_symbolic_recursion_fixtures():
    with _Timer("AC4 symbolic recursion fixtures", 10.0):
        w2 = hha.weight2_spec()
        inv2 = hha.invert_to_full(w2, ("x", "x"))
        want = CorrExpression()
        want.add_term(CorrSymbol((), ((1, 0, "x"), (2, 0, "x"))), ONE)
        want.add_term(CorrSymbol((), ((2, 0, "x"),)),
                      -(P(2, 2, 1) * ScaledRational(4, -2)))
        want.add_term(CorrSymbol((), ()), -(P(4, 2, 1) * ScaledRational(2, -4)))
        assert inv2 == want
        step2 = hha.invert_to_full(w2, ("x",) * 3, steps=2)
        want3 = CorrExpression()
        want3.add_term(CorrSymbol(("x",), ((2, 0, "x"), (3, 0, "x"))), ONE)
        want3.add_term(CorrSymbol(("x",), ((3, 0, "x"),)),
                       -(P(2, 3, 2) * ScaledRational(4, -2)))
        want3.add_term(CorrSymbol(("x",), ()), -(P(4, 3, 2) * ScaledRational(2, -4)))
        want3.add_term(CorrSymbol((), ((3, 0, "x"),)),
                       -(g(1, 3, 3, 2) * ScaledRational(16, -4)))
        want3.add_term(CorrSymbol((), ()), -(g(1, 5, 3, 2) * ScaledRational(16, -6)))
        assert step2 == want3
        w1 = hha.weight1_spec()
        for s in range(0, 7):
            for n in range(0, 7 - s):
                if s == 0 and n == 0:
                    continue
                start = CorrExpression.single(CorrSymbol(
                    ("a",) * s, tuple((p, 0, "a") for p in range(s + 1, s + n + 1))))
                engine = hha.peel_zero_modes(w1, start, list(range(1, s + 1)))
                assert engine == hha.weight1_configuration_formula(n, s)


def test_ac5_anomaly_fixtures():
    with _Timer("AC5 anomaly fixtures", 10.0):
        w1 = hha.weight1_spec()
        for s in range(1, 7):
            got = dict(hha.anomaly_of_zero_modes(w1, ("a",) * s))
            want = {}
            for k in range(1, s // 2 + 1):
                c = Fraction(factorial(s), 2 ** k * factorial(k) * factorial(s - 2 * k))
                want[k] = {CorrSymbol(("a",) * (s - 2 * k), ()): ScaledRational(c, -2 * k)}
            assert got == want, s
        w2 = hha.weight2_spec()
        F = lambda s: CorrSymbol(("x",) * s, ())
        assert dict(hha.anomaly_of_zero_modes(w2, ("x",) * 2)) == \
            {1: {F(1): ScaledRational(4, -2)}}
        assert dict(hha.anomaly_of_zero_modes(w2, ("x",) * 3)) == \
            {1: {F(2): ScaledRational(12, -2)}, 2: {F(1): ScaledRational(24, -4)}}


def test_ac6_lattice_oracle():
    with _Timer("AC6 lattice oracle", 60.0):
        E8 = lt.e8()
        for n in range(0, 4):
            a = lt.quasimod_rhs(E8, 0, n, 4)
            b = lt.fock_trace_oracle(E8, 0, n, 4)
            assert (a - b).is_zero(), n
        E83 = lt.e8_cubed()
        for n in range(0, 2):
            a = lt.quasimod_rhs(E83, 0, n, 3)
            b = lt.fock_trace_oracle(E83, 0, n, 3)
            assert (a - b).is_zero(), n
        ch = lt.quasimod_rhs(E83, 0, 0, 3)
        for m in range(4):
            assert ch.coefficient(m) == ScaledRational(lt.J_CHARACTER[m])


def test_ac7_end_to_end_numeric_closure():
    with _Timer("AC7 end-to-end numeric closure", 15.0):
        E83 = lt.e8_cubed()
        tau = 1.3j
        gt = -1 / tau  # gamma = S
        N = 8
        beta = 1 / (TWO_PI_I * tau)
        Fm = {s: lt.moment_trace_value(E83, 0, s, tau, N) for s in range(0, 7)}
        Fg = {s: lt.moment_trace_value(E83, 0, s, gt, N) for s in range(0, 7)}
        for s in range(1, 7):
            lhs = tau ** (-s) * Fg[s]
            terms = [beta ** k * factorial(s)
                     / (2 ** k * factorial(k) * factorial(s - 2 * k)) * Fm[s - 2 * k]
                     for k in range(0, s // 2 + 1)]
            scale = max(1.0, abs(lhs), *(abs(t) for t in terms))
            assert abs(lhs - sum(terms)) / scale < 1e-5, f"weight1 s={s}"
        w2 = hha.weight2_spec()
        anomalies = {s: dict(hha.anomaly_of_zero_modes(w2, ("x",) * s))
                     for s in (1, 2, 3)}
        T = {s: lt.trace_value(E83, 0, s, tau, N) for s in range(0, 4)}
        Tg = {s: lt.trace_value(E83, 0, s, gt, N) for s in range(0, 4)}
        Bval = TWO_PI_I / tau
        for s in (1, 2, 3):
            lhs = tau ** (-2 * s) * Tg[s]
            terms = [T[s]]
            for k, bucket in anomalies[s].items():
                for sym, coeff in bucket.items():
                    terms.append(complex(coeff) * Bval ** k * T[len(sym.modes)])
            scale = max(1.0, abs(lhs), *(abs(t) for t in terms))
            assert abs(lhs - sum(terms)) / scale < 1e-5, f"weight2 s={s}"
        z = 0.1 + 0.2j
        lhs = lt.chi_weight1(E83, 0, z / tau, gt, N)
        rhs = cmath.exp(1j * cmath.pi * z * z / tau) * lt.chi_weight1(E83, 0, z, tau, N)
        assert abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs)) < 1e-5
