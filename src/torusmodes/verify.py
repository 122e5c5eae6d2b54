"""Named verification suites producing deterministic JSON reports.

Each suite appends a fixed list of cases (exact identities or numeric residual
checks with recorded tolerances) to the list it is given, and declares as
keyword parameters, with their defaults, only the flags it reads.
``run_suite`` owns the rest: it binds the given flags to that signature
(refusing a flag the suite does not read), records the bound values as the
report's ``parameters``, guards the suite call so that an exception becomes a
final ``error`` case of a report that is still returned, and assembles the
status and toolchain.  Identical inputs give byte-identical reports.  The CLI
front end serializes these; the test suite asserts on them.
"""

from __future__ import annotations

import cmath
import inspect
import math
import platform
from fractions import Fraction
from math import comb, factorial

from . import __version__
from . import combinatorics as cb
from . import elliptic as el
from . import hha
from . import lattice as lt
from . import numerics as nm
from . import qseries as qs
from .ratfunc import ZetaRational
from .scaled import TWO_PI_I, ScaledRational
from .symbols import ONE, P, g

SUITES = {}


def suite(name):
    def wrap(fn):
        SUITES[name] = fn
        return fn
    return wrap


def _case(cases, cid, ok, **detail):
    entry = {"id": cid, "status": "pass" if ok else "fail"}
    entry.update({k: v for k, v in sorted(detail.items())})
    cases.append(entry)


# ---------------------------------------------------------------------------

def _brute_c_polynomial(u):
    """C_u by direct enumeration of partitions into increasing subtuples."""
    n = len(u)
    coeffs = {}
    for mask in range(1 << max(n - 1, 0)):
        pieces = []
        start = 0
        ok = True
        for j in range(n - 1):
            if mask >> j & 1:
                pieces.append(u[start:j + 1])
                start = j + 1
        pieces.append(u[start:])
        for piece in pieces:
            if any(b < a for a, b in zip(piece, piece[1:])):
                ok = False
                break
        if ok and n:
            k = len(pieces)
            coeffs[k] = coeffs.get(k, 0) + 1
    if not u:
        return cb.WPolynomial.one()
    return cb.WPolynomial(coeffs)


@suite("combinatorics")
def suite_combinatorics(cases, seed=20409):
    import itertools
    import random
    ok = all(cb.identity_comm_lhs(u, t) == (1 if u == t else 0)
             for u in range(1, 9) for t in range(0, u + 1))
    _case(cases, "identity_comm_delta_u<=8", ok)
    ok = all(sum(cb.stirling_second(n, j) * cb.stirling_first(j, k)
                 for j in range(k, n + 1)) == (1 if n == k else 0)
             for n in range(0, 13) for k in range(0, n + 1))
    _case(cases, "stirling_inverse_pair_n<=12", ok)
    ok = True
    for n in range(0, 13):
        for k in range(1, n + 1):
            lhs = cb.stirling_second(n, k) * factorial(k)
            rhs = sum(cb.eulerian(n, j) * comb(n - j - 1, k - j - 1)
                      for j in range(0, k)) if n >= 1 else (k == 0)
            if n >= k and n >= 1 and lhs != rhs:
                ok = False
    _case(cases, "eulerian_to_stirling_n<=12", ok)
    ok = all(cb.stirling_second(n, k) == k * cb.stirling_second(n - 1, k)
             + cb.stirling_second(n - 1, k - 1)
             for n in range(1, 13) for k in range(1, n + 1))
    ok = ok and all(cb.stirling_second(n + 1, k + 1)
                    == sum(comb(n, j) * cb.stirling_second(j, k) for j in range(n + 1))
                    for n in range(0, 12) for k in range(0, n + 1))
    _case(cases, "stirling_recurrences_n<=12", ok)
    _case(cases, "worked_example_C_2314",
          cb.c_polynomial((2, 3, 1, 4)).coeffs == {4: 1, 3: 2, 2: 1})
    ok = True
    for n in range(0, 7):
        for perm in itertools.permutations(range(1, n + 1)):
            closed = cb.c_polynomial(perm)
            if closed != _brute_c_polynomial(perm) or closed != cb.c_polynomial_by_runs(perm):
                ok = False
    rng = random.Random(seed)
    for n in (7, 8):
        for _ in range(300):
            perm = tuple(rng.sample(range(1, n + 1), n))
            closed = cb.c_polynomial(perm)
            if closed != _brute_c_polynomial(perm) or closed != cb.c_polynomial_by_runs(perm):
                ok = False
    _case(cases, "c_polynomial_three_routes", ok)
    ok = True
    for n in range(1, 7):
        seen = {}
        for perm in itertools.permutations(range(1, n + 1)):
            d = cb.descent_count(perm)
            seen[d] = seen.get(d, 0) + 1
            runs = cb.increasing_runs(perm)
            if len(runs) != d + 1 or sum(runs, ()) != perm:
                ok = False
        for k in range(0, n):
            if seen.get(k, 0) != cb.eulerian(n, k):
                ok = False
    _case(cases, "eulerian_counts_descents_n<=6", ok)


@suite("qseries-identities")
def suite_qseries(cases, order=30, tol=1e-8, seed=20409):
    N = order
    for k in (1, 2, 3):
        base = qs.geometric_inverse_factor(k, N)
        w = qs.w_factor(k, N)
        derivs = [base]
        for _ in range(5):
            derivs.append(derivs[-1].tau_derivative())
        ok = True
        for n in range(1, 6):
            rhs = None
            for r in range(0, n):
                term = derivs[r].scalar_mul(
                    ScaledRational(Fraction(comb(n, r)) * k ** (n - r), n - r))
                rhs = term if rhs is None else rhs + term
            if not (derivs[n] - w * rhs).is_zero():
                ok = False
        _case(cases, f"tau_derivative_recurrence_k={k}_n<=5", ok)
        ok = True
        for m in range(0, 6):
            rhs = None
            for i in range(0, m + 1):
                S = cb.stirling_second(m, i)
                if not S:
                    continue
                term = (base * w.power(i)).scalar_mul(
                    ScaledRational(Fraction(factorial(i) * S) * k ** m, m))
                rhs = term if rhs is None else rhs + term
            if not (derivs[m] - rhs).is_zero():
                ok = False
        _case(cases, f"stirling_closed_form_k={k}_m<=5", ok)
        ok = True
        for l in range(0, 6):
            lhs = base * w.power(l)
            rhs = None
            for m in range(0, l + 1):
                s = cb.stirling_first(l, m)
                if not s:
                    continue
                term = derivs[m].scalar_mul(
                    ScaledRational(Fraction(s, factorial(l)) / k ** m, -m))
                rhs = term if rhs is None else rhs + term
            if not (lhs - rhs).is_zero():
                ok = False
        _case(cases, f"stirling_inversion_k={k}_l<=5", ok)
    tau = 1.3j
    for two_k in (4, 6, 8, 10):
        a = nm.eisenstein_value(two_k, tau, truncation=60)
        b = nm.eisenstein_lattice_value(two_k, tau)
        res = abs(a - b) / max(1.0, abs(a))
        _case(cases, f"eisenstein_double_sum_{two_k}", res < tol, residual=repr(res),
              tolerance=repr(tol))
    import random
    rng = random.Random(seed)
    ok = True
    for _ in range(20):
        def rnd():
            return qs.QExpansion.from_dict(
                {m: Fraction(rng.randint(-4, 4)) for m in range(0, 6)}, 12)
        A, B_, C = rnd(), rnd(), rnd()
        if not ((A * B_) * C - A * (B_ * C)).is_zero():
            ok = False
        if not (A * (B_ + C) - (A * B_ + A * C)).is_zero():
            ok = False
    _case(cases, "ring_laws_randomized", ok)


@suite("elliptic-formal")
def suite_elliptic_formal(cases, order=30):
    N = order
    ok = all(el.g_expansion(0, j, N) == el.p_expansion(j, N) for j in (1, 2, 3, 4))
    _case(cases, "g_j0_equals_P_j", ok)
    ok = True
    for i in (1, 2):
        for m in (1, 2, 3):
            lhs = el.g_expansion(i, m + i, N)
            rhs = el.p_expansion(m, N)
            for _ in range(i):
                rhs = rhs.tau_derivative()
            rhs = rhs.scalar_mul(ScaledRational(
                Fraction(factorial(m - 1), factorial(m + i - 1)), i))
            if lhs != rhs:
                ok = False
    _case(cases, "g_as_tau_derivative_of_P", ok)
    ok = True
    for i in (0, 1, 2):
        for j in (1, 2, 3, 4):
            lhs = el.g_expansion(i, j, N).tau_derivative()
            rhs = el.g_expansion(i + 1, j + 1, N).scalar_mul(ScaledRational(j, -1))
            if lhs != rhs:
                ok = False
    _case(cases, "dtau_g_raises_depth", ok)
    ok = True
    for k in (1, 2, 3):
        lhs = el.p_expansion(k, N).zeta_derivative()
        rhs = el.p_expansion(k + 1, N).scalar_mul(ScaledRational(k, -1))
        if lhs != rhs:
            ok = False
    _case(cases, "zeta_derivative_ladder", ok)
    ok = (el.p_tilde_1(N) - el.p_expansion(1, N)).layers[0] == ZetaRational.const(Fraction(1, 2))
    _case(cases, "p_tilde_shift", ok)
    wp2 = el.wp_laurent(2, 9, 10)
    ok = wp2.coefficient(-2).coefficient(0) == ScaledRational(1)
    g4 = qs.eisenstein(4, 10)
    ok = ok and (wp2.coefficient(2) - g4.scalar_mul(3)).is_zero()
    _case(cases, "wp2_leading_terms", ok)
    wp3 = el.wp_laurent(3, 8, 10)
    _case(cases, "wp_derivative_ladder",
          (wp2.d_dz().scalar_mul(Fraction(-1, 2)) - wp3).is_zero())
    wp1 = el.wp_laurent(1, 7, 10)
    ok = wp1.coefficient(1, 10).is_zero() and \
        (wp1.coefficient(3) + qs.eisenstein(4, 10)).is_zero()
    _case(cases, "wp1_has_no_linear_term", ok)
    ok = True
    for m in (1, 2, 3):
        zser = el.g1m_z_expansion(m, 9, 10)
        if any((e - (1 + m)) % 2 for e in zser.exponents()):
            ok = False
    _case(cases, "g1m_z_parity", ok)


_ELLIPTIC_GAMMAS = ((0, -1, 1, 0), (1, 1, 0, 1), (1, -1, 1, 0), (1, 0, 1, 1), (-1, 0, -1, -1))


def _elliptic_numeric_truncation(order, seed):
    """The layer sums' truncation scale, max(1e-10, 10 |q(gamma tau)|**(order/5)),
    at the worst sample point and gamma."""
    pts = nm.sample_points(20, seed=seed, gammas=_ELLIPTIC_GAMMAS)
    worst_q = max(abs(cmath.exp(TWO_PI_I * nm.apply_gamma(gamma, 0j, tau)[1]))
                  for gamma in _ELLIPTIC_GAMMAS for _, tau in pts)
    return max(1e-10, 10 * worst_q ** (order * 0.2))


def _layer_value(order):
    """An evaluator of P_k, P~_1 and G_2k through their exact series at ``order``.

    P_k sums its layer expansion after reducing z into the strip, plus the
    elliptic shift that reduction costs P_1; P~_1 adds pi*i to P_1; G_2k sums
    its q-expansion.  The modular_law cases put these series under test.
    """
    def value(sym, z, tau):
        if sym[0] == "G":
            return nm.eisenstein_value(sym[1], tau, order)
        if sym[0] == "Pt":
            return value(("P", 1) + sym[1:], z, tau) + 1j * cmath.pi
        k = sym[1]
        zr, lam = nm.strip_reduce(z, tau)
        layers, _tail = el.p_expansion(k, order).eval_numeric(zr, tau)
        return layers + nm.elliptic_shift(k, lam)
    return value


def _interpolation_miss(xs, ys, degree):
    """Whether the samples lie on a polynomial of the given degree.

    Builds the Newton divided-difference interpolant through the first
    degree + 1 samples and returns (its largest miss at the remaining
    samples relative to max(1, max |y|), its value at x = 0).
    """
    n = degree + 1
    coef = list(ys[:n])
    for k in range(1, n):
        for i in range(n - 1, k - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (xs[i] - xs[i - k])

    def at(x):  # Horner on the Newton form
        v = coef[-1]
        for i in range(n - 2, -1, -1):
            v = v * (x - xs[i]) + coef[i]
        return v

    miss = max(abs(at(x) - y) for x, y in zip(xs[n:], ys[n:]))
    return miss / max(1.0, max(abs(y) for y in ys)), at(0)


@suite("elliptic-numeric")
def suite_elliptic_numeric(cases, order=60, tol=1e-6, seed=20409):
    pts = nm.sample_points(20, seed=seed, gammas=_ELLIPTIC_GAMMAS)
    layers = _layer_value(order)
    for fn in ("Ptilde_1", "P_2", "P_3", "P_4", "G_2", "G_4"):
        worst = 0.0
        for gamma in _ELLIPTIC_GAMMAS:
            for z, tau in pts:
                rep = nm.verify_modular(fn, gamma, z, tau, tol=tol, value=layers)
                worst = max(worst, rep["residual"])
        _case(cases, f"modular_law_{fn}", worst < tol, residual=repr(worst),
              tolerance=repr(tol))
    # tabulated anomalies, including the z-proportional depth-one tails
    for fn in ("Ptilde_1", "P_2", "G_2", "g_1_2", "g_1_3", "g_1_4", "g_1_5"):
        worst = 0.0
        for gamma in ((0, -1, 1, 0), (1, 0, 1, 1)):
            for z, tau in pts[:6]:
                worst = max(worst, nm.verify_modular(fn, gamma, z, tau, tol=tol)["residual"])
        _case(cases, f"delta_anomaly_{fn}", worst < tol, residual=repr(worst),
              tolerance=repr(tol))
    for k in (1, 2):
        worst = max(nm.verify_elliptic_shift(k, z, tau)["residual"] for z, tau in pts)
        _case(cases, f"elliptic_shift_P_{k}", worst < tol, residual=repr(worst),
              tolerance=repr(tol))
    z0, tau0 = 0.3j, 1.1j
    checks = {
        "P_1": abs(nm.p_value(1, z0, tau0)
                   - (-nm.wp_value(1, z0, tau0) + nm.eisenstein_value(2, tau0) * z0
                      - 1j * cmath.pi)),
        "P_2": abs(nm.p_value(2, z0, tau0)
                   - (nm.wp_value(2, z0, tau0) + nm.eisenstein_value(2, tau0))),
        "P_3": abs(nm.p_value(3, z0, tau0) + nm.wp_value(3, z0, tau0)),
        "P_4": abs(nm.p_value(4, z0, tau0) - nm.wp_value(4, z0, tau0)),
        "P_5": abs(nm.p_value(5, z0, tau0) + nm.wp_value(5, z0, tau0)),
    }
    for fn, res in checks.items():
        _case(cases, f"weierstrass_match_{fn}", res < 1e-8, residual=repr(res),
              tolerance=repr(1e-8))
    z1, tau1 = 0.2j, 1.2j
    for m in (1, 2):
        za = el.g1m_z_expansion(m, 25, 40)
        qv = cmath.exp(TWO_PI_I * tau1)
        val = sum(complex(za.coefficient(e).evaluate(q=qv)) * z1 ** e
                  for e in za.exponents())
        ref = nm.g_value(m, 1, z1, tau1)
        res = abs(val - ref) / max(1.0, abs(ref))
        _case(cases, f"g1{m}_z_expansion_match", res < 1e-6, residual=repr(res),
              tolerance=repr(1e-6))
    for m in (1, 2):
        lam_vals = [1, 2, 3, 4, 5]
        ys = [nm.g_value(m, 1, z1 + lam * tau1, tau1) - nm.g_value(m, 1, z1, tau1)
              for lam in lam_vals]
        resid, _ = _interpolation_miss(lam_vals, ys, m + 1)
        _case(cases, f"g1{m}_shift_polynomiality", resid < 1e-5, residual=repr(resid),
              tolerance=repr(1e-5))


@suite("hha-weight1")
def suite_hha_weight1(cases):
    spec = hha.weight1_spec()
    ok = True
    for s in range(0, 7):
        for n in range(0, 7 - s):
            if n == 0 and s == 0:
                continue
            positions = list(range(1, s + 1))
            start = hha.CorrExpression.single(
                hha.CorrSymbol(("a",) * s,
                               tuple((p, 0, "a") for p in range(s + 1, s + n + 1))))
            from_engine = hha.peel_zero_modes(spec, start, positions)
            formula = hha.weight1_configuration_formula(n, s)
            if from_engine != formula:
                ok = False
    _case(cases, "configuration_formula_n+s<=6", ok)
    ok = True
    for s in range(1, 5):
        inv = hha.invert_to_full(spec, ("a",) * s)
        back = hha.reduce_to_zero_modes(spec, inv)
        if back != hha.CorrExpression.single(hha.CorrSymbol(("a",) * s, ())):
            ok = False
    _case(cases, "round_trip_s<=4", ok)
    ok = True
    for s in range(1, 7):
        got = dict(hha.anomaly_of_zero_modes(spec, ("a",) * s))
        want = {}
        for k in range(1, s // 2 + 1):
            want[k] = {hha.CorrSymbol(("a",) * (s - 2 * k), ()):
                       ScaledRational(Fraction(factorial(s),
                                               2 ** k * factorial(k) * factorial(s - 2 * k)),
                                      -2 * k)}
        if got != want:
            ok = False
    _case(cases, "pairing_anomaly_closed_form_s<=6", ok)
    # one monomial per configuration: the involutions of 4
    ok = sum(len(poly.terms) for poly in
             hha.weight1_configuration_formula(0, 4).terms.values()) == 10
    _case(cases, "configuration_count_involutions", ok)


@suite("hha-weight2")
def suite_hha_weight2(cases):
    spec = hha.weight2_spec()
    F = lambda *mods: hha.CorrSymbol(mods, ())
    inv2 = hha.invert_to_full(spec, ("x", "x"))
    want = hha.CorrExpression()
    want.add_term(hha.CorrSymbol((), ((1, 0, "x"), (2, 0, "x"))), ONE)
    want.add_term(hha.CorrSymbol((), ((2, 0, "x"),)), -(P(2, 2, 1) * ScaledRational(4, -2)))
    want.add_term(hha.CorrSymbol((), ()), -(P(4, 2, 1) * ScaledRational(2, -4)))
    _case(cases, "two_zero_modes_expansion_termwise", inv2 == want)
    two = hha.invert_to_full(spec, ("x",) * 3, steps=2)
    want3 = hha.CorrExpression()
    want3.add_term(hha.CorrSymbol(("x",), ((2, 0, "x"), (3, 0, "x"))), ONE)
    want3.add_term(hha.CorrSymbol(("x",), ((3, 0, "x"),)), -(P(2, 3, 2) * ScaledRational(4, -2)))
    want3.add_term(hha.CorrSymbol(("x",), ()), -(P(4, 3, 2) * ScaledRational(2, -4)))
    want3.add_term(hha.CorrSymbol((), ((3, 0, "x"),)), -(g(1, 3, 3, 2) * ScaledRational(16, -4)))
    want3.add_term(hha.CorrSymbol((), ()), -(g(1, 5, 3, 2) * ScaledRational(16, -6)))
    _case(cases, "three_zero_modes_first_peel_termwise", two == want3)
    ok = True
    for s in range(1, 5):
        inv = hha.invert_to_full(spec, ("x",) * s)
        if hha.reduce_to_zero_modes(spec, inv) != hha.CorrExpression.single(F(*("x",) * s)):
            ok = False
    _case(cases, "round_trip_s<=4", ok)
    got2 = dict(hha.anomaly_of_zero_modes(spec, ("x", "x")))
    ok = got2 == {1: {F("x"): ScaledRational(4, -2)}}
    _case(cases, "anomaly_s2_(1,4)", ok)
    got3 = dict(hha.anomaly_of_zero_modes(spec, ("x",) * 3))
    ok = got3 == {1: {F("x", "x"): ScaledRational(12, -2)},
                  2: {F("x"): ScaledRational(24, -4)}}
    _case(cases, "anomaly_s3_(1,12,24)", ok)
    ok = True
    for r in range(0, 5):
        sym_c = hha.CorrSymbol(("x",) * r, ((1, 0, "x"), (2, 0, "x"), (3, 0, "x")))
        sym_o = hha.CorrSymbol(("x",) * r, ((1, 0, "x"), (2, 0, "x"), (3, 0, "x")),
                               ordered=True)
        red_c = hha.reduce_once(spec, hha.CorrExpression.single(sym_c))
        red_o = hha.to_commuting(
            hha.reduce_once_ordered(spec, hha.CorrExpression.single(sym_o)))
        if red_c != red_o:
            ok = False
    _case(cases, "ordered_collapse_r<=4", ok)
    # a0 cancellation: sum over positions of the x[0]x replacement reduces to zero
    e = hha.CorrExpression()
    e.add_term(hha.CorrSymbol((), ((2, 1, "x"), (3, 0, "x"))), ONE)
    e.add_term(hha.CorrSymbol((), ((2, 0, "x"), (3, 1, "x"))), ONE)
    _case(cases, "zero_action_position_sum_cancels",
          hha.reduce_to_zero_modes(spec, e).is_zero())


@suite("lattice-oracle")
def suite_lattice_oracle(cases, order=4):
    E8 = lt.e8()
    shells = lt.enumerate_vectors(E8, 4)
    sizes = [len(s.vectors) for s in shells]
    _case(cases, "e8_shell_sizes", sizes == [1, 240, 2160, 6720, 17520], sizes=sizes)
    ok = all(sorted(tuple(-v for v in vec) for vec in s.vectors) == s.vectors
             for s in shells)
    _case(cases, "shells_negation_symmetric", ok)
    level = min(order, 6)  # rank-8 default test profile caps the Fock level at 6
    ok = True
    for n in range(0, 4):
        a = lt.quasimod_rhs(E8, 0, n, level)
        b = lt.fock_trace_oracle(E8, 0, n, level)
        if not (a - b).is_zero():
            ok = False
    _case(cases, "e8_closed_form_equals_oracle_n<=3", ok, level=level)
    E83 = lt.e8_cubed()
    ok = True
    for n in range(0, 2):
        a = lt.quasimod_rhs(E83, 0, n, 3)
        b = lt.fock_trace_oracle(E83, 0, n, 3)
        if not (a - b).is_zero():
            ok = False
    _case(cases, "e8cubed_closed_form_equals_oracle_n<=1", ok)
    ch = lt.quasimod_rhs(E83, 0, 0, 3)
    ok = all(ch.coefficient(m) == lt.J_CHARACTER[m] for m in range(4))
    _case(cases, "e8cubed_character_is_j", ok)
    A1 = lt.a1()
    ok = all((lt.fock_trace_literal(A1, 0, n, 4)
              - lt.fock_trace_oracle(A1, 0, n, 4)).is_zero() for n in range(0, 3))
    _case(cases, "literal_vs_counted_oracle_a1", ok)


# the point of the E8^3 closure cases; gamma = S takes it to -1/tau
_LATTICE_TAU = 1.3j


def _lattice_modular_truncation(order, seed):
    """10x the largest relative tail of the E8^3 theta moments at q(-1/tau).

    ``QExpansion.tail_estimate`` scales by the last computed coefficients;
    the factor 10 covers their growth (about 5x per order near order 8).
    """
    q = cmath.exp(TWO_PI_I * (-1 / _LATTICE_TAU))
    worst = 0.0
    for p in (0, 2, 4, 6):
        series = lt.theta_moment(lt.e8_cubed(), 0, p, order)
        value = abs(series.evaluate(q=q))
        worst = max(worst, series.tail_estimate(q=q) / value if value else math.inf)
    return 10 * worst


@suite("lattice-modular")
def suite_lattice_modular(cases, order=8, tol=1e-5):
    E8 = lt.e8()
    E83 = lt.e8_cubed()
    # theta-moment quasi-modularity: the S-transform is a polynomial in 1/(tau+n).
    # theta_E8 = E_4 = 720 G_4/(2 pi i)^4 gives the moments c_p (2q d/dq)^(p/2) E_4
    # to q^60; checked to q^6 against the walk the E8^3 cases share.
    theta = qs.eisenstein(4, 60).scalar_mul(ScaledRational(720, -4))
    univ = {0: Fraction(1), 2: Fraction(1, 8), 4: Fraction(3, 80), 6: Fraction(1, 64)}
    moments = {}
    for p, c in univ.items():
        series = theta
        for _ in range(p // 2):
            series = series.q_derivative().scalar_mul(2)
        moments[p] = series.scalar_mul(c)
    top = min(order, 6)
    ok = all((lt.theta_moment(E8, 0, p, order).truncate(top) - series.truncate(top)).is_zero()
             for p, series in moments.items())
    _case(cases, "e8_moments_from_theta_derivatives", ok)
    tau0 = 1.2j
    for p, series in moments.items():
        j = p // 2
        w = 4 + p
        xs, ys = [], []
        for nshift in (0, 1, -1, 2, -2, 3)[: j + 3]:
            # the tail functions are 1-periodic, so integer shifts probe the
            # depth structure at (c, d) = (1, nshift) with good convergence
            t = tau0 + nshift
            xs.append(1 / t)
            ys.append(t ** (-w) * series.evaluate(tau=-1 / t))
        resid, head = _interpolation_miss(xs, ys, j)
        head_dev = abs(head - series.evaluate(tau=tau0)) / max(
            1.0, abs(series.evaluate(tau=tau0)))
        okp = resid < tol and head_dev < 1e-4
        _case(cases, f"theta_moment_weight_grading_2j={p}", okp,
              residual=repr(resid), head_dev=repr(head_dev), tolerance=repr(tol))
    tau = _LATTICE_TAU
    gt = -1 / tau
    N = order
    beta = 1 / (TWO_PI_I * tau)
    Fm = {s: lt.moment_trace_value(E83, 0, s, tau, N) for s in range(0, 7)}
    Fg = {s: lt.moment_trace_value(E83, 0, s, gt, N) for s in range(0, 7)}
    for s in range(1, 7):
        lhs = tau ** (-s) * Fg[s]
        terms = [beta ** k * factorial(s)
                 / (2 ** k * factorial(k) * factorial(s - 2 * k)) * Fm[s - 2 * k]
                 for k in range(0, s // 2 + 1)]
        scale = max(1.0, abs(lhs), *(abs(t) for t in terms))
        res = abs(lhs - sum(terms)) / scale
        _case(cases, f"weight1_anomaly_numeric_s={s}", res < tol,
              residual=repr(res), tolerance=repr(tol))
    anomalies = dict(
        (s, dict(hha.anomaly_of_zero_modes(hha.weight2_spec(), ("x",) * s)))
        for s in (1, 2, 3))
    T = {s: lt.trace_value(E83, 0, s, tau, N) for s in range(0, 4)}
    Tg = {s: lt.trace_value(E83, 0, s, gt, N) for s in range(0, 4)}
    Bval = TWO_PI_I / tau  # B = 2 pi i c/(c tau + d) at gamma = S
    for s in (1, 2, 3):
        lhs = tau ** (-2 * s) * Tg[s]
        terms = [T[s]]
        for k, bucket in anomalies[s].items():
            for sym, coeff in bucket.items():
                terms.append(complex(coeff) * Bval ** k * T[len(sym.modes)])
        scale = max(1.0, abs(lhs), *(abs(t) for t in terms))
        res = abs(lhs - sum(terms)) / scale
        _case(cases, f"weight2_anomaly_numeric_s={s}", res < tol,
              residual=repr(res), tolerance=repr(tol))
    z = 0.1 + 0.2j
    lhs = lt.chi_weight1(E83, 0, z / tau, gt, N)
    rhs = cmath.exp(1j * cmath.pi * z * z / tau) * lt.chi_weight1(E83, 0, z, tau, N)
    res = abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))
    _case(cases, "weight1_jacobi_law_chi", res < tol, residual=repr(res),
          tolerance=repr(tol))


# suite -> estimate(order, seed) of the truncation error of its order-dependent cases
TRUNCATION = {"elliptic-numeric": _elliptic_numeric_truncation,
              "lattice-modular": _lattice_modular_truncation}


def _bind(name, flags):
    """Suite ``name``'s arguments: its defaults, overridden by the flags given
    (a flag of None is not given).  A flag the suite does not read is refused."""
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; available: {sorted(SUITES)}")
    args = {k: p.default for k, p in inspect.signature(SUITES[name]).parameters.items()
            if k != "cases"}
    for flag, value in flags.items():
        if value is None:
            continue
        if flag not in args:
            takes = ", ".join(f"--{k}" for k in args) or "no flags"
            raise ValueError(f"suite {name} does not read --{flag}; it takes {takes}")
        args[flag] = value
    return args


def truncation_shortfall(name, **flags):
    """(order, estimate, tol) when the suite's truncation estimate at its
    order exceeds its tolerance, so that its numeric cases would fail for want
    of terms rather than of a law; None otherwise, and for suites without one."""
    args = _bind(name, flags)
    if name not in TRUNCATION:
        return None
    estimate = TRUNCATION[name](args["order"], args.get("seed"))
    return (args["order"], estimate, args["tol"]) if estimate > args["tol"] else None


def run_suite(name, **flags):
    """The report of suite ``name`` run with ``flags``.  An exception ends the
    suite with a failing ``error`` case after the cases already recorded."""
    args = _bind(name, flags)
    cases = []
    try:
        SUITES[name](cases, **args)
    except Exception as exc:
        cases.append({"id": "error", "status": "fail",
                      "error": f"{type(exc).__name__}: {exc}"})
    return {
        "suite": name,
        "status": "pass" if all(c["status"] == "pass" for c in cases) else "fail",
        "parameters": {k: repr(v) if k == "tol" else v for k, v in args.items()},
        "cases": cases,
        "toolchain": {"package": "torusmodes", "version": __version__,
                      "python": platform.python_version()},
    }
