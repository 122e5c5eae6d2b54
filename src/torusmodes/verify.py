"""Named verification suites producing deterministic JSON reports.

Each suite is a generator of ``(case_id, check)`` pairs, in report order, and
declares as keyword parameters, with their defaults, only the flags it reads.
A check returns ``ok`` or ``(ok, detail)``; work two checks share is done once,
in the suite's set-up or in a cached helper.  ``run_suite`` owns the rest: it
binds the given flags to that signature (refusing a flag the suite does not
read), records the bound values as the report's ``parameters``, calls each
check as soon as it is yielded, under its own guard, so that a check that
raises fails alone with an ``error`` detail, turns a raise in the set-up into
a final ``error`` case of a report that is still returned (a
``TruncationError``, an order too low for the tolerance, refuses the flags
instead), and assembles the status and toolchain.  Identical inputs give
byte-identical reports.  The CLI front end serializes these; the test suite
asserts on them.
"""

from __future__ import annotations

import cmath
import inspect
import math
import platform
from fractions import Fraction
from functools import cache, partial, reduce
from math import comb, factorial
from operator import add, neg

from . import __version__
from . import combinatorics as cb
from . import elliptic as el
from . import hha
from . import lattice as lt
from . import numerics as nm
from . import qseries as qs
from .ratfunc import LaurentPoly, ZetaRational
from .scaled import TWO_PI_I, ScaledRational
from .symbols import ONE, CoeffPoly, P, delta_transform, derive_poly, function_symbol, g

SUITES = {}


def suite(name):
    def wrap(fn):
        SUITES[name] = fn
        return fn
    return wrap


def _below(residual, tol):
    """A numeric check's outcome: whether ``residual < tol``, with both recorded."""
    return residual < tol, {"residual": repr(residual), "tolerance": repr(tol)}


# ---------------------------------------------------------------------------

def _brute_c_polynomial(u):
    """C_u by direct enumeration of partitions into increasing contiguous pieces.

    Depth first over the cuts: a piece is extended one entry at a time while
    the next entry is larger, and the rest of u is cut off after each of
    those ends in turn.  Only increasing pieces are ever built, so every
    partition reached is counted, by its number of pieces; no descent count
    or binomial is read.
    """
    n = len(u)
    if not n:
        return LaurentPoly.const(1)
    coeffs = {}

    def cut(start, pieces):
        # u[:start] is cut into ``pieces`` increasing pieces; the next one starts at start
        end = start + 1
        while end < n:
            cut(end, pieces + 1)
            if u[end] < u[end - 1]:
                break
            end += 1
        else:
            coeffs[pieces + 1] = coeffs.get(pieces + 1, 0) + 1

    cut(0, 0)
    return LaurentPoly(coeffs)


@suite("combinatorics")
def suite_combinatorics(seed=20409):
    import itertools
    import random
    yield "identity_comm_delta_u<=8", lambda: all(
        cb.identity_comm_lhs(u, t) == (1 if u == t else 0)
        for u in range(1, 9) for t in range(0, u + 1))
    yield "stirling_inverse_pair_n<=12", lambda: all(
        sum(cb.stirling_second(n, j) * cb.stirling_first(j, k)
            for j in range(k, n + 1)) == (1 if n == k else 0)
        for n in range(0, 13) for k in range(0, n + 1))
    yield "eulerian_to_stirling_n<=12", lambda: all(
        cb.stirling_second(n, k) * factorial(k)
        == sum(cb.eulerian(n, j) * comb(n - j - 1, k - j - 1) for j in range(0, k))
        for n in range(1, 13) for k in range(1, n + 1))
    yield "stirling_recurrences_n<=12", lambda: all(
        cb.stirling_second(n, k) == k * cb.stirling_second(n - 1, k)
        + cb.stirling_second(n - 1, k - 1)
        for n in range(1, 13) for k in range(1, n + 1)) and all(
        cb.stirling_second(n + 1, k + 1)
        == sum(comb(n, j) * cb.stirling_second(j, k) for j in range(n + 1))
        for n in range(0, 12) for k in range(0, n + 1))
    yield "worked_example_C_2314", lambda: \
        cb.c_polynomial((2, 3, 1, 4)).coeffs == {4: 1, 3: 2, 2: 1}

    def three_routes():
        rng = random.Random(seed)
        perms = itertools.chain(
            (perm for n in range(0, 7) for perm in itertools.permutations(range(1, n + 1))),
            (tuple(rng.sample(range(1, n + 1), n)) for n in (7, 8) for _ in range(300)))
        return all(cb.c_polynomial(perm) == _brute_c_polynomial(perm)
                   == cb.c_polynomial_by_runs(perm) for perm in perms)
    yield "c_polynomial_three_routes", three_routes

    def descents():
        for n in range(1, 7):
            seen = {}
            for perm in itertools.permutations(range(1, n + 1)):
                d = cb.descent_count(perm)
                seen[d] = seen.get(d, 0) + 1
                runs = cb.increasing_runs(perm)
                if len(runs) != d + 1 or sum(runs, ()) != perm:
                    return False
            if any(seen.get(k, 0) != cb.eulerian(n, k) for k in range(0, n)):
                return False
        return True
    yield "eulerian_counts_descents_n<=6", descents


@suite("qseries-identities")
def suite_qseries(order=30, tol=1e-8, seed=20409):
    N = order

    @cache
    def ladder(k):
        """(1/(1 - q^k) and its first five tau-derivatives, the factor w_k)."""
        derivs = [qs.geometric_inverse_factor(k, N)]
        for _ in range(5):
            derivs.append(derivs[-1].tau_derivative())
        return derivs, qs.w_factor(k, N)

    def recurrence(k):
        derivs, w = ladder(k)
        return all((derivs[n] - w * reduce(add, (
            derivs[r].scalar_mul(ScaledRational(Fraction(comb(n, r)) * k ** (n - r), n - r))
            for r in range(0, n)))).is_zero() for n in range(1, 6))

    def closed_form(k):
        derivs, w = ladder(k)
        return all((derivs[m] - reduce(add, (
            (derivs[0] * w.power(i)).scalar_mul(
                ScaledRational(Fraction(factorial(i) * cb.stirling_second(m, i)) * k ** m, m))
            for i in range(0, m + 1) if cb.stirling_second(m, i)))).is_zero()
            for m in range(0, 6))

    def inversion(k):
        derivs, w = ladder(k)
        return all((derivs[0] * w.power(l) - reduce(add, (
            derivs[m].scalar_mul(
                ScaledRational(Fraction(cb.stirling_first(l, m), factorial(l)) / k ** m, -m))
            for m in range(0, l + 1) if cb.stirling_first(l, m)))).is_zero()
            for l in range(0, 6))

    for k in (1, 2, 3):
        yield f"tau_derivative_recurrence_k={k}_n<=5", partial(recurrence, k)
        yield f"stirling_closed_form_k={k}_m<=5", partial(closed_form, k)
        yield f"stirling_inversion_k={k}_l<=5", partial(inversion, k)
    tau = 1.3j

    def double_sum(two_k):
        a = nm.eisenstein_value(two_k, tau, truncation=60)
        b = nm.eisenstein_lattice_value(two_k, tau)
        return _below(abs(a - b) / max(1.0, abs(a)), tol)
    for two_k in (4, 6, 8, 10):
        yield f"eisenstein_double_sum_{two_k}", partial(double_sum, two_k)

    def ring_laws():
        import random
        rng = random.Random(seed)

        def rnd():
            return qs.QExpansion.from_dict(
                {m: Fraction(rng.randint(-4, 4), rng.randint(1, 6)) for m in range(0, 6)}, 12)
        for _ in range(20):
            A, B_, C = rnd(), rnd(), rnd()
            if (A * B_) * C != A * (B_ * C) or A * (B_ + C) != A * B_ + A * C:
                return False
        return True
    yield "ring_laws_randomized", ring_laws


@suite("elliptic-formal")
def suite_elliptic_formal(order=30):
    N = order
    yield "g_j0_equals_P_j", lambda: all(
        el.g_expansion(0, j, N) == el.p_expansion(j, N) for j in (1, 2, 3, 4))

    def g_as_tau_derivative():
        for i in (1, 2):
            for m in (1, 2, 3):
                lhs = el.g_expansion(i, m + i, N)
                rhs = el.p_expansion(m, N)
                for _ in range(i):
                    rhs = rhs.tau_derivative()
                if lhs != rhs.scalar_mul(ScaledRational(
                        Fraction(factorial(m - 1), factorial(m + i - 1)), i)):
                    return False
        return True
    yield "g_as_tau_derivative_of_P", g_as_tau_derivative
    yield "dtau_g_raises_depth", lambda: all(
        el.g_expansion(i, j, N).tau_derivative()
        == el.g_expansion(i + 1, j + 1, N).scalar_mul(ScaledRational(j, -1))
        for i in (0, 1, 2) for j in (1, 2, 3, 4))
    yield "zeta_derivative_ladder", lambda: all(
        el.p_expansion(k, N).zeta_derivative()
        == el.p_expansion(k + 1, N).scalar_mul(ScaledRational(k, -1)) for k in (1, 2, 3))
    yield "p_tilde_shift", lambda: \
        (el.p_tilde_1(N) - el.p_expansion(1, N)).coeffs[0] == ZetaRational.const(Fraction(1, 2))
    wp = cache(lambda k, z_order: el.wp_laurent(k, z_order, 10))
    yield "wp2_leading_terms", lambda: \
        wp(2, 9)[-2].coefficient(0) == ScaledRational(1) and \
        wp(2, 9)[2] == qs.eisenstein(4, 10).scalar_mul(3)
    # -1/2 d/dz wp_2 = wp_3, exponent by exponent
    yield "wp_derivative_ladder", lambda: \
        {e - 1: c.scalar_mul(Fraction(-e, 2)) for e, c in wp(2, 9).items() if e} == wp(3, 8)
    yield "wp1_has_no_linear_term", lambda: 1 not in wp(1, 7) and \
        (wp(1, 7)[3] + qs.eisenstein(4, 10)).is_zero()
    yield "g1m_z_parity", lambda: not any(
        (e - (1 + m)) % 2 for m in (1, 2, 3) for e in el.z_expansion(m, 1, 9, 10))


_ELLIPTIC_GAMMAS = ((0, -1, 1, 0), (1, 1, 0, 1), (1, -1, 1, 0), (1, 0, 1, 1), (-1, 0, -1, -1))


class TruncationError(ValueError):
    """A suite's order is too low for its tolerance: its order-dependent
    cases would fail for want of terms rather than of a law."""


def _check_truncation(name, order, estimate, tol):
    if estimate > tol:
        raise TruncationError(f"--order {order} is too low for {name}: the truncation "
                              f"estimate {estimate:.3g} is above the tolerance {tol:g}; "
                              f"raise --order or pass a larger --tol")


def _layer_value(order):
    """An evaluator of P_k, P~_1 and G_2k through their exact series at ``order``.

    P_k sums its layer expansion after reducing z into the strip, plus the
    elliptic shift that reduction costs P_1; P~_1 adds pi*i to P_1; G_2k sums
    its q-expansion.  The modular_law cases put these series under test.
    The evaluator keeps each value it returns, and one StripPoint per reduced
    point for the four P_k summed there, for as long as it lives.
    """
    point = cache(el.StripPoint)

    @cache
    def value(sym, z, tau):
        if sym[0] == "G":
            return nm.eisenstein_value(sym[1], tau, order)
        if sym[0] == "Pt":
            return value(("P", 1) + sym[1:], z, tau) + 1j * cmath.pi
        k = sym[1]
        zr, lam = nm.strip_reduce(z, tau)
        return el.p_expansion(k, order).eval_numeric(point(zr, tau)) + nm.elliptic_shift(k, lam)
    return value


def _interpolation_miss(xs, ys, degree):
    """Whether the samples lie on a polynomial of the given degree.

    Builds the Newton divided-difference interpolant through the first
    degree + 1 samples and returns its largest miss at the remaining samples,
    relative to max(1, max |y|).
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
    return miss / max(1.0, max(abs(y) for y in ys))


@suite("elliptic-numeric")
def suite_elliptic_numeric(order=60, tol=1e-6, seed=20409):
    pts = nm.sample_points(20, seed=seed, gammas=_ELLIPTIC_GAMMAS)
    # the layer sums' truncation scale at the worst sample point and gamma
    worst_q = max(abs(cmath.exp(TWO_PI_I * nm.apply_gamma(gamma, 0j, tau)[1]))
                  for gamma in _ELLIPTIC_GAMMAS for _, tau in pts)
    _check_truncation("elliptic-numeric", order, max(1e-10, 10 * worst_q ** (order * 0.2)), tol)
    layers = _layer_value(order)

    def worst_law(fn, gammas, points, **kwargs):
        return _below(max(nm.verify_modular(fn, gamma, z, tau, tol=tol, **kwargs)["residual"]
                          for gamma in gammas for z, tau in points), tol)
    for fn in ("Ptilde_1", "P_2", "P_3", "P_4", "G_2", "G_4"):
        yield f"modular_law_{fn}", partial(worst_law, fn, _ELLIPTIC_GAMMAS, pts, value=layers)

    def anomaly_law(fn):
        # Delta(f f) = f Delta f + Delta f f + Delta f Delta f exactly, then the law numerically
        f = CoeffPoly.symbol(function_symbol(fn))
        df = delta_transform(f)
        if delta_transform(f * f) != f * df + df * f + df * df:
            return False, {"error": f"Delta({fn}**2) breaks the product rule"}
        return worst_law(fn, ((0, -1, 1, 0), (1, 0, 1, 1)), pts[:6])
    # derived anomalies, including the z-proportional depth-one tails
    for fn in ("Ptilde_1", "P_2", "G_2", "g_1_2", "g_1_3", "g_1_4", "g_1_5"):
        yield f"delta_anomaly_{fn}", partial(anomaly_law, fn)

    def shift_law(k):
        return _below(max(nm.verify_elliptic_shift(k, z, tau)["residual"] for z, tau in pts), tol)
    for k in (1, 2):
        yield f"elliptic_shift_P_{k}", partial(shift_law, k)
    z0, tau0 = 0.3j, 1.1j
    wp = partial(nm.wp_value, z=z0, tau=tau0)
    weierstrass = {1: lambda: -wp(1) + nm.eisenstein_value(2, tau0) * z0 - 1j * cmath.pi,
                   2: lambda: wp(2) + nm.eisenstein_value(2, tau0),
                   3: lambda: -wp(3), 4: lambda: wp(4), 5: lambda: -wp(5)}

    def weierstrass_match(k):
        return _below(abs(nm.p_value(k, z0, tau0) - weierstrass[k]()), 1e-8)
    for k in weierstrass:
        yield f"weierstrass_match_P_{k}", partial(weierstrass_match, k)
    z1, tau1 = 0.2j, 1.2j

    def z_expansion_match(m):
        za = el.z_expansion(m, 1, 25, 40)
        qv = cmath.exp(TWO_PI_I * tau1)
        val = sum(complex(za[e].evaluate(q=qv)) * z1 ** e for e in sorted(za))
        ref = nm.g_value(m, 1, z1, tau1)
        return _below(abs(val - ref) / max(1.0, abs(ref)), 1e-6)

    def shift_polynomiality(m):
        lam_vals = [1, 2, 3, 4, 5]
        ys = [nm.g_value(m, 1, z1 + lam * tau1, tau1) - nm.g_value(m, 1, z1, tau1)
              for lam in lam_vals]
        return _below(_interpolation_miss(lam_vals, ys, m + 1), 1e-5)
    for m in (1, 2):
        yield f"g1{m}_z_expansion_match", partial(z_expansion_match, m)
    for m in (1, 2):
        yield f"g1{m}_shift_polynomiality", partial(shift_polynomiality, m)


@suite("hha-weight1")
def suite_hha_weight1():
    # the spec is built by the first case that reads it, so that a fault in its
    # table check fails each case alone, as in lattice-modular
    spec = cache(hha.weight1_spec)
    yield "configuration_formula_n+s<=6", lambda: all(
        hha.peel_zero_modes(spec(), hha.CorrExpression.single(hha.CorrSymbol(
            ("a",) * s, tuple((p, 0, "a") for p in range(s + 1, s + n + 1)))))
        == hha.weight1_configuration_formula(n, s)
        for s in range(0, 7) for n in range(0, 7 - s) if n or s)
    yield "round_trip_s<=4", lambda: all(
        hha.reduce_to_zero_modes(spec(), hha.invert_to_full(spec(), ("a",) * s))
        == hha.CorrExpression.single(hha.CorrSymbol(("a",) * s, ())) for s in range(1, 5))
    yield "pairing_anomaly_closed_form_s<=6", lambda: all(
        dict(hha.anomaly_of_zero_modes(spec(), ("a",) * s)) == {
            k: {hha.CorrSymbol(("a",) * (s - 2 * k), ()): ScaledRational(
                Fraction(factorial(s), 2 ** k * factorial(k) * factorial(s - 2 * k)), -2 * k)}
            for k in range(1, s // 2 + 1)}
        for s in range(1, 7))
    # one monomial per configuration: the involutions of 4
    yield "configuration_count_involutions", lambda: sum(
        len(poly.terms) for poly in hha.weight1_configuration_formula(0, 4).terms.values()) == 10


@suite("hha-weight2")
def suite_hha_weight2():
    spec = cache(hha.weight2_spec)  # built by the first case, as in hha-weight1
    F = lambda *mods: hha.CorrSymbol(mods, ())

    def expression(*terms):
        out = hha.CorrExpression()
        for sym, coeff in terms:
            out.add_term(sym, coeff)
        return out
    yield "two_zero_modes_expansion_termwise", lambda: \
        hha.invert_to_full(spec(), ("x", "x")) == expression(
            (hha.CorrSymbol((), ((1, 0, "x"), (2, 0, "x"))), ONE),
            (hha.CorrSymbol((), ((2, 0, "x"),)), -(P(2, 2, 1) * ScaledRational(4, -2))),
            (F(), -(P(4, 2, 1) * ScaledRational(2, -4))))
    # the tails that the second peel of F(x0^3) subtracts: the head F(x0^2; (x,3))
    # is the first peel's result
    yield "three_zero_modes_first_peel_termwise", lambda: hha.reduce_once(spec(), expression(
        (hha.CorrSymbol(("x",), ((2, 0, "x"), (3, 0, "x"))), ONE))) == expression(
            (hha.CorrSymbol(("x", "x"), ((3, 0, "x"),)), ONE),
            (hha.CorrSymbol(("x",), ((3, 0, "x"),)), P(2, 3, 2) * ScaledRational(4, -2)),
            (F("x"), P(4, 3, 2) * ScaledRational(2, -4)),
            (hha.CorrSymbol((), ((3, 0, "x"),)), g(1, 3, 3, 2) * ScaledRational(16, -4)),
            (F(), g(1, 5, 3, 2) * ScaledRational(16, -6)))
    yield "round_trip_s<=4", lambda: all(
        hha.reduce_to_zero_modes(spec(), hha.invert_to_full(spec(), ("x",) * s))
        == hha.CorrExpression.single(F(*("x",) * s)) for s in range(1, 5))
    yield "anomaly_s2_(1,4)", lambda: dict(hha.anomaly_of_zero_modes(spec(), ("x", "x"))) == {
        1: {F("x"): ScaledRational(4, -2)}}
    yield "anomaly_s3_(1,12,24)", lambda: \
        dict(hha.anomaly_of_zero_modes(spec(), ("x",) * 3)) == {
            1: {F("x", "x"): ScaledRational(12, -2)}, 2: {F("x"): ScaledRational(24, -4)}}

    def collapse(r):
        modes, insertions = ("x",) * r, ((1, 0, "x"), (2, 0, "x"), (3, 0, "x"))
        return hha.reduce_once(spec(), hha.CorrExpression.single(hha.CorrSymbol(
            modes, insertions))) == hha.reduce_once_ordered(spec(), modes, insertions)
    yield "ordered_collapse_r<=4", lambda: all(collapse(r) for r in range(0, 5))
    # a0 cancellation: sum over positions of the x[0]x replacement reduces to zero
    yield "zero_action_position_sum_cancels", lambda: hha.reduce_to_zero_modes(spec(), expression(
        (hha.CorrSymbol((), ((2, 1, "x"), (3, 0, "x"))), ONE),
        (hha.CorrSymbol((), ((2, 0, "x"), (3, 1, "x"))), ONE))).is_zero()


def _reduction_n(spec, modes) -> hha.CorrExpression:
    """N F(modes) read off the reduction of its full correlator Phi (the zero
    modes inserted at 1..n) to F(modes) + sum_j r_j Z_j, every Z_j on fewer
    zero modes: Phi is invariant, coefficients move by exp(B D) (derive_poly is
    D) and each Z_j by exp(B N), so N F(modes) = -sum_j (D r_j Z_j + r_j N Z_j).
    A head other than 1 F(modes) is left in the result, where N has no term."""
    sym = hha.CorrSymbol(modes, ())
    full = hha.CorrSymbol((), tuple((p, 0, g_) for p, g_ in enumerate(modes, 1)))
    lower = dict(hha.reduce_to_zero_modes(spec, hha.CorrExpression.single(full)).terms)
    out = hha.CorrExpression()
    out.add_term(sym, lower.pop(sym, CoeffPoly()) - ONE)
    for zsym, r in lower.items():
        out.add_term(zsym, -derive_poly(r))
        for tsym, c in hha.contraction_n(spec, zsym.modes):
            out.add_term(tsym, r * -c)
    return out


@suite("hha-contraction")
def suite_hha_contraction():
    # N by the pair contraction, which every anomaly reads, against N read off the
    # reduction, term by term, for s upward, so each lower N it reads has passed first
    # each case builds its spec, so that a fault in the table check fails that case alone
    def routes_agree(make_spec, gen, top):
        spec = make_spec()
        for s in range(1, top + 1):
            modes = (gen,) * s
            if _reduction_n(spec, modes) != hha.CorrExpression(
                    {sym: CoeffPoly.scalar(c) for sym, c in hha.contraction_n(spec, modes)}):
                return False, {"first_disagreement_s": s}
        return True
    yield "weight1_pairing=1_s<=10", partial(routes_agree, hha.weight1_spec, "a", 10)
    yield "weight1_pairing=3/2_s<=10", partial(
        routes_agree, partial(hha.weight1_spec, Fraction(3, 2)), "a", 10)
    yield "weight2_s<=6", partial(routes_agree, hha.weight2_spec, "x", 6)


def _negation_closed(vectors: list) -> bool:
    """Whether a shell's vectors, all of one length, are sorted and are their
    own negations, with multiplicity.  Negation reverses lexicographic order,
    so such a list, negated, reads as itself backwards: x_i = -x_{n-1-i}.
    That is checked column by column, the first ceil(n/2) entries of each
    coordinate against the last ceil(n/2) reversed and negated, with no
    negated vector built.
    """
    if sorted(vectors) != vectors:
        return False
    half = (len(vectors) + 1) // 2
    return all(c[:half] == tuple(map(neg, c[:-half - 1:-1])) for c in zip(*vectors))


@suite("lattice-oracle")
def suite_lattice_oracle(order=4):
    E8 = lt.e8()
    shells = cache(lambda: lt.enumerate_vectors(E8, 4))

    def shell_sizes():
        sizes = [len(s.vectors) for s in shells()]
        return sizes == [1, 240, 2160, 6720, 17520], {"sizes": sizes}
    yield "e8_shell_sizes", shell_sizes
    yield "shells_negation_symmetric", lambda: all(
        _negation_closed(s.vectors) for s in shells())
    level = min(order, 6)  # rank-8 default test profile caps the Fock level at 6
    yield "e8_closed_form_equals_oracle_n<=3", lambda: (all(
        (lt.quasimod_rhs(E8, n, level) - lt.fock_trace_oracle(E8, n, level)).is_zero()
        for n in range(0, 4)), {"level": level})
    E83 = lt.e8_cubed()
    yield "e8cubed_closed_form_equals_oracle_n<=1", lambda: all(
        (lt.quasimod_rhs(E83, n, 3) - lt.fock_trace_oracle(E83, n, 3)).is_zero()
        for n in range(0, 2))
    yield "e8cubed_character_is_j", lambda: all(
        lt.quasimod_rhs(E83, 0, 3).coefficient(m) == lt.J_CHARACTER[m] for m in range(4))
    A1 = lt.a1()
    yield "literal_vs_counted_oracle_a1", lambda: all(
        (lt.fock_trace_literal(A1, n, 4) - lt.fock_trace_oracle(A1, n, 4)).is_zero()
        for n in range(0, 3))


def _closure_miss(lhs, terms):
    """|lhs - sum(terms)| relative to max(1, |lhs|, |each term|)."""
    return abs(lhs - sum(terms)) / max(1.0, abs(lhs), *(abs(t) for t in terms))


@suite("lattice-modular")
def suite_lattice_modular(order=8, tol=1e-5):
    E8 = lt.e8()
    E83 = lt.e8_cubed()
    tau = 1.3j  # the point of the E8^3 closure cases; gamma = S takes it to -1/tau
    gt = -1 / tau
    # the truncation estimate: 10x the largest relative tail of the E8^3 theta
    # moments at q(gt); tail_estimate scales by the last computed coefficients,
    # and the factor 10 covers their growth (about 5x per order near order 8)
    q = cmath.exp(TWO_PI_I * gt)
    tails = []
    for p in (0, 2, 4, 6):
        series = lt.theta_moment(E83, p, order)
        value = abs(series.evaluate(q=q))
        tails.append(series.tail_estimate(q=q) / value if value else math.inf)
    _check_truncation("lattice-modular", order, 10 * max(tails), tol)

    @cache
    def moments():
        # theta_E8 = E_4 = 720 G_4/(2 pi i)^4 gives the moments c_p (2q d/dq)^(p/2) E_4,
        # checked to q^order against the E8 blocks' product route
        theta = qs.eisenstein(4, order).scalar_mul(ScaledRational(720, -4))
        univ = {0: Fraction(1), 2: Fraction(1, 8), 4: Fraction(3, 80), 6: Fraction(1, 64)}
        out = {}
        for p, c in univ.items():
            series = theta
            for _ in range(p // 2):
                series = series.q_derivative().scalar_mul(2)
            out[p] = series.scalar_mul(c)
        return out
    yield "e8_moments_from_theta_derivatives", lambda: all(
        (lt.theta_moment(E8, p, order) - series).is_zero() for p, series in moments().items())

    def grading(p):
        # quasimodular forms are M[E_2]: the moment of weight 4 + p, completed as
        # sum_i (-E_2/24)^i p!/(i! (p-2i)!) theta_(p-2i), is modular of that weight,
        # so a multiple of E_4, E_6, E_4^2 or E_4 E_6, which span M_4 ... M_10
        e4 = moments()[0]
        e6 = qs.eisenstein(6, order).scalar_mul(ScaledRational(-30240, -6))
        e2 = qs.eisenstein(2, order).scalar_mul(ScaledRational(Fraction(1, 2), -2))  # -E_2/24
        completed = reduce(add, (
            (e2.power(i) * lt.theta_moment(E8, p - 2 * i, order)).scalar_mul(
                Fraction(factorial(p), factorial(i) * factorial(p - 2 * i)))
            for i in range(p // 2 + 1)))
        multiple = completed.coeffs[0]
        form = (e4, e6, e4 * e4, e4 * e6)[p // 2]
        return completed == form.scalar_mul(multiple), {"multiple": str(multiple),
                                                        "rows": order + 1}
    for p in (0, 2, 4, 6):
        yield f"theta_moment_weight_grading_2j={p}", partial(grading, p)
    moment_trace = cache(lambda s, t: lt.moment_trace_value(E83, s, t, order))
    trace = cache(lambda s, t: lt.trace_value(E83, s, t, order))
    # each built-in spec is built once, by the first case that reads it
    weight1, weight2 = cache(hha.weight1_spec), cache(hha.weight2_spec)
    Bval = TWO_PI_I / tau  # B = 2 pi i c/(c tau + d) at gamma = S

    def anomaly_law(spec, gen, w, trace, s):
        # tau^(-w s) trace(s, gamma tau) = trace(s, tau) + the engine's anomaly, whose
        # B^k bucket takes trace(s', tau) on its s' zero modes
        return _below(_closure_miss(tau ** (-w * s) * trace(s, gt), [trace(s, tau)] + [
            complex(coeff) * Bval ** k * trace(len(sym.modes), tau)
            for k, bucket in hha.anomaly_of_zero_modes(spec(), (gen,) * s)
            for sym, coeff in bucket.items()]), tol)
    for s in range(1, 7):
        yield f"weight1_anomaly_numeric_s={s}", partial(anomaly_law, weight1, "a", 1,
                                                         moment_trace, s)
    for s in (1, 2, 3):
        yield f"weight2_anomaly_numeric_s={s}", partial(anomaly_law, weight2, "x", 2, trace, s)
    z = 0.1 + 0.2j
    yield "weight1_jacobi_law_chi", lambda: _below(_closure_miss(
        lt.chi_weight1(E83, z / tau, gt, order),
        [cmath.exp(1j * cmath.pi * z * z / tau) * lt.chi_weight1(E83, z, tau, order)]), tol)


def _bind(name, flags):
    """Suite ``name``'s arguments: its defaults, overridden by the flags given
    (a flag of None is not given).  A flag the suite does not read is refused."""
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; available: {sorted(SUITES)}")
    args = {k: p.default for k, p in inspect.signature(SUITES[name]).parameters.items()}
    for flag, value in flags.items():
        if value is None:
            continue
        if flag not in args:
            takes = ", ".join(f"--{k}" for k in args) or "no flags"
            raise ValueError(f"suite {name} does not read --{flag}; it takes {takes}")
        args[flag] = value
    return args


def run_suite(name, **flags):
    """The report of suite ``name`` run with ``flags``.  A check that raises
    fails with an ``error`` detail and the checks after it still run; a raise
    in the suite's set-up ends it with a failing ``error`` case, except a
    :class:`TruncationError`, which refuses the flags and is raised."""
    args = _bind(name, flags)
    cases = []
    try:
        for cid, check in SUITES[name](**args):
            try:
                result = check()
                ok, detail = result if isinstance(result, tuple) else (result, {})
            except Exception as exc:
                ok, detail = False, {"error": f"{type(exc).__name__}: {exc}"}
            cases.append({"id": cid, "status": "pass" if ok else "fail",
                          **dict(sorted(detail.items()))})
    except TruncationError:
        raise
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
