"""Lattice vertex-algebra backend: vector enumeration, theta moments, the
closed-form zero-mode trace, and a brute-force Fock-basis oracle.

The graded trace of powers of the zero mode of v = h[-1]^2 1 - 1/12 over an
even positive definite lattice of rank l is

    Tr v_0^n q^{L0 - l/24}
      = sum_j C(n,j) [sum_a <h,a>^{2j} q^{<a,a>/2}] eta^{-(l-1)} (2q d/dq)^{n-j} eta^{-1},

with h a unit vector of the ambient space.  Here h = e_0/|e_0|, the first
basis vector normalised, so <h,a>^2 = <e_0,a>^2/<e_0,e_0> is rational; there
is no frame of axes to choose from.  Another direction is the first basis
vector of a re-based Gram.  The oracle recomputes the same traces by direct
enumeration of the Fock basis (lattice vectors times colored oscillator
partitions), organized by counting but using no series identity.

Blocks whose Gram is the preset E8 Gram (``e8``, each block of ``e8x3``) take a
product route: in even coordinates E8 is the x in Z^8 or (Z+1/2)^8 with even
sum, so its (norm/2, <e_0,a>^2) counts are sums over single coordinates.  Every
other Gram, E8 in another basis too, goes through one Fincke-Pohst walk.  It
prunes with integer bounds read from the exact LDL^T decomposition of the Gram
matrix (made once per Gram, and shared with the check that a lattice is
positive definite): a coordinate runs over exactly the values that keep the
levels fixed so far within the bound, so no vector is missed, and the integer
left of the bound at a leaf gives its exact norm.  Shells are complete by
proof, whatever the size of the Gram's entries.  It visits one of each pair
x, -x and hands the leaf a multiplicity (2, or 1 for x = 0); every tally here
is even in x.  Per block Gram one walk is grouped into (norm/2, <e_0,a>^2)
counts and cached, and a lower order reads the deepest walk's groups: shell
sizes, theta moments, theta series, traces and chi share them.  The walk is
the product route's oracle: ``enumerate_vectors`` (which alone keeps the
vectors, both signs) and ``fock_trace_oracle``'s charged block walk every
Gram, and share one walk per Gram and order: the vectors' walk tallies the
groups too.  The closed-form trace and the oracle are made once
per (lattice, n, order), as the theta moments and eta factors they read are.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, isqrt
from operator import neg

from .qseries import QExpansion, eta_power
from .scaled import TWO_PI_I, _gc_paused


class LatticeError(ValueError):
    pass


@lru_cache(maxsize=None)
def _ldl(gram: tuple) -> tuple:
    """Exact LDL^T of a symmetric positive definite integer Gram, once per Gram.

    Returns (L, D) as tuples: the validation of every lattice block and every
    walk share one decomposition.
    """
    n = len(gram)
    L = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    D = []
    for i in range(n):
        d = Fraction(gram[i][i]) - sum(D[k] * L[i][k] ** 2 for k in range(i))
        if d <= 0:
            raise LatticeError("Gram matrix is not positive definite")
        D.append(d)
        for j in range(i + 1, n):
            L[j][i] = (Fraction(gram[j][i])
                       - sum(D[k] * L[i][k] * L[j][k] for k in range(i))) / d
    return tuple(map(tuple, L)), tuple(D)


@dataclass(frozen=True)
class EvenLattice:
    gram: tuple

    def __post_init__(self):
        g = self.gram
        n = len(g)
        if not n:
            raise LatticeError("a lattice needs rank >= 1, got an empty Gram matrix")
        for row in g:
            if len(row) != n:
                raise LatticeError("Gram matrix must be square")
            for v in row:
                if type(v) is not int:  # neither a float truncated nor a bool read as 0/1
                    raise LatticeError(f"Gram entries must be integers, got {v!r}")
        for i in range(n):
            if g[i][i] % 2:
                raise LatticeError("even lattice needs even diagonal")
            for j in range(n):
                if g[i][j] != g[j][i]:
                    raise LatticeError("Gram matrix must be symmetric")
        for idx in self.blocks():  # positive definiteness, block by block
            _ldl(tuple(tuple(g[i][j] for j in idx) for i in idx))

    @property
    def rank(self) -> int:
        return len(self.gram)

    def norm2(self, x) -> int:
        """<x, x> for integer coordinates x."""
        g = self.gram
        return sum(x[i] * g[i][j] * x[j] for i in range(len(g)) for j in range(len(g)))

    def blocks(self):
        """Connected components of the Gram matrix, as sorted index tuples."""
        n = self.rank
        seen = [False] * n
        out = []
        for start in range(n):
            if seen[start]:
                continue
            comp, stack = [], [start]
            seen[start] = True
            while stack:
                i = stack.pop()
                comp.append(i)
                for j in range(n):
                    if not seen[j] and self.gram[i][j] != 0:
                        seen[j] = True
                        stack.append(j)
            out.append(tuple(sorted(comp)))
        return out

    def sublattice(self, idx) -> "EvenLattice":
        return EvenLattice(tuple(tuple(self.gram[i][j] for j in idx) for i in idx))

    def to_json(self) -> dict:
        return {"rank": self.rank, "gram": [list(r) for r in self.gram]}

    @classmethod
    def from_json(cls, data) -> "EvenLattice":
        gram = data.get("gram") if isinstance(data, dict) else None
        if not isinstance(gram, list) or not all(isinstance(row, list) for row in gram):
            raise LatticeError('a lattice is a JSON object whose "gram" is a list of rows')
        rank = data.get("rank", len(gram))
        if type(rank) is not int or rank != len(gram):
            raise LatticeError(f'"rank" {json.dumps(rank)} is not {len(gram)}, the Gram size')
        return cls(tuple(tuple(row) for row in gram))


_E8_EDGES = ((1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (2, 4))


def e8() -> EvenLattice:
    """E8 root lattice Gram matrix (Bourbaki node numbering)."""
    g = [[0] * 8 for _ in range(8)]
    for i in range(8):
        g[i][i] = 2
    for a, b in _E8_EDGES:
        g[a - 1][b - 1] = g[b - 1][a - 1] = -1
    return EvenLattice(tuple(tuple(r) for r in g))


def block_power(lat: EvenLattice, copies: int) -> EvenLattice:
    n = lat.rank
    g = [[0] * (n * copies) for _ in range(n * copies)]
    for c in range(copies):
        for i in range(n):
            for j in range(n):
                g[c * n + i][c * n + j] = lat.gram[i][j]
    return EvenLattice(tuple(tuple(r) for r in g))


def e8_cubed() -> EvenLattice:
    return block_power(e8(), 3)


def a1() -> EvenLattice:
    return EvenLattice(((2,),))


PRESETS = {"e8": e8, "e8x3": e8_cubed, "a1": a1}


@dataclass
class VectorShell:
    norm_half: int
    vectors: list


def _walk(gram: tuple, max_norm_half: int, leaf) -> None:
    """Fincke-Pohst walk over one of each pair x, -x with <x,x>/2 <= max_norm_half.

    Calls leaf(x, <x,x>/2, <e_0,x>, mult) for the x whose highest nonzero
    coordinate is positive, with mult = 2 for the pair x, -x and mult = 1 for
    x = 0.  Coordinates are fixed from the last down to the first, in integers
    read from the exact LDL^T.  With e_i the common denominator of L's column
    i, <x,x> = sum_i (D_i/e_i^2) Y_i^2 with Y_i = e_i x_i + C_i, and the center
    C_i = sum_{j>i} e_i L_ji x_j is an integer, handed down as x_j is fixed.
    Scaled by lam, the lcm of the denominators of the D_i/e_i^2, each
    a_i = lam D_i/e_i^2 is an integer and so is rem, the bound that the levels
    above i leave.  As Y_i^2 is an integer, a_i Y_i^2 <= rem holds exactly when
    |Y_i| <= s = isqrt(rem // a_i), that is when x_i runs from
    -((C_i + s) // e_i) to (s - C_i) // e_i.  An x with <x,x> <= 2N meets this
    at every level, the terms being nonnegative, so none is pruned; and the
    rem left at a leaf is lam (2N - <x,x>) >= 0, which gives its exact norm.
    The integer pairing with e_0 (row ``gram[0]``) is carried down as well.
    ``x`` is the walk's working list: a leaf that keeps it must copy it.
    The walk leaves no reference cycle, so a dropped walk, and whatever its
    leaf kept, is freed by reference counting alone.
    """
    if max_norm_half < 0:
        raise LatticeError("max_norm_half must be >= 0")
    n = len(gram)
    L, D = _ldl(gram)
    e = [math.lcm(*(L[j][i].denominator for j in range(i + 1, n))) for i in range(n)]
    lam = math.lcm(*((d / ei ** 2).denominator for d, ei in zip(D, e)))
    a = [int(lam * d / ei ** 2) for d, ei in zip(D, e)]
    # row i of the centers' coefficients e_k L_ik, k < i: x_i's share of the levels below
    M = [[int(e[k] * L[i][k]) for k in range(i)] for i in range(n)]
    g0, scale, x = gram[0], 2 * lam, [0] * n

    def rec(i, rem, ip, centers, lead):
        # lead: every coordinate above i is zero, so x_i >= 0 keeps one of each pair
        c, ei, ai, mi, gi = centers[i], e[i], a[i], M[i], g0[i]
        s = isqrt(rem // ai)
        for v in range(0 if lead else -((c + s) // ei), (s - c) // ei + 1):
            x[i] = v
            y = ei * v + c
            left = rem - ai * y * y
            if i:
                rec(i - 1, left, ip + gi * v, [b + m * v for b, m in zip(centers, mi)],
                    lead and not v)
            else:
                leaf(x, max_norm_half - left // scale, ip + gi * v, 1 if lead and not v else 2)

    try:
        rec(n - 1, scale * max_norm_half, 0, [0] * n, True)
    finally:
        del rec  # rec calls itself through its closure cell: emptied, it leaves no cycle


@_gc_paused
def enumerate_vectors(lat: EvenLattice, max_norm_half: int):
    """All shells <a,a>/2 = 0..max_norm_half, complete and duplicate-free.

    The walk keeps its half of each shell, one of each pair x, -x, as tuples
    (shell 0 is the zero vector alone).  The other half is then negated in
    bulk, column by column, and each shell is sorted once.  The walk and the
    negation make many vectors and no cycle, so they run with the cyclic GC
    paused.  The same walk tallies the Gram's groups for ``_grouped_walk``,
    so the Fock oracle does not walk this Gram to this order again.
    """
    halves = [[] for _ in range(max_norm_half + 1)]
    grouped = {}

    def leaf(x, nh, ip, mult):
        halves[nh].append(tuple(x))
        key = (nh, ip * ip)
        grouped[key] = grouped.get(key, 0) + mult

    _walk(lat.gram, max_norm_half, leaf)
    _keep_groups(lat.gram, max_norm_half, grouped)
    shells = [VectorShell(0, halves[0])]
    for m, half in enumerate(halves[1:], 1):
        negated = zip(*[tuple(map(neg, c)) for c in zip(*half)])
        shells.append(VectorShell(m, sorted([*half, *negated])))
    return shells


_DEEPEST_WALK = {}  # gram -> (max_norm_half, groups) of the deepest walk so far


def _keep_groups(gram: tuple, max_norm_half: int, grouped: dict) -> tuple:
    """A walk's {(norm_half, <e_0,x>^2): count} as sorted groups, kept for the Gram
    unless a deeper walk's are kept already."""
    groups = tuple((nh, ip2, cnt) for (nh, ip2), cnt in sorted(grouped.items()))
    deepest = _DEEPEST_WALK.get(gram)
    if deepest is None or deepest[0] < max_norm_half:
        _DEEPEST_WALK[gram] = (max_norm_half, groups)
    return groups


def _grouped_walk(gram: tuple, max_norm_half: int) -> tuple:
    """A block's walk, grouped: ((norm_half, <e_0,x>^2, count), ...), sorted.

    <e_0,x>^2 is even in x, so the pair x, -x joins one group.  Only the deepest
    walk per Gram is kept, by this walk or by ``enumerate_vectors``'s: a lower
    order reads its groups with norm_half <= max_norm_half, which are the groups
    a walk to that order tallies.
    """
    deepest = _DEEPEST_WALK.get(gram)
    if deepest is not None and 0 <= max_norm_half <= deepest[0]:
        return tuple(g for g in deepest[1] if g[0] <= max_norm_half)
    grouped = {}

    def leaf(x, nh, ip, mult):
        key = (nh, ip * ip)
        grouped[key] = grouped.get(key, 0) + mult

    _walk(gram, max_norm_half, leaf)
    return _keep_groups(gram, max_norm_half, grouped)


_grouped_walk.cache_clear = _DEEPEST_WALK.clear  # as on the lru caches that read it


@lru_cache(maxsize=None)
def _e8_groups(max_norm_half: int) -> tuple:
    """The preset E8 Gram's ((norm_half, <e_0,x>^2, count), ...), with no walk.

    In doubled even coordinates y = 2x, E8 is the y in (2Z)^8 or (2Z+1)^8 with sum y = 0
    mod 4, and norm/2 = sum y^2/8.  The Weyl group is transitive on roots, so the root e_0
    groups as the root e_1 + e_2, which pairs as (y_1 + y_2)/2.  Six coordinates are
    tallied by (sum y^2, sum y mod 4), and the pair (y_1, y_2) runs over that tally.
    """
    if max_norm_half < 0:
        raise LatticeError("max_norm_half must be >= 0")
    bound = 8 * max_norm_half
    grouped = {}
    for parity in (0, 1):
        ys = [y for y in range(-isqrt(bound), isqrt(bound) + 1) if y % 2 == parity]
        six = {(0, 0): 1}
        for _ in range(6):
            tally = {}
            for (sq, r), c in six.items():
                for y in ys:
                    if sq + y * y <= bound:
                        key = (sq + y * y, (r + y) % 4)
                        tally[key] = tally.get(key, 0) + c
            six = tally
        for y1 in ys:
            for y2 in ys:
                for (sq, r), c in six.items():
                    norm = sq + y1 * y1 + y2 * y2
                    if norm <= bound and (r + y1 + y2) % 4 == 0:
                        key = (norm // 8, (y1 + y2) ** 2 // 4)
                        grouped[key] = grouped.get(key, 0) + c
    return tuple((nh, ip2, cnt) for (nh, ip2), cnt in sorted(grouped.items()))


def _groups(gram: tuple, max_norm_half: int) -> tuple:
    """A block's groups: the product route for the preset E8 Gram, the walk otherwise."""
    return _e8_groups(max_norm_half) if gram == e8().gram else _grouped_walk(gram, max_norm_half)


@lru_cache(maxsize=None)
def _shell_sizes(gram: tuple, max_norm_half: int) -> tuple:
    sizes = [0] * (max_norm_half + 1)
    for nh, _, cnt in _groups(gram, max_norm_half):
        sizes[nh] += cnt
    return tuple(sizes)


def _rest_counts(lat: EvenLattice, skip, truncation: int) -> list:
    """Vectors of the blocks other than ``skip`` by norm/2: their shell sizes convolved."""
    counts = [1] + [0] * truncation
    for idx in lat.blocks():
        if idx == skip:
            continue
        sizes = _shell_sizes(lat.sublattice(idx).gram, truncation)
        new = [0] * (truncation + 1)
        for a, ca in enumerate(counts):
            if ca:
                for b in range(truncation + 1 - a):
                    new[a + b] += ca * sizes[b]
        counts = new
    return counts


def theta_series(lat: EvenLattice, truncation: int) -> QExpansion:
    """Theta series of the lattice: its zeroth theta moment."""
    return theta_moment(lat, 0, truncation)


@lru_cache(maxsize=None)
def _axis_shell_data(lat: EvenLattice, max_norm_half: int, groups=_groups):
    """((norm_half, <h,a>^2, count), ...) over the first block's shells, grouped.

    h = e_0/|e_0|, so <h,a>^2 is the groups' <e_0,a>^2 over G_00.  ``groups``
    is ``_groups``, or ``_grouped_walk`` for the oracle, which walks every Gram.
    """
    block = lat.blocks()[0]
    sub_gram = lat.sublattice(block).gram
    return tuple((nh, Fraction(ip2, sub_gram[0][0]), cnt)
                 for nh, ip2, cnt in groups(sub_gram, max_norm_half)), block


@lru_cache(maxsize=None)
def theta_moment(lat: EvenLattice, power: int, truncation: int) -> QExpansion:
    """sum_a <h, a>**power q^{<a,a>/2} to the given order (exact), h = e_0/|e_0|.

    Odd powers return the zero series (the a -> -a symmetry kills every shell).
    """
    if power % 2:
        # <h,a>**odd sums to zero shell by shell
        return QExpansion.zero(truncation)
    data, block = _axis_shell_data(lat, truncation)
    moments = {}
    for nh, t2, cnt in data:
        moments[nh] = moments.get(nh, Fraction(0)) + cnt * t2 ** (power // 2)
    # other blocks contribute their plain theta series
    rest = QExpansion.from_dict(dict(enumerate(_rest_counts(lat, block, truncation))), truncation)
    return QExpansion.from_dict(moments, truncation) * rest


@lru_cache(maxsize=None)
def eta_derivative_factor(ell: int, r: int, truncation: int) -> QExpansion:
    """eta**(-(ell-1)) (2 q d/dq)**r eta**(-1), exact, offset -ell/24."""
    d = eta_power(-1, truncation)
    for _ in range(r):
        d = d.q_derivative().scalar_mul(2)
    return eta_power(-(ell - 1), truncation) * d


@lru_cache(maxsize=None)
def quasimod_rhs(lat: EvenLattice, n: int, truncation: int) -> QExpansion:
    """Closed-form Tr v_0^n q^{L0 - l/24} for v = h[-1]^2 1 - 1/12."""
    ell = lat.rank
    total = None
    for j in range(n + 1):
        term = theta_moment(lat, 2 * j, truncation) * \
            eta_derivative_factor(ell, n - j, truncation)
        term = term.scalar_mul(comb(n, j))
        total = term if total is None else total + term
    return total


@lru_cache(maxsize=None)
def partition_counts(colors: int, max_n: int) -> tuple:
    """Number of ``colors``-colored partitions of 0..max_n (pure counting DP)."""
    counts = [1] + [0] * max_n
    for _ in range(colors):
        for part in range(1, max_n + 1):
            for total in range(part, max_n + 1):
                counts[total] += counts[total - part]
    return tuple(counts)


@dataclass(frozen=True)
class FockLabel:
    """Basis vector: lattice point plus one oscillator partition per color."""
    alpha: tuple
    partitions: tuple  # one sorted tuple of parts per color

    def level(self, lat: EvenLattice) -> Fraction:
        return Fraction(lat.norm2(self.alpha), 2) + sum(sum(p) for p in self.partitions)


def fock_labels(lat: EvenLattice, max_level: int):
    """Literal Fock-basis enumeration up to L0-level max_level (small ranks only)."""
    from itertools import product

    def partitions_upto(n):
        out = [[] for _ in range(n + 1)]
        out[0].append(())
        for total in range(1, n + 1):
            def gen(rem, mx, cur):
                if rem == 0:
                    out[total].append(tuple(cur))
                    return
                for p in range(min(rem, mx), 0, -1):
                    gen(rem - p, p, cur + [p])
            gen(total, total, [])
        return out

    parts = partitions_upto(max_level)
    ell = lat.rank
    for shell in enumerate_vectors(lat, max_level):
        budget = max_level - shell.norm_half
        level_lists = []
        for split in _compositions(budget, ell):
            level_lists.append(split)
        for alpha in shell.vectors:
            for split in level_lists:
                for combo in product(*(parts[s] for s in split)):
                    yield FockLabel(alpha, combo)


def _compositions(total_max, k):
    """All tuples of k nonnegative ints with sum <= total_max."""
    if k == 0:
        yield ()
        return
    for first in range(total_max + 1):
        for rest in _compositions(total_max - first, k - 1):
            yield (first,) + rest


@lru_cache(maxsize=None)
def _literal_eigenvalues(lat: EvenLattice, truncation: int) -> tuple:
    """((level, v_0 eigenvalue), ...), one pair per Fock label up to ``truncation``.

    Oscillator color 0 is the direction h = e_0/|e_0| of v, and <h,alpha>^2 =
    (G_0 . alpha)^2 / G_00.
    """
    g0 = lat.gram[0]
    out = []
    for label in fock_labels(lat, truncation):
        ip = sum(g * a for g, a in zip(g0, label.alpha))
        out.append((int(label.level(lat)),
                    Fraction(ip * ip, g0[0]) + 2 * sum(label.partitions[0]) - Fraction(1, 12)))
    return tuple(out)


def fock_trace_literal(lat: EvenLattice, n: int, truncation: int) -> QExpansion:
    """Tr v_0^n q^{L0-l/24} by literal Fock-label enumeration (tiny lattices).

    The labels are enumerated once per (lattice, truncation) and serve every n.
    """
    coeffs = {}
    for m, eig in _literal_eigenvalues(lat, truncation):
        coeffs[m] = coeffs.get(m, Fraction(0)) + eig ** n
    return QExpansion.from_dict(coeffs, truncation, Fraction(-lat.rank, 24))


@lru_cache(maxsize=None)
def fock_trace_oracle(lat: EvenLattice, n: int, truncation: int) -> QExpansion:
    """Brute-force Tr v_0^n q^{L0-l/24} over the Fock basis, organized by counting.

    The v_0 eigenvalue on a basis vector is <h,alpha>^2 + 2|lambda_0| - 1/12,
    independent of all other oscillator colors and of the other-block lattice
    components; those are enumerated through partition and shell counting.
    """
    ell = lat.rank
    # the charged block is walked, so the closed form's product route has an oracle
    data, block = _axis_shell_data(lat, truncation, _grouped_walk)
    # rest-norm counts: lattice vectors of the other blocks by total norm/2
    rest = _rest_counts(lat, block, truncation)
    # oscillators: color 0 counted with its eigenvalue, other ell-1 colors counted
    p_h = partition_counts(1, truncation)
    p_rest = partition_counts(ell - 1, truncation)
    # convolve the eigenvalue-blind factors once
    blind = [0] * (truncation + 1)
    for w in range(truncation + 1):
        if p_rest[w]:
            for r in range(0, truncation + 1 - w):
                blind[w + r] += p_rest[w] * rest[r]
    coeffs = {}
    for nh, t2, cnt in data:
        for v in range(0, truncation + 1 - nh):
            if not p_h[v]:
                continue
            eig = (t2 + 2 * v - Fraction(1, 12)) ** n
            weight = cnt * p_h[v] * eig
            for u in range(0, truncation + 1 - nh - v):
                if blind[u]:
                    m = nh + v + u
                    coeffs[m] = coeffs.get(m, Fraction(0)) + weight * blind[u]
    return QExpansion.from_dict(coeffs, truncation, Fraction(-ell, 24))


# -- numerics ----------------------------------------------------------------

def _eta_order(shell_truncation: int) -> int:
    """The q-order of the eta factors of a numeric trace: about 4x the shell
    order, so the truncation error is dominated by the stated shell bound."""
    return 4 * shell_truncation + 8


def trace_value(lat: EvenLattice, n: int, tau: complex, shell_truncation: int) -> complex:
    """Numeric Tr v_0^n q^{L0-l/24}, factor-wise.

    Theta moments are evaluated at their shell truncation, the eta factors
    at ``_eta_order`` of it.
    """
    series_order = _eta_order(shell_truncation)
    ell = lat.rank
    q = cmath.exp(TWO_PI_I * tau)
    total = 0j
    for j in range(n + 1):
        tm = theta_moment(lat, 2 * j, shell_truncation).evaluate(q=q)
        eta_fac = eta_derivative_factor(ell, n - j, series_order).evaluate(q=q)
        total += comb(n, j) * tm * eta_fac
    return total


def moment_trace_value(lat: EvenLattice, s: int, tau: complex, shell_truncation: int) -> complex:
    """Numeric Tr (a_0)^s q^{L0-l/24} for the weight-1 field a = h(-1)1."""
    if s % 2:
        return 0j
    q = cmath.exp(TWO_PI_I * tau)
    tm = theta_moment(lat, s, shell_truncation).evaluate(q=q)
    return tm * eta_power(-lat.rank, _eta_order(shell_truncation)).evaluate(q=q)


def chi_weight1(lat: EvenLattice, z: complex, tau: complex, shell_truncation: int) -> complex:
    """chi(tau, z) = Tr e^{2 pi i z a_0} q^{L0 - l/24}, numerically.

    Factorizes over blocks: only the first block carries the charge phase.
    It enters through the counts (norm/2, t = <h,a>^2, count) of the
    block's groups, exact integers from the product route or the walk; they
    are cached and shared with the theta moments, and no vector is stored.
    As each shell is closed under a -> -a, a group contributes
    count * cos(2 pi z sqrt(t)) q^{norm/2}.
    """
    if tau.imag <= 0:
        raise LatticeError("need Im tau > 0")
    q = cmath.exp(TWO_PI_I * tau)
    data, block = _axis_shell_data(lat, shell_truncation)
    charged = sum((cnt * cmath.cos(2 * math.pi * z * math.sqrt(t2)) * q ** nh
                   for nh, t2, cnt in data), 0j)
    rest = sum(c * q ** m for m, c in enumerate(_rest_counts(lat, block, shell_truncation)))
    return charged * rest * eta_power(-lat.rank, _eta_order(shell_truncation)).evaluate(q=q)


J_CHARACTER = {0: 1, 1: 744, 2: 196884, 3: 21493760, 4: 864299970}
"""Levels 0..4 of q**-1 + 744 + 196884 q + ...: frozen independent reference."""
