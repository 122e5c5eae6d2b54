"""Brute-force Fock-space trace oracle on the rank-1 Heisenberg VOA.

Ground truth for the symbolic reduction identities: the weight-2 field
x = h(-1)^2 1 - 1/12 is realized by explicit mode matrices on oscillator
partitions, and correlators F(x_0^s; (x,z_1),...) are evaluated as graded
matrix traces.  Everything here is independent of the engine under test.
"""

import cmath
import itertools

import numpy as np

from torusmodes import numerics as nm

TPI = 2j * cmath.pi


class HeisenbergOracle:
    def __init__(self, max_level=12, max_mode=8):
        self.M = max_level
        self.R = max_mode
        self.partitions = {0: [()]}
        for n in range(1, self.M + 1):
            acc = set()

            def gen(rem, mx, cur):
                if rem == 0:
                    acc.add(tuple(sorted(cur, reverse=True)))
                    return
                for p in range(min(rem, mx), 0, -1):
                    gen(rem - p, p, cur + [p])

            gen(n, n, [])
            self.partitions[n] = sorted(acc)
        self.dims = {n: len(ps) for n, ps in self.partitions.items()}
        self.index = {n: {p: i for i, p in enumerate(ps)}
                      for n, ps in self.partitions.items()}
        self._h = {}
        for j in range(-self.M, self.M + 1):
            if j:
                self._h[j] = {lev: self._h_matrix(j, lev) for lev in range(self.M + 1)}
        self._x = {}
        for n in range(-self.R - 1, self.R + 2):
            self._x[n] = {lev: self._x_matrix(n, lev) for lev in range(self.M + 1)}

    def _h_matrix(self, j, lev):
        tgt = lev - j
        if not (0 <= tgt <= self.M):
            return None
        A = np.zeros((self.dims[tgt], self.dims[lev]))
        for col, mu in enumerate(self.partitions[lev]):
            if j > 0:
                m = mu.count(j)
                if m:
                    lst = list(mu)
                    lst.remove(j)
                    A[self.index[tgt][tuple(lst)], col] += j * m
            else:
                nu = tuple(sorted(mu + (-j,), reverse=True))
                A[self.index[tgt][nu], col] += 1.0
        return A

    def _x_matrix(self, n, lev):
        # x_n = sum_{i+j=n} :h(i)h(j): - (1/12) delta_{n,0}
        tgt = lev - n
        if not (0 <= tgt <= self.M):
            return None
        A = np.zeros((self.dims[tgt], self.dims[lev]))
        if n == 0:
            A -= np.eye(self.dims[lev]) / 12.0
        for i in range(-self.M, self.M + 1):
            j = n - i
            if i == 0 or j == 0 or abs(j) > self.M or i > j:
                continue
            hj = self._h[j].get(lev)
            if hj is None:
                continue
            mid = lev - j
            if not (0 <= mid <= self.M):
                continue
            hi = self._h[i].get(mid)
            if hi is None:
                continue
            A += (1.0 if i == j else 2.0) * (hi @ hj)
        return A

    def trace_series(self, ns):
        """level -> Tr over that level of x_{n1}...x_{nk}; requires sum ns = 0."""
        assert sum(ns) == 0
        out = {}
        for lev in range(self.M + 1):
            mat = np.eye(self.dims[lev])
            cur = lev
            ok = True
            for n in reversed(ns):
                blk = self._x.get(n, {}).get(cur)
                if blk is None:
                    ok = False
                    break
                mat = blk @ mat
                cur -= n
            if ok and cur == lev:
                out[lev] = float(np.trace(mat))
        return out

    def corr(self, s, inslist, q):
        """F(x_0^s; insertions; tau) with inslist = [(z, dpow), ...].

        An insertion of L[-1]**k x is the k-th z-derivative of the plain
        vertex operator, i.e. mode weight (-2 pi i n)**k.  Insertions must be
        radially ordered (Im z increasing).
        """
        k = len(inslist)
        if k == 0:
            ser = self.trace_series([0] * s)
            return sum(c * q ** l for l, c in ser.items())
        zetas = [cmath.exp(TPI * z) for z, _ in inslist]
        dpows = [d for _, d in inslist]
        total = 0j
        for tail in itertools.product(range(-self.R, self.R + 1), repeat=k - 1):
            nlast = -sum(tail)
            if abs(nlast) > self.R:
                continue
            ns = list(tail) + [nlast]
            ser = self.trace_series([0] * s + ns)
            if not ser:
                continue
            val = sum(c * q ** l for l, c in ser.items())
            w = 1.0 + 0j
            for n, zeta, d in zip(ns, zetas, dpows):
                w *= zeta ** (-n) * (-TPI * n) ** d
            total += w * val
        return total

    def corr_symbol(self, sym, zmap, q):
        """Evaluate an engine CorrSymbol (weight-2 spec) as a trace."""
        for _, _, gen in sym.insertions:
            if gen != "x":
                raise ValueError(f"oracle cannot evaluate {sym!r}")
        ins = [(zmap[p], dpow) for p, dpow, _ in sym.insertions]
        return self.corr(len(sym.modes), ins, q)


def eval_expression(oracle, expr, zmap, tau):
    """An engine expression's value: each coefficient by numerics.poly_value at zmap."""
    q = cmath.exp(TPI * tau)
    total = 0j
    for sym, poly in expr.terms.items():
        total += nm.poly_value(poly, zmap, tau) * oracle.corr_symbol(sym, zmap, q)
    return total
