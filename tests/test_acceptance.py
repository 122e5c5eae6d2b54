"""Acceptance criteria, one test per criterion.

Each criterion is checked by the verify suites that define it; a test runs
them, prints one pass/fail line with its runtime, names any failing case and
asserts the runtime budget.  AC3's four-gamma point set is checked directly,
because no suite uses it.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import time

from torusmodes import numerics as nm
from torusmodes import verify


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


def _suites_pass(name, budget, *suites):
    with _Timer(name, budget):
        failing = [f"{suite}/{case['id']}" for suite in suites
                   for case in verify.run_suite(suite)["cases"] if case["status"] != "pass"]
        assert not failing, f"failing cases: {failing}"


def test_ac1_combinatorics_exactness():
    _suites_pass("AC1 combinatorics exactness", 2.0, "combinatorics")


def test_ac2_formal_series_identities():
    _suites_pass("AC2 formal series identities to q^30", 30.0,
                 "qseries-identities", "elliptic-formal")


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
    # AC4 (recursion fixtures) and AC5 (anomaly fixtures) are cases of the
    # same two suites
    _suites_pass("AC4/AC5 symbolic recursion and anomaly fixtures", 10.0,
                 "hha-weight1", "hha-weight2")


def test_ac6_lattice_oracle():
    _suites_pass("AC6 lattice oracle", 10.0, "lattice-oracle")


def test_ac7_end_to_end_numeric_closure():
    _suites_pass("AC7 end-to-end numeric closure", 8.0, "lattice-modular")
