"""Acceptance criteria, one test per criterion.

Each criterion is checked by the verify suites that define it; a test runs
them, prints one pass/fail line with its runtime, names any failing case and
asserts the runtime budget.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import time

from torusmodes import verify

import suite_cases

# criterion -> (runtime budget in seconds, the suites whose cases define it)
CRITERIA = {
    "AC1 combinatorics exactness": (1.0, ("combinatorics",)),
    "AC2 formal series identities to q^30": (30.0, ("qseries-identities", "elliptic-formal")),
    "AC3 numeric transformation laws at q^60": (10.0, ("elliptic-numeric",)),
    # AC4 (recursion fixtures) and AC5 (anomaly fixtures) are cases of the same two suites
    "AC4/AC5 symbolic recursion and anomaly fixtures": (10.0, ("hha-weight1", "hha-weight2")),
    "AC6 lattice oracle": (10.0, ("lattice-oracle",)),
    "AC7 end-to-end numeric closure": (8.0, ("lattice-modular",)),
    "AC8 anomaly linear part is the pair contraction": (5.0, ("hha-contraction",)),
}


def _suites_pass(name):
    budget, suites = CRITERIA[name]
    t0 = time.perf_counter()
    failing = []
    for suite in suites:
        report = suite_cases.reports[suite] = verify.run_suite(suite)  # the stubs read it
        failing += [f"{suite}/{case['id']}" for case in report["cases"]
                    if case["status"] != "pass"]
    elapsed = time.perf_counter() - t0
    print(f"\n{name}: {'FAIL' if failing else 'PASS'} ({elapsed:.2f}s, budget {budget}s)")
    assert not failing, f"failing cases: {failing}"
    assert elapsed < budget, f"{name} exceeded runtime budget"


def test_ac1_combinatorics_exactness():
    _suites_pass("AC1 combinatorics exactness")


def test_ac2_formal_series_identities():
    _suites_pass("AC2 formal series identities to q^30")


def test_ac3_numeric_transformation_laws():
    _suites_pass("AC3 numeric transformation laws at q^60")


def test_ac4_symbolic_recursion_fixtures():
    _suites_pass("AC4/AC5 symbolic recursion and anomaly fixtures")


def test_ac6_lattice_oracle():
    _suites_pass("AC6 lattice oracle")


def test_ac7_end_to_end_numeric_closure():
    _suites_pass("AC7 end-to-end numeric closure")


def test_ac8_linear_part_is_the_pair_contraction():
    _suites_pass("AC8 anomaly linear part is the pair contraction")


def test_every_suite_has_an_acceptance_test():
    assert set().union(*(suites for _, suites in CRITERIA.values())) == set(verify.SUITES)
