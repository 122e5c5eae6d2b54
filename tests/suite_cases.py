"""Unit tests of a paper identity name the verify-suite case that defines it.

``assert_case(suite, case_id)`` reads one report per suite per session, taken
at default flags through ``verify.run_suite``; an acceptance test that runs a
suite stores its report in ``reports``, so a full session runs each suite once.
"""

from torusmodes import verify

reports = {}


def assert_case(suite, case_id):
    """Fail with the case's detail unless ``suite``'s case ``case_id`` passes."""
    if suite not in reports:
        reports[suite] = verify.run_suite(suite)
    cases = {case["id"]: case for case in reports[suite]["cases"]}
    assert case_id in cases, f"{suite} has no case {case_id!r}; it has {sorted(cases)}"
    assert cases[case_id]["status"] == "pass", f"{suite}/{case_id} failed: {cases[case_id]}"
