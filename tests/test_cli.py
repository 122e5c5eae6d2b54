import argparse
import contextlib
import importlib.util
import io
import json
import math
import os
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from torusmodes import cli, elliptic, hha, lattice, numerics, symbols, verify
from torusmodes import qseries as qs
from torusmodes.scaled import format_fraction

import suite_cases


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def canonical(out):
    """``out`` as ``json.dump(..., indent=2, sort_keys=True)`` prints it, with the final newline."""
    return json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


def src_env():
    """The environment of a child interpreter that imports this checkout's package."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}


def test_expand_eisenstein(capsys):
    code, out, _ = run(capsys, "expand", "--function", "G_4", "--order", "5")
    assert code == 0
    data = json.loads(out)
    assert data["coeffs"][0] == [[4, "1/720"]]
    assert data["truncation"] == 5


def test_expand_bivariate(capsys):
    code, out, _ = run(capsys, "expand", "--function", "P_2", "--order", "3")
    assert code == 0
    data = json.loads(out)
    assert data["tpi"] == 2
    layer0 = data["layers"][0]
    assert layer0["num"] == [[1, "1"]]
    assert layer0["den"] == [[0, "1"], [1, "-2"], [2, "1"]]


def test_expand_zero_series_keeps_its_grade(capsys):
    # g^1_3 to order 0 is the zero layer, printed at the grade 1 + 3 it was built with
    code, out, _ = run(capsys, "expand", "--function", "g_1_3", "--order", "0")
    assert code == 0
    data = json.loads(out)
    assert data["tpi"] == 4 and data["layers"] == [{"m": 0, "num": [], "den": [[0, "1"]]}]


def test_expand_unknown_function(capsys):
    code, out, err = run(capsys, "expand", "--function", "nosuch")
    assert code == 2
    assert "unknown function" in err


def test_expand_eta_and_wp(capsys):
    code, out, _ = run(capsys, "expand", "--function", "eta_-1", "--order", "4")
    assert code == 0
    assert json.loads(out)["offset"] == "-1/24"
    code, out, _ = run(capsys, "expand", "--function", "wp_2", "--order", "4")
    assert code == 0
    assert "z_coeffs" in json.loads(out)
    # --z-order -k, the leading z order of wp_k, is the lowest accepted
    code, out, _ = run(capsys, "expand", "--function", "wp_2", "--order", "0", "--z-order", "-2")
    assert code == 0
    assert list(json.loads(out)["z_coeffs"]) == ["-2"]


def test_anomaly_weight2(capsys):
    code, out, _ = run(capsys, "anomaly", "--spec", "weight2", "--correlator", "x0^2")
    assert code == 0
    assert json.loads(out) == {"k1": [["4", "F(x0^1)"]]}
    code, out, _ = run(capsys, "anomaly", "--spec", "weight2", "--correlator", "x0^3")
    assert json.loads(out) == {"k1": [["12", "F(x0^2)"]], "k2": [["24", "F(x0^1)"]]}


def test_reduce_weight1(capsys):
    code, out, _ = run(capsys, "reduce", "--spec", "weight1", "--correlator", "a0^2")
    assert code == 0
    data = json.loads(out)
    symbols = {e["symbol"] for e in data["full_correlator_expansion"]}
    assert "F((a,1),(a,2))" in symbols and "F()" in symbols


def test_reduce_with_spec_file(capsys, tmp_path):
    path = tmp_path / "w2.json"
    path.write_text(json.dumps(hha.weight2_spec().to_json()))
    code, out, _ = run(capsys, "reduce", "--spec", str(path), "--correlator", "x0^2")
    assert code == 0
    assert "F((x,1),(x,2))" in out


def test_repeated_reduce_shares_one_built_in_spec(capsys):
    # a built-in is built once per process, so a repeated query reads the memos
    # of the first and prints the same bytes
    first = run(capsys, "reduce", "--spec", "weight2", "--correlator", "x0^3")
    spec = cli._load("spec", "weight2")
    second = run(capsys, "reduce", "--spec", "weight2", "--correlator", "x0^3")
    assert first[0] == 0 and second == first
    assert cli._load("spec", "weight2") is spec and spec.shape_memo and spec.action_memo
    assert cli._load("lattice", "e8") is cli._load("lattice", "e8")


def test_repeated_lattice_trace_reads_its_closed_form_and_oracle(capsys, tmp_path):
    # the closed form and the oracle are made once per (lattice, n, order); a lattice
    # file read anew equals the built-in, so it reads the same entries
    path = tmp_path / "a1.json"
    path.write_text(json.dumps(lattice.a1().to_json()))
    argv = ["lattice-trace", "--n", "3", "--order", "5", "--oracle"]
    first = run(capsys, *argv, "--lattice", "a1")
    made = lattice.quasimod_rhs.cache_info().misses, lattice.fock_trace_oracle.cache_info().misses
    for name in ("a1", str(path)):
        code, out, err = run(capsys, *argv, "--lattice", name)
        assert (code, out.replace(name, "a1"), err) == first and code == 0
    assert (lattice.quasimod_rhs.cache_info().misses,
            lattice.fock_trace_oracle.cache_info().misses) == made


def test_rewritten_spec_file_is_read_again(capsys, tmp_path):
    path = tmp_path / "w1.json"
    for pairing, want in ((1, "1"), (Fraction(3, 2), "3/2")):
        path.write_text(json.dumps(hha.weight1_spec(pairing=pairing).to_json()))
        code, out, _ = run(capsys, "anomaly", "--spec", str(path), "--correlator", "a0^2")
        assert code == 0 and json.loads(out) == {"k1": [[want, "F()"]]}


def test_reduce_unknown_generator(capsys):
    code, _, err = run(capsys, "reduce", "--spec", "weight1", "--correlator", "q0^2")
    assert code == 2 and "unknown generators" in err


def test_lattice_trace(capsys, tmp_path):
    code, out, _ = run(capsys, "lattice-trace", "--lattice", "e8", "--n", "1",
                       "--order", "3", "--oracle")
    assert code == 0
    data = json.loads(out)
    assert data["equal"] is True
    path = tmp_path / "a1.json"
    path.write_text(json.dumps(lattice.a1().to_json()))
    code, out, _ = run(capsys, "lattice-trace", "--lattice", str(path), "--n", "0",
                       "--order", "3")
    assert code == 0


def test_transform_check(capsys):
    code, out, _ = run(capsys, "transform-check", "--function", "P_3",
                       "--gamma", "0,-1,1,0", "--z", "0.2+0.3i", "--tau", "1.1i")
    assert code == 0
    assert json.loads(out)["status"] == "pass"
    code, _, err = run(capsys, "transform-check", "--function", "P_3",
                       "--gamma", "1,1,1,1", "--z", "0.2i", "--tau", "1.1i")
    assert code == 2


def test_verify_suite_exit_code(capsys):
    code, out, _ = run(capsys, "verify-suite", "combinatorics")
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "pass"
    assert report["toolchain"]["package"] == "torusmodes"


def test_report_determinism(capsys):
    _, out1, _ = run(capsys, "verify-suite", "combinatorics")
    _, out2, _ = run(capsys, "verify-suite", "combinatorics")
    assert out1 == out2
    _, out1, _ = run(capsys, "expand", "--function", "g_1_3", "--order", "6")
    _, out2, _ = run(capsys, "expand", "--function", "g_1_3", "--order", "6")
    assert out1 == out2


def test_engine_report_ignores_earlier_calls():
    # the engine's process-wide caches (symbol sort keys, relabelling maps) are
    # filled in another order after an anomaly run, and the report must not show it
    script = ("import contextlib, io, sys\n"
              "from torusmodes import cli\n"
              "def run(*argv):\n"
              "    out = io.StringIO()\n"
              "    with contextlib.redirect_stdout(out):\n"
              "        assert cli.main(list(argv)) == 0\n"
              "    return out.getvalue()\n"
              "if sys.argv[1:]:\n"
              "    run('anomaly', '--spec', 'weight1', '--correlator', 'a0^6')\n"
              "sys.stdout.write(run('reduce', '--spec', 'weight2', '--correlator', 'x0^5'))\n")
    cold, warm = (subprocess.run([sys.executable, "-c", script, *argv], capture_output=True,
                                 text=True, env=src_env()) for argv in ([], ["warm"]))
    assert cold.returncode == warm.returncode == 0, cold.stderr + warm.stderr
    assert cold.stdout == warm.stdout and cold.stdout.startswith("{")


def test_transform_check_failure_exit_code(capsys):
    code, out, _ = run(capsys, "transform-check", "--function", "P_3",
                       "--gamma", "0,-1,1,0", "--z", "0.2+0.3i", "--tau", "1.1i",
                       "--tol", "1e-30")
    assert code == 1
    assert json.loads(out)["status"] == "fail"


def test_verify_suite_flag_passthrough(capsys):
    code, out, _ = run(capsys, "verify-suite", "lattice-oracle", "--order", "4")
    assert code == 0
    assert json.loads(out)["parameters"]["order"] == 4


@pytest.mark.parametrize("argv, message", [
    (["--tol", "nan"], "error: --tol must be finite and > 0, got nan"),
    (["--tol", "-1"], "error: --tol must be finite and > 0, got -1"),
    (["--tol", "inf"], "error: --tol must be finite and > 0, got inf"),
    (["--tol", "0"], "error: --tol must be finite and > 0, got 0"),
    (["--order", "-3"], "error: --order must be >= 0"),
])
def test_verify_suite_flag_checks(capsys, argv, message):
    code, out, err = run(capsys, "verify-suite", "elliptic-numeric", *argv)
    assert code == 2 and out == ""
    assert err == message + "\n"


def test_anomaly_custom_spec_pairing(capsys, tmp_path):
    from fractions import Fraction
    spec = hha.weight1_spec(pairing=Fraction(3, 2))
    path = tmp_path / "w1.json"
    path.write_text(json.dumps(spec.to_json()))
    code, out, _ = run(capsys, "anomaly", "--spec", str(path), "--correlator", "a0^2")
    assert code == 0
    assert json.loads(out) == {"k1": [["3/2", "F()"]]}


def test_anomaly_of_a_spec_file_prints_the_built_in_bytes(capsys, tmp_path):
    # the spec file's table is checked when it is read, and its N, like the
    # built-in's, comes from the pair contraction alone
    path = tmp_path / "w2.json"
    path.write_text(json.dumps(hha.weight2_spec().to_json()))
    for s in range(1, 8):
        assert run(capsys, "anomaly", "--spec", str(path), "--correlator", f"x0^{s}") == \
            run(capsys, "anomaly", "--spec", "weight2", "--correlator", f"x0^{s}"), s


def test_anomaly_unknown_generator(capsys):
    # the refusal names the flag and each unknown name once, in name order
    for command, spec, correlator, names in (
            ("anomaly", "weight1", "y0", "['y']"),
            ("reduce", "weight2", "y0^2", "['y']"),
            ("anomaly", "weight2", "y0 b0^2 x0 a0", "['a', 'b', 'y']")):
        code, out, err = run(capsys, command, "--spec", spec, "--correlator", correlator)
        assert code == 2 and out == ""
        assert err == f"error: --correlator references unknown generators {names}\n"


def test_lattice_trace_negative_inputs(capsys):
    code, out, err = run(capsys, "lattice-trace", "--lattice", "a1", "--n", "-1")
    assert code == 2 and out == ""
    assert err == "error: --n must be >= 0\n"
    code, out, err = run(capsys, "lattice-trace", "--lattice", "e8", "--n", "1",
                         "--order", "-2")
    assert code == 2 and out == ""
    assert err == "error: --order must be >= 0\n"


@pytest.mark.parametrize("n", [hha.MAX_ZERO_MODES + 1, 10 ** 8])
def test_lattice_trace_zero_mode_bound(capsys, n):
    # --n counts the zero modes of one trace, bounded as --correlator's are
    start = time.perf_counter()
    code, out, err = run(capsys, "lattice-trace", "--lattice", "a1", "--n", str(n))
    assert code == 2 and out == "" and time.perf_counter() - start < 1
    assert err == (f"error: --n {n} inserts {n} zero modes; "
                   f"at most {hha.MAX_ZERO_MODES} are supported\n")


@pytest.mark.parametrize("argv, message", [
    (["--function", "g_1"],
     "error: --function 'g_1' is not of the form g_i_j with integer indices"),
    (["--function", "g_1_2_3"],
     "error: --function 'g_1_2_3' is not of the form g_i_j with integer indices"),
    (["--function", "G_x"], "error: --function 'G_x' is not of the form G_2k with integer indices"),
    (["--function", "eta_x"],
     "error: --function 'eta_x' is not of the form eta_l with integer indices"),
    (["--function", "P_"], "error: --function 'P_' is not of the form P_k with integer indices"),
    (["--function", "P_2", "--order", "-1"], "error: --order must be >= 0"),
    (["--function", "wp_2", "--order", "0", "--z-order", "-3"],
     "error: --z-order -3 is below -2, the leading z order of wp_2"),
    (["--function", "wp_1", "--z-order", "-5"],
     "error: --z-order -5 is below -1, the leading z order of wp_1"),
    # an index out of the builder's range names the flag
    (["--function", "P_0"], "error: --function 'P_0': k must be >= 1"),
    (["--function", "g_0_0"], "error: --function 'g_0_0': j must be >= 1"),
    (["--function", "g_1_0"], "error: --function 'g_1_0': j must be >= 1"),
    (["--function", "G_0"], "error: --function 'G_0': weight must be a positive even integer"),
    (["--function", "G_3"], "error: --function 'G_3': weight must be a positive even integer"),
    (["--function", "wp_0"], "error: --function 'wp_0': k must be >= 1"),
    (["--function", "wp_-1"], "error: --function 'wp_-1': k must be >= 1"),
])
def test_expand_malformed_input(capsys, argv, message):
    code, out, err = run(capsys, "expand", *argv)
    assert code == 2 and out == ""
    assert err == message + "\n"


def test_expand_high_p_k(capsys):
    # P_500 needs the Eulerian row n = 499, built without recursion
    code, out, err = run(capsys, "expand", "--function", "P_500", "--order", "1")
    assert code == 0 and err == ""
    assert json.loads(out)["tpi"] == 500


def test_anomaly_weight2_beyond_depth_one(capsys):
    # the s = 4 inversion holds g^2_j, whose anomaly the derivation D gives
    code, out, err = run(capsys, "anomaly", "--spec", "weight2", "--correlator", "x0^4")
    assert code == 0 and err == ""
    assert json.loads(out) == {"k1": [["24", "F(x0^3)"]], "k2": [["144", "F(x0^2)"]],
                               "k3": [["192", "F(x0^1)"]]}


@pytest.mark.parametrize("command, engine_call, error", [
    ("reduce", "invert_to_full", hha.CancellationError("pi*i residual failed to cancel")),
    ("anomaly", "anomaly_of_zero_modes", hha.CancellationError("pi*i residual left over")),
    ("reduce", "invert_to_full", hha.WeightBookkeepingError("weight bookkeeping violated")),
])
def test_failed_engine_check_exits_1(capsys, monkeypatch, command, engine_call, error):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(hha, engine_call, fail)
    code, out, err = run(capsys, command, "--spec", "weight2", "--correlator", "x0^2")
    assert code == 1 and out == ""
    assert err == f"check failed: {error}\n"


@pytest.mark.parametrize("command", ["reduce", "anomaly"])
def test_correlator_size_guard(capsys, command):
    code, out, err = run(capsys, command, "--spec", "weight1", "--correlator", "a0^100000")
    assert code == 2 and out == ""
    assert err == ("error: --correlator 'a0^100000' has 100000 zero modes; "
                   f"at most {hha.MAX_ZERO_MODES} are supported\n")
    code, _, err = run(capsys, command, "--spec", "weight1",
                       "--correlator", f"a0 a0^{hha.MAX_ZERO_MODES}")
    assert code == 2 and "at most" in err
    code, _, _ = run(capsys, command, "--spec", "weight1", "--correlator", "a0^2")
    assert code == 0


_LAW_IDS = "expected Ptilde_1 | P_k (k>=2) | G_2k | g_i_j (g^i_j, j>i)"

# valid points and ids whose law's first value leaves the floating-point range
# (a later --gamma wins)
_OUT_OF_RANGE = [
    # G_2k's sum divides by (2k-1)!, which is no float past 2k = 170
    (["--function", "G_172"], 3, "unsupported: the Lambert sum of G_172 divides by 171!, "
                                 "which leaves the floating-point range"),
    # 2 pi Re z or 2 pi Re tau overflows in exp(2 pi i x)
    (["--function", "P_3", "--z", "1e308"], 3,
     "unsupported: exp(2*pi*i*z) at z=(1e+308+0j) leaves the floating-point range: "
     "|Re z| is too large for it"),
    (["--function", "P_3", "--tau", "1e308+1i", "--gamma", "1,1,0,1"], 3,
     "unsupported: exp(2*pi*i*tau) at tau=(1e+308+1j) leaves the floating-point range: "
     "|Re tau| is too large for it"),
]


@pytest.mark.parametrize("argv, code, message", [
    # unknown or malformed ids are usage errors
    (["--function", "nosuch"], 2, f"error: --function 'nosuch': unknown function id; {_LAW_IDS}"),
    (["--function", "G_x"], 2, f"error: --function 'G_x': unknown function id; {_LAW_IDS}"),
    (["--function", "P_x"], 2, f"error: --function 'P_x': unknown function id; {_LAW_IDS}"),
    # ids that the derivation D does not reach are unsupported at every point
    (["--function", "P_1"], 3, "unsupported: P_1 is not in the tabulated set; use Ptilde_1"),
    (["--function", "g_1_1"], 3,
     "unsupported: Delta g^1_1 lowers to g^0_0, which is not a symbol"),
    (["--function", "g_1_1", "--z", "0.1+2.3i"], 3,
     "unsupported: Delta g^1_1 lowers to g^0_0, which is not a symbol"),
    # malformed points, orders and matrices name their flag
    (["--function", "P_3", "--tau", "1.2"], 2,
     "error: --tau '1.2' must have a positive imaginary part"),
    (["--function", "Ptilde_1", "--tau", "1.2"], 2,
     "error: --tau '1.2' must have a positive imaginary part"),
    (["--function", "P_3", "--tau=-1.2i"], 2,
     "error: --tau '-1.2i' must have a positive imaginary part"),
    # a point on the lattice Z + tau Z is a pole, not a failed law
    (["--function", "P_2", "--z", "1e-13i"], 2,
     "error: --z '1e-13i' is at or too near a pole of P_2: z must stay off the lattice Z + tau Z"),
    (["--function", "P_3", "--gamma", "a,b,c,d"], 2,
     "error: --gamma 'a,b,c,d' is not four comma-separated integers a,b,c,d"),
    (["--function", "P_3", "--gamma", "1,1,1,1"], 2, "error: --gamma '1,1,1,1' is not in SL(2,Z)"),
    (["--function", "P_3", "--z", "nan"], 2, "error: --z must be finite, got 'nan'"),
    (["--function", "P_3", "--z", "x"], 2, "error: --z cannot parse complex number 'x'"),
    (["--function", "P_3", "--z", "0"], 2,
     "error: --z '0' is at or too near a pole of P_3: z must stay off the lattice Z + tau Z"),
    # a valid point whose Lambert sums need more terms than the cap
    (["--function", "P_4", "--tau", "0.0005i", "--z", "0.0001i"], 3,
     "unsupported: the Lambert sums at tau=0.0005j need more than 4000 terms; "
     "Im tau is too small for them"),
    # a tolerance that is not a finite positive number is a usage error, not a check
    (["--function", "P_2", "--tol", "-1"], 2, "error: --tol must be finite and > 0, got -1"),
    (["--function", "P_2", "--tol", "nan"], 2, "error: --tol must be finite and > 0, got nan"),
    (["--function", "P_2", "--tol", "inf"], 2, "error: --tol must be finite and > 0, got inf"),
    (["--function", "P_2", "--tol", "0"], 2, "error: --tol must be finite and > 0, got 0"),
    # a huge tau is refused naming tau: the law's factor overflows, or gamma tau has
    # so small an imaginary part that the Lambert sums cannot finish there
    (["--function", "G_12", "--tau", "1e30i"], 3,
     "unsupported: (c*tau + d)**12 at tau=1e+30j leaves the floating-point range: "
     "|tau| is too large for it"),
    (["--function", "P_9", "--tau", "1e30i"], 3,
     "unsupported: the Lambert sums at tau=9.999999999999999e-31j need more than 4000 terms; "
     "Im tau is too small for them"),
    # gamma is in SL(2,Z), but gamma tau's imaginary part cancels away in floating point
    (["--function", "P_2", "--gamma", "99999999999999999999,1,99999999999999999998,1"], 3,
     "unsupported: gamma tau = (1-9.25185853854297e-37j) at tau=1.2j loses its imaginary "
     "part in floating point: |c*tau + d| is too large for it"),
    *_OUT_OF_RANGE,
    # a side of the law overflows: G_170(0.01i) is about 1e340; g^2_4 at gamma z is
    # refused before the power of z in Delta g^2_4 that would overflow is expanded
    (["--function", "G_170", "--tau", "0.01i"], 3,
     "unsupported: the law of G_170 at z=(0.1+0.3j), tau=0.01j leaves the floating-point range"),
    (["--function", "g_2_4", "--z", "1e200+0.1i", "--gamma", "1,0,1,1"], 3,
     "unsupported: the Lambert sums of g^2_4 at z=(4.098360655737705e+199-4.918032786885246e+199j) "
     "leave the floating-point range: |Im z| is too large for them"),
])
def test_transform_check_exit_table(capsys, argv, code, message):
    if "--gamma" not in argv:
        argv = argv + ["--gamma", "0,-1,1,0"]
    got, out, err = run(capsys, "transform-check", *argv)
    assert got == code and out == ""
    assert err == message + "\n"


@pytest.mark.parametrize("argv, code, message", _OUT_OF_RANGE)
def test_transform_check_out_of_range_keeps_no_value(capsys, argv, code, message):
    # each of these is refused at the law's first value, which the memo does not keep
    numerics._symbol_value.cache_clear()
    got, _, err = run(capsys, "transform-check", "--gamma", "0,-1,1,0", *argv)
    assert (got, err) == (code, message + "\n")
    assert numerics._symbol_value.cache_info().currsize == 0


def test_a_law_out_of_range_is_refused_before_delta_f_is_expanded(capsys, monkeypatch):
    # a value of g^160_169 leaves the floating-point range in milliseconds, while
    # Delta g^160_169 takes seconds to expand: the refusal comes before the expansion;
    # in the second query f(z, tau) is in range and f(gamma z, gamma tau) is not
    expanded = []
    monkeypatch.setattr(numerics, "delta_of_symbol", expanded.append)
    for argv, message in [
            (["--gamma", "0,-1,1,0", "--z", "0.1"],
             "the law of g_160_169 at z=(0.1+0j), tau=1.2j leaves the floating-point range"),
            (["--gamma", "1,0,3,1", "--z", "0.1", "--tau", "2i"],
             "the Lambert sums of g^160_169 at z=(0.0027027027027027024-0.016216216216216217j) "
             "leave the floating-point range: |Im z| is too large for them")]:
        got, out, err = run(capsys, "transform-check", "--function", "g_160_169", *argv)
        assert (got, out, expanded) == (3, "", [])
        assert err == f"unsupported: {message}\n"


def _benchmark_transform_checks():
    """The transform-check queries of perfbench's CLI query grid, as argv lists."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [q.split() for q in workloads.candidate_queries() if q.startswith("transform-check")]


def test_transform_check_bytes_do_not_depend_on_the_memo(capsys):
    # every transform-check of the benchmark's grid, a depth-one law and a
    # signed-zero pair print the same bytes cold, in order and in reverse order
    head = ["transform-check", "--function", "P_3", "--gamma", "0,-1,1,0"]
    queries = _benchmark_transform_checks() + [
        ["transform-check", "--function", "g_1_3", "--gamma", "1,0,1,1"],
        head + ["--z=-0+0.25i"], head + ["--z=0+0.25i"]]

    def outputs(order, cold):
        numerics._symbol_value.cache_clear()
        got = {}
        for i in order:
            if cold:
                numerics._symbol_value.cache_clear()
            got[i] = run(capsys, *queries[i])
        return [got[i] for i in range(len(queries))]
    forward = range(len(queries))
    cold = outputs(forward, cold=True)
    assert all(code == 0 for code, _, _ in cold)
    assert outputs(forward, cold=False) == cold
    assert outputs(reversed(forward), cold=False) == cold
    assert numerics._symbol_value.cache_info().hits > 0


def test_transform_check_depth_one_law(capsys):
    # the depth-one law of g^1_3, z-tails included, holds to rounding
    code, out, _ = run(capsys, "transform-check", "--function", "g_1_3",
                       "--gamma", "0,-1,1,0", "--z=-0.5+0.5i", "--tau", "1.2i")
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "pass" and report["residual"] < 1e-14


@pytest.mark.parametrize("argv, message", [
    (["reduce", "--spec=--", "--correlator=x0^2"], "error: --spec expected one argument, got '--'"),
    (["expand", "--function=G_4", "--z-order=--"],
     "error: --z-order expected one argument, got '--'"),
])
def test_double_dash_value_is_a_usage_error(capsys, argv, message):
    # argparse reads --flag=-- as an empty list rather than as the string "--"
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == message + "\n"


@pytest.mark.parametrize("value, code, message", [
    (False, 3, 'unsupported: "commuting": false: the reduction of non-commuting zero modes '
               "to zero-mode correlators is not implemented"),
    ("no", 2, "error: \"commuting\" must be true or false, got 'no'"),
])
def test_noncommuting_spec_file_rejected_at_load(capsys, tmp_path, value, code, message):
    path = tmp_path / "w2.json"
    path.write_text(json.dumps({**hha.weight2_spec().to_json(), "commuting": value}))
    got, out, err = run(capsys, "reduce", "--spec", str(path), "--correlator", "x0^2")
    assert got == code and out == ""
    assert err == message + "\n"


def _sl2_entry(i, j, m, coeff, tpi, gen):
    return {"i": i, "j": j, "m": m, "out": [{"coeff": coeff, "tpi": tpi, "gen": gen}]}


# affine sl2 at level 1, graded as the built-ins: a vertex algebra whose zero modes do not commute
_SL2 = {"generators": [{"name": n, "weight": 1} for n in "efh"], "structure": [
    _sl2_entry(*entry) for entry in (
        ("e", "f", 0, "1", -1, "h"), ("f", "e", 0, "-1", -1, "h"), ("h", "e", 0, "2", -1, "e"),
        ("e", "h", 0, "-2", -1, "e"), ("h", "f", 0, "-2", -1, "f"), ("f", "h", 0, "2", -1, "f"),
        ("e", "f", 1, "1", -2, "1"), ("f", "e", 1, "1", -2, "1"), ("h", "h", 1, "2", -2, "1"))]}


def test_spec_file_whose_zero_modes_do_not_commute_is_unsupported(capsys, tmp_path):
    # [o(e), o(f)] = o(e[0]f) = o(h): the table passes the check, and the
    # engine cannot reduce its zero modes
    path = tmp_path / "sl2.json"
    path.write_text(json.dumps(_SL2))
    code, out, err = run(capsys, "anomaly", "--spec", str(path), "--correlator", "e0 f0")
    assert code == 3 and out == ""
    assert err == ("unsupported: e[0]f has a term without L[-1]: the zero modes of e and f "
                   "do not commute, which is not implemented\n")


def _too_low(suite, order, estimate, tol):
    return (f"error: --order {order} is too low for {suite}: the truncation estimate "
            f"{estimate} is above the tolerance {tol}; raise --order or pass a larger --tol")


@pytest.mark.parametrize("suite, argv, message", [
    # a truncation too short for the suite's tolerance is refused, not failed
    ("elliptic-numeric", ["--order", "0"], _too_low("elliptic-numeric", 0, "10", "1e-06")),
    ("elliptic-numeric", ["--order", "30"],
     _too_low("elliptic-numeric", 30, "1.14e-05", "1e-06")),
    ("elliptic-numeric", ["--tol", "1e-12"],
     _too_low("elliptic-numeric", 60, "1e-10", "1e-12")),
    ("lattice-modular", ["--order", "0"], _too_low("lattice-modular", 0, "inf", "1e-05")),
    ("lattice-modular", ["--order", "3"], _too_low("lattice-modular", 3, "0.0428", "1e-05")),
    ("lattice-modular", ["--order", "7"], _too_low("lattice-modular", 7, "1.99e-05", "1e-05")),
])
def test_verify_suite_truncation_table(capsys, suite, argv, message):
    code, out, err = run(capsys, "verify-suite", suite, *argv)
    assert code == 2 and out == ""
    assert err == message + "\n"


@pytest.mark.xfail(strict=True, reason="ROADMAP item 4: the elliptic-numeric truncation "
                   "estimate ignores the m^(k-1) growth of the P_k layers, so order 40 passes "
                   "it and modular_law_P_4 fails (exit 1)")
def test_elliptic_numeric_order_40_passes_or_is_refused(capsys):
    code, _, _ = run(capsys, "verify-suite", "elliptic-numeric", "--order", "40")
    assert code in (0, 2)


def test_suites_run_without_numpy():
    # the package needs only the standard library: with numpy unimportable, the
    # two suites that check polynomial structure numerically still pass
    script = ("import json, sys\n"
              "sys.modules['numpy'] = None\n"
              "from torusmodes import verify\n"
              "print(json.dumps({s: verify.run_suite(s)['status'] for s in sys.argv[1:]}))\n")
    done = subprocess.run([sys.executable, "-c", script, "elliptic-numeric", "lattice-modular"],
                          capture_output=True, text=True, env=src_env())
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {"elliptic-numeric": "pass", "lattice-modular": "pass"}


_W2 = hha.weight2_spec().to_json()
_ENTRY = _W2["structure"][1]  # x[1]x = 4/(2 pi i)^2 x


def _w2_with(**fields):
    """The weight2 spec document with only its x[1]x entry, some fields replaced."""
    return json.dumps({**_W2, "structure": [{**_ENTRY, **fields}]})


def _w2_weight(weight):
    return json.dumps({**_W2, "generators": [{"name": "x", "weight": "W"}]}).replace('"W"', weight)


def test_spec_file_with_a_grade_clash_names_its_tuple(capsys, tmp_path):
    # x[1]x at grade -3 beside x[0]x at grade -2: skew-symmetry at n = 0 sums
    # L[-1] x of both grades, so the table is refused at that tuple
    path = tmp_path / "w2.json"
    path.write_text(json.dumps({**_W2, "structure": [
        _W2["structure"][0], {**_ENTRY, "out": [{**_ENTRY["out"][0], "tpi": -3}]},
        _W2["structure"][2]]}))
    code, out, err = run(capsys, "reduce", "--spec", str(path), "--correlator", "x0^2")
    assert code == 2 and out == ""
    assert err == ("error: not a vertex algebra: skew-symmetry fails at (a, b, n) = "
                   "('x', 'x', 0): cannot add grades (2*pi*i)^-2 and (2*pi*i)^-3\n")


def test_spec_file_off_its_grades_is_refused(capsys, tmp_path):
    # x[3]x at grade -3 meets no other term in the table check's identities, but
    # it asks 2 g(x) = 1 of a rescaling x -> (2*pi*i)**g(x) x, where x[0]x and
    # x[1]x ask g(x) = 0
    central = _W2["structure"][2]
    path = tmp_path / "w2.json"
    path.write_text(json.dumps({**_W2, "structure": [
        *_W2["structure"][:2], {**central, "out": [{**central["out"][0], "tpi": -3}]}]}))
    assert run(capsys, "reduce", "--spec", str(path), "--correlator", "x0^2") == (
        2, "", "error: grades fit no rescaling of the generators: "
               "x[3]x -> (2*pi*i)^-3 L^0 1 contradicts earlier entries\n")


def test_high_weight_spec_file_is_checked_as_far_as_its_table_reaches(capsys, tmp_path):
    # one weight-2000 generator with an empty table: the check stops at the
    # table's largest mode, and no pair of zero modes contracts
    path = tmp_path / "v.json"
    path.write_text(json.dumps({"generators": [{"name": "v", "weight": "2000"}], "structure": []}))
    assert run(capsys, "anomaly", "--spec", str(path), "--correlator", "v0^2") == (0, "{}\n", "")


@pytest.mark.parametrize("command, text", [
    pytest.param("reduce", None, id="spec-directory"),
    pytest.param("lattice-trace", None, id="lattice-directory"),
    pytest.param("lattice-trace", "[" * 100000 + "]" * 100000, id="lattice-nested-too-deeply"),
    pytest.param("lattice-trace", '{"gram": 5}', id="gram-not-rows"),
    pytest.param("lattice-trace", "[1, 2]", id="lattice-not-object"),
    pytest.param("lattice-trace", '{"gram": [[2.7]]}', id="gram-float"),
    pytest.param("lattice-trace", '{"gram": []}', id="gram-empty"),
    pytest.param("lattice-trace", '{"rank": 3, "gram": [[2]]}', id="rank-not-gram-size"),
    pytest.param("lattice-trace", '{"rank": "x", "gram": [[2]]}', id="rank-not-int"),
    pytest.param("reduce", json.dumps({**_W2, "generators": 5}), id="generators-not-list"),
    pytest.param("reduce", "[1]", id="spec-not-object"),
    pytest.param("reduce", _w2_with(out=5), id="out-not-list"),
    pytest.param("reduce", _w2_weight("null"), id="weight-null"),
    pytest.param("reduce", _w2_weight("1e400"), id="weight-overflow"),
    pytest.param("reduce", _w2_with(m=1.9), id="m-float"),
    pytest.param("reduce", _w2_with(out=[{**_ENTRY["out"][0], "tpi": -2.7}]), id="tpi-float"),
    # x[2]x -> L[-1]^-1 x balances the weights, but an L-power is never negative
    pytest.param("reduce", _w2_with(m=2, out=[{**_ENTRY["out"][0], "dpow": -1}]),
                 id="dpow-negative"),
    pytest.param("reduce", json.dumps({**_W2, "structure": [_ENTRY, {**_ENTRY, "out": [
        {**_ENTRY["out"][0], "coeff": "5"}]}]}), id="structure-entry-twice"),
    pytest.param("reduce", json.dumps({**_W2, "generators": [
        {"name": "x", "weight": "5"}, {"name": "x", "weight": "2"}]}), id="generator-twice"),
    # x[1]x = 4 x alone breaks skew-symmetry, x[0]x = -x[0]x + L[-1] x[1]x: not an algebra
    pytest.param("reduce", _w2_with(), id="not-a-vertex-algebra"),
    pytest.param("reduce", json.dumps({**_W2, "identity": "e"}), id="identity-not-1"),
    # a[4]b = a is homogeneous, but a weight below 0 is refused before the table check
    pytest.param("reduce", json.dumps({
        "generators": [{"name": "a", "weight": "-1"}, {"name": "b", "weight": "5"}],
        "structure": [{"i": "a", "j": "b", "m": 4,
                       "out": [{"coeff": "1", "tpi": 0, "gen": "a", "dpow": 0}]}]}),
        id="weight-negative"),
])
def test_malformed_spec_and_lattice_files(capsys, tmp_path, command, text):
    # a bad input file is a usage error on one line: no traceback, no truncated read
    path = tmp_path / "input.json"
    if text is None:
        path.mkdir()
    else:
        path.write_text(text)
    flags = {"reduce": ["--spec", str(path), "--correlator", "x0^2"],
             "lattice-trace": ["--lattice", str(path), "--n", "0"]}[command]
    code, out, err = run(capsys, command, *flags)
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and err.endswith("\n"), err


_K = 10 ** 17 + 1  # ((2, 2k), (2k, 2k^2 + 2)) is A1 + A1 re-based by e_1 -> e_1 + k e_0


@pytest.mark.parametrize("gram, n, order, coeffs", [
    pytest.param([[2, 2 * _K], [2 * _K, 2 * _K ** 2 + 2]], 0, 3, ["1", "6", "17", "38"],
                 id="a1-a1-rebased"),
    pytest.param([[2 * 10 ** 400]], 1, 2, ["-1/12", "23/12", "47/6"], id="gram-beyond-float"),
])
def test_lattice_files_walked_exactly(capsys, tmp_path, gram, n, order, coeffs):
    # the walk's bounds are integers, so no entry is too large and no vector is missed
    path = tmp_path / "input.json"
    path.write_text(json.dumps({"gram": gram}))
    code, out, err = run(capsys, "lattice-trace", "--lattice", str(path), "--n", str(n),
                         "--order", str(order), "--oracle")
    assert code == 0 and err == ""
    data = json.loads(out)
    assert data["equal"] is True
    assert data["closed_form"]["coeffs"] == [[[0, c]] for c in coeffs]


@pytest.mark.parametrize("suite, flag, value", [
    ("hha-weight1", "--order", "3"), ("hha-weight2", "--seed", "1"),
    ("combinatorics", "--tol", "1e-3"), ("elliptic-formal", "--seed", "2"),
    ("lattice-oracle", "--tol", "1"), ("lattice-modular", "--seed", "3"),
])
def test_verify_suite_refuses_unread_flag(capsys, suite, flag, value):
    # a flag the suite does not read is a usage error, not silently ignored
    code, out, err = run(capsys, "verify-suite", suite, flag, value)
    assert code == 2 and out == ""
    assert err.startswith(f"error: suite {suite} does not read {flag}") and err.count("\n") == 1


def default_report(suite):
    """``suite``'s report at default flags, shared with ``suite_cases``."""
    if suite not in suite_cases.reports:
        suite_cases.reports[suite] = verify.run_suite(suite)
    return suite_cases.reports[suite]


def test_suite_that_raises_still_reports(capsys, monkeypatch):
    # the two anomaly checks fail with the exception; every other check still runs
    def fail(*args, **kwargs):
        raise hha.CancellationError("pi*i residual left over")

    ids = [case["id"] for case in default_report("hha-weight2")["cases"]]
    monkeypatch.setattr(hha, "anomaly_of_zero_modes", fail)
    report = verify.run_suite("hha-weight2")
    assert [case["id"] for case in report["cases"]] == ids and len(ids) == 7
    error = {"status": "fail", "error": "CancellationError: pi*i residual left over"}
    assert {case["id"]: case for case in report["cases"] if case["status"] != "pass"} == {
        cid: {"id": cid, **error} for cid in ("anomaly_s2_(1,4)", "anomaly_s3_(1,12,24)")}
    chi = [case for case in verify.run_suite("lattice-modular")["cases"]
           if case["id"] == "weight1_jacobi_law_chi"]
    assert [case["status"] for case in chi] == ["pass"]
    code, out, err = run(capsys, "verify-suite", "hha-weight2")
    assert code == 1 and err == ""
    assert json.loads(out) == report


def test_a_raise_in_suite_set_up_ends_the_suite(capsys, monkeypatch):
    # the sample points are set up before the truncation estimate and the first
    # check, so no check runs; the CLI prints that report and exits 1, a failed
    # check, not a usage error
    def fail(*args, **kwargs):
        raise ValueError("no sample points")

    monkeypatch.setattr(numerics, "sample_points", fail)
    report = verify.run_suite("elliptic-numeric")
    assert report["status"] == "fail"
    assert report["cases"] == [
        {"id": "error", "status": "fail", "error": "ValueError: no sample points"}]
    code, out, err = run(capsys, "verify-suite", "elliptic-numeric")
    assert code == 1 and err == ""
    assert json.loads(out) == report


@pytest.mark.parametrize("suite", sorted(verify.SUITES))
def test_case_ids_are_unique(suite):
    ids = [case["id"] for case in default_report(suite)["cases"]]
    assert len(ids) == len(set(ids)), ids


@pytest.mark.parametrize("argv", [
    pytest.param(["--function", "P_9"], id="P_9"),
    pytest.param(["--function", "P_4"], id="P_4"),
    # gamma z = z/tau leaves the fundamental strip
    pytest.param(["--function", "g_1_3"], id="g_1_3"),
    # Im tau = 0.002: |q| = 0.987, far beyond any layer truncation
    pytest.param(["--function", "P_4", "--tau", "0.01+0.002i", "--z", "0.001i"],
                 id="P_4-small-Im-tau"),
])
def test_transform_check_lambert_laws_pass(capsys, argv):
    # the law holds to the default tolerance 1e-10 wherever the Lambert sums reach
    code, out, err = run(capsys, "transform-check", "--gamma", "0,-1,1,0", *argv)
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["status"] == "pass" and report["tolerance"] == 1e-10


def _parse_outcome(parse, argv):
    """What ``parse(argv)`` gives: its namespace less ``command`` (as text, so that a NaN
    --tol compares equal), its refusal, or its exit."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            namespace = vars(parse(argv))
    except cli.UsageError as exc:
        return "refused", str(exc)
    except SystemExit as exc:
        return "exit", exc.code, out.getvalue()
    namespace.pop("command", None)
    return "parsed", repr(sorted(namespace.items()))


def assert_one_parse_is_the_two_level_parse(argv):
    assert _parse_outcome(cli._parse_args, argv) == \
        _parse_outcome(cli.build_parser().parse_args, argv), argv


# argv at the edges of the dispatch, by class
_EDGE_ARGV = {
    "no-command": [[], ["--"], ["--help"], ["-h"], ["-x"], ["--", "expand"], ["--order=3"]],
    "not-a-command-name": [["nosuch"], ["EXPAND"], ["exp"], [""], ["expand "]],
    "help-after-a-command": [["expand", "--help"], ["expand", "-h"], ["expand", "--he"],
                             ["reduce", "--spec", "weight2", "-h"]],
    "abbreviated-or-repeated-flag": [
        ["expand", "--func", "G_4"], ["expand", "--function", "G_4", "--function", "P_2"],
        ["lattice-trace", "--lattice", "a1", "--n", "1", "--n", "2", "--ora"],
        ["expand", "--function", "G_4", "--order", "2", "--order", "3"],
        ["lattice-trace", "--lattice", "a1", "--n", "1", "--oracle", "--oracle"]],
    "missing-or-empty-value": [["expand", "--function"], ["expand", "--function", ""]],
    "store-true-then-a-word": [
        ["lattice-trace", "--lattice", "a1", "--n", "1", "--oracle", "--order", "2"],
        ["lattice-trace", "--lattice", "a1", "--n", "1", "--oracle", "2"]],
    "value-like-a-flag": [
        ["expand", "--function=--"], ["expand", "--function", "--"],
        ["expand", "--function", "--order", "3"],
        ["expand", "--function", "G_4", "--order", "-1"],
        ["transform-check", "--function", "P_2", "--gamma", "0,-1,1,0", "--z", "-0.1+0.3i"],
        ["transform-check", "--function", "P_2", "--gamma", "0,-1,1,0", "--z=-0.1+0.3i"]],
    "double-dash-after-a-command": [
        ["expand", "--", "--function", "G_4"], ["expand", "--function", "G_4", "--"],
        ["verify-suite", "--", "combinatorics"]],
    "refused-by-the-command": [
        ["expand"], ["expand", "--order", "x", "--function", "G_4"],
        ["expand", "--function", "G_4", "-x"], ["verify-suite"], ["verify-suite", "nosuch"],
        ["lattice-trace", "--lattice", "a1", "--n", "1", "--axis", "3"]],
    "command-with-a-positional": [["verify-suite", "combinatorics", "--order", "2"]],
}


@pytest.mark.parametrize("argv", [pytest.param(argv, id=f"{kind}:{shlex.join(argv)}")
                                  for kind, argvs in _EDGE_ARGV.items() for argv in argvs])
def test_one_parse_is_the_two_level_parse_at_the_edges(argv):
    # main's parse gives what the parser tree gives: the namespace, refusal or exit
    assert_one_parse_is_the_two_level_parse(argv)


def test_parser_is_built_once(monkeypatch, capsys):
    # a well-formed query is read from _COMMANDS and builds no parser; the first argv
    # that needs argparse builds one parser tree, a parser and one subparser per
    # command, and that tree serves every later call
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    run(capsys, "expand", "--function", "G_4", "--order", "2")
    assert (built, cli.build_parser.cache_info().currsize) == ([], 0)
    run(capsys, "nosuch")
    tree = len(built)
    assert tree == 7
    for _ in range(4):
        run(capsys, "expand", "--function", "G_4", "--order", "2")
        run(capsys, "expand", "--order", "2")
        run(capsys, "nosuch")
    assert len(built) == tree


def test_only_an_argv_off_the_flag_table_enters_argparse(monkeypatch, capsys):
    # a well-formed query is read from _COMMANDS and enters no parser; any other argv
    # after a command enters that command's parser once, and the top-level parser
    # reads an argv only when its first word is not a command
    entered = []
    parse_known_args = cli._Parser.parse_known_args

    def spy(self, *args, **kwargs):
        entered.append(self)
        return parse_known_args(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "parse_known_args", spy)
    for argv in _VALID:
        run(capsys, *argv)
    assert entered == []
    for argv in [["expand", "--order", "3"], ["expand", "--help"], ["expand", "--function=G_4"],
                 ["expand", "--func", "G_4"], ["verify-suite", "--help"]]:
        entered.clear()
        run(capsys, *argv)
        assert entered == [cli.build_parser().commands[argv[0]]], argv
    for argv in [[], ["nosuch"], ["--help"]]:
        entered.clear()
        run(capsys, *argv)
        assert entered == [cli.build_parser()], argv


@pytest.mark.parametrize("argv", [[], ["--help"], ["expand", "--function", "G_4", "--order", "2"]],
                         ids=shlex.join)
def test_module_entry_point_parses_sys_argv(capsys, argv):
    # `python -m torusmodes.cli` calls main() with no argv, so main reads sys.argv
    done = subprocess.run([sys.executable, "-m", "torusmodes.cli", *argv], capture_output=True,
                          text=True, env=src_env(), timeout=60)
    if not argv:
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == "error: the following arguments are required: command\n"
    elif argv == ["--help"]:
        assert done.returncode == 0 and done.stderr == ""
        assert done.stdout.startswith("usage: torusmodes ")
    else:
        assert (done.returncode, done.stdout, done.stderr) == run(capsys, *argv)


_VALID = [
    ["expand", "--function", "G_4", "--order", "3"],
    ["expand", "--function", "wp_2", "--order", "2", "--z-order", "2"],
    ["expand", "--function", "wp_2", "--order", "2"],
    ["lattice-trace", "--lattice", "a1", "--n", "1", "--order", "2", "--oracle"],
    ["anomaly", "--spec", "weight1", "--correlator", "a0^2"],
    ["transform-check", "--function", "P_2", "--gamma", "0,-1,1,0", "--tol", "1e-30"],
]


@pytest.mark.parametrize("failing, code", [
    pytest.param(["expand", "--order", "3"], 2, id="usage-error"),
    pytest.param(["nosuch"], 2, id="unknown-subcommand"),
    pytest.param(["--help"], 0, id="help"),
    pytest.param(["expand", "--help"], 0, id="subcommand-help"),
    pytest.param(["expand", "--function", "nosuch"], 2, id="UsageError"),
])
def test_parser_reuse_after_failing_queries(capsys, failing, code):
    # a failed parse or a refused query leaves nothing behind for the next call
    before = [run(capsys, *argv)[:2] for argv in _VALID]
    assert run(capsys, *failing)[0] == code
    assert [run(capsys, *argv)[:2] for argv in _VALID] == before


@pytest.mark.parametrize("argv, message", [
    (["expand", "--order", "3"], "error: the following arguments are required: --function"),
    (["nosuch"], "error: argument command: invalid choice: 'nosuch' (choose from 'expand', "
                 "'verify-suite', 'reduce', 'anomaly', 'lattice-trace', 'transform-check')"),
    (["expand", "--function", "G_4", "--order", "x"],
     "error: argument --order: invalid int value: 'x'"),
    (["lattice-trace", "--lattice", "a1", "--n", "1", "--axis", "3"],
     "error: unrecognized arguments: --axis 3"),
])
def test_argparse_refusals_are_one_line(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == message + "\n"


@pytest.mark.parametrize("name", ["torusmodes", "expand", "verify-suite", "reduce", "anomaly",
                                  "lattice-trace", "transform-check"])
def test_help_texts_are_pinned(capsys, monkeypatch, name):
    # argparse wraps help to the width it reads from COLUMNS
    monkeypatch.setenv("COLUMNS", "80")
    argv = ["--help"] if name == "torusmodes" else [name, "--help"]
    expected = (Path(__file__).resolve().parent / "help" / f"{name}.txt").read_text()
    assert run(capsys, *argv) == (0, expected, "")


# -- random command lines -------------------------------------------------------
# A bounded grammar over the six subcommands: orders <= 8, zero-mode powers <= 4.
# Each flag is spelled --flag=value, which only argparse reads, or as the two words
# --flag value, which the command's flag table reads unless the value starts with
# "-" or fails its conversion.  Junk values reach the program's own parsing as
# well as argparse's (a non-integer --order).  argv that argparse
# refuses is drawn too: a missing required flag, an unknown subcommand and an
# unknown flag (--axis).  A drawn verify-suite line ends in a flag refused before its
# suite runs (argparse keeps the last of a repeated flag); the one suite that
# runs is combinatorics, as an explicit example.

_JUNK = ["", "junk", "-1", "nan", "1e400", "x0^", "--", "é"]


def _spelled(name, values):
    """The words of --name with a value drawn from ``values``: ["--name=value"] or
    ["--name", "value"], as often as each other."""
    return st.tuples(values, st.booleans()).map(
        lambda drawn: [f"--{name}", drawn[0]] if drawn[1] else [f"--{name}={drawn[0]}"])


_TOL = _spelled("tol", st.sampled_from(["nan", "0", "-1", "inf", "1e-3", "1e-10"]))


def _flag(name, *values):
    """--name with a value drawn from ``values`` or, as often as any of them, junk."""
    return _spelled(name, st.sampled_from([*values, *_JUNK]))


def _int_flag(name, lo, hi):
    return _spelled(name, st.integers(lo, hi).map(str))


def _command(name, *required, optional=()):
    flags = st.lists(st.one_of(*optional), max_size=3) if optional else st.just([])
    return st.tuples(*required, flags).map(
        lambda parts: [name, *(word for flag in (*parts[:-1], *parts[-1]) for word in flag)])


_VERIFY_SUITE = st.tuples(
    st.sampled_from(sorted(verify.SUITES)),
    st.lists(st.one_of(_int_flag("order", 0, 8), _int_flag("seed", 0, 9),
                       _TOL), max_size=2),
    st.one_of(_spelled("tol", st.sampled_from(["nan", "0", "-1"])),
              _spelled("order", st.just("-1"))),
).map(lambda parts: ["verify-suite", parts[0], *(word for flag in parts[1] for word in flag),
                     *parts[2]])


_FUNCTIONS = ([f"{name}_{k}" for name in ("G", "P", "wp", "eta") for k in range(-1, 9)]
              + [f"g_{i}_{j}" for i in range(-1, 4) for j in range(0, 9)] + ["Ptilde_1", "P~1"])
_CORRELATORS = [f"{gen}0^{k}" for gen in "axy" for k in range(5)] + [
    "a0 a0", "x0 * x0^2", "a0 x0", "x0 x0 x0 x0", "y0^4"]
_SPECS = ["weight1", "weight2"]

_ARGV = st.one_of(
    _command("expand", _flag("function", *_FUNCTIONS),
             optional=(_int_flag("order", -1, 8), _flag("order", "1.5"),
                       _int_flag("z-order", -3, 8))),
    _command("expand", optional=(_int_flag("order", -1, 8),)),  # no --function
    st.sampled_from(["nosuch", "", "--order=3", "lattice"]).map(lambda name: [name]),
    _VERIFY_SUITE,
    _command("reduce", _flag("spec", *_SPECS), _flag("correlator", *_CORRELATORS)),
    _command("anomaly", _flag("spec", *_SPECS), _flag("correlator", *_CORRELATORS)),
    # orders stop at 5 here: the E8 walk to order 8 alone takes about 0.4 s
    _command("lattice-trace", _flag("lattice", "a1", "e8"),
             st.one_of(_int_flag("n", -1, 4), _spelled("n", st.sampled_from(["17", str(10 ** 8)]))),
             optional=(_int_flag("order", -1, 5), _int_flag("axis", -1, 9),  # unknown flag
                       st.just(["--oracle"]))),
    _command("transform-check",
             _flag("function", "Ptilde_1", "P_1", "P_2", "P_4", "P_9", "G_2", "G_4", "g_1_1",
                   "g_1_3", "g_2_4", "g_3_5"),
             _flag("gamma", "0,-1,1,0", "1,1,0,1", "1,0,1,1", "2,1,1,1", "1,1,1,1", "0,-1,1"),
             optional=(_flag("z", "0.1+0.3i", "0.5+0.9i", "1e-13i", "0"),
                       _flag("tau", "1.2i", "0.5+0.9i", "0.01+0.002i", "1.2", "-1.2i", "inf"),
                       _TOL)))


@settings(max_examples=100)
@given(_ARGV)
@example(["verify-suite", "combinatorics", "--seed=3"])
def test_random_command_lines_end_in_a_known_exit_and_one_line(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2, 3), (argv, code)
    assert len(err.getvalue().splitlines()) <= 1 and "Traceback" not in err.getvalue(), \
        (argv, err.getvalue())
    if out.getvalue():
        assert out.getvalue() == canonical(out.getvalue()), argv


@settings(max_examples=300)
@given(_ARGV)
def test_one_parse_is_the_two_level_parse_on_random_command_lines(argv):
    assert_one_parse_is_the_two_level_parse(argv)


# -- the JSON writer --------------------------------------------------------------

def _readme_examples():
    """(argv, exit code) of each command in the README's CLI examples block.

    A command exits 0 unless the comment line just above it says "# -> exit N".
    """
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI examples", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    examples, code = [], 0
    for line in block.splitlines():
        if line.startswith("# -> exit "):
            code = int(line.split()[3].rstrip(","))
        elif line.startswith("torusmodes "):
            examples.append(pytest.param(shlex.split(line)[1:], code, id=line[len("torusmodes "):]))
            code = 0
    if not examples:
        raise ValueError("README.md has no torusmodes command under '## CLI examples'")
    return examples


@pytest.mark.parametrize("argv, code", _readme_examples())
def test_readme_examples(capsys, argv, code):
    # each example exits as documented and prints what json.dump(indent=2, sort_keys=True) prints
    got, out, err = run(capsys, *argv)
    assert got == code, err
    if code == 0:
        assert out == canonical(out) and err == ""
    else:
        assert out == "" and len(err.splitlines()) == 1


_STRINGS = st.text() | st.text(st.sampled_from(['"', "\\", "/", "\x00", "\x1f", "\x7f", "\u2028",
                                                 "é", "\U0001f600", "a"]))
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-10 ** 40, 10 ** 40),
    st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e-300]), _STRINGS)
_JSON_VALUES = st.recursive(_SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
    st.dictionaries(_STRINGS, inner, max_size=4),
    st.dictionaries(st.integers(), inner, max_size=3)), max_leaves=40)


@given(_JSON_VALUES)
def test_writer_prints_what_json_dump_prints(value):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit(value)
    assert out.getvalue() == json.dumps(value, indent=2, sort_keys=True) + "\n"


def _streamed(write_value):
    """The writes of ``write_value(write)``, and their text."""
    writes = []
    write_value(writes.append)
    return writes, "".join(writes)


def test_writer_streams_every_container_item_by_item():
    # a P_k report nests its longest coefficients four levels deep (layers, a layer,
    # its numerator, one term); no write holds more than one line of the text and
    # the comma and line break before it, so no container's text is built whole
    value = _layers_reference(elliptic.p_expansion(300, 1))
    writes, text = _streamed(partial(cli._write_json, value))
    assert text == json.dumps(value, indent=2, sort_keys=True)
    assert max(map(len, writes)) <= len(",\n") + max(map(len, text.splitlines())) < len(text) // 100


def test_layer_writer_streams_coefficient_by_coefficient():
    # the same bound for the writer that reads the layers straight from the series
    series = elliptic.p_expansion(300, 1)
    writes, text = _streamed(partial(cli._write_layers, series, indent=""))
    assert text == json.dumps(_layers_reference(series), indent=2, sort_keys=True)
    assert max(map(len, writes)) <= len(",\n") + max(map(len, text.splitlines())) < len(text) // 100


def _series_reference(series):
    """The report of a q-series as a dict, as ``QExpansion.to_json`` built it."""
    return {"offset": format_fraction(series.offset), "lower": 0,
            "truncation": series.truncation,
            "coeffs": [[[series.tpi, format_fraction(c)]] if c else [] for c in series.coeffs]}


def _pairs_reference(coeffs):
    return [[e, format_fraction(c)] for e, c in sorted(coeffs.items())]


def _layers_reference(series):
    """The report of a layered expansion as a dict, as ``BivariateExpansion.to_json``
    built it: layer m is N/(1-zeta)**k printed as (-1)**k N over (zeta-1)**k."""
    return {"tpi": series.tpi, "truncation": series.truncation, "layers": [
        {"m": m, "num": _pairs_reference({e: (-1) ** r.k * c for e, c in r.num.coeffs.items()}),
         "den": _pairs_reference({e: math.comb(r.k, e) * (-1) ** (r.k - e) for e in range(r.k + 1)})}
        for m, r in enumerate(series.coeffs)]}


_SERIES = {
    "G_2-order-3": qs.eisenstein(2, 3), "G_4-order-0": qs.eisenstein(4, 0),
    "eta_-1": qs.eta_power(-1, 3), "eta_1-zeros": qs.eta_power(1, 12),
    "eta_5-order-0": qs.eta_power(5, 0), "zero": qs.QExpansion.zero(2),
    "hand-built": qs.QExpansion(Fraction(-7, 3), [0, Fraction(-1, 2), 3, 0], -2),
    "theta_moment": lattice.theta_moment(lattice.e8(), 2, 3),
}
_LAYERED = {
    "P_1": elliptic.p_expansion(1, 3), "P~_1": elliptic.p_tilde_1(3),
    "P_1-order-0": elliptic.p_expansion(1, 0), "P~_1-order-0": elliptic.p_tilde_1(0),
    "P_2": elliptic.p_expansion(2, 4), "P_5": elliptic.p_expansion(5, 2),
    "g^1_3": elliptic.g_expansion(1, 3, 4), "g^2_2": elliptic.g_expansion(2, 2, 4),
    "g^3_1": elliptic.g_expansion(3, 1, 3), "g^1_3-order-0": elliptic.g_expansion(1, 3, 0),
    "sum": elliptic.p_expansion(2, 3) + elliptic.p_expansion(2, 3).zeta_derivative(),
    "negated": -elliptic.p_expansion(3, 2),
}


@pytest.mark.parametrize("indent", ["", "    "])
@pytest.mark.parametrize("writer, reference, series", [
    *(pytest.param(cli._write_series, _series_reference, s, id=name)
      for name, s in _SERIES.items()),
    *(pytest.param(cli._write_layers, _layers_reference, s, id=name)
      for name, s in _LAYERED.items())])
def test_series_writers_print_the_reference_structure(writer, reference, series, indent):
    out = io.StringIO()
    writer(series, out.write, indent)
    want = json.dumps(reference(series), indent=2, sort_keys=True)
    assert out.getvalue() == want.replace("\n", "\n" + indent)


@pytest.mark.parametrize("argv, reference", [
    (["expand", "--function", "wp_3", "--order", "4"], lambda: {"z_coeffs": {
        str(e): _series_reference(s) for e, s in elliptic.wp_laurent(3, 8, 4).items()}}),
    (["expand", "--function", "wp_2", "--order", "0", "--z-order", "-2"], lambda: {"z_coeffs": {
        "-2": _series_reference(qs.QExpansion.one(0))}}),
    (["lattice-trace", "--lattice", "a1", "--n", "2", "--order", "3", "--oracle"], lambda: {
        "lattice": "a1", "n": 2, "order": 3, "axis": 0, "equal": True,
        "closed_form": _series_reference(lattice.quasimod_rhs(lattice.a1(), 2, 3)),
        "oracle": _series_reference(lattice.fock_trace_oracle(lattice.a1(), 2, 3))}),
    (["lattice-trace", "--lattice", "e8", "--n", "1", "--order", "2"], lambda: {
        "lattice": "e8", "n": 1, "order": 2, "axis": 0,
        "closed_form": _series_reference(lattice.quasimod_rhs(lattice.e8(), 1, 2))}),
], ids=["wp_3", "wp_2-pole-only", "lattice-trace-oracle", "lattice-trace"])
def test_reports_with_series_print_the_reference_structure(capsys, argv, reference):
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    assert out == json.dumps(reference(), indent=2, sort_keys=True) + "\n"


def _expansion_reference(expr):
    """The structure ``reduce`` prints as its expansion, built as whole lists and dicts."""
    return [{"symbol": repr(sym),
             "coeff": [{"monomial": [[symbols.sym_str(s), e] for s, e in mono],
                        "coeff": c.to_pairs()} for mono, c in poly.sorted_terms()]}
            for sym, poly in expr.sorted_terms()]


def _hand_built_expressions():
    x1, x2 = hha.CorrSymbol((), ((1, 0, "x"),)), hha.CorrSymbol((), ((1, 0, "x"), (2, 1, "x")))
    odd = hha.CorrSymbol(("x",), ((3, 0, 'q"\u00e9'),))  # a name JSON must escape
    poly = (symbols.ONE                                        # constant monomial
            + symbols.P(2, 2, 1) * symbols.P(2, 2, 1) * 3      # exponent 2
            - symbols.zvar(1) * symbols.B(2) * Fraction(5, 7)  # negative Fraction coefficient
            + symbols.PI_MARK * symbols.Pt(3, 1))              # piRes, grade 1, value 1/2
    return [
        pytest.param(hha.CorrExpression(), id="zero"),
        pytest.param(hha.CorrExpression.single(x1), id="one-term"),
        pytest.param(hha.CorrExpression({x1: poly, x2: -poly * symbols.G(4), odd: poly}),
                     id="mixed"),
    ]


@pytest.mark.parametrize("expr", [
    *(pytest.param(hha.invert_to_full(hha.weight2_spec(), ("x",) * s), id=f"weight2-x^{s}")
      for s in range(1, 6)),
    *(pytest.param(hha.invert_to_full(hha.weight1_spec(), ("a",) * s), id=f"weight1-a^{s}")
      for s in range(1, 8)),
    *_hand_built_expressions()])
def test_expansion_writer_prints_the_reference_structure(expr):
    # the expansion sits one level inside the report object
    out = io.StringIO()
    cli._write_expansion(expr, out.write, "  ")
    reference = json.dumps(_expansion_reference(expr), indent=2, sort_keys=True)
    assert out.getvalue() == reference.replace("\n", "\n  ")


def test_reader_closing_the_pipe_ends_the_output_not_the_command():
    # `torusmodes reduce ... | head -n 1`: the 287 kB report overfills the pipe, so the
    # writer meets the closed pipe, and the command still exits 0 with nothing on stderr
    argv = [sys.executable, "-m", "torusmodes.cli",
            "reduce", "--spec", "weight2", "--correlator", "x0^5"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=src_env()) as proc:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        assert proc.wait(timeout=120) == 0
        assert proc.stderr.read() == b""
