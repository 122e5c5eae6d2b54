import json

import pytest

from torusmodes import cli, hha, lattice


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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


def test_anomaly_custom_spec_pairing(capsys, tmp_path):
    from fractions import Fraction
    spec = hha.weight1_spec(pairing=Fraction(3, 2))
    path = tmp_path / "w1.json"
    path.write_text(json.dumps(spec.to_json()))
    code, out, _ = run(capsys, "anomaly", "--spec", str(path), "--correlator", "a0^2")
    assert code == 0
    assert json.loads(out) == {"k1": [["3/2", "F()"]]}


def test_anomaly_unknown_generator(capsys):
    code, out, err = run(capsys, "anomaly", "--spec", "weight1", "--correlator", "y0")
    assert code == 2 and out == ""
    assert err == "error: correlator references unknown generators ['y']\n"


def test_lattice_trace_negative_inputs(capsys):
    code, out, err = run(capsys, "lattice-trace", "--lattice", "a1", "--n", "-1")
    assert code == 2 and out == ""
    assert err == "error: --n must be >= 0\n"
    code, out, err = run(capsys, "lattice-trace", "--lattice", "e8", "--n", "1",
                         "--order", "-2")
    assert code == 2 and out == ""
    assert err == "error: max_norm_half must be >= 0\n"


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
])
def test_expand_malformed_input(capsys, argv, message):
    code, out, err = run(capsys, "expand", *argv)
    assert code == 2 and out == ""
    assert err == message + "\n"


def test_anomaly_beyond_tabulated_depth_is_unsupported(capsys):
    code, out, err = run(capsys, "anomaly", "--spec", "weight2", "--correlator", "x0^4")
    assert code == 3 and out == ""
    assert err == "unsupported: Delta g^2_4 is outside the tabulated depth-one set\n"


@pytest.mark.parametrize("command, engine_call, error", [
    ("reduce", "invert_to_full", hha.CancellationError("pi*i residual failed to cancel")),
    ("anomaly", "anomaly_of_zero_modes", hha.ResidueError("anomaly left z-dependence")),
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


_LAW_IDS = "expected Ptilde_1 | P_k (k>=2) | G_2k | g_1_j (g^1_j)"


@pytest.mark.parametrize("argv, code, message", [
    # unknown or malformed ids are usage errors
    (["--function", "nosuch"], 2, f"error: --function 'nosuch': unknown function id; {_LAW_IDS}"),
    (["--function", "G_x"], 2, f"error: --function 'G_x': unknown function id; {_LAW_IDS}"),
    (["--function", "P_x"], 2, f"error: --function 'P_x': unknown function id; {_LAW_IDS}"),
    # ids without a tabulated law are unsupported at every point
    (["--function", "P_1"], 3, "unsupported: P_1 is not in the tabulated set; use Ptilde_1"),
    (["--function", "g_2_4"], 3,
     "unsupported: Delta g^2_4 is outside the tabulated depth-one set"),
    (["--function", "g_2_4", "--z", "0.1+2.3i"], 3,
     "unsupported: Delta g^2_4 is outside the tabulated depth-one set"),
    # malformed points, orders and matrices name their flag
    (["--function", "P_3", "--tau", "1.2"], 2,
     "error: --tau '1.2' must have a positive imaginary part"),
    (["--function", "Ptilde_1", "--tau", "1.2"], 2,
     "error: --tau '1.2' must have a positive imaginary part"),
    (["--function", "P_3", "--tau=-1.2i"], 2,
     "error: --tau '-1.2i' must have a positive imaginary part"),
    (["--function", "P_3", "--order", "-3"], 2, "error: --order must be >= 0"),
    (["--function", "P_3", "--gamma", "a,b,c,d"], 2,
     "error: --gamma 'a,b,c,d' is not four comma-separated integers a,b,c,d"),
    (["--function", "P_3", "--gamma", "1,1,1,1"], 2, "error: --gamma '1,1,1,1' is not in SL(2,Z)"),
    (["--function", "P_3", "--z", "nan"], 2, "error: --z must be finite, got 'nan'"),
    (["--function", "P_3", "--z", "x"], 2, "error: --z cannot parse complex number 'x'"),
])
def test_transform_check_exit_table(capsys, argv, code, message):
    if "--gamma" not in argv:
        argv = argv + ["--gamma", "0,-1,1,0"]
    got, out, err = run(capsys, "transform-check", *argv)
    assert got == code and out == ""
    assert err == message + "\n"


def test_transform_check_depth_one_law(capsys):
    # z and gamma z both lie in the fundamental strip, where g^1_3 has layers
    code, out, _ = run(capsys, "transform-check", "--function", "g_1_3",
                       "--gamma", "0,-1,1,0", "--z=-0.5+0.5i", "--tau", "1.2i")
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "pass" and report["residual"] < 1e-14


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
