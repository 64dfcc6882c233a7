"""End-to-end tests of the command line interface."""

import json
import math
import subprocess
import sys

import pytest

from bcorlicz.cli import main


def write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def bc(b1, b2):
    return {"idempotent": {"b1": [b1.real, b1.imag], "b2": [b2.real, b2.imag]}}


@pytest.fixture
def files(tmp_path):
    return {
        "e": write(tmp_path / "e.json", bc(1 + 0j, 0j)),
        "edag": write(tmp_path / "edag.json", bc(0j, 1 + 0j)),
        "one_atom": write(tmp_path / "one_atom.json", {"weights": [1.0]}),
        "f": write(tmp_path / "f.json", [bc(3 + 0j, 4 + 0j)]),
        "counting": write(
            tmp_path / "counting.json", {"weights_rule": "counting", "n_max": 10 ** 5}
        ),
        "shift": write(tmp_path / "shift.json", {"map_rule": "right_shift"}),
        "tmp": tmp_path,
    }


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 0, err
    return json.loads(out)


def result_value(report, name):
    hits = [r["value"] for r in report["results"] if r["name"] == name]
    assert hits, f"no result named {name!r} in {report['results']}"
    return hits[0]


# ------------------------------------------------------- documented examples


def test_example_idempotent_product_is_zero(capsys, files):
    report = run_json(
        capsys, ["bc", "eval", "--op", "mul", "--lhs", files["e"], "--rhs", files["edag"]]
    )
    assert report["status"] == "ok"
    product = result_value(report, "product")
    assert product["idempotent"]["b1"] == [0.0, 0.0]
    assert product["idempotent"]["b2"] == [0.0, 0.0]
    assert product["cartesian"]["z1"] == [0.0, 0.0]


def test_example_norm_of_three_four(capsys, files):
    code, out, err = run_cli(
        capsys,
        [
            "norm",
            "--phi",
            "power:p=2",
            "--space",
            files["one_atom"],
            "--seq",
            files["f"],
        ],
    )
    assert code == 0
    assert "3.53553" in out
    report = json.loads(out)
    assert abs(result_value(report, "norm") - 5.0 / math.sqrt(2.0)) < 1e-9
    assert result_value(report, "luxemburg_norm_component_1") == pytest.approx(3.0)
    assert result_value(report, "luxemburg_norm_component_2") == pytest.approx(4.0)


def test_example_right_shift_check(capsys, files):
    report = run_json(
        capsys,
        [
            "op",
            "check",
            "--kind",
            "composition",
            "--map",
            files["shift"],
            "--space",
            files["counting"],
            "--phi",
            "power:p=2",
        ],
    )
    verdict = result_value(report, "boundedness")
    assert verdict["verdict"] == "bounded"
    assert verdict["bound"] == 1.0
    assert report["verdicts"]["boundedness"] == "bounded"


def test_documented_examples_are_deterministic(capsys, files):
    commands = [
        ["bc", "eval", "--op", "mul", "--lhs", files["e"], "--rhs", files["edag"]],
        ["norm", "--phi", "power:p=2", "--space", files["one_atom"], "--seq", files["f"]],
        [
            "op",
            "check",
            "--kind",
            "composition",
            "--map",
            files["shift"],
            "--space",
            files["counting"],
            "--phi",
            "power:p=2",
        ],
    ]
    for argv in commands:
        code1, out1, _ = run_cli(capsys, argv)
        code2, out2, _ = run_cli(capsys, argv)
        assert code1 == code2 == 0
        assert out1 == out2


# ------------------------------------------------------------ other commands


def test_bc_eval_add_sub(capsys, files):
    report = run_json(
        capsys, ["bc", "eval", "--op", "add", "--lhs", files["e"], "--rhs", files["edag"]]
    )
    assert result_value(report, "sum")["idempotent"] == {"b1": [1.0, 0.0], "b2": [1.0, 0.0]}
    report = run_json(
        capsys, ["bc", "eval", "--op", "sub", "--lhs", files["e"], "--rhs", files["e"]]
    )
    assert result_value(report, "difference")["idempotent"]["b1"] == [0.0, 0.0]


def test_bc_eval_conjugations(capsys, files):
    report = run_json(capsys, ["bc", "eval", "--op", "dagger", "--lhs", files["e"]])
    assert result_value(report, "conjugate")["idempotent"]["b1"] == [0.0, 0.0]


def test_bc_eval_classify(capsys, files):
    report = run_json(capsys, ["bc", "eval", "--op", "classify", "--lhs", files["e"]])
    diagnosis = result_value(report, "classification")
    assert diagnosis["kind"] == "zero_divisor"
    assert diagnosis["vanishing"] == [2]


def test_bc_eval_invert_certificate(capsys, files):
    code, out, err = run_cli(capsys, ["bc", "eval", "--op", "invert", "--lhs", files["e"]])
    assert code == 0  # without --strict a certificate is an ordinary answer
    report = json.loads(out)
    assert report["status"] == "error_certificate"
    cert = result_value(report, "error_certificate")
    assert cert["error"] == "not_invertible"
    assert cert["classification"]["vanishing"] == [2]


def test_bc_eval_invert_strict_exits_2(capsys, files):
    code, out, _ = run_cli(
        capsys, ["bc", "eval", "--op", "invert", "--lhs", files["e"], "--strict"]
    )
    assert code == 2
    assert json.loads(out)["status"] == "error_certificate"


def test_bc_eval_invert_success(capsys, files, tmp_path):
    two = write(tmp_path / "two.json", bc(2 + 0j, 4 + 0j))
    report = run_json(capsys, ["bc", "eval", "--op", "invert", "--lhs", two])
    inv = result_value(report, "inverse")
    assert inv["idempotent"] == {"b1": [0.5, 0.0], "b2": [0.25, 0.0]}


def test_bc_eval_roots(capsys, tmp_path):
    coeffs = write(tmp_path / "coeffs.json", [bc(-1, -1), bc(0, 0), bc(1, 1)])
    report = run_json(capsys, ["bc", "eval", "--op", "roots", "--coeffs", coeffs])
    roots = result_value(report, "roots")
    assert len(roots) == 4
    assert result_value(report, "residual_bound") < 1e-10
    b1s = sorted(r["idempotent"]["b1"][0] for r in roots)
    assert b1s == pytest.approx([-1.0, -1.0, 1.0, 1.0])


def test_op_apply_right_shift(capsys, files, tmp_path):
    seq = write(tmp_path / "seq.json", [bc(1, 5), bc(2, 6), bc(3, 7)])
    space = write(tmp_path / "sp3.json", {"weights": [1.0, 1.0, 1.0]})
    op = write(tmp_path / "op.json", {"right_shift": {}})
    report = run_json(
        capsys, ["op", "apply", "--operator", op, "--space", space, "--seq", seq]
    )
    image = result_value(report, "image_sequence")
    got = [v["idempotent"]["b1"][0] for v in image]
    assert got == [0.0, 1.0, 2.0]


def test_op_check_geometric_above_one_is_bounded(capsys, files, tmp_path):
    # the weights 2^(n-1) overflow past atom 1024; every ratio is still 2
    space = write(tmp_path / "geo.json", {"weights_rule": "geometric:2.0", "n_max": 5000})
    code, out, err = run_cli(
        capsys,
        ["op", "check", "--kind", "composition", "--map", files["shift"],
         "--space", space, "--phi", "power:p=2"],
    )
    assert code == 0, err
    assert "nan" not in out
    verdict = result_value(json.loads(out), "boundedness")
    assert verdict["verdict"] == "bounded"
    assert verdict["bound"] == 2.0


def test_op_check_multiplication(capsys, files, tmp_path):
    theta = write(tmp_path / "theta.json", [bc(2, 1), bc(1, 3)])
    space = write(tmp_path / "sp2.json", {"weights": [1.0, 1.0]})
    report = run_json(
        capsys,
        [
            "op",
            "check",
            "--kind",
            "multiplication",
            "--theta",
            theta,
            "--space",
            space,
            "--phi",
            "power:p=2",
        ],
    )
    verdict = result_value(report, "boundedness")
    assert verdict["verdict"] == "bounded"
    assert verdict["ess_sups"] == [2.0, 3.0]


def test_phi_classify_reports_probe_fields(capsys):
    report = run_json(capsys, ["phi", "classify", "--phi", "power:p=2"])
    probe = result_value(report, "phi_report")
    assert probe["convexity_ok"] is True
    assert probe["n_function"]["limit0_ok"] is True
    assert probe["delta2"]["K_estimate"] == 4.0
    assert probe["delta2"]["holds_on_grid"] is True


def test_phi_classify_exp_serializes_infinite_doubling(capsys):
    report = run_json(capsys, ["phi", "classify", "--phi", "exp"])
    probe = result_value(report, "phi_report")
    assert probe["delta2"]["K_estimate"] == "inf"
    assert probe["delta2"]["holds_on_grid"] is False


def test_schauder_command(capsys, tmp_path):
    seq = write(tmp_path / "seq.json", [bc(3, 0), bc(4, 0)])
    space = write(tmp_path / "sp2.json", {"weights": [1.0, 1.0]})
    report = run_json(
        capsys, ["schauder", "--seq", seq, "--space", space, "--p", "2", "--n", "1"]
    )
    # tail beyond index 1 holds only |4|: sqrt(16)/sqrt(2)
    assert result_value(report, "tail_norm") == pytest.approx(4.0 / math.sqrt(2.0))


def test_pairing_command(capsys, tmp_path):
    x = write(tmp_path / "x.json", [bc(1, 2)])
    y = write(tmp_path / "y.json", [bc(3, 5)])
    space = write(tmp_path / "sp1.json", {"weights": [2.0]})
    report = run_json(capsys, ["pairing", "--x", x, "--y", y, "--space", space])
    val = result_value(report, "pairing")
    assert val["idempotent"] == {"b1": [6.0, 0.0], "b2": [20.0, 0.0]}


def test_pairing_command_sums_an_array_to_its_last_entry(capsys, tmp_path):
    x = write(tmp_path / "x.json", [bc(0j, 0j)] * 3000 + [bc(1, 1)])
    y = write(tmp_path / "y.json", [bc(1, 1)] * 3001)
    space = write(tmp_path / "c.json", {"weights_rule": "counting", "n_max": 10**6})
    report = run_json(capsys, ["pairing", "--x", x, "--y", y, "--space", space])
    assert result_value(report, "pairing")["idempotent"] == {"b1": [1.0, 0.0], "b2": [1.0, 0.0]}
    assert report["warnings"] == []


def test_text_format(capsys, files):
    code, out, _ = run_cli(
        capsys,
        [
            "bc",
            "eval",
            "--op",
            "mul",
            "--lhs",
            files["e"],
            "--rhs",
            files["edag"],
            "--format",
            "text",
        ],
    )
    assert code == 0
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)
    assert "product" in out
    assert "status" in out


# ------------------------------------------------------------ error handling


def test_missing_file_exits_1(capsys, files):
    code, out, err = run_cli(
        capsys, ["bc", "eval", "--op", "mul", "--lhs", "/no/such.json", "--rhs", files["e"]]
    )
    assert code == 1
    assert out == ""
    assert "error" in err and "/no/such.json" in err


def test_malformed_json_exits_1(capsys, files, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(
        capsys, ["bc", "eval", "--op", "mul", "--lhs", str(bad), "--rhs", files["e"]]
    )
    assert code == 1
    assert "bad.json" in err


def test_unknown_phi_exits_1(capsys, files):
    code, _, err = run_cli(
        capsys, ["norm", "--phi", "gauss", "--space", files["one_atom"], "--seq", files["f"]]
    )
    assert code == 1
    assert "gauss" in err


def test_usage_error_exits_1(capsys, files):
    # composition check without --map is a usage problem, not a crash
    code, _, err = run_cli(
        capsys,
        [
            "op",
            "check",
            "--kind",
            "composition",
            "--space",
            files["counting"],
            "--phi",
            "power:p=2",
        ],
    )
    assert code == 1
    assert "--map" in err
    # argparse-level misuse also exits 1
    code, _, err = run_cli(capsys, ["bc", "eval", "--op", "blend"])
    assert code == 1


def assert_one_error_line(code, out, err, *needles):
    assert code == 1 and out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err
    for needle in needles:
        assert needle in lines[0]


def test_non_numeric_weight_exits_1(capsys, files, tmp_path):
    space = write(tmp_path / "space.json", {"weights": [1, "a"]})
    code, out, err = run_cli(
        capsys, ["norm", "--phi", "power:p=2", "--space", space, "--seq", files["f"]]
    )
    assert_one_error_line(code, out, err, "weights[1]")


def test_boolean_weight_exits_1(capsys, files, tmp_path):
    space = write(tmp_path / "space.json", {"weights": [True]})
    code, out, err = run_cli(
        capsys, ["norm", "--phi", "power:p=2", "--space", space, "--seq", files["f"]]
    )
    assert_one_error_line(code, out, err, "weights[0]")


def test_non_numeric_map_entry_exits_1(capsys, files, tmp_path):
    imap = write(tmp_path / "map.json", {"map": ["x"]})
    code, out, err = run_cli(
        capsys,
        ["op", "check", "--kind", "composition", "--map", imap,
         "--space", files["one_atom"], "--phi", "power:p=2"],
    )
    assert_one_error_line(code, out, err, "map[0]")


def test_boolean_coordinate_exits_1(capsys, tmp_path):
    lhs = write(tmp_path / "lhs.json", {"idempotent": {"b1": [True, 0], "b2": [0, 0]}})
    code, out, err = run_cli(capsys, ["bc", "eval", "--op", "bar", "--lhs", lhs])
    assert_one_error_line(code, out, err, "idempotent.b1")


def test_norm_gauge_beyond_float_range_is_a_certificate(tmp_path):
    space = write(tmp_path / "space.json", {"weights": [1e10]})
    seq = write(tmp_path / "seq.json", [{"cartesian": {"z1": [1e308, 0], "z2": [0, 0]}}])
    # a fresh process under a time cap: a gauge solve that loops fails here
    argv = [sys.executable, "-m", "bcorlicz", "norm", "--phi", "power:p=2",
            "--space", space, "--seq", seq, "--strict"]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=30)
    assert done.returncode == 2, done.stderr
    report = json.loads(done.stdout)
    assert report["status"] == "error_certificate"
    assert result_value(report, "error_certificate")["error"] == "unsupported_instance"


def test_roots_degenerate_leading_coefficient_certificate(capsys, tmp_path):
    # leading coefficient e is a zero divisor: the instance is unsupported
    coeffs = write(tmp_path / "coeffs.json", [bc(1, 1), bc(1, 0)])
    code, out, _ = run_cli(capsys, ["bc", "eval", "--op", "roots", "--coeffs", coeffs])
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "error_certificate"
    cert = result_value(report, "error_certificate")
    assert cert["error"] == "unsupported_instance"
    code, out, _ = run_cli(
        capsys, ["bc", "eval", "--op", "roots", "--coeffs", coeffs, "--strict"]
    )
    assert code == 2


# ------------------------------------------------------------- configuration


def test_config_file_sets_defaults(capsys, files, tmp_path, monkeypatch):
    cfg = write(tmp_path / "cfg.json", {"format": "text", "seed": 5})
    monkeypatch.setenv("BCORLICZ_CONFIG", cfg)
    code, out, _ = run_cli(
        capsys, ["bc", "eval", "--op", "mul", "--lhs", files["e"], "--rhs", files["edag"]]
    )
    assert code == 0
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)  # text format came from the config file
    assert "seed" in out


def test_flags_override_config_file(capsys, files, tmp_path, monkeypatch):
    cfg = write(tmp_path / "cfg.json", {"format": "text", "seed": 5})
    monkeypatch.setenv("BCORLICZ_CONFIG", cfg)
    report = run_json(
        capsys,
        [
            "bc",
            "eval",
            "--op",
            "mul",
            "--lhs",
            files["e"],
            "--rhs",
            files["edag"],
            "--format",
            "json",
        ],
    )
    assert report["config"]["format"] == "json"
    assert report["config"]["seed"] == 5  # non-overridden key keeps the file value


def test_unknown_config_key_exits_1(capsys, files, tmp_path, monkeypatch):
    cfg = write(tmp_path / "cfg.json", {"colour": "red"})
    monkeypatch.setenv("BCORLICZ_CONFIG", cfg)
    code, _, err = run_cli(
        capsys, ["bc", "eval", "--op", "mul", "--lhs", files["e"], "--rhs", files["edag"]]
    )
    assert code == 1
    assert "colour" in err


def test_bad_config_value_exits_1(capsys, files, tmp_path, monkeypatch):
    cfg = write(tmp_path / "cfg.json", {"seed": "not-a-number"})
    monkeypatch.setenv("BCORLICZ_CONFIG", cfg)
    code, _, err = run_cli(
        capsys, ["bc", "eval", "--op", "mul", "--lhs", files["e"], "--rhs", files["edag"]]
    )
    assert code == 1
    assert "seed" in err


@pytest.mark.parametrize("key", ["eps", "tol", "seed", "n_max"])
def test_boolean_config_value_exits_1(capsys, files, tmp_path, monkeypatch, key):
    # JSON true would otherwise be read as the number 1
    cfg = write(tmp_path / "cfg.json", {key: True})
    monkeypatch.setenv("BCORLICZ_CONFIG", cfg)
    code, _, err = run_cli(
        capsys, ["bc", "eval", "--op", "mul", "--lhs", files["e"], "--rhs", files["edag"]]
    )
    assert code == 1
    assert key in err


def test_n_max_flag_overrides_lazy_budget(capsys, files, tmp_path):
    report = run_json(
        capsys,
        [
            "op",
            "check",
            "--kind",
            "composition",
            "--map",
            files["shift"],
            "--space",
            files["counting"],
            "--phi",
            "power:p=2",
            "--n-max",
            "50000",
        ],
    )
    verdict = result_value(report, "boundedness")
    assert verdict["verdict"] == "bounded"
    assert report["config"]["n_max"] == 50000


# ------------------------------------------------------------- entry points


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "bcorlicz", "phi", "classify", "--phi", "entropy"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["command"] == "phi classify"
