"""End-to-end tests of the command line interface."""

import json
import math
import os
import subprocess
import sys
import warnings

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


def test_op_check_composition_bound_is_at_least_one(capsys, files, tmp_path):
    # every b_n is 1/2, while the empirical norm reaches 0.5^(1/2)
    space = write(tmp_path / "geo.json", {"weights_rule": "geometric:0.5", "n_max": 5000})
    verdict = result_value(
        run_json(
            capsys,
            ["op", "check", "--kind", "composition", "--map", files["shift"],
             "--space", space, "--phi", "power:p=2"],
        ),
        "boundedness",
    )
    assert verdict["verdict"] == "bounded"
    assert verdict["sup_distortion"] == 0.5
    assert verdict["bound"] == 1.0
    assert verdict["empirical_norm"] <= verdict["bound"]


def test_op_check_multiplication_array_on_a_lazy_space(capsys, tmp_path):
    theta = write(tmp_path / "theta.json", [bc(1, 1), bc(2, 2), bc(3, 3), bc(4, 4)])
    space = write(tmp_path / "c4.json", {"weights_rule": "counting", "n_max": 4})
    code, out, err = run_cli(
        capsys,
        ["op", "check", "--kind", "multiplication", "--theta", theta,
         "--space", space, "--phi", "power:p=2", "--strict"],
    )
    assert code == 0, err
    verdict = result_value(json.loads(out), "boundedness")
    assert verdict["verdict"] == "bounded"
    assert verdict["bound"] == 4.0
    assert verdict["distortion_truncated"] is False
    assert not any("grows" in note for note in verdict["notes"])


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


@pytest.mark.parametrize(
    "spec, limits, k, holds",
    [
        ("power:p=1", False, 2.0, True),
        ("power:p=2", True, 4.0, True),
        ("power:p=2.5", True, 2.0**2.5, True),
        ("power:p=1000", True, 2.0**1000, True),
        # 2^p is past the floats, yet Delta2 holds
        ("power:p=1e300", True, "inf", True),
        ("exp", True, "inf", False),
        ("entropy", True, 4.0, True),
    ],
)
def test_phi_classify_reports_closed_form_facts(capsys, spec, limits, k, holds):
    report = run_json(capsys, ["phi", "classify", "--phi", spec])
    assert result_value(report, "phi_report") == {
        "family": spec.split(":")[0],
        "convexity_ok": True,
        "n_function": {
            "limit0_ok": limits,
            "limit_inf_ok": limits,
            "continuous_ok": True,
            "vanishes_only_at_0": True,
        },
        "delta2": {"K_estimate": k, "holds_on_grid": holds},
        "label": "closed form",
    }


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


# each command, and which of its sequences are named as cut
CUT_COMMANDS = {
    "norm": (["norm", "--phi", "power:p=2", "--seq", "SEQ"], "--seq has 5 entries"),
    "schauder": (["schauder", "--p", "2", "--n", "1", "--seq", "SEQ"], "--seq has 5 entries"),
    "pairing": (["pairing", "--x", "SEQ", "--y", "SEQ"],
                "--x has 5 entries and --y has 5 entries"),
}


@pytest.mark.parametrize("command", sorted(CUT_COMMANDS))
def test_a_sequence_longer_than_the_lazy_window_is_warned(capsys, tmp_path, command):
    # the sums stop at the window's end: once an "exact" answer over the
    # first 2 of 5 entries, with no warning
    seq = write(tmp_path / "seq.json", [bc(1 + 0j, 2 + 0j)] * 5)
    space = write(tmp_path / "c.json", {"weights_rule": "counting", "n_max": 10**6})
    argv, named = CUT_COMMANDS[command]
    argv = [seq if a == "SEQ" else a for a in argv] + ["--space", space]
    cut = run_json(capsys, argv + ["--n-max", "2"])
    assert cut["status"] == "ok"
    assert cut["warnings"] == [
        f"{named} but the lazy window ends at atom 2; the entries past it are left out"
    ]
    assert run_json(capsys, argv + ["--n-max", "5"])["warnings"] == []


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


def test_norm_modulus_beyond_float_range_is_a_certificate(capsys, files, tmp_path):
    # both parts are finite, but |b1| = 2.1e308 is not
    seq = write(tmp_path / "seq.json", [bc(1.5e308 + 1.5e308j, 0j)])
    argv = ["norm", "--phi", "power:p=2", "--space", files["one_atom"], "--seq", seq]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, argv)
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["status"] == "error_certificate"
    cert = result_value(report, "error_certificate")
    assert cert["error"] == "unsupported_instance"
    assert "|f_1|" in cert["detail"]
    code, _, _ = run_cli(capsys, argv + ["--strict"])
    assert code == 2


@pytest.mark.parametrize("op", ["classify", "invert"])
@pytest.mark.parametrize(
    "b1, b2",
    [(1.5e308 + 0j, 1.5e308 + 0j), (1.5e308 + 1.5e308j, 1e300j)],
    ids=["hypot-overflows", "modulus-overflows"],
)
def test_bc_eval_large_element_is_invertible(capsys, tmp_path, op, b1, b2):
    # the norm of b1 = b2 = 1.5e308 once overflowed, so the tolerance was
    # inf: classify read "zero" and invert refused with not_invertible; and
    # |b1| past the floats ended in an OverflowError traceback
    lhs = write(tmp_path / "big.json", bc(b1, b2))
    report = run_json(capsys, ["bc", "eval", "--op", op, "--lhs", lhs])
    assert report["status"] == "ok"
    if op == "classify":
        value = result_value(report, "classification")
        assert value["kind"] == "invertible" and value["vanishing"] == []
        assert value["threshold"] == pytest.approx(1.5e296, rel=1e-12)
    else:
        inverse = result_value(report, "inverse")["idempotent"]["b1"]
        assert inverse == [(1.0 / b1).real, (1.0 / b1).imag]


def test_bc_eval_product_past_the_floats_is_a_certificate(capsys, tmp_path):
    # both inputs are valid; their product once was refused as an input
    # error ("beta1 must be finite, got (inf+infj)")
    lhs = write(tmp_path / "big.json", bc(1.5e308 + 1.5e308j, 1 + 0j))
    argv = ["bc", "eval", "--op", "mul", "--lhs", lhs, "--rhs", lhs]
    report = run_json(capsys, argv)
    assert report["status"] == "error_certificate"
    cert = result_value(report, "error_certificate")
    assert cert["error"] == "unsupported_instance"
    assert cert["detail"].startswith("mul overflows")
    code, _, _ = run_cli(capsys, argv + ["--strict"])
    assert code == 2


def test_bc_eval_cartesian_view_of_a_large_element_is_finite(capsys, tmp_path):
    # z1 = (b1 + b2) / 2 once read ["inf", "nan"]
    lhs = write(tmp_path / "big.json", bc(1.5e308 + 0j, 1.5e308 + 0j))
    report = run_json(capsys, ["bc", "eval", "--op", "star", "--lhs", lhs])
    cartesian = result_value(report, "conjugate")["cartesian"]
    assert cartesian == {"z1": [1.5e308, 0.0], "z2": [0.0, 0.0]}


def test_bc_eval_cartesian_input_past_the_floats_is_a_certificate(capsys, tmp_path):
    # beta2 = z1 + i z2 = 3e308; this once exited 1 with "beta2 must be finite"
    lhs = write(tmp_path / "cart.json", {"cartesian": {"z1": [1.5e308, 0], "z2": [0, -1.5e308]}})
    argv = ["bc", "eval", "--op", "star", "--lhs", lhs]
    report = run_json(capsys, argv)
    assert report["status"] == "error_certificate"
    cert = result_value(report, "error_certificate")
    assert cert["error"] == "unsupported_instance"
    assert cert["detail"].startswith("from_cartesian overflows")
    code, _, _ = run_cli(capsys, argv + ["--strict"])
    assert code == 2


def test_bc_eval_add_does_not_compute_the_product(capsys, tmp_path):
    # the sum is 2e200; the product 1e400 once was computed too and refused
    lhs = write(tmp_path / "big.json", bc(1e200 + 0j, 1 + 0j))
    report = run_json(capsys, ["bc", "eval", "--op", "add", "--lhs", lhs, "--rhs", lhs])
    assert result_value(report, "sum")["idempotent"]["b1"] == [2e200, 0.0]


def test_schauder_from_zero_equals_the_p1_norm_near_float_max(capsys, files, tmp_path):
    # schauder once combined the two 1.5e308 tails to "inf"
    seq = write(tmp_path / "seq.json", [bc(1.5e308 + 0j, 1.5e308 + 0j)])
    space = files["one_atom"]
    tail = result_value(
        run_json(capsys, ["schauder", "--seq", seq, "--space", space, "--p", "1", "--n", "0"]),
        "tail_norm",
    )
    norm = result_value(
        run_json(capsys, ["norm", "--phi", "power:p=1", "--space", space, "--seq", seq]), "norm"
    )
    assert isinstance(tail, float) and tail == norm


def test_schauder_from_zero_is_the_norm_where_the_p_sum_overflows(capsys, files, tmp_path):
    # |f|^2 = 1e400 passes the floats; schauder once read "inf" where norm reads 1e200
    seq = write(tmp_path / "seq.json", [bc(1e200 + 0j, 1e200 + 0j)])
    space = files["one_atom"]
    report = run_json(
        capsys, ["schauder", "--seq", seq, "--space", space, "--p", "2", "--n", "0"]
    )
    norm = result_value(
        run_json(capsys, ["norm", "--phi", "power:p=2", "--space", space, "--seq", seq]), "norm"
    )
    assert result_value(report, "tail_norm") == norm == 1e200
    produced_by = [r["produced_by"] for r in report["results"] if r["name"] == "tail_norm"]
    assert produced_by[0].startswith("power:p gauge of each component beyond index 0")


ONE_ATOM_SPACES = {
    "one_atom": {"weights": [1.0]},
    "counting": {"weights_rule": "counting", "n_max": 10**6},
}


@pytest.mark.parametrize("space", sorted(ONE_ATOM_SPACES))
def test_one_atom_pairing_is_exact_on_either_space(capsys, tmp_path, space):
    # on counting the lazy pairing once read the finitely supported sum
    # 1e14 as past the divergence guard: "not_summable"
    seq = write(tmp_path / "seq.json", [bc(1e7 + 0j, 1 + 0j)])
    sp = write(tmp_path / "space.json", ONE_ATOM_SPACES[space])
    report = run_json(capsys, ["pairing", "--x", seq, "--y", seq, "--space", sp])
    assert report["status"] == "ok"
    assert result_value(report, "pairing")["idempotent"] == {"b1": [1e14, 0.0], "b2": [1.0, 0.0]}


def test_norm_on_counting_reports_an_exact_modular(capsys, tmp_path):
    # the modular once read "diverged" / "inf" beside a gauge of 1e7
    seq = write(tmp_path / "seq.json", [bc(1e7 + 0j, 1 + 0j)])
    sp = write(tmp_path / "space.json", ONE_ATOM_SPACES["counting"])
    report = run_json(capsys, ["norm", "--phi", "power:p=2", "--space", sp, "--seq", seq])
    assert result_value(report, "modular_component_1") == {
        "value": 1e14, "status": "exact", "n_terms": 1,
    }
    assert result_value(report, "luxemburg_norm_component_1") == 1e7


@pytest.mark.parametrize("space", sorted(ONE_ATOM_SPACES))
def test_pairing_past_the_floats_is_a_certificate(capsys, tmp_path, space):
    # once exit 1 on a finite space ("beta1 must be finite, got (inf+nanj)")
    # and "not_summable" on counting
    seq = write(tmp_path / "seq.json", [bc(1e200 + 0j, 1 + 0j)])
    sp = write(tmp_path / "space.json", ONE_ATOM_SPACES[space])
    argv = ["pairing", "--x", seq, "--y", seq, "--space", sp]
    code, out, err = run_cli(capsys, argv)
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["status"] == "error_certificate"
    cert = result_value(report, "error_certificate")
    assert cert["error"] == "unsupported_instance"
    assert cert["detail"].startswith("pairing overflows: idempotent component 1")
    assert run_cli(capsys, argv + ["--strict"])[0] == 2


@pytest.mark.parametrize(
    "operator",
    [
        {"multiplication": {"theta": [bc(1e200 + 0j, 1 + 0j)]}},
        {"dense": {"m1": [[1e200]], "m2": [[1]]}},
    ],
    ids=["multiplication", "dense"],
)
def test_op_apply_past_the_floats_is_a_certificate(capsys, tmp_path, operator):
    # once a numpy RuntimeWarning on stderr, then exit 1 ("beta1 must be
    # finite, got (inf+0j)")
    seq = write(tmp_path / "seq.json", [bc(1e200 + 0j, 1 + 0j)])
    op = write(tmp_path / "op.json", operator)
    sp = write(tmp_path / "space.json", ONE_ATOM_SPACES["one_atom"])
    argv = ["op", "apply", "--operator", op, "--space", sp, "--seq", seq]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, argv)
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["status"] == "error_certificate"
    cert = result_value(report, "error_certificate")
    assert cert == {
        "error": "unsupported_instance",
        "detail": "component 1 of the image passes the largest float at atom 1",
    }
    assert run_cli(capsys, argv + ["--strict"])[0] == 2


def test_norm_on_a_heavy_atom_warns_nothing(capsys, tmp_path):
    # phi(1e10) * 1e300 passes the floats: the modular reads inf, and numpy
    # once printed two overflow RuntimeWarnings beside it
    seq = write(tmp_path / "seq.json", [bc(1e10 + 0j, 1 + 0j)])
    sp = write(tmp_path / "space.json", {"weights": [1e300]})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = run_json(capsys, ["norm", "--phi", "power:p=2", "--space", sp, "--seq", seq])
    assert result_value(report, "modular_component_1")["value"] == "inf"


def test_op_apply_refuses_a_table_longer_than_the_space(capsys, tmp_path):
    # apply once used the first three entries and exited 0; op check refused
    space = write(tmp_path / "space.json", {"weights": [1, 1, 1]})
    seq = write(tmp_path / "seq.json", [bc(1 + 0j, 2 + 0j)] * 3)
    table = [2, 3, 1, 1, 1]
    op = write(tmp_path / "op.json", {"composition": {"map": table}})
    code, out, err = run_cli(
        capsys, ["op", "apply", "--operator", op, "--space", space, "--seq", seq]
    )
    assert_one_error_line(code, out, err, "5 entries", "3 atoms")
    imap = write(tmp_path / "map.json", {"map": table})
    code, out, err = run_cli(
        capsys,
        ["op", "check", "--kind", "composition", "--map", imap,
         "--space", space, "--phi", "power:p=2"],
    )
    assert_one_error_line(code, out, err, "5 entries", "3 atoms")


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


@pytest.mark.parametrize("n_max", [10**7 + 1, 10**12])
def test_n_max_beyond_ten_default_windows_exits_1(capsys, files, tmp_path, monkeypatch, n_max):
    # lazy analyses materialise whole-window arrays: 10**12 atoms once ended
    # in a numpy memory-error traceback
    argv = ["op", "check", "--kind", "composition", "--map", files["shift"],
            "--space", files["counting"], "--phi", "power:p=2"]
    code, out, err = run_cli(capsys, argv + ["--n-max", str(n_max)])
    assert_one_error_line(code, out, err, "n_max", str(n_max))
    monkeypatch.setenv("BCORLICZ_CONFIG", write(tmp_path / "cfg.json", {"n_max": n_max}))
    code, out, err = run_cli(capsys, argv)
    assert_one_error_line(code, out, err, "n_max", str(n_max))


@pytest.mark.parametrize("trials", [1001, 10**9])
def test_trials_beyond_cap_exits_1(capsys, files, tmp_path, monkeypatch, trials):
    # each trial applies the operator to a fresh sample: 10**9 would run for days
    argv = ["op", "check", "--kind", "composition", "--map", files["shift"],
            "--space", files["counting"], "--phi", "power:p=2"]
    code, out, err = run_cli(capsys, argv + ["--trials", str(trials)])
    assert_one_error_line(code, out, err, "trials", str(trials))
    monkeypatch.setenv("BCORLICZ_CONFIG", write(tmp_path / "cfg.json", {"trials": trials}))
    code, out, err = run_cli(capsys, argv)
    assert_one_error_line(code, out, err, "trials", str(trials))


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


def test_closed_stdout_pipe_exits_1_without_a_traceback(files):
    # a reader that has gone (as `| head -1` does) once left a
    # BrokenPipeError traceback on stderr
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "bcorlicz", "bc", "eval", "--op", "mul",
             "--lhs", files["e"], "--rhs", files["edag"]],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == ""
