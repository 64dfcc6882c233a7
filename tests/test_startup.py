"""What each command imports.

``bc eval`` (every op but ``roots``) and ``phi classify`` need no array,
so they run with numpy blocked (``sys.modules["numpy"] = None`` makes
``import numpy`` fail) and print the bytes of a normal run.  The array
commands import only the layers they call.  The names the benchmark's
tracer wraps on ``bcorlicz.cli`` resolve there, and a name set on the
module before a command runs is the one the command calls.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bcorlicz import cli

ROOT = Path(__file__).resolve().parents[1]
SAMPLES = ROOT / "sample_inputs"

BLOCK_NUMPY = "import sys\nsys.modules['numpy'] = None\n"

# a bicomplex with both components invertible, a zero divisor and the idempotents
VALUES = {
    "z": {"idempotent": {"b1": [1.5, -2.0], "b2": [0.25, 3.0]}},
    "e": {"idempotent": {"b1": [1, 0], "b2": [0, 0]}},
    "edag": {"idempotent": {"b1": [0, 0], "b2": [1, 0]}},
    "cart": {"cartesian": {"z1": [2, 1], "z2": [-1, 0.5]}},
}
UNARY = ("bar", "dagger", "star", "invert", "classify")
PHIS = ("power:p=1", "power:p=2", "power:p=1e300", "exp", "entropy")


def _argvs(paths):
    argvs = []
    for op in ("add", "sub", "mul"):
        argvs.append(["bc", "eval", "--op", op, "--lhs", paths["z"], "--rhs", paths["cart"]])
        argvs.append(["bc", "eval", "--op", op, "--lhs", paths["e"], "--rhs", paths["edag"]])
    for op in UNARY:
        for name in ("z", "e", "cart"):
            argvs.append(["bc", "eval", "--op", op, "--lhs", paths[name]])
    argvs += [["phi", "classify", "--phi", phi] for phi in PHIS]
    return [argv + ["--format", fmt] for argv in argvs for fmt in ("json", "text")]


RUN_ALL = """
import contextlib, io, json
from bcorlicz.cli import main
out = []
for argv in json.loads(sys.argv[1]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    out.append([code, buf.getvalue()])
print(json.dumps(out))
"""


def run_python(script, *args):
    proc = subprocess.run(
        [sys.executable, "-c", script, *args], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.fixture
def paths(tmp_path):
    out = {}
    for name, value in VALUES.items():
        out[name] = str(tmp_path / f"{name}.json")
        Path(out[name]).write_text(json.dumps(value))
    return out


def test_arithmetic_and_phi_reports_are_the_same_bytes_without_numpy(paths):
    argvs = _argvs(paths)
    blocked = json.loads(run_python(BLOCK_NUMPY + RUN_ALL, json.dumps(argvs)))
    normal = json.loads(run_python("import sys, numpy\n" + RUN_ALL, json.dumps(argvs)))
    assert len(blocked) == len(argvs)
    for argv, got, want in zip(argvs, blocked, normal):
        assert got == want, argv
        assert got[0] == 0 and got[1], argv


@pytest.mark.parametrize("key, value", [("n_max", 10**7 + 1), ("trials", 1001)])
def test_config_caps_refuse_without_numpy(tmp_path, key, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    script = BLOCK_NUMPY + """
from bcorlicz.cli import main
code = main(["phi", "classify", "--phi", "exp"])
assert code == 1, code
"""
    env = dict(os.environ, BCORLICZ_CONFIG=str(cfg))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60, env=env
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and key in lines[0], lines


@pytest.mark.parametrize("module", ["bcorlicz", "bcorlicz.cli"])
def test_import_loads_no_numpy(module):
    assert run_python(f"import sys, {module}\nprint('numpy' in sys.modules)") == "False\n"


ARRAY_COMMANDS = {
    "norm": ["norm", "--phi", "power:p=2", "--space", "one_atom.json", "--seq", "f.json"],
    "schauder": ["schauder", "--p", "2", "--n", "0", "--space", "one_atom.json",
                 "--seq", "f.json"],
    "pairing": ["pairing", "--x", "f.json", "--y", "f.json", "--space", "one_atom.json"],
}


@pytest.mark.parametrize("name", sorted(ARRAY_COMMANDS))
def test_array_commands_leave_operators_unloaded(name):
    argv = [str(SAMPLES / a) if a.endswith(".json") else a for a in ARRAY_COMMANDS[name]]
    script = f"""
import contextlib, io, sys
from bcorlicz.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main({argv!r}) == 0
print(sorted(m for m in sys.modules if m.startswith("bcorlicz")))
"""
    loaded = run_python(script)
    assert "bcorlicz.orlicz" in loaded
    assert "bcorlicz.operators" not in loaded


def test_roots_loads_numpy_when_it_needs_it(tmp_path):
    coeffs = tmp_path / "coeffs.json"
    z = VALUES["z"]
    coeffs.write_text(json.dumps([z, VALUES["cart"], z]))
    proc = subprocess.run(
        [sys.executable, "-m", "bcorlicz", "bc", "eval", "--op", "roots", "--coeffs", str(coeffs)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["status"] == "ok"
    roots = [r["value"] for r in report["results"] if r["name"] == "roots"][0]
    assert len(roots) == 4


# ------------------------------------------------------------ contracts


def test_tracer_cli_names_resolve_on_a_fresh_cli():
    script = f"""
import sys
sys.path.insert(0, {str(ROOT / "perfbench")!r})
import tracer
import bcorlicz.cli
names = [attr for mod, attr, *_ in tracer.FUNCTION_WRAPS if mod == tracer.CLI]
for name in names:
    assert callable(getattr(bcorlicz.cli, name)), name
print(len(names))
"""
    assert int(run_python(script)) >= 8


def test_unknown_cli_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        cli.no_such_name  # noqa: B018


def test_a_spy_set_before_the_command_is_the_one_it_calls(monkeypatch, capsys):
    calls = []
    real = cli.luxemburg_norm

    def spy(*args, **kwargs):
        calls.append(args[0].spec_string())
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "luxemburg_norm", spy)
    argv = [str(SAMPLES / a) if a.endswith(".json") else a for a in ARRAY_COMMANDS["norm"]]
    assert cli.main(argv) == 0
    assert calls == ["power:p=2", "power:p=2"]
    assert cli.luxemburg_norm is spy
    assert json.loads(capsys.readouterr().out)["results"][-1]["value"] == 5 / 2**0.5
