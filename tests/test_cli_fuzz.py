"""Derandomized fuzz of the command line: malformed and edge inputs.

Every case runs ``bcorlicz.cli.main`` in a forked child process under a
time cap, with the child's stdout and stderr sent to files, as
``python -m bcorlicz`` would run it.  A case passes when the child ends
within the cap, with exit code 0, 1 or 2, and its stderr is empty on exit
0 or 2 and one ``error:`` line on exit 1: no traceback and no warning.  The cases are a fixed table of edge values per
argument plus seeded random mutations of well-formed input files, so the
same cases run every time.
"""

import json
import multiprocessing
import os
import random
import sys
import traceback
import warnings

import pytest

from bcorlicz.cli import main

# seconds a case may take; a case over it fails
CASE_CAP = 20.0


def bc(b1, b2=0.0):
    return {"idempotent": {"b1": [b1, 0.0], "b2": [b2, 0.0]}}


# well-formed inputs; an argument value "@name" names one of these files
GOOD = {
    "e": bc(1.0),
    "edag": bc(0.0, 1.0),
    "one_atom": {"weights": [1.0]},
    "f": [bc(3.0, 4.0)],
    "space3": {"weights": [1.0, 2.0, 3.0]},
    "seq3": [bc(1.0, 2.0), bc(-1.0, 0.5), bc(0.0, 3.0)],
    "counting": {"weights_rule": "counting", "n_max": 1000},
    "shift": {"map_rule": "right_shift"},
    "table3": {"map": [2, 3, 3]},
    "op_shift": {"right_shift": {}},
    "op_dense": {
        "dense": {"m1": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "m2": [[0, 1, 0], [1, 0, 0], [0, 0, 2]]}
    },
    "op_mult": {"multiplication": {"theta": [bc(2.0, 1.0), bc(1.0, 1.0), bc(0.5, 3.0)]}},
    "coeffs": [bc(-1.0, -4.0), bc(0.0), bc(1.0, 1.0)],
    # the distortion ratios of these overflowed or came out nan in floats
    "geometric_big": {"weights_rule": "geometric:2.0", "n_max": 5000},
    "heavy2": {"weights": [1e308, 1e308]},
    # its square passes the floats
    "bc_big": {"idempotent": {"b1": [1.5e308, 1.5e308], "b2": [1.0, 0.0]}},
    # |f|^2 passes the floats, the tail's gauge does not
    "seq_1e200": [bc(1e200, 1e200)],
    # valid cartesian coordinates whose beta2 passes the floats
    "cartesian_big": {"cartesian": {"z1": [1.5e308, 0.0], "z2": [0.0, -1.5e308]}},
    "table_11": {"map": [1, 1]},
    "tiny_heavy": {"weights": [1.0, 1e-320]},
    "table_22": {"map": [2, 2]},
    # phi(1e10) on a weight of 1e300 passes the floats
    "heavy_1e300": {"weights": [1e300]},
    "seq_1e10": [bc(1e10, 1.0)],
    # images past the floats
    "op_mult_1e200": {"multiplication": {"theta": [bc(1e200, 1.0)]}},
    "op_dense_1e200": {"dense": {"m1": [[1e200]], "m2": [[1]]}},
}

SEQ = ["--seq", "@seq3"]
BASELINES = {
    "bc_mul": ["bc", "eval", "--op", "mul", "--lhs", "@e", "--rhs", "@edag"],
    "bc_roots": ["bc", "eval", "--op", "roots", "--coeffs", "@coeffs"],
    "norm": ["norm", "--phi", "power:p=2", "--space", "@one_atom", "--seq", "@f"],
    "norm_lazy": ["norm", "--phi", "exp", "--space", "@counting", "--seq", "@seq3"],
    "apply_shift": ["op", "apply", "--operator", "@op_shift", "--space", "@space3", *SEQ],
    "apply_mult": ["op", "apply", "--operator", "@op_mult", "--space", "@counting", *SEQ],
    "apply_dense": ["op", "apply", "--operator", "@op_dense", "--space", "@space3", *SEQ],
    "check_comp": [
        "op", "check", "--kind", "composition", "--map", "@shift",
        "--space", "@counting", "--phi", "power:p=2", "--samples", "@seq3",
    ],
    "check_table": [
        "op", "check", "--kind", "composition", "--map", "@table3",
        "--space", "@space3", "--phi", "entropy",
    ],
    "check_mult": [
        "op", "check", "--kind", "multiplication", "--theta", "@seq3",
        "--space", "@counting", "--phi", "exp",
    ],
    "classify": ["phi", "classify", "--phi", "entropy"],
    "schauder": ["schauder", "--seq", "@seq3", "--space", "@space3", "--p", "2", "--n", "1"],
    "pairing": ["pairing", "--x", "@seq3", "--y", "@seq3", "--space", "@counting"],
}

HUGE_WEIGHT = {"weights": [10**400]}
RAGGED = {"dense": {"m1": [[1, 0, 0], [0, 1], [0, 0, 1]], "m2": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}}

# file contents that are not the JSON a command expects
BAD_TEXTS = [
    "", "{", "null", "0", '"x"', "[]", "{}", "[null]", "NaN", "[1e999]", "[true]",
    '{"weights": []}', '{"weights_rule": "geometric:-1"}', '{"map": [0]}',
    '[{"idempotent": {"b1": [1e999, 0], "b2": [0, 0]}}]',
    '[{"cartesian": {"z1": [1, 0], "z2": [0, 1]}, "idempotent": {"b1": [5, 0], "b2": [0, 0]}}]',
]

# edge values for single flags
FLAG_EDGES = {
    "--tol": ["0", "-1", "1", "nan", "inf", "1e-300", "abc"],
    "--n-max": ["0", "-1", "1", "abc", "1000000"],
    "--block": ["0", "-1", "1", "abc"],
    "--seed": ["-1", "abc", str(10**30)],
    "--format": ["text", "xml"],
    "--strict": [None],
}
PHI_EDGES = ["", "power:p=", "power:p=0.5", "power:p=nan", "power:p=inf", "power:p=1e308", "exp2"]

# replacement leaves for the seeded mutations
LEAVES = [
    None, True, False, 0, -1, 1, 2, 10**400, -(10**400), 0.5, -0.0, 1e308, -1e308, 5e-324,
    float("inf"), float("nan"), "", "x", "counting", "geometric:0.5", "right_shift",
    [], {}, [1, 2], [[1, 2]], {"b1": [1, 0]},
]


def _mutate(obj, rng: random.Random):
    """A copy of ``obj`` with one seeded leaf or subtree replaced."""
    if isinstance(obj, (list, dict)) and obj and rng.random() < 0.75:
        keys = list(range(len(obj))) if isinstance(obj, list) else sorted(obj)
        key = rng.choice(keys)
        out = list(obj) if isinstance(obj, list) else dict(obj)
        out[key] = _mutate(obj[key], rng)
        return out
    return rng.choice(LEAVES)


def _cases():
    """Each baseline as it is, then with one argument edged or mutated.

    Edge values rotate over the arguments and baselines, so every value
    meets several commands while the whole fuzz stays a few hundred cases.
    """
    cases = [(name, argv, {}, None) for name, argv in BASELINES.items()]
    turn = 0
    for name, argv in BASELINES.items():
        for i in [i for i, a in enumerate(argv) if a.startswith("@")]:
            flag = argv[i - 1][2:]
            for k, text in enumerate(BAD_TEXTS):
                if (k + turn) % 4 == 0:
                    cases.append((f"{name}-{flag}-bad{k}", argv, {i: text}, None))
            turn += 1
            cases.append((f"{name}-{flag}-missing", argv, {i: None}, None))
            rng = random.Random(f"{name}:{i}")
            for k in range(3):
                text = json.dumps(_mutate(GOOD[argv[i][1:]], rng))
                cases.append((f"{name}-{flag}-mutant{k}", argv, {i: text}, None))
        cases.append((f"{name}-unknown-flag", argv + ["--bogus"], {}, None))
        cases.append((f"{name}-truncated", argv[:-1], {}, None))
    names = list(BASELINES)
    for flag, values in FLAG_EDGES.items():
        for value in values:
            extra = [flag] if value is None else [flag, value]
            for name in names[turn % len(names)::4]:
                cases.append((f"{name}{flag}={value}", BASELINES[name] + extra, {}, None))
            turn += 1
    with_phi = [name for name in names if "--phi" in BASELINES[name]]
    for value in PHI_EDGES:
        for name in with_phi[turn % len(with_phi)::3]:
            argv = BASELINES[name]
            at = argv.index("--phi") + 1
            cases.append((f"{name}-phi={value}", argv[:at] + [value] + argv[at + 1:], {}, None))
        turn += 1
    schauder = BASELINES["schauder"]
    for value in ("0", "0.5", "nan", "inf", "-1", "1e308"):
        cases.append((f"schauder-p={value}", schauder[:6] + [value] + schauder[7:], {}, None))
    for value in ("-1", "abc", str(10**30)):
        cases.append((f"schauder-n={value}", schauder[:8] + [value], {}, None))
    for value in ("-1", "0", "1", "abc", "1000000000"):
        argv = BASELINES["check_comp"] + ["--trials", value]
        cases.append((f"check_comp-trials={value}", argv, {}, None))
    for config in ("{", "[]", '{"tol": "x"}', '{"unknown": 1}', '{"n_max": true}', '{"block": 0}'):
        cases.append((f"classify-config={config}", BASELINES["classify"], {}, config))
    cases += [
        ("usage-empty", [], {}, None),
        ("usage-help", ["--help"], {}, None),
        ("usage-unknown-command", ["frobnicate"], {}, None),
        # each of these once escaped as a traceback
        ("check_comp-negative-seed", BASELINES["check_comp"] + ["--seed", "-1"], {}, None),
        ("apply-ragged-matrix", BASELINES["apply_dense"], {3: json.dumps(RAGGED)}, None),
        ("norm-integer-beyond-floats", BASELINES["norm"], {4: json.dumps(HUGE_WEIGHT)}, None),
        ("check_comp-n-max-beyond-cap",
         BASELINES["check_comp"] + ["--n-max", "1000000000000"], {}, None),
        ("distortion-geometric-above-one", [
            "op", "check", "--kind", "composition", "--map", "@shift",
            "--space", "@geometric_big", "--phi", "power:p=2",
        ], {}, None),
        ("distortion-heavy-finite", [
            "op", "check", "--kind", "composition", "--map", "@table_11",
            "--space", "@heavy2", "--phi", "power:p=2", "--strict",
        ], {}, None),
        ("distortion-ratio-beyond-floats", [
            "op", "check", "--kind", "composition", "--map", "@table_22",
            "--space", "@tiny_heavy", "--phi", "power:p=2", "--strict",
        ], {}, None),
        ("bc_mul-beyond-floats", [
            "bc", "eval", "--op", "mul", "--lhs", "@bc_big", "--rhs", "@bc_big", "--strict",
        ], {}, None),
        ("schauder-p-sum-beyond-floats", [
            "schauder", "--seq", "@seq_1e200", "--space", "@one_atom", "--p", "2", "--n", "0",
            "--strict",
        ], {}, None),
        ("bc_star-cartesian-beyond-floats", [
            "bc", "eval", "--op", "star", "--lhs", "@cartesian_big", "--strict",
        ], {}, None),
        # each of these once printed numpy RuntimeWarnings, and the last
        # three then exited 1
        ("norm-modular-beyond-floats", [
            "norm", "--phi", "power:p=2", "--space", "@heavy_1e300", "--seq", "@seq_1e10",
        ], {}, None),
        ("apply_mult-beyond-floats", [
            "op", "apply", "--operator", "@op_mult_1e200", "--space", "@one_atom",
            "--seq", "@seq_1e200",
        ], {}, None),
        ("apply_dense-beyond-floats", [
            "op", "apply", "--operator", "@op_dense_1e200", "--space", "@one_atom",
            "--seq", "@seq_1e200",
        ], {}, None),
        ("pairing-beyond-floats", [
            "pairing", "--x", "@seq_1e200", "--y", "@seq_1e200", "--space", "@one_atom",
        ], {}, None),
    ]
    return cases


CASES = _cases()


def _print_warning(message, category, filename, lineno, file=None, line=None):
    sys.stderr.write(warnings.formatwarning(message, category, filename, lineno, line))


def _run_child(argv, out_path, err_path, config_path):
    """The child: stdout and stderr to files, then ``main`` as ``python -m`` runs it."""
    for fd, path in ((1, out_path), (2, err_path)):
        target = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC)
        os.dup2(target, fd)
        os.close(target)
    # a test runner may have swapped the streams for its own capture, and
    # record warnings where python -m prints them, each once per place
    sys.stdout = open(1, "w", closefd=False)
    sys.stderr = open(2, "w", closefd=False)
    warnings.simplefilter("default", RuntimeWarning)
    warnings.showwarning = _print_warning
    if config_path is None:
        os.environ.pop("BCORLICZ_CONFIG", None)
    else:
        os.environ["BCORLICZ_CONFIG"] = config_path
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except BaseException:
        traceback.print_exc()
        code = 1
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


def _run_case(tmp_path, name, argv, overrides, config):
    """Run one case in a child and check how it ended; its exit code and stderr."""
    args = []
    for i, a in enumerate(argv):
        if i in overrides:
            text = overrides[i]
            path = tmp_path / f"arg{i}.json"
            if text is not None:
                path.write_text(text)
            args.append(str(path))
        elif a.startswith("@"):
            path = tmp_path / f"{a[1:]}.json"
            path.write_text(json.dumps(GOOD[a[1:]]))
            args.append(str(path))
        else:
            args.append(a)
    config_path = None
    if config is not None:
        config_path = tmp_path / "config.json"
        config_path.write_text(config)
        config_path = str(config_path)
    out_path, err_path = tmp_path / "stdout", tmp_path / "stderr"

    sys.stdout.flush()
    sys.stderr.flush()
    child = multiprocessing.get_context("fork").Process(
        target=_run_child, args=(args, str(out_path), str(err_path), config_path)
    )
    child.start()
    child.join(CASE_CAP)
    if child.is_alive():
        child.kill()
        child.join()
        pytest.fail(f"case {name} ran past the {CASE_CAP} s cap: {args}")
    err = err_path.read_text()
    assert child.exitcode in (0, 1, 2), (child.exitcode, args, err)
    if child.exitcode == 1:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), (args, err)
    else:
        assert err == "", (args, err)
    if child.exitcode in (0, 2) and "--help" not in args and "text" not in args:
        json.loads(out_path.read_text())
    return child.exitcode, err


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the fuzz forks one child per case")
@pytest.mark.parametrize("name, argv, overrides, config", CASES, ids=[c[0] for c in CASES])
def test_cli_fuzz_case(tmp_path, name, argv, overrides, config):
    _run_case(tmp_path, name, argv, overrides, config)


# a sequence longer than the lazy window: its entries past the window are
# left out of every sum, and the report says so in one warning
LONGER_THAN_WINDOW = [
    ("norm_lazy-n-max=2", BASELINES["norm_lazy"] + ["--n-max", "2"], "--seq"),
    ("schauder-counting-n-max=2", [
        "schauder", "--seq", "@seq3", "--space", "@counting", "--p", "2", "--n", "1",
        "--n-max", "2",
    ], "--seq"),
    ("pairing-n-max=2", BASELINES["pairing"] + ["--n-max", "2"], "--x"),
]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the fuzz forks one child per case")
@pytest.mark.parametrize(
    "name, argv, flag", LONGER_THAN_WINDOW, ids=[c[0] for c in LONGER_THAN_WINDOW]
)
def test_a_cut_sequence_is_warned(tmp_path, name, argv, flag):
    code, err = _run_case(tmp_path, name, argv, {}, None)
    assert code == 0, err
    said = json.loads((tmp_path / "stdout").read_text())["warnings"]
    assert len(said) == 1 and said[0].startswith(flag), said
    assert "3 entries but the lazy window ends at atom 2" in said[0], said


# the lazy probe has no block length: the old --block flag and "block"
# config key are refused, whatever their value
REFUSED_BLOCK = [
    (f"{name}--block={value}", BASELINES[name] + ["--block", value], {}, None)
    for name in ("norm_lazy", "pairing")
    for value in ("1000", "1", "0")
] + [
    (f"{name}-config-block={value}", BASELINES[name], {}, json.dumps({"block": value}))
    for name in ("norm_lazy", "classify")
    for value in (1000, 0)
]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the fuzz forks one child per case")
@pytest.mark.parametrize(
    "name, argv, overrides, config", REFUSED_BLOCK, ids=[c[0] for c in REFUSED_BLOCK]
)
def test_block_is_a_refused_input(tmp_path, name, argv, overrides, config):
    code, err = _run_case(tmp_path, name, argv, overrides, config)
    lines = err.splitlines()
    assert code == 1 and len(lines) == 1 and lines[0].startswith("error:"), (code, err)
    assert "block" in lines[0], err
