"""The JSON report emitter writes the bytes of ``json.dumps``.

``_render(report, "json")`` must equal ``json.dumps`` of the report with
its scalars cleaned, indented by two spaces with sorted keys, and
``_render(report, "text")`` the text walk over the cleaned report.  The
cleaning and text oracles below are frozen copies of the code the
emitter replaced, so the test does not read the library to decide what
is right.  It runs
over derandomized trees of nested containers with awkward leaves, and
over the full reports of every command on seeded 300-atom inputs.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcorlicz import cli


def ref_sanitize(obj):
    if isinstance(obj, dict):
        return {str(k): ref_sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [ref_sanitize(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        if math.isnan(f):
            return "nan"
        if f == math.inf:
            return "inf"
        if f == -math.inf:
            return "-inf"
        return f
    return obj


def ref_render(report):
    return json.dumps(ref_sanitize(report), indent=2, sort_keys=True)


def ref_text(report):
    lines = []

    def walk(value, indent, label=None):
        pad = "  " * indent
        tag = f"{pad}{label}: " if label is not None else pad
        if isinstance(value, dict):
            if label is not None:
                lines.append(f"{pad}{label}:")
            for key in sorted(value):
                walk(value[key], indent + (label is not None), key)
        elif isinstance(value, list):
            if label is not None:
                lines.append(f"{pad}{label}:")
            for item in value:
                if isinstance(item, (dict, list)):
                    lines.append(f"{pad}  -")
                    walk(item, indent + 2)
                else:
                    lines.append(f"{pad}  - {item}")
        else:
            lines.append(f"{tag}{value}")

    walk(ref_sanitize(report), 0)
    return "\n".join(lines)


AWKWARD_FLOATS = [
    -0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 1e16, 0.1, math.nan, math.inf, -math.inf,
]

KEY_CHARS = ["a", "b", "Z", " ", '"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é", "€", "𝔹"]
keys = st.text(alphabet=st.sampled_from(KEY_CHARS), max_size=6)
floats = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(AWKWARD_FLOATS)
leaves = st.one_of(
    floats,
    floats.map(np.float64),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.integers(min_value=-(2**63), max_value=2**63 - 1).map(np.int64),
    st.booleans(),
    st.booleans().map(np.bool_),
    st.none(),
    keys,
)
# float runs are the emitter's fast path; mixed lists and tuples its slow one
float_runs = st.lists(floats, max_size=5)
trees = st.recursive(
    leaves | float_runs,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(keys, children, max_size=4),
    ),
    max_leaves=40,
)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(trees)
def test_emitter_matches_json_dumps_on_random_trees(tree):
    assert cli._render(tree, "json") == ref_render(tree)
    assert cli._render(tree, "text") == ref_text(tree)


@pytest.mark.parametrize(
    "value",
    [
        {},
        [],
        (),
        {"a": {}, "b": [], "c": ()},
        [[], {}, [[]], [{}]],
        [1.5, 2, 3.0],
        [1.5, True],
        [1.5, math.nan],
        [np.float64(0.1), np.float64(-0.0)],
        [np.float32(0.1)],
        # no float subclass, so float.__repr__ refuses it and it is cleaned first
        {"third": np.longdouble(1) / 3, "thirds": [np.longdouble(1) / 3]},
        {"x": [1e308, 1e308, 1e308]},
        {1: "one", "0": "zero", 2.5: None},
        {1: "int key", "1": "str key"},
        2**64 + 1,
        "  \"quoted\" \\ \x01",
    ],
)
def test_emitter_matches_json_dumps_on_edge_values(value):
    assert cli._render(value, "json") == ref_render(value)
    assert cli._render(value, "text") == ref_text(value)


# ----------------------------------------------------------- full reports


def bc(b1, b2):
    return {"idempotent": {"b1": [b1.real, b1.imag], "b2": [b2.real, b2.imag]}}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("render")
    rng = np.random.default_rng([300, 12])
    n = 300

    def seq():
        f1 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        f2 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        return [bc(complex(a), complex(b)) for a, b in zip(f1, f2)]

    def write(name, obj):
        path = root / name
        path.write_text(json.dumps(obj))
        return str(path)

    dense = rng.standard_normal((3, 3)).tolist()
    return {
        "space": write("space.json", {"weights": rng.uniform(0.5, 2.0, n).tolist()}),
        "seq": write("seq.json", seq()),
        "seq2": write("seq2.json", seq()),
        "map": write("map.json", {"map": rng.integers(1, n + 1, n).tolist()}),
        "comp": write("comp.json", {"composition": {"map": rng.integers(1, n + 1, n).tolist()}}),
        "mult": write("mult.json", {"multiplication": {"theta": seq()}}),
        "theta": write("theta.json", seq()),
        "space3": write("space3.json", {"weights": [1.0, 2.0, 3.0]}),
        "seq3": write("seq3.json", seq()[:3]),
        "dense": write("dense.json", {"dense": {"m1": dense, "m2": dense}}),
        "lhs": write("lhs.json", bc(1.5 - 2j, 0.25 + 1e-300j)),
        "rhs": write("rhs.json", bc(-3 + 0j, 1e308 + 0j)),
        "zero_divisor": write("zd.json", bc(1 + 0j, 0j)),
        "coeffs": write("coeffs.json", [bc(-1 + 0j, -4 + 0j), bc(0j, 0j), bc(1 + 0j, 1 + 0j)]),
        "counting": write("counting.json", {"weights_rule": "counting", "n_max": 1000}),
        "shift": write("shift.json", {"map_rule": "right_shift"}),
    }


COMMANDS = {
    "bc eval add": ["bc", "eval", "--op", "add", "--lhs", "@lhs", "--rhs", "@rhs"],
    "bc eval mul": ["bc", "eval", "--op", "mul", "--lhs", "@lhs", "--rhs", "@rhs"],
    "bc eval star": ["bc", "eval", "--op", "star", "--lhs", "@lhs"],
    "bc eval classify": ["bc", "eval", "--op", "classify", "--lhs", "@zero_divisor"],
    "bc eval invert": ["bc", "eval", "--op", "invert", "--lhs", "@zero_divisor"],
    "bc eval roots": ["bc", "eval", "--op", "roots", "--coeffs", "@coeffs"],
    "norm power": ["norm", "--phi", "power:p=2", "--space", "@space", "--seq", "@seq"],
    "norm exp": ["norm", "--phi", "exp", "--space", "@space", "--seq", "@seq"],
    "norm lazy": ["norm", "--phi", "power:p=2", "--space", "@counting", "--seq", "@seq"],
    "op apply multiplication": [
        "op", "apply", "--operator", "@mult", "--space", "@space", "--seq", "@seq",
    ],
    "op apply composition": [
        "op", "apply", "--operator", "@comp", "--space", "@space", "--seq", "@seq",
    ],
    "op apply dense": [
        "op", "apply", "--operator", "@dense", "--space", "@space3", "--seq", "@seq3",
    ],
    "op check composition": [
        "op", "check", "--kind", "composition", "--map", "@map", "--space", "@space",
        "--phi", "power:p=2", "--samples", "@seq", "--trials", "3",
    ],
    "op check shift": [
        "op", "check", "--kind", "composition", "--map", "@shift", "--space", "@counting",
        "--phi", "power:p=2",
    ],
    "op check multiplication": [
        "op", "check", "--kind", "multiplication", "--theta", "@theta", "--space", "@space",
        "--phi", "power:p=2",
    ],
    "phi classify": ["phi", "classify", "--phi", "exp"],
    "schauder": ["schauder", "--seq", "@seq", "--space", "@space", "--p", "2", "--n", "150"],
    "pairing": ["pairing", "--x", "@seq", "--y", "@seq2", "--space", "@space"],
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_every_command_report_matches_json_dumps(monkeypatch, capsys, inputs, name):
    monkeypatch.delenv("BCORLICZ_CONFIG", raising=False)
    rendered = []
    render = cli._render

    def recording(report, fmt):
        out = render(report, fmt)
        rendered.append((report, out))
        return out

    monkeypatch.setattr(cli, "_render", recording)
    argv = [inputs[a[1:]] if a.startswith("@") else a for a in COMMANDS[name]]
    assert cli.main(argv) == 0, capsys.readouterr().err
    (report, out), = rendered
    assert out == ref_render(report)
    assert capsys.readouterr().out == out + "\n"
    assert cli._render(report, "text") == ref_text(report)
