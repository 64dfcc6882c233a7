"""The three README example reports, byte for byte.

Each command runs through ``bcorlicz.cli.main`` on the files in
``sample_inputs/``, and its stdout must equal the report committed under
``tests/golden/``; the product report is also pinned in ``--format
text``.  A refactor keeps these reports as they are; a change
that means to alter one regenerates its golden file and says why.
"""

from pathlib import Path

import pytest

from bcorlicz.cli import main

HERE = Path(__file__).resolve().parent
SAMPLES = HERE.parent / "sample_inputs"

EXAMPLES = {
    "bc_eval_mul": ["bc", "eval", "--op", "mul", "--lhs", "e.json", "--rhs", "edag.json"],
    "norm_one_atom": [
        "norm", "--phi", "power:p=2", "--space", "one_atom.json", "--seq", "f.json",
    ],
    "op_check_shift": [
        "op", "check", "--kind", "composition", "--map", "shift.json",
        "--space", "counting.json", "--phi", "power:p=2",
    ],
}


def run(capsys, monkeypatch, argv) -> bytes:
    monkeypatch.delenv("BCORLICZ_CONFIG", raising=False)
    argv = [str(SAMPLES / a) if a.endswith(".json") else a for a in argv]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    return captured.out.encode()


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_readme_example_report_is_unchanged(capsys, monkeypatch, name):
    out = run(capsys, monkeypatch, EXAMPLES[name])
    assert out == (HERE / "golden" / f"{name}.json").read_bytes()


def test_readme_product_text_report_is_unchanged(capsys, monkeypatch):
    out = run(capsys, monkeypatch, EXAMPLES["bc_eval_mul"] + ["--format", "text"])
    assert out == (HERE / "golden" / "bc_eval_mul.txt").read_bytes()
