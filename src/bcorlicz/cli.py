"""Command line interface emitting deterministic JSON reports.

Every command resolves its configuration from built-in defaults, then a
JSON defaults file named by the BCORLICZ_CONFIG environment variable,
then explicit flags; the resolved configuration is echoed in the
report.  JSON is the single source format and the text format is a
rendering of the same report.  A certified refusal raised by any
command (not invertible, unsupported instance, not in the space, not
summable) becomes the report's error certificate.  Exit codes: 0
success, 1 input errors, 2 under --strict when a verdict is unbounded or
a result is an error certificate.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import json
import math
import operator
import os
import sys
from pathlib import Path

from .bicomplex import BiComplex, classify, is_json_number, pair_norm, poly_roots
from .errors import MAX_BUDGET as _N_MAX_CAP  # the longest window a lazy read takes
from .errors import MAX_TRIALS as _TRIALS_CAP
from .errors import (
    BCOrliczError,
    InvalidInputError,
    NotInSpaceError,
    NotInvertibleError,
    NotSummableError,
    UnsupportedInstanceError,
)
from .young import OrliczFunction, classify_phi

__all__ = ["main"]

# The array layer, by home module.  These names are bound in this module
# at first use (see ``_bind``), so that a command imports only the
# modules it calls: ``bc eval`` and ``phi classify`` run without numpy.
_LAZY = {
    "measure": ("AtomicMeasureSpace", "IndexMap"),
    "orlicz": ("BCSequence", "luxemburg_norm", "modular", "pairing", "schauder_tail"),
    "operators": (
        "BCOperator",
        "apply_operator",
        "check_composition_bounded",
        "check_multiplication_bounded",
    ),
}


def _bind(*homes: str) -> None:
    """Import ``homes`` and bind their ``_LAZY`` names here.  A name that is
    already bound stays: a wrapper or a spy set on this module wins."""
    scope = globals()
    for home in homes:
        module = importlib.import_module(f".{home}", __package__)
        for name in _LAZY[home]:
            if name not in scope:
                scope[name] = getattr(module, name)


def __getattr__(name):
    for home, names in _LAZY.items():
        if name in names:
            _bind(home)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


_DEFAULTS = {
    "format": "json",
    "strict": False,
    "seed": 0,
    "tol": 1e-12,
    "eps": 1e-12,
    "n_max": None,
    "trials": 5,
}

_CONFIG_ENV = "BCORLICZ_CONFIG"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--format", choices=("json", "text"), default=None)
    common.add_argument("--strict", action="store_true", default=None)
    common.add_argument("--seed", type=int, default=None)
    common.add_argument("--tol", type=float, default=None)
    common.add_argument("--n-max", type=int, default=None, dest="n_max")

    parser = _Parser(prog="bcorlicz", description="bicomplex Orlicz sequence-space toolkit")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_bc = sub.add_parser("bc", help="bicomplex arithmetic")
    bc_sub = p_bc.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)
    p_eval = bc_sub.add_parser("eval", parents=[common])
    p_eval.add_argument(
        "--op",
        required=True,
        choices=("add", "sub", "mul", "bar", "dagger", "star", "invert", "classify", "roots"),
    )
    p_eval.add_argument("--lhs", help="JSON file with a bicomplex value")
    p_eval.add_argument("--rhs", help="JSON file with a bicomplex value")
    p_eval.add_argument("--coeffs", help="JSON file with ascending polynomial coefficients")
    p_eval.add_argument("--eps", type=float, default=None)

    p_norm = sub.add_parser("norm", parents=[common])
    p_norm.add_argument("--phi", required=True)
    p_norm.add_argument("--space", required=True)
    p_norm.add_argument("--seq", required=True)

    p_op = sub.add_parser("op", help="operators")
    op_sub = p_op.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)
    p_apply = op_sub.add_parser("apply", parents=[common])
    p_apply.add_argument("--operator", required=True)
    p_apply.add_argument("--space", required=True)
    p_apply.add_argument("--seq", required=True)
    p_check = op_sub.add_parser("check", parents=[common])
    p_check.add_argument("--kind", required=True, choices=("composition", "multiplication"))
    p_check.add_argument("--map")
    p_check.add_argument("--theta")
    p_check.add_argument("--space", required=True)
    p_check.add_argument("--phi", required=True)
    p_check.add_argument("--samples", nargs="*", default=[])
    p_check.add_argument("--trials", type=int, default=None)

    p_phi = sub.add_parser("phi", help="Young function probes")
    phi_sub = p_phi.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)
    p_classify = phi_sub.add_parser("classify", parents=[common])
    p_classify.add_argument("--phi", required=True)

    p_schauder = sub.add_parser("schauder", parents=[common])
    p_schauder.add_argument("--seq", required=True)
    p_schauder.add_argument("--space", required=True)
    p_schauder.add_argument("--p", required=True, type=float)
    p_schauder.add_argument("--n", required=True, type=int)

    p_pairing = sub.add_parser("pairing", parents=[common])
    p_pairing.add_argument("--x", required=True)
    p_pairing.add_argument("--y", required=True)
    p_pairing.add_argument("--space", required=True)

    return parser


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------


def _validate_config_value(key: str, value):
    checks = {
        "format": lambda v: v in ("json", "text"),
        "strict": lambda v: isinstance(v, bool),
        "seed": lambda v: is_json_number(v) and isinstance(v, int) and v >= 0,
        "tol": lambda v: is_json_number(v) and 0 < v < 1,
        "eps": lambda v: is_json_number(v) and 0 <= v,
        "n_max": lambda v: v is None or (
            is_json_number(v) and isinstance(v, int) and 1 <= v <= _N_MAX_CAP
        ),
        "trials": lambda v: (
            is_json_number(v) and isinstance(v, int) and 0 <= v <= _TRIALS_CAP
        ),
    }
    if key not in checks:
        raise InvalidInputError(
            f"unknown config key {key!r}; known keys: {sorted(checks)}"
        )
    if not checks[key](value):
        raise InvalidInputError(f"config key {key!r} has invalid value {value!r}")


def _resolve_config(args: argparse.Namespace) -> dict:
    resolved = dict(_DEFAULTS)
    config_path = os.environ.get(_CONFIG_ENV)
    if config_path:
        raw = _load_json(config_path)
        if not isinstance(raw, dict):
            raise InvalidInputError(f"{config_path} must hold a JSON object of defaults")
        for key, value in raw.items():
            _validate_config_value(key, value)
            resolved[key] = value
    for key in _DEFAULTS:
        flag = getattr(args, key, None)
        if flag is not None:
            resolved[key] = flag
    for key, value in resolved.items():
        _validate_config_value(key, value)
    return resolved


def _load_json(path: str):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InvalidInputError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"{path} is not valid JSON: {exc}") from exc


def _read(args, report, flag: str, parse):
    """Load the file named by ``--<flag>``, echo its JSON as ``inputs[flag]``
    and return ``parse`` of it."""
    path = getattr(args, flag)
    if path is None:
        mode = f"--op {args.op}" if args.command == "bc" else f"--kind {args.kind}"
        raise InvalidInputError(f"--{flag} is required for {mode}")
    raw = _load_json(path)
    report["inputs"][flag] = raw
    return parse(raw)


def _read_space(args, config, report) -> AtomicMeasureSpace:
    """``--space``, a lazy one truncated at ``n_max`` when that is set."""
    space = _read(args, report, "space", AtomicMeasureSpace.from_json_dict)
    if config["n_max"] is None or not space.is_lazy:
        return space
    return dataclasses.replace(space, n_max=config["n_max"])


def _warn_cut(report, space: AtomicMeasureSpace, **seqs) -> None:
    """One warning when a sequence has more entries than a lazy window: the
    sums stop at the window's end, so its later entries are left out."""
    cut = [
        f"--{flag} has {F.comp1.size} entries"
        for flag, F in seqs.items()
        if space.is_lazy and F.comp1.size > space.size
    ]
    if cut:
        report["warnings"].append(
            f"{' and '.join(cut)} but the lazy window ends at atom {space.size}; "
            "the entries past it are left out"
        )


# ----------------------------------------------------------------------
# report assembly
# ----------------------------------------------------------------------


_quote = json.encoder.encode_basestring_ascii


def _clean(value):
    """One report scalar as JSON reads it: numpy scalars become Python
    values, and nan and +-inf become the strings ``"nan"``, ``"inf"`` and
    ``"-inf"``.  Numpy is looked up, never imported: before it is loaded
    no numpy scalar exists."""
    kind = type(value)
    if kind is not float:
        if kind is str or kind is int or kind is bool or value is None:
            return value
        numpy = sys.modules.get("numpy")
        if numpy is None:
            bools, ints, floats = bool, int, float
        else:
            bools = (bool, numpy.bool_)
            ints, floats = (int, numpy.integer), (float, numpy.floating)
        if isinstance(value, bools):
            return bool(value)
        if isinstance(value, ints):
            return int(value)
        if not isinstance(value, floats):
            return value
        value = float(value)
    if math.isnan(value):
        return "nan"
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return value


def _str_keys(value: dict) -> dict:
    if type(value) is dict and all(type(k) is str for k in value):
        return value
    return {str(k): v for k, v in value.items()}


def _json_leaf(value) -> str:
    value = _clean(value)
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return float.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _emit_json(value, pad: str, out: list) -> None:
    """Append ``value`` as indented JSON text to ``out``; ``pad`` is the
    newline and indentation of the line the value starts on."""
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        value = _str_keys(value)
        inner = pad + "  "
        sep, comma = "{" + inner, "," + inner
        for key in sorted(value):
            out.append(sep + _quote(key) + ": ")
            _emit_json(value[key], inner, out)
            sep = comma
        out.append(pad + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = pad + "  "
        comma = "," + inner
        # a run of finite floats is one join: float.__repr__ refuses any
        # item that is no float, and of its outputs only nan and inf hold an "n"
        try:
            floats = comma.join(map(float.__repr__, value))
        except TypeError:
            floats = None
        if floats is not None and "n" not in floats:
            out.append("[" + inner + floats + pad + "]")
            return
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _emit_json(item, inner, out)
            sep = comma
        out.append(pad + "]")
    else:
        out.append(_json_leaf(value))


def _render(report: dict, fmt: str) -> str:
    """The report as text.  JSON is two-space indented with sorted keys,
    non-ASCII escaped and nan and +-inf as strings: the same bytes as
    ``json.dumps(report, indent=2, sort_keys=True)`` on the report with
    its scalars cleaned, written in one pass."""
    if fmt == "json":
        out = []
        _emit_json(report, "\n", out)
        return "".join(out)
    lines = []

    def walk(value, indent, label=None):
        pad = "  " * indent
        tag = f"{pad}{label}: " if label is not None else pad
        if isinstance(value, dict):
            if label is not None:
                lines.append(f"{pad}{label}:")
            value = _str_keys(value)
            for key in sorted(value):
                walk(value[key], indent + (label is not None), key)
        elif isinstance(value, (list, tuple)):
            if label is not None:
                lines.append(f"{pad}{label}:")
            for item in value:
                if isinstance(item, (dict, list, tuple)):
                    lines.append(f"{pad}  -")
                    walk(item, indent + 2)
                else:
                    lines.append(f"{pad}  - {_clean(item)}")
        else:
            lines.append(f"{tag}{_clean(value)}")

    walk(report, 0)
    return "\n".join(lines)


def _result(name: str, value, produced_by: str) -> dict:
    return {"name": name, "value": value, "produced_by": produced_by}


_CERTIFICATE_KINDS = {
    NotInvertibleError: "not_invertible",
    UnsupportedInstanceError: "unsupported_instance",
    NotInSpaceError: "not_in_space",
    NotSummableError: "not_summable",
}


def _classification(diagnosis) -> dict:
    return {
        "kind": diagnosis.kind,
        "vanishing": list(diagnosis.vanishing),
        "threshold": diagnosis.threshold,
    }


def _certificate(exc: BCOrliczError) -> dict:
    kind = next(name for cls, name in _CERTIFICATE_KINDS.items() if isinstance(exc, cls))
    value = {"error": kind, "detail": str(exc)}
    diagnosis = getattr(exc, "classification", None)
    if diagnosis is not None:
        value["classification"] = _classification(diagnosis)
    return _result("error_certificate", value, "hypothesis check before the operation")


def _modular_result(name: str, mv) -> dict:
    return _result(
        name,
        {"value": mv.value, "status": mv.status, "n_terms": mv.n_terms},
        "weighted phi-sum over atoms with the convergence probe",
    )


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------


def _parse_coeffs(raw) -> list:
    if not isinstance(raw, list):
        raise InvalidInputError("--coeffs file must hold a JSON array of coefficients")
    return [BiComplex.from_json_dict(c) for c in raw]


_RING_OPS = {
    "add": ("sum", operator.add),
    "sub": ("difference", operator.sub),
    "mul": ("product", operator.mul),
}


def _cmd_bc_eval(args, config, report):
    op, eps = args.op, config["eps"]
    report["inputs"].update({"op": op, "eps": eps})
    results = report["results"]
    if op == "roots":
        found = poly_roots(_read(args, report, "coeffs", _parse_coeffs), eps)
        results.append(
            _result(
                "roots",
                [r.to_json_dict() for r in found.roots],
                "componentwise root finding recombined across the idempotent axes",
            )
        )
        results.append(
            _result(
                "residual_bound",
                found.residual_bound,
                "max norm of the polynomial evaluated at the returned roots",
            )
        )
        return
    lhs = _read(args, report, "lhs", BiComplex.from_json_dict)
    if op in ("add", "sub", "mul"):
        rhs = _read(args, report, "rhs", BiComplex.from_json_dict)
        name, combine = _RING_OPS[op]
        value = combine(lhs, rhs)
        results.append(
            _result(name, value.to_json_dict(), f"componentwise {op} in the idempotent basis")
        )
    elif op in ("bar", "dagger", "star"):
        results.append(
            _result(
                "conjugate",
                lhs.conjugate(op).to_json_dict(),
                f"{op} conjugation in idempotent coordinates",
            )
        )
    elif op == "classify":
        results.append(
            _result(
                "classification",
                _classification(classify(lhs, eps)),
                "componentwise modulus test against the scaled tolerance",
            )
        )
    else:  # invert
        inverse = lhs.invert(eps).to_json_dict()
        results.append(_result("inverse", inverse, "componentwise reciprocal of the betas"))


_POWER_GAUGE = "closed form (sum |f_n|^p a_n)^(1/p), checked against I(f/lam) <= 1"
_ROOT_GAUGE = "bracketed regula falsi on log I(t f) = 0 over log t, checked against I(f/lam) <= 1"


def _cmd_norm(args, config, report):
    phi = OrliczFunction.parse(args.phi)
    report["inputs"]["phi"] = phi.spec_string()
    space = _read_space(args, config, report)
    F = _read(args, report, "seq", BCSequence.from_json_list)
    _warn_cut(report, space, seq=F)
    results = report["results"]
    gauges = []
    for which in (1, 2):
        mv = modular(phi, F.component(which), space)
        results.append(_modular_result(f"modular_component_{which}", mv))
        gauge = luxemburg_norm(phi, F.component(which), space, tol=config["tol"])
        gauges.append(gauge)
        results.append(
            _result(
                f"luxemburg_norm_component_{which}",
                gauge,
                _POWER_GAUGE if phi.family == "power" else _ROOT_GAUGE,
            )
        )
    results.append(
        _result(
            "norm",
            pair_norm(*gauges),
            "component gauges combined as sqrt((n1^2 + n2^2) / 2)",
        )
    )


def _cmd_op_apply(args, config, report):
    op = _read(args, report, "operator", BCOperator.from_json_dict)
    space = _read_space(args, config, report)
    G = apply_operator(op, _read(args, report, "seq", BCSequence.from_json_list), space)
    if G.is_lazy:
        raise InvalidInputError(
            "the image sequence is rule-backed and cannot be serialized; "
            "apply the operator on a finite space"
        )
    report["results"].append(
        _result(
            "image_sequence",
            G.to_json_list(),
            "componentwise application along the idempotent axes",
        )
    )


def _cmd_op_check(args, config, report):
    phi = OrliczFunction.parse(args.phi)
    report["inputs"].update({"kind": args.kind, "phi": phi.spec_string()})
    space = _read_space(args, config, report)
    if args.kind == "composition":
        imap = _read(args, report, "map", IndexMap.from_json_dict)
        samples = []
        for path in args.samples:
            sample_raw = _load_json(path)
            report["inputs"].setdefault("samples", []).append(sample_raw)
            samples.append(BCSequence.from_json_list(sample_raw))
        _warn_cut(report, space, **{f"samples {p}": S for p, S in zip(args.samples, samples)})
        verdict_report = check_composition_bounded(
            space,
            imap,
            phi,
            tuple(samples),
            trials=config["trials"],
            seed=config["seed"],
            tol=config["tol"],
        )
    else:
        theta = _read(args, report, "theta", BCSequence.from_json_list)
        verdict_report = check_multiplication_bounded(theta, space)
    report["results"].append(
        _result(
            "boundedness",
            verdict_report.to_json_dict(),
            "certificate scan (mass ratios, component sups, gauge-scale search)",
        )
    )
    report["verdicts"] = {"boundedness": verdict_report.verdict}


def _cmd_phi_classify(args, config, report):
    phi = OrliczFunction.parse(args.phi)
    report["inputs"]["phi"] = phi.spec_string()
    report["results"].append(
        _result(
            "phi_report",
            classify_phi(phi).to_json_dict(),
            "closed form of the family: convexity, N-function limits, continuity, doubling",
        )
    )


def _cmd_schauder(args, config, report):
    space = _read_space(args, config, report)
    F = _read(args, report, "seq", BCSequence.from_json_list)
    _warn_cut(report, space, seq=F)
    report["inputs"].update({"p": args.p, "n": args.n})
    report["results"].append(
        _result(
            "tail_norm",
            schauder_tail(F, args.n, args.p, space),
            f"power:p gauge of each component beyond index {args.n}: {_POWER_GAUGE}; "
            "combined as sqrt((n1^2 + n2^2) / 2)",
        )
    )


def _cmd_pairing(args, config, report):
    space = _read_space(args, config, report)
    x = _read(args, report, "x", BCSequence.from_json_list)
    y = _read(args, report, "y", BCSequence.from_json_list)
    _warn_cut(report, space, x=x, y=y)
    report["results"].append(
        _result(
            "pairing",
            pairing(x, y, space).to_json_dict(),
            "componentwise weighted sum over atoms",
        )
    )


# each command, and the array modules it calls
_ARRAYS = ("measure", "orlicz")
_COMMANDS = {
    ("bc", "eval"): (_cmd_bc_eval, ()),
    ("norm", None): (_cmd_norm, _ARRAYS),
    ("op", "apply"): (_cmd_op_apply, _ARRAYS + ("operators",)),
    ("op", "check"): (_cmd_op_check, _ARRAYS + ("operators",)),
    ("phi", "classify"): (_cmd_phi_classify, ()),
    ("schauder", None): (_cmd_schauder, _ARRAYS),
    ("pairing", None): (_cmd_pairing, _ARRAYS),
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)

    try:
        config = _resolve_config(args)
    except BCOrliczError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    key = (args.command, getattr(args, "subcommand", None))
    command_name = " ".join(part for part in key if part)
    report = {
        "command": command_name,
        "config": dict(config),
        "inputs": {},
        "results": [],
        "warnings": [],
        "status": "ok",
    }
    command, homes = _COMMANDS[key]
    _bind(*homes)
    try:
        command(args, config, report)
    except tuple(_CERTIFICATE_KINDS) as exc:
        report["results"].append(_certificate(exc))
        report["status"] = "error_certificate"
    except BCOrliczError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    try:
        print(_render(report, config["format"]))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe; stdout points at devnull so that the
        # interpreter's flush at shutdown stays quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    if config["strict"]:
        if report["status"] == "error_certificate":
            return 2
        if report.get("verdicts", {}).get("boundedness") == "unbounded":
            return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
