"""Command line interface emitting deterministic JSON reports.

Every command resolves its configuration from built-in defaults, then a
JSON defaults file named by the BCORLICZ_CONFIG environment variable,
then explicit flags; the resolved configuration is echoed in the
report.  JSON is the single source format and the text format is a
rendering of the same report.  Exit codes: 0 success, 1 input errors,
2 under --strict when a verdict is unbounded or a result is an error
certificate.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from .bicomplex import BiComplex, classify, is_json_number, poly_roots
from .errors import (
    BCOrliczError,
    InvalidInputError,
    NotInSpaceError,
    NotInvertibleError,
    NotSummableError,
    UnsupportedInstanceError,
)
from .measure import DEFAULT_N_MAX, AtomicMeasureSpace, IndexMap
from .operators import (
    BCOperator,
    apply_operator,
    check_composition_bounded,
    check_multiplication_bounded,
)
from .orlicz import (
    BCSequence,
    OrliczFunction,
    classify_phi,
    combine_gauges,
    luxemburg_norm,
    modular,
    norm_bc,
    pairing,
    schauder_tail,
)

__all__ = ["main"]

_DEFAULTS = {
    "format": "json",
    "strict": False,
    "seed": 0,
    "tol": 1e-12,
    "eps": 1e-12,
    "n_max": None,
    "block": 1000,
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
    common.add_argument("--block", type=int, default=None)

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
        "n_max": lambda v: v is None or (is_json_number(v) and isinstance(v, int) and v >= 1),
        "block": lambda v: is_json_number(v) and isinstance(v, int) and v >= 1,
        "trials": lambda v: is_json_number(v) and isinstance(v, int) and v >= 0,
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


def _space_with_budget(space: AtomicMeasureSpace, n_max) -> AtomicMeasureSpace:
    if n_max is None or not space.is_lazy:
        return space
    return AtomicMeasureSpace(weights=None, rule=space.rule, n_max=int(n_max))


# ----------------------------------------------------------------------
# report assembly
# ----------------------------------------------------------------------


def _sanitize(obj):
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
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


def _render(report: dict, fmt: str) -> str:
    clean = _sanitize(report)
    if fmt == "json":
        return json.dumps(clean, indent=2, sort_keys=True)
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

    walk(clean, 0)
    return "\n".join(lines)


def _result(name: str, value, produced_by: str) -> dict:
    return {"name": name, "value": value, "produced_by": produced_by}


_CERTIFICATE_KINDS = (
    (NotInvertibleError, "not_invertible"),
    (UnsupportedInstanceError, "unsupported_instance"),
    (NotInSpaceError, "not_in_space"),
    (NotSummableError, "not_summable"),
)


def _certificate(exc: BCOrliczError) -> dict:
    kind = "error"
    for cls, name in _CERTIFICATE_KINDS:
        if isinstance(exc, cls):
            kind = name
            break
    value = {"error": kind, "detail": str(exc)}
    diagnosis = getattr(exc, "classification", None)
    if diagnosis is not None:
        value["classification"] = {
            "kind": diagnosis.kind,
            "vanishing": list(diagnosis.vanishing),
            "threshold": diagnosis.threshold,
        }
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


def _cmd_bc_eval(args, config, report):
    op = args.op
    inputs = report["inputs"]
    inputs["op"] = op
    eps = args.eps if args.eps is not None else config["eps"]
    inputs["eps"] = eps

    def load_value(flag: str) -> BiComplex:
        path = getattr(args, flag)
        if path is None:
            raise InvalidInputError(f"--{flag} is required for --op {op}")
        raw = _load_json(path)
        inputs[flag] = raw
        return BiComplex.from_json_dict(raw)

    results = report["results"]
    if op in ("add", "sub", "mul"):
        lhs = load_value("lhs")
        rhs = load_value("rhs")
        value = {"add": lhs + rhs, "sub": lhs - rhs, "mul": lhs * rhs}[op]
        name = {"add": "sum", "sub": "difference", "mul": "product"}[op]
        results.append(
            _result(name, value.to_json_dict(), f"componentwise {op} in the idempotent basis")
        )
    elif op in ("bar", "dagger", "star"):
        lhs = load_value("lhs")
        results.append(
            _result(
                "conjugate",
                lhs.conjugate(op).to_json_dict(),
                f"{op} conjugation in idempotent coordinates",
            )
        )
    elif op == "classify":
        lhs = load_value("lhs")
        diagnosis = classify(lhs, eps)
        results.append(
            _result(
                "classification",
                {
                    "kind": diagnosis.kind,
                    "vanishing": list(diagnosis.vanishing),
                    "threshold": diagnosis.threshold,
                },
                "componentwise modulus test against the scaled tolerance",
            )
        )
    elif op == "invert":
        lhs = load_value("lhs")
        try:
            inv = lhs.invert(eps)
        except NotInvertibleError as exc:
            results.append(_certificate(exc))
            report["status"] = "error_certificate"
            return
        results.append(
            _result("inverse", inv.to_json_dict(), "componentwise reciprocal of the betas")
        )
    else:  # roots
        if args.coeffs is None:
            raise InvalidInputError("--coeffs is required for --op roots")
        raw = _load_json(args.coeffs)
        inputs["coeffs"] = raw
        if not isinstance(raw, list):
            raise InvalidInputError("--coeffs file must hold a JSON array of coefficients")
        coeffs = [BiComplex.from_json_dict(c) for c in raw]
        try:
            found = poly_roots(coeffs, eps)
        except UnsupportedInstanceError as exc:
            results.append(_certificate(exc))
            report["status"] = "error_certificate"
            return
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


_POWER_GAUGE = "closed form (sum |f_n|^p a_n)^(1/p), checked against I(f/lam) <= 1"
_ROOT_GAUGE = "bracketed regula falsi on log I(t f) = 0 over log t, checked against I(f/lam) <= 1"


def _cmd_norm(args, config, report):
    phi = OrliczFunction.parse(args.phi)
    space_raw = _load_json(args.space)
    seq_raw = _load_json(args.seq)
    report["inputs"].update({"phi": phi.spec_string(), "space": space_raw, "seq": seq_raw})
    space = _space_with_budget(AtomicMeasureSpace.from_json_dict(space_raw), config["n_max"])
    F = BCSequence.from_json_list(seq_raw)
    results = report["results"]
    gauges = []
    for which in (1, 2):
        mv = modular(phi, F.component(which), space, block=config["block"])
        results.append(_modular_result(f"modular_component_{which}", mv))
        if mv.status == "inconclusive":
            report["warnings"].append(
                f"modular probe for component {which} inconclusive after {mv.n_terms} atoms"
            )
        try:
            gauge = luxemburg_norm(
                phi, F.component(which), space, tol=config["tol"], block=config["block"]
            )
        except (NotInSpaceError, UnsupportedInstanceError) as exc:
            results.append(_certificate(exc))
            report["status"] = "error_certificate"
            return
        gauges.append(gauge)
        results.append(
            _result(
                f"luxemburg_norm_component_{which}",
                gauge,
                _POWER_GAUGE if phi.family == "power" else _ROOT_GAUGE,
            )
        )
    combined = combine_gauges(gauges[0], gauges[1])
    results.append(
        _result(
            "norm",
            combined,
            "component gauges combined as sqrt((n1^2 + n2^2) / 2)",
        )
    )


def _cmd_op_apply(args, config, report):
    op_raw = _load_json(args.operator)
    space_raw = _load_json(args.space)
    seq_raw = _load_json(args.seq)
    report["inputs"].update({"operator": op_raw, "space": space_raw, "seq": seq_raw})
    op = BCOperator.from_json_dict(op_raw)
    space = _space_with_budget(AtomicMeasureSpace.from_json_dict(space_raw), config["n_max"])
    F = BCSequence.from_json_list(seq_raw)
    G = apply_operator(op, F, space)
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
    space_raw = _load_json(args.space)
    report["inputs"].update({"kind": args.kind, "phi": phi.spec_string(), "space": space_raw})
    space = _space_with_budget(AtomicMeasureSpace.from_json_dict(space_raw), config["n_max"])
    budget = config["n_max"] if config["n_max"] is not None else DEFAULT_N_MAX
    if args.kind == "composition":
        if args.map is None:
            raise InvalidInputError("--map is required for --kind composition")
        map_raw = _load_json(args.map)
        report["inputs"]["map"] = map_raw
        imap = IndexMap.from_json_dict(map_raw)
        samples = []
        for path in args.samples:
            sample_raw = _load_json(path)
            report["inputs"].setdefault("samples", []).append(sample_raw)
            samples.append(BCSequence.from_json_list(sample_raw))
        verdict_report = check_composition_bounded(
            space,
            imap,
            phi,
            tuple(samples),
            budget=budget,
            trials=config["trials"],
            seed=config["seed"],
            tol=config["tol"],
            block=config["block"],
        )
    else:
        if args.theta is None:
            raise InvalidInputError("--theta is required for --kind multiplication")
        theta_raw = _load_json(args.theta)
        report["inputs"]["theta"] = theta_raw
        theta = BCSequence.from_json_list(theta_raw)
        verdict_report = check_multiplication_bounded(theta, space, budget=budget)
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
    probe = classify_phi(phi)
    report["results"].append(
        _result(
            "phi_report",
            {
                "family": phi.family,
                "convexity_ok": probe.convexity_ok,
                "n_function": {
                    "limit0_ok": probe.n_function.limit0_ok,
                    "limit_inf_ok": probe.n_function.limit_inf_ok,
                    "continuous_ok": probe.n_function.continuous_ok,
                    "vanishes_only_at_0": probe.n_function.vanishes_only_at_0,
                },
                "delta2": {
                    "K_estimate": probe.delta2.k_estimate,
                    "holds_on_grid": probe.delta2.holds_on_grid,
                },
                "label": probe.label,
            },
            "sampled grid probe of convexity, limits, continuity and doubling",
        )
    )


def _cmd_schauder(args, config, report):
    space_raw = _load_json(args.space)
    seq_raw = _load_json(args.seq)
    report["inputs"].update({"space": space_raw, "seq": seq_raw, "p": args.p, "n": args.n})
    space = _space_with_budget(AtomicMeasureSpace.from_json_dict(space_raw), config["n_max"])
    F = BCSequence.from_json_list(seq_raw)
    try:
        tail = schauder_tail(F, args.n, args.p, space, block=config["block"])
    except (NotInSpaceError, UnsupportedInstanceError) as exc:
        report["results"].append(_certificate(exc))
        report["status"] = "error_certificate"
        return
    report["results"].append(
        _result(
            "tail_norm",
            tail,
            f"weighted l^p tail beyond index {args.n}, combined across components",
        )
    )


def _cmd_pairing(args, config, report):
    space_raw = _load_json(args.space)
    x_raw = _load_json(args.x)
    y_raw = _load_json(args.y)
    report["inputs"].update({"space": space_raw, "x": x_raw, "y": y_raw})
    space = _space_with_budget(AtomicMeasureSpace.from_json_dict(space_raw), config["n_max"])
    x = BCSequence.from_json_list(x_raw)
    y = BCSequence.from_json_list(y_raw)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            value = pairing(x, y, space, block=config["block"])
    except NotSummableError as exc:
        report["results"].append(_certificate(exc))
        report["status"] = "error_certificate"
        return
    for w in caught:
        report["warnings"].append(str(w.message))
    report["results"].append(
        _result(
            "pairing",
            value.to_json_dict(),
            "componentwise weighted sum over atoms",
        )
    )


_COMMANDS = {
    ("bc", "eval"): _cmd_bc_eval,
    ("norm", None): _cmd_norm,
    ("op", "apply"): _cmd_op_apply,
    ("op", "check"): _cmd_op_check,
    ("phi", "classify"): _cmd_phi_classify,
    ("schauder", None): _cmd_schauder,
    ("pairing", None): _cmd_pairing,
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
    try:
        _COMMANDS[key](args, config, report)
    except BCOrliczError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(_render(report, config["format"]))
    if config["strict"]:
        if report["status"] == "error_certificate":
            return 2
        if report.get("verdicts", {}).get("boundedness") == "unbounded":
            return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
