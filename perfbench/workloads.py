"""The two benchmark workloads and the oracle behind every request.

Each workload function writes its seeded inputs into the run's work directory,
builds the library objects it needs and returns the request mix of one
closed-loop pass.  The counts in each mix are chosen so that the median and
the 90th percentile each fall inside a cluster of requests of similar
latency rather than on the gap between two clusters (see NOTES.md).

Library functions are looked up on their module at call time, so the
traced run's wrappers, and a test's deliberately wrong stand-ins, are
the functions that run.
"""

from __future__ import annotations

import functools
import json
import math
import os
import subprocess
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import oracles as orc
import probe

PHIS = ("power:p=1.5", "power:p=2", "power:p=3", "exp", "entropy")


class Mismatch(Exception):
    """An answer that its oracle rejects."""


def expect(ok: bool, reason: str) -> None:
    if not ok:
        raise Mismatch(reason)


def expect_none(reason: str | None) -> None:
    if reason is not None:
        raise Mismatch(reason)


@dataclass
class Request:
    kind: str
    call: Callable  # call(tracer or None) -> answer
    check: Callable  # check(answer) -> None, or raises Mismatch
    # when set, an exception from ``call`` is handed to ``check`` as the
    # answer instead of failing the request outright
    judges_errors: bool = False


@dataclass
class Workload:
    requests: list[Request]
    # one timing of the reference probe, in ms (see probe.py); it runs
    # before every ``probe_every``-th timed request
    probe: Callable[[], float]
    probe_every: int = 1
    # requests that run once after the timed loop and are reported on
    # their own; see NOTES.md for why they are not in the timed mix
    witnesses: list[Request] = field(default_factory=list)


@dataclass
class Context:
    root: Path
    workdir: Path
    seed: int
    python: str
    env: dict
    cap_s: float
    smoke: bool = False

    def __post_init__(self):
        self.rng = np.random.default_rng([self.seed, 20140127])

    def write(self, name: str, obj) -> str:
        path = self.workdir / name
        path.write_text(json.dumps(obj))
        return str(path)

    def complex_normal(self, n: int) -> np.ndarray:
        return self.rng.standard_normal(n) + 1j * self.rng.standard_normal(n)


def bc_json(b1: complex, b2: complex) -> dict:
    return {"idempotent": {"b1": [b1.real, b1.imag], "b2": [b2.real, b2.imag]}}


def seq_json(f1, f2) -> list:
    return [bc_json(complex(a), complex(b)) for a, b in zip(f1, f2)]


# ----------------------------------------------------------------------
# CLI requests
# ----------------------------------------------------------------------


def cli_process(ctx: Context, kind: str, argv: list, check) -> Request:
    """One ``python -m bcorlicz`` subprocess per request, under the cap."""
    argv = [str(a) for a in argv]
    spans_path = str(ctx.workdir / "child_spans.json")
    child = str(Path(__file__).with_name("cli_child.py"))

    def call(tr):
        if tr is None:
            cmd = [ctx.python, "-m", "bcorlicz", *argv]
        else:
            cmd = [ctx.python, child, spans_path, *argv]
        spawn = time.perf_counter_ns()
        done = subprocess.run(
            cmd, capture_output=True, text=True, timeout=ctx.cap_s, env=ctx.env, cwd=ctx.root
        )
        if tr is not None:
            with open(spans_path) as fh:
                dumped = json.load(fh)
            os.unlink(spans_path)
            tr.merge(dumped["spans"], spawn, dumped["t0"])
        return done.returncode, done.stdout

    return Request(kind, call, check)


def report_of(answer) -> dict:
    code, text = answer
    expect(code == 0, f"exit code {code}")
    return json.loads(text)


def result_value(report: dict, name: str):
    for r in report["results"]:
        if r["name"] == name:
            return r["value"]
    raise Mismatch(f"report has no {name!r} result")


def check_norm(spec, f1, f2, w, read=lambda answer: answer):
    """Norm oracle; the bracket is solved on first use, outside any timing."""
    bracket = functools.cache(lambda: orc.norm_bracket(spec, f1, f2, w))

    def check(answer):
        expect_none(orc.check_norm(spec, bracket(), read(answer)))

    return check


def check_cli_pairing(x, y, w):
    want = [np.sum(x[k] * y[k] * w) for k in (0, 1)]
    scale = [np.sum(np.abs(x[k] * y[k] * w)) for k in (0, 1)]

    def check(answer):
        got = orc.bc_from_json(result_value(report_of(answer), "pairing"))
        for k in (0, 1):
            expect(
                abs(got[k] - want[k]) <= 1e-12 * scale[k],
                f"pairing component {k + 1}: got {got[k]!r}, want {want[k]!r}",
            )

    return check


def check_cli_schauder(x, w, p, n):
    tails = [float(np.sum(np.abs(x[k][n:]) ** p * w[n:])) ** (1 / p) for k in (0, 1)]
    want = math.hypot(*tails) / orc.SQRT2

    def check(answer):
        got = result_value(report_of(answer), "tail_norm")
        expect_none(orc.close(float(got), want, 1e-12, "schauder tail"))

    return check


# ----------------------------------------------------------------------
# cli: one fresh interpreter per request, small inputs and 2000-atom files
# ----------------------------------------------------------------------


def small_commands(ctx: Context) -> tuple[list[Request], Request]:
    """The README commands and the small commands: the light ones, and the
    README ``op check``, whose 5-trial empirical probe makes it heavy."""
    rng = ctx.rng
    s = ctx.root / "sample_inputs"

    def readme_product(answer):
        v = result_value(report_of(answer), "product")
        expect(v["idempotent"] == {"b1": [0.0, 0.0], "b2": [0.0, 0.0]}, f"e * e-dagger is {v}")
        expect(v["cartesian"] == {"z1": [0.0, 0.0], "z2": [0.0, 0.0]}, f"e * e-dagger is {v}")

    def readme_norm(answer):
        report = report_of(answer)
        norm = orc.gauge_value(result_value(report, "norm"))[0]
        expect_none(orc.close(norm, 5 / orc.SQRT2, 1e-12, "norm"))
        for which, want in ((1, 3.0), (2, 4.0)):
            got = orc.gauge_value(result_value(report, f"luxemburg_norm_component_{which}"))[0]
            expect_none(orc.close(got, want, 1e-12, f"component {which} gauge"))

    def readme_check(answer):
        v = result_value(report_of(answer), "boundedness")
        expect(v["verdict"] == "bounded" and v["bound"] == 1.0, f"{v['verdict']}, {v['bound']}")
        # criterion 6: empirical ratios stay at or below the certificate
        expect(0 < v["empirical_norm"] <= 1.0 + 1e-10, f"empirical norm {v['empirical_norm']}")

    p = round(float(rng.uniform(1.5, 4.0)), 3)

    def phi_check(spec, family):
        def check(answer):
            v = result_value(report_of(answer), "phi_report")
            nf = v["n_function"]
            expect(v["family"] == family, f"family {v['family']}")
            expect(v["convexity_ok"] and nf["limit0_ok"], f"{spec}: {v}")
            expect(nf["continuous_ok"] and nf["vanishes_only_at_0"], f"{spec}: {v}")
            k, holds = v["delta2"]["K_estimate"], v["delta2"]["holds_on_grid"]
            if family == "power":
                # phi(2u)/phi(u) = 2^p at every u
                expect(holds and nf["limit_inf_ok"], f"{spec}: {v}")
                expect_none(orc.close(k, 2.0**p, 1e-9, "doubling constant"))
            elif family == "exp":
                expect(not holds and k == "inf", f"exp doubling: {k} {holds}")
            else:
                # 2 log(1+2u)/log(1+u) rises to 4 as u -> 0
                expect(holds and 3.99 <= k <= 4.0, f"entropy doubling: {k}")

        return check

    # roots: each component polynomial is built from known roots
    deg = int(rng.integers(3, 5))
    while True:
        r1, r2 = ctx.complex_normal(deg), ctx.complex_normal(deg)
        gaps = [abs(a - b) for r in (r1, r2) for i, a in enumerate(r) for b in r[i + 1:]]
        if min(gaps) > 0.3:
            break
    lead = ctx.complex_normal(2) + 1.0
    c1 = (lead[0] * np.poly(r1))[::-1]
    c2 = (lead[1] * np.poly(r2))[::-1]
    coeffs = ctx.write("coeffs.json", seq_json(c1, c2))

    def roots_check(answer):
        found = [orc.bc_from_json(v) for v in result_value(report_of(answer), "roots")]
        expect(len(found) == deg * deg, f"{len(found)} roots for degree {deg}")
        pairs = set()
        for b1, b2 in found:
            i = int(np.argmin(np.abs(r1 - b1)))
            j = int(np.argmin(np.abs(r2 - b2)))
            expect(abs(r1[i] - b1) < 1e-7 and abs(r2[j] - b2) < 1e-7, f"stray root {b1}, {b2}")
            pairs.add((i, j))
        expect(len(pairs) == deg * deg, "roots repeat a component pair")

    zd = ctx.complex_normal(1)[0] + 0.5
    zero_divisor = ctx.write("zero_divisor.json", bc_json(zd, 0j))

    def invert_check(answer):
        report = report_of(answer)
        v = result_value(report, "error_certificate")
        expect(report["status"] == "error_certificate", f"status {report['status']}")
        expect(v["error"] == "not_invertible", f"certificate {v['error']}")

    n = int(rng.integers(3, 7))
    w = rng.uniform(0.5, 2.0, n)
    x = (ctx.complex_normal(n), ctx.complex_normal(n))
    y = (ctx.complex_normal(n), ctx.complex_normal(n))
    theta = (ctx.complex_normal(n), ctx.complex_normal(n))
    space = ctx.write("small_space.json", {"weights": w.tolist()})
    xf = ctx.write("small_x.json", seq_json(*x))
    yf = ctx.write("small_y.json", seq_json(*y))
    thetaf = ctx.write("small_theta.json", seq_json(*theta))
    sups = [float(np.abs(t).max()) for t in theta]

    def mult_check(answer):
        v = result_value(report_of(answer), "boundedness")
        expect(v["verdict"] == "bounded", f"verdict {v['verdict']}")
        for got, want in zip(v["ess_sups"], sups):
            expect_none(orc.close(got, want, 1e-12, "symbol sup"))
        expect_none(orc.close(v["bound"], max(sups), 1e-12, "multiplication bound"))

    readme_op_check = cli_process(
        ctx,
        "readme op check",
        ["op", "check", "--kind", "composition", "--map", s / "shift.json",
         "--space", s / "counting.json", "--phi", "power:p=2"],
        readme_check,
    )
    light = [
        cli_process(
            ctx, "readme bc eval mul",
            ["bc", "eval", "--op", "mul", "--lhs", s / "e.json", "--rhs", s / "edag.json"],
            readme_product,
        ),
        cli_process(ctx, "phi classify power", ["phi", "classify", "--phi", f"power:p={p}"],
                    phi_check(f"power:p={p}", "power")),
        cli_process(ctx, "bc eval roots", ["bc", "eval", "--op", "roots", "--coeffs", coeffs],
                    roots_check),
        cli_process(ctx, "phi classify exp", ["phi", "classify", "--phi", "exp"],
                    phi_check("exp", "exp")),
        cli_process(
            ctx, "readme norm",
            ["norm", "--phi", "power:p=2", "--space", s / "one_atom.json", "--seq", s / "f.json"],
            readme_norm,
        ),
        cli_process(ctx, "bc eval invert zero divisor",
                    ["bc", "eval", "--op", "invert", "--lhs", zero_divisor], invert_check),
        cli_process(
            ctx, "op check multiplication",
            ["op", "check", "--kind", "multiplication", "--theta", thetaf, "--space", space,
             "--phi", "power:p=2"],
            mult_check,
        ),
        cli_process(ctx, "pairing small", ["pairing", "--x", xf, "--y", yf, "--space", space],
                    check_cli_pairing(x, y, w)),
        cli_process(ctx, "phi classify entropy", ["phi", "classify", "--phi", "entropy"],
                    phi_check("entropy", "entropy")),
        cli_process(
            ctx, "schauder small",
            ["schauder", "--seq", xf, "--space", space, "--p", "2", "--n", "1"],
            check_cli_schauder(x, w, 2.0, 1),
        ),
    ]
    return light, readme_op_check


def large_commands(ctx: Context) -> tuple[list[Request], list[Request], Request]:
    """Commands on 2000-atom files, where loading, parsing and rendering
    the report add to the start-up: the light ones (each ``norm``, the
    composition check and ``schauder``), the middle ones (``pairing`` and
    the composition ``op apply``), and the multiplication ``op apply``,
    whose report is the largest."""
    rng = ctx.rng
    n = 200 if ctx.smoke else 2000
    w = rng.uniform(0.5, 2.0, n)
    f = (ctx.complex_normal(n), ctx.complex_normal(n))
    g = (ctx.complex_normal(n), ctx.complex_normal(n))
    theta = (ctx.complex_normal(n), ctx.complex_normal(n))
    table = rng.integers(1, n + 1, n)
    comp_table = rng.integers(1, n + 1, n)
    sample = (np.full(n, 1.0 + 0j), rng.uniform(-2, 2, n) + 0j)

    space = ctx.write("space.json", {"weights": w.tolist()})
    seq = ctx.write("seq.json", seq_json(*f))
    seq2 = ctx.write("seq2.json", seq_json(*g))
    imap = ctx.write("map.json", {"map": table.tolist()})
    comp = ctx.write("composition.json", {"composition": {"map": comp_table.tolist()}})
    mult = ctx.write("multiplication.json", {"multiplication": {"theta": seq_json(*theta)}})
    samplef = ctx.write("sample.json", seq_json(*sample))

    def image_check(want):
        def check(answer):
            got = orc.components_from_json(result_value(report_of(answer), "image_sequence"))
            for k in (0, 1):
                err = np.abs(got[k] - want[k])
                expect(bool(np.all(err <= 1e-14 * np.abs(want[k]))), f"image component {k + 1}")

        return check

    sup = orc.composition_certificate(table, w)

    def comp_check(answer):
        v = result_value(report_of(answer), "boundedness")
        expect(v["verdict"] == "bounded", f"verdict {v['verdict']}")
        expect_none(orc.close(v["sup_distortion"], sup, 1e-12, "sup distortion"))
        expect(v["bound"] == v["sup_distortion"], "bound is not the distortion sup")
        # a finite-space sample has a finite modular at every scale
        expect(v["lambda_pairs"] == [[1.0, 1.0]], f"lambda pairs {v['lambda_pairs']}")

    norms = [
        cli_process(ctx, f"norm {spec}", ["norm", "--phi", spec, "--space", space, "--seq", seq],
                      check_norm(spec, *f, w, read=lambda a: result_value(report_of(a), "norm")))
        for spec in PHIS
    ]
    apply_mult = cli_process(
        ctx, "op apply multiplication",
        ["op", "apply", "--operator", mult, "--space", space, "--seq", seq],
        image_check((theta[0] * f[0], theta[1] * f[1])),
    )
    light = norms + [
        cli_process(
            ctx, "op check composition",
            ["op", "check", "--kind", "composition", "--map", imap, "--space", space,
             "--phi", "power:p=2", "--samples", samplef, "--trials", "0"],
            comp_check,
        ),
        cli_process(
            ctx, "schauder",
            ["schauder", "--seq", seq, "--space", space, "--p", "2", "--n", str(n // 2)],
            check_cli_schauder(f, w, 2.0, n // 2),
        ),
    ]
    middle = [
        cli_process(ctx, "pairing", ["pairing", "--x", seq, "--y", seq2, "--space", space],
                    check_cli_pairing(f, g, w)),
        cli_process(
            ctx, "op apply composition",
            ["op", "apply", "--operator", comp, "--space", space, "--seq", seq],
            image_check((f[0][comp_table - 1], f[1][comp_table - 1])),
        ),
    ]
    return light, middle, apply_mult


def cli(ctx: Context) -> Workload:
    """How a CLI user meets the program: ``python -m bcorlicz`` per request.

    By latency, one pass holds the ten light small commands (about 40 %
    start-up alone); the light 2000-atom commands, each ``norm`` twice,
    which hold the median in their middle; the two middle 2000-atom
    commands; and six heavy ones (the README ``op check`` four times, the
    multiplication ``op apply`` twice), which hold the 90th percentile.
    """
    small, readme_op_check = small_commands(ctx)
    large, middle, apply_mult = large_commands(ctx)
    norms, rest = large[:5], large[5:]
    mix = (small[:5] + norms + [readme_op_check, middle[0], apply_mult, readme_op_check] + rest
           + small[5:] + [readme_op_check] + norms + [middle[1], apply_mult, readme_op_check])
    # a fresh-interpreter probe takes about 180 ms; before every third
    # request it costs about 15 % of the loop and still samples it evenly
    fresh = functools.partial(probe.fresh_process_ms, ctx.python, ctx.env, ctx.root)
    return Workload(mix, probe=fresh, probe_every=3)


# ----------------------------------------------------------------------
# library: the gauge on full arrays, and the block march and distortion
# scans on rule-backed inputs, with no CLI in the path
# ----------------------------------------------------------------------


def gauge_requests(ctx: Context) -> tuple[list[Request], list[Request]]:
    """Gauges on finite spaces of three sizes, and empirical operator
    norms: the light requests, and the five gauges on the largest arrays."""
    import bcorlicz
    from bcorlicz import operators, orlicz

    rng = ctx.rng
    sizes = (100, 300, 1000) if ctx.smoke else (10**3, 10**4, 10**5)
    cases = []
    for n in sizes:
        w = rng.uniform(0.5, 2.0, n)
        f1, f2 = ctx.complex_normal(n), ctx.complex_normal(n)
        cases.append((n, w, f1, f2, bcorlicz.AtomicMeasureSpace.finite(w),
                      bcorlicz.BCSequence.from_components(f1, f2)))

    def norm_request(spec, n, w, f1, f2, space, F):
        phi = bcorlicz.OrliczFunction.parse(spec)
        return Request(
            f"norm_bc {spec} n={n}",
            lambda tr: orlicz.norm_bc(phi, F, space),
            check_norm(spec, f1, f2, w),
        )

    n, w, _, _, space, _ = cases[0]
    table = rng.integers(1, n + 1, n)
    p2 = bcorlicz.OrliczFunction.power(2)
    comp = bcorlicz.BCOperator.composition(bcorlicz.IndexMap.from_table(table))
    comp_cert = orc.composition_certificate(table, w) ** 0.5
    t1, t2 = ctx.complex_normal(n), ctx.complex_normal(n)
    mult = bcorlicz.BCOperator.multiplication(bcorlicz.BCSequence.from_components(t1, t2))
    mult_cert = max(float(np.abs(t1).max()), float(np.abs(t2).max()))
    seed = ctx.seed

    def below(cert, what):
        # criteria 6 and 7: no empirical ratio exceeds the certificate
        def check(answer):
            expect(0 < answer <= cert + 1e-8, f"{what} empirical norm {answer!r} > {cert!r}")

        return check

    empirical = [
        Request(
            f"empirical composition n={n}",
            lambda tr: operators.empirical_operator_norm(comp, p2, space, trials=2, seed=seed),
            below(comp_cert, "composition"),
        ),
        Request(
            f"empirical multiplication n={n}",
            lambda tr: operators.empirical_operator_norm(mult, p2, space, trials=2, seed=seed),
            below(mult_cert, "multiplication"),
        ),
    ]
    small, middle, large = ([norm_request(spec, *case) for spec in PHIS] for case in cases)
    return small + middle + empirical, large


def _lazy_modular_check(terms, truth, diverges: bool):
    """Oracle for one lazy modular probe.

    ``terms(k)`` are the series terms at 1-based indices ``k`` and
    ``truth`` brackets the full sum.  A converged answer must lie in the
    bracket, an inconclusive one must be the partial sum over the atoms
    it reports, and ``diverged`` is right only for a divergent series.
    """

    partial_sums = {}

    def partial(n_terms):
        if n_terms not in partial_sums:
            k = np.arange(1, n_terms + 1, dtype=float)
            partial_sums[n_terms] = float(np.sum(terms(k)))
        return partial_sums[n_terms]

    def check(mv):
        if mv.status == "diverged":
            expect(diverges and mv.value == math.inf, f"diverged on a convergent series: {mv}")
        elif mv.status == "inconclusive":
            expect_none(orc.close(mv.value, partial(mv.n_terms), 1e-9, "partial sum"))
        else:
            expect(not diverges and mv.status == "converged", f"status {mv.status} on {mv}")
            expect_none(orc.in_bracket(mv.value, truth, 1e-9, "converged sum"))

    return check


def lazy_requests(ctx: Context):
    """Probes, gauges and operator checks on lazy ``counting`` and
    ``geometric:0.5`` spaces: the light requests, the three full-budget
    block marches, the middle requests (the two-sided pairing march and
    the wide distortion scan) and the inclusion witness."""
    import bcorlicz
    from bcorlicz import operators, orlicz

    rng = ctx.rng
    n_max = 10**4 if ctx.smoke else 10**6
    counting = bcorlicz.AtomicMeasureSpace.counting(n_max)
    geometric = bcorlicz.AtomicMeasureSpace.geometric(0.5, n_max)
    power = bcorlicz.OrliczFunction.power
    exp_phi = bcorlicz.OrliczFunction.exp_type()
    c = [round(float(v), 6) for v in rng.uniform(0.5, 2.0, 8)]
    k_geo = np.arange(1, 2001, dtype=float)  # 0.5^2000 underflows: the rest is 0
    a_geo = 0.5 ** (k_geo - 1)
    z2, z4, z6 = (orc.zeta_bracket(s) for s in (2, 4, 6))

    def scaled(bracket, factor):
        return bracket[0] * factor, bracket[1] * factor

    def modular_request(kind, phi, rule, space, terms, truth, diverges=False):
        return Request(
            f"modular {kind}",
            lambda tr: orlicz.modular(phi, rule, space),
            _lazy_modular_check(terms, truth, diverges),
        )

    def gauge_request(kind, phi, rule, space, bracket):
        def check(answer):
            expect_none(orc.in_bracket(orc.gauge_value(answer)[0], bracket, 1e-9, kind))

        def call(tr):
            return orlicz.luxemburg_norm(phi, rule, space)

        return Request(f"luxemburg_norm {kind}", call, check)

    exp_mags = c[4] * 0.9**k_geo
    gauges = [
        gauge_request("p=2 c/n geometric", power(2), lambda i: c[0] / i, geometric,
                      (math.sqrt(float(np.sum((c[0] / k_geo) ** 2 * a_geo))),) * 2),
        gauge_request("p=2 c/n^2 counting", power(2), lambda i: c[1] / i**2, counting,
                      tuple(c[1] * math.sqrt(b) for b in z4)),
        gauge_request("p=2 c*0.9^n counting", power(2), lambda i: c[2] * 0.9**i, counting,
                      (c[2] * math.sqrt(0.81 / 0.19),) * 2),
        gauge_request("p=3 c/n^2 counting", power(3), lambda i: c[3] / i**2, counting,
                      tuple(c[3] * b ** (1 / 3) for b in z6)),
        gauge_request("exp c*0.9^n geometric", exp_phi, lambda i: c[4] * 0.9**i, geometric,
                      orc.gauge_bracket("exp", exp_mags, a_geo)),
    ]

    converge = [
        modular_request("p=2 c/n^2 counting (converges)", power(2), lambda i: c[1] / i**2,
                        counting, lambda k: c[1] ** 2 / k**4, scaled(z4, c[1] ** 2)),
        modular_request("p=1 c*0.9^n counting (converges)", power(1), lambda i: c[2] * 0.9**i,
                        counting, lambda k: c[2] * 0.9**k, (9 * c[2], 9 * c[2])),
        modular_request("exp c/n geometric (converges)", exp_phi, lambda i: c[0] / i, geometric,
                        lambda k: (np.expm1(c[0] / k) - c[0] / k) * 0.5 ** (k - 1),
                        (float(np.sum((np.expm1(c[0] / k_geo) - c[0] / k_geo) * a_geo)),) * 2),
    ]
    diverge = modular_request("p=1 c/n counting (diverges)", power(1), lambda i: c[5] / i,
                              counting, lambda k: c[5] / k, (math.inf, math.inf), diverges=True)
    inconclusive = modular_request(
        "p=2 c/n counting (inconclusive)", power(2), lambda i: c[5] / i, counting,
        lambda k: c[5] ** 2 / k**2, scaled(z2, c[5] ** 2),
    )

    # pairing: component 1 sums (-1)^n c/n^2 = -c pi^2/12, component 2 c/n^3
    x = bcorlicz.BCSequence.from_rules(lambda i: c[6] / i, lambda i: c[6] / i)
    y = bcorlicz.BCSequence.from_rules(lambda i: (-1.0) ** i / i, lambda i: 1.0 / i**2)
    z3 = orc.zeta_bracket(3)

    # a probe stopped at n atoms misses at most 2/n^2 of either sum
    pairing_tol = c[6] * max(1e-9, 2.0 / n_max**2)

    def pairing_check(answer):
        got = (answer.beta1, answer.beta2)
        want = (-c[6] * math.pi**2 / 12, c[6] * 0.5 * (z3[0] + z3[1]))
        for k in (0, 1):
            expect(abs(got[k] - want[k]) <= pairing_tol, f"component {k + 1}: {got[k]}, {want[k]}")

    def pairing_call(tr):
        with warnings.catch_warnings():
            # the first component's probe cannot settle within budget and says so
            warnings.simplefilter("ignore", RuntimeWarning)
            return orlicz.pairing(x, y, counting)

    # Schauder tail of c/n past n = 10 in l^2: the probe cannot settle,
    # and the honest answer is UnsupportedInstanceError
    tail_f = bcorlicz.BCSequence.from_rules(lambda i: c[7] / i, lambda i: c[7] / i)
    head = float(np.sum(1.0 / np.arange(1, 11, dtype=float) ** 2))
    tail = tuple(c[7] * math.sqrt(b - head) for b in z2)

    def schauder_check(answer):
        if isinstance(answer, BaseException):
            expect(type(answer).__name__ == "UnsupportedInstanceError", f"raised {answer!r}")
        else:
            expect_none(orc.in_bracket(float(answer), tail, 1e-9, "schauder tail"))

    sample = bcorlicz.BCSequence.from_components(ctx.complex_normal(12), ctx.complex_normal(12))
    p2 = power(2)
    shift = bcorlicz.IndexMap.right_shift()

    def shift_check(report):
        expect(report.verdict == "bounded", f"right shift verdict {report.verdict}")
        expect(report.sup_distortion == 1.0, f"right shift sup {report.sup_distortion}")
        # a finitely supported sample has a finite modular at every scale
        pairs = [list(p) for p in report.lambda_pairs]
        expect(pairs == [[1.0, 1.0]], f"lambda pairs {pairs}")

    halving = bcorlicz.IndexMap.from_rule(lambda i: i // 2 + 1, name="n//2+1")
    k60 = np.arange(1, 61)
    half_sup = orc.composition_certificate(k60 // 2 + 1, 0.5 ** (k60 - 1.0))

    def halving_check(report):
        expect(report.verdict == "bounded", f"n//2+1 verdict {report.verdict}")
        expect_none(orc.close(report.sup_distortion, half_sup, 1e-12, "n//2+1 sup"))

    growing = bcorlicz.BCSequence.from_rules(
        lambda i: c[3] * np.log(i + 1.0), lambda i: np.ones(i.shape)
    )

    def growing_check(report):
        expect(report.verdict == "unbounded", f"growing symbol verdict {report.verdict}")
        want = c[3] * math.log(n_max + 1.0)
        expect_none(orc.close(report.ess_sups[0], want, 1e-12, "symbol sup"))
        expect(report.ess_sups[1] == 1.0, f"constant symbol sup {report.ess_sups[1]}")

    checks = [
        Request("check composition right shift + sample",
                lambda tr: operators.check_composition_bounded(counting, shift, p2, (sample,)),
                shift_check),
        Request("check composition n//2+1 geometric",
                lambda tr: operators.check_composition_bounded(geometric, halving, p2),
                halving_check),
        Request("check multiplication growing symbol",
                lambda tr: operators.check_multiplication_bounded(growing, counting),
                growing_check),
    ]
    probes = [
        Request("pairing c/n with (-1)^n/n, 1/n^2", pairing_call, pairing_check),
        Request("schauder_tail c/n p=2 (inconclusive)",
                lambda tr: orlicz.schauder_tail(tail_f, 10, 2.0, counting), schauder_check,
                judges_errors=True),
    ]

    light = converge + gauges + [checks[2], checks[0]]
    marches = [diverge, inconclusive, probes[1]]
    middle = [probes[0], checks[1], checks[1]]

    # f = c/n lies in l^2 (the paper's inclusion witness), so the gauge is
    # between the partial and the full sum of c^2/n^2
    witness_n = 10**4 if ctx.smoke else 10**5
    head_sum = float(np.sum(1.0 / np.arange(1, witness_n + 1, dtype=float) ** 2))
    witness_lo = c[5] * math.sqrt(head_sum)
    witness = gauge_request(
        f"p=2 c/n counting({witness_n}) (inclusion witness)", p2, lambda i: c[5] / i,
        bcorlicz.AtomicMeasureSpace.counting(witness_n), (witness_lo, c[5] * math.sqrt(z2[1])),
    )
    return light, marches, middle, witness


def library(ctx: Context) -> Workload:
    """The library's own callers, with no CLI in the path.

    By latency, one pass holds 22 light requests (small and 1e4-atom
    gauges, empirical norms, settled probes, lazy gauges, the symbol and
    right-shift scans); the three full-budget block marches, eight times
    each, which hold the median in their middle; nine middle requests
    (pairing marches and the ``n//2+1`` distortion scan); and the five
    1e5-atom gauges twice, which hold the 90th percentile.
    """
    gauge_light, gauge_large = gauge_requests(ctx)
    lazy_light, marches, middle, witness = lazy_requests(ctx)
    light = gauge_light + lazy_light
    mix = []
    for i in range(8):
        mix += marches + light[i::8]
        mix += middle if i in (1, 4, 6) else []
        mix += gauge_large if i in (3, 7) else []
    return Workload(mix, probe=probe.in_process_ms, witnesses=[witness])


BY_NAME = {"cli": cli, "library": library}
