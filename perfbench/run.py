"""bcorlicz benchmark: closed-loop workloads with oracle-checked answers.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cli|library \\
        --seed N --seconds S --trace 0|1 [--smoke]

One client sends each request only after the previous one returned.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics from a traced pass (and the traced/untraced ratio).
``--smoke`` runs every request kind once on small inputs.  The last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; everything else goes to stderr.  See
NOTES.md for the workloads, the metrics and what each one should move.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracer

ROOT = Path(__file__).resolve().parent.parent
WORK_BASE = ROOT / ".perfbench_work"
WORKLOADS = ("cli", "library")
REQUEST_CAP_S = 20.0
# enough requests that at least ten latencies lie beyond the 90th percentile
MIN_REQUESTS = 100
# fresh set-up processes timed in one run, spread over its timed loop
SETUP_SAMPLES = 10
STARTUP_REPEATS = 5

END_TO_END = {
    "req_mean_rel": "probe",
    "req_p50_rel": "probe",
    "req_p90_rel": "probe",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def log(*parts) -> None:
    print(*parts, file=sys.stderr, flush=True)


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "BCORLICZ_CONFIG"}
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def fix_allocator() -> None:
    """Pin glibc malloc's mmap and trim thresholds for this process.

    By default both thresholds drift upwards as large blocks are freed,
    and until they settle numpy temporaries are mapped and unmapped on
    every call.  One 20 s gauge loop made 5.8 million minor page faults and
    spent half its time in the kernel; the third loop in the same process
    made none.  Fixing the thresholds up front puts the process in that
    settled state at once, so run-to-run spread does not depend on the
    allocator's history.  Child processes keep the defaults.
    """
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        log("mallopt is unavailable; the allocator keeps its defaults")
        return
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    m_trim_threshold, m_mmap_threshold = -1, -3  # from glibc's malloc.h
    if not (mallopt(m_mmap_threshold, 32 << 20) and mallopt(m_trim_threshold, 1 << 30)):
        log("mallopt refused the thresholds; the allocator keeps its defaults")


def build(name: str, seed: int, workdir: Path, smoke: bool):
    import workloads

    ctx = workloads.Context(
        root=ROOT, workdir=workdir, seed=seed, python=sys.executable,
        env=child_env(), cap_s=REQUEST_CAP_S, smoke=smoke,
    )
    return workloads.BY_NAME[name](ctx)


# ----------------------------------------------------------------------
# the closed loop
# ----------------------------------------------------------------------


def timed(req, tr=None) -> tuple[str, float, str | None]:
    """Send one request and judge its answer: ``(kind, ms, failure)``."""
    if tr is not None:
        tr.request = len(tr.spans)
        idx = tr.open("request", req.kind)
    t0 = time.perf_counter()
    try:
        answer = req.call(tr)
    except Exception as exc:  # a raising request is a failed request
        answer = exc
    ms = (time.perf_counter() - t0) * 1e3
    failure = judge(req, answer, ms)
    if tr is not None:
        tr.close(idx)
        tr.request = None
        if failure is not None:
            tr.spans[idx][tracer.INFO]["failed"] = True
    return req.kind, ms, failure


def judge(req, answer, ms: float) -> str | None:
    if ms > REQUEST_CAP_S * 1e3:
        return f"over the {REQUEST_CAP_S:g} s cap"
    if isinstance(answer, BaseException) and not req.judges_errors:
        return f"raised {type(answer).__name__}: {answer}"
    try:
        req.check(answer)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


def hard_stop_s(seconds: float) -> float:
    """When a loop stops even short of its request count, so that a slow
    program still ends inside the time limit."""
    return min(max(2 * seconds, 10.0), 100.0)


def closed_loop(requests, seconds: float, min_requests: int, probe, probe_every: int,
                aside=None, every_s=math.inf) -> tuple[list, list]:
    """Whole passes over the mix until ``seconds`` and ``min_requests`` are
    both reached: the request samples, and the probe's times in ms.
    ``probe()`` runs before every ``probe_every``-th request, and
    ``aside()``, when given, between two requests once every ``every_s``
    seconds, so that their samples see the same changes in the machine's
    speed as the requests do."""
    samples, probes = [], []
    start = due = time.perf_counter()
    while True:
        for req in requests:
            if aside is not None and time.perf_counter() >= due:
                aside()
                due += every_s
            if len(samples) % probe_every == 0:
                probes.append(probe())
            samples.append(timed(req))
            if time.perf_counter() - start > hard_stop_s(seconds):
                log(f"hard stop after {len(samples)} requests")
                return samples, probes
        if time.perf_counter() - start >= seconds and len(samples) >= min_requests:
            return samples, probes


def alternating(requests, seconds: float, tr, once: bool = False) -> tuple[list, list]:
    """Untraced and traced passes in turn, so that a change in the
    machine's speed during the run reaches both alike."""
    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        untraced += [timed(r) for r in requests]
        with tracer.installed(tr):
            traced += [timed(r, tr) for r in requests]
        elapsed = time.perf_counter() - start
        if once or elapsed > hard_stop_s(seconds) or (elapsed >= seconds and len(traced) >= 20):
            return untraced, traced


def distinct(requests):
    seen, out = set(), []
    for r in requests:
        if id(r) not in seen:
            seen.add(id(r))
            out.append(r)
    return out


# ----------------------------------------------------------------------
# measurements outside the loop
# ----------------------------------------------------------------------


def fresh_process_s(argv: list[str], ready_line: bool = False) -> float:
    """Wall time of a fresh interpreter, to its 'ready' line or its exit."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=ROOT, env=child_env()
    )
    try:
        if ready_line:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
        _, err = proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if not ready_line:
        elapsed = time.perf_counter() - t0
    if proc.returncode != 0 or (ready_line and line.strip() != b"ready"):
        raise RuntimeError(f"{argv[1:]} failed: {err.decode(errors='replace')[-2000:]}")
    return elapsed


def setup_seconds(workload: str, seed: int) -> float:
    """Set-up time of a fresh workload process, start to first request."""
    argv = [sys.executable, str(Path(__file__)), "--setup-only", "--workload", workload,
            "--seed", str(seed)]
    return fresh_process_s(argv, ready_line=True)


def startup_ms(repeats: int) -> tuple[float, float]:
    """Median bare interpreter start, and the median extra for ``import bcorlicz``."""
    bare = [fresh_process_s([sys.executable, "-c", "pass"]) for _ in range(repeats)]
    imp = [fresh_process_s([sys.executable, "-c", "import bcorlicz"]) for _ in range(repeats)]
    return statistics.median(bare) * 1e3, (statistics.median(imp) - statistics.median(bare)) * 1e3


def peak_rss_mb(workload: str, seed: int, smoke: bool) -> float:
    """Peak RSS of a fresh process that builds the workload and sends each
    request once, unchecked, so that no oracle's memory counts."""
    argv = [sys.executable, str(Path(__file__)), "--rss-only", "--workload", workload,
            "--seed", str(seed)] + (["--smoke"] if smoke else [])
    done = subprocess.run(argv, capture_output=True, text=True, timeout=120, cwd=ROOT,
                          env=child_env())
    if done.returncode != 0:
        raise RuntimeError(f"--rss-only failed: {done.stderr[-2000:]}")
    return float(done.stdout.split()[-1])


def environment() -> dict:
    import numpy

    src_lines = sum(
        len(p.read_text().splitlines()) for p in sorted((ROOT / "src" / "bcorlicz").glob("*.py"))
    )
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "src_bcorlicz_lines": src_lines,
    }


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------


def deciles(ms: list[float]) -> tuple[float, float]:
    if len(ms) < 2:
        return ms[0], ms[0]
    q = statistics.quantiles(ms, n=10)
    return q[4], q[8]


def summarize(label: str, samples: list) -> None:
    ms = [s[1] for s in samples]
    p50, p90 = deciles(ms)
    by_kind: dict[str, list] = {}
    for kind, t, failure in samples:
        by_kind.setdefault(kind, []).append((t, failure))
    log(f"[{label}] {len(ms)} requests, p50 {p50:.3f} ms, p90 {p90:.3f} ms "
        f"({sum(t > p90 for t in ms)} beyond p90)")
    ranked = sorted(samples, key=lambda s: s[1])
    for q, name in ((0.5, "p50"), (0.9, "p90")):
        # the kinds right around the percentile's rank; one kind means the
        # percentile does not sit on the boundary between two kinds
        mid = int(q * len(ranked))
        near = {s[0] for s in ranked[max(0, mid - 2): mid + 3]}
        log(f"  {name} falls among: {sorted(near)}")
    for kind, rows in by_kind.items():
        fails = [f for _, f in rows if f]
        log(f"  {kind:48s} n={len(rows):4d} median {statistics.median(t for t, _ in rows):9.3f} ms"
            + (f"  FAILED {len(fails)}: {fails[0]}" if fails else ""))


def end_to_end(samples: list, probes: list[float], setup: list[float], rss_mb: float) -> dict:
    """Latencies in multiples of the probe's mean time over the same loop.

    The percentiles are taken over the mix with each request at its
    kind's mean latency: a mean moves smoothly with the share of the loop
    the machine spent in a slow spell, as the probe's mean does, where a
    median of raw latencies jumps between the two speeds (NOTES.md)."""
    unit = statistics.fmean(probes)
    by_kind: dict[str, list] = {}
    for kind, t, _ in samples:
        by_kind.setdefault(kind, []).append(t)
    kind_mean = {k: statistics.fmean(v) for k, v in by_kind.items()}
    p50, p90 = deciles([kind_mean[s[0]] for s in samples])
    mean = statistics.fmean(s[1] for s in samples)
    log(f"probe: {len(probes)} samples, mean {unit:.3f} ms; request mean {mean:.3f} ms, "
        f"kind-mean p50 {p50:.3f} ms, p90 {p90:.3f} ms")
    values = {
        "req_mean_rel": mean / unit,
        "req_p50_rel": p50 / unit,
        "req_p90_rel": p90 / unit,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss_mb,
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    fix_allocator()
    WORK_BASE.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_BASE))
    try:
        wl = build(workload, seed, workdir, smoke)
        # the warm-up pass fills caches and primes the oracles; it is judged, not timed
        passes = {"warm-up": [timed(r) for r in distinct(wl.requests)]}
        requests = distinct(wl.requests) if smoke else wl.requests
        setup, probes = [], []
        if trace:
            tr = tracer.Tracer()
            passes["untraced"], passes["traced"] = alternating(requests, seconds, tr, once=smoke)
        elif not smoke:
            passes["untraced"], probes = closed_loop(
                requests, seconds, MIN_REQUESTS, wl.probe, wl.probe_every,
                aside=lambda: setup.append(setup_seconds(workload, seed)),
                every_s=seconds / SETUP_SAMPLES,
            )
        # outside the timed mix; see NOTES.md
        witnessed = [timed(r) for r in wl.witnesses]
        untraced = passes.get("untraced", passes["warm-up"])

        for label, samples in passes.items():
            summarize(label, samples)
        for kind, ms, failure in witnessed:
            log(f"[witness] {kind}: {ms:.1f} ms, "
                + ("answer accepted" if failure is None else f"KNOWN DEFECT: {failure}"))
        sent = [s for samples in passes.values() for s in samples]
        failed = sum(1 for s in sent if s[2] is not None)
        log(f"fail_ratio {failed / len(sent):.6f} ({failed} of {len(sent)} requests)")

        if trace:
            python_ms, import_ms = startup_ms(1 if smoke else STARTUP_REPEATS)
            values = tracer.layer_metrics(tr.spans, len(passes["traced"]))
            values["startup.python_ms"] = python_ms
            values["startup.import_ms"] = import_ms
            values["trace.overhead_ratio"] = (
                deciles([s[1] for s in passes["traced"]])[0] / deciles([s[1] for s in untraced])[0]
            )
            values["trace.witness_failures"] = sum(1 for w in witnessed if w[2] is not None)
            metrics = {k: {"value": values[k], "unit": unit} for k, unit in tracer.PER_LAYER}
            for kind, ids in tracer.requests_by_kind(tr.spans).items():
                row = tracer.layer_metrics(tr.spans, len(ids), only=ids)
                parts = ", ".join(f"{k} {row[k]:.3f}" for k in tracer.SELF_PARTS if row[k])
                log(f"  [traced] {kind}: {row['trace.req_mean_ms']:.3f} ms; self ms: {parts}; "
                    f"{row['orlicz.gauge_calls']:.1f} gauges in {row['orlicz.gauge_ms']:.3f} ms, "
                    f"{row['orlicz.modular_per_gauge']:.1f} modular calls per gauge")
        else:
            setup = setup or [setup_seconds(workload, seed)]
            probes = probes or [wl.probe()]
            log(f"setup_s samples: {[round(s, 4) for s in setup]}")
            metrics = end_to_end(untraced, probes, setup, peak_rss_mb(workload, seed, smoke))
        log("env " + json.dumps(environment()))
        return {
            "correct": failed == 0, "attempted": len(sent), "failed": failed, "metrics": metrics,
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def setup_only(workload: str, seed: int) -> None:
    """Body of the fresh process that ``setup_seconds`` times."""
    WORK_BASE.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"setup-{workload}-", dir=WORK_BASE))
    try:
        build(workload, seed, workdir, smoke=False)
        print("ready", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def rss_only(workload: str, seed: int, smoke: bool) -> None:
    """Body of the fresh process that ``peak_rss_mb`` reads: build, send
    each request once, and print the peak RSS in MB.  For ``cli`` that is
    the largest ``python -m bcorlicz`` child."""
    fix_allocator()
    WORK_BASE.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"rss-{workload}-", dir=WORK_BASE))
    try:
        for req in distinct(build(workload, seed, workdir, smoke).requests):
            try:
                req.call(None)
            except Exception:  # an answer is judged by the timed runs, not here
                pass
        who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
        print(resource.getrusage(who).ru_maxrss / 1024.0)  # Linux reports KiB
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="each request kind once, small inputs")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--rss-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not ((ROOT / "src/bcorlicz/__init__.py").is_file() and (ROOT / "sample_inputs").is_dir()):
        log(f"error: {ROOT} holds no bcorlicz checkout (needs src/bcorlicz and sample_inputs/)")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    os.environ.pop("BCORLICZ_CONFIG", None)

    if args.setup_only:
        setup_only(args.workload, args.seed)
        return 0
    if args.rss_only:
        rss_only(args.workload, args.seed, args.smoke)
        return 0
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
