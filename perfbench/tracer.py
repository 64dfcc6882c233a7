"""Spans around the calls into each bcorlicz layer, and the per-layer metrics.

The benchmark never edits the package.  ``installed`` replaces each
traced function at the module attribute where its caller looks it up,
records a span per call, and puts the originals back on exit.
Spans are kept in memory: ``[layer, name, start_ns, end_ns, parent,
request, info]``, with times from ``time.perf_counter_ns`` (the
system-wide monotonic clock on Linux, so a child process's spans line up
with its parent's).
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager, nullcontext

LAYER, NAME, START, END, PARENT, REQUEST, INFO = range(7)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.request = None
        self._stack: list[int] = []

    def open(self, layer: str, name: str, info: dict | None = None) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        info = {} if info is None else info
        self.spans.append([layer, name, time.perf_counter_ns(), 0, parent, self.request, info])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, layer: str, name: str):
        idx = self.open(layer, name)
        try:
            yield
        except BaseException as exc:
            _mark_error(self.spans[idx][INFO], exc)
            raise
        finally:
            self.close(idx)

    def current(self):
        return self.spans[self._stack[-1]] if self._stack else None

    def merge(self, spans: list[list], spawn_ns: int, child_t0_ns: int) -> None:
        """Adopt a child process's spans under the currently open span.

        The gap from spawning the child to its first line is the
        interpreter's start-up and is recorded as its own span.
        """
        parent = self._stack[-1] if self._stack else None
        end = max(spawn_ns, child_t0_ns)
        self.spans.append(["startup", "interpreter", spawn_ns, end, parent, self.request, {}])
        base = len(self.spans)
        for s in spans:
            s = list(s)
            s[PARENT] = parent if s[PARENT] is None else s[PARENT] + base
            s[REQUEST] = self.request
            self.spans.append(s)


def span(tr: Tracer | None, layer: str, name: str):
    return nullcontext() if tr is None else tr.span(layer, name)


def _mark_error(info: dict, exc: BaseException) -> None:
    # an error is counted once, in the innermost span it leaves
    if not getattr(exc, "_perfbench_seen", False):
        info["error"] = type(exc).__name__
        try:
            exc._perfbench_seen = True
        except AttributeError:
            pass


# ----------------------------------------------------------------------
# what is wrapped, and the counters read from each result
# ----------------------------------------------------------------------


def _count_modular(info, args, out):
    info["atoms"] = int(getattr(out, "n_terms", 0) or 0)
    info["status"] = getattr(out, "status", None)


def _count_render(info, args, out):
    info["bytes"] = len(out) if isinstance(out, str) else 0


def _count_distortion(info, args, out):
    ratios = getattr(out, "ratios", None)
    info["atoms"] = int(getattr(ratios, "size", 0))


def _count_parse(info, args, out):
    obj = args[1] if len(args) > 1 else None
    info["values"] = len(obj) if isinstance(obj, list) else 1


ORLICZ = "bcorlicz.orlicz"
CLI = "bcorlicz.cli"
OPS = "bcorlicz.operators"

# (module, attribute, layer, span name, index of the space argument, counter)
FUNCTION_WRAPS = [
    # luxemburg_norm resolves modular at call time through this attribute
    (ORLICZ, "modular", "orlicz", "modular", 2, _count_modular),
    (ORLICZ, "luxemburg_norm", "orlicz", "gauge", 2, None),
    (ORLICZ, "norm_bc", "orlicz", "norm_bc", 2, None),
    (ORLICZ, "pairing", "orlicz", "pairing", 2, None),
    (ORLICZ, "schauder_tail", "orlicz", "schauder_tail", 3, None),
    # the CLI imported these by name, so the orlicz attributes miss its calls
    (CLI, "modular", "orlicz", "modular", 2, _count_modular),
    (CLI, "luxemburg_norm", "orlicz", "gauge", 2, None),
    (CLI, "pairing", "orlicz", "pairing", 2, None),
    (CLI, "schauder_tail", "orlicz", "schauder_tail", 3, None),
    (CLI, "_load_json", "cli", "load", None, None),
    (CLI, "_render", "cli", "render", None, _count_render),
    (CLI, "apply_operator", "operators", "apply", None, None),
    (CLI, "check_composition_bounded", "operators", "check", 0, None),
    (CLI, "check_multiplication_bounded", "operators", "check", 1, None),
    (OPS, "norm_bc", "orlicz", "norm_bc", 2, None),
    (OPS, "weighted_phi_sum", "orlicz", "weighted_phi_sum", None, None),
    (OPS, "distortion_ratios", "measure", "distortion", 0, _count_distortion),
    (OPS, "empirical_operator_norm", "operators", "empirical", 2, None),
    (OPS, "apply_operator", "operators", "apply", None, None),
    (OPS, "check_composition_bounded", "operators", "check", 0, None),
    (OPS, "check_multiplication_bounded", "operators", "check", 1, None),
]

# (module, class, classmethod, layer, span name, counter)
CLASSMETHOD_WRAPS = [
    (ORLICZ, "BCSequence", "from_json_list", "bicomplex", "parse", _count_parse),
    ("bcorlicz.bicomplex", "BiComplex", "from_json_dict", "bicomplex", "parse", _count_parse),
]


def _wrap(tr: Tracer, fn, layer, name, space_arg, counter):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        top = tr.current()
        if layer == "bicomplex" and top is not None and top[LAYER] == "bicomplex":
            # values inside a sequence are counted by the sequence's span
            return fn(*args, **kwargs)
        info = {}
        if space_arg is not None:
            space = args[space_arg] if len(args) > space_arg else kwargs.get("space")
            info["lazy"] = bool(getattr(space, "is_lazy", False))
        idx = tr.open(layer, name, info)
        try:
            out = fn(*args, **kwargs)
        except BaseException as exc:
            _mark_error(info, exc)
            raise
        finally:
            tr.close(idx)
        if counter is not None:
            counter(info, args, out)
        return out

    return traced


@contextmanager
def installed(tr: Tracer):
    """Wrap every traced attribute, and put the originals back.

    A missing attribute raises, so a package whose layout changed fails
    the traced run instead of reading 0 for that layer.
    """
    undo = []
    try:
        for mod_name, attr, layer, name, space_arg, counter in FUNCTION_WRAPS:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr)
            setattr(mod, attr, _wrap(tr, fn, layer, name, space_arg, counter))
            undo.append((mod, attr, fn))
        for mod_name, cls_name, attr, layer, name, counter in CLASSMETHOD_WRAPS:
            cls = getattr(importlib.import_module(mod_name), cls_name)
            raw = vars(cls)[attr]
            setattr(cls, attr, classmethod(_wrap(tr, raw.__func__, layer, name, None, counter)))
            undo.append((cls, attr, raw))
        yield
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------

PER_LAYER = [
    ("startup.python_ms", "ms"),
    ("startup.import_ms", "ms"),
    ("startup.self_ms", "ms"),
    ("cli.self_ms", "ms"),
    ("cli.load_ms", "ms"),
    ("cli.render_ms", "ms"),
    ("cli.render_bytes", "bytes"),
    ("bicomplex.parse_ms", "ms"),
    ("bicomplex.values_parsed", "count"),
    ("measure.distortion_ms", "ms"),
    ("measure.atoms_scanned", "count"),
    ("orlicz.gauge_ms", "ms"),
    ("orlicz.gauge_calls", "count"),
    ("orlicz.modular_per_gauge", "count"),
    ("orlicz.modular_atoms", "count"),
    ("orlicz.full_ns_per_atom", "ns"),
    ("orlicz.lazy_ns_per_atom", "ns"),
    ("orlicz.probe_ms", "ms"),
    ("orlicz.probe_inconclusive_ratio", "ratio"),
    ("orlicz.self_ms", "ms"),
    ("operators.check_ms", "ms"),
    ("operators.empirical_ms", "ms"),
    ("operators.apply_ms", "ms"),
    ("operators.self_ms", "ms"),
    ("cli.errors", "count"),
    ("bicomplex.errors", "count"),
    ("measure.errors", "count"),
    ("orlicz.errors", "count"),
    ("operators.errors", "count"),
    ("trace.req_mean_ms", "ms"),
    ("trace.unattributed_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.witness_failures", "count"),
]

# fresh-interpreter timings, the traced/untraced ratio and the witness
# outcome come from the runner
MEASURED_ELSEWHERE = (
    "startup.python_ms", "startup.import_ms", "trace.overhead_ratio", "trace.witness_failures",
)

# self times that add up to the request time
SELF_PARTS = (
    "startup.self_ms", "cli.self_ms", "cli.load_ms", "cli.render_ms", "bicomplex.parse_ms",
    "measure.distortion_ms", "orlicz.self_ms", "operators.self_ms", "trace.unattributed_ms",
)

PROBES = ("modular", "pairing", "schauder_tail")


def requests_by_kind(spans: list[list]) -> dict[str, set]:
    kinds: dict[str, set] = {}
    for s in spans:
        if s[LAYER] == "request":
            kinds.setdefault(s[NAME], set()).add(s[REQUEST])
    return kinds


def layer_metrics(spans: list[list], n_requests: int, only: set | None = None) -> dict[str, float]:
    """Per-request layer figures from the spans of ``n_requests`` requests,
    or of the requests whose ids are in ``only``.

    Self time is a span's duration minus its children's durations; the
    self times of all spans in a request, plus the request span's own
    self time (``trace.unattributed_ms``), add up to the request time.
    An error counts only in a request that failed: an error the request's
    oracle accepts, such as an honest ``UnsupportedInstanceError``, is an
    answer, not a failure.
    """
    dur = [(s[END] - s[START]) / 1e6 for s in spans]
    self_ms = list(dur)
    for s, d in zip(spans, dur):
        if s[PARENT] is not None:
            self_ms[s[PARENT]] -= d

    def ancestors(i):
        p = spans[i][PARENT]
        while p is not None:
            yield spans[p]
            p = spans[p][PARENT]

    failed = {s[REQUEST] for s in spans if s[LAYER] == "request" and s[INFO].get("failed")}
    t = dict.fromkeys((name for name, _ in PER_LAYER if name not in MEASURED_ELSEWHERE), 0.0)
    probes_judged = probes_inconclusive = modular_in_gauge = 0.0
    # modular time and atoms, on full arrays (False) and lazy spaces (True)
    modular_ms, modular_atoms = {False: 0.0, True: 0}, {False: 0, True: 0}
    for i, s in enumerate(spans):
        layer, name, info = s[LAYER], s[NAME], s[INFO]
        if s[REQUEST] is None or (only is not None and s[REQUEST] not in only):
            continue
        if "error" in info and s[REQUEST] in failed and f"{layer}.errors" in t:
            t[f"{layer}.errors"] += 1
        key = f"{layer}.{name}"
        if layer == "request":
            t["trace.req_mean_ms"] += dur[i]
            t["trace.unattributed_ms"] += self_ms[i]
        elif layer == "startup":
            t["startup.self_ms"] += self_ms[i]
        elif key == "cli.main":
            t["cli.self_ms"] += self_ms[i]
        elif key == "cli.load":
            t["cli.load_ms"] += self_ms[i]
        elif key == "cli.render":
            t["cli.render_ms"] += self_ms[i]
            t["cli.render_bytes"] += info.get("bytes", 0)
        elif layer == "bicomplex":
            t["bicomplex.parse_ms"] += self_ms[i]
            t["bicomplex.values_parsed"] += info.get("values", 0)
        elif layer == "measure":
            t["measure.distortion_ms"] += self_ms[i]
            t["measure.atoms_scanned"] += info.get("atoms", 0)
        elif layer == "orlicz":
            t["orlicz.self_ms"] += self_ms[i]
        elif layer == "operators":
            t["operators.self_ms"] += self_ms[i]
            if name == "check":
                t["operators.check_ms"] += self_ms[i]
            elif name == "empirical":
                t["operators.empirical_ms"] += dur[i]
            elif name == "apply":
                t["operators.apply_ms"] += dur[i]
        if key == "orlicz.gauge":
            t["orlicz.gauge_ms"] += dur[i]
            t["orlicz.gauge_calls"] += 1
        if key == "orlicz.modular":
            lazy = bool(info.get("lazy"))
            modular_ms[lazy] += dur[i]
            modular_atoms[lazy] += info.get("atoms", 0)
            if any(a[LAYER] == "orlicz" and a[NAME] == "gauge" for a in ancestors(i)):
                modular_in_gauge += 1
        if layer == "orlicz" and name in PROBES and info.get("lazy"):
            # a lazy probe the caller asked for directly, not one inside
            # a gauge solve or an operator check
            if not any(a[LAYER] in ("orlicz", "operators") for a in ancestors(i)):
                t["orlicz.probe_ms"] += dur[i]
                if name != "pairing":
                    probes_judged += 1
                    probes_inconclusive += (
                        info.get("status") == "inconclusive"
                        or info.get("error") == "UnsupportedInstanceError"
                    )

    t["orlicz.modular_atoms"] = modular_atoms[False] + modular_atoms[True]
    n = max(n_requests, 1)
    out = {key: value / n for key, value in t.items()}
    out["orlicz.modular_per_gauge"] = (
        modular_in_gauge / t["orlicz.gauge_calls"] if t["orlicz.gauge_calls"] else 0.0
    )
    for lazy, key in ((False, "orlicz.full_ns_per_atom"), (True, "orlicz.lazy_ns_per_atom")):
        atoms = modular_atoms[lazy]
        out[key] = modular_ms[lazy] * 1e6 / atoms if atoms else 0.0
    out["orlicz.probe_inconclusive_ratio"] = (
        probes_inconclusive / probes_judged if probes_judged else 0.0
    )
    return out
