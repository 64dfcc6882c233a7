"""Tests of the benchmark itself.

Run with ``PYTHONPATH=src python3 -m pytest perfbench``.  Every run here
is a smoke run: each request kind once, on small inputs.
"""

import json
import math
import shutil
import subprocess
import sys

import pytest

import run
import tracer

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]

# the layers each workload exists to load must show up in its trace
LOADED = {
    "cli": ("startup.self_ms", "cli.self_ms", "cli.load_ms", "cli.render_ms", "cli.render_bytes",
            "bicomplex.parse_ms", "bicomplex.values_parsed", "orlicz.gauge_ms",
            "orlicz.modular_per_gauge", "measure.distortion_ms", "operators.empirical_ms",
            "operators.apply_ms"),
    "library": ("orlicz.gauge_ms", "orlicz.modular_per_gauge", "orlicz.modular_atoms",
                "orlicz.full_ns_per_atom", "orlicz.lazy_ns_per_atom", "orlicz.probe_ms",
                "orlicz.probe_inconclusive_ratio", "orlicz.self_ms", "measure.distortion_ms",
                "measure.atoms_scanned", "operators.check_ms", "operators.empirical_ms"),
}


@pytest.mark.parametrize("name", WORKLOADS)
def test_smoke_run_answers_correctly(name):
    result = run.run(name, seed=3, seconds=1, trace=False, smoke=True)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_run_reports_every_layer_metric(name):
    result = run.run(name, seed=3, seconds=1, trace=True, smoke=True)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(m) == {x["name"] for x in BENCHMARK["per_layer"]}
    assert math.isclose(
        sum(m[k] for k in tracer.SELF_PARTS), m["trace.req_mean_ms"], rel_tol=1e-9
    )
    assert [k for k in LOADED[name] if not m[k] > 0] == []
    # every request passed, so no error counts, not even an accepted one
    assert [k for k in m if k.endswith(".errors") and m[k] != 0] == []


def test_latencies_are_in_probe_units():
    samples = [("a", 10.0, None), ("a", 30.0, None), ("b", 100.0, None)] * 4
    fast = run.end_to_end(samples, [2.0, 2.0], [0.5], 80.0)
    # a slow spell that stretches the requests and the probe alike cancels out
    slow = run.end_to_end([(k, 1.3 * t, f) for k, t, f in samples], [2.6, 2.6], [0.5], 80.0)
    for name in ("req_mean_rel", "req_p50_rel", "req_p90_rel"):
        assert math.isclose(fast[name]["value"], slow[name]["value"])
    assert math.isclose(fast["req_mean_rel"]["value"], 140 / 3 / 2)
    # each request counts at its kind's mean: "a" at 20 ms, "b" at 100 ms
    assert math.isclose(fast["req_p50_rel"]["value"], 10.0)
    assert math.isclose(fast["req_p90_rel"]["value"], 50.0)


def test_wrong_answers_count_as_failures(monkeypatch):
    from bcorlicz import orlicz
    from bcorlicz.errors import NotInSpaceError

    true_gauge = orlicz.luxemburg_norm

    def wrong_gauge(phi, f, space, **kwargs):
        if phi.spec_string() == "exp":
            raise NotInSpaceError("claims the sequence is outside the space")
        value = true_gauge(phi, f, space, **kwargs)
        return value * (1 + 1e-6) if phi.spec_string() == "power:p=2" else value

    monkeypatch.setattr(orlicz, "luxemburg_norm", wrong_gauge)
    result = run.run("library", seed=3, seconds=1, trace=False, smoke=True)
    # the nudged power:p=2 gauge and the refused exp gauge at each of three
    # finite sizes, and on the three p=2 and the one exp lazy inputs; the
    # empirical probes divide two nudged norms and still pass
    assert (result["correct"], result["failed"], result["attempted"]) == (False, 10, 32)

    traced = run.run("library", seed=3, seconds=1, trace=True, smoke=True)
    m = {k: v["value"] for k, v in traced["metrics"].items()}
    # the refused gauges' errors count, in the orlicz layer
    assert m["orlicz.errors"] > 0


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "library", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0 and done.stdout == ""
