"""The Luxemburg gauge solver: regressions and properties.

The regressions run under wall-time caps, so a solver that loops fails
instead of hanging the suite.  The properties are checked with
Hypothesis against a modular written here from the formulas, for all
five Young functions the benchmark uses.
"""

import json
import math
import subprocess
import sys
import time
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcorlicz import (
    AtomicMeasureSpace,
    NotInSpaceError,
    OrliczFunction,
    UnsupportedInstanceError,
    luxemburg_norm,
)

PHIS = ("power:p=1.5", "power:p=2", "power:p=3", "exp", "entropy")


def phi_exact(spec, u):
    if u == 0:
        return Decimal(0)
    if spec == "exp":
        return u.exp() - u - 1
    if spec == "entropy":
        return u * (1 + u).ln()
    return u ** Decimal(spec.split("=", 1)[1])


def level(spec, f, w, lam):
    """``I_phi(f / lam)`` in 40-digit decimal arithmetic, rounded to a float."""
    with localcontext() as ctx:
        ctx.prec = 40
        lam = Decimal(float(lam))
        terms = (
            phi_exact(spec, Decimal(float(abs(x))) / lam) * Decimal(float(a))
            for x, a in zip(f, w)
        )
        return float(sum(terms, Decimal(0)))


# ------------------------------------------------------------ regressions


def run_capped(code, cap_s):
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=cap_s
    )


def test_entry_near_float_max_does_not_hang():
    done = run_capped(
        "from bcorlicz import AtomicMeasureSpace, OrliczFunction, luxemburg_norm\n"
        "print(repr(luxemburg_norm(OrliczFunction.power(2), [1.5e308], "
        "AtomicMeasureSpace.finite([1]))))",
        30,
    )
    assert done.returncode == 0, done.stderr
    assert float(done.stdout) == pytest.approx(1.5e308, rel=1e-12)


def test_cli_norm_near_float_max_exits_cleanly(tmp_path):
    space = tmp_path / "space.json"
    space.write_text(json.dumps({"weights": [1.0]}))
    seq = tmp_path / "seq.json"
    big = {"cartesian": {"z1": [1e308, 0.0], "z2": [1e308, 0.0]}}
    seq.write_text(json.dumps([big]))
    done = subprocess.run(
        [sys.executable, "-m", "bcorlicz", "norm", "--phi", "power:p=2",
         "--space", str(space), "--seq", str(seq)],
        capture_output=True, text=True, timeout=30,
    )
    assert done.returncode in (0, 1)
    assert done.stderr.count("error:") <= 1 and "Traceback" not in done.stderr
    if done.returncode == 0:
        results = {r["name"]: r["value"] for r in json.loads(done.stdout)["results"]}
        # both idempotent components have modulus sqrt(2) * 1e308
        assert results["norm"] == pytest.approx(math.sqrt(2.0) * 1e308, rel=1e-12)


@pytest.mark.parametrize(
    "p, rule, want",
    [
        (2.0, lambda i: 1.0 / i, math.pi / math.sqrt(6.0)),
        (1.0, lambda i: 1.0 / i**2, math.pi**2 / 6.0),
    ],
    ids=["1/n p=2", "1/n^2 p=1"],
)
def test_slowly_settling_probe_gives_the_gauge(p, rule, want):
    # both sequences lie in the space, with the gauge sqrt(zeta(2)) and
    # zeta(2); the three-block probe never settled them within 10^6 atoms
    # and refused, while the dyadic estimate settles within 2^15
    space = AtomicMeasureSpace.counting(10**6)
    start = time.perf_counter()
    assert luxemburg_norm(OrliczFunction.power(p), rule, space) == pytest.approx(want, rel=1e-12)
    assert time.perf_counter() - start < 0.5


def test_diverged_probe_is_outside_the_space():
    with pytest.raises(NotInSpaceError):
        luxemburg_norm(
            OrliczFunction.power(1), lambda i: 1.0 / i, AtomicMeasureSpace.counting(10**5)
        )


def test_gauge_beyond_float_range_is_unsupported():
    # the gauge is 1e313: it must be refused, not chased up to inf
    done = run_capped(
        "from bcorlicz import AtomicMeasureSpace, OrliczFunction, luxemburg_norm\n"
        "luxemburg_norm(OrliczFunction.power(2), [1e308], AtomicMeasureSpace.finite([1e10]))",
        30,
    )
    assert "UnsupportedInstanceError" in done.stderr.splitlines()[-1]


@pytest.mark.parametrize("spec", PHIS)
def test_level_past_the_divergence_guard_is_not_outside(spec):
    # atom 5 weighs 1e16, so the level at the first scale passes the
    # divergence guard although the sequence is finitely supported
    space = AtomicMeasureSpace.geometric(1e4, 100)
    f = np.array([0.0, 0.0, 0.0, 0.0, 1.0])
    phi = OrliczFunction.parse(spec)
    lam = luxemburg_norm(phi, f, space)
    want = luxemburg_norm(phi, f, AtomicMeasureSpace.finite(space.weight_block(np.arange(1, 6))))
    assert abs(lam - want) <= 1e-12 * want
    if spec == "power:p=2":
        assert lam == pytest.approx(1e8, rel=1e-12)


def test_array_is_summed_to_its_last_entry():
    # zero leading blocks must not settle the probe before the one nonzero atom
    space = AtomicMeasureSpace.geometric(10.0, 20)
    f = np.zeros(20)
    f[-1] = 1.0
    lam = luxemburg_norm(OrliczFunction.power(2), f, space)
    assert lam == pytest.approx(math.sqrt(1e19), rel=1e-12)


@pytest.mark.parametrize("spec", ("exp", "entropy"))
def test_lazy_root_solve_survives_the_divergence_guard(spec):
    # one atom of weight 1e-6 puts the root far above the first scale, and
    # the first step overshoots into probes the divergence guard rejects
    space = AtomicMeasureSpace.geometric(1e-3, 100)
    f = np.array([0.0, 0.0, 1.0])
    phi = OrliczFunction.parse(spec)
    lam = luxemburg_norm(phi, f, space)
    w = space.weight_block(np.arange(1, 4))
    assert level(spec, f, w, lam) <= 1.0 + 1e-12 < level(spec, f, w, lam * (1 - 1e-9))


# ------------------------------------------------------------- properties

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)

magnitudes = st.floats(1e-4, 1e4)
sizes = st.integers(1, 12)


@st.composite
def instances(draw):
    n = draw(sizes)
    mags = np.array(draw(st.lists(magnitudes, min_size=n, max_size=n)))
    angles = np.array(draw(st.lists(st.floats(0.0, 2 * math.pi), min_size=n, max_size=n)))
    zeros = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    f = np.where(zeros, 0.0, mags) * np.exp(1j * angles)
    # heavy weights put the gauge where exp(u) - u - 1 is evaluated at tiny u
    w = np.array(draw(st.lists(st.floats(1e-3, 1e12), min_size=n, max_size=n)))
    return draw(st.sampled_from(PHIS)), f, w


@PROPERTY_SETTINGS
@given(instances())
def test_gauge_sits_on_the_level_set(case):
    spec, f, w = case
    lam = luxemburg_norm(OrliczFunction.parse(spec), f, AtomicMeasureSpace.finite(w))
    if not np.any(f):
        assert lam == 0.0
        return
    assert level(spec, f, w, lam) <= 1.0 + 1e-12
    assert level(spec, f, w, lam * (1 - 1e-9)) > 1.0


@PROPERTY_SETTINGS
@given(instances(), st.floats(1e-3, 1e3))
def test_gauge_is_homogeneous(case, c):
    spec, f, w = case
    phi, space = OrliczFunction.parse(spec), AtomicMeasureSpace.finite(w)
    base = luxemburg_norm(phi, f, space)
    assert abs(luxemburg_norm(phi, c * f, space) - c * base) <= 1e-10 * c * base


@PROPERTY_SETTINGS
@given(instances(), st.data())
def test_gauge_grows_with_the_weights(case, data):
    spec, f, w = case
    extra = np.array(data.draw(st.lists(st.floats(0.0, 1e3), min_size=w.size, max_size=w.size)))
    phi = OrliczFunction.parse(spec)
    light = luxemburg_norm(phi, f, AtomicMeasureSpace.finite(w))
    heavy = luxemburg_norm(phi, f, AtomicMeasureSpace.finite(w + extra))
    assert heavy >= light * (1 - 1e-12)


# (ratio, n_max) of the lazy spaces; None is counting measure.  Ratios
# above 1 keep n_max where ratio^(n_max - 1) is still a finite float.
LAZY_SPACES = ((None, 10**4), (0.5, 10**4), (0.9, 10**4), (2.0, 10**3), (1e4, 70))


# a finitely supported component is summed exactly on either space, over
# the same weights, so the gauges agree bit for bit
@settings(PROPERTY_SETTINGS, max_examples=150)
@given(instances(), st.sampled_from(LAZY_SPACES))
def test_finite_support_gives_the_same_gauge_on_a_lazy_space(case, lazy_space):
    spec, f, _ = case
    ratio, n_max = lazy_space
    lazy = (
        AtomicMeasureSpace.counting(n_max)
        if ratio is None
        else AtomicMeasureSpace.geometric(ratio, n_max)
    )
    finite = AtomicMeasureSpace.finite(lazy.weight_block(np.arange(1, f.size + 1)))
    phi = OrliczFunction.parse(spec)
    want = luxemburg_norm(phi, f, finite)
    got = luxemburg_norm(phi, f, lazy)
    assert got == want
