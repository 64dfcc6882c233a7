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


# ------------------------------------------------------- long finite arrays

# On long arrays every argument f_n / lam at the root lies below the
# family's series cut, where the level is a power series over moments; a
# spike puts the largest argument just below or just above the cut.


def long_instance(n, spike):
    rng = np.random.default_rng(n)
    f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    w = 10.0 ** rng.uniform(-3.0, 3.0, n)
    if spike is not None:
        w[0] = 1.0
    return f, w


@pytest.mark.parametrize("spike", (None, 1 - 1e-3, 1 + 1e-3), ids=("no spike", "below", "above"))
@pytest.mark.parametrize("n", (2000, 10**4))
@pytest.mark.parametrize("spec", ("exp", "entropy"))
def test_long_array_gauge_sits_on_the_level_set(spec, n, spike):
    phi = OrliczFunction.parse(spec)
    cut = phi.series()[0]
    f, w = long_instance(n, spike)
    space = AtomicMeasureSpace.finite(w)
    lam = luxemburg_norm(phi, f, space)
    if spike is not None:
        # |f_1| / lam -> spike * cut: the gauge barely moves with one atom
        for _ in range(4):
            f[0] = spike * cut * lam
            lam = luxemburg_norm(phi, f, space)
        assert (np.abs(f).max() / lam < cut) == (spike < 1)
    else:
        assert np.abs(f).max() / lam < cut
    assert level(spec, f, w, lam) <= 1.0 + 1e-12 < level(spec, f, w, lam * (1 - 1e-9))


def wave(m):
    return 1.0 + np.cos(np.arange(1, m + 1))


PAST_UNDERFLOW = np.where(np.arange(1, 1301) > 1100, 1.0, 0.0)
GEOMETRIC_2 = AtomicMeasureSpace.geometric(2.0, 2000)
GEOMETRIC_HALF = AtomicMeasureSpace.geometric(0.5, 2000)
HEAVY = AtomicMeasureSpace.finite(np.full(2000, 1e300))
LIGHT = AtomicMeasureSpace.finite(np.full(2000, 1e-300))
DENORMAL = AtomicMeasureSpace.finite([5e-324])
DENORMAL_BESIDE_1 = AtomicMeasureSpace.finite([5e-324, 1.0])

# (phi, f, space, the gauge of the solve on the level at the sup, relative
# tolerance): weights of +inf past atom 1024 on GEOMETRIC_2 and of 0 past
# atom 1075 on GEOMETRIC_HALF; phi at the cut times 5e-324 underflows to 0,
# yet f does not vanish.  On GEOMETRIC_2 the float level is finite only
# where phi(t u) underflows to 0 on the atoms of weight +inf, so these
# gauges pin that edge; with the weights 2^(n-1) the exp gauge is about
# 4.4e165.  The entropy root on LIGHT lies at log t ~ 680, where the
# solve's float floor, 4 eps (1 + |log t|) ~ 6e-13, is still below tol
# (see _unit_scale).
EDGE_GAUGES = [
    ("exp", wave(1100), GEOMETRIC_2, 8.997654933183099e161, 1e-12),
    ("entropy", wave(1100), GEOMETRIC_2, 1.2724605636061818e162, 1e-12),
    ("exp", wave(1300), GEOMETRIC_HALF, 1.439684931134598, 1e-12),
    ("entropy", wave(1300), GEOMETRIC_HALF, 1.392666771768028, 1e-12),
    ("exp", PAST_UNDERFLOW, GEOMETRIC_HALF, 0.0, 0.0),
    ("entropy", PAST_UNDERFLOW, GEOMETRIC_HALF, 0.0, 0.0),
    ("exp", wave(2000), HEAVY, 3.872849571968856e151, 1e-12),
    ("entropy", wave(2000), HEAVY, 5.477036389709216e151, 1e-12),
    ("exp", wave(2000), LIGHT, 0.002911120854551761, 1e-12),
    ("entropy", wave(2000), LIGHT, 1.354040669782389e-294, 1e-12),
    ("exp", [1.0], DENORMAL, 0.0014088818758690531, 1e-12),
    ("exp", [1.0, 1e-200], DENORMAL_BESIDE_1, 0.0014088818758690531, 1e-12),
    ("entropy", [1.0, 1e-200], DENORMAL_BESIDE_1, 8.064659942363376e-201, 1e-12),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("spec, f, space, want, rel", EDGE_GAUGES)
def test_edge_gauges_keep_their_values(spec, f, space, want, rel):
    lam = luxemburg_norm(OrliczFunction.parse(spec), f, space)
    assert abs(lam - want) <= rel * want


@pytest.mark.parametrize("seed", range(6))
def test_gauge_far_from_t_1_lies_within_tol_of_the_infimum(seed):
    # regression: the solve stopped at the width 16 eps (1 + |log t|), which
    # passes tol = 1e-12 past |log t| = 281; here log t ~ 680, and a gauge
    # 1e-12 below the returned one still satisfied I_phi(f / lam) <= 1
    f = np.random.default_rng(seed).standard_normal(2000)
    w = LIGHT.weights
    lam = luxemburg_norm(OrliczFunction.parse("entropy"), f, LIGHT)
    assert level("entropy", f, w, lam) <= 1.0 + 1e-12
    assert level("entropy", f, w, lam * (1 - 1e-12)) > 1.0


@pytest.mark.parametrize("spec", ("exp", "entropy"))
def test_long_gauge_evaluates_phi_over_the_array_once(spec, monkeypatch):
    # the solve runs on the moments; only the certificate evaluates phi
    n = 10**5
    rng = np.random.default_rng(0)
    f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    space = AtomicMeasureSpace.finite(rng.uniform(0.5, 2.0, n))
    sizes = []
    values = OrliczFunction._values

    def spy(self, u):
        sizes.append(u.size)
        return values(self, u)

    monkeypatch.setattr(OrliczFunction, "_values", spy)
    lam = luxemburg_norm(OrliczFunction.parse(spec), f, space)
    assert sizes == [n]
    assert lam > 0.0


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
