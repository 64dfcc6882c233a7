"""The Luxemburg gauge solver: regressions and properties.

The regressions run under wall-time caps, so a solver that loops fails
instead of hanging the suite.  The properties are checked with
Hypothesis against a modular written here from the formulas, for all
five Young functions the benchmark uses.
"""

import json
import math
import re
import subprocess
import sys
import time
from decimal import Decimal, Overflow, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcorlicz import (
    AtomicMeasureSpace,
    BCSequence,
    NotInSpaceError,
    OrliczFunction,
    UnsupportedInstanceError,
    luxemburg_norm,
    modular,
    orlicz,
    schauder_tail,
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
    # atom 5 weighs 1e16, so the level at the first scale is huge; the
    # sequence is finitely supported, and its sums are exact
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
    # the first step overshoots to levels far above 1, summed exactly
    space = AtomicMeasureSpace.geometric(1e-3, 100)
    f = np.array([0.0, 0.0, 1.0])
    phi = OrliczFunction.parse(spec)
    lam = luxemburg_norm(phi, f, space)
    w = space.weight_block(np.arange(1, 4))
    assert level(spec, f, w, lam) <= 1.0 + 1e-12 < level(spec, f, w, lam * (1 - 1e-9))


def test_a_lazy_level_that_jumps_to_inf_gives_the_gauge_at_the_jump(monkeypatch):
    # exp is not Delta2: a probe can converge up to a scale and diverge past
    # it.  That +inf is a level above 1, not float overflow, so the bracket
    # closes against it and the gauge is 1/jump, where the level is ~0.85.
    real, jump = orlicz.modular, 1.05

    def probe(phi, f, space, *, scale=1.0, offset=0):
        if scale > jump:
            return orlicz.ModularValue(math.inf, "diverged", space.size)
        return real(phi, f, space, scale=scale, offset=offset)

    monkeypatch.setattr(orlicz, "modular", probe)
    lam = luxemburg_norm(
        OrliczFunction.parse("exp"), lambda i: 1.0 / i**2, AtomicMeasureSpace.counting(10**6)
    )
    assert 1.0 / jump <= lam <= (1.0 + 1e-11) / jump


def spied(monkeypatch, name):
    """Record the arguments of every call to ``orlicz.<name>``."""
    real, calls = getattr(orlicz, name), []

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(orlicz, name, spy)
    return calls


def test_a_lazy_power_gauge_marches_its_rule_once(monkeypatch):
    # the closed form's level probe also certifies the gauge, scaled
    marches, modulars = spied(monkeypatch, "_march"), spied(monkeypatch, "modular")
    space = AtomicMeasureSpace.counting(10**6)
    lam = luxemburg_norm(OrliczFunction.power(2), lambda i: 0.7 / i, space, offset=10)
    assert len(marches) == len(modulars) == 1
    assert modulars[0][1]["scale"] == 1.0 / (0.7 / 11)  # the level, at 1 / sup
    assert lam > 0.0


def test_the_median_schauder_tail_evaluates_its_rules_at_66536_atoms():
    # per component: the scale's read of the first chunk, 511 atoms past 10,
    # and one march of 32,757 atoms; a 10**4-atom sup prefix made it 85,514,
    # and a second march for the certificate 151,028
    read = []

    def rule(i):
        read.append(i.size)
        return 0.7 / i

    F = BCSequence.from_rules(rule, rule)
    assert schauder_tail(F, 10, 2.0, AtomicMeasureSpace.counting(10**6)) > 0.0
    assert sum(read) == 66_536


def test_a_lazy_exp_gauge_keeps_its_certificate_march(monkeypatch):
    # exp's level is not homogeneous: the certificate probes I(f / lam) itself
    modulars, space = spied(monkeypatch, "modular"), AtomicMeasureSpace.geometric(0.5, 10**6)
    lam = luxemburg_norm(OrliczFunction.parse("exp"), lambda i: 0.5 * 0.9**i, space)
    assert len(modulars) >= 2
    assert modulars[-1][1]["scale"] == 1.0 / lam


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
# tolerance): phi at the cut times 5e-324 underflows to 0, yet f does not
# vanish.  The entropy root on LIGHT lies at log t ~ 680, where the solve's
# float floor, 4 eps (1 + |log t|) ~ 6e-13, is still below tol (see
# _unit_scale).
EDGE_GAUGES = [
    ("exp", wave(2000), HEAVY, 3.872849571968856e151, 1e-12),
    ("entropy", wave(2000), HEAVY, 5.477036389709216e151, 1e-12),
    ("exp", wave(2000), LIGHT, 0.002911120854551761, 1e-12),
    ("entropy", wave(2000), LIGHT, 1.354040669782389e-294, 1e-12),
    ("entropy", [1.0, 1e-200], DENORMAL_BESIDE_1, 8.064659942363376e-201, 1e-12),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("spec, f, space, want, rel", EDGE_GAUGES)
def test_edge_gauges_keep_their_values(spec, f, space, want, rel):
    lam = luxemburg_norm(OrliczFunction.parse(spec), f, space)
    assert abs(lam - want) <= rel * want


# (phi, f, space, the first atom refused, its weight in floats): the weights
# 2^(n-1) read +inf from atom 1026 on GEOMETRIC_2, and 0.5^(n-1) read 0 from
# atom 1076 on GEOMETRIC_HALF, where f is nonzero.  These gauges read 9.0e161
# and 1.27e162 on GEOMETRIC_2, where the true weights give about 4.4e165 for
# exp; 1.44 and 1.39 on GEOMETRIC_HALF for wave(1300); and 0.0 for the
# nonzero PAST_UNDERFLOW.
PAST_THE_FLOATS = [
    ("exp", wave(1100), GEOMETRIC_2, 1026, "inf"),
    ("entropy", wave(1100), GEOMETRIC_2, 1026, "inf"),
    ("exp", wave(1300), GEOMETRIC_HALF, 1076, "0.0"),
    ("entropy", wave(1300), GEOMETRIC_HALF, 1076, "0.0"),
    ("exp", PAST_UNDERFLOW, GEOMETRIC_HALF, 1101, "0.0"),
    ("entropy", PAST_UNDERFLOW, GEOMETRIC_HALF, 1101, "0.0"),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("spec, f, space, atom, reads", PAST_THE_FLOATS)
def test_edge_gauges_past_the_float_weights_are_refused(spec, f, space, atom, reads):
    with pytest.raises(
        UnsupportedInstanceError,
        match=f"^the {space.rule} weight of atom {atom} reads {reads} in floats where",
    ):
        luxemburg_norm(OrliczFunction.parse(spec), f, space)


# (phi, rule, space, refusal): nonzero index rules on geometric:0.5 whose
# float level drops terms, as their weights 0.5^(n-1) read 0 past atom
# 1075.  Both gauges once read 0.0; the first is sqrt(2000) = 44.7 (every
# term |f_n|^2 a_n is 1), and the array form of the second is refused by
# the weight check at atom 1101.  Every term of the second's level at t = 1
# underflows.  The first's scale, read over its first 511 atoms, is 2^255,
# so its level at t = 1 passes the floats; where the solve steps down to a
# finite level, its terms are constant through atom 1075 and 0 past it, and
# the probe cannot settle them in a window of 2000 atoms.
UNDERFLOWING_RULES = [
    ("power:p=2", lambda i: 2.0 ** ((i - 1) / 2), AtomicMeasureSpace.geometric(0.5, 2000),
     "^the probe of the power:p=2 modular is inconclusive after 2000 atoms, "),
    ("exp", lambda i: (i > 1100).astype(float), AtomicMeasureSpace.geometric(0.5, 10**4),
     "^every term of the exp level of a nonzero sequence reads 0.0 in floats on "),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "spec, rule, space, refusal", UNDERFLOWING_RULES, ids=["2^((n-1)/2)", "1_{n>1100}"]
)
def test_a_rule_whose_every_term_underflows_is_refused(spec, rule, space, refusal):
    phi = OrliczFunction.parse(spec)
    with pytest.raises(UnsupportedInstanceError, match=refusal):
        luxemburg_norm(phi, rule, space)
    array = rule(np.arange(1, space.size + 1))
    with pytest.raises(UnsupportedInstanceError, match="^the geometric:0.5 weight of atom "):
        luxemburg_norm(phi, array, space)


# rules that vanish on their first 10**4 atoms, over which the sup was read
# until the scale came from 511 atoms, and whose every term of the level
# underflows past them: both once read 0.0.  The gauge of the first is about
# 2^-9999 under power:p=2, that of the second 9.95e-198.
PAST_THE_SUP_PREFIX = [
    pytest.param(spec, lambda i: (i > 20000).astype(float),
                 AtomicMeasureSpace.geometric(0.5, 10**6), id=f"1_{{n>20000}}-{spec}")
    for spec in PHIS
] + [
    pytest.param(spec, lambda i: 1e-200 * (i > 10**4),
                 AtomicMeasureSpace.counting(10**6), id=f"1e-200 1_{{n>10^4}}-{spec}")
    for spec in ("power:p=2", "power:p=3", "exp", "entropy")
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("spec, rule, space", PAST_THE_SUP_PREFIX)
def test_a_rule_nonzero_only_past_the_sup_prefix_is_refused(spec, rule, space):
    with pytest.raises(
        UnsupportedInstanceError,
        match=f"^every term of the {spec} level of a nonzero sequence reads 0.0 in floats on "
        f"{space.rule}, so",
    ):
        luxemburg_norm(OrliczFunction.parse(spec), rule, space)


def test_a_march_records_whether_a_value_read_was_nonzero():
    space = AtomicMeasureSpace.geometric(0.5, 10**5)
    underflowed = modular(OrliczFunction.power(2), lambda i: (i > 20000).astype(float), space)
    assert (underflowed.value, underflowed.nonzero) == (0.0, True)
    zero = modular(OrliczFunction.power(2), lambda i: 0.0 * i, space)
    assert (zero.value, zero.nonzero) == (0.0, False)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("spec", PHIS)
@pytest.mark.parametrize(
    "space",
    [AtomicMeasureSpace.counting(10**4), AtomicMeasureSpace.geometric(0.5, 10**4)],
    ids=["counting", "geometric:0.5"],
)
def test_a_rule_that_vanishes_reads_zero(spec, space):
    assert luxemburg_norm(OrliczFunction.parse(spec), lambda i: 0.0 * i, space) == 0.0


@pytest.mark.parametrize(
    "space",
    [AtomicMeasureSpace.finite(np.ones(4)), AtomicMeasureSpace.counting(10)],
    ids=["finite", "counting"],
)
def test_a_zero_array_reads_zero_before_any_level(monkeypatch, space):
    calls = []
    values = OrliczFunction._values

    def spy(self, u):
        calls.append(u.size)
        return values(self, u)

    monkeypatch.setattr(OrliczFunction, "_values", spy)
    for spec in PHIS:
        assert luxemburg_norm(OrliczFunction.parse(spec), np.zeros(4), space) == 0.0
    assert calls == []


def gauge_exact(spec, f, w):
    """The root of ``I_phi(f / lam) = 1``: 200 bisections of ``log lam`` over
    [-800, 800] in 40-digit decimal arithmetic, where phi past the decimal
    range reads +inf."""
    with localcontext() as ctx:
        ctx.prec = 40
        ctx.traps[Overflow] = False
        lo, hi = Decimal(-800), Decimal(800)
        for _ in range(200):
            mid = (lo + hi) / 2
            lam = mid.exp()
            total = sum(
                (phi_exact(spec, Decimal(float(abs(x))) / lam) * Decimal(float(a))
                 for x, a in zip(f, w)),
                Decimal(0),
            )
            lo, hi = (mid, hi) if total > 1 else (lo, mid)
        return float(hi.exp())


SOLVE_OVERFLOWS = "^the level I_phi\\(f/lam\\) overflows floats next to its root"
CHECK_OVERFLOWS = "^I_phi\\(f/lam\\) overflows floats at the solved power:p=2 gauge "

# (phi, f, weights, refusal): each true gauge is a float, but phi(|f| / lam)
# at it passes the floats on a subnormal weight.  A finitely supported level
# is finite in exact arithmetic, so its +inf is overflow, not a level above
# 1.  The exp solve closed its bracket against that +inf and returned
# 1/709.78 = 0.0014088818758682031, 4.9 % above the root 0.0013432914719636531
# on [1, 5e-324] and 3.8 % above it on [1, 1e-320]; the power:p=2 check read
# I = inf and stepped the gauge up to inf ("gauge inf has no finite reciprocal").
OVERFLOWING_LEVELS = [
    ("exp", [0.0, 1.0], [1.0, 5e-324], SOLVE_OVERFLOWS),
    ("exp", [0.001, 1.0], [1.0, 1e-320], SOLVE_OVERFLOWS),
    ("exp", [1.0], [5e-324], SOLVE_OVERFLOWS),
    ("exp", [1.0, 1e-200], [5e-324, 1.0], SOLVE_OVERFLOWS),
    ("power:p=2", [0.0, 1.0], [1.0, 5e-324], CHECK_OVERFLOWS),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("spec, f, w, refusal", OVERFLOWING_LEVELS)
def test_a_level_that_overflows_floats_is_refused(spec, f, w, refusal):
    phi, space = OrliczFunction.parse(spec), AtomicMeasureSpace.finite(w)
    want = gauge_exact(spec, f, w)
    assert 0.0 < want < math.inf
    # at the true gauge the float modular has overflowed, so no float
    # answer near it can be certified
    assert modular(phi, f, space, scale=1.0 / want).value == math.inf
    with pytest.raises(UnsupportedInstanceError, match=refusal):
        luxemburg_norm(phi, f, space)


def test_one_atom_on_a_subnormal_geometric_weight_is_refused_for_the_overflow():
    # 0.5^(m-1) is subnormal for m from 1024 on, and the true gauge
    # 2^(-(m-1)/2) a float; I(f/lam) = 2^(m-1) 0.5^(m-1) passes the floats
    # from m = 1026 on, where 0.5^(m-1) is still not 0
    phi = OrliczFunction.power(2)
    for m in range(1026, 1076):
        f = np.zeros(m)
        f[-1] = 1.0
        assert 0.0 < GEOMETRIC_HALF.weight_block(np.array([m]))[0]
        assert 0.0 < 2.0 ** (-(m - 1) / 2)
        with pytest.raises(UnsupportedInstanceError, match=CHECK_OVERFLOWS):
            luxemburg_norm(phi, f, GEOMETRIC_HALF)
    f = np.zeros(1025)
    f[-1] = 1.0
    assert math.isclose(luxemburg_norm(phi, f, GEOMETRIC_HALF), 2.0**-512, rel_tol=1e-12)


def entropy_root_on_one_atom(m):
    """The entropy gauge of ``f_m = 1`` alone under the exact weight
    ``2^-(m-1)``: ``1/u`` where ``u log(1 + u) = 2^(m-1)``, by Newton's method
    in 50-digit decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = 50
        w = Decimal(2) ** (m - 1)
        u = w / w.ln()
        for _ in range(60):
            u -= (u * (1 + u).ln() - w) / ((1 + u).ln() + u / (1 + u))
        return float(1 / u)


@pytest.mark.filterwarnings("error")
def test_entropy_gauge_on_one_tiny_weight_solves_or_is_refused_for_the_overflow():
    # regression: the solve's iterates were clamped to |log t| <= 700, short
    # of the root, so from m = 1018 on it gave up after 100 steps; each m
    # now solves, or its level overflows floats next to the root
    phi = OrliczFunction.parse("entropy")
    tol = 1e-12
    solved = []
    for m in range(1015, 1076):
        f = np.zeros(m)
        f[-1] = 1.0
        try:
            lam = luxemburg_norm(phi, f, GEOMETRIC_HALF, tol=tol)
        except UnsupportedInstanceError as exc:
            assert re.match(SOLVE_OVERFLOWS, str(exc)), (m, str(exc))
            continue
        want = entropy_root_on_one_atom(m)
        assert abs(lam - want) <= tol * want, (m, lam, want)
        solved.append(m)
    assert solved == list(range(1015, 1026))


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


@pytest.mark.parametrize("n", (10**4, 10**5))
@pytest.mark.parametrize("spec", ("power:p=1.5", "power:p=3", "exp", "entropy"))
def test_a_finite_certificate_passes_on_its_first_read(monkeypatch, spec, n):
    # the exp and entropy solves aim inside the level set, and a power root
    # reads at least level(1) when raised to p, so the certificate's one
    # modular rarely steps up; power:p=1.5 once stepped up in 19 and 37 of
    # these 40 gauges, exp in 13 and 4, entropy in 15 and 10
    modulars, phi, stepped = spied(monkeypatch, "modular"), OrliczFunction.parse(spec), 0
    for seed in range(40):
        rng = np.random.default_rng([seed, n])
        space = AtomicMeasureSpace.finite(rng.uniform(0.5, 2.0, n))
        f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        modulars.clear()
        assert luxemburg_norm(phi, f, space) > 0.0
        stepped += len(modulars) > 1
    assert stepped <= (8 if phi.family == "power" else 0)


def exact_level(spec, moduli, w, lam):
    """``I_phi(f / lam)`` in 60-digit decimal arithmetic, not rounded."""
    with localcontext() as ctx:
        ctx.prec = 60
        lam = Decimal(lam)
        terms = (phi_exact(spec, Decimal(u) / lam) * Decimal(a) for u, a in zip(moduli, w))
        return sum(terms, Decimal(0))


@pytest.mark.parametrize("spec", ("exp", "entropy"))
def test_a_finite_gauge_meets_its_certificate_in_exact_arithmetic(spec):
    # the float certificate once passed gauges a few ulps below the root:
    # 16 exp and 18 entropy gauges of these 150 had an exact level above 1
    phi, above = OrliczFunction.parse(spec), []
    for seed in range(150):
        rng = np.random.default_rng([2026, seed])
        n = int(rng.integers(1, 401))
        x = rng.choice((-1.0, 1.0), n) * 10.0 ** rng.uniform(-3.0, 3.0, n)
        w = rng.uniform(0.1, 10.0, n)
        lam = luxemburg_norm(phi, x.astype(complex), AtomicMeasureSpace.finite(w))
        if exact_level(spec, np.abs(x), w, lam) > 1:
            above.append(seed)
    assert above == []


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
