"""Tests for Young functions, modulars, the Luxemburg gauge, and the norm."""

import math
import warnings

import numpy as np
import pytest

from bcorlicz import (
    E,
    E_DAGGER,
    AtomicMeasureSpace,
    BCSequence,
    BiComplex,
    InvalidInputError,
    NotInSpaceError,
    NotSummableError,
    OrliczFunction,
    UnsupportedInstanceError,
    classify_phi,
    luxemburg_norm,
    modular,
    norm_bc,
    pairing,
    schauder_tail,
    weighted_phi_sum,
)
from bcorlicz import orlicz

SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------- phi family


def test_phi_point_values():
    p2 = OrliczFunction.power(2)
    assert p2(3.0) == 9.0
    assert p2(0.0) == 0.0
    assert OrliczFunction.power(1)(7.5) == 7.5
    assert abs(OrliczFunction.exp_type()(1.0) - (math.e - 2.0)) < 1e-15
    assert OrliczFunction.exp_type()(0.0) == 0.0
    assert abs(OrliczFunction.entropy()(1.0) - math.log(2.0)) < 1e-15
    assert OrliczFunction.entropy()(0.0) == 0.0


def test_phi_rejects_bad_arguments():
    with pytest.raises(InvalidInputError):
        OrliczFunction.power(2)(-1.0)
    with pytest.raises(InvalidInputError):
        OrliczFunction.power(2)(float("nan"))
    with pytest.raises(InvalidInputError):
        OrliczFunction.power(0.5)
    with pytest.raises(InvalidInputError):
        OrliczFunction.power(float("inf"))


def test_phi_overflow_saturates_to_inf():
    assert OrliczFunction.exp_type()(1e4) == math.inf
    assert OrliczFunction.power(3)(1e200) == math.inf
    assert OrliczFunction.exp_type()(math.inf) == math.inf
    assert OrliczFunction.entropy()(math.inf) == math.inf


def test_phi_parse_round_trip():
    for spec in ("power:p=2", "power:p=1.5", "exp", "entropy"):
        phi = OrliczFunction.parse(spec)
        assert phi.spec_string() == spec
        assert OrliczFunction.parse(phi.spec_string()) == phi
    assert OrliczFunction.parse("power:p=2.0").p == 2.0
    for bad in ("power", "power:p=abc", "gauss", "", "power:q=2"):
        with pytest.raises(InvalidInputError):
            OrliczFunction.parse(bad)


def test_classifier_power_two_is_clean():
    rep = classify_phi(OrliczFunction.power(2))
    assert rep.convexity_ok
    assert rep.limit0_ok
    assert rep.limit_inf_ok
    assert rep.continuous_ok
    assert rep.vanishes_only_at_0
    assert rep.delta2_ok
    assert rep.k == 4.0
    assert rep.alpha == 2.0
    assert rep.label == "closed form"


def test_classifier_doubling_constants_for_powers():
    # phi(2u)/phi(u) = 2**p at every u; past the floats K reads inf, and
    # Delta2 still holds
    for p in (1.5, 2.0, 3.0, 2.5):
        rep = classify_phi(OrliczFunction.power(p))
        assert rep.delta2_ok and rep.k == 2.0**p and rep.alpha == p
    for p in (1000, 1e300):
        rep = classify_phi(OrliczFunction.power(p))
        assert rep.continuous_ok and rep.vanishes_only_at_0
        assert rep.limit0_ok and rep.limit_inf_ok
        assert rep.delta2_ok
        assert rep.k == (2.0**1000 if p == 1000 else math.inf)
        assert rep.alpha == p


def test_classifier_power_one_fails_small_u_limit():
    # phi(u)/u is identically 1, so both N-function limits fail
    rep = classify_phi(OrliczFunction.power(1))
    assert rep.convexity_ok
    assert not rep.limit0_ok
    assert not rep.limit_inf_ok
    assert rep.delta2_ok and rep.k == 2.0


def test_classifier_exp_type():
    rep = classify_phi(OrliczFunction.exp_type())
    assert rep.convexity_ok
    assert rep.limit0_ok
    assert rep.limit_inf_ok
    assert not rep.delta2_ok
    assert rep.k == math.inf
    # phi(2u)/phi(u) grows like e^u
    assert rep.phi(200.0) / rep.phi(100.0) > 1e40
    assert rep.alpha == 2.0


def test_classifier_entropy():
    rep = classify_phi(OrliczFunction.entropy())
    assert rep.convexity_ok
    assert rep.limit0_ok
    # u*log(1+u)/u = log(1+u) tends to infinity: an N-function
    assert rep.limit_inf_ok
    assert rep.delta2_ok
    # 2 log(1+2u)/log(1+u) rises to 4 as u -> 0
    assert rep.k == 4.0
    assert rep.alpha == 1.0


def test_classifier_refuses_an_unknown_family():
    with pytest.raises(InvalidInputError):
        classify_phi(OrliczFunction("gauss"))


# ---------------------------------------------------------------- sequences


def test_sequence_constructors():
    F = BCSequence.from_values([3, 4j])
    assert not F.is_lazy
    assert F.values() == [BiComplex(3, 3), BiComplex(4j, 4j)]

    G = BCSequence.from_components([1, 2], [3, 4])
    np.testing.assert_array_equal(G.block(1, np.array([1, 2])), [1, 2])
    np.testing.assert_array_equal(G.block(2, np.array([1, 2])), [3, 4])

    H = BCSequence.from_rules(lambda i: 1.0 / i, lambda i: 0.0 * i)
    assert H.is_lazy
    np.testing.assert_allclose(H.block(1, np.array([1, 2, 4])), [1.0, 0.5, 0.25])

    with pytest.raises(InvalidInputError):
        BCSequence.from_components([1, 2], [3])
    with pytest.raises(InvalidInputError):
        BCSequence.from_components([1, float("inf")], [0, 0])
    with pytest.raises(InvalidInputError):
        BCSequence.from_rules(lambda i: i, 3)


def test_sequence_components_are_stored_as_complex():
    F = BCSequence.from_components(np.array([1.0, -2.0]), np.array([3, 4], dtype=np.int32))
    assert F.comp1.dtype == F.comp2.dtype == np.complex128
    np.testing.assert_array_equal(F.comp1, [1.0 + 0j, -2.0 + 0j])
    assert F.values() == [BiComplex(1.0, 3.0), BiComplex(-2.0, 4.0)]


@pytest.mark.parametrize(
    "f, message",
    [
        ([1.0, float("nan")], "sequence entries must be finite"),
        ([1.0 + 0j, complex(0.0, float("inf"))], "sequence entries must be finite"),
        ([[1.0, 2.0]], "a sequence component must be 1-d"),
        (3.0, "a sequence component must be 1-d"),
    ],
    ids=["nan", "complex-inf", "2-d", "0-d"],
)
def test_sequence_refusals_keep_their_wording(f, message):
    sp = AtomicMeasureSpace.finite([1.0] * np.size(f))
    for call in (
        lambda: BCSequence.from_components(f, f),
        lambda: modular(OrliczFunction.power(2), f, sp),
        lambda: luxemburg_norm(OrliczFunction.power(2), f, sp),
    ):
        with pytest.raises(InvalidInputError, match=f"^{message}$"):
            call()


@pytest.mark.parametrize(
    "space, offset",
    [
        (AtomicMeasureSpace.finite(np.linspace(0.1, 3.0, 200)), 0),
        (AtomicMeasureSpace.finite(np.linspace(0.1, 3.0, 200)), 50),
        (AtomicMeasureSpace.counting(500), 0),
        (AtomicMeasureSpace.geometric(0.5, 500), 9),
    ],
    ids=["finite", "finite-tail", "counting", "geometric-tail"],
)
@pytest.mark.parametrize("spec", ["power:p=1", "power:p=1.5", "exp", "entropy"])
def test_a_real_array_gives_the_bits_of_the_same_complex_array(spec, space, offset):
    phi = OrliczFunction.parse(spec)
    rng = np.random.default_rng(36)
    for dtype in (np.float64, np.float32, np.int64):
        f = (rng.standard_normal(200) * 30.0).astype(dtype)
        z = f.astype(complex)
        for scale in (1.0, 0.37):
            assert modular(phi, f, space, scale=scale, offset=offset) == modular(
                phi, z, space, scale=scale, offset=offset
            )
        assert float.hex(luxemburg_norm(phi, f, space, offset=offset)) == float.hex(
            luxemburg_norm(phi, z, space, offset=offset)
        )
        w = rng.uniform(0.0, 2.0, 150)
        for g, y in ((f[:150], z[:150]), (f, z)):
            assert orlicz.weighted_phi_sum(phi, g, w) == orlicz.weighted_phi_sum(phi, y, w)


def test_sequence_blocks_zero_extend_past_support():
    F = BCSequence.from_components([5, 6], [7, 8])
    np.testing.assert_array_equal(F.block(1, np.array([2, 3, 9])), [6, 0, 0])


def test_sequence_array_is_strict_on_finite_spaces():
    sp = AtomicMeasureSpace.finite([1.0, 1.0, 1.0])
    F = BCSequence.from_components([1, 2], [3, 4])
    with pytest.raises(InvalidInputError):
        F.array(1, sp)


def test_sequence_json_round_trip():
    F = BCSequence.from_values([BiComplex(1 + 2j, 3), BiComplex(0, -1j)])
    again = BCSequence.from_json_list(F.to_json_list())
    assert again.values() == F.values()
    with pytest.raises(InvalidInputError):
        BCSequence.from_json_list({"not": "a list"})


# ---------------------------------------------------------------- modulars


def test_modular_single_atom():
    sp = AtomicMeasureSpace.finite([1.0])
    mv = modular(OrliczFunction.power(2), np.array([3.0 + 0j]), sp)
    assert mv.status == "exact"
    assert mv.value == 9.0


def test_modular_matches_direct_sum():
    rng = np.random.default_rng(31)
    for phi in (OrliczFunction.power(1.7), OrliczFunction.exp_type(), OrliczFunction.entropy()):
        for _ in range(20):
            n = int(rng.integers(1, 20))
            w = rng.uniform(0.1, 2.0, n)
            f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            sp = AtomicMeasureSpace.finite(w)
            mv = modular(phi, f, sp)
            want = sum(phi(abs(v)) * wt for v, wt in zip(f, w))
            assert abs(mv.value - want) <= 1e-12 * max(1.0, want)


def test_modular_scale_parameter():
    sp = AtomicMeasureSpace.finite([2.0])
    mv = modular(OrliczFunction.power(2), np.array([3.0 + 0j]), sp, scale=0.5)
    # I(0.5 * f) = (1.5)^2 * 2
    assert abs(mv.value - 4.5) < 1e-14
    with pytest.raises(InvalidInputError):
        modular(OrliczFunction.power(2), np.array([1 + 0j]), sp, scale=-1.0)


OVERFLOWING = 1.5e308 + 1.5e308j  # finite, but its modulus is inf


@pytest.mark.parametrize("spec", ["power:p=2", "exp", "entropy"])
@pytest.mark.parametrize(
    "space",
    [AtomicMeasureSpace.finite([1.0]), AtomicMeasureSpace.counting(10)],
    ids=["finite", "counting"],
)
def test_a_zero_scale_reads_zero_over_an_overflowing_modulus(spec, space):
    # phi(0 * |f_1|) a_1 = phi(0) = 0; 0 * inf once read nan, then +inf
    phi = OrliczFunction.parse(spec)
    mv = modular(phi, [OVERFLOWING], space, scale=0.0)
    assert (mv.value, mv.status) == (0.0, "exact")
    if space.is_lazy:
        mv = modular(phi, lambda i: np.full(i.shape, OVERFLOWING), space, scale=0.0)
        assert (mv.value, mv.status) == (0.0, "converged")


def test_modular_rejects_whole_sequences():
    sp = AtomicMeasureSpace.finite([1.0])
    F = BCSequence.from_values([3])
    for call in (modular, luxemburg_norm, lambda phi, f, sp: weighted_phi_sum(phi, f, sp.weights)):
        with pytest.raises(InvalidInputError, match="^pass one component here, not a BCSequence$"):
            call(OrliczFunction.power(2), F, sp)


@pytest.mark.parametrize("spec", ["power:p=2", "power:p=1.5"])
@pytest.mark.parametrize("scale", [-1.0, math.nan, math.inf])
def test_a_scale_below_zero_or_past_the_floats_is_refused(spec, scale):
    phi, sp = OrliczFunction.parse(spec), AtomicMeasureSpace.finite([1.0, 1.0])
    for call in (
        lambda: modular(phi, [1.0, 2.0], sp, scale=scale),
        lambda: weighted_phi_sum(phi, [1.0, 2.0], np.ones(2), scale=scale),
        lambda: weighted_phi_sum(phi, lambda i: 1.0 / i, np.ones(2), scale=scale),
    ):
        with pytest.raises(InvalidInputError, match="^scale must be finite and >= 0, got "):
            call()


def test_modular_lazy_geometric_converges():
    sp = AtomicMeasureSpace.counting(10 ** 6)
    f = lambda idx: np.power(0.5, idx)  # noqa: E731
    mv = modular(OrliczFunction.power(1), f, sp)
    assert mv.status == "converged"
    assert abs(mv.value - 1.0) < 1e-9


def test_modular_lazy_harmonic_diverges():
    sp = AtomicMeasureSpace.counting(10 ** 5)
    f = lambda idx: 1.0 / idx  # noqa: E731
    mv = modular(OrliczFunction.power(1), f, sp)
    assert mv.status == "diverged"
    assert mv.value == math.inf


def test_modular_lazy_constant_diverges():
    sp = AtomicMeasureSpace.counting(10 ** 5)
    f = lambda idx: np.ones_like(idx, dtype=float)  # noqa: E731
    mv = modular(OrliczFunction.power(2), f, sp)
    assert mv.status == "diverged"


def test_modular_lazy_slow_tail_is_inconclusive():
    # |f_n|^2 = n^{-1.1} converges, to zeta(1.1), but its extrapolated sum
    # still moves by about 4e-11 per doubling at the window's end, and its
    # block sums fall too clearly (by 2^-0.1 a doubling) to read diverged
    sp = AtomicMeasureSpace.counting(10 ** 5)
    f = lambda idx: np.power(idx, -0.55)  # noqa: E731
    mv = modular(OrliczFunction.power(2), f, sp)
    assert mv.status == "inconclusive"
    assert 0 < mv.value < math.inf


def test_modular_lazy_zero_head_does_not_settle_the_probe():
    # the blocks below 4096 add 0, so the probe cannot settle at 0 there;
    # an extrapolation that reads those zero partial sums lands below the
    # partial sum and is turned away, and the window ends before three
    # estimates past them agree
    sp = AtomicMeasureSpace.counting(10 ** 6)
    rule = lambda i: (i > 5000) / i  # noqa: E731
    mv = modular(OrliczFunction.power(2), rule, sp)
    want = np.sum(1.0 / np.arange(5001, 10 ** 6 + 1, dtype=float) ** 2)
    assert mv.status == "inconclusive"
    assert mv.value == pytest.approx(want, rel=1e-12)
    with pytest.raises(UnsupportedInstanceError, match="inconclusive"):
        luxemburg_norm(OrliczFunction.power(2), rule, sp)


def test_modular_lazy_zero_rule_converges_to_zero_over_the_window():
    sp = AtomicMeasureSpace.counting(10 ** 5)
    mv = modular(OrliczFunction.power(2), lambda i: 0.0 * i, sp)
    assert (mv.value, mv.status, mv.n_terms) == (0.0, "converged", 10 ** 5)
    assert luxemburg_norm(OrliczFunction.power(2), lambda i: 0.0 * i, sp) == 0.0


def test_modular_lazy_gap_in_the_early_half_is_not_divergence():
    # 1/n with the terms 100..2000 set to 0 sums, squared, to pi^2/6 less
    # those terms.  The zero blocks [128, 1024) once gave the comparison
    # probe an early floor of 0; now they leave each Aitken estimate that
    # reads them at the sum below 100, which is under the partial sum once
    # 2001..2047 arrive, so no estimate settles before the gap is behind it
    sp = AtomicMeasureSpace.counting(10 ** 6)
    rule = lambda i: np.where((i >= 100) & (i <= 2000), 0.0, 1.0 / i)  # noqa: E731
    want = math.pi**2 / 6 - math.fsum(1.0 / n**2 for n in range(100, 2001))
    mv = modular(OrliczFunction.power(2), rule, sp)
    assert mv.status == "converged" and mv.n_terms < 10**6
    assert mv.value == pytest.approx(want, rel=1e-12)
    lam = luxemburg_norm(OrliczFunction.power(2), rule, sp)
    assert lam == pytest.approx(math.sqrt(want), rel=1e-12)


def test_modular_lazy_rising_early_terms_are_not_divergence():
    # the block sums of 3/(n+999)^2 double per doubling up to n ~ 1000 and
    # then fall (ratios 2, ..., 1.24, 0.99, then 0.8 on the cut last
    # block), and this sum of about 0.0024 once read diverged; divergence
    # is judged only over the late doublings, and no estimate settles
    rule = lambda i: 3 / (i + 999.0) ** 2  # noqa: E731
    mv = modular(OrliczFunction.power(1), rule, AtomicMeasureSpace.counting(4001))
    want = math.fsum(3 / (n + 999.0) ** 2 for n in range(1, 4002))
    assert mv.status == "inconclusive"
    assert mv.value == pytest.approx(want, rel=1e-12)


def test_schauder_tail_of_rising_early_terms_is_inconclusive_not_outside():
    # the tail past 999 of 3/n^2 is the same series as above: it once
    # raised NotInSpaceError, "diverges ... outside the space"
    F = BCSequence.from_rules(lambda i: 3 / i**2, lambda i: 3 / i**2)
    with pytest.raises(UnsupportedInstanceError, match="inconclusive"):
        schauder_tail(F, 999, 1.0, AtomicMeasureSpace.counting(5000))


@pytest.mark.parametrize("n_max", [4001, 10**6])
@pytest.mark.parametrize("rule", [lambda i: 1 / np.sqrt(i), lambda i: 2.0 / i])
def test_modular_lazy_divergent_series_still_diverge(n_max, rule):
    mv = modular(OrliczFunction.power(1), rule, AtomicMeasureSpace.counting(n_max))
    assert (mv.value, mv.status, mv.n_terms) == (math.inf, "diverged", n_max)


@pytest.mark.parametrize("n_max", [10**4, 10**6])
def test_modular_lazy_c_over_n_at_p1_diverges(n_max):
    # the benchmark's divergent probe: block sums that tend to c log 2
    mv = modular(OrliczFunction.power(1), lambda i: 1.37 / i, AtomicMeasureSpace.counting(n_max))
    assert (mv.value, mv.status, mv.n_terms) == (math.inf, "diverged", n_max)


def test_slowly_convergent_log_series_is_never_divergent():
    # sum 1/((n+1) log^2(n+1)) converges (integral test: its tail past N is
    # below 1/log(N+1)), with block sums that fall only like (j/(j+1))^2
    rule = lambda i: 1.0 / ((i + 1.0) * np.log(i + 1.0) ** 2)  # noqa: E731
    sp = AtomicMeasureSpace.counting(10**6)
    mv = modular(OrliczFunction.power(1), rule, sp)
    assert mv.status == "inconclusive"
    with pytest.raises(UnsupportedInstanceError, match="inconclusive"):
        luxemburg_norm(OrliczFunction.power(1), rule, sp)


# ------------------------------------------------------------ dyadic probe


def zeta(s, n=1000):
    """Riemann zeta at s > 1: the sum below n plus the Euler-Maclaurin tail
    ``n^(1-s)/(s-1) + n^-s/2 + s n^(-s-1)/12 - s(s+1)(s+2) n^(-s-3)/720``,
    whose next term is below 1e-18 at n = 1000."""
    head = math.fsum(k**-s for k in range(1, n))
    return head + (
        n ** (1 - s) / (s - 1)
        + n**-s / 2
        + s * n ** (-s - 1) / 12
        - s * (s + 1) * (s + 2) * n ** (-s - 3) / 720
    )


def test_zeta_oracle_matches_closed_forms():
    assert zeta(2) == pytest.approx(math.pi**2 / 6, rel=1e-15)
    assert zeta(4) == pytest.approx(math.pi**4 / 90, rel=1e-15)


def test_one_over_n_squared_settles_on_a_long_window():
    # the three-block rule once read converged 4.06e-8 below pi^2/6 after
    # 24.7M atoms; the dyadic estimate settles within 2^14 atoms
    mv = modular(OrliczFunction.power(2), lambda i: 1.0 / i, AtomicMeasureSpace.counting(10**8))
    assert mv.status == "converged" and mv.n_terms < 10**6
    assert abs(mv.value - math.pi**2 / 6) <= 1e-12 * math.pi**2 / 6
    assert mv.tail > 0 and mv.value - mv.tail < math.pi**2 / 6


def test_one_over_n_gauge_meets_its_tolerance():
    lam = luxemburg_norm(
        OrliczFunction.power(2), lambda i: 1.0 / i, AtomicMeasureSpace.counting(10**8)
    )
    assert abs(lam - math.pi / math.sqrt(6)) <= 1e-10


def test_slow_series_gauge_gives_a_value():
    # 1/n^0.6 is in l^2, with ||f||^2 = zeta(1.2); its probe once read
    # inconclusive after 10^6 atoms
    lam = luxemburg_norm(
        OrliczFunction.power(2), lambda i: np.power(i, -0.6), AtomicMeasureSpace.counting(10**6)
    )
    assert abs(lam - math.sqrt(zeta(1.2))) <= 1e-9


@pytest.mark.parametrize("n_max", [10**5, 10**6])
def test_benchmark_pairing_settles_both_components(n_max):
    # <x, y> with x = (c/n, c/n) and y = ((-1)^n/n, 1/n^2): componentwise
    # sum (-1)^n c/n^2 = -c pi^2/12 and sum c/n^3 = c zeta(3).  The first
    # once returned its partial sum with a RuntimeWarning
    c = 1.37
    x = BCSequence.from_rules(lambda i: c / i, lambda i: c / i)
    y = BCSequence.from_rules(lambda i: (-1.0) ** i / i, lambda i: 1.0 / i**2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = pairing(x, y, AtomicMeasureSpace.counting(n_max))
    assert abs(got.beta1 - (-c * math.pi**2 / 12)) <= 1e-12
    assert abs(got.beta2 - c * zeta(3)) <= 1e-12


# ---------------------------------------------------------------- luxemburg


def test_luxemburg_single_atom():
    sp = AtomicMeasureSpace.finite([1.0])
    lam = luxemburg_norm(OrliczFunction.power(2), np.array([3.0 + 0j]), sp)
    assert abs(lam - 3.0) < 1e-10


def test_luxemburg_zero_sequence():
    sp = AtomicMeasureSpace.finite([1.0, 1.0])
    assert luxemburg_norm(OrliczFunction.power(2), np.zeros(2, dtype=complex), sp) == 0.0


def test_luxemburg_matches_weighted_p_norm():
    # independent closed form: for phi = u^p the gauge is the weighted p-norm
    rng = np.random.default_rng(32)
    for p in (1.0, 1.7, 2.0, 3.0):
        phi = OrliczFunction.power(p)
        for _ in range(25):
            n = int(rng.integers(1, 25))
            w = rng.uniform(0.1, 2.0, n)
            f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            sp = AtomicMeasureSpace.finite(w)
            lam = luxemburg_norm(phi, f, sp)
            want = float(np.sum(np.abs(f) ** p * w) ** (1.0 / p))
            assert abs(lam - want) <= 1e-10 * max(1.0, want)


def test_luxemburg_level_certificate():
    rng = np.random.default_rng(33)
    phi = OrliczFunction.exp_type()
    for _ in range(20):
        n = int(rng.integers(1, 15))
        w = rng.uniform(0.1, 2.0, n)
        f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        sp = AtomicMeasureSpace.finite(w)
        lam = luxemburg_norm(phi, f, sp)
        assert modular(phi, f, sp, scale=1.0 / lam).value <= 1.0 + 1e-12
        # slightly below the gauge the level must fail
        assert modular(phi, f, sp, scale=1.0 / (lam * (1 - 1e-6))).value > 1.0 - 1e-9


@pytest.mark.parametrize("spec", ["power:p=2", "power:p=3", "exp", "entropy"])
@pytest.mark.parametrize(
    "space, offset",
    [
        (AtomicMeasureSpace.finite(np.linspace(0.5, 2.0, 40)), 0),
        (AtomicMeasureSpace.finite(np.linspace(0.5, 2.0, 40)), 7),
        (AtomicMeasureSpace.counting(1000), 0),
        (AtomicMeasureSpace.geometric(0.5, 1000), 3),
    ],
    ids=["finite", "finite-tail", "counting", "geometric-tail"],
)
def test_a_finite_certificate_is_one_modular_call_over_the_moduli(monkeypatch, spec, space, offset):
    # each certificate try is one call through the module attribute, and it
    # reads |f| as float64 from atom 1, 0 on the head the offset skips
    calls = []
    original = orlicz.modular

    def spy(phi, f, sp, **kwargs):
        mv = original(phi, f, sp, **kwargs)
        calls.append((f, kwargs, mv))
        return mv

    monkeypatch.setattr(orlicz, "modular", spy)
    phi = OrliczFunction.parse(spec)
    rng = np.random.default_rng(35)
    for _ in range(10):
        f = 10.0 ** rng.uniform(-3, 3) * (rng.standard_normal(40) + 1j * rng.standard_normal(40))
        calls.clear()
        lam = luxemburg_norm(phi, f, space, offset=offset)
        assert 1 <= len(calls) <= orlicz._CERTIFY_TRIES
        for k, (moduli, kwargs, mv) in enumerate(calls):
            assert moduli.dtype == np.float64
            np.testing.assert_array_equal(moduli[offset:], np.abs(f)[offset:])
            assert not moduli[:offset].any()
            assert kwargs["offset"] == offset
            # every try but the last read a level above 1 and stepped lam up
            assert (mv.value <= 1.0) == (k == len(calls) - 1)
        assert calls[-1][1]["scale"] == 1.0 / lam


@pytest.mark.parametrize(
    "space",
    [AtomicMeasureSpace.counting(10**12), AtomicMeasureSpace.geometric(0.5, 10**12)],
    ids=["counting", "geometric"],
)
def test_a_tail_past_a_short_array_allocates_nothing(monkeypatch, space):
    # the moduli's zero head once spanned the offset, not the support: an
    # offset of 10**11 past a 3-entry array asked numpy for 745 GiB
    zeros = np.zeros

    def guarded(shape, *args, **kwargs):
        assert np.prod(shape) <= 10**7, "an array past the cap"
        return zeros(shape, *args, **kwargs)

    monkeypatch.setattr(np, "zeros", guarded)
    f = np.array([1.0, -2.0, 0.5j])
    for spec in ("power:p=2", "exp", "entropy"):
        assert luxemburg_norm(OrliczFunction.parse(spec), f, space, offset=10**11) == 0.0
    assert schauder_tail(BCSequence.from_components(f, f), 10**11, 2.0, space) == 0.0
    # a tail that starts inside the array still reads it
    assert luxemburg_norm(OrliczFunction.power(2), f, space, offset=1) > 0.0


def test_luxemburg_homogeneous():
    rng = np.random.default_rng(34)
    sp = AtomicMeasureSpace.finite(rng.uniform(0.5, 1.5, 8))
    f = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    phi = OrliczFunction.entropy()
    base = luxemburg_norm(phi, f, sp)
    for c in (0.25, 2.0, 10.0):
        assert abs(luxemburg_norm(phi, c * f, sp) - c * base) <= 1e-9 * c * base


def test_luxemburg_rejects_sequence_outside_space():
    sp = AtomicMeasureSpace.counting(10 ** 5)
    f = lambda idx: 1.0 / idx  # noqa: E731
    with pytest.raises(NotInSpaceError):
        luxemburg_norm(OrliczFunction.power(1), f, sp)


def test_luxemburg_lazy_geometric():
    # sum (|f_n| / lam)^2 = (1/lam^2) * sum 4^{-n} = 1/(3 lam^2)
    sp = AtomicMeasureSpace.counting(10 ** 5)
    f = lambda idx: np.power(0.5, idx)  # noqa: E731
    lam = luxemburg_norm(OrliczFunction.power(2), f, sp)
    assert abs(lam - 1.0 / math.sqrt(3.0)) < 1e-9


BIG = 1.5e308 + 1.5e308j  # finite parts, modulus beyond the floats


@pytest.mark.parametrize(
    "f, space, atom",
    [
        (np.array([BIG]), AtomicMeasureSpace.finite([1.0]), 1),
        (np.array([1.0, BIG]), AtomicMeasureSpace.counting(10 ** 3), 2),
        (lambda i: np.where(i == 7, BIG, 1.0 / i**2), AtomicMeasureSpace.counting(10 ** 3), 7),
    ],
    ids=["finite", "lazy-array", "lazy-rule"],
)
def test_luxemburg_modulus_beyond_floats_is_unsupported(f, space, atom):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UnsupportedInstanceError, match=rf"\|f_{atom}\|"):
            luxemburg_norm(OrliczFunction.power(2), f, space)


@pytest.mark.parametrize(
    "f, space",
    [
        (np.array([1.0, 2.0, BIG]), AtomicMeasureSpace.finite([1.0, 1.0, 1.0])),
        (np.array([1.0, 2.0, BIG]), AtomicMeasureSpace.counting(10 ** 3)),
        (lambda i: np.where(i == 3, BIG, 0.5**i), AtomicMeasureSpace.counting(10 ** 3)),
    ],
    ids=["finite", "lazy-array", "lazy-rule"],
)
def test_a_tail_names_the_overflowed_atom_by_its_index(f, space):
    with pytest.raises(UnsupportedInstanceError, match=r"\|f_3\|"):
        luxemburg_norm(OrliczFunction.power(2), f, space, offset=2)
    assert luxemburg_norm(OrliczFunction.power(2), f, space, offset=3) < 1.0


@pytest.mark.parametrize("offset", [-1, 1.5, "2", None, True, np.int64(1)])
def test_offset_must_be_an_integer_at_least_zero(offset):
    sp = AtomicMeasureSpace.finite([1.0, 1.0])
    for call in (modular, luxemburg_norm):
        with pytest.raises(InvalidInputError, match="tail offset must be an integer >= 0"):
            call(OrliczFunction.power(2), [1.0, 2.0], sp, offset=offset)


@pytest.mark.parametrize(
    "space", [AtomicMeasureSpace.finite([1.0, 2.0]), AtomicMeasureSpace.counting(2)]
)
@pytest.mark.parametrize("offset", [2, 3, 10 ** 30])
def test_a_tail_past_the_last_atom_is_empty(space, offset):
    mv = modular(OrliczFunction.exp_type(), [1.0, 2.0], space, offset=offset)
    assert (mv.value, mv.n_terms) == (0.0, 0)
    assert luxemburg_norm(OrliczFunction.exp_type(), [1.0, 2.0], space, offset=offset) == 0.0


# ---------------------------------------------------------------- norm_bc


def test_norm_bc_worked_example():
    sp = AtomicMeasureSpace.finite([1.0])
    F = BCSequence.from_values([BiComplex(3, 4)])
    val = norm_bc(OrliczFunction.power(2), F, sp)
    assert abs(val - 5.0 / SQRT2) < 1e-10
    assert abs(val - 3.5355339059327373) < 1e-10


def test_norm_bc_zero_iff_zero():
    sp = AtomicMeasureSpace.finite([1.0, 2.0])
    Z = BCSequence.from_components(np.zeros(2), np.zeros(2))
    assert norm_bc(OrliczFunction.power(2), Z, sp) == 0.0
    F = BCSequence.from_components([0, 1e-8], [0, 0])
    assert norm_bc(OrliczFunction.power(2), F, sp) > 0.0


def test_norm_bc_homogeneity_and_triangle():
    rng = np.random.default_rng(35)
    phi = OrliczFunction.power(1.5)
    sp = AtomicMeasureSpace.finite(rng.uniform(0.5, 1.5, 6))
    for _ in range(10):
        a1 = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        a2 = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        b1 = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        b2 = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        F = BCSequence.from_components(a1, a2)
        G = BCSequence.from_components(b1, b2)
        nf = norm_bc(phi, F, sp)
        ng = norm_bc(phi, G, sp)
        c = float(rng.uniform(0.1, 5.0))
        cF = BCSequence.from_components(c * a1, c * a2)
        assert abs(norm_bc(phi, cF, sp) - c * nf) <= 1e-9 * max(1.0, c * nf)
        S = BCSequence.from_components(a1 + b1, a2 + b2)
        assert norm_bc(phi, S, sp) <= nf + ng + 1e-9


def test_norm_bc_unit_ball_boundary():
    rng = np.random.default_rng(36)
    phi = OrliczFunction.power(2)
    sp = AtomicMeasureSpace.finite(rng.uniform(0.5, 1.5, 5))
    f = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    lam = luxemburg_norm(phi, f, sp)
    assert modular(phi, f, sp, scale=1.0 / lam).value <= 1.0 + 1e-12


# ---------------------------------------------------------------- tails


def test_schauder_tail_matches_direct_slice():
    rng = np.random.default_rng(37)
    w = rng.uniform(0.2, 2.0, 40)
    sp = AtomicMeasureSpace.finite(w)
    f1 = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    f2 = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    F = BCSequence.from_components(f1, f2)
    for p in (1.0, 2.0, 3.0):
        for n in (0, 1, 17, 39, 40):
            t1 = np.sum(np.abs(f1[n:]) ** p * w[n:]) ** (1.0 / p) if n < 40 else 0.0
            t2 = np.sum(np.abs(f2[n:]) ** p * w[n:]) ** (1.0 / p) if n < 40 else 0.0
            want = math.hypot(t1, t2) / SQRT2
            got = schauder_tail(F, n, p, sp)
            assert abs(got - want) <= 1e-12 * max(1.0, want)


def test_schauder_tail_monotone_to_zero():
    rng = np.random.default_rng(38)
    sp = AtomicMeasureSpace.finite(np.ones(30))
    f = (rng.standard_normal(30) + 1j * rng.standard_normal(30)) * 0.5 ** np.arange(30)
    F = BCSequence.from_components(f, 2 * f)
    tails = [schauder_tail(F, n, 2.0, sp) for n in range(31)]
    assert all(tails[k + 1] <= tails[k] + 1e-15 for k in range(30))
    assert tails[30] == 0.0
    assert tails[0] > 0


def test_schauder_tail_lazy_geometric_closed_form():
    sp = AtomicMeasureSpace.counting(10 ** 5)
    F = BCSequence.from_rules(lambda i: np.power(0.5, i), lambda i: 0.0 * i)
    got = schauder_tail(F, 3, 2.0, sp)
    # sum_{n>3} 4^{-n} = 4^{-4} / (1 - 1/4) = 1/192
    want = math.sqrt(1.0 / 192.0) / SQRT2
    assert abs(got - want) < 1e-9


def test_schauder_tail_past_an_array_settles_at_once(monkeypatch):
    # an exhausted array tail has a support of 0 atoms, and the march reads
    # no block of it
    blocks = []
    component_block = orlicz.component_block
    monkeypatch.setattr(
        orlicz,
        "component_block",
        lambda raw, idx: blocks.append(idx.size) or component_block(raw, idx),
    )
    F = BCSequence.from_components([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
    assert schauder_tail(F, 5, 2.0, AtomicMeasureSpace.counting(10 ** 6)) == 0.0
    assert blocks == []


def test_schauder_tail_at_zero_equals_the_p1_norm_near_float_max():
    # with n = 0 and p = 1 the tail is the whole l^1 norm; its components
    # are finite, and the tail once combined them to inf where the norm did not
    sp = AtomicMeasureSpace.finite([1.0])
    F = BCSequence.from_components([1.5e308], [1.5e308])
    tail = schauder_tail(F, 0, 1.0, sp)
    assert math.isfinite(tail)
    assert tail == norm_bc(OrliczFunction.power(1), F, sp)


def test_schauder_tail_at_zero_is_finite_where_the_p_sum_overflows():
    # |f|^2 = 1e400 passes the floats: the tail once summed it unnormalised
    # and read inf, where the gauge reads 1e200
    sp = AtomicMeasureSpace.finite([1.0])
    F = BCSequence.from_components([1e200], [1e200])
    assert schauder_tail(F, 0, 2.0, sp) == norm_bc(OrliczFunction.power(2), F, sp) == 1e200


TAIL_SPACES = [
    AtomicMeasureSpace.finite(np.linspace(0.2, 2.0, 300)),
    AtomicMeasureSpace.counting(5000),
    AtomicMeasureSpace.geometric(0.5, 5000),
    AtomicMeasureSpace.geometric(2.0, 1200),
]


def tail_sequences(size):
    rng = np.random.default_rng(41)
    arr = lambda n: rng.standard_normal(n) + 1j * rng.standard_normal(n)  # noqa: E731
    return {
        "arrays": BCSequence.from_components(arr(size), arr(size)),
        "rules": BCSequence.from_rules(lambda i: 3.0 / i**2, lambda i: 0.5 ** np.minimum(i, 1100)),
        "array and rule": BCSequence.from_components(
            arr(min(size, 40)), lambda i: (-1.0) ** i / i
        ),
        "zero": BCSequence.from_rules(lambda i: 0.0 * i, lambda i: 0.0 * i),
    }


def outcome(call):
    try:
        return call()
    except Exception as exc:  # an unsettled tail must fail as the norm does
        return type(exc), str(exc)


@pytest.mark.parametrize("space", TAIL_SPACES, ids=lambda sp: sp.rule or "finite")
@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
def test_schauder_tail_at_zero_is_the_power_norm(space, p):
    for name, F in tail_sequences(space.size).items():
        if space.is_lazy or not F.is_lazy:
            assert outcome(lambda: schauder_tail(F, 0, p, space)) == outcome(
                lambda: norm_bc(OrliczFunction.power(p), F, space)
            ), name


def shifted(raw, n):
    return (lambda i: raw(i + n)) if callable(raw) else raw[n:]


@pytest.mark.parametrize("n", [1, 7, 999, 4999])
@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
def test_schauder_tail_is_the_norm_of_the_shifted_sequence(n, p):
    # on counting, the tail past n is the sequence moved n atoms to the left.
    # An array's tail is the same exact sum, bit for bit.  A rule's tail is
    # probed over the dyadic blocks of its own atom index, the moved rule's
    # over those of its positions, so the two probes can settle at
    # different blocks or not at all; where both settle they agree, and the
    # tail never reads diverged where the moved rule does not
    size = 5000
    for name, F in tail_sequences(size).items():
        moved = BCSequence(shifted(F.comp1, n), shifted(F.comp2, n))
        want = outcome(
            lambda: norm_bc(OrliczFunction.power(p), moved, AtomicMeasureSpace.counting(size - n))
        )
        got = outcome(lambda: schauder_tail(F, n, p, AtomicMeasureSpace.counting(size)))
        if not F.is_lazy:
            assert got == want, name
        elif isinstance(got, float) and isinstance(want, float):
            assert got == pytest.approx(want, rel=1e-12, abs=0.0), name
        elif isinstance(got, tuple) and got[0] is NotInSpaceError:
            assert isinstance(want, tuple) and want[0] is NotInSpaceError, (name, got, want)


def zeta_tail(s, n):
    """``sum_{k > n} k^-s`` for an integer ``s >= 2``: the terms up to
    ``n + 1000`` by ``math.fsum``, and the rest by Euler-Maclaurin from
    ``m = n + 1000``, whose first omitted term is below ``m^-(s+5) / 40``."""
    m = n + 1000
    head = math.fsum(float(k) ** -s for k in range(n + 1, m + 1))
    rest = (
        m ** (1.0 - s) / (s - 1)
        - 0.5 * m**-s
        + s * m ** (-s - 1.0) / 12
        - s * (s + 1) * (s + 2) * m ** (-s - 3.0) / 720
    )
    return head + rest


C = 0.7
# (index rule, p, the closed form of sum_{k > n} |f_k|^p)
TAIL_ORACLES = {
    "1/n^2, p=1": (lambda i: 1.0 / i**2, 1.0, lambda n: zeta_tail(2, n)),
    "1/n^2, p=2": (lambda i: 1.0 / i**2, 2.0, lambda n: zeta_tail(4, n)),
    "c/n, p=2": (lambda i: C / i, 2.0, lambda n: C * C * zeta_tail(2, n)),
    "0.9^n, p=1": (lambda i: 0.9**i, 1.0, lambda n: 0.9 ** (n + 1) / 0.1),
}
# divergent at every offset
TAIL_DIVERGENT = {
    "1/n, p=1": (lambda i: 1.0 / i, 1.0),
    "1/sqrt(n), p=2": (lambda i: 1.0 / np.sqrt(i), 2.0),
}


@pytest.mark.parametrize(
    "n, window",
    [
        (n, window)
        for window in (5000, 12345, 10**5, 10**6)
        for n in (1, 7, 10, 999, 1234, 10**4)
        if n < window  # past the window's end a tail is empty
    ],
)
def test_lazy_tails_against_closed_forms(n, window):
    # a tail's probe reads no convergent tail as diverged, and every
    # settled value is its closed form; a divergent tail never settles
    space = AtomicMeasureSpace.counting(window)
    for name, (rule, p, closed) in TAIL_ORACLES.items():
        mv = modular(OrliczFunction.power(p), rule, space, offset=n)
        assert mv.status != "diverged", (name, mv)
        if mv.status == "converged":
            assert mv.value == pytest.approx(closed(n), rel=1e-12, abs=0.0), (name, mv)
    for name, (rule, p) in TAIL_DIVERGENT.items():
        mv = modular(OrliczFunction.power(p), rule, space, offset=n)
        assert mv.status != "converged", (name, mv)


def test_lazy_tails_settle_early():
    # the tail's blocks are the series' dyadic blocks of the atom index
    space = AtomicMeasureSpace.counting(10**6)
    mv = modular(OrliczFunction.power(2), lambda i: C / i, space, offset=10)
    assert mv.status == "converged" and mv.n_terms <= 2**15 - 1, mv
    assert mv.value == pytest.approx(C * C * zeta_tail(2, 10), rel=1e-14, abs=0.0)
    mv = modular(OrliczFunction.power(2), lambda i: C / i, space, offset=999)
    assert mv.status == "converged", mv


def test_schauder_tail_of_a_short_convergent_tail_is_not_refused_as_divergent():
    # 1/n^2 past 10000 on counting(12345): one cut dyadic block cannot show
    # divergence, so the tail is inconclusive, not outside the space
    F = BCSequence.from_rules(lambda i: 1.0 / i**2, lambda i: 0.0 * i)
    try:
        schauder_tail(F, 10**4, 1.0, AtomicMeasureSpace.counting(12345))
    except UnsupportedInstanceError:
        pass


def test_schauder_tail_rejects_bad_inputs():
    sp = AtomicMeasureSpace.finite([1.0, 1.0])
    F = BCSequence.from_components([1, 2], [3, 4])
    with pytest.raises(InvalidInputError):
        schauder_tail(F, -1, 2.0, sp)
    with pytest.raises(InvalidInputError):
        schauder_tail(F, 0, 0.5, sp)


def test_schauder_tail_divergent_sequence_raises():
    sp = AtomicMeasureSpace.counting(10 ** 5)
    F = BCSequence.from_rules(lambda i: np.ones_like(i, dtype=float), lambda i: 0.0 * i)
    with pytest.raises(NotInSpaceError):
        schauder_tail(F, 0, 2.0, sp)


def test_schauder_tail_inconclusive_raises():
    sp = AtomicMeasureSpace.counting(10 ** 5)
    F = BCSequence.from_rules(lambda i: np.power(i, -0.55), lambda i: 0.0 * i)
    with pytest.raises(UnsupportedInstanceError, match="power:p=2 modular.*no gauge can be"):
        schauder_tail(F, 0, 2.0, sp)


# ---------------------------------------------------------------- pairing


def test_pairing_finite_matches_direct_sum():
    rng = np.random.default_rng(39)
    for _ in range(20):
        n = int(rng.integers(1, 15))
        w = rng.uniform(0.1, 2.0, n)
        sp = AtomicMeasureSpace.finite(w)
        x1 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x2 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        y1 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        y2 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        Z = pairing(
            BCSequence.from_components(x1, x2),
            BCSequence.from_components(y1, y2),
            sp,
        )
        assert abs(Z.beta1 - np.sum(x1 * y1 * w)) < 1e-12 * max(1.0, abs(Z.beta1))
        assert abs(Z.beta2 - np.sum(x2 * y2 * w)) < 1e-12 * max(1.0, abs(Z.beta2))


def test_pairing_is_bilinear():
    sp = AtomicMeasureSpace.finite([1.0, 2.0])
    X = BCSequence.from_values([BiComplex(1, 2), BiComplex(3, 4)])
    Y = BCSequence.from_values([BiComplex(5, 6), BiComplex(7, 8)])
    Z = pairing(BCSequence.from_components(2.0 * X.comp1, 2.0 * X.comp2), Y, sp)
    W = pairing(X, Y, sp)
    assert (Z - W - W).norm() < 1e-12


def test_pairing_holder_witness_is_sharp():
    # on a single unit atom with x = y = e both norms are 1/sqrt(2) while
    # |<x, y>| = |e| = 1/sqrt(2): the ratio is exactly sqrt(2)
    sp = AtomicMeasureSpace.finite([1.0])
    X = BCSequence.from_values([E])
    Y = BCSequence.from_values([E])
    val = pairing(X, Y, sp).norm()
    nx = norm_bc(OrliczFunction.power(2), X, sp)
    ny = norm_bc(OrliczFunction.power(2), Y, sp)
    assert abs(val - SQRT2 * nx * ny) < 1e-10
    assert val > nx * ny + 0.1  # the constant 1 would be wrong


def test_pairing_lazy_convergent():
    sp = AtomicMeasureSpace.counting(10 ** 5)
    X = BCSequence.from_rules(lambda i: np.power(0.5, i), lambda i: 0.0 * i)
    Z = pairing(X, X, sp)
    assert abs(Z.beta1 - 1.0 / 3.0) < 1e-9
    assert abs(Z.beta2) == 0.0


def test_pairing_lazy_divergent_raises():
    sp = AtomicMeasureSpace.counting(10 ** 5)
    ones = BCSequence.from_rules(
        lambda i: np.ones_like(i, dtype=float), lambda i: np.ones_like(i, dtype=float)
    )
    with pytest.raises(NotSummableError):
        pairing(ones, ones, sp)


def test_pairing_lazy_inconclusive_warns_and_returns_partial():
    sp = AtomicMeasureSpace.counting(10 ** 5)
    X = BCSequence.from_rules(lambda i: np.power(i, -0.55), lambda i: 0.0 * i)
    with pytest.warns(RuntimeWarning):
        Z = pairing(X, X, sp)
    assert 0 < Z.beta1.real < 11.0  # zeta(1.1) is about 10.58


def test_pairing_lazy_array_is_summed_to_its_last_entry():
    # zero leading blocks must not settle the probe before the one nonzero atom
    sp = AtomicMeasureSpace.counting(10 ** 6)
    x = np.zeros(3001)
    x[-1] = 1.0
    X = BCSequence.from_components(x, x)
    Y = BCSequence.from_components(np.ones(3001), np.ones(3001))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        Z = pairing(X, Y, sp)
    assert Z.beta1 == 1.0 and Z.beta2 == 1.0


def test_pairing_lazy_array_with_rule():
    # the product vanishes past the array, so its length bounds the probe
    sp = AtomicMeasureSpace.counting(10 ** 6)
    x = np.zeros(5001, dtype=complex)
    x[0], x[-1] = 2.0, 1j
    X = BCSequence.from_components(x, x)
    Y = BCSequence.from_rules(lambda i: 1.0 / i, lambda i: 0.0 * i)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        Z = pairing(X, Y, sp)
    assert Z.beta1 == 2.0 + 1j / 5001
    assert Z.beta2 == 0.0


def test_zero_times_overflowed_weight_is_zero():
    # geometric(2) weights overflow to inf past atom 1025 while exp(-n)
    # underflows to 0 past atom 745; the true modular is finite
    sp = AtomicMeasureSpace.geometric(2.0, 10 ** 6)
    phi = OrliczFunction.power(2)
    want = math.exp(-2.0) / (1.0 - 2.0 * math.exp(-2.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mv = modular(phi, lambda i: np.exp(-i), sp)
        lam = luxemburg_norm(phi, lambda i: np.exp(-i), sp)
    assert mv.status == "converged"
    assert mv.value == pytest.approx(want, rel=1e-12)
    assert lam == pytest.approx(math.sqrt(want), rel=1e-12)


@pytest.mark.parametrize(
    "rule", [lambda i: 1.0, lambda i: np.ones(3)], ids=["scalar", "wrong-shape"]
)
def test_rule_output_of_the_wrong_shape_is_refused(rule):
    with pytest.raises(InvalidInputError, match="shape"):
        modular(OrliczFunction.power(2), rule, AtomicMeasureSpace.counting(10 ** 5))


def test_nan_in_a_pairing_rule_is_refused():
    # the products 1/n^2 settle past 2^14 atoms, so the probe reads atom 1234
    X = BCSequence.from_rules(lambda i: np.where(i == 1234, np.nan, 1.0 / i), lambda i: 0.0 * i)
    with pytest.raises(InvalidInputError, match="nan at index 1234"):
        pairing(X, X, AtomicMeasureSpace.counting(10 ** 5))


def test_inf_in_a_modular_rule_is_refused():
    rule = lambda i: np.where(i == 9, np.inf, 1.0 / i**2)  # noqa: E731
    sp = AtomicMeasureSpace.counting(10 ** 5)
    with pytest.raises(InvalidInputError, match="inf at index 9"):
        modular(OrliczFunction.power(2), rule, sp)
    with pytest.raises(InvalidInputError, match="inf at index 9"):
        luxemburg_norm(OrliczFunction.power(2), rule, sp)


# ------------------------------------------------------- inclusion behavior


def test_bounded_sequences_have_finite_modular_on_finite_mass():
    # on a finite-total-mass space every bounded sequence has finite modular
    # for each built-in family
    rng = np.random.default_rng(40)
    w = rng.uniform(0.01, 1.0, 200)
    sp = AtomicMeasureSpace.finite(w)
    f = rng.uniform(-5, 5, 200) + 1j * rng.uniform(-5, 5, 200)
    for phi in (
        OrliczFunction.power(1),
        OrliczFunction.power(2),
        OrliczFunction.exp_type(),
        OrliczFunction.entropy(),
    ):
        mv = modular(phi, f, sp)
        assert mv.status == "exact"
        assert math.isfinite(mv.value)
