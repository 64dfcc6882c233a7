"""Unit tests for atomic measure spaces, index maps, and distortion."""

import math

import numpy as np
import pytest

from bcorlicz import (
    AtomicMeasureSpace,
    IndexMap,
    InvalidInputError,
    InvalidMapError,
    distortion_ratios,
)


def test_finite_space_basics():
    sp = AtomicMeasureSpace.finite([1.0, 1.0, 2.0])
    assert not sp.is_lazy
    assert sp.size == 3
    np.testing.assert_allclose(sp.weight_block(np.arange(1, 4)), [1.0, 1.0, 2.0])
    np.testing.assert_allclose(sp.weight_block(np.array([2, 3])), [1.0, 2.0])


def test_finite_space_rejects_bad_weights():
    with pytest.raises(InvalidInputError):
        AtomicMeasureSpace.finite([])
    with pytest.raises(InvalidInputError, match=r"^atom 2 has weight 0\.0; weights must be > 0$"):
        AtomicMeasureSpace.finite([1.0, 0.0])
    with pytest.raises(InvalidInputError, match=r"^atom 3 has weight -2\.0"):
        AtomicMeasureSpace.finite([1.0, 1.0, -2.0])
    with pytest.raises(InvalidInputError):
        AtomicMeasureSpace.finite([1.0, float("nan")])


def test_counting_space():
    sp = AtomicMeasureSpace.counting(100)
    assert sp.is_lazy
    assert sp.size == 100
    np.testing.assert_array_equal(sp.weight_block(np.arange(7, 11)), np.ones(4))


def test_geometric_space():
    sp = AtomicMeasureSpace.geometric(0.5, 10)
    # weights r^(n-1): 1, 1/2, 1/4, ...
    np.testing.assert_allclose(sp.weight_block(np.arange(1, 5)), [1.0, 0.5, 0.25, 0.125])
    window = sp.weight_block(np.arange(1, 11))
    assert abs(window.sum() - (2.0 - 2.0 ** -9)) < 1e-12
    # ratios above 1 are allowed, weights just grow
    growing = AtomicMeasureSpace.geometric(2.0, 10)
    np.testing.assert_allclose(growing.weight_block(np.array([4])), [8.0])
    with pytest.raises(InvalidInputError):
        AtomicMeasureSpace.geometric(0.0, 10)
    with pytest.raises(InvalidInputError):
        AtomicMeasureSpace.counting(0)


def test_space_json_round_trip():
    sp = AtomicMeasureSpace.finite([1.0, 2.5])
    again = AtomicMeasureSpace.from_json_dict(sp.to_json_dict())
    np.testing.assert_allclose(again.weight_block(np.array([1, 2])), [1.0, 2.5])

    lazy = AtomicMeasureSpace.geometric(0.25, 50)
    obj = lazy.to_json_dict()
    assert obj == {"weights_rule": "geometric:0.25", "n_max": 50}
    again = AtomicMeasureSpace.from_json_dict(obj)
    assert again.is_lazy and again.size == 50
    np.testing.assert_allclose(again.weight_block(np.array([2])), [0.25])

    with pytest.raises(InvalidInputError):
        AtomicMeasureSpace.from_json_dict({"weights_rule": "fibonacci", "n_max": 5})
    with pytest.raises(InvalidInputError):
        AtomicMeasureSpace.from_json_dict({"nope": 1})


def test_index_map_table():
    m = IndexMap.from_table([1, 1, 2])
    np.testing.assert_array_equal(m.image_block(np.arange(1, 4)), [1, 1, 2])
    with pytest.raises(InvalidMapError):
        IndexMap.from_table([0, 1])
    with pytest.raises(InvalidMapError):
        IndexMap.from_table([1.5, 1])
    with pytest.raises(InvalidInputError):
        IndexMap.from_table([])


def test_index_map_right_shift():
    m = IndexMap.right_shift()
    # T(n) = n - 1; preimage of n is {n+1}
    np.testing.assert_array_equal(m.image_block(np.arange(2, 5)), [1, 2, 3])


def test_index_map_json():
    m = IndexMap.from_table([2, 1])
    assert IndexMap.from_json_dict(m.to_json_dict()).kind == "table"
    shift = IndexMap.from_json_dict({"map_rule": "right_shift"})
    assert shift.kind == "right_shift"
    with pytest.raises(InvalidInputError):
        IndexMap.from_json_dict({"map_rule": "left_shift"})


def test_pushforward_worked_example():
    sp = AtomicMeasureSpace.finite([1.0, 1.0, 2.0])
    m = IndexMap.from_table([1, 1, 2])
    dist = distortion_ratios(sp, m)
    # preimages: {1,2} -> mass 2, {3} -> mass 2, {} -> mass 0
    np.testing.assert_allclose(dist.ratios * sp.weights, [2.0, 2.0, 0.0])
    np.testing.assert_allclose(dist.ratios, [2.0, 2.0, 0.0])
    assert dist.sup == 2.0


def test_pushforward_conserves_mass():
    rng = np.random.default_rng(21)
    for _ in range(50):
        n = int(rng.integers(1, 30))
        weights = rng.uniform(0.1, 3.0, n)
        table = rng.integers(1, n + 1, n)
        sp = AtomicMeasureSpace.finite(weights)
        masses = distortion_ratios(sp, IndexMap.from_table(table)).ratios * weights
        assert abs(masses.sum() - weights.sum()) < 1e-9 * weights.sum()


def test_pushforward_brute_force_cross_check():
    rng = np.random.default_rng(22)
    for _ in range(50):
        n = int(rng.integers(1, 12))
        weights = rng.uniform(0.1, 3.0, n)
        table = rng.integers(1, n + 1, n)
        sp = AtomicMeasureSpace.finite(weights)
        dist = distortion_ratios(sp, IndexMap.from_table(table))
        want = np.zeros(n)
        for src, dst in enumerate(table, start=1):
            want[dst - 1] += weights[src - 1] / weights[dst - 1]
        np.testing.assert_allclose(dist.ratios, want)


def test_pushforward_rejects_out_of_range_image():
    sp = AtomicMeasureSpace.finite([1.0, 1.0])
    with pytest.raises(InvalidMapError):
        distortion_ratios(sp, IndexMap.from_table([1, 3]))


def test_pushforward_right_shift_finite():
    sp = AtomicMeasureSpace.finite([3.0, 5.0, 7.0])
    dist = distortion_ratios(sp, IndexMap.right_shift())
    # m_n = weight at n+1; the last atom has empty preimage
    np.testing.assert_allclose(dist.ratios * sp.weights, [5.0, 7.0, 0.0])
    assert (dist.dropped, dist.first_uncovered) == (1, 3)


def test_right_shift_on_counting_has_unit_ratios():
    sp = AtomicMeasureSpace.counting(5000)
    dist = distortion_ratios(sp, IndexMap.right_shift(), budget=1000)
    # atom 1001, the preimage of the window's last atom, lies outside it
    np.testing.assert_array_equal(dist.ratios, np.append(np.ones(999), 0.0))
    assert dist.sup == 1.0
    # the coverage of a lazy window is not read: atom 1001 maps into it
    assert (dist.first_uncovered, dist.dropped) == (None, 1)


def test_right_shift_on_geometric_has_constant_ratio():
    r = 0.5
    sp = AtomicMeasureSpace.geometric(r, 10 ** 6)
    dist = distortion_ratios(sp, IndexMap.right_shift(), budget=500)
    # b_n = a_{n+1} / a_n = r for every n but the window's last
    np.testing.assert_allclose(dist.ratios, np.append(np.full(499, r), 0.0), rtol=1e-12)
    assert abs(dist.sup - r) < 1e-12


def test_right_shift_on_geometric_above_one_stays_finite():
    # the weights 2^(n-1) overflow past atom 1024; the ratios are still 2
    sp = AtomicMeasureSpace.geometric(2.0, 5000)
    dist = distortion_ratios(sp, IndexMap.right_shift())
    np.testing.assert_array_equal(dist.ratios, np.append(np.full(4999, 2.0), 0.0))
    assert dist.sup == 2.0


# the right shift as a rule: the same images but atom 1's, which the
# shift drops and the rule sends to itself
SHIFT_RULE = IndexMap.from_rule(lambda idx: np.maximum(idx - 1, 1), name="max(n - 1, 1)")


@pytest.mark.parametrize(
    "space",
    [
        AtomicMeasureSpace.counting(1000),
        AtomicMeasureSpace.counting(2),
        AtomicMeasureSpace.geometric(0.5, 1000),
        AtomicMeasureSpace.geometric(2.0, 5000),
        AtomicMeasureSpace.geometric(1e-3, 7),
        AtomicMeasureSpace.finite([3.0, 5.0, 7.0, 11.0]),
    ],
    ids=["counting", "counting(2)", "geometric:0.5", "geometric:2.0", "geometric:1e-3", "finite"],
)
def test_right_shift_reads_the_window_as_its_rule_form_does(space):
    # regression: on a lazy space the shift gave b_n = a_{n+1} / a_n at the
    # window's last atom, from atom n + 1 outside the window, while calling
    # that atom uncovered; every atom but 1 has the rule form's ratio, and
    # only a finite space reads the coverage
    shift = distortion_ratios(space, IndexMap.right_shift(), budget=space.size)
    rule = distortion_ratios(space, SHIFT_RULE, budget=space.size)
    assert shift.ratios[-1] == rule.ratios[-1] == 0.0
    assert shift.ratios[1:].tobytes() == rule.ratios[1:].tobytes()
    uncovered = None if space.is_lazy else space.size
    assert shift.first_uncovered == rule.first_uncovered == uncovered
    assert (shift.dropped, rule.dropped) == (1, 0)
    if space.is_lazy:
        # the quarter and half sups are those of scans with those budgets,
        # each of which leaves its own last atom at 0
        n = space.size
        for m, got in ((max(1, n // 4), shift.sup_quarter), (max(1, n // 2), shift.sup_half)):
            scan = distortion_ratios(space, IndexMap.right_shift(), budget=m)
            assert scan.ratios[-1] == 0.0 and got == scan.sup


def test_right_shift_on_one_atom_has_zero_sup():
    # the only atom is dropped, and its preimage lies outside the window
    dist = distortion_ratios(AtomicMeasureSpace.counting(1), IndexMap.right_shift())
    assert dist.ratios.tolist() == [0.0]
    assert (dist.sup, dist.sup_quarter, dist.sup_half) == (0.0, 0.0, 0.0)
    assert (dist.first_uncovered, dist.dropped) == (None, 1)


def test_lazy_rule_map_uses_window():
    sp = AtomicMeasureSpace.counting(10 ** 6)
    double = IndexMap.from_rule(lambda idx: 2 * idx, name="n_to_2n")
    dist = distortion_ratios(sp, double, budget=1000)
    # even targets inside the window receive one unit atom, odd receive none
    assert dist.sup == 1.0
    assert dist.ratios[0] == 0.0 and dist.ratios[1] == 1.0


def test_lazy_space_with_table_map_rejected():
    sp = AtomicMeasureSpace.counting(10 ** 6)
    with pytest.raises(InvalidMapError):
        distortion_ratios(sp, IndexMap.from_table([1, 2]))


def test_distortion_sup_certifies_bounded_composition_small_spaces():
    # brute-force equivalence on small spaces: sup ratio is the least M with
    # pushforward masses <= M * weights pointwise
    rng = np.random.default_rng(23)
    for _ in range(40):
        n = int(rng.integers(1, 7))
        weights = rng.uniform(0.2, 2.0, n)
        table = rng.integers(1, n + 1, n)
        sp = AtomicMeasureSpace.finite(weights)
        m = IndexMap.from_table(table)
        dist = distortion_ratios(sp, m)
        masses = np.bincount(table - 1, weights=weights, minlength=n)
        sup = dist.sup
        assert np.all(masses <= sup * weights + 1e-12)
        if sup > 0:
            tighter = sup * (1 - 1e-9)
            assert np.any(masses > tighter * weights - 1e-15)


@pytest.mark.parametrize("ratio", [0.5, 1e-3, 2.0, 0.999])
@pytest.mark.parametrize("below", [True, False], ids=["underflowing", "none below -746"])
def test_geometric_shares_match_the_unmasked_exp_bit_for_bit(ratio, below):
    # shares a_k / a_n = exp((k - n) log r), with k - n spanning the
    # exponents where exp underflows, about -745.13, and -746 itself; or
    # all of them above -746
    from bcorlicz.measure import _weight_ratios

    space = AtomicMeasureSpace.geometric(ratio, 10**6)
    log_r = math.log(ratio)
    edge = round(-745.13 / log_r)
    lo, hi = sorted((edge - 1500, edge + 1500))
    d = np.concatenate([np.arange(lo, hi + 1), np.arange(-1100, 1101)])
    if not below:
        d = d[d * log_r >= -746.0]
    n = np.full(d.shape, 2_000_000, dtype=np.int64)
    k = n + d
    x = d * log_r
    assert (x.min() < -746.0) == below and -745.13 < x.max()
    with np.errstate(over="ignore", under="ignore"):
        want = np.exp((k - n) * log_r)
    got = _weight_ratios(space, k, n)
    assert got.tobytes() == want.tobytes()
    # the subnormal shares are kept
    assert np.any((got > 0) & (got < np.finfo(float).tiny))
    # the weights a_n = r**(n - 1) come from the same masked exp, over the
    # first atoms and around the atom where they underflow (or overflow)
    atoms = np.concatenate([np.arange(1, 2201), abs(edge) + 1 + np.arange(-1500, 1501)])
    atoms = atoms[atoms >= 1]
    with np.errstate(over="ignore", under="ignore"):
        want_weights = np.exp((atoms - 1) * log_r)
    assert space.weight_block(atoms).tobytes() == want_weights.tobytes()
