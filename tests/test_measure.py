"""Unit tests for atomic measure spaces, index maps, and distortion."""

import numpy as np
import pytest

from bcorlicz import (
    AtomicMeasureSpace,
    IndexMap,
    InvalidInputError,
    InvalidMapError,
    distortion_ratios,
    is_nonsingular,
    pushforward,
)


def test_finite_space_basics():
    sp = AtomicMeasureSpace.finite([1.0, 1.0, 2.0])
    assert not sp.is_lazy
    assert sp.size == 3
    assert sp.total_mass() == 4.0
    np.testing.assert_allclose(sp.weight_block(np.arange(1, 4)), [1.0, 1.0, 2.0])
    np.testing.assert_allclose(sp.weight_block(np.array([2, 3])), [1.0, 2.0])


def test_finite_space_rejects_bad_weights():
    with pytest.raises(InvalidInputError):
        AtomicMeasureSpace.finite([])
    with pytest.raises(InvalidInputError):
        AtomicMeasureSpace.finite([1.0, 0.0])
    with pytest.raises(InvalidInputError):
        AtomicMeasureSpace.finite([1.0, -2.0])
    with pytest.raises(InvalidInputError):
        AtomicMeasureSpace.finite([1.0, float("nan")])
    # zero weights allowed only in diagnostic mode
    sp = AtomicMeasureSpace.finite([1.0, 0.0], allow_null_atoms=True)
    assert sp.total_mass() == 1.0


def test_counting_space():
    sp = AtomicMeasureSpace.counting(100)
    assert sp.is_lazy
    assert sp.size == 100
    np.testing.assert_array_equal(sp.weight_block(np.arange(7, 11)), np.ones(4))
    with pytest.raises(InvalidInputError):
        sp.total_mass()


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
    push = pushforward(sp, m)
    # preimages: {1,2} -> mass 2, {3} -> mass 2, {} -> mass 0
    np.testing.assert_allclose(push.masses, [2.0, 2.0, 0.0])
    assert not push.truncated
    dist = distortion_ratios(sp, m)
    np.testing.assert_allclose(dist.ratios, [2.0, 2.0, 0.0])
    assert dist.sup == 2.0


def test_pushforward_conserves_mass():
    rng = np.random.default_rng(21)
    for _ in range(50):
        n = int(rng.integers(1, 30))
        weights = rng.uniform(0.1, 3.0, n)
        table = rng.integers(1, n + 1, n)
        sp = AtomicMeasureSpace.finite(weights)
        push = pushforward(sp, IndexMap.from_table(table))
        assert abs(push.masses.sum() - weights.sum()) < 1e-9 * weights.sum()


def test_pushforward_brute_force_cross_check():
    rng = np.random.default_rng(22)
    for _ in range(50):
        n = int(rng.integers(1, 12))
        weights = rng.uniform(0.1, 3.0, n)
        table = rng.integers(1, n + 1, n)
        sp = AtomicMeasureSpace.finite(weights)
        push = pushforward(sp, IndexMap.from_table(table))
        want = np.zeros(n)
        for src, dst in enumerate(table, start=1):
            want[dst - 1] += weights[src - 1]
        np.testing.assert_allclose(push.masses, want)


def test_pushforward_rejects_out_of_range_image():
    sp = AtomicMeasureSpace.finite([1.0, 1.0])
    with pytest.raises(InvalidMapError):
        pushforward(sp, IndexMap.from_table([1, 3]))


def test_pushforward_right_shift_finite():
    sp = AtomicMeasureSpace.finite([3.0, 5.0, 7.0])
    push = pushforward(sp, IndexMap.right_shift())
    # m_n = weight at n+1; the last atom has empty preimage
    np.testing.assert_allclose(push.masses, [5.0, 7.0, 0.0])


def test_right_shift_on_counting_has_unit_ratios():
    sp = AtomicMeasureSpace.counting(5000)
    dist = distortion_ratios(sp, IndexMap.right_shift(), budget=1000)
    assert dist.truncated
    np.testing.assert_allclose(dist.ratios, np.ones(1000))
    assert dist.sup == 1.0


def test_right_shift_on_geometric_has_constant_ratio():
    r = 0.5
    sp = AtomicMeasureSpace.geometric(r, 10 ** 6)
    dist = distortion_ratios(sp, IndexMap.right_shift(), budget=500)
    # b_n = a_{n+1} / a_n = r for every n
    np.testing.assert_allclose(dist.ratios, np.full(500, r), rtol=1e-12)
    assert abs(dist.sup - r) < 1e-12


def test_right_shift_on_geometric_above_one_stays_finite():
    # the weights 2^(n-1) overflow past atom 1024; the ratios are still 2
    sp = AtomicMeasureSpace.geometric(2.0, 5000)
    dist = distortion_ratios(sp, IndexMap.right_shift())
    np.testing.assert_array_equal(dist.ratios, np.full(5000, 2.0))
    assert dist.sup == 2.0


def test_lazy_rule_map_uses_window():
    sp = AtomicMeasureSpace.counting(10 ** 6)
    double = IndexMap.from_rule(lambda idx: 2 * idx, name="n_to_2n")
    dist = distortion_ratios(sp, double, budget=1000)
    assert dist.truncated
    # even targets inside the window receive one unit atom, odd receive none
    assert dist.sup == 1.0
    assert dist.ratios[0] == 0.0 and dist.ratios[1] == 1.0


def test_lazy_space_with_table_map_rejected():
    sp = AtomicMeasureSpace.counting(10 ** 6)
    with pytest.raises(InvalidMapError):
        pushforward(sp, IndexMap.from_table([1, 2]))


def test_zero_weight_targets():
    sp = AtomicMeasureSpace.finite([1.0, 0.0], allow_null_atoms=True)
    # mass lands on a null atom -> infinite ratio
    dist = distortion_ratios(sp, IndexMap.from_table([2, 2]))
    assert dist.ratios[1] == np.inf
    assert dist.sup == np.inf
    # no mass on the null atom -> ratio 0, harmless
    dist = distortion_ratios(sp, IndexMap.from_table([1, 1]))
    assert dist.ratios[1] == 0.0
    assert dist.sup == 1.0


def test_is_nonsingular():
    sp = AtomicMeasureSpace.finite([1.0, 1.0, 2.0])
    ok, detail = is_nonsingular(sp, IndexMap.from_table([1, 1, 2]))
    assert ok
    bad_sp = AtomicMeasureSpace.finite([1.0, 0.0], allow_null_atoms=True)
    ok, detail = is_nonsingular(bad_sp, IndexMap.from_table([2, 2]))
    assert not ok
    assert "2" in detail
    ok, _ = is_nonsingular(bad_sp, IndexMap.from_table([1, 1]))
    assert ok


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
        push = pushforward(sp, m)
        sup = dist.sup
        assert np.all(push.masses <= sup * weights + 1e-12)
        if sup > 0:
            tighter = sup * (1 - 1e-9)
            assert np.any(push.masses > tighter * weights - 1e-15)
