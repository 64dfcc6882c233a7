"""Tests for bicomplex operators: application, inversion, boundedness checks."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcorlicz import (
    AtomicMeasureSpace,
    BCMatrix,
    BCOperator,
    BCSequence,
    BiComplex,
    BoundednessReport,
    IndexMap,
    InvalidInputError,
    InvalidMapError,
    NotInvertibleError,
    OrliczFunction,
    apply_operator,
    check_composition_bounded,
    check_multiplication_bounded,
    decompose,
    empirical_operator_norm,
    empirical_ratios,
    invert_operator,
    norm_bc,
    operators,
)


def rand_seq(rng, n):
    return BCSequence.from_components(
        rng.standard_normal(n) + 1j * rng.standard_normal(n),
        rng.standard_normal(n) + 1j * rng.standard_normal(n),
    )


# ---------------------------------------------------------------- application


def test_right_shift_apply_finite():
    sp = AtomicMeasureSpace.finite(np.ones(4))
    F = BCSequence.from_components([1, 2, 3, 4], [5, 6, 7, 8])
    G = apply_operator(BCOperator.right_shift(), F, sp)
    np.testing.assert_array_equal(G.array(1, sp), [0, 1, 2, 3])
    np.testing.assert_array_equal(G.array(2, sp), [0, 5, 6, 7])


def test_right_shift_apply_lazy_array():
    sp = AtomicMeasureSpace.counting(1000)
    F = BCSequence.from_components([9, 8], [7, 6])
    G = apply_operator(BCOperator.right_shift(), F, sp)
    np.testing.assert_array_equal(G.block(1, np.arange(1, 5)), [0, 9, 8, 0])
    np.testing.assert_array_equal(G.block(2, np.arange(1, 5)), [0, 7, 6, 0])


def test_composition_apply_matches_index_table():
    rng = np.random.default_rng(51)
    for _ in range(20):
        n = int(rng.integers(1, 12))
        table = rng.integers(1, n + 1, n)
        sp = AtomicMeasureSpace.finite(rng.uniform(0.5, 1.5, n))
        F = rand_seq(rng, n)
        op = BCOperator.composition(IndexMap.from_table(table))
        G = apply_operator(op, F, sp)
        f1 = F.array(1, sp)
        np.testing.assert_allclose(G.array(1, sp), f1[table - 1])


def test_composition_apply_rejects_escaping_images():
    sp = AtomicMeasureSpace.finite(np.ones(2))
    op = BCOperator.composition(IndexMap.from_table([1, 3]))
    with pytest.raises(InvalidMapError):
        apply_operator(op, BCSequence.from_components([1, 2], [1, 2]), sp)


def test_composition_apply_lazy_rule():
    sp = AtomicMeasureSpace.counting(10 ** 6)
    double = IndexMap.from_rule(lambda idx: 2 * idx, name="n_to_2n")
    F = BCSequence.from_rules(lambda i: 1.0 / i, lambda i: 0.0 * i)
    G = apply_operator(BCOperator.composition(double), F, sp)
    # (f o T)(n) = f(2n) = 1/(2n)
    np.testing.assert_allclose(G.block(1, np.array([1, 2, 3])), [0.5, 0.25, 1 / 6])


def test_multiplication_apply():
    sp = AtomicMeasureSpace.finite(np.ones(3))
    theta = BCSequence.from_components([1, 2, 3], [4, 5, 6])
    F = BCSequence.from_components([1, 1, 1], [1, 1, 1])
    G = apply_operator(BCOperator.multiplication(theta), F, sp)
    np.testing.assert_array_equal(G.array(1, sp), [1, 2, 3])
    np.testing.assert_array_equal(G.array(2, sp), [4, 5, 6])


def test_multiplication_apply_lazy_pads_supports():
    sp = AtomicMeasureSpace.counting(100)
    theta = BCSequence.from_components([2, 2, 2], [3, 3, 3])
    F = BCSequence.from_components([1, 1], [1, 1])
    G = apply_operator(BCOperator.multiplication(theta), F, sp)
    np.testing.assert_array_equal(G.block(1, np.arange(1, 5)), [2, 2, 0, 0])
    np.testing.assert_array_equal(G.block(2, np.arange(1, 5)), [3, 3, 0, 0])


def test_dense_apply_matches_matmul():
    rng = np.random.default_rng(52)
    n = 5
    m1 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    m2 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    sp = AtomicMeasureSpace.finite(np.ones(n))
    F = rand_seq(rng, n)
    G = apply_operator(BCOperator.dense(BCMatrix(m1, m2)), F, sp)
    np.testing.assert_allclose(G.array(1, sp), m1 @ F.array(1, sp))
    np.testing.assert_allclose(G.array(2, sp), m2 @ F.array(2, sp))


def test_dense_apply_dimension_checks():
    sp = AtomicMeasureSpace.finite(np.ones(3))
    op = BCOperator.dense(BCMatrix(np.eye(2), np.eye(2)))
    F = BCSequence.from_components(np.ones(3), np.ones(3))
    with pytest.raises(InvalidInputError):
        apply_operator(op, F, sp)
    with pytest.raises(InvalidInputError):
        apply_operator(op, F, AtomicMeasureSpace.counting(10))


# lazy index maps for the property below (tables need a finite space)
LAZY_MAPS = {
    "k+2": lambda k: k + 2,
    "k//2+1": lambda k: k // 2 + 1,
    "2k": lambda k: 2 * k,
}
COEFS = st.floats(-1e3, 1e3, allow_nan=False)


@st.composite
def components(draw, length):
    """One component: an array of ``length`` entries, or an index rule."""
    if draw(st.booleans()):
        re = draw(st.lists(COEFS, min_size=length, max_size=length))
        im = draw(st.lists(COEFS, min_size=length, max_size=length))
        return np.array(re) + 1j * np.array(im)
    a, b, c = draw(st.tuples(COEFS, COEFS, COEFS))
    return lambda idx: a / idx + 1j * b * np.cos(c * idx)


def _values(raw, idx):
    """Independent reader: arrays zero-extended, rules evaluated."""
    if callable(raw):
        return np.asarray(raw(idx), dtype=complex)
    out = np.zeros(idx.shape, dtype=complex)
    out[idx <= raw.size] = raw[idx[idx <= raw.size] - 1]
    return out


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(
    data=st.data(),
    kind=st.sampled_from(["right_shift", "composition", "multiplication", "dense"]),
    where=st.sampled_from(["finite", "counting", "geometric"]),
)
def test_decompose_reassembles_the_action(data, kind, where):
    # apply_operator is the two factors of decompose(op), one per component,
    # and each factor acts on its component as the kind's formula says
    n = data.draw(st.integers(1, 6))
    sp = {
        "finite": lambda: AtomicMeasureSpace.finite(np.ones(n)),
        "counting": lambda: AtomicMeasureSpace.counting(200),
        "geometric": lambda: AtomicMeasureSpace.geometric(0.5, 200),
    }[where]()
    F = BCSequence(data.draw(components(n)), data.draw(components(n)))
    idx = np.arange(1, (n if where == "finite" else 12) + 1, dtype=np.int64)

    if kind == "right_shift":
        imap = IndexMap.right_shift()
        op = BCOperator.right_shift()
    elif kind == "composition":
        if where == "finite":
            table = data.draw(st.lists(st.integers(1, n), min_size=n, max_size=n))
            imap = IndexMap.from_table(table)
        else:
            name = data.draw(st.sampled_from(sorted(LAZY_MAPS)))
            imap = IndexMap.from_rule(LAZY_MAPS[name], name=name)
        op = BCOperator.composition(imap)
    elif kind == "multiplication":
        theta = BCSequence(data.draw(components(n)), data.draw(components(n)))
        op = BCOperator.multiplication(theta)
    else:
        square = st.lists(COEFS, min_size=n * n, max_size=n * n)
        m1 = np.reshape(data.draw(square), (n, n)) + 0j
        m2 = np.reshape(data.draw(square), (n, n)) + 0j
        op = BCOperator.dense(BCMatrix(m1, m2))
    assert op.kind in ("composition", "multiplication", "dense")

    def want(which):
        f = _values(F.component(which), idx)
        if kind == "multiplication":
            return _values(theta.component(which), idx) * f
        if kind == "dense":
            return (m1, m2)[which - 1] @ f
        images = np.asarray(imap.image_block(idx))
        out = np.zeros(idx.shape, dtype=complex)
        ok = images >= 1
        out[ok] = _values(F.component(which), images[ok])
        return out

    c1, c2 = decompose(op)
    if kind == "dense" and where != "finite":
        for call in (lambda: apply_operator(op, F, sp), lambda: c1(F.comp1, sp)):
            with pytest.raises(InvalidInputError):
                call()
        return
    G = apply_operator(op, F, sp)
    for which, factor in ((1, c1), (2, c2)):
        part = factor(F.component(which), sp)
        np.testing.assert_array_equal(_values(part, idx), G.block(which, idx))
        np.testing.assert_allclose(G.block(which, idx), want(which), rtol=1e-12, atol=1e-9)


def test_decompose_factors_refuse_non_finite_arrays():
    c1, _ = decompose(BCOperator.right_shift())
    with pytest.raises(InvalidInputError):
        c1(np.array([1.0, np.nan]), AtomicMeasureSpace.finite(np.ones(2)))


# ---------------------------------------------------------------- inversion


def test_invert_diagonal_pair():
    inv = invert_operator(BCMatrix(2.0 * np.eye(2), 4.0 * np.eye(2)))
    np.testing.assert_allclose(inv.m1, 0.5 * np.eye(2))
    np.testing.assert_allclose(inv.m2, 0.25 * np.eye(2))


def test_invert_random_pairs():
    rng = np.random.default_rng(54)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        m1 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        m2 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        inv = invert_operator(BCMatrix(m1, m2))
        np.testing.assert_allclose(inv.m1 @ m1, np.eye(n), atol=1e-9)
        np.testing.assert_allclose(inv.m2 @ m2, np.eye(n), atol=1e-9)


def test_invert_names_singular_component():
    good = np.eye(2)
    bad = np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(NotInvertibleError, match="component 2"):
        invert_operator(BCMatrix(good, bad))
    with pytest.raises(NotInvertibleError, match="component 1"):
        invert_operator(BCMatrix(bad, good))
    with pytest.raises(NotInvertibleError, match="component 1.*component 2"):
        invert_operator(BCMatrix(bad, bad))


def test_invert_rejects_non_square():
    m = np.ones((2, 3))
    with pytest.raises(InvalidInputError):
        invert_operator(BCMatrix(np.ones((2, 2)), m))


# ---------------------------------------------------------------- checks


def test_composition_check_finite_worked_example():
    sp = AtomicMeasureSpace.finite([1.0, 2.0, 3.0])
    rep = check_composition_bounded(sp, IndexMap.from_table([1, 1, 2]), OrliczFunction.power(2))
    assert rep.verdict == "bounded"
    assert abs(rep.sup_distortion - 3.0) < 1e-12
    assert rep.bound() == rep.sup_distortion
    assert not rep.distortion_truncated


def test_composition_check_right_shift_lazy():
    sp = AtomicMeasureSpace.counting(10 ** 5)
    rep = check_composition_bounded(sp, IndexMap.right_shift(), OrliczFunction.power(2))
    assert rep.verdict == "bounded"
    assert abs(rep.sup_distortion - 1.0) < 1e-12
    assert rep.distortion_truncated
    assert any("truncated" in note for note in rep.notes)


def test_composition_check_heavy_finite_weights_is_bounded():
    # the pushforward mass 1e308 + 1e308 overflows; the ratios a_k / a_1 do not
    sp = AtomicMeasureSpace.finite([1e308, 1e308])
    rep = check_composition_bounded(sp, IndexMap.from_table([1, 1]), OrliczFunction.power(2))
    assert rep.verdict == "bounded"
    assert rep.sup_distortion == 2.0
    assert rep.bound() == 2.0
    assert not any("zero-weight" in note for note in rep.notes)


@pytest.mark.parametrize("r", [0.5, 0.3])
def test_composition_check_ratio_beyond_floats_is_inconclusive(r):
    # the weights r^(n-1) underflow past atom ~1075 (r = 0.5), and the true
    # ratios b_2k = r^-k leave the float range from k = log(max) / log(1/r)
    sp = AtomicMeasureSpace.geometric(r, 10 ** 4)
    double = IndexMap.from_rule(lambda k: 2 * k, name="2k")
    rep = check_composition_bounded(sp, double, OrliczFunction.power(2))
    assert rep.verdict == "inconclusive"
    assert rep.bound() is None
    if r == 0.3:  # far from a float boundary: 590 * log(1/0.3) = 710.3
        first = 2 * (math.floor(math.log(sys.float_info.max) / math.log(1 / r)) + 1)
        assert any(f"atom {first} overflows" in note for note in rep.notes)
    else:  # 2^1024 sits on the boundary; exp of the rounded log may round either way
        assert any("overflows floats" in note for note in rep.notes)


def test_composition_check_forwards_block_to_the_empirical_probe(monkeypatch):
    seen = []
    real = operators.norm_bc

    def spy(*args, **kwargs):
        seen.append(kwargs.get("block"))
        return real(*args, **kwargs)

    monkeypatch.setattr(operators, "norm_bc", spy)
    sp = AtomicMeasureSpace.counting(1000)
    check_composition_bounded(
        sp, IndexMap.right_shift(), OrliczFunction.power(2), trials=2, block=37
    )
    assert seen and set(seen) == {37}


def test_composition_check_growing_sup_is_inconclusive():
    # preimage of k under ceil(sqrt(n)) has about 2k-1 atoms, so the sup
    # distortion keeps climbing with the scan budget
    sp = AtomicMeasureSpace.counting(10 ** 6)
    sqrtmap = IndexMap.from_rule(
        lambda idx: np.ceil(np.sqrt(idx)).astype(np.int64), name="ceil_sqrt"
    )
    rep = check_composition_bounded(sp, sqrtmap, OrliczFunction.power(2), budget=10 ** 5)
    assert rep.verdict == "inconclusive"
    assert rep.bound() is None
    assert any("grows" in note for note in rep.notes)


def test_composition_check_unbounded_on_null_atom():
    sp = AtomicMeasureSpace.finite([1.0, 0.0], allow_null_atoms=True)
    rep = check_composition_bounded(sp, IndexMap.from_table([2, 2]), OrliczFunction.power(2))
    assert rep.verdict == "unbounded"
    assert rep.bound() is None


def test_composition_check_lambda_pairs():
    sp = AtomicMeasureSpace.finite([1.0, 2.0, 3.0])
    rng = np.random.default_rng(55)
    samples = (rand_seq(rng, 3), rand_seq(rng, 3))
    rep = check_composition_bounded(
        sp, IndexMap.from_table([1, 1, 2]), OrliczFunction.power(2), samples
    )
    assert len(rep.lambda_pairs) == 2
    for lam1, lam2 in rep.lambda_pairs:
        assert lam1 is not None and 0 < lam1 <= 1.0
        assert lam2 is not None and 0 < lam2 <= 1.0


def test_composition_check_attaches_delta2_and_empirical():
    sp = AtomicMeasureSpace.finite([1.0, 1.0])
    rep = check_composition_bounded(
        sp, IndexMap.from_table([2, 1]), OrliczFunction.power(2), trials=4, seed=3
    )
    assert rep.delta2 is not None
    assert abs(rep.delta2.k_estimate - 4.0) < 1e-9
    # a permutation of equal weights is an isometry
    assert rep.empirical_norm is not None
    assert abs(rep.empirical_norm - 1.0) < 1e-9


def test_multiplication_check_finite_exact():
    sp = AtomicMeasureSpace.finite(np.ones(3))
    theta = BCSequence.from_components([1, -2, 1.5], [0.5, 0, 3j])
    rep = check_multiplication_bounded(theta, sp)
    assert rep.verdict == "bounded"
    assert rep.ess_sups == (2.0, 3.0)
    assert rep.bound() == 3.0


def test_multiplication_check_lazy_bounded():
    sp = AtomicMeasureSpace.counting(10 ** 5)
    theta = BCSequence.from_rules(
        lambda i: 1.0 + 1.0 / i, lambda i: np.full(np.shape(i), 0.5)
    )
    rep = check_multiplication_bounded(theta, sp)
    assert rep.verdict == "bounded"
    assert abs(rep.ess_sups[0] - 2.0) < 1e-12
    assert rep.distortion_truncated


def test_multiplication_check_lazy_unbounded():
    sp = AtomicMeasureSpace.counting(10 ** 5)
    theta = BCSequence.from_rules(lambda i: i.astype(float), lambda i: 0.0 * i + 1.0)
    rep = check_multiplication_bounded(theta, sp)
    assert rep.verdict == "unbounded"
    assert rep.bound() is None
    assert any("grows" in note for note in rep.notes)


# ---------------------------------------------------------------- empirical


def test_empirical_identity_ratio_is_one():
    sp = AtomicMeasureSpace.finite(np.ones(4))
    theta = BCSequence.from_components(np.ones(4), np.ones(4))
    ratios = empirical_ratios(
        BCOperator.multiplication(theta), OrliczFunction.power(2), sp, trials=6, seed=1
    )
    np.testing.assert_allclose(ratios, np.ones(ratios.size), atol=1e-10)


def test_empirical_constant_symbol_ratio():
    c = 2.5
    sp = AtomicMeasureSpace.finite(np.ones(5))
    theta = BCSequence.from_components(np.full(5, c), np.full(5, c))
    ratios = empirical_ratios(
        BCOperator.multiplication(theta), OrliczFunction.power(1.5), sp, trials=5, seed=2
    )
    np.testing.assert_allclose(ratios, np.full(ratios.size, c), atol=1e-10)


def test_empirical_right_shift_never_expands():
    sp = AtomicMeasureSpace.counting(10 ** 4)
    ratios = empirical_ratios(
        BCOperator.right_shift(), OrliczFunction.power(2), sp, trials=8, seed=4
    )
    assert ratios.size == 8
    assert np.all(ratios <= 1.0 + 1e-10)
    assert np.all(ratios >= 1.0 - 1e-10)  # shifting unit weights is isometric


def test_empirical_ratios_are_deterministic_per_seed():
    sp = AtomicMeasureSpace.finite(np.ones(3))
    op = BCOperator.composition(IndexMap.from_table([2, 3, 1]))
    a = empirical_ratios(op, OrliczFunction.power(2), sp, trials=5, seed=9)
    b = empirical_ratios(op, OrliczFunction.power(2), sp, trials=5, seed=9)
    np.testing.assert_array_equal(a, b)
    c = empirical_ratios(op, OrliczFunction.power(2), sp, trials=5, seed=10)
    assert a.shape == c.shape


def test_empirical_norm_bounded_by_certificate():
    rng = np.random.default_rng(56)
    for _ in range(5):
        n = int(rng.integers(2, 8))
        sp = AtomicMeasureSpace.finite(rng.uniform(0.5, 2.0, n))
        imap = IndexMap.from_table(rng.integers(1, n + 1, n))
        p = float(rng.choice([1.0, 2.0, 3.0]))
        rep = check_composition_bounded(sp, imap, OrliczFunction.power(p))
        est = empirical_operator_norm(
            BCOperator.composition(imap), OrliczFunction.power(p), sp, trials=10, seed=7
        )
        assert est <= rep.sup_distortion ** (1.0 / p) + 1e-8


def test_empirical_rejects_bad_trials():
    sp = AtomicMeasureSpace.finite(np.ones(2))
    with pytest.raises(InvalidInputError):
        empirical_ratios(BCOperator.right_shift(), OrliczFunction.power(2), sp, trials=0)


# ---------------------------------------------------------------- reports


def test_bounded_verdict_requires_certificate():
    with pytest.raises(InvalidInputError):
        BoundednessReport(kind="composition", verdict="bounded")
    rep = BoundednessReport(kind="composition", verdict="bounded", sup_distortion=2.0)
    assert rep.bound() == 2.0
    rep = BoundednessReport(kind="composition", verdict="inconclusive")
    assert rep.bound() is None


def test_report_json_shape():
    sp = AtomicMeasureSpace.finite([1.0, 2.0])
    rep = check_composition_bounded(sp, IndexMap.from_table([1, 1]), OrliczFunction.power(2))
    obj = rep.to_json_dict()
    assert obj["kind"] == "composition"
    assert obj["verdict"] == "bounded"
    assert obj["bound"] == obj["sup_distortion"]
    assert obj["delta2"]["K_estimate"] == 4.0
    assert isinstance(obj["notes"], list)


def test_surjectivity_metadata():
    sp = AtomicMeasureSpace.finite(np.ones(3))
    # a permutation covers the whole window
    rep = check_composition_bounded(sp, IndexMap.from_table([2, 3, 1]), OrliczFunction.power(2))
    assert rep.surjective_on_window is True
    # a constant map misses most of it but that alone never changes the verdict
    rep = check_composition_bounded(sp, IndexMap.from_table([1, 1, 1]), OrliczFunction.power(2))
    assert rep.surjective_on_window is False
    assert rep.verdict == "bounded"


# ---------------------------------------------------------------- wire forms


def test_matrix_json_round_trip():
    m1 = np.array([[1.0, 2.0], [3.0, 4.0]]) + 1j
    m2 = np.eye(2, dtype=complex)
    obj = BCMatrix(m1, m2).to_json_dict()
    again = BCMatrix.from_json_dict(obj)
    np.testing.assert_allclose(again.m1, m1)
    np.testing.assert_allclose(again.m2, m2)
    # plain numbers are accepted entrywise
    obj = {"m1": [[1, 2], [3, 4]], "m2": [[1, 0], [0, 1]]}
    again = BCMatrix.from_json_dict(obj)
    np.testing.assert_allclose(again.m1, [[1, 2], [3, 4]])


def test_operator_json_round_trip():
    ops = (
        BCOperator.right_shift(),
        BCOperator.composition(IndexMap.from_table([2, 1])),
        BCOperator.multiplication(
            BCSequence.from_values([BiComplex(1, 2), BiComplex(3, 4)])
        ),
        BCOperator.dense(BCMatrix(np.eye(2), 2 * np.eye(2))),
    )
    sp = AtomicMeasureSpace.finite(np.ones(2))
    F = BCSequence.from_values([BiComplex(1, 1), BiComplex(2, 2)])
    for op in ops:
        again = BCOperator.from_json_dict(op.to_json_dict())
        assert again.kind == op.kind
        G1 = apply_operator(op, F, sp)
        G2 = apply_operator(again, F, sp)
        np.testing.assert_allclose(G2.array(1, sp), G1.array(1, sp))
        np.testing.assert_allclose(G2.array(2, sp), G1.array(2, sp))


def test_operator_json_rejects_ambiguity():
    with pytest.raises(InvalidInputError):
        BCOperator.from_json_dict({"right_shift": {}, "dense": {}})
    with pytest.raises(InvalidInputError):
        BCOperator.from_json_dict({})
    with pytest.raises(InvalidInputError):
        BCOperator.from_json_dict({"multiplication": {}})


def test_right_shift_norm_is_exactly_one_on_counting():
    # independent cross-check of the certificate: shifting cannot change
    # the weighted p-sum when every weight is 1
    sp = AtomicMeasureSpace.counting(1000)
    rng = np.random.default_rng(57)
    F = rand_seq(rng, 20)
    G = apply_operator(BCOperator.right_shift(), F, sp)
    phi = OrliczFunction.power(2)
    assert abs(norm_bc(phi, G, sp) - norm_bc(phi, F, sp)) < 1e-10
