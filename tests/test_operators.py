"""Tests for bicomplex operators: application, inversion, boundedness checks."""

import dataclasses
import math
import re
import sys
import tracemalloc
import warnings

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
    Distortion,
    IndexMap,
    InvalidInputError,
    InvalidMapError,
    NotInvertibleError,
    OrliczFunction,
    UnsupportedInstanceError,
    apply_operator,
    check_composition_bounded,
    check_multiplication_bounded,
    decompose,
    distortion_ratios,
    empirical_operator_norm,
    empirical_ratios,
    invert_operator,
    measure,
    modular,
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


def test_composition_apply_refuses_the_maps_the_check_refuses():
    # apply once used the first three entries of a longer table, and read
    # images below 1 as "no image" (zeros), where the check refused both
    sp = AtomicMeasureSpace.finite(np.ones(3))
    F = BCSequence.from_components([1, 2, 3], [4, 5, 6])
    maps = {
        "table has 5 entries but the space has 3 atoms": IndexMap.from_table([2, 3, 1, 1, 1]),
        "atom 1 maps to index -4; images must be >= 1": IndexMap.from_rule(lambda i: i - 5),
    }
    for message, imap in maps.items():
        for call in (
            lambda: apply_operator(BCOperator.composition(imap), F, sp),
            lambda: check_composition_bounded(sp, imap, OrliczFunction.power(2)),
        ):
            with pytest.raises(InvalidMapError, match=re.escape(message)):
                call()
    # on a lazy space the composed rule refuses the image when it is read
    G = apply_operator(
        BCOperator.composition(IndexMap.from_rule(lambda i: i - 5)),
        BCSequence.from_rules(lambda i: 1.0 / i, lambda i: 1.0 / i),
        AtomicMeasureSpace.counting(100),
    )
    with pytest.raises(InvalidMapError, match=re.escape("atom 1 maps to index -4")):
        G.block(1, np.arange(1, 11))


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


@pytest.mark.parametrize(
    "op, space, atom",
    [
        (
            BCOperator.multiplication(BCSequence.from_components([1.0, 1e200], [1.0, 1.0])),
            AtomicMeasureSpace.finite(np.ones(2)),
            2,
        ),
        (
            BCOperator.multiplication(BCSequence.from_components([1.0, 1e200], [1.0, 1.0])),
            AtomicMeasureSpace.counting(100),
            2,
        ),
        (
            BCOperator.dense(BCMatrix(np.array([[1e200, 0.0], [0.0, 1.0]]), np.eye(2))),
            AtomicMeasureSpace.finite(np.ones(2)),
            1,
        ),
    ],
    ids=["multiplication", "lazy multiplication", "dense"],
)
def test_apply_past_the_floats_is_an_unsupported_instance(op, space, atom):
    # the image once held inf, which numpy warned about and BiComplex
    # refused as an input error
    F = BCSequence.from_components([1e200, 1e200], [1.0, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(
            UnsupportedInstanceError,
            match=f"component 1 of the image passes the largest float at atom {atom}$",
        ):
            apply_operator(op, F, space)


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


def test_operators_on_real_rules_give_complex_products():
    # a rule with real output reads as float64, but an operator multiplies
    # complex factors: its components hold the complex product's bits (at
    # atom 4 both factors are negative and the imaginary part is -0.0)
    sp = AtomicMeasureSpace.finite(np.ones(6))
    idx = np.arange(1, 7, dtype=np.int64)
    F = BCSequence.from_rules(lambda i: i - 4.5, lambda i: (i - 4.5) * 3)
    theta = BCSequence.from_rules(lambda i: 3.5 - i, lambda i: 7.0 - 2 * i)
    assert F.array(1, sp).dtype == np.float64 and F.block(2, idx).dtype == np.float64
    rng = np.random.default_rng(8)
    m1, m2 = (rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)) for _ in range(2))

    def complex_read(raw):
        return np.asarray(raw(idx), dtype=complex)

    for which, t_raw, f_raw, m in ((1, theta.comp1, F.comp1, m1), (2, theta.comp2, F.comp2, m2)):
        want = complex_read(t_raw) * complex_read(f_raw)
        assert np.signbit(want.imag).any()
        finite = apply_operator(BCOperator.multiplication(theta), F, sp).component(which)
        lazy = apply_operator(BCOperator.multiplication(theta), F, AtomicMeasureSpace.counting(100))
        dense = apply_operator(BCOperator.dense(BCMatrix(m1, m2)), F, sp).component(which)
        assert finite.dtype == np.complex128 and finite.tobytes() == want.tobytes()
        lazy_values = lazy.component(which)(idx)
        assert lazy_values.dtype == np.complex128 and lazy_values.tobytes() == want.tobytes()
        assert dense.dtype == np.complex128
        assert dense.tobytes() == (m @ complex_read(f_raw)).tobytes()


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
        f = F.component(which)
        part = factor(f, sp)
        read, block = _values(part, idx), G.block(which, idx)
        # bit for bit: assert_array_equal alone reads -0.0 as 0.0
        assert read.dtype == block.dtype == np.complex128
        assert read.tobytes() == block.tobytes()
        np.testing.assert_allclose(block, want(which), rtol=1e-12, atol=1e-9)
        # an image is an array exactly where it is finitely supported
        if where == "finite":
            assert part.shape == (n,)
        elif kind == "right_shift" and not callable(f):
            assert part.shape == (f.size + 1,)
        elif kind == "multiplication" and not (callable(f) or callable(theta.component(which))):
            assert part.shape == (max(f.size, theta.component(which).size),)
        else:
            assert callable(part)


def test_decompose_factors_refuse_non_finite_arrays():
    c1, _ = decompose(BCOperator.right_shift())
    with pytest.raises(InvalidInputError):
        c1(np.array([1.0, np.nan]), AtomicMeasureSpace.finite(np.ones(2)))


@pytest.mark.parametrize("lazy", [False, True], ids=["finite", "counting"])
def test_decompose_factors_of_real_arrays_are_complex(lazy):
    sp = AtomicMeasureSpace.counting(10) if lazy else AtomicMeasureSpace.finite(np.ones(3))
    theta = BCSequence.from_components([2.0, 3.0, 4.0], [1.0, 1.0, 1.0])
    f = np.array([1.0, -2.0, 0.5])
    for op in (
        BCOperator.multiplication(theta),
        BCOperator.right_shift(),
        BCOperator.composition(IndexMap.from_table([2, 3, 1])),
        BCOperator.dense(BCMatrix(np.eye(3), np.eye(3))),
    ):
        if lazy and op.kind in ("dense", "composition"):
            continue  # a table or a matrix needs a finite space
        image = decompose(op)[0](f, sp)
        assert image.dtype == np.complex128, op.kind


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


def test_composition_bound_is_at_least_one():
    # the right shift on geometric:0.5 weights has every b_n = 1/2, yet its
    # norm on power:p=2 is 0.5^(1/2); ||C_T|| <= max(1, b), not b
    sp = AtomicMeasureSpace.geometric(0.5, 5000)
    rep = check_composition_bounded(
        sp, IndexMap.right_shift(), OrliczFunction.power(2), trials=20
    )
    assert rep.verdict == "bounded"
    assert rep.sup_distortion == 0.5
    assert rep.bound() == 1.0
    assert rep.empirical_norm <= rep.bound()


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


def test_composition_check_growing_sup_is_inconclusive():
    # preimage of k under ceil(sqrt(n)) has about 2k-1 atoms, so the sup
    # distortion keeps climbing with the scan window
    sp = dataclasses.replace(AtomicMeasureSpace.counting(10 ** 6), n_max=10 ** 5)
    sqrtmap = IndexMap.from_rule(
        lambda idx: np.ceil(np.sqrt(idx)).astype(np.int64), name="ceil_sqrt"
    )
    rep = check_composition_bounded(sp, sqrtmap, OrliczFunction.power(2))
    assert rep.verdict == "inconclusive"
    assert rep.bound() is None
    assert any("grows" in note for note in rep.notes)


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


@pytest.mark.parametrize("n", [2, 5])
def test_composition_check_refuses_a_sample_not_one_per_atom(n):
    # a sample is read as norm reads a sequence: strictly on a finite space
    sp = AtomicMeasureSpace.finite([1.0, 1.0, 1.0])
    sample = rand_seq(np.random.default_rng(n), n)
    with pytest.raises(
        InvalidInputError, match=f"^sequence has {n} entries but the space has 3 atoms$"
    ):
        check_composition_bounded(
            sp, IndexMap.from_table([1, 1, 2]), OrliczFunction.power(2), (sample,)
        )


def test_composition_check_reads_a_rule_sample_once_per_component():
    calls = []

    def rule(idx):
        calls.append(idx.size)
        return np.full(idx.shape, 1e3)

    sp = AtomicMeasureSpace.finite([1.0, 1.0, 1.0])
    sample = BCSequence.from_rules(rule, rule)
    # exp(1e3) passes the floats, so each component's grid takes a second step
    rep = check_composition_bounded(
        sp, IndexMap.from_table([1, 1, 2]), OrliczFunction.parse("exp"), (sample,)
    )
    assert calls == [3, 3]
    assert rep.lambda_pairs == ((0.5, 0.5),)


def test_composition_check_attaches_delta2_and_empirical():
    sp = AtomicMeasureSpace.finite([1.0, 1.0])
    rep = check_composition_bounded(
        sp, IndexMap.from_table([2, 1]), OrliczFunction.power(2), trials=4, seed=3
    )
    assert rep.phi_facts is not None
    assert rep.phi_facts.k == 4.0
    # a permutation of equal weights is an isometry
    assert rep.empirical_norm is not None
    assert abs(rep.empirical_norm - 1.0) < 1e-9


# the one-pass scan against independent scans at the window, half and quarter
_ONE_PASS_RULES = {
    "n//2+1": lambda i: i // 2 + 1,
    "2n": lambda i: 2 * i,
    "ceil_sqrt": lambda i: np.ceil(np.sqrt(i)),  # integral floats
    "identity": lambda i: i,  # returns its argument: the scan must not write to it
}
_ONE_PASS_SPACES = {
    "counting": lambda n: AtomicMeasureSpace.counting(n),
    "geometric:0.5": lambda n: AtomicMeasureSpace.geometric(0.5, n),
    "geometric:2.0": lambda n: AtomicMeasureSpace.geometric(2.0, n),
}
_FINITE_WEIGHTS = {
    "counting": lambda n: np.ones(n),
    "geometric:0.5": lambda n: 0.5 ** np.arange(n),
    "geometric:2.0": lambda n: 2.0 ** np.arange(n),
}


def _one_pass_cases():
    maps = dict(
        {name: IndexMap.from_rule(rule, name=name) for name, rule in _ONE_PASS_RULES.items()},
        right_shift=IndexMap.right_shift(),
    )
    cases = []
    for sname, make in _ONE_PASS_SPACES.items():
        for mname, imap in maps.items():
            for n_max in (1, 2, 7, 5000):
                cases.append(pytest.param(make(n_max), imap, id=f"{sname}-{n_max}-{mname}"))
            cut = dataclasses.replace(make(10**6), n_max=10**5)
            cases.append(pytest.param(cut, imap, id=f"{sname}-budget-{mname}"))
    rng = np.random.default_rng(71)
    for sname, weights in _FINITE_WEIGHTS.items():
        for n in (1, 2, 7):
            sp = AtomicMeasureSpace.finite(weights(n))
            tables = {"right_shift": IndexMap.right_shift(),
                      "const": IndexMap.from_table(np.ones(n, dtype=int)),
                      "random": IndexMap.from_table(rng.integers(1, n + 1, n))}
            for mname, imap in tables.items():
                cases.append(pytest.param(sp, imap, id=f"finite-{sname}-{n}-{mname}"))
    return cases


def _brute_coverage(space, imap, window):
    """First uncovered atom of a finite space (None on a lazy one, whose
    coverage is not read) and number of atoms with no image, atom by atom."""
    k = np.arange(1, window + 1)
    if imap.kind == "right_shift":
        images = k - 1
    elif imap.kind == "table":
        images = imap.table
    else:
        images = imap.forward(k)
    hit = {int(v) for v in images}
    first = None
    if not space.is_lazy:
        first = next((n for n in range(1, window + 1) if n not in hit), None)
    return first, sum(1 for v in images if v < 1)


def _reference_distortion(space, imap):
    full = distortion_ratios(space, imap)
    window = full.ratios.size
    sup_q = sup_h = None
    if space.is_lazy:
        cuts = [dataclasses.replace(space, n_max=max(1, window // d)) for d in (4, 2)]
        sup_q, sup_h = (distortion_ratios(cut, imap).sup for cut in cuts)
    first, dropped = _brute_coverage(space, imap, window)
    return Distortion(full.ratios, full.sup, sup_q, sup_h, first, dropped)


@pytest.mark.parametrize("space, imap", _one_pass_cases())
def test_composition_check_one_pass_matches_independent_scans(monkeypatch, space, imap):
    phi = OrliczFunction.power(2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dist = distortion_ratios(space, imap)
        got = check_composition_bounded(space, imap, phi).to_json_dict()
    want_dist = _reference_distortion(space, imap)
    for field in ("sup", "sup_quarter", "sup_half", "first_uncovered", "dropped"):
        assert getattr(dist, field) == getattr(want_dist, field), field
    np.testing.assert_array_equal(dist.ratios, want_dist.ratios)
    monkeypatch.setattr(operators, "distortion_ratios", _reference_distortion)
    want = check_composition_bounded(space, imap, phi).to_json_dict()
    assert got == want


def test_composition_check_reads_the_window_once(monkeypatch):
    # one scan, whose rule calls cover atoms 1..10^4 once each, in order:
    # the scan reads the window in chunks, which end at the quarter and half
    # prefixes, so it asks the rule for several ranges, never twice for one
    scans, evaluated = [], []
    real = operators.distortion_ratios

    def spy(*args):
        scans.append(args)
        return real(*args)

    def halving(i):
        evaluated.append(i.copy())
        return i // 2 + 1

    monkeypatch.setattr(operators, "distortion_ratios", spy)
    sp = AtomicMeasureSpace.geometric(0.5, 10**4)
    rep = check_composition_bounded(sp, IndexMap.from_rule(halving), OrliczFunction.power(2))
    assert rep.verdict == "bounded"
    assert len(scans) == 1
    assert np.concatenate(evaluated).tolist() == list(range(1, 10**4 + 1))


@pytest.mark.parametrize(
    "rule, message",
    [
        (lambda i: i / 2 + 0.7, "atom 1 maps to 1.2;"),
        (lambda i: i * np.nan, "atom 1 maps to nan;"),
        (lambda i: np.where(i == 5, np.inf, i), "atom 5 maps to inf;"),
        (lambda i: i * 1e30, "atom 1 maps to 1e+30;"),
        (lambda i: i[:3], "one image per atom"),
        (lambda i: 1, "one image per atom"),
        (lambda i: i + 0j, "complex128 images"),
    ],
    ids=["fraction", "nan", "inf", "beyond-int64", "short", "scalar", "complex"],
)
def test_composition_check_refuses_a_bad_rule(rule, message):
    # these were truncated to another map, cast with a warning to a huge
    # negative index, or ended in a bare IndexError or ValueError
    sp = AtomicMeasureSpace.counting(100)
    imap = IndexMap.from_rule(rule)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidMapError, match=re.escape(message)):
            check_composition_bounded(sp, imap, OrliczFunction.power(2))
        with pytest.raises(InvalidMapError, match=re.escape(message)):
            imap.image_block(np.arange(1, 101))


@pytest.mark.parametrize("n_max", [10**8, 10**12])
def test_a_scan_reads_at_most_ten_million_atoms(monkeypatch, n_max):
    # a scan of 10**12 atoms once asked numpy for a 7.28 TiB window, and a
    # space longer than 10**6 atoms was scanned over 10**6 only; every lazy
    # read now stops at 10**7 atoms, and the spy fails fast on any window
    # past that cap
    arange = np.arange

    def guarded(*args, **kwargs):
        assert len(args) < 2 or args[1] - args[0] <= 10**7, "a window past the cap"
        return arange(*args, **kwargs)

    monkeypatch.setattr(np, "arange", guarded)
    sp = AtomicMeasureSpace.counting(n_max)
    shift = IndexMap.right_shift()
    assert distortion_ratios(sp, shift).ratios.size == 10**7
    rep = check_composition_bounded(sp, shift, OrliczFunction.power(2))
    assert rep.verdict == "bounded" and rep.sup_distortion == 1.0
    assert "distortion scanned over a truncated window of 10000000 atoms" in rep.notes
    read = []

    def inverse(i):
        read.append(i.size)
        return 1.0 / i

    rep = check_multiplication_bounded(BCSequence.from_rules(inverse, inverse), sp)
    assert rep.verdict == "bounded" and rep.ess_sups == (1.0, 1.0)
    assert sum(read) == 2 * 10**7
    # a march holds no window array, and stops where its sum settles
    mv = modular(OrliczFunction.power(2), lambda i: 1.0 / i**2, sp)
    assert mv.status == "converged" and mv.n_terms < 10**6


def test_a_sum_and_a_scan_read_the_same_window():
    # a march stops at n_max, and so does a scan: the default window of
    # 10**6 atoms no longer caps a longer space's scan
    sp = AtomicMeasureSpace.counting(2 * 10**6)
    mv = modular(OrliczFunction.power(1), lambda i: 1.0 / i, sp)
    assert mv.n_terms == 2 * 10**6
    assert distortion_ratios(sp, IndexMap.right_shift()).ratios.size == 2 * 10**6


def test_multiplication_check_finite_exact():
    sp = AtomicMeasureSpace.finite(np.ones(3))
    theta = BCSequence.from_components([1, -2, 1.5], [0.5, 0, 3j])
    rep = check_multiplication_bounded(theta, sp)
    assert rep.verdict == "bounded"
    assert rep.ess_sups == (2.0, 3.0)
    assert rep.bound() == 3.0


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
@pytest.mark.parametrize("which", [1, 2])
def test_multiplication_bound_is_the_norm_on_a_finite_space(p, which):
    # ||theta F|| <= max(sup|theta1|, sup|theta2|) ||F|| under the pair norm,
    # with equality at the indicator of the atom n* of the larger sup
    sp = AtomicMeasureSpace.finite([1.0, 2.5, 0.5, 3.0])
    big, small = [0.5, -4.0 + 1.0j, 2.0, 1.0], [3.0j, 0.25, -1.0, 2.0]
    theta = BCSequence.from_components(*((big, small) if which == 1 else (small, big)))
    rep = check_multiplication_bounded(theta, sp)
    star = np.zeros(4)
    star[int(np.argmax(np.abs(big)))] = 1.0
    F = BCSequence.from_components(*((star, np.zeros(4)) if which == 1 else (np.zeros(4), star)))
    phi = OrliczFunction.power(p)
    G = apply_operator(BCOperator.multiplication(theta), F, sp)
    assert rep.bound() == abs(-4.0 + 1.0j)
    assert abs(norm_bc(phi, G, sp) / norm_bc(phi, F, sp) - rep.bound()) <= 1e-12 * rep.bound()


def test_multiplication_check_lazy_bounded():
    sp = AtomicMeasureSpace.counting(10 ** 5)
    theta = BCSequence.from_rules(
        lambda i: 1.0 + 1.0 / i, lambda i: np.full(np.shape(i), 0.5)
    )
    rep = check_multiplication_bounded(theta, sp)
    assert rep.verdict == "bounded"
    assert abs(rep.ess_sups[0] - 2.0) < 1e-12
    assert rep.distortion_truncated


@pytest.mark.parametrize(
    "space",
    [AtomicMeasureSpace.counting(4), AtomicMeasureSpace.geometric(0.5, 10 ** 5)],
    ids=["counting-4", "geometric"],
)
def test_multiplication_check_array_symbol_is_exact_on_a_lazy_space(space):
    # an array is zero past its length, so its sup is exact; the climb
    # 1, 2, 4 across the window once read as growth, and as unbounded
    theta = BCSequence.from_components([1, 2, 3, 4], [0.5, 0, 0, 3j])
    rep = check_multiplication_bounded(theta, space)
    assert rep.verdict == "bounded"
    assert rep.ess_sups == (4.0, 3.0)
    assert rep.bound() == 4.0
    assert not rep.distortion_truncated
    assert not any("grows" in note for note in rep.notes)


def test_multiplication_check_lazy_unbounded():
    sp = AtomicMeasureSpace.counting(10 ** 5)
    theta = BCSequence.from_rules(lambda i: i.astype(float), lambda i: 0.0 * i + 1.0)
    rep = check_multiplication_bounded(theta, sp)
    assert rep.verdict == "unbounded"
    assert rep.bound() is None
    assert any("grows" in note for note in rep.notes)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(np.nan, 1.0)])
@pytest.mark.parametrize("which", [1, 2])
def test_multiplication_check_refuses_a_rule_symbol_that_is_not_finite(bad, which):
    # a nan symbol value once left no finite sup, and the check raised
    # "a bounded verdict requires at least one finite certificate"
    sp = AtomicMeasureSpace.counting(1000)

    def symbol(i):
        return np.where(i == 500, bad, 1.0 / i)

    rules = (symbol, lambda i: 1.0 / i) if which == 1 else (lambda i: 1.0 / i, symbol)
    theta = BCSequence.from_rules(*rules)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match="at index 500; entries must be finite"):
            check_multiplication_bounded(theta, sp)


BIG = complex(1.5e308, 1.5e308)  # finite parts, a modulus past the floats


def _big_symbol(i):
    return np.where(i == 3, BIG, 0.5 + 0j)


@pytest.mark.parametrize(
    "theta, space, overflows",
    [
        (BCSequence.from_components([BIG], [1.0]), AtomicMeasureSpace.finite([1.0]), {1: 1}),
        (BCSequence.from_components([1.0, 2.0, BIG], [1.0, BIG, BIG]),
         AtomicMeasureSpace.finite([1.0, 1.0, 1.0]), {1: 3, 2: 2}),
        (BCSequence.from_components([0, 1.0], [0, BIG]), AtomicMeasureSpace.counting(100), {2: 2}),
        (BCSequence.from_rules(_big_symbol, lambda i: 1.0 / i),
         AtomicMeasureSpace.counting(100), {1: 3}),
        (BCSequence.from_rules(lambda i: i.astype(float), _big_symbol),
         AtomicMeasureSpace.geometric(0.5, 100), {2: 3}),
    ],
    ids=["finite one atom", "finite both", "lazy array", "lazy rule", "lazy rule, other grows"],
)
def test_multiplication_check_is_inconclusive_where_a_modulus_passes_the_floats(
    theta, space, overflows
):
    # such a symbol once raised "a bounded verdict requires at least one
    # finite certificate"; a growing other component does not make it unbounded
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = check_multiplication_bounded(theta, space)
    assert rep.verdict == "inconclusive"
    assert rep.bound() is None
    for which in (1, 2):
        assert (rep.ess_sups[which - 1] == math.inf) == (which in overflows)
    said = [
        f"component {which} modulus at atom {atom} overflows floats; no bound certified"
        for which, atom in overflows.items()
    ]
    assert [note for note in rep.notes if "overflows" in note] == said


# ---------------------------------------------------------------- chunked scans

# an atom in the fifth chunk of a window: every chunk before it is read first
PAST_CHUNK = 70000
MIB = 2**20


def _traced_peak(call):
    """``call()``'s result and the peak of the allocations traced while it ran."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# a lazy scan reads the space's n_max atoms, up to 10**7
@pytest.mark.parametrize(
    "space, imap, window",
    [
        (AtomicMeasureSpace.counting(10**6), IndexMap.right_shift(), 10**6),
        (AtomicMeasureSpace.counting(10**6), IndexMap.from_rule(lambda i: 2 * i, name="2n"),
         10**6),
        (AtomicMeasureSpace.geometric(0.5, 10**6),
         IndexMap.from_rule(lambda i: i // 2 + 1, name="n//2+1"), 10**6),
        (AtomicMeasureSpace.counting(10**12), IndexMap.right_shift(), 10**7),
    ],
    ids=["right shift", "2n", "n//2+1 geometric", "right shift on counting(10**12)"],
)
def test_distortion_scan_holds_one_chunk_besides_the_ratios(space, imap, window):
    # the scan once built window-long atoms, images, exponents and shares:
    # 22.9 to 24.8 MiB at 10^6 atoms, against 7.6 MiB of ratios
    dist, peak = _traced_peak(lambda: distortion_ratios(space, imap))
    assert dist.ratios.size == window
    assert peak <= dist.ratios.nbytes + 3 * MIB, peak / MIB


def test_a_composition_check_adds_shares_only_where_one_can_be_nonzero(monkeypatch):
    # on geometric:0.5 the share 0.5**(k - T(k)) of n//2+1 underflows before
    # k = 2160, so the check adds shares in its first chunk only
    chunks = []

    def spy(space, k, n):
        chunks.append((int(k.min()), int(k.max())))
        return weight_ratios(space, k, n)

    weight_ratios = measure._weight_ratios
    monkeypatch.setattr(measure, "_weight_ratios", spy)
    rep = check_composition_bounded(
        AtomicMeasureSpace.geometric(0.5, 10**6),
        IndexMap.from_rule(lambda i: i // 2 + 1, name="n//2+1"),
        OrliczFunction.power(2),
    )
    assert rep.verdict == "bounded"
    assert len(chunks) == 1 and chunks[0][1] < 2160, chunks


def test_multiplication_check_holds_one_chunk_of_the_symbol():
    # the check once read each rule symbol's whole window (22.9 MiB here)
    theta = BCSequence.from_rules(lambda i: np.log(i + 1.0), lambda i: np.ones(i.shape))
    rep, peak = _traced_peak(
        lambda: check_multiplication_bounded(theta, AtomicMeasureSpace.counting(10**6))
    )
    assert rep.verdict == "unbounded" and rep.ess_sups == (float(np.log(10**6 + 1.0)), 1.0)
    assert peak <= 3 * MIB, peak / MIB


def test_a_bad_image_past_the_first_chunk_names_its_atom():
    imap = IndexMap.from_rule(lambda i: np.where(i == PAST_CHUNK, 0, i))
    with pytest.raises(InvalidMapError, match=f"^atom {PAST_CHUNK} maps to index 0;"):
        check_composition_bounded(
            AtomicMeasureSpace.counting(10**5), imap, OrliczFunction.power(2)
        )


@pytest.mark.parametrize("space", [AtomicMeasureSpace.counting(10**5),
                                   AtomicMeasureSpace.finite(np.ones(10**5))],
                         ids=["lazy", "finite"])
def test_a_symbol_past_the_first_chunk_is_named_at_its_atom(space):
    nan_there = BCSequence.from_rules(
        lambda i: np.where(i == PAST_CHUNK, np.nan, 1.0), lambda i: 1.0 / i
    )
    with pytest.raises(InvalidInputError, match=f"at index {PAST_CHUNK}; entries must be finite"):
        check_multiplication_bounded(nan_there, space)
    big_there = BCSequence.from_rules(
        lambda i: 1.0 / i, lambda i: np.where(i == PAST_CHUNK, BIG, 0.5 + 0j)
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = check_multiplication_bounded(big_there, space)
    assert rep.verdict == "inconclusive" and rep.ess_sups == (1.0, math.inf)
    assert f"component 2 modulus at atom {PAST_CHUNK} overflows floats" in rep.notes[0]
    # an overflow does not end the read: a nan past it is still refused
    both = BCSequence.from_rules(
        lambda i: np.where(i == 10, BIG, np.where(i == PAST_CHUNK, np.nan, 1.0)),
        lambda i: 1.0 / i,
    )
    with pytest.raises(InvalidInputError, match=f"at index {PAST_CHUNK}; entries must be finite"):
        check_multiplication_bounded(both, space)


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


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"trials": 1001}, "trials must be an integer from 1 to 1000"),
        ({"trials": 10**9}, "trials must be an integer from 1 to 1000"),
        ({"seed": -1}, "seed must be an integer >= 0"),
        ({"seed": 1.5}, "seed must be an integer >= 0"),
    ],
    ids=["trials-1001", "trials-1e9", "seed-negative", "seed-float"],
)
def test_empirical_refuses_trials_past_the_cap_and_bad_seeds(monkeypatch, kwargs, message):
    # trials=10**9 once ran for about 16 days, and seed=-1 raised numpy's
    # own ValueError; the spy fails at the first trial instead of waiting
    trials = []

    def spy(*args, **kw):
        trials.append(args)
        raise AssertionError("a trial ran")

    monkeypatch.setattr(operators, "norm_bc", spy)
    sp = AtomicMeasureSpace.finite(np.ones(2))
    with pytest.raises(InvalidInputError, match=re.escape(message)):
        empirical_ratios(BCOperator.right_shift(), OrliczFunction.power(2), sp, **kwargs)
    assert trials == []


# ---------------------------------------------------------------- reports


def test_bounded_verdict_requires_certificate():
    with pytest.raises(InvalidInputError):
        BoundednessReport(kind="composition", verdict="bounded")
    # a sample's gauge scales are evidence about the sample, not a certificate
    with pytest.raises(InvalidInputError):
        BoundednessReport(kind="composition", verdict="bounded", lambda_pairs=((1.0, 1.0),))
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


def test_injectivity_metadata():
    sp = AtomicMeasureSpace.finite(np.ones(3))
    # a permutation covers every atom: F o T = 0 only for F = 0
    rep = check_composition_bounded(sp, IndexMap.from_table([2, 3, 1]), OrliczFunction.power(2))
    assert rep.injective is True
    assert any("C_T is injective" in note for note in rep.notes)
    # a constant map misses atoms 2 and 3, but that never changes the verdict
    rep = check_composition_bounded(sp, IndexMap.from_table([1, 1, 1]), OrliczFunction.power(2))
    assert rep.injective is False
    assert any("atom 2 has no preimage" in note for note in rep.notes)
    assert rep.verdict == "bounded"
    # the right shift leaves the last atom of a finite space without a preimage
    rep = check_composition_bounded(sp, IndexMap.right_shift(), OrliczFunction.power(2))
    assert rep.injective is False
    assert any("atom 3 has no preimage" in note for note in rep.notes)
    assert rep.to_json_dict()["injective"] is False


def _composition_matrix(images, n):
    """The 0/1 matrix of ``F -> F o T`` on n atoms: row k reads ``F(T(k))``,
    and a row whose atom has no image (``T(k) < 1``) is zero."""
    c = np.zeros((n, n))
    for k, j in enumerate(images):
        if j >= 1:
            c[k, j - 1] = 1.0
    return c


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_injective_is_the_full_rank_of_the_composition_matrix(data):
    n = data.draw(st.integers(1, 8))
    weights = data.draw(st.lists(st.floats(1e-3, 1e3), min_size=n, max_size=n))
    table = data.draw(st.lists(st.integers(1, n), min_size=n, max_size=n))
    space = AtomicMeasureSpace.finite(weights)
    k = np.arange(1, n + 1)
    maps = {
        "table": (IndexMap.from_table(table), np.array(table)),
        "right shift": (IndexMap.right_shift(), k - 1),
        # one-to-one exactly when 3 and n are coprime
        "3n mod n": (IndexMap.from_rule(lambda i: 3 * i % n + 1), 3 * k % n + 1),
    }
    for name, (imap, images) in maps.items():
        rank = np.linalg.matrix_rank(_composition_matrix(images, n))
        rep = check_composition_bounded(space, imap, OrliczFunction.power(2))
        assert rep.injective is bool(rank == n), name


WINDOW_MAPS = {
    "2n": IndexMap.from_rule(lambda i: 2 * i, name="2n"),
    "identity": IndexMap.from_rule(lambda i: i, name="identity"),
    "right shift": IndexMap.right_shift(),
}


@pytest.mark.parametrize(
    "space", [AtomicMeasureSpace.counting(1000), AtomicMeasureSpace.geometric(0.5, 1000)],
    ids=["counting", "geometric:0.5"],
)
@pytest.mark.parametrize("name", sorted(WINDOW_MAPS))
def test_injective_is_null_on_a_lazy_window(space, name):
    # 2n leaves every odd atom of the window uncovered, and the identity
    # covers it all; the right shift is onto the infinite space, though atom
    # n + 1 lies past the window: the window says nothing about any of them
    rep = check_composition_bounded(space, WINDOW_MAPS[name], OrliczFunction.power(2))
    assert rep.injective is None and rep.to_json_dict()["injective"] is None
    assert any("atoms past a lazy window" in note for note in rep.notes)
    assert not any("preimage" in note or "uncovered" in note for note in rep.notes)


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


@pytest.mark.parametrize(
    "obj, keys",
    [
        ({"right_shift": {}, "composition": {"map_rule": "right_shift"}},
         "['composition', 'right_shift']"),
        ({"composition": {"map": [1], "map_rule": "right_shift"}}, "['map', 'map_rule']"),
        ({"shift": {}}, "['shift']"),
    ],
    ids=["operator-two-kinds", "map-two-kinds", "no-kind"],
)
def test_operator_json_names_the_keys_of_an_object_without_one_kind(obj, keys):
    with pytest.raises(InvalidInputError, match=re.escape(f"; got keys {keys}")):
        BCOperator.from_json_dict(obj)


@pytest.mark.parametrize(
    "payload", [[1, 2], "no", None, 0, {"n": 1}], ids=["list", "string", "null", "zero", "object"]
)
def test_right_shift_takes_an_empty_object(payload):
    # any payload once read as the right shift
    with pytest.raises(InvalidInputError, match=re.escape(f"takes {{}}, got {payload!r}")):
        BCOperator.from_json_dict({"right_shift": payload})
    assert BCOperator.from_json_dict({"right_shift": {}}).imap.kind == "right_shift"


@pytest.mark.parametrize(
    "op",
    [
        BCOperator.composition(IndexMap.from_table([1, 2])),
        BCOperator.composition(IndexMap.from_table([1, 2, 5])),
        BCOperator.dense(BCMatrix(np.eye(2), np.eye(2))),
        BCOperator.multiplication(BCSequence.from_components(np.ones(4), np.ones(4))),
    ],
    ids=["short-table", "escaping-table", "small-matrix", "long-symbol"],
)
def test_a_sequence_of_the_wrong_length_is_refused_before_the_operator(op):
    # the operand is read once, before the action judges the table, the
    # matrix or the symbol
    sp = AtomicMeasureSpace.finite(np.ones(3))
    F = BCSequence.from_components([1, 2], [3, 4])
    message = "sequence has 2 entries but the space has 3 atoms"
    with pytest.raises(InvalidInputError, match=re.escape(message)) as info:
        apply_operator(op, F, sp)
    assert info.type is InvalidInputError


def test_right_shift_norm_is_exactly_one_on_counting():
    # independent cross-check of the certificate: shifting cannot change
    # the weighted p-sum when every weight is 1
    sp = AtomicMeasureSpace.counting(1000)
    rng = np.random.default_rng(57)
    F = rand_seq(rng, 20)
    G = apply_operator(BCOperator.right_shift(), F, sp)
    phi = OrliczFunction.power(2)
    assert abs(norm_bc(phi, G, sp) - norm_bc(phi, F, sp)) < 1e-10
