"""Finitely supported sequences on lazy spaces: one exact sum, as on a finite space.

The modular, the Luxemburg gauge, the pairing and the weighted sum of a
finitely supported sequence depend only on the weights of its support.
On a lazy space (counting, or geometric weights) each is an exact sum over
the shortest array's support, cut at the window, and must answer bit for
bit as ``AtomicMeasureSpace.finite`` of that support's weights does: the
same value, status and atom count, or the same exception and message.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcorlicz import (
    AtomicMeasureSpace,
    BCSequence,
    BiComplex,
    ModularValue,
    OrliczFunction,
    UnsupportedInstanceError,
    luxemburg_norm,
    modular,
    pairing,
    weighted_phi_sum,
)

PHIS = ("power:p=1", "power:p=1.5", "power:p=2", "exp", "entropy")
RULES = ("counting", "geometric:0.5", "geometric:2.0", "geometric:10000.0")
PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def lazy_space(rule, n_max):
    if rule == "counting":
        return AtomicMeasureSpace.counting(n_max)
    return AtomicMeasureSpace.geometric(float(rule.split(":")[1]), n_max)


def bits(x):
    z = complex(x)
    return np.array([z.real, z.imag]).tobytes()


def outcome(call):
    """What a call returned, bit for bit, or the exception it raised, with
    the warnings it gave."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = call()
        except Exception as exc:  # the comparison is of the exception itself
            out = (type(exc), str(exc))
    if isinstance(out, ModularValue):
        out = (bits(out.value), out.status, out.n_terms, out.guard, bits(out.tail))
    elif isinstance(out, BiComplex):
        out = (bits(out.beta1), bits(out.beta2))
    elif isinstance(out, float):
        out = bits(out)
    return out, [(w.category, str(w.message)) for w in caught]


@st.composite
def arrays(draw, size=None):
    """A complex array of ``size`` or 1 to 40 entries, some zero, of a drawn magnitude
    (1e7 passes the old divergence guard once squared, 1e200 the floats)."""
    n = draw(st.integers(1, 40)) if size is None else size
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    c = draw(st.sampled_from((1.0, 1e-3, 30.0, 1e7, 1e200)))
    arr = c * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    arr[rng.random(n) < 0.2] = 0.0
    return arr


@st.composite
def instances(draw):
    """A lazy space, the finite space of the first ``m`` atoms' weights, and
    ``m``: the support cut at the window."""
    rule = draw(st.sampled_from(RULES))
    f = draw(arrays())
    space = lazy_space(rule, draw(st.integers(1, 60)))
    m = min(space.size, f.size)
    return space, AtomicMeasureSpace.finite(space.weight_block(np.arange(1, m + 1))), f, m


def offsets(m):
    return st.sampled_from((0, 1, m // 2, m, m + 3))


@PROPERTY
@given(instances(), st.sampled_from(PHIS), st.sampled_from((1.0, 0.5, 3.0, 0.0)), st.data())
def test_modular_and_gauge_match_the_finite_space(case, spec, scale, data):
    space, finite, f, m = case
    phi = OrliczFunction.parse(spec)
    offset = data.draw(offsets(m))
    lazy_mv = outcome(lambda: modular(phi, f, space, scale=scale, offset=offset))
    assert lazy_mv == outcome(lambda: modular(phi, f[:m], finite, scale=scale, offset=offset))
    assert lazy_mv[0][1] == "exact"
    assert outcome(lambda: luxemburg_norm(phi, f, space, offset=offset)) == outcome(
        lambda: luxemburg_norm(phi, f[:m], finite, offset=offset)
    )


@PROPERTY
@given(instances(), st.sampled_from(PHIS), st.sampled_from((1.0, 0.25)))
def test_lazy_weighted_sum_matches_the_finite_one(case, spec, scale):
    space, finite, f, m = case
    phi = OrliczFunction.parse(spec)
    weights = space.weight_block(np.arange(1, space.size + 1))
    assert outcome(lambda: weighted_phi_sum(phi, f, weights, scale=scale, lazy=True)) == outcome(
        lambda: weighted_phi_sum(phi, f[:m], finite.weights, scale=scale)
    )


def alternating(i):
    return (-1.0) ** i / i


@PROPERTY
@given(st.sampled_from(RULES), st.integers(1, 60), st.data())
def test_pairing_matches_the_finite_space(rule, n_max, data):
    # a component's support is its shorter array's, cut at the window, and
    # a rule paired with an array is read over the array's; y is no
    # shorter than x where it pairs a rule, so both components share one
    space = lazy_space(rule, n_max)
    nx, ny = data.draw(st.integers(1, 40)), data.draw(st.integers(1, 40))
    x = BCSequence.from_components(data.draw(arrays(nx)), data.draw(arrays(nx)))
    rule_y = data.draw(st.booleans())
    ny = max(nx, ny) if rule_y else ny
    y2 = alternating if rule_y else data.draw(arrays(ny))
    y = BCSequence.from_components(data.draw(arrays(ny)), y2)
    m = min(space.size, nx, ny)
    finite = AtomicMeasureSpace.finite(space.weight_block(np.arange(1, m + 1)))
    cut_x, cut_y = (
        BCSequence.from_components(*(c if callable(c) else c[:m] for c in (s.comp1, s.comp2)))
        for s in (x, y)
    )
    assert outcome(lambda: pairing(x, y, space)) == outcome(lambda: pairing(cut_x, cut_y, finite))


# ------------------------------------------------------------ regressions

ONE_ATOM = {
    "finite": AtomicMeasureSpace.finite([1.0]),
    "counting": AtomicMeasureSpace.counting(10**6),
}


@pytest.mark.parametrize("name", sorted(ONE_ATOM))
def test_one_atom_pairing_reads_1e14_on_either_space(name):
    # on counting the pairing once read the guard's "not_summable"
    F = BCSequence.from_components([1e7], [1.0])
    assert pairing(F, F, ONE_ATOM[name]) == BiComplex(1e14, 1.0)
    mv = modular(OrliczFunction.power(2), F.comp1, ONE_ATOM[name])
    assert (mv.value, mv.status, mv.n_terms) == (1e14, "exact", 1)


@pytest.mark.parametrize("name", sorted(ONE_ATOM))
def test_pairing_past_the_floats_is_an_unsupported_instance(name):
    F = BCSequence.from_components([1e200], [1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UnsupportedInstanceError, match="pairing overflows: idempotent "
                           "component 1 of the exact result passes the largest float"):
            pairing(F, F, ONE_ATOM[name])


def test_an_array_zero_where_the_weights_overflow_pairs_finitely():
    # geometric:2.0 weights overflow to inf past atom 1024; zero products
    # there add 0, not nan, so the sum is that of the first two atoms
    x = np.zeros(1100, dtype=complex)
    x[:2] = 1.0
    F = BCSequence.from_components(x, x)
    got = pairing(F, F, AtomicMeasureSpace.geometric(2.0, 2000))
    assert got == BiComplex(3.0, 3.0)
    mv = modular(OrliczFunction.power(2), x, AtomicMeasureSpace.geometric(2.0, 2000))
    assert (mv.value, mv.status, mv.n_terms) == (3.0, "exact", 1100)


def test_an_array_longer_than_the_window_is_cut_at_it():
    f, p1 = np.ones(50, dtype=complex), OrliczFunction.power(1)
    mv = modular(p1, f, AtomicMeasureSpace.counting(20))
    assert (mv.value, mv.status, mv.n_terms) == (20.0, "exact", 20)
    got = luxemburg_norm(p1, f, AtomicMeasureSpace.counting(20))
    assert got == luxemburg_norm(p1, f[:20], AtomicMeasureSpace.finite(np.ones(20)))
    assert got == pytest.approx(20.0, rel=1e-14)
