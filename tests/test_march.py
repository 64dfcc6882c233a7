"""Differential test of the lazy probe against a block-by-block restatement.

The library's march keeps only the partial sums its estimate reads, reads
a rule's real values as real and leaves out unit weights.  The reference
below walks the same dyadic blocks of the atom index ``[2^j, 2^(j+1))``,
cut at a tail's first atom and at the window's end and evaluated in chunks
of at most 2^14 atoms, reads every value as complex and multiplies every
weight in, and re-runs its three passes of Aitken's Delta^2 over the whole
history of partial sums after each full block, a history that holds 0 at
every dyadic end before the first atom.  Every lazy sum of index rules
(the modular, over the whole window or past an offset, the lazy weighted
sum and the pairing) must answer exactly as it does: the same
``ModularValue`` with the value and the tail bit for bit, the same
exception and message, the same pairing and the same warnings.  A sum with
an array component is finitely supported and exact: it must answer as the
restated exact sum over the shortest array's support, cut at the window,
and as the finite space of that support's weights wherever they are finite
and positive.  An atom of that support whose weight reads 0 or +inf in
floats, where no component is 0, is refused, named.  A Schauder tail is the gauge of a modular past an offset,
so the offset modular's reference covers its sums.  The reference writes
its own rule constants (three passes, three estimates, three late
doublings) rather than importing the library's, so that a change to one of
them shows.  The library keeps its passes as one Aitken table per sum for
the length of a march, one push per full dyadic end; its estimate after
every push must be the reference's over the whole history, and a march
must push one table per end for real terms and two for the pairing's.
"""

import cmath
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcorlicz import (
    AtomicMeasureSpace,
    BCSequence,
    BiComplex,
    InvalidInputError,
    ModularValue,
    NotSummableError,
    OrliczFunction,
    UnsupportedInstanceError,
    modular,
    pairing,
    orlicz,
    weighted_phi_sum,
)
from bcorlicz.orlicz import _check_rule_values

# ------------------------------------------------------------ the reference

GUARD = 1e12
SETTLE_REL = 1e-12
CHUNK = 2**14


def aitken(seq):
    """One pass of Aitken's Delta^2 over a whole sequence; a zero second
    difference keeps the latest term."""
    out = []
    for a, b, c in zip(seq, seq[1:], seq[2:]):
        step = c - b
        bend = step - (b - a)
        out.append(c if bend == 0 else c - step * step / bend)
    return out


def extrapolated(seq):
    for _ in range(3):
        seq = aitken(seq)
    return seq[-1]


@np.errstate(over="ignore", invalid="ignore")
def reference_march(term_block, end, start=1):
    """The probe over atoms ``start..end`` walked block by block:
    ``term_block(idx)`` gives the sum of the terms at the atoms ``idx`` and
    the sum of their moduli.  A block's density is its sum per doubling of
    the atom index that it spans."""
    signed = total = 0.0
    history = [(0.0, 0.0)] * (start.bit_length() - 1)
    densities = []
    lo = start
    while lo <= end:
        block_end = (1 << lo.bit_length()) - 1
        hi = min(block_end, end)
        block = 0.0
        for first in range(lo, hi + 1, CHUNK):
            last = min(first + CHUNK - 1, hi)
            add, mag = term_block(np.arange(first, last + 1, dtype=np.int64))
            signed += add
            total += mag
            block += mag
            if not total <= GUARD:
                return ModularValue(math.inf, "diverged", last - start + 1, guard=True)
        densities.append(block / math.log2((hi + 1) / lo))
        if hi == block_end:
            history.append((signed, total))
            estimates = [
                (extrapolated([v for v, _ in history[: k + 1]]),
                 extrapolated([m for _, m in history[: k + 1]]))
                for k in range(6, len(history))
            ]
            if len(estimates) >= 3:
                value, mag = estimates[-1]
                slack = SETTLE_REL * mag
                if mag >= total - slack and all(
                    abs(value - v) < slack and abs(mag - m) < slack for v, m in estimates[-3:-1]
                ):
                    if not isinstance(value, complex):
                        value = max(value, signed)
                    return ModularValue(value, "converged", hi - start + 1, tail=value - signed)
        lo = hi + 1
    n_terms = end - start + 1
    if total == 0.0:
        return ModularValue(signed, "converged", n_terms)
    late = densities[-4:]
    if len(late) == 4 and all(b >= 0.95 * a > 0.0 for a, b in zip(late, late[1:])):
        return ModularValue(math.inf, "diverged", n_terms)
    return ModularValue(signed, "inconclusive", n_terms)


def reference_block(raw, idx):
    """One component at ``idx``, every value read as complex, as the probe
    was first written: an array is zero past its length, and a rule must
    return one value per index."""
    if callable(raw):
        out = np.asarray(raw(idx), dtype=complex)
        if out.shape != idx.shape:
            raise InvalidInputError(
                f"an index rule returned shape {out.shape} for indices of shape {idx.shape}"
            )
        return out
    out = np.zeros(idx.shape, dtype=complex)
    mask = idx <= raw.size
    out[mask] = raw[idx[mask] - 1]
    return out


def reference_weighted(values, weights, idx, *read):
    """One chunk's sum of terms and sum of moduli; only a chunk whose
    moduli do not sum to a finite value is scanned."""
    terms = values * weights
    mags = np.abs(terms)
    if not np.isfinite(mags.sum()):
        for comp in read:
            _check_rule_values(comp, idx)
        terms[values == 0] = 0.0
        mags = np.abs(terms)
    if np.iscomplexobj(terms):
        return complex(terms.sum()), float(mags.sum())
    return float(terms.sum()), float(terms.sum())


def reference_phi_terms(phi, raw, weight_at, scale=1.0):
    def term_block(idx):
        vals = reference_block(raw, idx)
        return reference_weighted(phi._values(scale * np.abs(vals)), weight_at(idx), idx, vals)

    return term_block


def support_of(raws, window, weight_at, offset=0):
    """The components' values and the weights at the atoms past ``offset``
    of the shortest array's support, cut at the window; None when every
    component is a rule.  A rule read there must be finite."""
    sizes = [r.size for r in raws if not callable(r)]
    if not sizes:
        return None
    atoms = np.arange(offset + 1, min(window, *sizes) + 1, dtype=np.int64)
    values = [reference_block(r, atoms) for r in raws]
    for raw, vals in zip(raws, values):
        if callable(raw):
            _check_rule_values(vals, atoms)
    return values, weight_at(atoms)


@np.errstate(over="ignore", invalid="ignore")
def reference_exact(phi, vals, weights, scale=1.0):
    """An exact modular over a finite support, every term read: an argument
    past the floats reads phi = inf, and a zero phi or weight adds 0."""
    u = scale * np.abs(vals)
    phis = phi._values(u)
    phis[np.isinf(u)] = np.inf
    terms = phis * weights
    terms[(phis == 0) | (weights == 0)] = 0.0
    return ModularValue(float(terms.sum()), "exact", weights.size)


def space_support(raws, space, offset=0):
    """``support_of`` over a space's weights, refusing the first atom whose
    weight reads 0 or +inf where every component is nonzero."""
    part = support_of(raws, space.size, space.weight_block, offset)
    if part is not None:
        values, weights = part
        nonzero = np.logical_and.reduce([v != 0 for v in values])
        bad = np.flatnonzero(nonzero & ~(np.isfinite(weights) & (weights > 0)))
        if bad.size:
            k = int(bad[0])
            raise UnsupportedInstanceError(
                f"the {space.rule} weight of atom {offset + k + 1} reads {float(weights[k])!r} "
                "in floats where the sequence is nonzero, so the sum is not computed"
            )
    return part


def reference_modular(phi, raw, space, scale=1.0, offset=0):
    part = space_support((raw,), space, offset)
    if part is not None:
        return reference_exact(phi, part[0][0], part[1], scale)
    terms = reference_phi_terms(phi, raw, space.weight_block, scale)
    return reference_march(terms, space.size, min(offset, space.size) + 1)


def reference_weighted_phi_sum(phi, raw, weights, scale):
    part = support_of((raw,), weights.size, lambda idx: weights[idx - 1])
    if part is not None:
        return reference_exact(phi, part[0][0], part[1], scale)
    terms = reference_phi_terms(phi, raw, lambda idx: weights[idx - 1], scale)
    return reference_march(terms, weights.size)


def finite_of_support(raws, space):
    """The components cut to the shortest array's support and the finite
    space of its weights, or None where the support is empty or a weight is
    0 or +inf (a finite space has neither), a rule's value there is not
    finite (the reference refuses it) or no array bounds the sum."""
    try:
        part = support_of(raws, space.size, space.weight_block)
    except InvalidInputError:
        return None
    if part is None or not part[1].size or not np.all(np.isfinite(part[1]) & (part[1] > 0)):
        return None
    return part[0], AtomicMeasureSpace.finite(part[1])


def reference_pairing(x, y, space):
    """Each component's complex sum: exact over the shortest array's
    support, or for two rules extrapolated like the modular's, with the
    verdicts judged on its moduli."""

    def summed(which):
        xr, yr = x.component(which), y.component(which)

        part = space_support((xr, yr), space)
        if part is not None:
            (xs, ys), weights = part
            with np.errstate(over="ignore", invalid="ignore"):
                products = xs * ys
                terms = products * weights
                # 0 * inf adds 0
                terms[(products == 0) & np.isinf(weights) | (weights == 0) & np.isinf(products)] = 0
                return complex(terms.sum())

        def term_block(idx):
            xs, ys = reference_block(xr, idx), reference_block(yr, idx)
            return reference_weighted(xs * ys, space.weight_block(idx), idx, xs, ys)

        mv = reference_march(term_block, space.size)
        if mv.status == "diverged":
            fired = "the divergence guard" if mv.guard else "the comparison probe"
            raise NotSummableError(
                f"pairing component {which} diverges ({fired} fired after {mv.n_terms} atoms)"
            )
        if mv.status == "inconclusive":
            warnings.warn(
                f"pairing component {which} probe inconclusive after {mv.n_terms} atoms; "
                "returning the partial sum",
                RuntimeWarning,
            )
        return mv.value

    b1, b2 = summed(1), summed(2)
    if not all(map(cmath.isfinite, (b1, b2))):
        k = 1 if not cmath.isfinite(b1) else 2
        raise UnsupportedInstanceError(
            f"pairing overflows: idempotent component {k} of the exact result "
            f"passes the largest float ({sys.float_info.max:.3e})"
        )
    return BiComplex(b1, b2)


def reference_finite_pairing(x, y, space):
    """The pairing on a finite space: one complex sum per component."""
    idx = np.arange(1, space.size + 1, dtype=np.int64)

    def summed(which):
        xs, ys = (reference_block(s.component(which), idx) for s in (x, y))
        for vals in (xs, ys):
            _check_rule_values(vals, idx)
        return complex(np.sum(xs * ys * space.weights))

    return BiComplex(summed(1), summed(2))


# ------------------------------------------------------------ comparison


def bits(x):
    """A float or complex as the bytes of its parts, so -0.0 and nan compare."""
    z = complex(x)
    return np.array([z.real, z.imag]).tobytes()


def outcome(call):
    """What a call returned, or raised, with the warnings it gave."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = call()
        except Exception as exc:  # the comparison is of the exception itself
            out = (type(exc), str(exc))
    said = [(w.category, str(w.message)) for w in caught]
    if isinstance(out, ModularValue):
        out = (bits(out.value), out.status, out.n_terms, out.guard, bits(out.tail))
    elif isinstance(out, BiComplex):
        out = (bits(out.beta1), bits(out.beta2))
    elif isinstance(out, float):
        out = bits(out)
    return out, said


def same(got, want):
    assert outcome(got) == outcome(want)


# ------------------------------------------------------------ inputs

NAN_AT = 2500


def rules(c):
    """Index rules by name, scaled by ``c``.  ``spike`` is 1e7 past atom
    1000 and has a nan at atom 2500, inside the block ``[2048, 4096)``;
    ``nan early`` has one in the first chunk.  The library reads a rule's
    real output (``int``, ``bool``, ``float32`` and the float rules) as
    float64 and any other as complex; the reference reads every output as
    complex."""
    return {
        "c/n": lambda i: c / i,
        "c/n^2": lambda i: c / i**2,
        "c/n^1.01": lambda i: c * np.power(i, -1.01),
        "c/n^0.6": lambda i: c * np.power(i, -0.6),
        "geometric decay": lambda i: c * 0.5 ** np.minimum(i, 1100),
        "alternating": lambda i: c * (-1.0) ** i / i,
        "zero": lambda i: 0.0 * i,
        "zero head": lambda i: c * (i > 5000) / i,
        "gapped 1/n": lambda i: np.where((i >= 100) & (i <= 2000), 0.0, c / i),
        "zero below 100": lambda i: np.where(i < 100, 0.0, c / i),
        # |f_n|^2 a_n = c / 1000 on doubling weights up to atom 1024, whose
        # successor's weight overflows to inf; zero from there on
        "flat then zero": lambda i: np.where(
            i <= 1024, np.sqrt(c * 1e-3 * 0.5 ** (i - 1.0)), 0.0
        ),
        "spike": lambda i: np.where(i == NAN_AT, np.nan, np.where(i > 1000, 1e7, c / i)),
        "nan early": lambda i: np.where(i == 7, np.nan, c / i),
        "int": lambda i: round(100 * c) // i,
        "bool": lambda i: (i % 7 == 0) & (i <= 1000 * c),
        "float32": lambda i: (c / i).astype(np.float32),
        "negative float": lambda i: -c / i**1.5,
        # complex, with imaginary parts of -0.0
        "complex, zero imaginary": lambda i: np.conj((-c / i**2).astype(complex)),
    }


SPACES = ("counting", "geometric:0.5", "geometric:2.0")
PHIS = ("power:p=1", "power:p=1.5", "power:p=2", "power:p=3", "exp", "entropy")


def lazy_space(rule, n_max):
    if rule == "counting":
        return AtomicMeasureSpace.counting(n_max)
    return AtomicMeasureSpace.geometric(float(rule.split(":")[1]), n_max)


# windows as small as one atom, windows whose last block is cut anywhere,
# and windows whose late blocks span several chunks
windows = st.one_of(
    st.integers(1, 64), st.integers(65, 40_000), st.integers(40_001, 200_000)
)


@st.composite
def components(draw, c):
    """A rule by name, or a complex array (zero past its length)."""
    if draw(st.booleans()):
        name = draw(st.sampled_from(sorted(rules(c))))
        return rules(c)[name]
    length = draw(st.integers(0, 3000))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    arr = c * (rng.standard_normal(length) + 1j * rng.standard_normal(length))
    if length and draw(st.booleans()):
        arr[rng.random(length) < 0.3] = 0.0
    return arr


@st.composite
def sequences(draw, c, c2=None):
    """A bicomplex sequence; two arrays share the first one's length."""
    f1 = draw(components(c))
    f2 = draw(components(c if c2 is None else c2))
    if not callable(f1) and not callable(f2):
        f2 = np.resize(f2, f1.size) if f2.size else np.zeros(f1.size, dtype=complex)
    return BCSequence.from_components(f1, f2)


scales = st.sampled_from((1.0, 0.5, 1e-3, 7.0, 0.0))
magnitudes = st.sampled_from((1.0, 0.3, 5.0, 1e-6))

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@PROPERTY
@given(st.sampled_from(PHIS), st.sampled_from(SPACES), windows, magnitudes, st.data())
def test_modular_matches_the_reference(spec, rule, n_total, c, data):
    phi, space = OrliczFunction.parse(spec), lazy_space(rule, n_total)
    f = data.draw(components(c))
    scale = data.draw(scales)
    raw = f if callable(f) else np.asarray(f, dtype=complex)
    same(
        lambda: modular(phi, f, space, scale=scale),
        lambda: reference_modular(phi, raw, space, scale),
    )
    finite = finite_of_support((raw,), space)
    if finite is not None:
        (vals,), support = finite
        same(
            lambda: modular(phi, f, space, scale=scale),
            lambda: modular(phi, vals, support, scale=scale),
        )


@PROPERTY
@given(st.sampled_from(PHIS), windows, magnitudes, st.data())
def test_lazy_weighted_sum_matches_the_reference(spec, n_total, c, data):
    phi = OrliczFunction.parse(spec)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    weights = rng.uniform(0.0, 2.0, n_total)
    # zero and overflowed ratios, as a distortion scan can give
    weights[rng.random(n_total) < 0.05] = 0.0
    if data.draw(st.booleans()):
        weights[rng.random(n_total) < 0.01] = np.inf
    f = data.draw(components(c))
    raw = f if callable(f) else np.asarray(f, dtype=complex)
    same(
        lambda: weighted_phi_sum(phi, f, weights),
        lambda: reference_weighted_phi_sum(phi, raw, weights, 1.0),
    )


@PROPERTY
@given(st.sampled_from(PHIS), st.sampled_from(SPACES), windows, magnitudes, st.data())
def test_modular_past_an_offset_matches_the_reference(spec, rule, n_total, c, data):
    phi, space = OrliczFunction.parse(spec), lazy_space(rule, n_total)
    f = data.draw(components(c))
    scale = data.draw(scales)
    # offsets inside the window, and past both it and an array's support
    n = data.draw(st.integers(0, n_total + 5))
    raw = f if callable(f) else np.asarray(f, dtype=complex)
    same(
        lambda: modular(phi, f, space, scale=scale, offset=n),
        lambda: reference_modular(phi, raw, space, scale, offset=n),
    )
    finite = finite_of_support((raw,), space)
    if finite is not None:
        (vals,), support = finite
        same(
            lambda: modular(phi, f, space, scale=scale, offset=n),
            lambda: modular(phi, vals, support, scale=scale, offset=n),
        )


@PROPERTY
@given(st.sampled_from(SPACES), windows, magnitudes, st.data())
def test_pairing_matches_the_reference(rule, n_total, c, data):
    space = lazy_space(rule, n_total)
    x, y = data.draw(sequences(c)), data.draw(sequences(c, 1.0))
    same(lambda: pairing(x, y, space), lambda: reference_pairing(x, y, space))
    finite = [finite_of_support((x.component(k), y.component(k)), space) for k in (1, 2)]
    if None not in finite and finite[0][1].size == finite[1][1].size:
        (x1, y1), support = finite[0]
        (x2, y2), _ = finite[1]
        same(
            lambda: pairing(x, y, space),
            lambda: pairing(
                BCSequence.from_components(x1, x2), BCSequence.from_components(y1, y2), support
            ),
        )


# ------------------------------------------------------------ named cases

COUNTING = AtomicMeasureSpace.counting(10**6)
P2 = OrliczFunction.power(2)


@pytest.mark.parametrize(
    "name, space",
    [
        ("c/n", COUNTING),
        ("c/n^0.6", COUNTING),
        ("zero head", COUNTING),
        ("gapped 1/n", COUNTING),
        ("zero below 100", COUNTING),
        # the 0 * inf blocks past atom 1024 are read as zeros
        ("flat then zero", AtomicMeasureSpace.geometric(2.0, 1200)),
        ("zero", AtomicMeasureSpace.counting(10**5)),
        ("zero", AtomicMeasureSpace.geometric(2.0, 10**5)),  # 0 * inf
        ("spike", COUNTING),
        ("nan early", COUNTING),  # the nan is refused
        ("c/n^1.01", COUNTING),
        ("geometric decay", AtomicMeasureSpace.geometric(0.5, 10**6)),
        # late blocks are evaluated in chunks of 2^14 atoms
        ("c/n", AtomicMeasureSpace.counting(300_000)),
        ("c/n^2", AtomicMeasureSpace.counting(300_000)),
    ],
)
@pytest.mark.parametrize("phi", [P2, OrliczFunction.power(1)], ids=["p=2", "p=1"])
def test_named_probe_matches_the_reference(name, space, phi):
    rule = rules(1.0)[name]
    same(lambda: modular(phi, rule, space), lambda: reference_modular(phi, rule, space))


def zeta2_without(lo, hi):
    """pi^2/6 less the terms 1/n^2 for n = lo..hi."""
    return math.pi**2 / 6 - math.fsum(1.0 / n**2 for n in range(lo, hi + 1))


def test_named_probes_keep_their_verdicts():
    # the reference reads the outcomes the named cases are named for
    r = rules(1.0)
    p1 = OrliczFunction.power(1)
    harmonic = reference_modular(P2, r["c/n"], COUNTING)
    assert harmonic.status == "converged" and harmonic.n_terms < 2**15
    assert harmonic.value == pytest.approx(math.pi**2 / 6, rel=1e-14)
    # three zero blocks [128, 1024) leave the estimate at the sum below
    # 100, under the partial sum once 2001..2047 arrive: that is turned away
    gapped = reference_modular(P2, r["gapped 1/n"], COUNTING)
    assert gapped.status == "converged" and gapped.n_terms > 2**16
    assert gapped.value == pytest.approx(zeta2_without(100, 2000), rel=1e-14)
    for name in ("c/n", "zero below 100"):
        assert reference_modular(p1, r[name], COUNTING).status == "diverged"
    assert reference_modular(P2, r["zero head"], COUNTING).status == "inconclusive"
    doubling = AtomicMeasureSpace.geometric(2.0, 1200)
    assert reference_modular(P2, r["flat then zero"], doubling).status == "inconclusive"
    assert reference_modular(P2, r["spike"], COUNTING).guard
    with pytest.raises(InvalidInputError, match="at index 7"):
        modular(P2, r["nan early"], COUNTING)
    with pytest.raises(InvalidInputError, match=f"nan at index {NAN_AT}"):
        modular(p1, r["spike"], COUNTING)


REAL_PAIRS = {
    # on some of the spaces below, each pair's products sum in numpy to
    # other bits as reals than as complex
    "float pairs": (("negative float", "int"), ("c/n", "float32")),
    "mixed pairs": (("bool", "float32"), ("negative float", "complex, zero imaginary")),
}


@pytest.mark.parametrize("pairs", sorted(REAL_PAIRS))
@pytest.mark.parametrize(
    "space",
    [
        AtomicMeasureSpace.counting(10**4),
        AtomicMeasureSpace.geometric(0.5, 5000),
        AtomicMeasureSpace.geometric(2.0, 300),
        AtomicMeasureSpace.finite(np.ones(1000)),
        AtomicMeasureSpace.finite(np.linspace(0.1, 3.0, 777)),
    ],
    ids=["counting", "geometric:0.5", "geometric:2.0", "finite ones", "finite"],
)
def test_real_rules_pair_as_complex(pairs, space):
    # the pairing's products and sums stay complex, as the reference's
    r = rules(0.3)
    (x1, y1), (x2, y2) = REAL_PAIRS[pairs]
    x = BCSequence.from_rules(r[x1], r[x2])
    y = BCSequence.from_rules(r[y1], r[y2])

    def want():
        if space.is_lazy:
            return reference_pairing(x, y, space)
        return reference_finite_pairing(x, y, space)

    same(lambda: pairing(x, y, space), want)


def test_pairing_on_counting_matches_the_reference():
    # both components settle: -0.7 pi^2/12 and zeta(4) = pi^4/90
    x = BCSequence.from_rules(lambda i: 0.7 / i, lambda i: 1.0 / i**2)
    y = BCSequence.from_rules(lambda i: (-1.0) ** i / i, lambda i: 1.0 / i**2)
    same(lambda: pairing(x, y, COUNTING), lambda: reference_pairing(x, y, COUNTING))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = pairing(x, y, COUNTING)
    assert abs(got.beta1 + 0.7 * math.pi**2 / 12) <= 1e-14
    assert abs(got.beta2 - math.pi**4 / 90) <= 1e-14


# ------------------------------------------------------------ real pairings

PAIRING_RULES = {
    # real rules with negative and zero values
    "negative, zero every third": lambda i: np.where(i % 3 == 0, 0.0, -1.0 / i),
    "zero on odd atoms": lambda i: -(i % 2 == 0).astype(float) / i**2,
    "all zero": lambda i: 0.0 * i,
    "signed harmonic": lambda i: (-1.0) ** i / i,
    # products past the floats: 1e200 * -1e200 is -inf
    "huge": lambda i: np.full(i.shape, 1e200),
    "huge negative": lambda i: np.full(i.shape, -1e200),
    "huge late": lambda i: np.where(i > 2500, 1e200, 1.0 / i),
}


@pytest.mark.parametrize(
    "pair",
    [
        ("negative, zero every third", "zero on odd atoms"),
        ("negative, zero every third", "signed harmonic"),
        ("all zero", "signed harmonic"),
        ("all zero", "all zero"),
        ("huge", "huge negative"),
        ("huge late", "huge late"),
        ("signed harmonic", "array"),
        ("array", "negative, zero every third"),
    ],
    ids=lambda p: " x ".join(p),
)
@pytest.mark.parametrize(
    "space",
    [
        AtomicMeasureSpace.counting(10**4),
        AtomicMeasureSpace.counting(7),
        AtomicMeasureSpace.geometric(0.5, 5000),
        # the weights overflow past atom 1024: zero products meet inf weights
        AtomicMeasureSpace.geometric(2.0, 3000),
    ],
    ids=["counting", "counting(7)", "geometric:0.5", "geometric:2.0"],
)
def test_real_pairing_matches_the_reference(pair, space):
    # two real blocks are multiplied as reals; the value, the warning, or
    # the NotSummableError text with its atom count are those of the
    # complex reference
    rng = np.random.default_rng(3)
    array = rng.standard_normal(1500) + 1j * rng.standard_normal(1500)
    comps = [array if name == "array" else PAIRING_RULES[name] for name in pair]
    x = BCSequence.from_components(comps[0], PAIRING_RULES["signed harmonic"])
    y = BCSequence.from_components(comps[1], PAIRING_RULES["zero on odd atoms"])
    same(lambda: pairing(x, y, space), lambda: reference_pairing(x, y, space))


def test_an_overflowed_real_product_is_refused_as_before():
    # the guard reads the block [2048, 4096) that holds atom 2501
    x = BCSequence.from_rules(PAIRING_RULES["huge late"], PAIRING_RULES["all zero"])
    space = AtomicMeasureSpace.counting(10**4)
    with pytest.raises(NotSummableError, match=r"component 1 diverges \(the divergence guard "
                       r"fired after 4095 atoms\)"):
        pairing(x, x, space)


# ------------------------------------------------------------ the late doublings

# windows whose last block is cut after one atom, part way and not at all,
# windows of fewer than four blocks, and tails past an offset
LATE_CASES = [
    (4_001, 0),
    (4_095, 0),
    (4_096, 0),
    (4_097, 0),
    (7, 0),
    (15, 0),
    (10**6, 0),
    (5_000, 999),  # the Schauder tail of 3/n^2 past 999 is 3/(n+999)^2
    (12_345, 1_234),
    (12_345, 10_000),  # one cut block: too short to judge
    (10**6, 10),
]
LATE_RULES = {
    "c/n": lambda i: 1.0 / i,
    "2/n": lambda i: 2.0 / i,
    "1/sqrt(n)": lambda i: 1.0 / np.sqrt(i),
    "3/n^2": lambda i: 3.0 / i**2,
    "3/(n+999)^2": lambda i: 3.0 / (i + 999.0) ** 2,
    "1/((n+1) log^2(n+1))": lambda i: 1.0 / ((i + 1.0) * np.log(i + 1.0) ** 2),
}
DIVERGENT = ("c/n", "2/n", "1/sqrt(n)")


def atom_blocks(offset, window):
    """How many dyadic blocks ``[2^j, 2^(j+1))`` the atoms ``offset + 1 ..
    window`` meet."""
    return max(window.bit_length() - (offset + 1).bit_length() + 1, 0)


@pytest.mark.parametrize("window, offset", LATE_CASES)
@pytest.mark.parametrize("name", sorted(LATE_RULES))
def test_the_late_doublings_match_the_reference(window, offset, name):
    raw = LATE_RULES[name]
    space = AtomicMeasureSpace.counting(window)
    p1 = OrliczFunction.power(1)
    terms = reference_phi_terms(p1, raw, space.weight_block)
    want = reference_march(terms, window, offset + 1)
    same(lambda: modular(p1, raw, space, offset=offset), lambda: want)
    if name in DIVERGENT and atom_blocks(max(offset, 1), window) >= 4:
        # the tail spans at least four dyadic blocks of the atom index past
        # atom 1 (which alone weighs more per doubling than the later
        # blocks of c/n): every divergent series here reads diverged
        assert want.status == "diverged", want
    elif name == "3/n^2" or (offset == 0 and window >= 4001):
        # no convergent series reads diverged once the window reaches past
        # the atom where its terms start to fall like 1/n^2 (at 999 for
        # 3/(n+999)^2, the tail of 3/n^2 past 999): a window that ends near
        # that atom cannot tell the series from a divergent one; a tail of
        # 3/n^2 past any offset has its terms falling from its first atom
        assert want.status != "diverged", want


# ------------------------------------------------------------ the Aitken table

scale_of_sums = st.builds(
    lambda sign, m, e: sign * m * 10.0**e,
    st.sampled_from((1.0, -1.0)),
    st.floats(1.0, 10.0),
    st.integers(-300, 299),
)


@st.composite
def partial_sums(draw):
    """Partial sums as the march pushes them: real or complex, of moduli
    from 1e-300 to 1e300, some accumulated (close together, as a settling
    series leaves them) and some in runs of equal sums, whose second
    difference is 0."""
    if draw(st.booleans()):
        part = st.builds(complex, scale_of_sums, scale_of_sums | st.just(0.0))
    else:
        part = scale_of_sums
    runs = st.lists(st.tuples(part, st.booleans(), st.integers(1, 4)), min_size=1, max_size=30)
    sums, total = [], 0.0
    for value, accumulated, repeat in draw(runs):
        total = total + value if accumulated else value
        sums += [total] * repeat
    return sums


@PROPERTY
@given(st.integers(0, 40), partial_sums())
def test_the_aitken_table_matches_the_reference_after_every_push(head, sums):
    # the table as the march seeds it for the head of dyadic ends before a
    # tail's first atom: each pass of that many zeros is two zeros shorter
    table = [[0.0] * (head - 2 * k) for k in range(4)]
    history = [0.0] * head
    for s in sums:
        history.append(s)
        est = orlicz._aitken_push(table, s)
        if len(history) < 7:
            assert est is None
        else:
            assert bits(est) == bits(extrapolated(history)), history


def counted_pushes(monkeypatch):
    """Every push into an Aitken table, through the module attribute the
    march calls: the partial sum and the estimate it gave."""
    pushes, push = [], orlicz._aitken_push

    def spy(table, partial):
        pushes.append((partial, push(table, partial)))
        return pushes[-1][1]

    monkeypatch.setattr(orlicz, "_aitken_push", spy)
    return pushes


def full_ends(offset, n_terms):
    """The dyadic ends ``2^k - 1`` among the atoms ``offset + 1 .. offset + n_terms``."""
    return (offset + n_terms + 1).bit_length() - (offset + 1).bit_length()


@pytest.mark.parametrize(
    "raw, space, offset",
    [
        (lambda i: 0.7 / i, COUNTING, 10),  # the library benchmark's median tail
        (lambda i: 1.0 / i**2, COUNTING, 0),
        (lambda i: 1.0 / i, COUNTING, 0),  # diverges at the window's end
        (lambda i: 1.0 / i, COUNTING, 999),
        (lambda i: 0.9**i, AtomicMeasureSpace.geometric(0.5, 10**6), 999),
        (lambda i: 1.0 / i, AtomicMeasureSpace.counting(300_000), 0),  # inconclusive
        (lambda i: 1.0 / i**2, COUNTING, 2),
        (lambda i: np.zeros(i.shape), COUNTING, 5),
    ],
)
def test_a_real_march_pushes_one_table_per_full_end(monkeypatch, raw, space, offset):
    pushes = counted_pushes(monkeypatch)
    mv = modular(P2, raw, space, offset=offset)
    assert len(pushes) == full_ends(offset, mv.n_terms) > 0, mv
    # the table starts from the zeros of the dyadic ends before the first atom
    history = [0.0] * ((offset + 1).bit_length() - 1)
    for partial, est in pushes:
        history.append(partial)
        assert (est is None) == (len(history) < 7)
        assert est is None or bits(est) == bits(extrapolated(history))


def test_a_lazy_weighted_sum_pushes_one_table_per_full_end(monkeypatch):
    pushes = counted_pushes(monkeypatch)
    mv = weighted_phi_sum(P2, lambda i: 1.0 / i, np.full(10**5, 0.5))
    assert mv.status == "converged" and len(pushes) == full_ends(0, mv.n_terms), mv


def test_a_pairing_pushes_two_tables_per_full_end(monkeypatch):
    pushes = counted_pushes(monkeypatch)
    marches, march = [], orlicz._march

    def spy(*args):
        marches.append(march(*args))
        return marches[-1]

    monkeypatch.setattr(orlicz, "_march", spy)
    x = BCSequence.from_rules(lambda i: 0.7 / i, lambda i: 1.0 / i)
    y = BCSequence.from_rules(lambda i: (-1.0) ** i / i, lambda i: 1.0 / i**2)
    pairing(x, y, COUNTING)
    assert [mv.status for mv in marches] == ["converged", "converged"], marches
    assert len(pushes) == 2 * sum(full_ends(0, mv.n_terms) for mv in marches)


# The rule's calls, as (first atom, last atom): one call through atom 511, then
# one per dyadic block [2^j, 2^(j+1)), cut at the tail's first atom and at the
# window's end, and split every 2^14 atoms, up to the atom the probe stops at.
SPLIT = [(lo, lo + CHUNK - 1) for lo in range(2**15, 999_424, CHUNK)]  # 2^15 .. 999_423
HEAD = [(512, 1023), (1024, 2047), (2048, 4095), (4096, 8191), (8192, 16383)]
RULE_CALLS = {
    "past 0": (P2, COUNTING, 0, [(1, 511)] + HEAD),
    "past 10": (P2, COUNTING, 10, [(11, 511)] + HEAD + [(16384, 32767)]),
    "past 600": (P2, COUNTING, 600, [(601, 1023)] + HEAD[1:] + [(16384, 32767)] + SPLIT[:14]),
    # the tail past 20000 reads the whole window (inconclusive)
    "past 20000": (P2, COUNTING, 20000, [(20001, 32767)] + SPLIT + [(999_424, 10**6)]),
    # under power:p=1 the series diverges, so the march reads the whole window
    "3*2^14+5 atoms": (
        OrliczFunction.power(1),
        AtomicMeasureSpace.counting(3 * CHUNK + 5),
        0,
        [(1, 511)] + HEAD + [(16384, 32767), (32768, 49151), (49152, 49157)],
    ),
}


@pytest.mark.parametrize("name", RULE_CALLS)
def test_the_march_calls_the_rule_on_its_chunks(name):
    phi, space, offset, calls = RULE_CALLS[name]
    seen = []

    def rule(i):
        seen.append((int(i[0]), int(i[-1])))
        return 0.7 / i

    mv = modular(phi, rule, space, offset=offset)
    assert seen == calls
    assert mv.n_terms == calls[-1][1] - offset
