"""Differential test of the lazy probe against a one-block-at-a-time loop.

The library's march evaluates runs of blocks in chunks and reduces each
chunk to per-block sums, reads a rule's real values as real and leaves
out unit weights.  The reference below evaluates and judges one block at
a time, the way the probe was first written, with every value read as
complex and every weight multiplied in, and every lazy sum (the modular,
over the whole window or past an offset, the lazy weighted sum and the
pairing) must answer exactly as it does: the same ``ModularValue`` with
the value bit for bit, the same exception and message, the same pairing
and the same warnings.  A Schauder tail is the gauge of a modular past
an offset, so the offset modular's reference covers its sums.
"""

import math
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
    modular,
    pairing,
    weighted_phi_sum,
)
from bcorlicz.orlicz import (
    _DIVERGENCE_GUARD,
    _SETTLE_REL,
    _TAIL_BURN_IN,
    _TAIL_DECAY_RATIO,
    _TAIL_FLOOR,
    _check_rule_values,
)

# ------------------------------------------------------------ the reference


@np.errstate(over="ignore", invalid="ignore")
def reference_march(term_block, n_total, block, support):
    """The probe evaluated and judged one block at a time."""
    if block < 1:
        raise InvalidInputError(f"block size must be >= 1, got {block!r}")
    block = min(block, max(1, n_total // 8))
    total = 0.0
    consec = 0
    quarter, half = n_total // 4, n_total // 2
    min_early = math.inf
    min_late = math.inf
    start = 1
    done = 0
    while start <= n_total:
        stop = min(start + block - 1, n_total)
        idx = np.arange(start, stop + 1, dtype=np.int64)
        terms, add = term_block(idx)
        add = float(add)
        total += add
        done = stop
        if not total <= _DIVERGENCE_GUARD:
            return ModularValue(math.inf, "diverged", done, guard=True)
        mask = idx >= _TAIL_BURN_IN
        if mask.any():
            m = float((idx[mask] * terms[mask]).min())
            if stop > half:
                min_late = min(min_late, m)
            elif stop > quarter:
                min_early = min(min_early, m)
        consec = consec + 1 if 0.0 < total and add < _SETTLE_REL * total else 0
        settled = consec >= 3 if support is None else done >= support
        if settled:
            return ModularValue(total, "converged", done)
        start = stop + 1
    if (
        0.0 < min_early < math.inf
        and math.isfinite(min_late)
        and min_late >= _TAIL_FLOOR
        and min_late >= _TAIL_DECAY_RATIO * min_early
    ):
        return ModularValue(math.inf, "diverged", done)
    return ModularValue(total, "converged" if total == 0.0 else "inconclusive", done)


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
    """One block's terms and their sum; only a sum that is not finite is scanned."""
    terms = values * weights
    total = terms.sum()
    if not np.isfinite(total):
        for comp in read:
            _check_rule_values(comp, idx)
        terms[values == 0] = 0.0
        total = terms.sum()
    return terms, total


def reference_phi_terms(phi, raw, weight_at, scale=1.0, offset=0):
    def term_block(idx):
        at = idx + offset if offset else idx
        vals = reference_block(raw, at)
        return reference_weighted(phi._values(scale * np.abs(vals)), weight_at(at), at, vals)

    return term_block


def support_of(raw):
    return None if callable(raw) else raw.size


def reference_modular(phi, raw, space, scale, block):
    terms = reference_phi_terms(phi, raw, space.weight_block, scale)
    return reference_march(terms, space.size, block, support_of(raw))


def reference_weighted_phi_sum(phi, raw, weights, scale, block):
    terms = reference_phi_terms(phi, raw, lambda idx: weights[idx - 1], scale)
    return reference_march(terms, weights.size, block, support_of(raw))


def reference_pairing(x, y, space, block):
    def summed(which):
        xr, yr = x.component(which), y.component(which)
        signed = 0j

        def term_block(idx):
            nonlocal signed
            xs, ys = reference_block(xr, idx), reference_block(yr, idx)
            terms, block_sum = reference_weighted(xs * ys, space.weight_block(idx), idx, xs, ys)
            signed += complex(block_sum)
            mags = np.abs(terms)
            return mags, mags.sum()

        support = min((r.size for r in (xr, yr) if not callable(r)), default=None)
        mv = reference_march(term_block, space.size, block, support)
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
        return signed

    return BiComplex(summed(1), summed(2))


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
        out = (bits(out.value), out.status, out.n_terms, out.guard)
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
    """Index rules by name, scaled by ``c``.  ``spike`` passes the guard in
    the second block of 1000 atoms and has a nan in the third, which the
    first chunk of two blocks evaluates; ``nan early`` has it in the first.
    The library reads a rule's real output (``int``, ``bool``, ``float32``
    and the float rules) as float64 and any other as complex; the
    reference reads every output as complex."""
    return {
        "c/n": lambda i: c / i,
        "c/n^2": lambda i: c / i**2,
        "c/n^1.01": lambda i: c * np.power(i, -1.01),
        "geometric decay": lambda i: c * 0.5 ** np.minimum(i, 1100),
        "alternating": lambda i: c * (-1.0) ** i / i,
        "zero": lambda i: 0.0 * i,
        "zero head": lambda i: c * (i > 5000) / i,
        "gapped 1/n": lambda i: np.where((i >= 100) & (i <= 2000), 0.0, c / i),
        "zero below the burn-in": lambda i: np.where(i < 100, 0.0, c / i),
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


@st.composite
def windows(draw):
    """A window and a block size: blocks 1 to 3000, windows as small as one
    atom (the n // 8 shrink) and not a multiple of the block; at most about
    2000 reference blocks, so that the reference loop stays quick."""
    n_total = draw(st.one_of(st.integers(1, 64), st.integers(65, 40_000)))
    block = draw(st.integers(max(1, n_total // 2000), 3000))
    return n_total, block


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
@given(st.sampled_from(PHIS), st.sampled_from(SPACES), windows(), magnitudes, st.data())
def test_modular_matches_the_reference(spec, rule, window, c, data):
    n_total, block = window
    phi, space = OrliczFunction.parse(spec), lazy_space(rule, n_total)
    f = data.draw(components(c))
    scale = data.draw(scales)
    raw = f if callable(f) else np.asarray(f, dtype=complex)
    same(
        lambda: modular(phi, f, space, scale=scale, block=block),
        lambda: reference_modular(phi, raw, space, scale, block),
    )


@PROPERTY
@given(st.sampled_from(PHIS), windows(), magnitudes, st.data())
def test_lazy_weighted_sum_matches_the_reference(spec, window, c, data):
    n_total, block = window
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
        lambda: weighted_phi_sum(phi, f, weights, lazy=True, block=block),
        lambda: reference_weighted_phi_sum(phi, raw, weights, 1.0, block),
    )


@PROPERTY
@given(st.sampled_from(PHIS), st.sampled_from(SPACES), windows(), magnitudes, st.data())
def test_modular_past_an_offset_matches_the_reference(spec, rule, window, c, data):
    n_total, block = window
    phi, space = OrliczFunction.parse(spec), lazy_space(rule, n_total)
    f = data.draw(components(c))
    scale = data.draw(scales)
    # offsets inside the window, and past both it and an array's support
    n = data.draw(st.integers(0, n_total + 5))
    raw = f if callable(f) else np.asarray(f, dtype=complex)
    support = support_of(raw)
    terms = reference_phi_terms(phi, raw, space.weight_block, scale, offset=n)
    same(
        lambda: modular(phi, f, space, scale=scale, block=block, offset=n),
        lambda: reference_march(
            terms, space.size - n, block, None if support is None else max(support - n, 0)
        ),
    )


@PROPERTY
@given(st.sampled_from(SPACES), windows(), magnitudes, st.data())
def test_pairing_matches_the_reference(rule, window, c, data):
    n_total, block = window
    space = lazy_space(rule, n_total)
    x, y = data.draw(sequences(c)), data.draw(sequences(c, 1.0))
    same(lambda: pairing(x, y, space, block=block), lambda: reference_pairing(x, y, space, block))


# ------------------------------------------------------------ named cases

COUNTING = AtomicMeasureSpace.counting(10**6)
P2 = OrliczFunction.power(2)


@pytest.mark.parametrize(
    "name, space, block",
    [
        ("c/n", COUNTING, 1000),  # inconclusive over the full window
        ("zero head", COUNTING, 1000),
        ("gapped 1/n", COUNTING, 1000),
        ("zero below the burn-in", COUNTING, 1000),
        # the 0 * inf blocks past atom 1024 are read as zeros, and their
        # floor of 0 keeps the comparison probe from firing
        ("flat then zero", AtomicMeasureSpace.geometric(2.0, 1200), 1000),
        ("zero", AtomicMeasureSpace.counting(10**5), 1000),
        ("zero", AtomicMeasureSpace.geometric(2.0, 10**5), 1000),  # 0 * inf
        ("spike", COUNTING, 1000),  # the nan lies past the guard's block
        ("nan early", COUNTING, 1000),  # the nan is refused
        ("c/n^1.01", COUNTING, 1000),
        ("geometric decay", AtomicMeasureSpace.geometric(0.5, 10**6), 1000),
        # blocks longer than a chunk's atom cap are evaluated one at a time
        ("c/n", AtomicMeasureSpace.counting(300_000), 20_000),
        ("c/n^2", AtomicMeasureSpace.counting(300_000), 20_000),
    ],
)
@pytest.mark.parametrize("phi", [P2, OrliczFunction.power(1)], ids=["p=2", "p=1"])
def test_named_probe_matches_the_reference(name, space, block, phi):
    rule = rules(1.0)[name]
    same(
        lambda: modular(phi, rule, space, block=block),
        lambda: reference_modular(phi, rule, space, 1.0, block),
    )


def test_named_probes_keep_their_verdicts():
    # the reference pins the outcomes the named cases are named for
    r = rules(1.0)
    assert reference_modular(P2, r["c/n"], COUNTING, 1.0, 1000).status == "inconclusive"
    p1 = OrliczFunction.power(1)
    below = reference_modular(p1, r["zero below the burn-in"], COUNTING, 1.0, 1000)
    assert below.status == "diverged"
    doubling = AtomicMeasureSpace.geometric(2.0, 1200)
    assert reference_modular(P2, r["flat then zero"], doubling, 1.0, 1000).status == "inconclusive"
    assert reference_modular(P2, r["spike"], COUNTING, 1.0, 1000).guard
    with pytest.raises(InvalidInputError, match="at index 7"):
        modular(P2, r["nan early"], COUNTING)


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
            return reference_pairing(x, y, space, 1000)
        return reference_finite_pairing(x, y, space)

    same(lambda: pairing(x, y, space), want)


def test_pairing_on_the_full_window_matches_the_reference():
    # an inconclusive component warns and returns its partial sum
    x = BCSequence.from_rules(lambda i: 0.7 / i, lambda i: 1.0 / i**2)
    y = BCSequence.from_rules(lambda i: (-1.0) ** i / i, lambda i: 1.0 / i**2)
    same(lambda: pairing(x, y, COUNTING), lambda: reference_pairing(x, y, COUNTING, 1000))


# ------------------------------------------------------------ real pairings

PAIRING_RULES = {
    # real rules with negative and zero values
    "negative, zero every third": lambda i: np.where(i % 3 == 0, 0.0, -1.0 / i),
    "zero on odd atoms": lambda i: -(i % 2 == 0) / i**2,
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
    same(lambda: pairing(x, y, space), lambda: reference_pairing(x, y, space, 1000))


def test_an_overflowed_real_product_is_refused_as_before():
    x = BCSequence.from_rules(PAIRING_RULES["huge late"], PAIRING_RULES["all zero"])
    space = AtomicMeasureSpace.counting(10**4)
    with pytest.raises(NotSummableError, match=r"component 1 diverges \(the divergence guard "
                       r"fired after 3000 atoms\)"):
        pairing(x, x, space)


# ------------------------------------------------------------ the early floor

# (window, block, offset): a quarter of the window inside a chunk and inside
# one of its blocks, on one-block chunks, at a block's end, on windows
# smaller than eight blocks, and on tails past an offset
FLOOR_CASES = [
    (10_000, 1000, 0),  # quarter 2500 in the second block of the second chunk
    (9_999, 1000, 0),  # blocks of 1000, quarter 2499
    (4_003, 1000, 0),  # blocks shrink to 500; quarter 1000 ends a block
    (37, 1000, 0),  # blocks of 4, quarter 9 inside the third
    (13, 5, 0),  # blocks of 1
    (250_000, 20_000, 0),  # blocks past a chunk's atom cap, one per chunk
    (12_345, 700, 1_234),  # a tail past an offset: quarter 2777 of the tail
    (6_001, 1000, 5_000),  # a short tail: blocks of 125
]
FLOOR_RULES = ("c/n", "c/n^1.01", "zero below the burn-in", "gapped 1/n", "zero head", "dip")


def dip(window, offset):
    """``n t_n`` over the tail's positions ``n``: 0.5 just past the quarter,
    0.6 in the late half and 1 elsewhere, so the comparison probe fires
    only if it reads the block that holds the quarter's next position."""
    n_total = window - offset

    def rule(atoms):
        n = atoms - offset
        c = np.where(n > n_total // 2, 0.6, np.where(n == n_total // 4 + 1, 0.5, 1.0))
        return c / n

    return rule


@pytest.mark.parametrize("window, block, offset", FLOOR_CASES)
@pytest.mark.parametrize("name", FLOOR_RULES)
def test_the_early_floor_matches_the_reference(window, block, offset, name):
    raw = dip(window, offset) if name == "dip" else rules(1.0)[name]
    space = AtomicMeasureSpace.counting(window)
    p1 = OrliczFunction.power(1)
    terms = reference_phi_terms(p1, raw, space.weight_block, offset=offset)
    same(
        lambda: modular(p1, raw, space, block=block, offset=offset),
        lambda: reference_march(terms, window - offset, block, None),
    )
    if name == "dip" and (window - offset) // 4 >= _TAIL_BURN_IN:
        # past the burn-in the dip is read, and it alone makes the verdict
        assert reference_march(terms, window - offset, block, None).status == "diverged"


def test_the_floor_cases_split_chunks_at_the_quarter(monkeypatch):
    # the premise of the cases above: some chunk holds blocks that end at
    # or before the quarter beside blocks that end after it, and a block
    # holds the quarter inside it
    from bcorlicz import orlicz

    chunks = []
    block_stats = orlicz._block_stats

    def spy(idx, terms, k, quarter):
        chunks.append((int(idx[0]), idx.size // k, k, quarter))
        return block_stats(idx, terms, k, quarter)

    monkeypatch.setattr(orlicz, "_block_stats", spy)
    split = inside = 0
    for window, block, offset in FLOOR_CASES:
        chunks.clear()
        modular(OrliczFunction.power(1), rules(1.0)["c/n"], AtomicMeasureSpace.counting(window),
                block=block, offset=offset)
        for start, size, k, quarter in chunks:
            ends = [start + (j + 1) * size - 1 for j in range(k)]
            split += ends[0] <= quarter < ends[-1]
            inside += any(end - size < quarter < end for end in ends)
    assert split >= 3 and inside >= 5
