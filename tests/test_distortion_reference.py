"""Differential test of the distortion scan against a full-window reference.

The library sums only the atoms whose share ``a_k / a_n`` can be nonzero
and reads the quarter and half sups from those atoms alone.  The
reference below computes every share over the whole window, underflowed
ones included, sums them all, and re-slices the full arrays for each
prefix, the way the scan was first written.  Its right shift reads the
window as every other map does: atom ``n + 1`` lies outside it, so the
last atom gets no mass.  It reads the coverage on finite spaces only: on a
lazy one atoms past the window can map into it, so ``first_uncovered`` is
None there.  Every field of the two ``Distortion`` values must agree bit
for bit, or both calls must raise the same error.  A window shorter than
the space is the space cut at that many atoms.
"""

import dataclasses
import math

import numpy as np
import pytest

from bcorlicz import AtomicMeasureSpace, IndexMap, InvalidMapError, distortion_ratios
from bcorlicz.measure import _CHUNK_ATOMS, map_images, scan_window, window_chunks

# ------------------------------------------------------------ the reference


def reference_shares(space, k, n):
    """``a_k / a_n`` at every atom, as ``r**(k - n) = exp((k - n) log r)`` on
    a geometric space, with the exponents below -746 set to 0 unevaluated."""
    if space.weights is not None:
        with np.errstate(over="ignore"):
            return space.weights[k - 1] / space.weights[n - 1]
    if space.rule == "counting":
        return np.ones(k.shape)
    x = (k - n) * math.log(float(space.rule.split(":", 1)[1]))
    out = np.zeros(x.shape)
    with np.errstate(over="ignore", under="ignore"):
        np.exp(x, out=out, where=x >= -746.0)
    return out


def reference_distortion(space, imap):
    """Fields of the scan, every share of the window summed."""
    n, prefixes = scan_window(space)
    lazy = space.is_lazy
    idx = np.arange(1, n + 1, dtype=np.int64)
    if imap.kind == "right_shift":
        sums = np.zeros(n)
        sums[: n - 1] = reference_shares(space, idx[1:], idx[:-1])
        sups = [np.append(sums[: m - 1], 0.0).max() for m in prefixes]
        return fields(sums, sups, None if lazy else n, 1)
    images = map_images(space, imap, idx)
    inside = None
    if lazy and images.max() > n:
        inside = images <= n
        idx, images = idx[inside], images[inside]
    shares = reference_shares(space, idx, images)
    pos = images - 1
    # float64 where every image leaves the window (numpy's bincount of no
    # atoms is integer zeros, which the scan once returned as its ratios)
    sums = np.bincount(pos, weights=shares, minlength=n).astype(float)
    first = None
    if not lazy:
        covered = np.zeros(n, dtype=bool)
        covered[pos] = True
        first = None if covered.all() else int(np.argmin(covered)) + 1
    sups = []
    for m in prefixes:
        c = m if inside is None else int(np.count_nonzero(inside[:m]))
        p, w = pos[:c], shares[:c]
        keep = p < m
        sups.append(np.bincount(p[keep], weights=w[keep], minlength=m).max())
    return fields(sums, sups, first, 0)


def fields(sums, sups, first_uncovered, dropped):
    q, h = (float(s) for s in sups) if sups else (None, None)
    return (sums, float(sums.max()), q, h, first_uncovered, dropped)


# ------------------------------------------------------------ comparison


def bits(v):
    """A field as comparable bytes: floats and arrays by their bits."""
    if isinstance(v, np.ndarray):
        return (v.dtype.str, v.shape, v.tobytes())
    if isinstance(v, float):
        return np.float64(v).tobytes()
    return v


def outcome(call):
    try:
        out = call()
    except Exception as exc:  # the comparison is of the exception itself
        return (type(exc), str(exc))
    if not isinstance(out, tuple):
        d = out
        out = (d.ratios, d.sup, d.sup_quarter, d.sup_half, d.first_uncovered, d.dropped)
    return tuple(bits(v) for v in out)


def same(space, imap):
    got = outcome(lambda: distortion_ratios(space, imap))
    want = outcome(lambda: reference_distortion(space, imap))
    assert got == want


# ------------------------------------------------------------ inputs

RNG_TABLE = np.random.default_rng(5).integers(1, 2 * 10**5 + 1, 3 * 10**5)


def lagged(i):
    """``max(n - lag, 1)`` with a lag of 0 to 2 atoms below 12000, of 20000
    below 45000, scattered over 0 to 2499 below 90000 and of 0 to 2 again
    past it.  On geometric:0.5 a share underflows past a lag of about 1075
    atoms (the scan's reach is 1078), so over the windows below a chunk
    holds only near atoms, only far ones (a chunk whose shares are all
    skipped) or both, and the regions cross the chunk ends and the quarter
    and half prefixes.  On geometric:2.0 the shares grow instead, and pass
    the floats past a lag of 1024."""
    lag = np.select(
        [i < 12000, i < 45000, i < 90000],
        [i % 3, np.full(i.shape, 20000), (i * 7919) % 2500],
        i % 3,
    )
    return np.maximum(i - lag, 1)


MAPS = {
    "n//2+1": IndexMap.from_rule(lambda i: i // 2 + 1, name="n//2+1"),
    "2n": IndexMap.from_rule(lambda i: 2 * i, name="2n"),
    "max(n - 3, 1)": IndexMap.from_rule(lambda i: np.maximum(i - 3, 1), name="max(n - 3, 1)"),
    "constant 1": IndexMap.from_rule(lambda i: np.ones(i.shape, dtype=np.int64), name="1"),
    "constant 4": IndexMap.from_rule(lambda i: np.full(i.shape, 4.0), name="4"),
    # the indices themselves: the images are the very array of indices
    "identity": IndexMap.from_rule(lambda i: i, name="identity"),
    "3n + 7": IndexMap.from_rule(lambda i: 3 * i + 7, name="3n + 7"),
    # images inside and past the window, in no order
    "scattered": IndexMap.from_rule(lambda i: RNG_TABLE[i - 1], name="scattered"),
    "right shift": IndexMap.right_shift(),
    "lagged": IndexMap.from_rule(lagged, name="lagged"),
}

RATIOS = (1e-3, 0.5, 0.999, 1.0, 2.0)
LAZY = ["counting"] + [f"geometric:{r}" for r in RATIOS]
# past the first chunk, and with the quarter and half prefixes inside chunks
MULTI_CHUNK = 3 * _CHUNK_ATOMS + 5
WINDOWS = (1, 2, 7, 5000, MULTI_CHUNK, 10**5)


def lazy_space(rule, n_max):
    if rule == "counting":
        return AtomicMeasureSpace.counting(n_max)
    return AtomicMeasureSpace.geometric(float(rule.split(":")[1]), n_max)


@pytest.mark.parametrize("name", sorted(MAPS))
@pytest.mark.parametrize("rule", LAZY)
def test_lazy_scan_matches_the_reference(rule, name):
    for window in WINDOWS:
        # a space cut at the window, and one of the window's size
        same(dataclasses.replace(lazy_space(rule, 3 * window + 1), n_max=window), MAPS[name])
        same(lazy_space(rule, window), MAPS[name])


@pytest.mark.parametrize("rule", ["geometric:1e-3", "geometric:0.5", "geometric:2.0"])
@pytest.mark.parametrize("m", [1075, 1076, 1077, 1078, 1079, 1080])
def test_shares_at_the_underflow_reach_match_the_reference(rule, m):
    # on geometric:0.5 the shares 0.5**d underflow between d = 1074 and
    # d = 1076: maps whose every k - T(k) sits at the edge, on either side
    space = lazy_space(rule, 5000)
    for sign in (1, -1):
        lag = IndexMap.from_rule(
            lambda i, s=sign: np.maximum(i - s * m, 1) if s > 0 else i + m, name="lag"
        )
        same(space, lag)



@pytest.mark.parametrize(
    "rule, m",
    [("geometric:1e-3", m) for m in range(105, 111)]
    + [("geometric:0.5", m) for m in range(1073, 1080)],
)
def test_a_chunk_at_the_underflow_reach_matches_the_reference(rule, m):
    # every atom of a chunk maps m atoms below the chunk's first atom, so its
    # largest share is r**m, and the scan may skip the chunk only where that
    # reads 0: r**107 is 1e-321 on geometric:1e-3, r**1074 is 5e-324 on 0.5
    space = lazy_space(rule, 10**5)
    starts = np.array([lo for lo, _ in window_chunks(*scan_window(space), 1)])
    below = IndexMap.from_rule(
        lambda i: np.maximum(starts[np.searchsorted(starts, i, side="right") - 1] - m, 1),
        name="below the chunk",
    )
    same(space, below)


_RNG = np.random.default_rng(11)
FINITE = {
    "ones(7)": np.ones(7),
    "uniform(5000)": _RNG.uniform(0.1, 3.0, 5000),
    # shares that overflow and underflow: a_k / a_n past the floats
    "extreme(2000)": 10.0 ** _RNG.uniform(-300, 300, 2000),
    "one atom": np.array([2.5]),
    # every map's shares come from four chunks: under the constant table 1
    # they all land in bin 1, so its bits check the order of addition
    f"uniform({MULTI_CHUNK})": _RNG.uniform(0.1, 3.0, MULTI_CHUNK),
    f"extreme({MULTI_CHUNK})": 10.0 ** _RNG.uniform(-300, 300, MULTI_CHUNK),
}


@pytest.mark.parametrize("label", sorted(FINITE))
def test_finite_scan_matches_the_reference(label):
    space = AtomicMeasureSpace.finite(FINITE[label])
    n = space.size
    rng = np.random.default_rng(n)
    maps = [MAPS[name] for name in sorted(MAPS)]  # 2n and 3n + 7 are refused
    maps += [
        IndexMap.from_table(rng.integers(1, n + 1, n)),
        IndexMap.from_table(np.arange(n, 0, -1)),
        IndexMap.from_table(np.ones(n, dtype=np.int64)),
        IndexMap.from_table(np.arange(1, n + 1) + 1),  # its last image is refused
    ]
    for imap in maps:
        same(space, imap)


def test_an_image_0_in_a_chunk_whose_shares_are_skipped_is_refused():
    # the chunk of atom 70000 adds no share, but its images are still checked
    imap = IndexMap.from_rule(lambda i: np.where(i == 70000, 0, i // 2 + 1), name="bad")
    space = lazy_space("geometric:0.5", 10**5)
    with pytest.raises(InvalidMapError, match="^atom 70000 maps to index 0; images must be >= 1"):
        distortion_ratios(space, imap)
    same(space, imap)


def test_ratios_are_floats_where_every_image_leaves_the_window():
    # regression: the ratios were int64 zeros when no atom was summed
    space = AtomicMeasureSpace.counting(2)
    dist = distortion_ratios(space, IndexMap.from_rule(lambda i: i + 5))
    assert dist.ratios.dtype == np.float64 and dist.ratios.tolist() == [0.0, 0.0]
    # and where every image inside it has a share that underflows:
    # k - T(k) = -1100 on geometric:2.0
    space = AtomicMeasureSpace.geometric(2.0, 2000)
    dist = distortion_ratios(space, IndexMap.from_rule(lambda i: i + 1100))
    assert dist.ratios.dtype == np.float64 and (dist.sup, dist.first_uncovered) == (0.0, None)
    assert outcome(lambda: dist) == outcome(
        lambda: reference_distortion(space, IndexMap.from_rule(lambda i: i + 1100))
    )


def test_the_reference_sees_what_it_should():
    # the cases above reach underflowed shares, overflowed ones, a table
    # refusal and an uncovered finite space
    space = lazy_space("geometric:0.5", 10**5)
    ratios, sup = reference_distortion(space, MAPS["n//2+1"])[:2]
    assert 0 < np.count_nonzero(ratios) < 1100 and math.isfinite(sup)
    wide = lazy_space("geometric:2.0", 10**5)
    assert reference_distortion(wide, MAPS["n//2+1"])[1] == math.inf
    assert outcome(lambda: reference_distortion(
        AtomicMeasureSpace.finite(np.ones(7)), MAPS["2n"]))[0].__name__ == "InvalidMapError"
    ones = AtomicMeasureSpace.finite(np.ones(7))
    assert reference_distortion(ones, MAPS["constant 4"])[4] == 1
