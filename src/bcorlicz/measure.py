"""Purely atomic measure spaces, index maps, and distortion ratios.

Atoms are indexed 1, 2, 3, ... and carry strictly positive weights.
A space is either *finite* (an explicit weight vector) or *lazy* (a
named weight rule plus a truncation window ``n_max``); lazy analyses
report results over the truncated window and say so.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bicomplex import is_json_number, json_kind
from .errors import DEFAULT_N_MAX, MAX_BUDGET, InvalidInputError, InvalidMapError

__all__ = [
    "AtomicMeasureSpace",
    "IndexMap",
    "Distortion",
    "distortion_ratios",
    "map_images",
    "scan_window",
    "DEFAULT_N_MAX",
    "MAX_BUDGET",
]

# exp(x) is exactly 0.0 for every x below this (it underflows past the
# least subnormal near x = -745.13)
_EXP_UNDERFLOW = -746.0
# a scan reads its window in chunks of at most this many atoms: past it the
# chunk's temporaries fall out of cache and an atom costs more
_CHUNK_ATOMS = 2**14


@dataclass(frozen=True, eq=False)
class AtomicMeasureSpace:
    weights: np.ndarray | None
    rule: str | None
    n_max: int

    @classmethod
    def finite(cls, weights) -> "AtomicMeasureSpace":
        w = np.asarray(weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise InvalidInputError("weights must be a nonempty 1-d sequence")
        if not np.all(np.isfinite(w)):
            raise InvalidInputError("weights must be finite")
        if np.any(w <= 0):
            bad = int(np.argmax(w <= 0)) + 1
            raise InvalidInputError(
                f"atom {bad} has weight {float(w[bad - 1])!r}; weights must be > 0"
            )
        return cls(weights=w, rule=None, n_max=w.size)

    @classmethod
    def counting(cls, n_max: int = DEFAULT_N_MAX) -> "AtomicMeasureSpace":
        return cls(weights=None, rule="counting", n_max=_check_n_max(n_max))

    @classmethod
    def geometric(cls, ratio: float, n_max: int = DEFAULT_N_MAX) -> "AtomicMeasureSpace":
        if not (isinstance(ratio, (int, float)) and 0 < ratio and math.isfinite(ratio)):
            raise InvalidInputError(f"geometric ratio must be > 0, got {ratio!r}")
        return cls(weights=None, rule=f"geometric:{float(ratio)}", n_max=_check_n_max(n_max))

    @property
    def is_lazy(self) -> bool:
        return self.weights is None

    @property
    def size(self) -> int:
        """Number of atoms (the truncation window on lazy spaces)."""
        return self.n_max

    def weight_block(self, idx: np.ndarray) -> np.ndarray:
        """Weights at 1-based atom indices ``idx``."""
        idx = np.asarray(idx)
        if self.weights is not None:
            return self.weights[idx - 1]
        if self.rule == "counting":
            return np.ones(idx.shape, dtype=float)
        return self._ratio_powers(idx - 1)

    def _ratio_powers(self, d: np.ndarray) -> np.ndarray:
        """``r**d`` at integer exponents ``d`` on a geometric space, as
        ``exp(d log r)``, which overflows only where ``r**d`` does.  ``exp`` is
        0 and slow below ``_EXP_UNDERFLOW``, so it is skipped there, with the
        bits of an unmasked ``exp`` kept."""
        x = d * self._log_ratio()
        out = np.zeros(x.shape)
        with np.errstate(over="ignore", under="ignore"):
            np.exp(x, out=out, where=x >= _EXP_UNDERFLOW)
        return out

    def _log_ratio(self) -> float:
        return math.log(float(self.rule.split(":", 1)[1]))

    def to_json_dict(self) -> dict:
        if self.is_lazy:
            return {"weights_rule": self.rule, "n_max": self.n_max}
        return {"weights": [float(w) for w in self.weights]}

    @classmethod
    def from_json_dict(cls, obj) -> "AtomicMeasureSpace":
        if json_kind(obj, ("weights", "weights_rule"), "space") == "weights":
            return cls.finite(_json_numbers(obj["weights"], "weights"))
        rule = obj["weights_rule"]
        n_max = obj.get("n_max", DEFAULT_N_MAX)
        if rule == "counting":
            return cls.counting(n_max)
        if isinstance(rule, str) and rule.startswith("geometric:"):
            try:
                ratio = float(rule.split(":", 1)[1])
            except ValueError:
                raise InvalidInputError(f"bad geometric rule {rule!r}") from None
            return cls.geometric(ratio, n_max)
        raise InvalidInputError(
            f"unknown weights_rule {rule!r}; expected 'counting' or 'geometric:<ratio>'"
        )


def _json_numbers(values, what: str) -> list:
    """A JSON array of numbers; the first entry that is not one is named."""
    if not isinstance(values, list):
        raise InvalidInputError(f"{what} must be a JSON array of numbers, got {values!r}")
    for i, v in enumerate(values):
        if not is_json_number(v):
            raise InvalidInputError(f"{what}[{i}] must be a number, got {v!r}")
    return values


def _check_n_max(n_max) -> int:
    if not (is_json_number(n_max) and isinstance(n_max, int) and n_max >= 1):
        raise InvalidInputError(f"n_max must be a positive integer, got {n_max!r}")
    return n_max


@dataclass(frozen=True, eq=False)
class IndexMap:
    """Self-map of the atom index set.

    Finite maps are tables (``table[k-1]`` is the image of atom ``k``).
    Lazy maps are vectorized forward rules.  The built-in ``right_shift``
    map sends atom n to n - 1 and leaves atom 1 without an image.
    """

    kind: str  # "table" | "rule" | "right_shift"
    table: np.ndarray | None = None
    forward: Callable[[np.ndarray], np.ndarray] | None = None
    name: str = ""

    @classmethod
    def from_table(cls, images) -> "IndexMap":
        t = np.asarray(images)
        if t.ndim != 1 or t.size == 0:
            raise InvalidInputError("map table must be a nonempty 1-d sequence")
        if t.dtype.kind not in "iu":
            t = np.asarray(images, dtype=float)
        return cls(kind="table", table=_images(t, np.arange(1, t.size + 1)), name="table")

    @classmethod
    def right_shift(cls) -> "IndexMap":
        return cls(kind="right_shift", forward=lambda idx: np.asarray(idx) - 1, name="right_shift")

    @classmethod
    def from_rule(cls, forward, name: str = "rule") -> "IndexMap":
        return cls(kind="rule", forward=forward, name=name)

    def image_block(self, idx: np.ndarray) -> np.ndarray:
        """Forward images of 1-based indices; right shift maps atom 1 to 0.

        A rule must return one finite integer image of at least 1 per
        index, as an integer or integral float array of the indices'
        shape; anything else raises ``InvalidMapError`` naming the first
        bad atom.  The result may be ``idx`` itself, so callers never
        write to it.
        """
        idx = np.asarray(idx)
        if self.table is not None:
            if np.any(idx > self.table.size):
                raise InvalidMapError(
                    f"map table has {self.table.size} entries; index "
                    f"{int(idx.max())} requested"
                )
            return self.table[idx - 1]
        images = self.forward(idx)
        return images if self.kind == "right_shift" else _images(images, idx)

    def to_json_dict(self) -> dict:
        if self.kind == "table":
            return {"map": [int(v) for v in self.table]}
        if self.kind == "right_shift":
            return {"map_rule": "right_shift"}
        raise InvalidInputError(f"map rule {self.name!r} has no JSON form")

    @classmethod
    def from_json_dict(cls, obj) -> "IndexMap":
        if json_kind(obj, ("map", "map_rule"), "map") == "map":
            return cls.from_table(_json_numbers(obj["map"], "map"))
        if obj["map_rule"] == "right_shift":
            return cls.right_shift()
        raise InvalidInputError(f"unknown map_rule {obj['map_rule']!r}")


def _images(out, idx: np.ndarray) -> np.ndarray:
    """A table's or a rule's images of ``idx`` as int64, each at least 1, or
    the first bad atom named.  Their least value is one reduction; only a
    refusal builds the mask that finds the atom to name."""
    images = np.asarray(out)
    if images.shape != idx.shape:
        raise InvalidMapError(
            f"map rule returned images of shape {images.shape} for indices of shape "
            f"{idx.shape}; it must return one image per atom"
        )
    if images.dtype.kind not in "ibuf":
        raise InvalidMapError(f"map rule returned {images.dtype} images; images must be integers")
    if images.dtype.kind != "i":
        vals = images.astype(float, copy=False)
        bad = ~(np.isfinite(vals) & (np.floor(vals) == vals) & (np.abs(vals) < 2.0**63))
        if np.any(bad):
            first = int(np.argmax(bad))
            raise InvalidMapError(
                f"atom {int(idx.flat[first])} maps to {float(vals.flat[first])!r}; "
                "images must be finite integers below 2**63"
            )
    images = images.astype(np.int64, copy=False)
    if images.min(initial=1) < 1:
        first = int(np.argmax(images < 1))
        raise InvalidMapError(
            f"atom {int(idx.flat[first])} maps to index {int(images.flat[first])}; "
            "images must be >= 1"
        )
    return images


@dataclass(frozen=True, eq=False)
class Distortion:
    """Mass ratios b_n = pushforward mass / atom weight, from one read of the window.

    ``ratios`` is the one array as long as the window that the scan builds;
    besides it, the scan holds one chunk of the window (see
    ``distortion_ratios``).  ``sup`` is the sup of ``ratios``.  On a lazy
    space ``sup_quarter`` and ``sup_half`` are the sups that a scan of the
    space cut at ``m = max(1, window // 4)`` or ``max(1, window // 2)``
    atoms gives: b_n for ``n <= m``, summed over the atoms ``k <= m`` only,
    in the same order, so bit for bit that scan's sup, read as the scan
    passes atom ``m``.  They are ``None`` on a finite space.
    ``first_uncovered`` is, on a finite space, the first atom that no atom
    maps to (``None`` when the images cover the space).  On a lazy space
    the coverage is not read and it is ``None``: atoms past the window can
    map into it, so the window's coverage says nothing about the map.
    ``dropped`` counts the atoms with no image (the right shift's atom 1).
    """

    ratios: np.ndarray
    sup: float
    sup_quarter: float | None
    sup_half: float | None
    first_uncovered: int | None
    dropped: int


def scan_window(space: AtomicMeasureSpace) -> tuple[int, tuple[int, ...]]:
    """The atoms ``1..n`` a scan reads, all of a finite space and the first
    ``min(n_max, MAX_BUDGET)`` of a lazy one, as a march reads them, and on
    a lazy one the quarter and half window lengths its growth test
    compares.  A scan reads these atoms in the chunks of ``window_chunks``,
    which end at those lengths too.  A shorter scan is a scan of the space
    cut at fewer atoms."""
    n = min(space.size, MAX_BUDGET) if space.is_lazy else space.size
    return n, (max(1, n // 4), max(1, n // 2)) if space.is_lazy else ()


def window_chunks(n: int, ends, start: int):
    """The atom ranges ``(lo, hi)`` that cover ``start..n`` in order, each of
    at most ``_CHUNK_ATOMS`` atoms, with every atom of ``ends`` from ``start``
    on among the ends ``hi``."""
    lo = start
    for end in sorted({*ends, n}):
        while lo <= end:
            hi = min(end, lo + _CHUNK_ATOMS - 1)
            yield lo, hi
            lo = hi + 1


def map_images(space: AtomicMeasureSpace, imap: IndexMap, idx: np.ndarray) -> np.ndarray:
    """``imap.image_block(idx)`` checked against the space: a table needs one
    entry per atom of a finite space, and there every image is at most its
    size (``image_block`` refuses images below 1); else ``InvalidMapError``."""
    if imap.table is not None and (space.is_lazy or imap.table.size != space.size):
        atoms = "is lazy" if space.is_lazy else f"has {space.size} atoms"
        raise InvalidMapError(f"map table has {imap.table.size} entries but the space {atoms}")
    images = imap.image_block(idx)
    if not space.is_lazy and images.max() > space.size:
        bad = int(np.argmax(images > space.size))
        raise InvalidMapError(
            f"atom {int(idx[bad])} maps to index {int(images[bad])}, outside 1..{space.size}"
        )
    return images


def _weight_ratios(space: AtomicMeasureSpace, k: np.ndarray, n: np.ndarray) -> np.ndarray:
    """``a_k / a_n`` at 1-based atoms; ``r**(k - n)`` on a geometric space (see
    ``_ratio_powers``)."""
    if space.weights is not None:
        with np.errstate(over="ignore"):
            return space.weights[k - 1] / space.weights[n - 1]
    if space.rule == "counting":
        return np.ones(k.shape)
    return space._ratio_powers(k - n)


def distortion_ratios(space: AtomicMeasureSpace, imap: IndexMap) -> Distortion:
    """Ratios b_n = m_n / a_n; sup b_n is the composition-bound certificate.

    Each is summed per preimage, ``b_n = sum_{T(k)=n} a_k / a_n``, so it is
    finite wherever the true ratio is, even where the weights overflow.
    The window of ``scan_window``, at most ``MAX_BUDGET`` atoms of a lazy
    space, is read once, in the chunks of ``window_chunks``, and each
    chunk's shares ``a_k / a_n`` are added into one array of bins indexed
    by atom, in atom order, as ``np.bincount`` adds them: bin 0 takes the
    atoms with no image (the right shift's atom 1), and bin ``n + 1`` the
    images past a lazy window.  A quarter or half sup is read from the
    bins as a chunk ends at its prefix ``m``, when they hold exactly the
    atoms ``k <= m``.  Every chunk's images are read and checked in full
    (``map_images``), count for ``dropped`` and, on a finite space, for the
    coverage (see ``Distortion``).  Only then are its shares added, and
    only those that can be nonzero (see ``_within_reach``); a chunk with
    none adds nothing.  A share left out is +0.0, which leaves its bin's
    bits as they are, since the bins start at +0.0 and every share is at
    least 0 or +inf.  The window ends at its last atom ``n``:
    the right shift's preimage of ``n``, atom ``n + 1``, lies outside it,
    so ``b_n`` is 0 there on every space, as for any map.
    """
    n, prefixes = scan_window(space)
    bins = np.zeros(n + 2)
    covered = None if space.is_lazy else np.zeros(n + 1, dtype=bool)
    sups, dropped = [], 0
    for lo, hi in window_chunks(n, prefixes, 1):
        idx = np.arange(lo, hi + 1, dtype=np.int64)
        images = map_images(space, imap, idx)
        if covered is not None:
            covered[images] = True
        dropped += int(images[0] == 0)  # only atom 1 can be left without an image
        near = _within_reach(space, idx, images)
        if near is not None:
            k, t = near
            with np.errstate(over="ignore"):  # a sum past the floats reads +inf
                np.add.at(bins, np.minimum(t, n + 1), _weight_ratios(space, k, t))
        sups += [bins[1 : m + 1].max() for m in prefixes if m == hi]
    ratios = bins[1 : n + 1]
    first = None
    if covered is not None and not covered[1:].all():
        first = int(np.argmin(covered[1:])) + 1
    q, h = (float(s) for s in sups) if sups else (None, None)
    return Distortion(ratios, float(ratios.max()), q, h, first, dropped)


def _within_reach(
    space: AtomicMeasureSpace, k: np.ndarray, images: np.ndarray
) -> tuple[np.ndarray, np.ndarray] | None:
    """The atoms of the chunk ``k`` and their images whose shares
    ``a_k / a_n`` can be nonzero, or None where the chunk has none.

    On a geometric space ``r**(k - n)`` is exactly 0 past
    ``|(k - n) log r| = -_EXP_UNDERFLOW`` on the decaying side; the reach is
    counted in integers with one atom to spare, so no float rounding of
    ``(k - n) log r`` can put a nonzero share past it.  On ``r < 1`` a chunk
    ``lo..hi`` whose images all lie at or below ``lo - reach`` is skipped
    from that one reduction of its images; otherwise the atoms past the
    reach are left out.  Every other space's chunk is kept whole.
    """
    log_r = 0.0 if space.rule in (None, "counting") else space._log_ratio()
    if log_r == 0.0:
        return k, images
    reach = math.ceil(-_EXP_UNDERFLOW / abs(log_r)) + 1
    if log_r < 0.0 and images.max() <= k[0] - reach:
        return None
    d = k - images
    near = d < reach if log_r < 0.0 else d > -reach
    if near.all():
        return k, images
    near = np.flatnonzero(near)
    return (k[near], images[near]) if near.size else None
