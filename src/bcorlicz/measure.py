"""Purely atomic measure spaces, index maps, and distortion ratios.

Atoms are indexed 1, 2, 3, ... and carry strictly positive weights.
A space is either *finite* (an explicit weight vector) or *lazy* (a
named weight rule plus a truncation budget ``n_max``); lazy analyses
report results over the truncated window and say so.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bicomplex import is_json_number
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
        """Number of atoms (the truncation budget on lazy spaces)."""
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
        if not isinstance(obj, dict):
            raise InvalidInputError(f"space must be a JSON object, got {obj!r}")
        if "weights" in obj:
            return cls.finite(_json_numbers(obj["weights"], "weights"))
        if "weights_rule" in obj:
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
        raise InvalidInputError("space object needs 'weights' or 'weights_rule'")


def _json_numbers(values, what: str) -> list:
    """A JSON array of numbers; the first entry that is not one is named."""
    if not isinstance(values, list):
        raise InvalidInputError(f"{what} must be a JSON array of numbers, got {values!r}")
    for i, v in enumerate(values):
        if not is_json_number(v):
            raise InvalidInputError(f"{what}[{i}] must be a number, got {v!r}")
    return values


def _check_n_max(n_max, what: str = "n_max") -> int:
    if not (is_json_number(n_max) and isinstance(n_max, int) and n_max >= 1):
        raise InvalidInputError(f"{what} must be a positive integer, got {n_max!r}")
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
        if not isinstance(obj, dict):
            raise InvalidInputError(f"map must be a JSON object, got {obj!r}")
        if "map" in obj:
            return cls.from_table(_json_numbers(obj["map"], "map"))
        if "map_rule" in obj:
            if obj["map_rule"] == "right_shift":
                return cls.right_shift()
            raise InvalidInputError(f"unknown map_rule {obj['map_rule']!r}")
        raise InvalidInputError("map object needs 'map' or 'map_rule'")


def _images(out, idx: np.ndarray) -> np.ndarray:
    """A table's or a rule's images of ``idx`` as int64, each at least 1, or
    the first bad atom named."""
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
    low = images < 1
    if np.any(low):
        first = int(np.argmax(low))
        raise InvalidMapError(
            f"atom {int(idx.flat[first])} maps to index {int(images.flat[first])}; "
            "images must be >= 1"
        )
    return images


@dataclass(frozen=True, eq=False)
class Distortion:
    """Mass ratios b_n = pushforward mass / atom weight, from one read of the window.

    ``sup`` is the sup of ``ratios``.  On a lazy space ``sup_quarter`` and
    ``sup_half`` are the sups that a scan with budget ``m = max(1, window // 4)``
    or ``max(1, window // 2)`` gives: b_n for ``n <= m``, summed over the
    atoms ``k <= m`` only, in the same order, so bit for bit that scan's
    sup.  They are ``None`` on a finite space.  ``first_uncovered`` is, on a
    finite space, the first atom that no atom maps to (``None`` when the
    images cover the space).  On a lazy space the coverage is not read and
    it is ``None``: atoms past the window can map into it, so the window's
    coverage says nothing about the map.  ``dropped`` counts the atoms with
    no image (the right shift's atom 1).
    """

    ratios: np.ndarray
    sup: float
    sup_quarter: float | None
    sup_half: float | None
    first_uncovered: int | None
    dropped: int


def scan_window(space: AtomicMeasureSpace, budget: int) -> tuple[int, tuple[int, ...]]:
    """The atoms ``1..n`` a scan reads, all of a finite space and the first
    ``min(n_max, budget)`` of a lazy one, and on a lazy one the quarter and
    half window lengths its growth test compares.  A budget that is not an
    integer from 1 to ``MAX_BUDGET`` is an ``InvalidInputError``."""
    _check_n_max(budget, "budget")
    if budget > MAX_BUDGET:
        raise InvalidInputError(f"budget must be at most {MAX_BUDGET}, got {budget!r}")
    n = min(space.size, budget) if space.is_lazy else space.size
    return n, (max(1, n // 4), max(1, n // 2)) if space.is_lazy else ()


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


def distortion_ratios(
    space: AtomicMeasureSpace,
    imap: IndexMap,
    budget: int = DEFAULT_N_MAX,
) -> Distortion:
    """Ratios b_n = m_n / a_n; sup b_n is the composition-bound certificate.

    Each is summed per preimage, ``b_n = sum_{T(k)=n} a_k / a_n``, so it is
    finite wherever the true ratio is, even where the weights overflow.
    The map's images are read once over the window of ``scan_window``; on a
    finite space every image also counts for the coverage, which a lazy
    space does not read (see ``Distortion``).  Only the atoms
    whose share ``a_k / a_n`` can be nonzero are summed (see
    ``_within_reach``): a share of +0.0 leaves its bin's bits as they are,
    since the bins start at +0.0 and every share is at least 0 or +inf.  The
    kept arrays give the sups over the quarter and half windows on a lazy
    space (see ``Distortion``).  The window ends at its last atom ``n``:
    the right shift's preimage of ``n``, atom ``n + 1``, lies outside it,
    so ``b_n`` is 0 there on every space, as for any map.
    """
    n, prefixes = scan_window(space, budget)
    lazy = space.is_lazy
    idx = np.arange(1, n + 1, dtype=np.int64)
    if imap.kind == "right_shift":
        # atom k + 1 lands on k: atom 1 is dropped, and the last atom of a
        # finite space is uncovered
        sums = np.empty(n)
        sums[: n - 1] = _weight_ratios(space, idx[1:], idx[:-1])
        sums[n - 1] = 0.0
        sups = [sums[: m - 1].max(initial=0.0) for m in prefixes]
        return _distortion(sums, sups, None if lazy else n, 1)
    images = map_images(space, imap, idx)
    if lazy and images.max() > n:
        inside = images <= n  # images beyond a lazy window leave the truncated view
        idx, images = idx[inside], images[inside]
        del inside
    first = None
    if not lazy:
        covered = np.zeros(n + 1, dtype=bool)
        covered[images] = True
        first = None if covered[1:].all() else int(np.argmin(covered[1:])) + 1
        del covered
    d = None
    if space.rule is None or space.rule == "counting":
        shares = _weight_ratios(space, idx, images)
    else:
        d = idx - images
        near = _within_reach(d, space._log_ratio())
        if near is not None:
            idx, images, d = idx[near], images[near], d[near]
    # the atoms k <= m lead the arrays
    leads = [int(np.searchsorted(idx, m, side="right")) for m in prefixes]
    del idx  # not held while the shares r**(k - n) are computed
    if d is not None:
        shares = space._ratio_powers(d)
        del d
    # a bin's index is its atom, and bin 0 stays empty; float64 even where
    # no atom is summed, for which numpy's bincount gives integer zeros
    sums = np.bincount(images, weights=shares, minlength=n + 1)[1:].astype(float, copy=False)
    sups = []
    for m, c in zip(prefixes, leads):
        # of the atoms k <= m, keep the images n <= m; no bin is built past
        # the largest, since it would hold +0.0, and a window of none reads 0
        p, w = images[:c], shares[:c]
        if c and p.max() > m:
            keep = p <= m
            p, w = p[keep], w[keep]
        sups.append(np.bincount(p, weights=w)[1:].max(initial=0.0))
    return _distortion(sums, sups, first, 0)


def _within_reach(d: np.ndarray, log_r: float) -> np.ndarray | None:
    """The positions of the exponents ``d`` where ``exp(d log r)`` can be
    nonzero, or None where that is every one.

    Past ``|d log r| = -_EXP_UNDERFLOW`` on the decaying side the share is
    exactly 0; the reach is counted in integers with one atom to spare, so
    no float rounding of ``d log r`` can put a nonzero share past it.
    """
    if log_r == 0.0:
        return None
    reach = math.ceil(-_EXP_UNDERFLOW / abs(log_r)) + 1
    near = d < reach if log_r < 0 else d > -reach
    return None if near.all() else np.flatnonzero(near)


def _distortion(sums, sups, first_uncovered, dropped) -> Distortion:
    q, h = (float(s) for s in sups) if sups else (None, None)
    return Distortion(sums, float(sums.max()), q, h, first_uncovered, dropped)
