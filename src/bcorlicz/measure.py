"""Purely atomic measure spaces, index maps, and pushforward ratios.

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
from .errors import InvalidInputError, InvalidMapError

__all__ = [
    "AtomicMeasureSpace",
    "IndexMap",
    "Pushforward",
    "Distortion",
    "pushforward",
    "distortion_ratios",
    "is_nonsingular",
    "DEFAULT_N_MAX",
]

# default truncation of a lazy space, and cap on how many atoms a
# lazy-space distortion scan materializes
DEFAULT_N_MAX = 10**6


@dataclass(frozen=True, eq=False)
class AtomicMeasureSpace:
    weights: np.ndarray | None
    rule: str | None
    n_max: int
    allow_null_atoms: bool = False

    @classmethod
    def finite(cls, weights, allow_null_atoms: bool = False) -> "AtomicMeasureSpace":
        w = np.asarray(weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise InvalidInputError("weights must be a nonempty 1-d sequence")
        if not np.all(np.isfinite(w)):
            raise InvalidInputError("weights must be finite")
        if not allow_null_atoms:
            if np.any(w <= 0):
                bad = int(np.argmax(w <= 0)) + 1
                raise InvalidInputError(
                    f"atom {bad} has weight {w[bad - 1]!r}; weights must be > 0 "
                    "(pass allow_null_atoms=True for diagnostic spaces)"
                )
        elif np.any(w < 0):
            bad = int(np.argmax(w < 0)) + 1
            raise InvalidInputError(f"atom {bad} has negative weight {w[bad - 1]!r}")
        return cls(weights=w, rule=None, n_max=w.size, allow_null_atoms=allow_null_atoms)

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
        ratio = float(self.rule.split(":", 1)[1])
        # a_n = ratio**(n-1); exp/log form keeps huge exponents from
        # overflowing intermediate integer powers
        with np.errstate(over="ignore", under="ignore"):
            return np.exp((idx - 1) * math.log(ratio))

    def total_mass(self) -> float:
        if self.is_lazy:
            raise InvalidInputError("total mass is only defined for finite spaces")
        return float(self.weights.sum())

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
        if not np.issubdtype(t.dtype, np.integer):
            ti = np.asarray(images, dtype=float)
            if not np.all(ti == np.floor(ti)):
                raise InvalidMapError("map images must be integers")
            t = ti.astype(np.int64)
        if np.any(t < 1):
            bad = int(np.argmax(t < 1)) + 1
            raise InvalidMapError(
                f"atom {bad} maps to index {int(t[bad - 1])}; images must be >= 1"
            )
        return cls(kind="table", table=t.astype(np.int64), name="table")

    @classmethod
    def right_shift(cls) -> "IndexMap":
        return cls(kind="right_shift", forward=lambda idx: np.asarray(idx) - 1, name="right_shift")

    @classmethod
    def from_rule(cls, forward, name: str = "rule") -> "IndexMap":
        return cls(kind="rule", forward=forward, name=name)

    def image_block(self, idx: np.ndarray) -> np.ndarray:
        """Forward images of 1-based indices; right shift maps atom 1 to 0."""
        idx = np.asarray(idx)
        if self.table is not None:
            if np.any(idx > self.table.size):
                raise InvalidMapError(
                    f"map table has {self.table.size} entries; index "
                    f"{int(idx.max())} requested"
                )
            return self.table[idx - 1]
        return np.asarray(self.forward(idx), dtype=np.int64)

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


@dataclass(frozen=True, eq=False)
class Pushforward:
    """Image measure masses per atom; ``truncated`` marks lazy windows."""

    masses: np.ndarray
    truncated: bool


@dataclass(frozen=True, eq=False)
class Distortion:
    """Mass ratios b_n = pushforward mass / atom weight, and their sup."""

    ratios: np.ndarray
    sup: float
    truncated: bool


def pushforward(
    space: AtomicMeasureSpace,
    imap: IndexMap,
    budget: int = DEFAULT_N_MAX,
) -> Pushforward:
    """Mass the image measure puts on each atom: m_n = sum of weights over T^-1({n}).

    On lazy spaces only the first ``min(n_max, budget)`` atoms are
    scanned and the result is flagged truncated.
    """
    if not space.is_lazy:
        n = space.size
        if imap.kind == "table":
            table = imap.table
            if table.size != n:
                raise InvalidMapError(
                    f"map table has {table.size} entries but the space has {n} atoms"
                )
            if np.any(table > n):
                bad = int(np.argmax(table > n)) + 1
                raise InvalidMapError(
                    f"atom {bad} maps to index {int(table[bad - 1])}, outside 1..{n}"
                )
            masses = np.bincount(table - 1, weights=space.weights, minlength=n)
            return Pushforward(masses, truncated=False)
        if imap.kind == "right_shift":
            masses = np.zeros(n)
            masses[: n - 1] = space.weights[1:]
            return Pushforward(masses, truncated=False)
        table = np.asarray(imap.forward(np.arange(1, n + 1)), dtype=np.int64)
        return pushforward(space, IndexMap.from_table(table))

    n = min(space.size, budget)
    idx = np.arange(1, n + 1, dtype=np.int64)
    if imap.kind == "table":
        raise InvalidMapError("finite map tables do not cover a lazy index set")
    if imap.kind == "right_shift":
        masses = space.weight_block(idx + 1)
        return Pushforward(masses, truncated=True)
    images = np.asarray(imap.forward(idx), dtype=np.int64)
    if np.any(images < 1):
        bad = int(np.argmax(images < 1)) + 1
        raise InvalidMapError(f"atom {bad} maps to index {int(images[bad - 1])}")
    inside = images <= n  # images beyond the window leave the truncated view
    masses = np.bincount(
        images[inside] - 1, weights=space.weight_block(idx[inside]), minlength=n
    )
    return Pushforward(masses, truncated=True)


def distortion_ratios(
    space: AtomicMeasureSpace,
    imap: IndexMap,
    budget: int = DEFAULT_N_MAX,
) -> Distortion:
    """Ratios b_n = m_n / a_n; sup b_n is the composition-bound certificate."""
    push = pushforward(space, imap, budget)
    n = push.masses.size
    w = space.weight_block(np.arange(1, n + 1, dtype=np.int64))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(w > 0, push.masses / np.where(w > 0, w, 1.0), 0.0)
        ratios = np.where((w == 0) & (push.masses > 0), np.inf, ratios)
    return Distortion(ratios, float(ratios.max()), push.truncated)


def is_nonsingular(space: AtomicMeasureSpace, imap: IndexMap) -> tuple[bool, str]:
    """Whether preimages of null sets are null, with a one-line certificate.

    With strictly positive weights the only null set is empty, so the
    answer is immediate; diagnostic spaces with zero-weight atoms get an
    explicit check of the pushforward mass that lands on them.
    """
    if space.is_lazy or not space.allow_null_atoms or np.all(space.weights > 0):
        return True, "all atom weights are strictly positive; only the empty set is null"
    null_atoms = np.flatnonzero(space.weights == 0) + 1
    masses = pushforward(space, imap).masses
    offenders = [int(a) for a in null_atoms if masses[a - 1] > 0]
    if offenders:
        return False, (
            f"null atom(s) {offenders} receive positive pushforward mass; "
            "preimages of null sets are not null"
        )
    return True, f"null atoms {[int(a) for a in null_atoms]} receive zero pushforward mass"
