"""Orlicz machinery for bicomplex sequences on atomic measure spaces.

The scalar core is the modular ``I_phi(f) = sum phi(|f_n|) a_n`` and the
Luxemburg gauge ``inf { lam > 0 : I_phi(f / lam) <= 1 }``.  A bicomplex
sequence splits into two complex component sequences along the
idempotents, the modular becomes a hyperbolic (componentwise) value, and
the norm recombines the component gauges as
``(1/sqrt(2)) * sqrt(n1^2 + n2^2)``.

A finitely supported sum is exact.  On lazy spaces a sum of index rules
is a *probe*: it marches dyadic blocks of atoms and reports ``converged``
(with an extrapolated tail, an estimate) / ``diverged`` / ``inconclusive``
(with the plain partial sum), never pretending to more than the window
supports.  The Young functions live in ``young``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bicomplex import BiComplex, _ring_result, pair_norm
from .errors import (
    MAX_BUDGET,
    InvalidInputError,
    NotInSpaceError,
    NotSummableError,
    UnsupportedInstanceError,
)
from .measure import AtomicMeasureSpace, window_chunks
from .young import OrliczFunction, classify_phi

__all__ = [
    "BCSequence",
    "component_block",
    "component_array",
    "component_head",
    "ModularValue",
    "modular",
    "weighted_phi_sum",
    "luxemburg_norm",
    "norm_bc",
    "schauder_tail",
    "pairing",
]

# lazy-sum probe parameters: the extrapolated total settles once it moves
# less than _SETTLE_REL, relative, over two doublings; at the window's end
# a series whose block sums per doubling fall by less than _DIVERGE_RATIO
# over each of its last _DIVERGE_DOUBLINGS doublings reads as divergent
# (the harmonic series, by Cauchy condensation, does not fall at all)
_SETTLE_REL = 1e-12
_AITKEN_PASSES = 3
_DIVERGE_RATIO = 0.95
_DIVERGE_DOUBLINGS = 3
# the probe first settles at the ninth dyadic end of the atom index, atom
# 511 (three estimates, each over seven ends); the blocks before it cannot
# settle it, for a tail too, and are evaluated as one chunk
_FIRST_CHUNK = 2 ** (2 * _AITKEN_PASSES + 3) - 1


# ----------------------------------------------------------------------
# bicomplex sequences
# ----------------------------------------------------------------------


def component_block(raw, idx: np.ndarray) -> np.ndarray:
    """Values of one component at 1-based indices ``idx``.

    Arrays are zero-extended past their length (finitely supported
    elements of a lazy space) and keep their complex dtype; callables are
    vectorized index rules, and one must return an array of ``idx``'s
    shape.  A rule's real output (bool, integer or float dtype) is read as
    float64 and any other as complex: ``|x + 0j|`` is exactly ``|x|``, so
    every modulus has the bits it would have as complex.
    """
    idx = np.asarray(idx)
    if callable(raw):
        out = np.asarray(raw(idx))
        out = out.astype(float if out.dtype.kind in "biuf" else complex, copy=False)
        if out.shape != idx.shape:
            raise InvalidInputError(
                f"an index rule returned shape {out.shape} for indices of shape {idx.shape}"
            )
        return out
    out = np.zeros(idx.shape, dtype=complex)
    mask = idx <= raw.size
    out[mask] = raw[idx[mask] - 1]
    return out


def component_head(raw, n: int, start: int = 1) -> np.ndarray:
    """A component's values at atoms ``start..n``: an array of exactly ``n``
    entries read from atom 1 as it is (no copy), any other zero-extended or
    cut, and a rule's values read like ``component_block`` and checked
    finite."""
    if start == 1 and not callable(raw) and raw.size == n:
        return raw
    idx = np.arange(start, n + 1, dtype=np.int64)
    out = component_block(raw, idx)
    _check_rule_values(out, idx)
    return out


def component_array(raw, space: AtomicMeasureSpace) -> np.ndarray:
    """One component as a dense array over a finite space (strict length);
    float64 for a rule with real output, like ``component_block``."""
    if not callable(raw) and space.is_lazy:
        raise InvalidInputError("dense component arrays need a finite space")
    if not callable(raw) and raw.size != space.size:
        raise InvalidInputError(
            f"sequence has {raw.size} entries but the space has {space.size} atoms"
        )
    return component_head(raw, space.size)


def _check_rule_values(values: np.ndarray, idx: np.ndarray) -> None:
    """Refuse an index rule's values that are not finite, naming the first."""
    bad = ~np.isfinite(values)
    if bad.any():
        k = int(np.argmax(bad))
        v = complex(values[k])
        raise InvalidInputError(
            f"an index rule gave {v.real if v.imag == 0 else v} at index {int(idx[k])}; "
            "entries must be finite"
        )


def _as_raw_component(f):
    """A rule as it is, or ``f`` as a 1-d array of finite entries: float64 for
    a real dtype (bool, integer or float), like ``component_block``, and
    complex128 for any other."""
    if isinstance(f, BCSequence):
        raise InvalidInputError("pass one component here, not a BCSequence")
    if callable(f):
        return f
    arr = np.asarray(f)
    arr = arr.astype(float if arr.dtype.kind in "biuf" else complex, copy=False)
    if arr.ndim != 1:
        raise InvalidInputError("a sequence component must be 1-d")
    if arr.size and not np.all(np.isfinite(arr)):
        raise InvalidInputError("sequence entries must be finite")
    return arr


def _as_sequence_component(f):
    """``_as_raw_component`` with an array stored as complex128, the dtype a
    sequence's components and an operator's factors keep."""
    raw = _as_raw_component(f)
    return raw if callable(raw) else raw.astype(complex, copy=False)


@dataclass(frozen=True, eq=False)
class BCSequence:
    """Bicomplex sequence as its two idempotent component sequences.

    Each component is either an explicit complex array or a vectorized
    rule mapping 1-based index arrays to values.  On a finite space an
    array must match the atom count exactly; on a lazy space arrays are
    zero-extended and rules are evaluated on demand.  ``block`` and
    ``array`` read a component through ``component_block``: complex for an
    array, float64 for a rule with real output.
    """

    comp1: "np.ndarray | Callable[[np.ndarray], np.ndarray]"
    comp2: "np.ndarray | Callable[[np.ndarray], np.ndarray]"

    @classmethod
    def from_components(cls, f1, f2) -> "BCSequence":
        f1 = _as_sequence_component(f1)
        f2 = _as_sequence_component(f2)
        if not callable(f1) and not callable(f2) and f1.size != f2.size:
            raise InvalidInputError(
                f"component lengths differ: {f1.size} vs {f2.size}"
            )
        return cls(f1, f2)

    @classmethod
    def from_values(cls, values) -> "BCSequence":
        vals = []
        for n, v in enumerate(values, start=1):
            vb = BiComplex._coerce(v)
            if vb is None:
                raise InvalidInputError(f"entry {n} is not bicomplex: {v!r}")
            vals.append(vb)
        return cls.from_components(
            np.array([v.beta1 for v in vals], dtype=complex),
            np.array([v.beta2 for v in vals], dtype=complex),
        )

    @classmethod
    def from_rules(cls, rule1, rule2) -> "BCSequence":
        if not (callable(rule1) and callable(rule2)):
            raise InvalidInputError("from_rules needs two callables")
        return cls(rule1, rule2)

    @classmethod
    def from_json_list(cls, obj) -> "BCSequence":
        if not isinstance(obj, list):
            raise InvalidInputError(f"sequence must be a JSON array, got {obj!r}")
        return cls.from_values([BiComplex.from_json_dict(v) for v in obj])

    @property
    def is_lazy(self) -> bool:
        return callable(self.comp1) or callable(self.comp2)

    def component(self, which: int):
        if which == 1:
            return self.comp1
        if which == 2:
            return self.comp2
        raise InvalidInputError(f"component index must be 1 or 2, got {which!r}")

    def block(self, which: int, idx: np.ndarray) -> np.ndarray:
        return component_block(self.component(which), idx)

    def array(self, which: int, space: AtomicMeasureSpace) -> np.ndarray:
        """Component as a dense array over a finite space (strict length)."""
        return component_array(self.component(which), space)

    def values(self) -> list[BiComplex]:
        if self.is_lazy:
            raise InvalidInputError("rule-backed sequences have no finite value list")
        return [BiComplex(b1, b2) for b1, b2 in zip(self.comp1, self.comp2)]

    def to_json_list(self) -> list:
        return [v.to_json_dict() for v in self.values()]


# ----------------------------------------------------------------------
# modulars
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ModularValue:
    """Value of a nonnegative sum plus how it was reached.

    ``status`` is ``exact`` (a finitely supported sum, see
    ``_exact_part``), ``converged`` (an index rule's probe settled), ``diverged``
    (the block sums did not fall at the window's end; value is +inf), or
    ``inconclusive`` (value is the plain partial sum over ``n_terms`` atoms, a
    lower bound, and +inf where it passed the floats).  ``n_terms`` is how many
    atoms were read: for a tail past an offset ``n``, the atoms read past ``n``.
    A ``converged`` value is an estimate: the partial sum plus ``tail``, the
    remainder that Aitken's Delta^2 on the dyadic partial sums predicts (one
    step per pass at each full end, one table for real sums), which no finite
    probe of a black-box rule can prove.  ``nonzero`` is set by a rule's
    march only: False where every value of ``f`` that it read is 0, so a
    march's sum of 0 with ``nonzero`` set lost every term to underflow.
    """

    value: float
    status: str
    n_terms: int
    tail: float = 0.0
    nonzero: bool = True


# overflow and 0 * inf are read piece by piece in _march, not warned about
@np.errstate(over="ignore", invalid="ignore")
def _march(term_chunk, end: int, start: int = 1) -> ModularValue:
    """Sum a series of index rules over atoms ``start..end`` with the convergence probe.

    The window ends at ``end`` or at ``MAX_BUDGET`` atoms past ``start``,
    whichever comes first, so no march reads more than that many atoms.
    ``term_chunk(idx)`` gives, at the 1-based atoms ``idx``, the ``values``
    and ``weights`` whose products are the terms and the rules' values
    ``read`` there.  ``weights`` is None on ``counting``, and no array of
    ones is built: the values are the terms.  For a modular's real terms
    this is exact, since ``x * 1.0`` is ``x`` bit for bit (see also
    ``_scaled``).  For the pairing's complex terms, numpy's multiply by
    ``1 + 0j`` could differ only in the sign of a zero part and in the
    imaginary part of an infinite term (``inf + 0j`` becomes
    ``inf + nanj``); neither reaches the result, since an infinite term
    stops the march and the sum starts at +0.0.  The terms are
    nonnegative for a modular and complex for the pairing: every rule reads
    their moduli, and the returned value is their sum.  ``n_terms`` counts
    the atoms read, from ``start`` on.

    Block ``j`` holds the atoms ``[2^j, 2^(j+1))``, cut at ``start`` and at
    ``end`` (see ``_pieces`` for how blocks are evaluated).  The partial
    sums at the dyadic ends ``2^(j+1) - 1``, those of the terms and those
    of their moduli, are 0 at every end before ``start``; at each full
    block's end they take one step of each of ``_AITKEN_PASSES`` passes of
    Aitken's Delta^2 (``_aitken_push``), in one table for real terms, whose
    moduli's sums are their sums.  As in Cauchy condensation, a tail like
    ``n^-s`` leaves the dyadic partial sums a sum of geometric modes in
    ``j``, and each pass removes the slowest; a tail past ``start`` keeps
    the series' own modes, since its blocks are the series' blocks.  The
    probe converges once both estimates move less than ``_SETTLE_REL``,
    relative to the moduli's, over two doublings, and the moduli's predicts
    a tail that is not negative beyond that slack.  That condition turns
    away the antilimit of a divergent series whose block sums grow (Aitken
    extrapolates it below the partial sums), and the partial sum that a
    run of zero blocks leaves the estimate at once mass returns after it.
    The value is the terms' estimate, a modular's at least its partial sum,
    and ``tail`` is what it adds to the partial sum.  A window that sums to
    0 throughout converges to 0 at its end.  A partial sum of the moduli
    past the floats stops the march as ``inconclusive`` at +inf, a lower
    bound: passing a threshold shows a large sum, not a divergent series.

    Divergence is judged only at the window's end, where the moduli's block
    sums per doubling of the atom index (a block's sum divided by
    ``log2((stop + 1) / first)`` over its first and last atoms, which a cut
    block makes less than 1) fall by less than ``_DIVERGE_RATIO`` over each
    of the last ``_DIVERGE_DOUBLINGS`` doublings, as the harmonic series'
    block sums, which tend to ``log 2``, do.  That test reads the same for
    ``c f`` as for ``f``, and a convergent series can have block sums that
    grow over its early doublings.
    """
    end = min(end, start - 1 + MAX_BUDGET)
    value = total = block = 0.0
    nonzero = False
    head = start.bit_length() - 1  # the dyadic ends before start: 0 in every pass
    table = [[0.0] * (head - 2 * k) for k in range(_AITKEN_PASSES + 1)]
    mag_table, estimates, per_doubling = [row[:] for row in table], [], []
    for stop, piece, piece_mag, read_nonzero in _pieces(term_chunk, end, start):
        value += piece
        total += piece_mag
        block += piece_mag
        nonzero = nonzero or read_nonzero
        if not total < math.inf:  # also catches nan
            return ModularValue(math.inf, "inconclusive", stop - start + 1)
        full = not stop & (stop + 1)  # stop + 1 is a power of two
        if not full and stop < end:
            continue  # a chunk inside a long block
        first = max(start, 1 << (stop.bit_length() - 1))
        per_doubling.append(block / math.log2((stop + 1) / first))
        block = 0.0
        if full:
            est = _aitken_push(table, value)
            est_mag = _aitken_push(mag_table, total) if isinstance(value, complex) else est
            if est is not None:
                estimates.append((est, est_mag))
            if len(estimates) >= 3:
                slack = _SETTLE_REL * est_mag
                if est_mag - total >= -slack and all(
                    abs(est - v) < slack and abs(est_mag - m) < slack for v, m in estimates[-3:-1]
                ):
                    est = est if isinstance(est, complex) else max(est, value)
                    return ModularValue(est, "converged", stop - start + 1, tail=est - value)
    n_terms = end - start + 1
    if total == 0.0:
        return ModularValue(value, "converged", n_terms, nonzero=nonzero)
    late = per_doubling[-_DIVERGE_DOUBLINGS - 1 :]
    if len(late) > _DIVERGE_DOUBLINGS and all(
        b >= _DIVERGE_RATIO * a > 0.0 for a, b in zip(late, late[1:])
    ):
        return ModularValue(math.inf, "diverged", n_terms)
    return ModularValue(value, "inconclusive", n_terms)


def _pieces(term_chunk, end: int, start: int):
    """``(stop, terms' sum, moduli's sum, nonzero)`` over the march's pieces in order.

    A chunk of ``window_chunks`` over ``start..end`` ends at each dyadic end
    ``2^j - 1`` from ``_FIRST_CHUNK`` on, so the first holds every block
    through that atom (none can settle the probe) and is summed block by
    block, and each later one is a piece: a block, or a part of a longer
    one.  ``stop`` is a piece's last atom.  Only a piece whose moduli do not
    sum to a finite value is scanned, and only once the march reaches it: a
    rule's value that is nan or inf is refused, and a zero value on a weight
    that overflowed to inf (a geometric ratio above 1) adds 0, not nan.
    Terms that overflow stay inf, and stop the march.  ``nonzero`` says
    whether a rule's value read in the piece is nonzero; only a piece whose
    moduli sum to 0 has its values scanned for it.
    """
    ends = [(1 << j) - 1 for j in range(_FIRST_CHUNK.bit_length(), end.bit_length())]
    for lo, hi in window_chunks(end, ends, start):
        idx = np.arange(lo, hi + 1, dtype=np.int64)
        values, weights, read = term_chunk(idx)
        terms = values if weights is None else values * weights
        a = lo
        while a <= hi:
            b = min((1 << a.bit_length()) - 1, hi)
            cut = slice(a - lo, b - lo + 1)
            sums = _sums(terms[cut])
            if not math.isfinite(sums[1]):
                for comp in read:
                    _check_rule_values(comp[cut], idx[cut])
                terms[cut][values[cut] == 0] = 0.0
                sums = _sums(terms[cut])
            yield b, *sums, sums[1] != 0.0 or any(comp[cut].any() for comp in read)
            a = b + 1


def _sums(terms: np.ndarray):
    if np.iscomplexobj(terms):
        return complex(terms.sum()), float(np.abs(terms).sum())
    total = float(terms.sum())
    return total, total


def _aitken_push(table: list, partial):
    """Append ``partial`` to ``table[0]``, and to each pass ``table[k]`` of Aitken's Delta^2
    whose pass below ends in ``a, b, c``, ``c - (c - b)^2 / ((c - b) - (b - a))``, or ``c``
    where that second difference is 0; return the last pass's newest entry, or None."""
    table[0].append(partial)
    for below, row in zip(table, table[1:]):
        if len(below) < 3:
            return None
        a, b, c = below[-3:]
        step, bend = c - b, (c - b) - (b - a)
        row.append(c - step * step / bend if bend != 0 else c)
    return table[-1][-1]


def _phi_terms(phi: OrliczFunction, rule, weight_at, scale: float = 1.0):
    """Terms ``phi(scale |f_n|) w_n`` of an index rule at the atoms ``idx``.

    ``weight_at`` maps atoms to their weights, or to None for unit weights
    (see ``_weight_reader``).  A rule's real values are read as float64
    and any others as complex (see ``component_block``); the moduli have
    the same bits either way.  This is the term chunk of every lazy
    modular and weighted sum (see ``_march``).
    """

    def term_chunk(idx):
        vals = component_block(rule, idx)
        return phi._values(_scaled(np.abs(vals), scale)), weight_at(idx), (vals,)

    return term_chunk


def _weight_reader(space: AtomicMeasureSpace):
    """``space.weight_block``, or on ``counting`` a reader that gives None:
    the march leaves unit weights out (see ``_march``)."""
    return (lambda atoms: None) if space.rule == "counting" else space.weight_block


def _scaled(moduli: np.ndarray, scale: float) -> np.ndarray:
    """``scale * moduli``; at ``scale == 1`` the multiply is skipped
    (``1.0 * x`` is ``x``), and at ``scale == 0`` every argument is
    ``min(u, 0) = 0``, a modulus that overflowed to inf too (``0 * inf``
    would be nan), while the modulus of a rule's nan stays nan for the
    march to refuse."""
    if scale == 1.0:
        return moduli
    return moduli * scale if scale else np.minimum(moduli, 0.0)


def _exact_part(raws, space: AtomicMeasureSpace, offset: int = 0):
    """``(values, weights)`` of the components past ``offset`` over the atoms
    a finitely supported sum reads, or None for index rules on a lazy space:
    every atom of a finite space (strict length), or the shortest array's
    support cut at a lazy window.  There a ``geometric:r`` weight ``r^(n-1)``
    can read 0 or +inf in floats, and an atom where it does and no factor
    is 0 is refused with UnsupportedInstanceError naming it: its term
    would drop out of the sum or swamp it."""
    if not space.is_lazy:
        return [component_array(r, space)[offset:] for r in raws], space.weights[offset:]
    sizes = [r.size for r in raws if not callable(r)]
    if not sizes:
        return None
    end = min(space.size, *sizes)
    values = [component_head(r, end, offset + 1) if callable(r) else r[offset:end] for r in raws]
    weights = space.weight_block(np.arange(offset + 1, end + 1, dtype=np.int64))
    lost = (weights == 0.0) | (weights == math.inf)
    for v in values:
        lost &= v != 0
    if lost.any():
        k = int(np.argmax(lost))
        raise UnsupportedInstanceError(
            f"the {space.rule} weight of atom {offset + k + 1} reads {float(weights[k])!r} "
            "in floats where the sequence is nonzero, so the sum is not computed"
        )
    return values, weights


def modular(
    phi: OrliczFunction,
    f,
    space: AtomicMeasureSpace,
    *,
    scale: float = 1.0,
    offset: int = 0,
) -> ModularValue:
    """Modular ``I_phi(scale * f 1_{>offset}) = sum_{n > offset} phi(scale |f_n|) a_n``.

    ``f`` is one complex component (array or index rule); ``offset = n``
    leaves out atoms ``1..n``, so it gives the modular of the tail past
    ``n``.  A finitely supported sum (see ``_exact_part``) is exact; on a
    lazy space an array longer than the window is cut at the window's end,
    and its entries past it are left out.  Index rules on a lazy space run
    the dyadic probe (``_march``) over the atoms ``n + 1`` to the window's
    end, in the dyadic blocks of the atom index, so a tail keeps the
    series' own blocks; its ``converged`` value, partial sum plus
    extrapolated tail, is an estimate, and ``n_terms`` counts the atoms
    read past ``n``.
    """
    _check_scale(scale)
    offset = _tail_start(offset, space)
    raw = _as_raw_component(f)
    part = _exact_part((raw,), space, offset)
    if part is None:
        terms = _phi_terms(phi, raw, _weight_reader(space), scale)
        return _march(terms, space.size, offset + 1)
    (values,), weights = part
    return _phi_sum(phi, np.abs(values), weights, scale)


def _check_scale(scale) -> None:
    if not (isinstance(scale, (int, float)) and scale >= 0 and math.isfinite(scale)):
        raise InvalidInputError(f"scale must be finite and >= 0, got {scale!r}")


def _tail_start(offset, space: AtomicMeasureSpace) -> int:
    """``offset`` checked to be an integer >= 0, not a bool, and cut at the space's size."""
    if not (isinstance(offset, int) and not isinstance(offset, bool) and offset >= 0):
        raise InvalidInputError(f"the tail offset must be an integer >= 0, got {offset!r}")
    return min(offset, space.size)


def weighted_phi_sum(
    phi: OrliczFunction,
    f,
    weights: np.ndarray,
    *,
    scale: float = 1.0,
) -> ModularValue:
    """``sum phi(scale * |f_n|) * weights[n-1]`` over ``n = 1..len(weights)``.

    The weight vector may be any nonnegative certificate vector (for
    example distortion ratios), not just atom weights.  An index rule runs
    the convergence probe over those atoms, and an array is summed exactly
    over its support, cut at ``len(weights)``, as on a lazy space.
    """
    _check_scale(scale)
    weights = np.asarray(weights, dtype=float)
    raw = _as_raw_component(f)
    if callable(raw):
        return _march(_phi_terms(phi, raw, lambda idx: weights[idx - 1], scale), weights.size)
    values = raw[: weights.size]
    return _phi_sum(phi, np.abs(values), weights[: values.size], scale)


# overflow and 0 * inf are read term by term in _exact_sum, not warned about
@np.errstate(over="ignore", invalid="ignore")
def _phi_sum(phi: OrliczFunction, moduli: np.ndarray, weights: np.ndarray, scale: float):
    """Exact ``sum phi(scale u_n) w_n`` over finite ``moduli`` ``u_n = |f_n|``."""
    total = _exact_sum(phi._values(_scaled(moduli, scale)), weights)
    return ModularValue(float(total), "exact", weights.size)


def _exact_sum(values: np.ndarray, weights: np.ndarray):
    """``sum values_n w_n`` over a finite support, called with numpy's overflow
    and invalid warnings off.  Only a sum that is not finite has its terms
    scanned: a zero value or weight adds 0, not ``0 * inf``'s nan, and any
    other nan term (exp's ``expm1(inf) - inf``, a complex product past the
    floats) reads +inf."""
    terms = values * weights
    total = terms.sum()
    if not np.isfinite(total):
        terms[(values == 0) | (weights == 0)] = 0.0
        terms[np.isnan(terms)] = np.inf
        total = terms.sum()
    return total


# ----------------------------------------------------------------------
# Luxemburg gauge and the bicomplex norm
# ----------------------------------------------------------------------


_EPS = float(np.finfo(float).eps)
# exp and entropy solves that need more steps than this are reported
_SOLVE_STEPS = 100
# the check's sum read up to 12 eps above the solve's level: t is aimed inside by this / alpha
_AIM = 16 * _EPS
# a gauge that rounding leaves just outside the level set is stepped up
# (see _certified); the level is checked at most this many times
_CERTIFY_TRIES = 8
# solver iterates stay within t = e^-709 .. e^709, where exp(s) is finite
_LOG_T_RANGE = 709.0


def luxemburg_norm(
    phi: OrliczFunction,
    f,
    space: AtomicMeasureSpace,
    *,
    tol: float = 1e-12,
    offset: int = 0,
) -> float:
    """Luxemburg gauge ``inf { lam > 0 : I_phi(f / lam) <= 1 }``.

    With ``offset = n`` it is the gauge of the tail ``f 1_{>n}``, and all
    below runs over the atoms past ``n``.  ``|f|`` and a scale ``sup`` are
    read once: the largest modulus over the atoms an exact sum reads
    (``_exact_part``) or a rule's first ``_FIRST_CHUNK``, 1 if they vanish.
    The solve runs on ``level(t) = I_phi(t cut |f| / sup)``, whose root
    ``t*`` gives the gauge ``sup / (cut t*)``; ``cut`` is 1, or for a
    finitely supported ``f`` under ``exp`` or ``entropy`` the family's
    series cut (``OrliczFunction.series``), above every argument at
    ``t <= 1``.  For ``power:p`` the level is ``t^p level(1)``: the closed
    form ``sup * level(1)^(1/p)``, its root raised until its ``p``-th power
    reads ``level(1)``, not aimed.  Otherwise, and where that level reads
    +inf, a bracketed regula falsi in log scale (``_unit_scale``) pins the
    gauge to a relative ``tol`` and aims it inside.

    A finitely supported level is an exact sum: under ``exp`` or
    ``entropy`` at ``t <= 1``, the family's series over the moments of
    ``|f| / sup``, read once (``_finite_level``), so a root below the cut
    makes no pass over the atoms; else one ``_phi_sum`` over the arrays
    already read (on a lazy space cut at the window's end, as in
    ``modular``).  An index rule's level is one ``modular`` probe, read as
    ``_lazy_level`` says: a sum past the floats is an infinite level, from
    which the solve steps down, and a probe that does not settle raises.

    ``_certified`` checks the result, and steps ``lam`` up by one convexity
    step and a few ulps while rounding leaves ``I_phi(f / lam)`` above 1:
    for a finitely supported ``f``, an exact sum of phi over the moduli
    already read; for an index rule, a probe's estimate, partial sum plus
    extrapolated tail, not a proof.  Under ``power:p`` with the closed form
    that estimate is the level probe's own, scaled: ``level(1)
    (sup / lam)^p``, so the rule is marched once.  The returned gauge
    thus satisfies ``I_phi(f / lam) <= 1`` in floats and lies within ``tol``
    (or the solve's float floor, where that is wider; see ``_unit_scale``),
    plus the aim and the few ulps of that step, above the infimum (phi is
    evaluated to a few ulps; exp takes a Taylor series at small arguments).

    The gauge is 0 where the moduli read vanish, and for a rule, where
    every value that its level's march at ``t = 1`` read is 0 (see
    ``_lazy_level``); a level of 0 that read a nonzero value lost every term
    to underflow, and raises UnsupportedInstanceError, as ``_exact_part``
    does for an array.  So do a gauge outside the float
    range, an entry whose modulus overflows (``|z|`` of a finite ``z`` can),
    a solve's scale past the floats (``_lazy_level``), a finitely supported
    level that overflows next to the root and a level that overflows at the
    gauge.
    """
    if not (isinstance(tol, (int, float)) and 0 < tol < 1):
        raise InvalidInputError(f"tol must be in (0, 1), got {tol!r}")
    offset = _tail_start(offset, space)
    raw = _as_raw_component(f)
    part = _exact_part((raw,), space, offset)
    if part is None:
        mags = np.abs(component_head(raw, min(space.size, offset + _FIRST_CHUNK), offset + 1))
    else:
        (values,), weights = part
        if not values.size:
            return 0.0  # an array that ends before the offset: no head is built
        # |f| indexed from atom 1, 0 on the head the offset skips: the
        # certificate's modular reads it in place of f; the head is no longer
        # than f, since the offset passes f's end only where values is empty
        moduli = np.zeros(offset + values.size)
        mags = np.abs(values, out=moduli[offset:])
    sup = float(mags.max(initial=0.0))
    if sup == math.inf:
        atom = offset + int(np.argmax(np.isinf(mags))) + 1
        raise UnsupportedInstanceError(
            f"|f_{atom}| is beyond the float range (its parts are finite), "
            "so the gauge is not computed"
        )
    if part is None:
        del mags  # not held through the solve, nor by a refusal's traceback
        cut = 1.0
        at_one, level = _lazy_level(phi, raw, space, offset, sup or 1.0)
        if at_one == 0.0:
            return 0.0  # every value the march read vanishes
    elif sup == 0.0:
        return 0.0  # f vanishes past the offset
    else:
        cut, level = _finite_level(phi, mags / sup, weights)
        raw = moduli  # what the certificate reads (see _certified)
        at_one = level(1.0)
    sup = sup or 1.0

    def read(lam: float) -> ModularValue:  # I_phi(f 1_{>offset} / lam) for _certified
        return modular(phi, raw, space, scale=1.0 / lam, offset=offset)

    if phi.family == "power" and at_one < math.inf:
        root = at_one ** (1.0 / phi.p)
        # 1/p rounds for p = 1.5, 3, ..., which leaves the root ulps low, the
        # more as |log at_one| grows: a Newton step, and at least an ulp, up to 4 times
        for _ in range(4):
            power = _power(root, phi.p)
            if power >= at_one:
                break
            root = max(math.nextafter(root, math.inf), root * (1 + (1 - power / at_one) / phi.p))
        lam = sup * root
        if part is None:  # the level probe's estimate, scaled: no second march
            def read(lam: float) -> ModularValue:
                return ModularValue(at_one * _power(sup / lam, phi.p), "converged", 0)
    else:
        # the level's log-log slope is at least phi's least elasticity
        alpha = classify_phi(phi).alpha
        lam = sup / (cut * _unit_scale(level, at_one, alpha, tol, exact=part is not None))
    del level  # the solve's arrays are not held through the certificate
    return _certified(phi, lam, read)


def _power(x: float, p: float) -> float:
    """``x ** p``, +inf past the floats."""
    try:
        return x**p
    except OverflowError:
        return math.inf


def _finite_level(phi: OrliczFunction, mags: np.ndarray, weights: np.ndarray):
    """``(cut, level)`` with ``level(t) = I_phi(t cut |f| / sup)`` over the
    moduli ``mags = |f| / sup`` of a finitely supported ``f``.

    ``cut`` is 1 for ``power``, and for ``exp`` and ``entropy`` the family's
    series cut (``OrliczFunction.series``), below which every argument lies
    at ``t <= 1``.  There, if the level at the cut can reach 1, it is the
    series summed over the moments: ``sum_k a_k (t cut)^k M_k`` with
    ``M_k = sum u_n^k w_n`` read once (``_moment_terms``), O(K) per value.
    Otherwise a value is one exact sum (``_phi_sum``).
    """
    series = phi.series()
    cut, terms = 1.0, None
    if series is not None:
        cut, terms = series[0], _moment_terms(mags, weights, *series)

    def level(t: float) -> float:
        if terms is None or t > 1.0:
            return _phi_sum(phi, mags, weights, t * cut).value
        x, inner = t * cut, 0.0
        for a in terms:
            inner = inner * x + a
        return x * (x * inner)

    return cut, level


def _moment_terms(mags: np.ndarray, weights: np.ndarray, cut: float, coeffs) -> list | None:
    """``a_k M_k`` in the coefficients' Horner order, or None where the level
    at the cut stays below 1 or a moment is not finite (a weight of +inf,
    past atom 1024 on ``geometric:2.0``, makes ``M_2`` inf or nan).

    ``u_n <= 1`` gives ``M_k <= M_2``, so the level at the cut is at most
    ``M_2 sum_k |a_k| cut^k``, and ``M_2`` alone decides whether the
    others are read; a finite ``M_2`` makes them finite.  One array of
    powers is held, updated in place.  The sums are einsum's: at 10^5
    atoms the BLAS dot runs threaded, and each in-place product after it
    took about four times as long.
    """
    powers = mags * mags
    m2 = float(np.einsum("i,i->", powers, weights))
    bound = 0.0
    for a in coeffs:
        bound = bound * cut + abs(a)
    if not (math.isfinite(m2) and m2 * bound * cut * cut >= 1.0):
        return None
    moments = [m2]
    for _ in coeffs[1:]:
        powers *= mags
        moments.append(float(np.einsum("i,i->", powers, weights)))
    return [a * m for a, m in zip(coeffs, reversed(moments))]


def _lazy_level(phi: OrliczFunction, raw, space, offset: int, sup: float):
    """``(level(1), level)`` for ``level: t -> I_phi(t f 1_{>offset} / sup)``,
    one probe per value.

    A probe ``inconclusive`` at +inf (its sum passed the floats, so the level
    is above 1) reads as +inf, and so does a ``diverged`` probe at a scale
    above one that converged (``exp`` is not Delta2, so a modular finite at
    small scales may diverge at large ones); neither is evidence against
    membership, and the solver steps down from it.  Any other unsettled probe raises.
    A scale ``t / sup`` past the floats is refused: +inf there certifies a far upper bound.
    So is a level of 0 at ``t = 1`` whose march read a nonzero value of the
    rule (``ModularValue.nonzero``): every term underflowed, and the gauge
    is not 0.
    """
    converged_at, mv = math.inf, None

    def level(t: float) -> float:
        nonlocal converged_at, mv
        scale = t / sup
        if scale == math.inf:
            raise UnsupportedInstanceError(
                f"the {phi.spec_string()} gauge solve's scale {t!r} / {sup!r} passes the floats"
            )
        mv = modular(phi, raw, space, scale=scale, offset=offset)
        if mv.value == math.inf and (mv.status == "inconclusive" or t > converged_at):
            return math.inf
        _require_settled(mv, phi)
        converged_at = min(converged_at, t)
        return mv.value

    at_one = level(1.0)
    if at_one == 0.0 and mv.nonzero:
        raise UnsupportedInstanceError(
            f"every term of the {phi.spec_string()} level of a nonzero sequence "
            f"reads 0.0 in floats on {space.rule}, so the gauge is not computed"
        )
    return at_one, level


def _require_settled(mv: ModularValue, phi: OrliczFunction) -> None:
    """Raise unless the probe of the ``phi`` modular converged (or was exact).

    A ``diverged`` probe raises NotInSpaceError; an ``inconclusive`` one
    raises UnsupportedInstanceError.
    """
    if mv.status == "diverged":
        raise NotInSpaceError(
            f"the {phi.spec_string()} modular diverges (probe over {mv.n_terms} atoms); "
            "the sequence is outside the space"
        )
    if mv.status == "inconclusive":
        raise UnsupportedInstanceError(
            f"the probe of the {phi.spec_string()} modular is inconclusive after {mv.n_terms} "
            "atoms, so no gauge can be certified; raise n_max"
        )


def _unit_scale(
    level: Callable[[float], float], g: float, k: float, tol: float, exact: bool
) -> float:
    """The largest ``t`` seen to satisfy ``level(t) <= 1``, within ``tol`` of the root.

    ``level`` is convex and increasing with ``level(0) = 0``, and ``g`` is
    ``level(1)``.  By convexity one value brackets the root: ``level(t) = g``
    puts it between ``t * min(1, 1/g)`` and ``t * max(1, 1/g)``, and the
    lower end satisfies the level condition.  The iterates move in
    ``s = log t`` on ``L(s) = log level(e^s)``, whose slope is at least the
    family's least elasticity ``k``.  Until the root is bracketed the step
    is ``-L / k``, which lands on the far side; then it is regula falsi
    that, when one end is kept twice, scales that end's value down
    (Anderson & Bjorck, 1973), so neither end stalls.  A level that
    underflows to 0 or overflows has no finite logarithm; the next point is
    then the bracket's midpoint in ``s``, or 32 past the one end known.

    An ``exact`` level (a finitely supported sum) is finite in exact
    arithmetic, so its +inf is float overflow, and a bracket closed against
    one raises UnsupportedInstanceError; a probe's +inf is a level above 1.
    The ``t`` returned is aimed inside by ``_AIM / k``, which lowers the
    level by ``_AIM`` at least: the certificate's sum rounds otherwise.
    """
    s = 0.0
    ends: dict[int, list[float]] = {}  # -1 below the root, +1 above: [s, L]
    last = 0
    best, upper, overflow = 0.0, math.inf, math.inf
    for _ in range(_SOLVE_STEPS):
        t = math.exp(s)
        if 0.0 < g < math.inf:
            best = max(best, t * min(1.0, 1.0 / g))
            upper = min(upper, t * max(1.0, 1.0 / g))
            L = math.log(g)
        elif g == 0.0:
            best, L = max(best, t), -math.inf
        else:
            upper, overflow, L = min(upper, t), min(overflow, t), math.inf
        # below this width the floats, not the level, limit the bracket: one
        # ulp of s moves t = e^s by at most eps |s| relative, and exp rounds
        # to about eps more, so t resolves steps of eps (1 + |s|); four of
        # them, at most 4 eps (1 + 709) = 6.3e-13 over all of
        # |s| <= _LOG_T_RANGE, stay below tol = 1e-12
        if best >= (1.0 - max(tol, 4 * _EPS * (1.0 + abs(s)))) * upper:
            if exact and upper == overflow:
                raise UnsupportedInstanceError(
                    "the level I_phi(f/lam) overflows floats next to its root, "
                    "so the gauge is not computed"
                )
            return best * (1.0 - _AIM / k)
        side = 1 if L > 0 else -1
        if side == last and -side in ends:
            m = 1.0 - L / ends[side][1]
            ends[-side][1] *= m if 0.0 < m < 1.0 else 0.5
        ends[side], last = [s, L], side
        if len(ends) < 2:
            s = s - L / k if math.isfinite(L) else s - 32.0 * side
        else:
            (s0, l0), (s1, l1) = ends[-1], ends[1]
            if math.isinf(l0) or math.isinf(l1):
                s = 0.5 * (s0 + s1)
            else:
                s = s0 - l0 * (s1 - s0) / (l1 - l0)
        s = min(max(s, -_LOG_T_RANGE), _LOG_T_RANGE)
        g = level(math.exp(s))
    raise UnsupportedInstanceError(
        f"the gauge solve did not reach relative width {tol:g} in {_SOLVE_STEPS} steps"
    )


def _certified(phi, lam: float, read: Callable[[float], ModularValue]) -> float:
    """``lam`` once ``read(lam)``, the level ``I_phi(f 1_{>offset} / lam)``, is at most 1.

    The solve aims ``lam`` inside, and a power root is raised to read the
    level, so a step up is rare.  Each try reads (see ``luxemburg_norm``) one
    ``modular`` call, or a lazy power level's probe estimate, scaled, which
    reads no atom again and proves nothing.  For a finitely supported ``f``
    the call sums over the float moduli ``|f|`` the gauge read, indexed from
    atom 1 (0 on the head ``offset`` skips).  Their modular is ``f``'s bit
    for bit: the modulus of a nonnegative float is itself, and ``|x + 0j|``
    is ``|x|``.  A level that reads +inf overflowed floats, and no step up
    can certify it: that raises at once.
    """
    for _ in range(_CERTIFY_TRIES):
        if not (0.0 < lam < math.inf and 1.0 / lam < math.inf):
            raise UnsupportedInstanceError(
                f"the {phi.spec_string()} gauge {lam!r} has no finite reciprocal in floats"
            )
        mv = read(lam)
        if mv.value == math.inf and mv.status != "diverged":
            raise UnsupportedInstanceError(
                f"I_phi(f/lam) overflows floats at the solved {phi.spec_string()} gauge "
                f"{lam!r}, so it is not certified"
            )
        _require_settled(mv, phi)
        if mv.value <= 1.0:
            return lam
        # convexity gives I(f / (c lam)) <= I(f / lam) / c for c >= 1, so
        # c = I(f / lam) would do in exact arithmetic; rounding needs a few
        # ulps more
        lam *= mv.value * (1.0 + 4.0 * _EPS)
    raise UnsupportedInstanceError(
        f"I_phi(f/lam) stayed above 1 for {_CERTIFY_TRIES} steps up from the solved "
        f"{phi.spec_string()} gauge"
    )


def norm_bc(
    phi: OrliczFunction,
    F: BCSequence,
    space: AtomicMeasureSpace,
    *,
    tol: float = 1e-12,
) -> float:
    """Bicomplex Orlicz norm: ``(1/sqrt(2)) * sqrt(n1^2 + n2^2)`` of the
    component Luxemburg gauges."""
    n1 = luxemburg_norm(phi, F.comp1, space, tol=tol)
    n2 = luxemburg_norm(phi, F.comp2, space, tol=tol)
    return pair_norm(n1, n2)


# ----------------------------------------------------------------------
# Schauder tails
# ----------------------------------------------------------------------


def schauder_tail(
    F: BCSequence,
    n: int,
    p: float,
    space: AtomicMeasureSpace,
) -> float:
    """``power:p`` norm of the tail ``F 1_{>n}`` beyond index ``n``.

    Each component is the ``power:p`` gauge with ``offset = n``, certified
    by ``I(tail / lam) <= 1``; at ``n = 0`` this is ``norm_bc`` bit for bit.
    On a lazy space an index rule's tail is probed once, over the dyadic
    blocks of the atom index from atom ``n + 1`` on (see ``_march``), so it
    settles about as early as the whole series, and a window that holds
    few blocks past ``n`` reads inconclusive rather than divergent.  Its
    certificate is that probe's estimate, scaled to ``lam``: not a proof.
    The basis-expansion remainder after the first ``n`` coordinate
    sections is exactly this tail, so it decreasing to 0 is the
    quantitative basis statement for the power family.
    """
    phi = OrliczFunction.power(p)
    t1 = luxemburg_norm(phi, F.comp1, space, offset=n)
    t2 = luxemburg_norm(phi, F.comp2, space, offset=n)
    return pair_norm(t1, t2)


# ----------------------------------------------------------------------
# duality pairing
# ----------------------------------------------------------------------


def pairing(
    x: BCSequence,
    y: BCSequence,
    space: AtomicMeasureSpace,
) -> BiComplex:
    """Bilinear pairing ``sum x_n y_n a_n`` taken componentwise.

    A component with an array is zero past the shorter array and is
    summed exactly (see ``_exact_part``); on a lazy space that sum stops at
    the window's end, and the entries past it are left out.  Two index
    rules on a lazy space run the modular's probe, which judges
    ``|x_n y_n a_n|`` and extrapolates the complex partial sums beside it.  Certified divergence
    raises NotSummableError, a probe that cannot settle within the window
    returns the partial value with a RuntimeWarning, and a sum past the
    floats (of the terms, or of their moduli in a probe) raises
    UnsupportedInstanceError.  The pairing multiplies and sums as complex,
    a real rule's values too: numpy sums a complex array in another order
    than the same reals, and the last bit can differ.
    """
    weight_at = _weight_reader(space)

    def summed(which: int) -> complex:
        raws = (x.component(which), y.component(which))
        part = _exact_part(raws, space)
        if part is not None:
            values, weights = part
            xs, ys = (v.astype(complex, copy=False) for v in values)
            with np.errstate(over="ignore", invalid="ignore"):
                return complex(_exact_sum(xs * ys, weights))

        def term_chunk(idx):
            xs, ys = (component_block(r, idx) for r in raws)
            return (xs * ys).astype(complex, copy=False), weight_at(idx), (xs, ys)

        mv = _march(term_chunk, space.size)
        if mv.status == "diverged":
            raise NotSummableError(
                f"pairing component {which} diverges (probe over {mv.n_terms} atoms)"
            )
        if mv.status == "inconclusive" and mv.value != math.inf:
            warnings.warn(
                f"pairing component {which} probe inconclusive after {mv.n_terms} atoms; "
                "returning the partial sum",
                RuntimeWarning,
                stacklevel=3,
            )
        return mv.value

    return _ring_result("pairing", summed(1), summed(2))
