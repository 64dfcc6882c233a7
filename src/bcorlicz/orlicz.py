"""Orlicz machinery for bicomplex sequences on atomic measure spaces.

The scalar core is the modular ``I_phi(f) = sum phi(|f_n|) a_n`` and the
Luxemburg gauge ``inf { lam > 0 : I_phi(f / lam) <= 1 }``.  A bicomplex
sequence splits into two complex component sequences along the
idempotents, the modular becomes a hyperbolic (componentwise) value, and
the norm recombines the component gauges as
``(1/sqrt(2)) * sqrt(n1^2 + n2^2)``.

On lazy (rule-defined) spaces every sum is a *probe*: it marches blocks
of atoms and reports ``converged`` / ``diverged`` / ``inconclusive``
alongside the partial value, never pretending to more than the budget
supports.  The Young functions live in ``young`` and are re-exported
here.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bicomplex import BiComplex, pair_norm
from .errors import (
    InvalidInputError,
    NotInSpaceError,
    NotSummableError,
    UnsupportedInstanceError,
)
from .measure import AtomicMeasureSpace
from .young import OrliczFunction, PhiReport, classify_phi

__all__ = [
    "OrliczFunction",
    "PhiReport",
    "classify_phi",
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

# lazy-sum probe parameters: a partial sum past this is declared divergent,
# and a terms-decay comparison fires when n * t_n stays above the floor
# without decaying from the window's second quarter to its late half
_DIVERGENCE_GUARD = 1e12
# a block adding less than this relative to the running total counts
# towards the three-block convergence rule
_SETTLE_REL = 1e-12
_TAIL_BURN_IN = 100
_TAIL_FLOOR = 1e-8
_TAIL_DECAY_RATIO = 0.95
# the probe evaluates runs of blocks in chunks of at most this many atoms:
# past it the chunk's temporaries fall out of cache and an atom costs more
_CHUNK_ATOMS = 2**14


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


def component_head(raw, n: int) -> np.ndarray:
    """A component's values at atoms ``1..n``: an array of exactly ``n``
    entries as it is (no copy), any other zero-extended or cut, and a
    rule's values read like ``component_block`` and checked finite."""
    if not callable(raw) and raw.size == n:
        return raw
    idx = np.arange(1, n + 1, dtype=np.int64)
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


def _support(raw, offset: int = 0) -> int | None:
    """The atoms past ``offset`` an array covers (zero beyond); None for a rule."""
    return None if callable(raw) else max(raw.size - offset, 0)


def _as_raw_component(f):
    if callable(f):
        return f
    arr = np.asarray(f, dtype=complex)
    if arr.ndim != 1:
        raise InvalidInputError("a sequence component must be 1-d")
    if arr.size and not np.all(np.isfinite(arr)):
        raise InvalidInputError("sequence entries must be finite")
    return arr


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
        f1 = _as_raw_component(f1)
        f2 = _as_raw_component(f2)
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

    def scaled(self, factor) -> "BCSequence":
        factor = complex(factor)

        def _scale(raw):
            if callable(raw):
                return lambda idx, _r=raw: factor * np.asarray(_r(idx), dtype=complex)
            return factor * raw

        return BCSequence(_scale(self.comp1), _scale(self.comp2))

    def to_json_list(self) -> list:
        return [v.to_json_dict() for v in self.values()]


# ----------------------------------------------------------------------
# modulars
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ModularValue:
    """Value of a nonnegative sum plus how it was certified.

    ``status`` is ``exact`` (finite space), ``converged`` (lazy probe
    settled), ``diverged`` (guard or comparison probe fired; value is
    +inf), or ``inconclusive`` (budget exhausted; value is the partial
    sum, a lower bound).  ``n_terms`` is how many atoms were consumed.
    ``guard`` marks a ``diverged`` verdict of the divergence guard: the
    partial sum passed ``_DIVERGENCE_GUARD`` (or overflowed), which shows
    a large sum at this scale rather than a divergent series.
    """

    value: float
    status: str
    n_terms: int
    guard: bool = False


# overflow and 0 * inf are read block by block in _march, not warned about
@np.errstate(over="ignore", invalid="ignore")
def _march(term_chunk, n_total: int, block: int, support: int | None) -> ModularValue:
    """Sum a series over blocks of atoms with the convergence probe.

    ``term_chunk(idx)`` gives, at the 1-based window positions ``idx``,
    the ``values`` and ``weights`` whose products are the terms, the atoms
    that ``idx`` stands for and the component values ``read`` there.
    ``weights`` is None on ``counting``, and no array of ones is built:
    the values are the terms.  For a modular's real terms this is exact,
    since ``x * 1.0`` is ``x`` bit for bit, and for the same reason a
    modular at scale 1 takes ``|f_n|`` unscaled (see ``_moduli``).  For
    the pairing's complex terms, numpy's multiply by ``1 + 0j`` could
    differ only in the sign of a zero part and in the imaginary part of an
    infinite term (``inf + 0j`` becomes ``inf + nanj``); neither reaches
    the result, since an infinite term goes to the divergence guard and
    the sum starts at +0.0.  The terms are nonnegative for a modular and
    complex for the pairing: every rule reads their moduli, and the
    returned value is their sum.

    Convergence: three consecutive blocks, once the total is above 0, each
    adding less than ``_SETTLE_REL`` relative to it; a window that sums to
    0 throughout converges to 0 at its end.  A finitely supported
    component (``support`` atoms, zero beyond; None for an index rule)
    converges exactly once its support is summed, and not before.
    Divergence: the total passes the guard, or n * t_n stays above a floor
    without decaying from the early to the late half of the window (a
    sampled comparison with the harmonic series).  The early floor is read
    over the blocks that end in ``(n_total // 4, n_total // 2]`` only: a
    series whose n * t_n still rises near the window's start would get a
    floor far below its late values there, and a convergent series could
    read ``diverged``.  A zero term in those blocks leaves the rule without
    a floor; a zero term before them no longer does.

    ``block`` is the unit of these rules, not of evaluation.  The terms of
    a run of blocks are computed in one chunk: the first chunk is one
    block, each next one doubles, up to ``_CHUNK_ATOMS`` atoms.  A chunk
    never splits a block, never passes ``n_total`` or the block that ends
    the support, and, once blocks count towards the three-block rule,
    holds no more blocks than the rule still needs, so that a probe that
    settles early evaluates few blocks past its end.  The chunk's
    per-block sums are its rows' sums
    (``terms.reshape(k, block).sum(axis=1)``), which numpy reduces row by
    row exactly as it sums a block alone, so every block adds the same
    bits as if it had been evaluated by itself.  The rules then walk the
    blocks in order, and a chunk's blocks past the one that stops the
    march are never read.  Only a block whose sum is not finite is
    scanned, when the walk reaches it: a read value that is nan or inf
    (arrays are checked when built, so it came from an index rule) is
    refused, and a zero value on a weight that overflowed to inf (a
    geometric ratio above 1) adds 0, not nan.  Terms that overflow stay
    inf for the divergence guard.
    """
    if block < 1:
        raise InvalidInputError(f"block size must be >= 1, got {block!r}")
    # small windows could not fit the three-block rule at full block size,
    # so shrink blocks until at least eight fit
    block = min(block, max(1, n_total // 8))
    total = 0.0
    value = 0.0
    consec = 0
    quarter, half = n_total // 4, n_total // 2
    min_early = math.inf
    min_late = math.inf
    start = 1
    done = 0
    run = 1
    while start <= n_total:
        want = min(run, max(1, _CHUNK_ATOMS // block))
        if support is not None:
            want = min(want, -(-(support - start + 1) // block))
        elif consec:
            want = min(want, 3 - consec)
        k = min(want, (n_total - start + 1) // block) or 1
        idx = np.arange(start, min(start + k * block, n_total + 1), dtype=np.int64)
        values, weights, atoms, read = term_chunk(idx)
        terms = values if weights is None else values * weights
        sums, adds, mins = _block_stats(idx, terms, k, quarter)
        size = idx.size // k
        for j in range(k):
            if not math.isfinite(adds[j]):
                lo, hi = j * size, (j + 1) * size
                for comp in read:
                    _check_rule_values(comp[lo:hi], atoms[lo:hi])
                fixed = terms[lo:hi]
                fixed[values[lo:hi] == 0] = 0.0
                (sums[j],), (adds[j],), (mins[j],) = _block_stats(idx[lo:hi], fixed, 1, quarter)
            total += adds[j]
            value += sums[j]
            done = start + (j + 1) * size - 1
            if not total <= _DIVERGENCE_GUARD:  # also catches nan/inf
                return ModularValue(math.inf, "diverged", done, guard=True)
            if done > half:
                min_late = min(min_late, mins[j])
            elif done > quarter:
                min_early = min(min_early, mins[j])
            consec = consec + 1 if 0.0 < total and adds[j] < _SETTLE_REL * total else 0
            settled = consec >= 3 if support is None else done >= support
            if settled:
                return ModularValue(value, "converged", done)
        start = done + 1
        run *= 2
    if (
        0.0 < min_early < math.inf
        and math.isfinite(min_late)
        and min_late >= _TAIL_FLOOR
        and min_late >= _TAIL_DECAY_RATIO * min_early
    ):
        return ModularValue(math.inf, "diverged", done)
    return ModularValue(value, "converged" if total == 0.0 else "inconclusive", done)


def _block_stats(idx: np.ndarray, terms: np.ndarray, k: int, quarter: int):
    """Per-block lists over ``k`` equal blocks of a chunk: the terms' sums,
    their moduli's sums, and the least ``n |t_n|`` over ``n >= _TAIL_BURN_IN``
    (+inf in a block wholly below it).  The march reads that least value only
    in a block that ends past ``quarter``, so it is +inf, uncomputed, in the
    leading blocks that end at or before it."""
    mags = np.abs(terms) if np.iscomplexobj(terms) else terms
    sums = terms.reshape(k, -1).sum(axis=1).tolist()
    mag_sums = mags.reshape(k, -1).sum(axis=1).tolist() if mags is not terms else sums
    size = idx.size // k
    skip = min(max(quarter - int(idx[0]) + 1, 0) // size, k)
    mins = [math.inf] * skip
    if skip < k:
        lo = skip * size
        probe = idx[lo:] * mags[lo:]
        if idx[lo] < _TAIL_BURN_IN:
            probe[: _TAIL_BURN_IN - idx[lo]] = np.inf
        mins += probe.reshape(k - skip, -1).min(axis=1).tolist()
    return sums, mag_sums, mins


def _phi_terms(phi: OrliczFunction, raw, weight_at, scale: float = 1.0, offset: int = 0):
    """Terms ``phi(scale |f_n|) w_n`` over the atoms ``n = idx + offset``.

    ``weight_at`` maps atoms to their weights, or to None for unit weights
    (see ``_weight_reader``).  A rule's real values are read as float64
    and any others as complex (see ``component_block``); the moduli have
    the same bits either way.  This is the term chunk of every lazy
    modular and weighted sum (see ``_march``); a modular's ``offset``
    makes it the chunk of the tail past that atom.
    """

    def term_chunk(idx):
        at = idx + offset if offset else idx
        vals = component_block(raw, at)
        return phi._values(_moduli(vals, scale)), weight_at(at), at, (vals,)

    return term_chunk


def _weight_reader(space: AtomicMeasureSpace):
    """``space.weight_block``, or on ``counting`` a reader that gives None:
    the march leaves unit weights out (see ``_march``)."""
    return (lambda atoms: None) if space.rule == "counting" else space.weight_block


def _moduli(values: np.ndarray, scale: float) -> np.ndarray:
    """``scale * |values|`` as a new array; at ``scale == 1`` the multiply is
    skipped (``1.0 * x`` is ``x``), at any other scale, 0 too, it is kept
    (``0 * inf`` is nan)."""
    u = np.abs(values)
    if scale != 1.0:
        u *= scale
    return u


def modular(
    phi: OrliczFunction,
    f,
    space: AtomicMeasureSpace,
    *,
    scale: float = 1.0,
    block: int = 1000,
    offset: int = 0,
) -> ModularValue:
    """Modular ``I_phi(scale * f 1_{>offset}) = sum_{n > offset} phi(scale |f_n|) a_n``.

    ``f`` is one complex component (array or index rule); ``offset = n``
    leaves out atoms ``1..n``, so it gives the modular of the tail past
    ``n``.  Finite spaces sum exactly; lazy spaces run the block probe.
    """
    if isinstance(f, BCSequence):
        raise InvalidInputError("pass one component here, not a BCSequence")
    if not (isinstance(scale, (int, float)) and scale >= 0 and math.isfinite(scale)):
        raise InvalidInputError(f"scale must be finite and >= 0, got {scale!r}")
    offset = _tail_start(offset, space)
    raw = _as_raw_component(f)
    if not space.is_lazy:
        return _phi_sum(phi, component_array(raw, space)[offset:], space.weights[offset:], scale)
    terms = _phi_terms(phi, raw, _weight_reader(space), scale, offset)
    return _march(terms, space.size - offset, block, _support(raw, offset))


def _tail_start(offset, space: AtomicMeasureSpace) -> int:
    """``offset`` checked to be an integer >= 0, and cut at the space's size."""
    if not (isinstance(offset, int) and offset >= 0):
        raise InvalidInputError(f"the tail offset must be an integer >= 0, got {offset!r}")
    return min(offset, space.size)


def weighted_phi_sum(
    phi: OrliczFunction,
    f,
    weights: np.ndarray,
    *,
    scale: float = 1.0,
    lazy: bool = False,
    block: int = 1000,
) -> ModularValue:
    """``sum phi(scale * |f_n|) * weights[n-1]`` over ``n = 1..len(weights)``.

    The weight vector may be any nonnegative certificate vector (for
    example distortion ratios), not just atom weights.  With
    ``lazy=True`` the sum runs through the convergence probe instead of
    being declared exact.
    """
    weights = np.asarray(weights, dtype=float)
    raw = _as_raw_component(f)
    if lazy:
        terms = _phi_terms(phi, raw, lambda idx: weights[idx - 1], scale)
        return _march(terms, weights.size, block, _support(raw))
    return _phi_sum(phi, component_head(raw, weights.size), weights, scale)


def _phi_sum(phi: OrliczFunction, values: np.ndarray, weights: np.ndarray, scale: float):
    """Exact ``sum phi(scale |f_n|) w_n`` over finite ``values``.

    Only a sum that is not finite has its terms scanned: an overflowed
    argument reads phi = +inf (exp's ``expm1(inf) - inf`` is nan), and a
    zero weight, or a zero phi on a weight of +inf, adds 0.
    """
    u = _moduli(values, scale)
    phis = phi._values(u)
    total = (phis * weights).sum()
    if not math.isfinite(total):
        phis[np.isinf(u)] = np.inf
        terms = phis * weights
        terms[(phis == 0) | (weights == 0)] = 0.0
        total = terms.sum()
    return ModularValue(float(total), "exact", weights.size)


# ----------------------------------------------------------------------
# Luxemburg gauge and the bicomplex norm
# ----------------------------------------------------------------------


# rules are scanned over this many leading atoms for the normalising sup
_SUP_PREFIX = 10**4
# exp and entropy solves that need more steps than this are reported
_SOLVE_STEPS = 100
# a gauge that rounding leaves just outside the level set is stepped up
# (see _certified); the level is checked at most this many times
_CERTIFY_TRIES = 8
# solver iterates stay within t = e^-700 .. e^700, where exp(s) is finite
_LOG_T_RANGE = 700.0
_EPS = float(np.finfo(float).eps)


def luxemburg_norm(
    phi: OrliczFunction,
    f,
    space: AtomicMeasureSpace,
    *,
    tol: float = 1e-12,
    block: int = 1000,
    offset: int = 0,
) -> float:
    """Luxemburg gauge ``inf { lam > 0 : I_phi(f / lam) <= 1 }``.

    With ``offset = n`` it is the gauge of the tail ``f 1_{>n}``, and all
    below runs over the atoms past ``n``.  ``|f|`` and its sup (1 if ``f``
    vanishes) are read once (rules over a bounded prefix), and
    the solve runs on the normalised level ``level(t) = I_phi(t |f| / sup)``,
    whose root ``t*`` gives the gauge ``sup / t*``, so nothing in it can
    overflow.  For ``power:p`` the level is ``t^p level(1)``, and one
    evaluation gives the closed form ``sup * level(1)^(1/p)``, that is
    ``(sum |f_n|^p a_n)^(1/p)``.  For ``exp`` and ``entropy``, and for a
    power level past the divergence guard at ``t = 1``, a bracketed regula
    falsi in log scale (``_unit_scale``) stops once the gauge is pinned to
    a relative ``tol``.

    On a finite space a level evaluation is one weighted sum over the
    arrays already read.  On a lazy space it is one ``modular`` probe: a
    probe past the divergence guard reads as an infinite level, from which
    the solve steps down; a ``diverged`` verdict of the comparison probe
    raises NotInSpaceError and an ``inconclusive`` one raises
    UnsupportedInstanceError.  The result is checked with one ``modular``
    call at ``scale = 1/lam``; if rounding left that level above 1, ``lam``
    is stepped up by one convexity step and a few ulps.  The returned gauge
    thus satisfies ``I_phi(f / lam) <= 1`` and lies within ``tol``, plus
    the few ulps of that step, above the infimum (phi is evaluated to a
    few ulps; exp takes a Taylor series at small arguments).  A level of 0
    at the normalised scale means ``f`` vanishes (on a lazy space: on the
    probed window), and the gauge is 0.  A gauge outside the float range
    raises UnsupportedInstanceError, and so does an entry whose modulus
    overflows (``|z|`` of a finite ``z`` can).
    """
    if not (isinstance(tol, (int, float)) and 0 < tol < 1):
        raise InvalidInputError(f"tol must be in (0, 1), got {tol!r}")
    offset = _tail_start(offset, space)
    raw = _as_raw_component(f)
    mags = np.abs(_sup_window(raw, space, offset))
    sup = float(mags.max(initial=0.0)) or 1.0
    if sup == math.inf:
        atom = offset + int(np.argmax(np.isinf(mags))) + 1
        raise UnsupportedInstanceError(
            f"|f_{atom}| is beyond the float range (its parts are finite), "
            "so the gauge is not computed"
        )
    if space.is_lazy:
        del mags  # not held through the solve, nor by a refusal's traceback
        level = _lazy_level(phi, raw, space, block, offset, sup)
    else:
        mags /= sup  # in place: no second array of the moduli is held
        weights = space.weights[offset:]

        def level(t: float) -> float:
            return float((phi._values(t * mags) * weights).sum())

    at_one = level(1.0)
    if at_one == 0.0:
        return 0.0
    if phi.family == "power" and at_one < math.inf:
        root = at_one ** (1.0 / phi.p)
        # 1/p rounds down for p = 3, 1.5, ..., which biases the root low
        if root**phi.p < at_one:
            root = math.nextafter(root, math.inf)
        lam = sup * root
    else:
        # the level's log-log slope is at least phi's least elasticity
        lam = sup / _unit_scale(level, at_one, classify_phi(phi).alpha, tol)
    return _certified(phi, raw, space, lam, block, offset)


def _sup_window(raw, space: AtomicMeasureSpace, offset: int) -> np.ndarray:
    """The values past ``offset`` a gauge takes its sup over; a rule's next ``_SUP_PREFIX``."""
    if not space.is_lazy:
        return component_array(raw, space)[offset:]
    if not callable(raw):
        return raw[offset:]
    idx = np.arange(offset + 1, min(space.size, offset + _SUP_PREFIX) + 1, dtype=np.int64)
    head = component_block(raw, idx)
    _check_rule_values(head, idx)
    return head


def _lazy_level(phi: OrliczFunction, raw, space, block: int, offset: int, sup: float):
    """``t -> I_phi(t f 1_{>offset} / sup)`` as one probe per value.

    A level past the divergence guard reads as +inf, and so does a
    ``diverged`` probe at a scale above one that converged (``exp`` is not
    Delta2, so a modular finite at small scales may diverge at large ones);
    neither is evidence against membership, and the solver steps down from it.
    """
    converged_at = math.inf

    def level(t: float) -> float:
        nonlocal converged_at
        mv = modular(phi, raw, space, scale=t / sup, block=block, offset=offset)
        if mv.status == "diverged" and (mv.guard or t > converged_at):
            return math.inf
        _require_settled(mv, f"the {phi.spec_string()} modular", "no gauge can be certified")
        converged_at = min(converged_at, t)
        return mv.value

    return level


def _require_settled(mv: ModularValue, what: str, unsettled: str) -> None:
    """Raise unless the probe of ``what`` converged (or was exact).

    A ``diverged`` probe raises NotInSpaceError; an ``inconclusive`` one
    raises UnsupportedInstanceError, saying that ``unsettled``.
    """
    if mv.status == "diverged":
        raise NotInSpaceError(
            f"{what} diverges (probe over {mv.n_terms} atoms); "
            "the sequence is outside the space"
        )
    if mv.status == "inconclusive":
        raise UnsupportedInstanceError(
            f"the probe of {what} is inconclusive after {mv.n_terms} atoms, "
            f"so {unsettled}; raise n_max"
        )


def _unit_scale(level: Callable[[float], float], g: float, k: float, tol: float) -> float:
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
    """
    s = 0.0
    ends: dict[int, list[float]] = {}  # -1 below the root, +1 above: [s, L]
    last = 0
    best, upper = 0.0, math.inf
    for _ in range(_SOLVE_STEPS):
        t = math.exp(s)
        if 0.0 < g < math.inf:
            best = max(best, t * min(1.0, 1.0 / g))
            upper = min(upper, t * max(1.0, 1.0 / g))
            L = math.log(g)
        elif g == 0.0:
            best, L = max(best, t), -math.inf
        else:
            upper, L = min(upper, t), math.inf
        # below this width the spacing of s, not the level, limits the bracket
        if best >= (1.0 - max(tol, 16 * _EPS * (1.0 + abs(s)))) * upper:
            return best
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


def _certified(phi, raw, space, lam: float, block: int, offset: int) -> float:
    """``lam`` once one ``modular`` call shows ``I_phi(f 1_{>offset} / lam) <= 1``."""
    for _ in range(_CERTIFY_TRIES):
        if not (0.0 < lam < math.inf and 1.0 / lam < math.inf):
            raise UnsupportedInstanceError(
                f"the {phi.spec_string()} gauge {lam!r} has no finite reciprocal in floats"
            )
        mv = modular(phi, raw, space, scale=1.0 / lam, block=block, offset=offset)
        _require_settled(mv, f"the {phi.spec_string()} modular", "no gauge can be certified")
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
    block: int = 1000,
) -> float:
    """Bicomplex Orlicz norm: ``(1/sqrt(2)) * sqrt(n1^2 + n2^2)`` of the
    component Luxemburg gauges."""
    n1 = luxemburg_norm(phi, F.comp1, space, tol=tol, block=block)
    n2 = luxemburg_norm(phi, F.comp2, space, tol=tol, block=block)
    return pair_norm(n1, n2)


# ----------------------------------------------------------------------
# Schauder tails
# ----------------------------------------------------------------------


def schauder_tail(
    F: BCSequence,
    n: int,
    p: float,
    space: AtomicMeasureSpace,
    *,
    block: int = 1000,
) -> float:
    """``power:p`` norm of the tail ``F 1_{>n}`` beyond index ``n``.

    Each component is the ``power:p`` gauge with ``offset = n``, certified
    by ``I(tail / lam) <= 1``; at ``n = 0`` this is ``norm_bc`` bit for bit.
    The basis-expansion remainder after the first ``n`` coordinate
    sections is exactly this tail, so it decreasing to 0 is the
    quantitative basis statement for the power family.
    """
    phi = OrliczFunction.power(p)
    t1 = luxemburg_norm(phi, F.comp1, space, block=block, offset=n)
    t2 = luxemburg_norm(phi, F.comp2, space, block=block, offset=n)
    return pair_norm(t1, t2)


# ----------------------------------------------------------------------
# duality pairing
# ----------------------------------------------------------------------


def pairing(
    x: BCSequence,
    y: BCSequence,
    space: AtomicMeasureSpace,
    *,
    block: int = 1000,
) -> BiComplex:
    """Bilinear pairing ``sum x_n y_n a_n`` taken componentwise.

    On lazy spaces each complex sum runs on the modular's probe over its
    absolute series ``|x_n y_n a_n|``, the complex sum carried beside it.
    Past the shorter of two arrays the product is zero, so an array
    component bounds the probe as in ``modular``.  Certified divergence
    raises NotSummableError, and a probe that cannot settle within budget
    returns the partial value with a RuntimeWarning.  A real rule's values
    are summed as complex: numpy sums a complex array in another order than
    the same reals, and the last bit can differ.  Two real blocks are
    multiplied as reals into the real part of a zeroed complex array: the
    real part of ``(x + 0j)(y + 0j)`` is ``x * y``, and its imaginary
    ``+-0`` cannot reach the sum, which starts at +0.0, while an
    overflowed product goes to the divergence guard.
    """
    weight_at = _weight_reader(space)

    def summed(which: int) -> complex:
        xr, yr = x.component(which), y.component(which)
        if not space.is_lazy:
            xs, ys = (component_array(r, space).astype(complex, copy=False) for r in (xr, yr))
            return complex(np.sum(xs * ys * space.weights))

        def term_chunk(idx):
            xs, ys = (component_block(r, idx) for r in (xr, yr))
            if xs.dtype == ys.dtype == np.float64:
                products = np.zeros(idx.shape, dtype=complex)
                np.multiply(xs, ys, out=products.real)
            else:
                products = xs.astype(complex, copy=False) * ys.astype(complex, copy=False)
            return products, weight_at(idx), idx, (xs, ys)

        support = min((r.size for r in (xr, yr) if not callable(r)), default=None)
        mv = _march(term_chunk, space.size, block, support)
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
                stacklevel=3,
            )
        return mv.value

    return BiComplex(summed(1), summed(2))
