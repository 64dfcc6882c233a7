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
supports.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bicomplex import BiComplex, HyperbolicValue
from .errors import (
    InvalidInputError,
    NotInSpaceError,
    NotSummableError,
    UnsupportedInstanceError,
)
from .measure import AtomicMeasureSpace

__all__ = [
    "OrliczFunction",
    "NFunctionProbe",
    "Delta2Probe",
    "PhiReport",
    "classify_phi",
    "default_grid",
    "BCSequence",
    "component_block",
    "component_array",
    "ModularValue",
    "modular",
    "weighted_phi_sum",
    "modular_bc",
    "luxemburg_norm",
    "combine_gauges",
    "norm_bc",
    "schauder_tail",
    "pairing",
]

_SQRT2 = math.sqrt(2.0)

# lazy-sum probe parameters: a partial sum past this is declared divergent,
# and a terms-decay comparison fires when n * t_n stays above the floor
# without decaying between the early and late halves of the window
_DIVERGENCE_GUARD = 1e12
# a block adding less than this relative to the running total counts
# towards the three-block convergence rule
_SETTLE_REL = 1e-12
_TAIL_BURN_IN = 100
_TAIL_FLOOR = 1e-8
_TAIL_DECAY_RATIO = 0.95
# exp(u) - u - 1 = u^2 (1/2! + u/3! + ... + u^8/10!) to rounding for u below
# this; above it expm1(u) - u is within 20 eps
_EXP_SERIES_BELOW = 0.1
_EXP_SERIES = tuple(1.0 / math.factorial(k) for k in range(10, 1, -1))


# ----------------------------------------------------------------------
# Young functions
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class OrliczFunction:
    """Young function from a small named family.

    Families: ``power`` is ``u**p`` with ``p >= 1``; ``exp`` is
    ``exp(u) - u - 1``; ``entropy`` is ``u * log(1 + u)``.
    """

    family: str
    p: float | None = None

    @classmethod
    def power(cls, p: float) -> "OrliczFunction":
        if not (isinstance(p, (int, float)) and math.isfinite(p) and p >= 1):
            raise InvalidInputError(f"power exponent must be finite and >= 1, got {p!r}")
        return cls("power", float(p))

    @classmethod
    def exp_type(cls) -> "OrliczFunction":
        return cls("exp")

    @classmethod
    def entropy(cls) -> "OrliczFunction":
        return cls("entropy")

    @classmethod
    def parse(cls, spec: str) -> "OrliczFunction":
        """Parse ``'power:p=<value>'``, ``'exp'`` or ``'entropy'``."""
        if isinstance(spec, OrliczFunction):
            return spec
        if not isinstance(spec, str):
            raise InvalidInputError(f"phi spec must be a string, got {spec!r}")
        if spec == "exp":
            return cls.exp_type()
        if spec == "entropy":
            return cls.entropy()
        if spec.startswith("power:p="):
            try:
                return cls.power(float(spec[len("power:p="):]))
            except ValueError:
                pass
        raise InvalidInputError(
            f"unknown phi spec {spec!r} (expected 'power:p=<value>', 'exp' or 'entropy')"
        )

    def spec_string(self) -> str:
        if self.family == "power":
            return f"power:p={self.p:g}"
        return self.family

    def eval_array(self, u) -> np.ndarray:
        """Vectorized phi over nonnegative arguments; overflow becomes +inf."""
        u = np.asarray(u, dtype=float)
        if u.size and (np.any(np.isnan(u)) or np.any(u < 0)):
            raise InvalidInputError("phi arguments must be real and >= 0")
        # expm1(inf) - inf is nan; every family tends to +inf
        return np.where(np.isinf(u), np.inf, self._values(u))

    def _values(self, u: np.ndarray) -> np.ndarray:
        """phi at finite arguments >= 0, unchecked; overflow becomes +inf."""
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            if self.family == "power":
                return u**self.p
            if self.family == "exp":
                # expm1(u) - u keeps relative error up to eps / u, so small
                # arguments take the Taylor series (Horner, in place)
                out = np.full_like(u, _EXP_SERIES[0])
                for c in _EXP_SERIES[1:]:
                    out *= u
                    out += c
                out *= u
                out *= u
                large = u >= _EXP_SERIES_BELOW
                if large.any():
                    np.copyto(out, np.expm1(u) - u, where=large)
                return out
            if self.family == "entropy":
                return u * np.log1p(u)
        raise InvalidInputError(f"unknown phi family {self.family!r}")

    def __call__(self, u: float) -> float:
        return float(self.eval_array(np.array([u]))[0])


def default_grid() -> np.ndarray:
    """Log-spaced probe grid used by the phi classifier."""
    return np.geomspace(1e-8, 1e8, 100)


@dataclass(frozen=True)
class NFunctionProbe:
    limit0_ok: bool
    limit_inf_ok: bool
    continuous_ok: bool
    vanishes_only_at_0: bool


@dataclass(frozen=True)
class Delta2Probe:
    k_estimate: float
    holds_on_grid: bool


@dataclass(frozen=True)
class PhiReport:
    phi: OrliczFunction
    convexity_ok: bool
    n_function: NFunctionProbe
    delta2: Delta2Probe
    # sampled evidence, not a proof; the label says so explicitly
    label: str = "sampled probe, not a proof"


def classify_phi(phi: OrliczFunction, grid: np.ndarray | None = None) -> PhiReport:
    """Probe N-function properties and the doubling condition on a grid.

    All verdicts are sampled: convexity via midpoint checks on adjacent
    grid pairs, the limits phi(u)/u -> 0 and -> inf at the grid edges,
    continuity via small relative steps, and the doubling constant as
    ``max phi(2u) / phi(u)`` over the grid (infinite when doubling
    escapes the floating range, which is how exp-type growth fails).
    """
    grid = default_grid() if grid is None else np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2 or np.any(grid <= 0):
        raise InvalidInputError("grid must be a 1-d array of positive points")
    grid = np.sort(grid)
    vals = phi.eval_array(grid)

    mids = phi.eval_array(0.5 * (grid[:-1] + grid[1:]))
    rhs = 0.5 * (vals[:-1] + vals[1:])
    with np.errstate(invalid="ignore"):
        convex_ok = bool(
            np.all(np.isinf(rhs) | (mids <= rhs * (1 + 1e-9) + 1e-12))
        )

    low = slice(0, 3)
    high = slice(-3, None)
    limit0_ok = bool(np.all(vals[low] / grid[low] < 1e-3))
    limit_inf_ok = bool(np.all(vals[high] / grid[high] > 1e3))

    finite = np.isfinite(vals)
    probe_pts = grid[finite][::7]
    if probe_pts.size:
        jumps = np.abs(phi.eval_array(probe_pts * (1 + 1e-9)) - phi.eval_array(probe_pts))
        continuous_ok = bool(np.all(jumps <= 1e-6 * (phi.eval_array(probe_pts) + 1e-300)))
    else:
        continuous_ok = False
    vanishes_only_at_0 = phi(0.0) == 0.0 and bool(np.all(vals > 0))

    with np.errstate(invalid="ignore", divide="ignore"):
        doubled = phi.eval_array(2.0 * grid)
        ratios = doubled / vals
    # inf/inf is nan: both sides escaped the float range, count it against
    # the doubling bound rather than silently dropping the point
    ratios = np.where(np.isnan(ratios), np.inf, ratios)
    k_estimate = float(ratios.max())
    delta2 = Delta2Probe(k_estimate, bool(math.isfinite(k_estimate)))

    probe = NFunctionProbe(limit0_ok, limit_inf_ok, continuous_ok, vanishes_only_at_0)
    return PhiReport(phi, convex_ok, probe, delta2)


# ----------------------------------------------------------------------
# bicomplex sequences
# ----------------------------------------------------------------------


def component_block(raw, idx: np.ndarray) -> np.ndarray:
    """Values of one component at 1-based indices ``idx``.

    Arrays are zero-extended past their length (finitely supported
    elements of a lazy space); callables are vectorized index rules, and
    one must return an array of ``idx``'s shape.
    """
    idx = np.asarray(idx)
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


def component_array(raw, space: AtomicMeasureSpace) -> np.ndarray:
    """One component as a dense array over a finite space (strict length)."""
    if callable(raw):
        idx = np.arange(1, space.size + 1, dtype=np.int64)
        out = component_block(raw, idx)
        _check_rule_values(out, idx)
        return out
    if space.is_lazy:
        raise InvalidInputError("dense component arrays need a finite space")
    if raw.size != space.size:
        raise InvalidInputError(
            f"sequence has {raw.size} entries but the space has {space.size} atoms"
        )
    return raw


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


def _support(raw) -> int:
    """An array's length (it is zero beyond); 0 for an index rule."""
    return 0 if callable(raw) else raw.size


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
    zero-extended and rules are evaluated on demand.
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


# overflow and 0 * inf are read by _weighted and the guard, not warned about
@np.errstate(over="ignore", invalid="ignore")
def _march(term_block, n_total: int, block: int, support: int = 0) -> ModularValue:
    """Accumulate nonnegative term blocks with the convergence probe.

    ``term_block(idx)`` gives the terms at the 1-based atoms ``idx`` and
    their sum (see ``_weighted``).  Convergence: three consecutive blocks
    each adding less than ``_SETTLE_REL`` relative to the running total.
    A finitely supported component (``support > 0`` atoms, zero beyond)
    converges exactly once its support is summed, and not before.
    Divergence: the total passes the guard, or n * t_n stays above a floor
    without decaying from the early to the late half of the window (a
    sampled comparison with the harmonic series).
    """
    if block < 1:
        raise InvalidInputError(f"block size must be >= 1, got {block!r}")
    # small windows could not fit the three-block rule at full block size,
    # so shrink blocks until at least eight fit
    block = min(block, max(1, n_total // 8))
    total = 0.0
    consec = 0
    half = n_total // 2
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
        if not total <= _DIVERGENCE_GUARD:  # also catches nan/inf
            return ModularValue(math.inf, "diverged", done, guard=True)
        mask = idx >= _TAIL_BURN_IN
        if mask.any():
            m = float((idx[mask] * terms[mask]).min())
            if stop <= half:
                min_early = min(min_early, m)
            else:
                min_late = min(min_late, m)
        rel = 0.0 if add == 0.0 else (add / total if total > 0 else math.inf)
        consec = consec + 1 if rel < _SETTLE_REL else 0
        settled = done >= support if support else consec >= 3
        if settled:
            return ModularValue(total, "converged", done)
        start = stop + 1
    if (
        math.isfinite(min_early)
        and math.isfinite(min_late)
        and min_late >= _TAIL_FLOOR
        and min_late >= _TAIL_DECAY_RATIO * min_early
    ):
        return ModularValue(math.inf, "diverged", done)
    return ModularValue(total, "inconclusive", done)


def _weighted(values: np.ndarray, weights: np.ndarray, idx: np.ndarray, *read: np.ndarray):
    """``values * weights`` on one block of atoms ``idx``, and its sum.

    ``values`` are computed from the component values ``read`` there.
    Only a sum that is not finite has the block scanned: a read value that
    is nan or inf (arrays are checked when built, so it came from an index
    rule) is refused, and a zero value on a weight that overflowed to inf
    (a geometric ratio above 1) adds 0, not nan.  Terms that overflow
    stay inf for the divergence guard.
    """
    terms = values * weights
    total = terms.sum()
    if not cmath.isfinite(total):
        for comp in read:
            _check_rule_values(comp, idx)
        terms[values == 0] = 0.0
        total = terms.sum()
    return terms, total


def _phi_terms(phi: OrliczFunction, raw, weight_at, scale: float = 1.0, offset: int = 0):
    """Term block ``phi(scale |f_n|) w_n`` over the atoms ``n = idx + offset``.

    ``weight_at`` maps atoms to their weights.  This is the term block of
    every lazy modular, weighted sum and coordinate tail.
    """

    def term_block(idx):
        at = idx + offset if offset else idx
        vals = component_block(raw, at)
        return _weighted(phi._values(scale * np.abs(vals)), weight_at(at), at, vals)

    return term_block


def modular(
    phi: OrliczFunction,
    f,
    space: AtomicMeasureSpace,
    *,
    scale: float = 1.0,
    block: int = 1000,
) -> ModularValue:
    """Modular ``I_phi(scale * f) = sum phi(scale * |f_n|) a_n``.

    ``f`` is one complex component (array or index rule).  Finite spaces
    sum exactly; lazy spaces run the block probe.
    """
    if isinstance(f, BCSequence):
        raise InvalidInputError("pass one component here, or use modular_bc")
    if not (isinstance(scale, (int, float)) and scale >= 0 and math.isfinite(scale)):
        raise InvalidInputError(f"scale must be finite and >= 0, got {scale!r}")
    raw = _as_raw_component(f)
    if not space.is_lazy:
        return _phi_sum(phi, component_array(raw, space), space.weights, scale)
    terms = _phi_terms(phi, raw, space.weight_block, scale)
    return _march(terms, space.size, block, _support(raw))


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
    example pushforward mass ratios), not just atom weights.  With
    ``lazy=True`` the sum runs through the convergence probe instead of
    being declared exact.
    """
    weights = np.asarray(weights, dtype=float)
    raw = _as_raw_component(f)
    if lazy:
        terms = _phi_terms(phi, raw, lambda idx: weights[idx - 1], scale)
        return _march(terms, weights.size, block, _support(raw))
    if callable(raw) or raw.size != weights.size:
        idx = np.arange(1, weights.size + 1, dtype=np.int64)
        raw = component_block(raw, idx)
        _check_rule_values(raw, idx)
    return _phi_sum(phi, raw, weights, scale)


def _phi_sum(phi: OrliczFunction, values: np.ndarray, weights: np.ndarray, scale: float):
    """Exact ``sum phi(scale |f_n|) w_n`` over finite ``values``.

    Only a sum that is not finite has its terms scanned: an overflowed
    argument reads phi = +inf (exp's ``expm1(inf) - inf`` is nan), and a
    zero weight, or a zero phi on a weight of +inf, adds 0.
    """
    u = scale * np.abs(values)
    phis = phi._values(u)
    total = (phis * weights).sum()
    if not math.isfinite(total):
        phis[np.isinf(u)] = np.inf
        terms = phis * weights
        terms[(phis == 0) | (weights == 0)] = 0.0
        total = terms.sum()
    return ModularValue(float(total), "exact", weights.size)


def modular_bc(
    phi: OrliczFunction,
    F: BCSequence,
    space: AtomicMeasureSpace,
    *,
    scale: float = 1.0,
    block: int = 1000,
) -> HyperbolicValue:
    """Componentwise modular of a bicomplex sequence, as a hyperbolic pair."""
    mv1 = modular(phi, F.comp1, space, scale=scale, block=block)
    mv2 = modular(phi, F.comp2, space, scale=scale, block=block)
    return HyperbolicValue(mv1.value, mv2.value)


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
# least elasticity u phi'(u) / phi(u) of each family, so that the level's
# log-log slope is at least this
_MIN_ELASTICITY = {"exp": 2.0, "entropy": 1.0}
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
) -> float:
    """Luxemburg gauge ``inf { lam > 0 : I_phi(f / lam) <= 1 }``.

    ``|f|`` and its sup are read once (rules over a bounded prefix), and
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
    raises UnsupportedInstanceError.
    """
    if not (isinstance(tol, (int, float)) and 0 < tol < 1):
        raise InvalidInputError(f"tol must be in (0, 1), got {tol!r}")
    raw = _as_raw_component(f)
    if space.is_lazy:
        sup, level = _lazy_level(phi, raw, space, block)
    else:
        sup, level = _finite_level(phi, component_array(raw, space), space.weights)
    if not math.isfinite(sup):
        raise InvalidInputError("sequence entries must be finite")
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
        # a power level is exactly t^p level(1), so its elasticity is p
        k = phi.p if phi.family == "power" else _MIN_ELASTICITY[phi.family]
        lam = sup / _unit_scale(level, at_one, k, tol)
    return _certified(phi, raw, space, lam, block)


def _finite_level(phi: OrliczFunction, values: np.ndarray, weights: np.ndarray):
    """``sup |f|`` and ``t -> sum phi(t |f_n| / sup) a_n`` on a finite space.

    Null atoms add nothing to the modular, so they are dropped first; a
    component that vanishes keeps the scale 1.
    """
    mags = np.abs(values)
    keep = weights > 0
    if not keep.all():
        mags, weights = mags[keep], weights[keep]
    sup = float(mags.max(initial=0.0)) or 1.0
    unit = mags / sup

    def level(t: float) -> float:
        return float((phi._values(t * unit) * weights).sum())

    return sup, level


def _lazy_level(phi: OrliczFunction, raw, space: AtomicMeasureSpace, block: int):
    """``sup |f|`` and ``t -> I_phi(t f / sup)`` as one probe per value.

    Rules are scanned over a bounded prefix for the sup, and a component
    that vanishes there keeps the scale 1.  A level past the divergence
    guard reads as +inf, and so does a ``diverged`` probe at a scale above
    one that converged (``exp`` is not Delta2, so a modular finite at small
    scales may diverge at large ones); neither is evidence against
    membership, and the solver steps down from it.
    """
    head = raw
    if callable(raw):
        idx = np.arange(1, min(space.size, _SUP_PREFIX) + 1, dtype=np.int64)
        head = component_block(raw, idx)
        _check_rule_values(head, idx)
    sup = float(np.abs(head).max(initial=0.0)) or 1.0
    converged_at = math.inf

    def level(t: float) -> float:
        nonlocal converged_at
        mv = modular(phi, raw, space, scale=t / sup, block=block)
        if mv.status == "diverged" and (mv.guard or t > converged_at):
            return math.inf
        _require_settled(mv, f"the {phi.spec_string()} modular", "no gauge can be certified")
        converged_at = min(converged_at, t)
        return mv.value

    return sup, level


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


def _certified(phi, raw, space, lam: float, block: int) -> float:
    """``lam`` once one ``modular`` call shows ``I_phi(f / lam) <= 1``."""
    for _ in range(_CERTIFY_TRIES):
        if not (0.0 < lam < math.inf and 1.0 / lam < math.inf):
            raise UnsupportedInstanceError(
                f"the {phi.spec_string()} gauge {lam!r} has no finite reciprocal in floats"
            )
        mv = modular(phi, raw, space, scale=1.0 / lam, block=block)
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


def combine_gauges(n1: float, n2: float) -> float:
    """The bicomplex norm ``(1/sqrt(2)) * sqrt(n1^2 + n2^2)`` of two gauges.

    Where ``hypot`` alone overflows, the gauges are scaled first.
    """
    norm = math.hypot(n1, n2) / _SQRT2
    if math.isinf(norm):
        norm = math.hypot(n1 / _SQRT2, n2 / _SQRT2)
    return norm


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
    return combine_gauges(n1, n2)


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
    """Weighted l^p norm of the tail beyond index ``n``.

    The basis-expansion remainder after the first ``n`` coordinate
    sections is exactly this tail, so it decreasing to 0 is the
    quantitative basis statement for the power family.
    """
    if not (isinstance(n, int) and n >= 0):
        raise InvalidInputError(f"n must be an integer >= 0, got {n!r}")
    phi = OrliczFunction.power(p)

    def tail_psum(raw) -> float:
        remaining = space.size - n
        if remaining <= 0:
            return 0.0
        if not space.is_lazy:
            tail = component_array(raw, space)[n:]
            return _phi_sum(phi, tail, space.weights[n:], 1.0).value
        terms = _phi_terms(phi, raw, space.weight_block, offset=n)
        mv = _march(terms, remaining, block, max(_support(raw) - n, 0))
        _require_settled(mv, f"the tail p-sum beyond index {n}", "no tail can be certified")
        return mv.value

    t1 = tail_psum(F.comp1) ** (1.0 / p)
    t2 = tail_psum(F.comp2) ** (1.0 / p)
    return math.hypot(t1, t2) / _SQRT2


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
    returns the partial value with a RuntimeWarning.
    """

    def summed(which: int) -> complex:
        xr, yr = x.component(which), y.component(which)
        if not space.is_lazy:
            terms = component_array(xr, space) * component_array(yr, space) * space.weights
            return complex(np.sum(terms))
        signed = 0j

        def term_block(idx):
            nonlocal signed
            xs, ys = component_block(xr, idx), component_block(yr, idx)
            terms, block_sum = _weighted(xs * ys, space.weight_block(idx), idx, xs, ys)
            signed += complex(block_sum)
            mags = np.abs(terms)
            return mags, mags.sum()

        support = min((r.size for r in (xr, yr) if not callable(r)), default=0)
        mv = _march(term_block, space.size, block, support)
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
        return signed

    return BiComplex(summed(1), summed(2))
