"""Operators on bicomplex sequence spaces and their boundedness checks.

Every operator here acts componentwise along the idempotents, so each
one decomposes into a pair of complex operators; ``decompose`` returns
that pair as two callables, and ``apply_operator`` applies them.

Boundedness checks return verdict reports with explicit certificates
(sup of pushforward mass ratios for composition, essential sups for
multiplication) and never claim more than the scanned window supports:
lazy-space evidence is labeled truncated and growing trends downgrade the
verdict.  A sample sequence's gauge scales are evidence about it, not a
certificate for the operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bicomplex import is_json_number, json_kind
from .errors import MAX_TRIALS, InvalidInputError, NotInvertibleError, UnsupportedInstanceError
from .measure import (
    AtomicMeasureSpace,
    IndexMap,
    distortion_ratios,
    map_images,
    scan_window,
    window_chunks,
)
from .orlicz import (
    BCSequence,
    _as_sequence_component,
    component_array,
    component_block,
    component_head,
    norm_bc,
    weighted_phi_sum,
)
from .young import OrliczFunction, PhiReport, classify_phi

__all__ = [
    "BCMatrix",
    "BCOperator",
    "BoundednessReport",
    "apply_operator",
    "decompose",
    "invert_operator",
    "check_composition_bounded",
    "check_multiplication_bounded",
    "empirical_ratios",
    "empirical_operator_norm",
]

# a component whose reciprocal condition number is at most this is singular
_RCOND_FLOOR = 1e-12
# on a lazy space the empirical probe draws sequences of at most this length
_TRIAL_SUPPORT = 50


@dataclass(frozen=True, eq=False)
class BCMatrix:
    """Pair of equal-shape complex matrices acting on the two components."""

    m1: np.ndarray
    m2: np.ndarray

    def __post_init__(self):
        for name in ("m1", "m2"):
            m = np.asarray(getattr(self, name), dtype=complex)
            if m.ndim != 2 or m.size == 0:
                raise InvalidInputError(f"{name} must be a nonempty 2-d matrix")
            if not np.all(np.isfinite(m)):
                raise InvalidInputError(f"{name} must have finite entries")
            object.__setattr__(self, name, m)
        if self.m1.shape != self.m2.shape:
            raise InvalidInputError(
                f"component matrices differ in shape: {self.m1.shape} vs {self.m2.shape}"
            )

    def to_json_dict(self) -> dict:
        def rows(m):
            return [[[v.real, v.imag] for v in row] for row in m]

        return {"m1": rows(self.m1), "m2": rows(self.m2)}

    @classmethod
    def from_json_dict(cls, obj) -> "BCMatrix":
        if not isinstance(obj, dict) or "m1" not in obj or "m2" not in obj:
            raise InvalidInputError("dense operator needs 'm1' and 'm2' matrices")
        return cls(_parse_matrix(obj["m1"], "m1"), _parse_matrix(obj["m2"], "m2"))


def _parse_matrix(rows, name: str) -> np.ndarray:
    if not isinstance(rows, list) or not rows:
        raise InvalidInputError(f"{name} must be a nonempty array of rows")
    out = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != len(rows[0]):
            raise InvalidInputError(f"{name} row {i} is not an array as long as row 0")
        vals = []
        for j, entry in enumerate(row):
            if is_json_number(entry):
                vals.append(complex(entry))
            elif isinstance(entry, list) and len(entry) == 2 and all(map(is_json_number, entry)):
                vals.append(complex(entry[0], entry[1]))
            else:
                raise InvalidInputError(
                    f"{name}[{i}][{j}] must be a number or a [re, im] pair, got {entry!r}"
                )
        out.append(vals)
    return np.asarray(out, dtype=complex)


@dataclass(frozen=True, eq=False)
class BCOperator:
    """Composition, multiplication, or dense matrix pair."""

    kind: str
    imap: IndexMap | None = None
    theta: BCSequence | None = None
    matrix: BCMatrix | None = None

    @classmethod
    def composition(cls, imap: IndexMap) -> "BCOperator":
        return cls("composition", imap=imap)

    @classmethod
    def multiplication(cls, theta: BCSequence) -> "BCOperator":
        return cls("multiplication", theta=theta)

    @classmethod
    def right_shift(cls) -> "BCOperator":
        return cls.composition(IndexMap.right_shift())

    @classmethod
    def dense(cls, matrix: BCMatrix) -> "BCOperator":
        return cls("dense", matrix=matrix)

    def to_json_dict(self) -> dict:
        if self.kind == "composition":
            return {"composition": self.imap.to_json_dict()}
        if self.kind == "multiplication":
            return {"multiplication": {"theta": self.theta.to_json_list()}}
        return {"dense": self.matrix.to_json_dict()}

    @classmethod
    def from_json_dict(cls, obj) -> "BCOperator":
        kind = json_kind(obj, ("composition", "multiplication", "right_shift", "dense"), "operator")
        payload = obj[kind]
        if kind == "composition":
            return cls.composition(IndexMap.from_json_dict(payload))
        if kind == "multiplication":
            if not isinstance(payload, dict) or "theta" not in payload:
                raise InvalidInputError("multiplication operator needs a 'theta' list")
            return cls.multiplication(BCSequence.from_json_list(payload["theta"]))
        if kind == "right_shift":
            if payload != {}:
                raise InvalidInputError(f"right_shift operator takes {{}}, got {payload!r}")
            return cls.right_shift()
        return cls.dense(BCMatrix.from_json_dict(payload))


# ----------------------------------------------------------------------
# application
# ----------------------------------------------------------------------


def _operand(raw, space: AtomicMeasureSpace):
    """An operand as an action reads it: as it is on a lazy space, and on a
    finite one through ``component_array`` (its length checked, a rule's
    values checked finite)."""
    return raw if space.is_lazy else component_array(raw, space)


def _compose_component(imap: IndexMap, raw, space: AtomicMeasureSpace):
    """(C_T f)_n = f_{T(n)}; indices with no image contribute 0.  An array
    where the image is finitely supported: on a finite space, and for the
    right shift of an array, one atom longer; a rule otherwise."""

    def rule(idx):
        images = map_images(space, imap, np.asarray(idx, dtype=np.int64))
        out = np.zeros(images.shape, dtype=complex)
        valid = images >= 1
        out[valid] = component_block(raw, images[valid])
        return out

    if not space.is_lazy:
        return rule(np.arange(1, space.size + 1))
    if imap.kind == "right_shift" and not callable(raw):
        return rule(np.arange(1, raw.size + 2))
    return rule


def _multiply_component(theta_raw, raw, space: AtomicMeasureSpace):
    """(M_theta f)_n = theta_n f_n as complex, whatever dtype a rule's values
    read as; an array as long as the longer factor where both are arrays,
    and a rule otherwise."""
    theta = _operand(theta_raw, space)

    def rule(idx):
        idx = np.asarray(idx, dtype=np.int64)
        return np.multiply(component_block(theta, idx), component_block(raw, idx), dtype=complex)

    if callable(theta) or callable(raw):
        return rule
    return rule(np.arange(1, max(theta.size, raw.size) + 1))


def _dense_component(m: np.ndarray, raw, space: AtomicMeasureSpace):
    if space.is_lazy:
        raise InvalidInputError("dense operators act on finite spaces only")
    if m.shape != (space.size, space.size):
        raise InvalidInputError(
            f"dense operator must be {space.size}x{space.size} on this space, "
            f"got {m.shape[0]}x{m.shape[1]}"
        )
    return m @ raw


def decompose(op: BCOperator):
    """The two complex operators on the component spaces, as callables
    ``factor(f, space)`` that read the component ``f`` with a sequence's checks."""
    if op.kind == "composition":
        action, args = _compose_component, (op.imap, op.imap)
    elif op.kind == "multiplication":
        action, args = _multiply_component, (op.theta.comp1, op.theta.comp2)
    else:
        action, args = _dense_component, (op.matrix.m1, op.matrix.m2)

    def factor(arg):
        return lambda f, space: action(arg, _operand(_as_sequence_component(f), space), space)

    return factor(args[0]), factor(args[1])


def apply_operator(op: BCOperator, F: BCSequence, space: AtomicMeasureSpace) -> BCSequence:
    """Apply an operator componentwise along the idempotents.  An array
    image with an entry past the floats raises UnsupportedInstanceError
    naming the component and the first such atom."""
    c1, c2 = decompose(op)
    with np.errstate(over="ignore", invalid="ignore"):
        images = c1(F.comp1, space), c2(F.comp2, space)
    for which, image in enumerate(images, start=1):
        if not callable(image) and not np.isfinite(image).all():
            atom = int(np.argmin(np.isfinite(image))) + 1
            raise UnsupportedInstanceError(
                f"component {which} of the image passes the largest float at atom {atom}"
            )
    return BCSequence(*images)


# ----------------------------------------------------------------------
# inversion
# ----------------------------------------------------------------------


def invert_operator(matrix: BCMatrix) -> BCMatrix:
    """Componentwise matrix inverse.

    A component whose reciprocal condition number is at most
    ``_RCOND_FLOOR`` makes the whole operator a zero divisor; the error
    names it.
    """
    inverses = []
    singular = []
    for which, m in ((1, matrix.m1), (2, matrix.m2)):
        if m.shape[0] != m.shape[1]:
            raise InvalidInputError(
                f"component {which} matrix is {m.shape[0]}x{m.shape[1]}; "
                "inversion needs square matrices"
            )
        sv = np.linalg.svd(m, compute_uv=False)
        rcond = float(sv[-1] / sv[0]) if sv[0] > 0 else 0.0
        if not rcond > _RCOND_FLOOR:
            singular.append((which, rcond))
        else:
            inverses.append(np.linalg.inv(m))
    if singular:
        detail = "; ".join(
            f"component {w} is singular (rcond {r:.3e} <= {_RCOND_FLOOR:.3e})"
            for w, r in singular
        )
        raise NotInvertibleError(f"operator is not invertible: {detail}")
    return BCMatrix(inverses[0], inverses[1])


# ----------------------------------------------------------------------
# boundedness reports
# ----------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class BoundednessReport:
    """Verdict plus the certificates that back it.

    ``verdict`` is ``bounded``, ``unbounded``, or ``inconclusive``; a
    bounded verdict always carries a finite ``sup_distortion`` or finite
    ``ess_sups``, the certificates ``bound()`` reads.
    ``injective`` is judged for a composition on a finite space only, and
    is None otherwise.
    """

    kind: str
    verdict: str
    sup_distortion: float | None = None
    distortion_truncated: bool = False
    ess_sups: tuple[float, float] | None = None
    lambda_pairs: tuple = ()
    phi_facts: PhiReport | None = None
    injective: bool | None = None
    empirical_norm: float | None = None
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        if self.verdict == "bounded" and self.bound() is None:
            raise InvalidInputError("a bounded verdict requires at least one finite certificate")

    def bound(self) -> float | None:
        """The headline bound certificate; only a bounded verdict has one.

        A composition with ``b = sup b_n`` has ``||C_T|| <= max(1, b)`` for
        every Young function (Kumar, 1997); ``b`` alone bounds it only when
        ``b >= 1``.
        """
        if self.verdict != "bounded":
            return None
        if self.ess_sups is not None and all(math.isfinite(s) for s in self.ess_sups):
            return max(self.ess_sups)
        if self.sup_distortion is not None and math.isfinite(self.sup_distortion):
            return max(1.0, self.sup_distortion)
        return None

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "verdict": self.verdict,
            "bound": self.bound(),
            "sup_distortion": self.sup_distortion,
            "distortion_truncated": self.distortion_truncated,
            "ess_sups": list(self.ess_sups) if self.ess_sups is not None else None,
            "lambda_pairs": [list(p) for p in self.lambda_pairs],
            "delta2": (
                self.phi_facts.to_json_dict()["delta2"] if self.phi_facts is not None else None
            ),
            "injective": self.injective,
            "empirical_norm": self.empirical_norm,
            "notes": list(self.notes),
        }


def _grows(sup_q: float, sup_h: float, sup_f: float) -> bool:
    """Whether a sup climbs from the quarter to the half to the full window."""
    return sup_f > sup_h * (1 + 1e-9) and sup_h > sup_q * (1 + 1e-9)


def check_composition_bounded(
    space: AtomicMeasureSpace,
    imap: IndexMap,
    phi: OrliczFunction,
    samples: tuple[BCSequence, ...] = (),
    *,
    trials: int = 0,
    seed: int = 0,
    tol: float = 1e-12,
) -> BoundednessReport:
    """Certify boundedness of ``F -> F o T`` via the distortion ratios b_n.

    A finite sup of the ratios b_n bounds the operator, and a sup past the
    floats is inconclusive; on lazy spaces the sup is window evidence
    only.  The window is read once, by one ``distortion_ratios`` call: the
    same scan gives the sups of the space cut at a quarter and at half the
    window, and a sup still growing from the quarter to the half to
    the full window downgrades the verdict to inconclusive.  On a finite
    space the scan also gives the coverage, and ``injective`` records
    whether ``C_T`` is one-to-one, never used for the verdict: every atom
    carries mass, so ``F o T`` vanishes exactly when ``F`` vanishes on the
    range of ``T``, and ``C_T`` is injective exactly when every atom has a
    preimage.  On a lazy space ``injective`` is None: atoms past the
    window can map into it.  For each sample sequence the report
    records the largest gauge scales (grid 2^0 .. 2^-20, per component)
    whose ratio-weighted modular is finite, each sample read once before
    the scan (``component_array`` on a finite space, as ``norm`` reads it).
    """
    sample_parts = [[_operand(raw, space) for raw in (s.comp1, s.comp2)] for s in samples]
    dist = distortion_ratios(space, imap)
    notes = []
    window = dist.ratios.size
    if not math.isfinite(dist.sup):
        verdict = "inconclusive"
        first = int(np.argmax(~np.isfinite(dist.ratios))) + 1
        notes.append(f"distortion ratio at atom {first} overflows floats; no bound certified")
    elif not space.is_lazy:
        verdict = "bounded"
    else:
        # growth must be judged against the window's length, not position:
        # a map can concentrate all its mass ratios at low indices while
        # their sup still climbs as the space is cut at more atoms
        sup_q, sup_h = dist.sup_quarter, dist.sup_half
        if _grows(sup_q, sup_h, dist.sup):
            verdict = "inconclusive"
            notes.append(
                f"sup distortion grows with the scan budget (quarter {sup_q:.6g}, "
                f"half {sup_h:.6g}, full {dist.sup:.6g}); no bound certified at budget"
            )
        else:
            verdict = "bounded"
            notes.append(f"distortion scanned over a truncated window of {window} atoms")

    if dist.dropped:
        notes.append(
            f"{dist.dropped} atom(s) in the window have no image; their entries are "
            "dropped by the composition convention"
        )
    injective = None if space.is_lazy else dist.first_uncovered is None
    if space.is_lazy:
        notes.append("injectivity not judged: atoms past a lazy window can map into it")
    elif injective:
        notes.append("C_T is injective: every atom has a preimage and carries mass")
    else:
        notes.append(
            f"C_T is not injective: atom {dist.first_uncovered} has no preimage, "
            "so C_T F = 0 for F supported there"
        )

    lam_grid = 2.0 ** np.arange(0, -21, -1, dtype=float)
    lambda_pairs = []
    for k, parts in enumerate(sample_parts, start=1):
        pair = []
        for which, f in enumerate(parts, start=1):
            found = None
            for lam in lam_grid:
                mv = weighted_phi_sum(phi, f, dist.ratios, scale=float(lam))
                if mv.status in ("exact", "converged") and math.isfinite(mv.value):
                    found = float(lam)
                    break
            if found is None:
                notes.append(
                    f"no gauge scale down to 2^-20 certifies sample {k} "
                    f"component {which} under the ratio weights"
                )
            pair.append(found)
        lambda_pairs.append(tuple(pair))

    empirical = None
    if trials > 0:
        empirical = empirical_operator_norm(
            BCOperator.composition(imap), phi, space,
            trials=trials, seed=seed, tol=tol,
        )

    return BoundednessReport(
        kind="composition",
        verdict=verdict,
        sup_distortion=dist.sup,
        distortion_truncated=space.is_lazy,
        lambda_pairs=tuple(lambda_pairs),
        phi_facts=classify_phi(phi),
        injective=injective,
        empirical_norm=empirical,
        notes=tuple(notes),
    )


def check_multiplication_bounded(
    theta: BCSequence, space: AtomicMeasureSpace
) -> BoundednessReport:
    """Certify boundedness of pointwise multiplication by theta.

    The operator is bounded exactly when both component symbols are
    essentially bounded.  Under the pair norm ``sqrt((n1^2 + n2^2) / 2)``
    its norm is then ``max(sup|theta1|, sup|theta2|)``, which ``bound()``
    reports.  An array symbol is zero past its length, so its sup is exact
    on any space.  An index rule is read over the window of ``scan_window``
    (at most ``MAX_BUDGET`` atoms of a lazy space) like any component (a nan
    or inf value is an ``InvalidInputError`` naming its atom), one chunk of
    ``window_chunks`` at a time, and a sup still growing across it, read
    as the scan passes the quarter and half prefixes, yields an unbounded
    verdict with the growth trend recorded.  A component whose modulus
    passes the floats (its parts are finite) has an infinite sup and
    leaves the verdict inconclusive, with a note naming the component and
    the first such atom.
    """
    n, prefixes = scan_window(space)
    notes, sups = [], []
    for which in (1, 2):
        raw = theta.component(which)
        if not (callable(raw) or space.is_lazy):
            raw = component_array(raw, space)  # as long as the space, or refused
        sup, atom, at_prefixes = 0.0, None, []
        for lo, hi in window_chunks(n, prefixes, 1) if callable(raw) else [(1, raw.size)]:
            with np.errstate(over="ignore"):
                mags = np.abs(component_head(raw, hi, lo))
            sup = max(sup, float(mags.max(initial=0.0)))
            if atom is None and sup == math.inf:
                atom = lo + int(np.argmax(np.isinf(mags)))
            at_prefixes += [sup for m in prefixes if m == hi]
        sups.append(sup)
        if atom is not None:
            notes.append(
                f"component {which} modulus at atom {atom} overflows floats; no bound certified"
            )
        elif space.is_lazy and callable(raw):
            sup_q, sup_h = at_prefixes
            if _grows(sup_q, sup_h, sup):
                notes.append(
                    f"component {which} sup grows across the window (quarter {sup_q:.6g}, "
                    f"half {sup_h:.6g}, full {sup:.6g})"
                )
    truncated = space.is_lazy and theta.is_lazy
    if math.inf in sups:
        verdict = "inconclusive"
    elif notes:  # with every sup finite, only a growing sup leaves a note
        verdict = "unbounded"
        notes.append("an essentially unbounded symbol admits no multiplication bound")
    else:
        verdict = "bounded"
        if not space.is_lazy:
            notes.append("finite space: component sups are exact essential sups")
        elif truncated:
            notes.append(f"component sups scanned over a truncated window of {n} atoms")
        else:
            notes.append("array symbol: component sups are exact (it is zero past its length)")
    return BoundednessReport(
        kind="multiplication",
        verdict=verdict,
        ess_sups=(sups[0], sups[1]),
        distortion_truncated=truncated,
        notes=tuple(notes),
    )


# ----------------------------------------------------------------------
# empirical norm probes
# ----------------------------------------------------------------------


def empirical_ratios(
    op: BCOperator,
    phi: OrliczFunction,
    space: AtomicMeasureSpace,
    *,
    trials: int = 20,
    seed: int = 0,
    tol: float = 1e-12,
) -> np.ndarray:
    """Norm ratios ||A F|| / ||F|| over seeded random sequences.

    Each trial draws its own generator from (seed, trial), so any single
    trial can be reproduced without replaying the others.  On lazy
    spaces the draws are finitely supported (length <= ``_TRIAL_SUPPORT``).
    ``trials`` must be an integer from 1 to ``MAX_TRIALS`` and ``seed`` an
    integer >= 0; anything else is an ``InvalidInputError``.
    """
    if not (isinstance(trials, int) and 1 <= trials <= MAX_TRIALS):
        raise InvalidInputError(f"trials must be an integer from 1 to {MAX_TRIALS}, got {trials!r}")
    if not (isinstance(seed, (int, np.integer)) and seed >= 0):
        raise InvalidInputError(f"seed must be an integer >= 0, got {seed!r}")
    ratios = []
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        length = int(rng.integers(1, _TRIAL_SUPPORT + 1)) if space.is_lazy else space.size
        f1 = rng.standard_normal(length) + 1j * rng.standard_normal(length)
        f2 = rng.standard_normal(length) + 1j * rng.standard_normal(length)
        F = BCSequence.from_components(f1, f2)
        norm_f = norm_bc(phi, F, space, tol=tol)
        if norm_f == 0.0:
            continue
        G = apply_operator(op, F, space)
        norm_g = norm_bc(phi, G, space, tol=tol)
        ratios.append(norm_g / norm_f)
    return np.asarray(ratios, dtype=float)


def empirical_operator_norm(
    op: BCOperator,
    phi: OrliczFunction,
    space: AtomicMeasureSpace,
    *,
    trials: int = 20,
    seed: int = 0,
    tol: float = 1e-12,
) -> float:
    """Largest empirical norm ratio; a lower-bound estimate, not a proof."""
    ratios = empirical_ratios(op, phi, space, trials=trials, seed=seed, tol=tol)
    return float(ratios.max()) if ratios.size else 0.0
