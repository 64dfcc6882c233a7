"""Bicomplex numbers stored in the idempotent basis.

A bicomplex number ``Z = z1 + z2*j`` (``z1, z2`` complex in ``i``,
``j`` a second imaginary unit commuting with ``i``) splits along the
two orthogonal idempotents

    e  = (1 + i*j) / 2        edag = (1 - i*j) / 2

as ``Z = beta1*e + beta2*edag`` with ``beta1 = z1 - i*z2`` and
``beta2 = z1 + i*z2``.  Every ring operation acts componentwise on
``(beta1, beta2)``, so that pair is the canonical internal
representation here; cartesian coordinates are derived views.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import InvalidInputError, NotInvertibleError, UnsupportedInstanceError

__all__ = [
    "BiComplex",
    "Classification",
    "ComponentSet",
    "PolyRoots",
    "ZERO",
    "ONE",
    "UNIT_I",
    "UNIT_J",
    "UNIT_K",
    "E",
    "E_DAGGER",
    "classify",
    "indicator",
    "pair_norm",
    "poly_eval",
    "poly_roots",
]

_SQRT2 = math.sqrt(2.0)


def _finite_complex(value, what: str) -> complex:
    try:
        value = complex(value)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"{what} is not a complex number: {value!r}") from exc
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise InvalidInputError(f"{what} must be finite, got {value!r}")
    return value


def _ring_result(op: str, beta1: complex, beta2: complex) -> "BiComplex":
    """The result of ring operation ``op`` on finite operands; a component
    past the floats is an unsupported instance, not an invalid input."""
    for k, beta in ((1, beta1), (2, beta2)):
        if not (math.isfinite(beta.real) and math.isfinite(beta.imag)):
            raise UnsupportedInstanceError(
                f"{op} overflows: idempotent component {k} of the exact result "
                f"passes the largest float ({sys.float_info.max:.3e})"
            )
    return BiComplex(beta1, beta2)


def _cartesian_betas(z1, z2) -> tuple[complex, complex]:
    """``(z1 - i z2, z1 + i z2)`` of finite coordinates; inf past the floats."""
    z1, z2 = _finite_complex(z1, "z1"), _finite_complex(z2, "z2")
    return z1 - 1j * z2, z1 + 1j * z2


def _product(u: complex, v: complex) -> complex:
    """``u * v``.  Where a partial product ``a*c`` overflows, ``u`` is
    scaled into [-1/2, 1/2] by a power of two and the product taken again,
    so the result is inf only where the exact product passes the floats."""
    p = u * v
    if math.isfinite(p.real) and math.isfinite(p.imag):
        return p
    k = math.frexp(max(abs(u.real), abs(u.imag)))[1] + 1
    q = complex(math.ldexp(u.real, -k), math.ldexp(u.imag, -k)) * v
    try:
        return complex(math.ldexp(q.real, k), math.ldexp(q.imag, k))
    except OverflowError:
        return p


@dataclass(frozen=True)
class BiComplex:
    """One bicomplex number as idempotent coordinates ``(beta1, beta2)``."""

    beta1: complex
    beta2: complex

    def __post_init__(self):
        object.__setattr__(self, "beta1", _finite_complex(self.beta1, "beta1"))
        object.__setattr__(self, "beta2", _finite_complex(self.beta2, "beta2"))

    # ------------------------------------------------------------------
    # construction and coordinate views
    # ------------------------------------------------------------------

    @classmethod
    def from_cartesian(cls, z1, z2) -> "BiComplex":
        """Build ``z1 + z2*j``; betas past the floats are an unsupported instance."""
        return _ring_result("from_cartesian", *_cartesian_betas(z1, z2))

    @classmethod
    def from_reals(cls, a, b, c, d) -> "BiComplex":
        """Build ``a + b*i + c*j + d*i*j`` from four real coordinates."""
        return cls.from_cartesian(complex(a, b), complex(c, d))

    # halving first keeps the views finite (halving is exact above the subnormals)
    @property
    def z1(self) -> complex:
        return self.beta1 / 2 + self.beta2 / 2

    @property
    def z2(self) -> complex:
        return 1j * (self.beta1 / 2 - self.beta2 / 2)

    def cartesian(self) -> tuple[complex, complex]:
        return self.z1, self.z2

    def reals(self) -> tuple[float, float, float, float]:
        z1, z2 = self.cartesian()
        return z1.real, z1.imag, z2.real, z2.imag

    # ------------------------------------------------------------------
    # ring structure (componentwise in the idempotent basis)
    # ------------------------------------------------------------------

    @staticmethod
    def _coerce(other) -> "BiComplex | None":
        if isinstance(other, BiComplex):
            return other
        if isinstance(other, (int, float, complex)):
            # a scalar c embeds diagonally: c = c*e + c*edag
            return BiComplex(complex(other), complex(other))
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _ring_result("add", self.beta1 + other.beta1, self.beta2 + other.beta2)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _ring_result("sub", self.beta1 - other.beta1, self.beta2 - other.beta2)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _ring_result(
            "mul", _product(self.beta1, other.beta1), _product(self.beta2, other.beta2)
        )

    __rmul__ = __mul__

    def __neg__(self):
        return BiComplex(-self.beta1, -self.beta2)

    # ------------------------------------------------------------------
    # conjugations
    # ------------------------------------------------------------------

    def bar(self) -> "BiComplex":
        """Conjugate ``z1, z2`` in ``i``; swaps and conjugates the betas."""
        return BiComplex(self.beta2.conjugate(), self.beta1.conjugate())

    def dagger(self) -> "BiComplex":
        """Flip the sign of ``z2``; swaps the betas."""
        return BiComplex(self.beta2, self.beta1)

    def star(self) -> "BiComplex":
        """Composite bar-then-dagger; conjugates each beta in place."""
        return BiComplex(self.beta1.conjugate(), self.beta2.conjugate())

    def conjugate(self, kind: str) -> "BiComplex":
        try:
            return {"bar": self.bar, "dagger": self.dagger, "star": self.star}[kind]()
        except KeyError:
            raise InvalidInputError(
                f"unknown conjugation {kind!r}; expected 'bar', 'dagger' or 'star'"
            ) from None

    # ------------------------------------------------------------------
    # norm, classification, inversion
    # ------------------------------------------------------------------

    def norm(self) -> float:
        """Euclidean norm: sqrt((|beta1|^2 + |beta2|^2) / 2).

        Coincides with the R^4 Euclidean length of ``(a, b, c, d)`` when
        ``Z = a + b*i + c*j + d*i*j``.
        """
        return pair_norm(self.beta1, self.beta2)

    def classify(self, eps: float = 1e-12) -> "Classification":
        return classify(self, eps)

    def invert(self, eps: float = 1e-12) -> "BiComplex":
        """Componentwise reciprocal; defined only for invertible elements."""
        diagnosis = classify(self, eps)
        if diagnosis.kind != "invertible":
            names = " and ".join(f"component {c}" for c in diagnosis.vanishing)
            raise NotInvertibleError(
                f"cannot invert: idempotent {names} vanishes "
                f"(|beta| <= {diagnosis.threshold:.3e}); element is a {diagnosis.kind}",
                classification=diagnosis,
            )
        return _ring_result("invert", 1.0 / self.beta1, 1.0 / self.beta2)

    # ------------------------------------------------------------------
    # JSON wire form
    # ------------------------------------------------------------------

    def to_json_dict(self) -> dict:
        """Emit both coordinate systems; either one round-trips alone."""
        z1, z2 = self.cartesian()
        return {
            "cartesian": {
                "z1": [z1.real, z1.imag],
                "z2": [z2.real, z2.imag],
            },
            "idempotent": {
                "b1": [self.beta1.real, self.beta1.imag],
                "b2": [self.beta2.real, self.beta2.imag],
            },
        }

    @classmethod
    def from_json_dict(cls, obj) -> "BiComplex":
        if not isinstance(obj, dict) or not ({"cartesian", "idempotent"} & obj.keys()):
            raise InvalidInputError(
                "bicomplex value must be an object with a 'cartesian' and/or "
                f"'idempotent' key, got {obj!r}"
            )
        out = None
        if "idempotent" in obj:
            b1 = _pair_to_complex(obj["idempotent"], "b1", "idempotent")
            b2 = _pair_to_complex(obj["idempotent"], "b2", "idempotent")
            out = cls(b1, b2)
        if "cartesian" in obj:
            z1 = _pair_to_complex(obj["cartesian"], "z1", "cartesian")
            z2 = _pair_to_complex(obj["cartesian"], "z2", "cartesian")
            if out is None:
                return cls.from_cartesian(z1, z2)
            # differences of the betas, which may pass the floats: a gap past
            # them is a disagreement, not an unsupported instance
            alt1, alt2 = _cartesian_betas(z1, z2)
            gap = pair_norm(out.beta1 - alt1, out.beta2 - alt2)
            if gap > 1e-9 * max(1.0, out.norm()):
                raise InvalidInputError(
                    "cartesian and idempotent coordinates disagree: "
                    f"{obj!r} (difference norm {gap:.3e})"
                )
        return out


def _modulus(z) -> float:
    """``|z|``, or inf where ``abs`` of a finite complex raises as it overflows."""
    try:
        return abs(z)
    except OverflowError:
        return math.inf


def pair_norm(x1, x2) -> float:
    """``sqrt((|x1|^2 + |x2|^2) / 2)``; where a modulus or ``hypot`` overflows,
    both are scaled by ``1/sqrt(2)`` first, so it is finite wherever the norm is."""
    norm = math.hypot(_modulus(x1), _modulus(x2)) / _SQRT2
    if math.isinf(norm):
        norm = math.hypot(abs(x1 / _SQRT2), abs(x2 / _SQRT2))
    return norm


def is_json_number(v) -> bool:
    """Whether a parsed JSON value is a finite number; ``true``, NaN and ``10**400`` are not."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def _pair_to_complex(section, key: str, where: str) -> complex:
    if not isinstance(section, dict) or key not in section:
        raise InvalidInputError(f"'{where}' object must contain key '{key}'")
    pair = section[key]
    if (
        not isinstance(pair, (list, tuple))
        or len(pair) != 2
        or not all(map(is_json_number, pair))
    ):
        raise InvalidInputError(
            f"'{where}.{key}' must be a [re, im] pair of numbers, got {pair!r}"
        )
    return complex(pair[0], pair[1])


ZERO = BiComplex(0, 0)
ONE = BiComplex(1, 1)
UNIT_I = BiComplex(1j, 1j)
UNIT_J = BiComplex(-1j, 1j)
UNIT_K = BiComplex(1, -1)  # k = i*j = e - edag
E = BiComplex(1, 0)
E_DAGGER = BiComplex(0, 1)


@dataclass(frozen=True)
class Classification:
    """Zero-divisor diagnosis of one element.

    ``vanishing`` lists the idempotent components (1 and/or 2) whose
    modulus fell at or below ``threshold``.
    """

    kind: str  # "zero" | "zero_divisor" | "invertible"
    vanishing: tuple[int, ...]
    threshold: float


def classify(Z: BiComplex, eps: float = 1e-12) -> Classification:
    """Sort ``Z`` into zero / zero divisor / invertible.

    The tolerance is ``eps`` relative to ``Z.norm()`` when the norm
    exceeds 1 and absolute otherwise, so tiny elements are not all
    collapsed to zero divisors by scale alone.
    """
    if not (isinstance(eps, (int, float)) and eps >= 0 and math.isfinite(eps)):
        raise InvalidInputError(f"eps must be a finite number >= 0, got {eps!r}")
    threshold = eps * max(1.0, Z.norm())
    vanishing = tuple(
        idx for idx, b in ((1, Z.beta1), (2, Z.beta2)) if _modulus(b) <= threshold
    )
    if len(vanishing) == 2:
        kind = "zero"
    elif len(vanishing) == 1:
        kind = "zero_divisor"
    else:
        kind = "invertible"
    return Classification(kind, vanishing, threshold)


# ----------------------------------------------------------------------
# polynomials
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PolyRoots:
    """All roots of a bicomplex polynomial plus their residuals."""

    roots: tuple[BiComplex, ...]
    residuals: tuple[float, ...]

    @property
    def residual_bound(self) -> float:
        return max(self.residuals, default=0.0)


def poly_eval(coeffs, Z: BiComplex) -> BiComplex:
    """Evaluate ``sum(coeffs[m] * Z**m)``; coefficients in ascending order."""
    coeffs = _coerce_coeffs(coeffs)
    acc1 = 0j
    acc2 = 0j
    for c in reversed(coeffs):
        acc1 = acc1 * Z.beta1 + c.beta1
        acc2 = acc2 * Z.beta2 + c.beta2
    return BiComplex(acc1, acc2)


def poly_roots(coeffs, eps: float = 1e-12) -> PolyRoots:
    """Return every root of a polynomial with invertible leading coefficient.

    The polynomial splits into one complex polynomial per idempotent
    component; any pairing of a component-1 root with a component-2 root
    is a root of the whole, so a degree-n instance yields n^2 roots
    (repeats kept, so the count is always n^2).

    Raises UnsupportedInstanceError when the leading coefficient is zero
    or a zero divisor, since the componentwise split then degenerates.
    """
    coeffs = _coerce_coeffs(coeffs)
    if len(coeffs) < 2:
        raise InvalidInputError("need degree >= 1: pass at least two coefficients")
    lead = classify(coeffs[-1], eps)
    if lead.kind != "invertible":
        raise UnsupportedInstanceError(
            f"leading coefficient is a {lead.kind}; componentwise root "
            "splitting requires an invertible leading coefficient"
        )
    import numpy as np  # the only array step of the ring: the rest runs without numpy

    desc1 = np.array([c.beta1 for c in reversed(coeffs)], dtype=complex)
    desc2 = np.array([c.beta2 for c in reversed(coeffs)], dtype=complex)
    roots1 = np.roots(desc1)
    roots2 = np.roots(desc2)
    roots = tuple(BiComplex(b1, b2) for b1 in roots1 for b2 in roots2)
    residuals = tuple(poly_eval(coeffs, r).norm() for r in roots)
    return PolyRoots(roots, residuals)


def _coerce_coeffs(coeffs) -> list[BiComplex]:
    out = []
    for m, c in enumerate(coeffs):
        cb = BiComplex._coerce(c)
        if cb is None:
            raise InvalidInputError(f"coefficient {m} is not bicomplex: {c!r}")
        out.append(cb)
    return out


# ----------------------------------------------------------------------
# component sets and indicators
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ComponentSet:
    """Decidable subset of the complex plane used to gate one component.

    Variants: the whole plane, a finite point set (exact match, or within
    ``tol``), a closed disc, and a closed half-plane
    ``{z : Re(conj(normal) * z) <= offset}``.
    """

    kind: str
    points: tuple[complex, ...] = ()
    tol: float = 0.0
    center: complex = 0j
    radius: float = 0.0
    normal: complex = 1 + 0j
    offset: float = 0.0

    @classmethod
    def whole_plane(cls) -> "ComponentSet":
        return cls("all")

    @classmethod
    def finite(cls, points, tol: float = 0.0) -> "ComponentSet":
        pts = tuple(_finite_complex(p, "set point") for p in points)
        if tol < 0 or not math.isfinite(tol):
            raise InvalidInputError(f"tol must be finite and >= 0, got {tol!r}")
        return cls("finite", points=pts, tol=tol)

    @classmethod
    def disc(cls, center, radius: float) -> "ComponentSet":
        if radius < 0 or not math.isfinite(radius):
            raise InvalidInputError(f"radius must be finite and >= 0, got {radius!r}")
        return cls("disc", center=_finite_complex(center, "center"), radius=radius)

    @classmethod
    def half_plane(cls, normal, offset: float) -> "ComponentSet":
        normal = _finite_complex(normal, "normal")
        if normal == 0:
            raise InvalidInputError("half-plane normal must be nonzero")
        if not math.isfinite(offset):
            raise InvalidInputError(f"offset must be finite, got {offset!r}")
        return cls("half_plane", normal=normal, offset=float(offset))

    def contains(self, z: complex) -> bool:
        z = _finite_complex(z, "z")
        if self.kind == "all":
            return True
        if self.kind == "finite":
            if self.tol == 0.0:
                return z in self.points
            return any(abs(z - p) <= self.tol for p in self.points)
        if self.kind == "disc":
            return abs(z - self.center) <= self.radius
        if self.kind == "half_plane":
            return (self.normal.conjugate() * z).real <= self.offset
        raise InvalidInputError(f"unknown set kind {self.kind!r}")


def indicator(set1: ComponentSet, set2: ComponentSet, Z: BiComplex) -> int:
    """1 when ``beta1 in set1`` and ``beta2 in set2``, else 0.

    Product-set membership is exactly the conjunction of the component
    memberships, which is what makes componentwise gating sound.
    """
    return int(set1.contains(Z.beta1) and set2.contains(Z.beta2))
