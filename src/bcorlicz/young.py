"""Young functions and their closed-form facts.

A Young function here is one of three named families, and everything
said about it (convexity, the N-function limits, the doubling constant,
the least elasticity) is read from the family's closed form.  This
module needs no arrays: numpy is imported only where phi is evaluated,
so parsing a spec and classifying it cost no numpy import.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import InvalidInputError

if TYPE_CHECKING:
    import numpy as np

__all__ = ["OrliczFunction", "PhiReport", "classify_phi"]

# exp(u) - u - 1 = u^2 (1/2! + u/3! + ... + u^8/10!) to rounding for u up to
# this; above it expm1(u) - u is within 20 eps
_EXP_SERIES_BELOW = 0.1
_EXP_SERIES = tuple(1.0 / math.factorial(k) for k in range(10, 1, -1))
# u log(1 + u) = u^2 (1 - u/2 + u^2/3 - ... + u^14/15) to rounding for u up to
# this: the series alternates with falling terms, so the remainder is at most
# the first term left out, u^17/16 <= 6.3e-17 u^2, below half an ulp of
# u log(1 + u) >= u^2 (1 - u/2)
_ENTROPY_SERIES_BELOW = 0.1
_ENTROPY_SERIES = tuple((-1.0) ** k / (k - 1) for k in range(16, 1, -1))
_SERIES = {
    "exp": (_EXP_SERIES_BELOW, _EXP_SERIES),
    "entropy": (_ENTROPY_SERIES_BELOW, _ENTROPY_SERIES),
}


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

    def series(self) -> "tuple[float, tuple[float, ...]] | None":
        """``(cut, a)`` with ``phi(u) = u^2 (a[0] u^m + ... + a[m])`` to
        rounding for ``0 <= u <= cut``, the coefficients in Horner order;
        None for ``power``, whose gauge has a closed form."""
        return _SERIES.get(self.family)

    def _values(self, u: np.ndarray) -> np.ndarray:
        """phi at finite arguments >= 0, unchecked; overflow becomes +inf; ``u`` itself at p = 1."""
        import numpy as np

        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            if self.family == "power":
                return u if self.p == 1.0 else u**self.p
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
        """phi at one real argument >= 0; overflow becomes +inf."""
        import numpy as np

        u = float(u)
        if not u >= 0.0:  # nan too
            raise InvalidInputError("phi arguments must be real and >= 0")
        # expm1(inf) - inf is nan; every family tends to +inf
        return math.inf if u == math.inf else float(self._values(np.array([u]))[0])


@dataclass(frozen=True)
class PhiReport:
    """Exact N-function and doubling facts of a Young function, in closed form.

    ``k`` is the global doubling constant ``sup phi(2u) / phi(u)``, inf
    where it is past the floats or Delta2 fails (``delta2_ok`` tells which),
    and ``alpha`` the least elasticity ``inf u phi'(u) / phi(u)``.
    """

    phi: OrliczFunction
    convexity_ok: bool
    limit0_ok: bool
    limit_inf_ok: bool
    continuous_ok: bool
    vanishes_only_at_0: bool
    delta2_ok: bool
    k: float
    alpha: float
    label: str = "closed form"

    def to_json_dict(self) -> dict:
        return {
            "family": self.phi.family,
            "convexity_ok": self.convexity_ok,
            "n_function": {
                "limit0_ok": self.limit0_ok,
                "limit_inf_ok": self.limit_inf_ok,
                "continuous_ok": self.continuous_ok,
                "vanishes_only_at_0": self.vanishes_only_at_0,
            },
            "delta2": {"K_estimate": self.k, "holds_on_grid": self.delta2_ok},
            "label": self.label,
        }


def classify_phi(phi: OrliczFunction) -> PhiReport:
    """The N-function limits ``phi(u)/u -> 0`` at 0 and ``-> inf`` at inf,
    the doubling constant and the least elasticity of ``phi``'s family.

    Every family is convex, continuous and positive off 0.
    """
    if phi.family == "power":
        # phi(u)/u = u^(p-1), phi(2u)/phi(u) = 2^p and u phi'(u)/phi(u) = p
        try:
            k = 2.0**phi.p
        except OverflowError:  # p >= 1024: Delta2 holds past the floats
            k = math.inf
        limits, delta2_ok, alpha = phi.p > 1, True, phi.p
    elif phi.family == "exp":
        # phi(2u)/phi(u) grows like e^u; u phi'(u)/phi(u) rises from 2 at 0+
        limits, delta2_ok, k, alpha = True, False, math.inf, 2.0
    elif phi.family == "entropy":
        # phi(u)/u = log(1+u); 2 log(1+2u)/log(1+u) falls from 4 at 0+, and
        # u phi'(u)/phi(u) = 1 + u/((1+u) log(1+u)) falls from 2 to 1
        limits, delta2_ok, k, alpha = True, True, 4.0, 1.0
    else:
        raise InvalidInputError(f"unknown phi family {phi.family!r}")
    return PhiReport(phi, True, limits, limits, True, True, delta2_ok, k, alpha)
