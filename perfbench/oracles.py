"""Independent answers for every benchmark request.

Everything here is computed with numpy from the generated inputs and
never reads a value back from bcorlicz.  A check returns ``None`` when
the program's answer is right and a one-line reason when it is not.
"""

from __future__ import annotations

import math

import numpy as np

SQRT2 = math.sqrt(2.0)

# relative slack for closed forms that the program evaluates in another
# summation order
CLOSED_FORM_RTOL = 1e-10
# the gauge criterion: I(f/lam) <= 1 < I(f/(lam * (1 - GAUGE_STEP)))
GAUGE_STEP = 1e-9
# rounding slack when the oracle re-evaluates a modular at the level set
LEVEL_SLACK = 1e-12


def gauge_value(x):
    """Read a gauge as ``(value, status)``.

    Accepts a bare float, an object with ``.value`` and ``.status`` (a
    future gauge result type), or a JSON dict with ``"value"``.  The
    status is ``None`` when the program reports none.
    """
    if isinstance(x, dict):
        return float(x["value"]), x.get("status")
    if hasattr(x, "value") and not isinstance(x, (int, float)):
        return float(x.value), getattr(x, "status", None)
    return float(x), None


def phi_eval(spec: str, u: np.ndarray) -> np.ndarray:
    """Young function values for ``power:p=<p>``, ``exp`` and ``entropy``."""
    with np.errstate(over="ignore"):
        if spec == "exp":
            return np.expm1(u) - u
        if spec == "entropy":
            return u * np.log1p(u)
        p = float(spec.split("=", 1)[1])
        return u**p


def modular_sum(spec: str, mags: np.ndarray, weights: np.ndarray, lam: float) -> float:
    return float(np.sum(phi_eval(spec, mags / lam) * weights))


def gauge_bracket(spec: str, mags: np.ndarray, weights: np.ndarray) -> tuple[float, float]:
    """Interval that a right Luxemburg gauge of one component lies in.

    Power gauges use the closed form ``(sum |f|^p a)^(1/p)`` within
    ``CLOSED_FORM_RTOL``.  The other families bisect ``I(f/lam) = 1`` to a
    1e-13-wide bracket ``(lo, hi]`` around the true gauge ``g``; an answer
    ``lam`` passes when ``I(f/lam) <= 1 < I(f/(lam (1 - GAUGE_STEP)))``,
    that is ``g <= lam < g / (1 - GAUGE_STEP)``, with rounding slack.
    """
    if not np.any(mags > 0):
        return 0.0, 0.0
    if spec.startswith("power:p="):
        p = float(spec.split("=", 1)[1])
        g = float(np.sum(mags**p * weights)) ** (1.0 / p)
        return g * (1 - CLOSED_FORM_RTOL), g * (1 + CLOSED_FORM_RTOL)
    lo = hi = float(mags.max())
    while modular_sum(spec, mags, weights, hi) > 1.0:
        hi *= 2.0
    while modular_sum(spec, mags, weights, lo) <= 1.0:
        lo /= 2.0
    while hi - lo > 1e-13 * hi:
        mid = 0.5 * (lo + hi)
        if modular_sum(spec, mags, weights, mid) <= 1.0:
            hi = mid
        else:
            lo = mid
    return lo * (1 - LEVEL_SLACK), hi / (1 - GAUGE_STEP)


def norm_bracket(spec, f1, f2, weights) -> tuple[float, float]:
    """Interval for the bicomplex norm ``hypot(n1, n2)/sqrt(2)``."""
    lo1, hi1 = gauge_bracket(spec, np.abs(f1), weights)
    lo2, hi2 = gauge_bracket(spec, np.abs(f2), weights)
    return math.hypot(lo1, lo2) / SQRT2, math.hypot(hi1, hi2) / SQRT2


def check_norm(spec: str, bracket, got) -> str | None:
    value, _ = gauge_value(got)
    lo, hi = bracket
    if not lo <= value <= hi:
        return f"{spec} norm {value!r} outside [{lo!r}, {hi!r}]"
    return None


def close(got: float, want: float, rtol: float, what: str) -> str | None:
    if not abs(got - want) <= rtol * abs(want):
        return f"{what}: got {got!r}, want {want!r} (rtol {rtol:g})"
    return None


def zeta_bracket(s: float, n: int = 10**5) -> tuple[float, float]:
    """``sum_{k>=1} k^-s`` between a partial sum plus its integral tails."""
    k = np.arange(1, n + 1, dtype=float)
    partial = float(np.sum(k**-s))
    return partial + (n + 1) ** (1 - s) / (s - 1), partial + n ** (1 - s) / (s - 1)


def in_bracket(got: float, bracket, rtol: float, what: str) -> str | None:
    lo, hi = bracket
    if not lo * (1 - rtol) <= got <= hi * (1 + rtol):
        return f"{what}: {got!r} outside [{lo!r}, {hi!r}]"
    return None


def composition_certificate(table: np.ndarray, weights: np.ndarray) -> float:
    """``sup_n m_n / a_n`` with ``m_n`` the weight mass mapped onto atom n."""
    masses = np.bincount(table - 1, weights=weights, minlength=weights.size)
    return float(np.max(masses / weights))


def bc_from_json(obj) -> tuple[complex, complex]:
    """Idempotent coordinates ``(b1, b2)`` of a bicomplex JSON value."""
    idem = obj["idempotent"]
    return complex(*idem["b1"]), complex(*idem["b2"])


def components_from_json(values) -> tuple[np.ndarray, np.ndarray]:
    pairs = [bc_from_json(v) for v in values]
    return (
        np.array([p[0] for p in pairs], dtype=complex),
        np.array([p[1] for p in pairs], dtype=complex),
    )
