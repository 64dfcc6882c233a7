"""Acceptance gate: eleven end-to-end criteria, one PASS/FAIL line each.

Every expected value is computed through an independent route inside this
file (closed forms, brute-force sums, interval bounds) rather than read
back from the library under test.
"""

import json
import math
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from bcorlicz import (
    E,
    ONE,
    UNIT_K,
    AtomicMeasureSpace,
    BCOperator,
    BCSequence,
    BiComplex,
    IndexMap,
    NotInvertibleError,
    OrliczFunction,
    distortion_ratios,
    empirical_ratios,
    luxemburg_norm,
    modular,
    norm_bc,
    pairing,
    poly_roots,
    schauder_tail,
)

SQRT2 = math.sqrt(2.0)
SAMPLES = pathlib.Path(__file__).resolve().parent.parent / "sample_inputs"


def passfail(label: str, ok: bool, **details):
    tag = "PASS" if ok else "FAIL"
    extra = ", ".join(f"{k}={v}" for k, v in details.items())
    print(f"[{tag}] {label}" + (f"  ({extra})" if extra else ""))
    assert ok, f"{label} failed ({extra})"


def draw_bc(rng, scale=1.0):
    a, b, c, d = rng.standard_normal(4) * scale
    return BiComplex.from_reals(a, b, c, d)


def oracle_phi(phi: OrliczFunction, u: np.ndarray) -> np.ndarray:
    # second route to the Young functions, written against their formulas
    u = np.asarray(u, dtype=float)
    with np.errstate(over="ignore"):
        if phi.family == "power":
            return u ** phi.p
        if phi.family == "exp":
            return np.expm1(u) - u
        return u * np.log1p(u)


def oracle_modular(phi, f, w) -> float:
    return float(np.sum(oracle_phi(phi, np.abs(np.asarray(f))) * np.asarray(w)))


def oracle_gauge(phi, f, w) -> float:
    """Luxemburg gauge by an independent method per family."""
    f = np.asarray(f, dtype=complex)
    w = np.asarray(w, dtype=float)
    if not np.any(np.abs(f) > 0):
        return 0.0
    if phi.family == "power":
        return float(np.sum(np.abs(f) ** phi.p * w) ** (1.0 / phi.p))
    lo, hi = 1e-12, 1e12
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if oracle_modular(phi, f / mid, w) <= 1.0:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-14 * hi:
            break
    return hi


def ball_scales(families, draws) -> list:
    """Per instance ``(w, f1, f2)``, the scale that pushes the larger
    oracle modular to 0.999, so the ball bound is exercised near its
    boundary; instance ``k`` uses ``families[k % len(families)]``.

    Bisection on the oracle modular is monotone.  Each family's
    instances are bisected together, 80 steps, zero-padded to 7 atoms:
    the padding adds exact zeros at the end of each row's sum, so every
    scale is the one a bisection of that instance alone gives.
    """
    scales = [0.0] * len(draws)
    for j, phi in enumerate(families):
        ks = range(j, len(draws), len(families))
        w = np.zeros((len(ks), 7))
        f1 = np.zeros((len(ks), 7), dtype=complex)
        f2 = np.zeros((len(ks), 7), dtype=complex)
        for r, k in enumerate(ks):
            n = draws[k][0].size
            w[r, :n], f1[r, :n], f2[r, :n] = draws[k]
        lo, hi = np.full(len(ks), 1e-12), np.ones(len(ks))
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            m = np.maximum(
                np.sum(oracle_phi(phi, np.abs(mid[:, None] * f1)) * w, axis=1),
                np.sum(oracle_phi(phi, np.abs(mid[:, None] * f2)) * w, axis=1),
            )
            inside = m <= 0.999
            lo, hi = np.where(inside, mid, lo), np.where(inside, hi, mid)
        for r, k in enumerate(ks):
            scales[k] = float(lo[r])
    return scales


# ---------------------------------------------------------------------------


def test_criterion_1_projections_norm_and_submultiplicativity():
    rng = np.random.default_rng(20240801)
    ok = True
    worst_norm = 0.0
    worst_sub = 0.0
    for _ in range(10 ** 4):
        Z = draw_bc(rng, 2.0)
        W = draw_bc(rng, 2.0)
        # projections are exact ring maps in idempotent coordinates
        if (Z + W).beta1 != Z.beta1 + W.beta1 or (Z + W).beta2 != Z.beta2 + W.beta2:
            ok = False
        if (Z * W).beta1 != Z.beta1 * W.beta1 or (Z * W).beta2 != Z.beta2 * W.beta2:
            ok = False
        # norm equals the length of the real-4-space coordinate vector
        a, b, c, d = Z.reals()
        euclid = math.hypot(a, b, c, d)
        rel = abs(Z.norm() - euclid) / max(1.0, euclid)
        worst_norm = max(worst_norm, rel)
        if rel > 1e-12:
            ok = False
        # submultiplicativity with constant sqrt(2)
        bound = SQRT2 * Z.norm() * W.norm()
        excess = (Z * W).norm() - bound
        worst_sub = max(worst_sub, excess)
        if excess > 1e-12 * max(1.0, bound):
            ok = False
    # the witness Z = W = e makes the constant sharp: both sides 1/sqrt(2)
    lhs = (E * E).norm()
    rhs = SQRT2 * E.norm() * E.norm()
    witness_ok = abs(lhs - 1 / SQRT2) <= 1e-15 and abs(rhs - 1 / SQRT2) <= 1e-15
    passfail(
        "criterion 1: projections, norm identity, sqrt(2) submultiplicativity",
        ok and witness_ok,
        pairs=10 ** 4,
        worst_norm_rel=f"{worst_norm:.2e}",
        worst_excess=f"{worst_sub:.2e}",
        witness=f"{lhs:.15f}",
    )


def test_criterion_2_inverses_and_zero_divisor_rejection():
    rng = np.random.default_rng(20240802)
    ok = True
    worst = 0.0
    count = 0
    while count < 10 ** 3:
        Z = draw_bc(rng, 2.0)
        if min(abs(Z.beta1), abs(Z.beta2)) < 1e-3:
            continue
        count += 1
        err = (Z * Z.invert() - ONE).norm()
        worst = max(worst, err)
        if err >= 1e-12:
            ok = False
    named = True
    for k in range(10 ** 3):
        beta = complex(rng.standard_normal() + 2.0, rng.standard_normal())
        if k % 2 == 0:
            Z, want = BiComplex(beta, 0.0), (2,)
        else:
            Z, want = BiComplex(0.0, beta), (1,)
        try:
            Z.invert()
            named = False
        except NotInvertibleError as exc:
            if exc.classification.vanishing != want:
                named = False
            if f"component {want[0]}" not in str(exc):
                named = False
    passfail(
        "criterion 2: inverse accuracy and zero-divisor rejection",
        ok and named,
        invertible=10 ** 3,
        zero_divisors=10 ** 3,
        worst_inverse_err=f"{worst:.2e}",
    )


def test_criterion_3_polynomial_roots():
    rng = np.random.default_rng(20240803)

    def distinct_roots(deg):
        while True:
            r = rng.standard_normal(deg) + 1j * rng.standard_normal(deg)
            if deg == 1:
                return r
            diffs = np.abs(r[:, None] - r[None, :])[np.triu_indices(deg, 1)]
            if diffs.min() > 0.3:
                return r

    def horner(coeffs, z):
        acc = 0j
        for c in reversed(coeffs):
            acc = acc * z + c
        return acc

    ok = True
    worst = 0.0
    for k in range(100):
        deg = k % 4 + 1
        r1 = distinct_roots(deg)
        r2 = distinct_roots(deg)
        asc1 = np.poly(r1)[::-1]
        asc2 = np.poly(r2)[::-1]
        coeffs = [BiComplex(c1, c2) for c1, c2 in zip(asc1, asc2)]
        found = poly_roots(coeffs)
        if len(found.roots) != deg * deg:
            ok = False
            continue
        scale = max(1.0, max(c.norm() for c in coeffs))
        for root in found.roots:
            # residual through an independent Horner evaluation
            v1 = horner(asc1, root.beta1)
            v2 = horner(asc2, root.beta2)
            res = math.hypot(abs(v1), abs(v2)) / SQRT2
            worst = max(worst, res / scale)
            if res >= 1e-8 * scale:
                ok = False
    # Z^2 = 1 has the four roots {1, -1, k, -k}
    square = poly_roots([-ONE, BiComplex(0, 0), ONE])
    targets = {ONE, -ONE, UNIT_K, -UNIT_K}
    square_ok = len(square.roots) == 4 and all(
        any((r - t).norm() < 1e-9 for r in square.roots) for t in targets
    )
    passfail(
        "criterion 3: n^2 recombined roots with bounded residuals",
        ok and square_ok,
        instances=100,
        worst_scaled_residual=f"{worst:.2e}",
        square_roots_of_one=len(square.roots),
    )


def test_criterion_4_luxemburg_matches_weighted_p_norm():
    rng = np.random.default_rng(20240804)
    ok = True
    worst = 0.0
    exponents = (1.5, 2.0, 3.0)
    for k in range(10 ** 3):
        p = exponents[k % 3]
        phi = OrliczFunction.power(p)
        n = int(rng.integers(1, 12))
        w = rng.uniform(0.1, 2.0, n)
        f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        sp = AtomicMeasureSpace.finite(w)
        got = luxemburg_norm(phi, f, sp)
        want = float(np.sum(np.abs(f) ** p * w) ** (1.0 / p))
        rel = abs(got - want) / max(1e-300, want)
        worst = max(worst, rel)
        if rel > 1e-10:
            ok = False
    passfail(
        "criterion 4: Luxemburg gauge equals the closed-form p-norm",
        ok,
        instances=10 ** 3,
        exponents=exponents,
        worst_rel=f"{worst:.2e}",
    )


def test_criterion_5_unit_sphere_and_unit_ball():
    rng = np.random.default_rng(20240805)
    families = (
        OrliczFunction.power(1.5),
        OrliczFunction.power(2),
        OrliczFunction.power(3),
        OrliczFunction.exp_type(),
        OrliczFunction.entropy(),
    )
    sphere_ok = True
    worst_norm = 0.0
    worst_mod = 0.0
    for k in range(10 ** 3):
        phi = families[k % len(families)]
        n = int(rng.integers(1, 8))
        w = rng.uniform(0.2, 1.5, n)
        f1 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        f2 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        # scale analytically so the true norm is exactly 1/sqrt(2)
        g = math.hypot(oracle_gauge(phi, f1, w), oracle_gauge(phi, f2, w))
        F = BCSequence.from_components(f1 / g, f2 / g)
        sp = AtomicMeasureSpace.finite(w)
        rel = abs(norm_bc(phi, F, sp) - 1 / SQRT2) / (1 / SQRT2)
        worst_norm = max(worst_norm, rel)
        if rel > 1e-10:
            sphere_ok = False
        for which in (1, 2):
            mval = modular(phi, F.component(which), sp).value
            worst_mod = max(worst_mod, mval)
            if mval > 1.0 + 1e-9:
                sphere_ok = False
    ball_ok = True
    worst_ball = 0.0
    draws = []
    for k in range(10 ** 3):
        n = int(rng.integers(1, 8))
        w = rng.uniform(0.2, 1.5, n)
        f1 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        f2 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        draws.append((w, f1, f2))
    scales = ball_scales(families, draws)
    for k, (w, f1, f2) in enumerate(draws):
        phi = families[k % len(families)]
        s = scales[k]
        m1 = oracle_modular(phi, s * f1, w)
        m2 = oracle_modular(phi, s * f2, w)
        if max(m1, m2) > 1.0:
            ball_ok = False
            continue
        F = BCSequence.from_components(s * f1, s * f2)
        val = norm_bc(phi, F, AtomicMeasureSpace.finite(w))
        worst_ball = max(worst_ball, val)
        if val > 1.0 + 1e-9:
            ball_ok = False
    passfail(
        "criterion 5: norm 1/sqrt(2) forces modulars <= 1, and conversely",
        sphere_ok and ball_ok,
        sphere=10 ** 3,
        ball=10 ** 3,
        worst_norm_rel=f"{worst_norm:.2e}",
        worst_modular=f"{worst_mod:.10f}",
        worst_ball_norm=f"{worst_ball:.10f}",
    )


def test_criterion_6_composition_ratios_respect_certificate():
    rng = np.random.default_rng(20240806)
    ok = True
    worst_gap = -math.inf
    for k in range(100):
        p = (1.0, 2.0, 3.0)[k % 3]
        phi = OrliczFunction.power(p)
        n = int(rng.integers(2, 9))
        w = rng.uniform(0.2, 2.0, n)
        table = rng.integers(1, n + 1, n)
        sp = AtomicMeasureSpace.finite(w)
        imap = IndexMap.from_table(table)
        sup = distortion_ratios(sp, imap).sup
        cert = sup ** (1.0 / p)
        ratios = empirical_ratios(
            BCOperator.composition(imap), phi, sp, trials=3, seed=k
        )
        gap = float(ratios.max()) - cert if ratios.size else -math.inf
        worst_gap = max(worst_gap, gap)
        if np.any(ratios > cert + 1e-8):
            ok = False
    # right shift on counting weights: certificate exactly 1
    sp = AtomicMeasureSpace.counting(10 ** 4)
    sup = distortion_ratios(sp, IndexMap.right_shift(), budget=10 ** 4).sup
    shift_ratios = empirical_ratios(
        BCOperator.right_shift(), OrliczFunction.power(2), sp, trials=5, seed=1
    )
    shift_ok = sup == 1.0 and np.all(shift_ratios <= 1.0 + 1e-10)
    passfail(
        "criterion 6: composition ratios below (sup b_n)^(1/p)",
        ok and shift_ok,
        instances=100,
        worst_gap=f"{worst_gap:.2e}",
        shift_sup=sup,
        shift_max_ratio=f"{float(shift_ratios.max()):.12f}",
    )


def test_criterion_7_multiplication_ratios_respect_symbol_sup():
    rng = np.random.default_rng(20240807)
    ok = True
    worst_gap = -math.inf
    for k in range(100):
        p = (1.5, 2.0)[k % 2]
        phi = OrliczFunction.power(p)
        n = int(rng.integers(2, 9))
        w = rng.uniform(0.2, 2.0, n)
        t1 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        t2 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        cert = max(float(np.abs(t1).max()), float(np.abs(t2).max()))
        sp = AtomicMeasureSpace.finite(w)
        theta = BCSequence.from_components(t1, t2)
        ratios = empirical_ratios(
            BCOperator.multiplication(theta), phi, sp, trials=3, seed=k
        )
        gap = float(ratios.max()) - cert if ratios.size else -math.inf
        worst_gap = max(worst_gap, gap)
        if np.any(ratios > cert + 1e-8):
            ok = False
    # a constant symbol c(e + e-dagger) scales every norm by exactly c
    c = 2.75
    sp = AtomicMeasureSpace.finite(np.ones(5))
    theta = BCSequence.from_components(np.full(5, c), np.full(5, c))
    const_ratios = empirical_ratios(
        BCOperator.multiplication(theta), OrliczFunction.power(2), sp, trials=5, seed=2
    )
    const_ok = np.all(np.abs(const_ratios - c) <= 1e-10)
    passfail(
        "criterion 7: multiplication ratios below the symbol sup",
        ok and const_ok,
        instances=100,
        worst_gap=f"{worst_gap:.2e}",
        constant_dev=f"{float(np.abs(const_ratios - c).max()):.2e}",
    )


def test_criterion_8_schauder_tails_follow_the_envelope():
    rng = np.random.default_rng(20240808)
    size = 300
    sp = AtomicMeasureSpace.finite(np.ones(size))
    idx = np.arange(1, size + 1)
    ok = True
    for _ in range(100):
        c = float(rng.uniform(0.5, 4.0))
        q = float(rng.uniform(0.3, 0.85))
        env = c * q ** idx
        f1 = env * rng.uniform(0.1, 1.0, size) * np.exp(2j * np.pi * rng.uniform(0, 1, size))
        f2 = env * rng.uniform(0.1, 1.0, size) * np.exp(2j * np.pi * rng.uniform(0, 1, size))
        F = BCSequence.from_components(f1, f2)
        # envelope-predicted tails: both |f_i| <= env pointwise
        env_tail_sq = np.concatenate([(env ** 2)[::-1].cumsum()[::-1], [0.0]])
        env_tail = np.hypot(np.sqrt(env_tail_sq), np.sqrt(env_tail_sq)) / SQRT2
        predicted = int(np.argmax(env_tail < 1e-9))
        checkpoints = sorted({0, 1, 2, 5, 10, predicted // 2, predicted, size})
        tails = [schauder_tail(F, n, 2.0, sp) for n in checkpoints]
        if any(tails[i + 1] > tails[i] + 1e-15 for i in range(len(tails) - 1)):
            ok = False
        if any(t > e + 1e-15 for t, e in zip(tails, env_tail[checkpoints])):
            ok = False
        if tails[checkpoints.index(predicted)] >= 1e-9:
            ok = False
        if tails[-1] != 0.0:
            ok = False
    passfail(
        "criterion 8: tail norms nonincreasing and below the envelope prediction",
        ok,
        sequences=100,
        space=size,
    )


def test_criterion_9_pairing_holder_bound():
    # (a) exhaustive small instances, library calls throughout
    pairs = ((2.0, 2.0), (1.5, 3.0), (3.0, 1.5))
    lib_ok = True
    worst_lib = 0.0
    entries = (0.0, 1.0, -1.0)
    grids = []
    for n in (1, 2):
        vals = [
            np.array(v, dtype=complex)
            for v in np.stack(
                np.meshgrid(*([entries] * (2 * n)), indexing="ij"), axis=-1
            ).reshape(-1, 2 * n)
        ]
        grids.append((n, vals))
    for (p, q) in pairs:
        for n, vals in grids:
            w = np.full(n, 1.0)
            sp = AtomicMeasureSpace.finite(w)
            for xv in vals:
                x1, x2 = xv[:n], xv[n:]
                nx = math.hypot(
                    oracle_gauge(OrliczFunction.power(p), x1, w),
                    oracle_gauge(OrliczFunction.power(p), x2, w),
                ) / SQRT2
                if nx == 0.0:
                    continue
                for yv in vals:
                    y1, y2 = yv[:n], yv[n:]
                    ny = math.hypot(
                        oracle_gauge(OrliczFunction.power(q), y1, w),
                        oracle_gauge(OrliczFunction.power(q), y2, w),
                    ) / SQRT2
                    if ny == 0.0:
                        continue
                    val = math.hypot(
                        abs(np.sum(x1 * y1 * w)), abs(np.sum(x2 * y2 * w))
                    ) / SQRT2
                    ratio = val / (nx * ny)
                    worst_lib = max(worst_lib, ratio)
                    if ratio > SQRT2 + 1e-9:
                        lib_ok = False
    # (b) vectorized random search with the closed-form oracle norms
    rng = np.random.default_rng(20240809)
    search_ok = True
    worst_rand = 0.0
    for batch in range(10):
        p, q = pairs[batch % len(pairs)]
        m, n = 10 ** 4, batch % 6 + 1
        w = rng.uniform(0.1, 2.0, (m, n))
        x1 = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        x2 = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        y1 = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        y2 = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        val = np.hypot(
            np.abs(np.sum(x1 * y1 * w, axis=1)), np.abs(np.sum(x2 * y2 * w, axis=1))
        ) / SQRT2
        nx = np.hypot(
            np.sum(np.abs(x1) ** p * w, axis=1) ** (1 / p),
            np.sum(np.abs(x2) ** p * w, axis=1) ** (1 / p),
        ) / SQRT2
        ny = np.hypot(
            np.sum(np.abs(y1) ** q * w, axis=1) ** (1 / q),
            np.sum(np.abs(y2) ** q * w, axis=1) ** (1 / q),
        ) / SQRT2
        ratio = val / (nx * ny)
        worst_rand = max(worst_rand, float(ratio.max()))
        if np.any(ratio > SQRT2 + 1e-9):
            search_ok = False
    # (c) tie the oracle quantities back to the library on a subsample
    tie_ok = True
    for k in range(40):
        p, q = pairs[k % len(pairs)]
        n = int(rng.integers(1, 5))
        w = rng.uniform(0.1, 2.0, n)
        sp = AtomicMeasureSpace.finite(w)
        x1 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x2 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        y1 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        y2 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        X = BCSequence.from_components(x1, x2)
        Y = BCSequence.from_components(y1, y2)
        lib_val = pairing(X, Y, sp).norm()
        lib_nx = norm_bc(OrliczFunction.power(p), X, sp)
        lib_ny = norm_bc(OrliczFunction.power(q), Y, sp)
        ora_val = math.hypot(abs(np.sum(x1 * y1 * w)), abs(np.sum(x2 * y2 * w))) / SQRT2
        ora_nx = math.hypot(
            oracle_gauge(OrliczFunction.power(p), x1, w),
            oracle_gauge(OrliczFunction.power(p), x2, w),
        ) / SQRT2
        ora_ny = math.hypot(
            oracle_gauge(OrliczFunction.power(q), y1, w),
            oracle_gauge(OrliczFunction.power(q), y2, w),
        ) / SQRT2
        if abs(lib_val - ora_val) > 1e-9 * max(1.0, ora_val):
            tie_ok = False
        if abs(lib_nx - ora_nx) > 1e-9 * max(1.0, ora_nx):
            tie_ok = False
        if abs(lib_ny - ora_ny) > 1e-9 * max(1.0, ora_ny):
            tie_ok = False
        if lib_val > SQRT2 * lib_nx * lib_ny + 1e-9:
            lib_ok = False
    passfail(
        "criterion 9: pairing bounded by sqrt(2) times the dual norm product",
        lib_ok and search_ok and tie_ok,
        exhaustive_max=f"{worst_lib:.12f}",
        random_search_max=f"{worst_rand:.12f}",
        random_draws=10 ** 5,
    )


def test_criterion_10_inclusion_witness_one_over_n():
    f = lambda idx: 1.0 / idx  # noqa: E731
    div = modular(OrliczFunction.power(1), f, AtomicMeasureSpace.counting(10 ** 6))
    diverged_ok = div.status == "diverged" and div.value == math.inf

    conv = modular(OrliczFunction.power(2), f, AtomicMeasureSpace.counting(10 ** 8))
    # independent oracle: partial sum plus integral tail bracket around
    # sum 1/n^2; the bracket certifies the reference constant pi^2/6
    N = 10 ** 5
    partial = float(np.sum(1.0 / np.arange(1, N + 1, dtype=float) ** 2))
    bracket = (partial + 1.0 / (N + 1), partial + 1.0 / N)
    target = math.pi ** 2 / 6.0
    oracle_ok = bracket[0] <= target <= bracket[1]
    converged_ok = conv.status == "converged" and abs(conv.value - target) < 1e-6
    passfail(
        "criterion 10: 1/n diverges in the 1-space and sums to pi^2/6 in the 2-space",
        diverged_ok and oracle_ok and converged_ok,
        harmonic_status=div.status,
        square_status=conv.status,
        square_value=f"{conv.value:.9f}",
        bracket=f"[{bracket[0]:.9f}, {bracket[1]:.9f}]",
    )


def test_criterion_11_cli_determinism():
    exe = [sys.executable, "-m", "bcorlicz"]
    commands = [
        exe
        + [
            "bc",
            "eval",
            "--op",
            "mul",
            "--lhs",
            str(SAMPLES / "e.json"),
            "--rhs",
            str(SAMPLES / "edag.json"),
        ],
        exe
        + [
            "norm",
            "--phi",
            "power:p=2",
            "--space",
            str(SAMPLES / "one_atom.json"),
            "--seq",
            str(SAMPLES / "f.json"),
        ],
        exe
        + [
            "op",
            "check",
            "--kind",
            "composition",
            "--map",
            str(SAMPLES / "shift.json"),
            "--space",
            str(SAMPLES / "counting.json"),
            "--phi",
            "power:p=2",
        ],
    ]
    ok = True
    details = {}
    for i, argv in enumerate(commands, start=1):
        runs = [
            subprocess.run(argv, capture_output=True, timeout=120) for _ in range(2)
        ]
        if any(r.returncode != 0 for r in runs):
            ok = False
        if runs[0].stdout != runs[1].stdout:
            ok = False
        details[f"cmd{i}_bytes"] = len(runs[0].stdout)
    # the documented outputs carry the expected headline numbers
    norm_report = json.loads(
        subprocess.run(commands[1], capture_output=True, timeout=120).stdout
    )
    norm_vals = [r["value"] for r in norm_report["results"] if r["name"] == "norm"]
    if not norm_vals or abs(norm_vals[0] - 5.0 / SQRT2) > 1e-9:
        ok = False
    check_report = json.loads(
        subprocess.run(commands[2], capture_output=True, timeout=120).stdout
    )
    verdicts = [
        r["value"] for r in check_report["results"] if r["name"] == "boundedness"
    ]
    if not verdicts or verdicts[0]["verdict"] != "bounded" or verdicts[0]["bound"] != 1.0:
        ok = False
    passfail(
        "criterion 11: documented commands byte-identical across runs",
        ok,
        **details,
    )
