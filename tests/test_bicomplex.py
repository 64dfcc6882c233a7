"""Unit tests for the bicomplex core: algebra, conjugations, norm, roots."""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from bcorlicz import (
    E,
    E_DAGGER,
    ONE,
    UNIT_I,
    UNIT_J,
    UNIT_K,
    ZERO,
    BiComplex,
    ComponentSet,
    InvalidInputError,
    NotInvertibleError,
    UnsupportedInstanceError,
    classify,
    indicator,
    poly_eval,
    poly_roots,
)

SQRT2 = math.sqrt(2.0)


def random_bc(rng, scale=1.0):
    a, b, c, d = rng.standard_normal(4) * scale
    return BiComplex.from_reals(a, b, c, d)


def test_cartesian_idempotent_round_trip():
    rng = np.random.default_rng(101)
    for _ in range(300):
        z1 = complex(*rng.standard_normal(2))
        z2 = complex(*rng.standard_normal(2))
        Z = BiComplex.from_cartesian(z1, z2)
        assert abs(Z.z1 - z1) <= 1e-15 * max(1.0, abs(z1))
        assert abs(Z.z2 - z2) <= 1e-15 * max(1.0, abs(z2))
        back = BiComplex.from_cartesian(*Z.cartesian())
        assert (back - Z).norm() <= 1e-15 * max(1.0, Z.norm())


def test_unit_coordinates():
    assert BiComplex.from_cartesian(1, 0) == ONE == BiComplex(1, 1)
    assert BiComplex.from_cartesian(1j, 0) == UNIT_I == BiComplex(1j, 1j)
    assert BiComplex.from_cartesian(0, 1) == UNIT_J == BiComplex(-1j, 1j)
    assert BiComplex.from_cartesian(0, 1j) == UNIT_K == BiComplex(1, -1)
    # e = (1 + i*j)/2 has cartesian coordinates (1/2, i/2)
    assert E == BiComplex.from_cartesian(0.5, 0.5j)
    assert E_DAGGER == BiComplex.from_cartesian(0.5, -0.5j)


def test_imaginary_unit_squares():
    assert UNIT_I * UNIT_I == -ONE
    assert UNIT_J * UNIT_J == -ONE
    assert UNIT_K * UNIT_K == ONE
    assert UNIT_I * UNIT_J == UNIT_K


def test_idempotent_identities():
    assert E * E == E
    assert E_DAGGER * E_DAGGER == E_DAGGER
    assert E * E_DAGGER == ZERO
    assert E + E_DAGGER == ONE
    assert E - E_DAGGER == UNIT_K


def test_product_matches_cartesian_formula():
    rng = np.random.default_rng(42)
    for _ in range(300):
        Z = random_bc(rng, 3.0)
        W = random_bc(rng, 3.0)
        P = Z * W
        z1, z2 = Z.cartesian()
        w1, w2 = W.cartesian()
        # (z1 + z2 j)(w1 + w2 j) = (z1 w1 - z2 w2) + (z1 w2 + z2 w1) j
        assert abs(P.z1 - (z1 * w1 - z2 * w2)) <= 1e-12 * max(1.0, P.norm())
        assert abs(P.z2 - (z1 * w2 + z2 * w1)) <= 1e-12 * max(1.0, P.norm())


def test_projections_are_exact_ring_homomorphisms():
    rng = np.random.default_rng(7)
    for _ in range(300):
        Z = random_bc(rng)
        W = random_bc(rng)
        assert (Z + W).beta1 == Z.beta1 + W.beta1
        assert (Z + W).beta2 == Z.beta2 + W.beta2
        assert (Z * W).beta1 == Z.beta1 * W.beta1
        assert (Z * W).beta2 == Z.beta2 * W.beta2
        assert (-Z).beta1 == -Z.beta1


def test_scalar_embedding():
    Z = BiComplex(2 + 1j, -3j)
    c = 1.5 - 0.5j
    assert c * Z == BiComplex(c, c) * Z
    assert Z + 2 == BiComplex(Z.beta1 + 2, Z.beta2 + 2)
    assert 1 - Z == BiComplex(1 - Z.beta1, 1 - Z.beta2)


def test_conjugation_table():
    assert E.dagger() == E_DAGGER
    assert E_DAGGER.dagger() == E
    assert E.star() == E
    assert E.bar() == E_DAGGER
    rng = np.random.default_rng(5)
    for _ in range(200):
        Z = random_bc(rng)
        assert Z.bar() == BiComplex(Z.beta2.conjugate(), Z.beta1.conjugate())
        assert Z.dagger() == BiComplex(Z.beta2, Z.beta1)
        assert Z.star() == BiComplex(Z.beta1.conjugate(), Z.beta2.conjugate())
        assert Z.bar().dagger() == Z.star()


def test_conjugations_are_involutive_ring_maps():
    rng = np.random.default_rng(6)
    for kind in ("bar", "dagger", "star"):
        for _ in range(100):
            Z = random_bc(rng)
            W = random_bc(rng)
            assert Z.conjugate(kind).conjugate(kind) == Z
            assert (Z + W).conjugate(kind) == Z.conjugate(kind) + W.conjugate(kind)
            P = (Z * W).conjugate(kind)
            Q = Z.conjugate(kind) * W.conjugate(kind)
            assert (P - Q).norm() <= 1e-12 * max(1.0, P.norm())
    with pytest.raises(InvalidInputError):
        E.conjugate("flip")


def test_norm_values():
    assert ZERO.norm() == 0.0
    assert abs(E.norm() - 1 / SQRT2) <= 1e-15
    assert abs(BiComplex.from_cartesian(1, 1).norm() - SQRT2) <= 1e-12
    assert abs(ONE.norm() - 1.0) <= 1e-15


def test_norm_equals_euclidean_length():
    rng = np.random.default_rng(11)
    for _ in range(500):
        Z = random_bc(rng, 10.0)
        a, b, c, d = Z.reals()
        euclid = math.hypot(a, b, c, d)
        assert abs(Z.norm() - euclid) <= 1e-12 * max(1.0, euclid)


def test_norm_submultiplicative_with_sharp_constant():
    rng = np.random.default_rng(12)
    best = 0.0
    for _ in range(2000):
        Z = random_bc(rng)
        W = random_bc(rng)
        nz, nw = Z.norm(), W.norm()
        if nz == 0 or nw == 0:
            continue
        ratio = (Z * W).norm() / (nz * nw)
        assert ratio <= SQRT2 * (1 + 1e-12)
        best = max(best, ratio)
    # the witness Z = W = e attains the constant: ||e*e|| = 1/sqrt(2)
    lhs = (E * E).norm()
    rhs = SQRT2 * E.norm() * E.norm()
    assert abs(lhs - rhs) <= 1e-15
    assert abs(lhs - 1 / SQRT2) <= 1e-15
    assert best <= SQRT2 * (1 + 1e-12)
    # any constant below sqrt(2) fails at the witness, e.g. 1/sqrt(2):
    assert lhs > (1 / SQRT2) * E.norm() * E.norm() + 0.1


def test_classify_kinds():
    assert classify(ZERO).kind == "zero"
    assert classify(ONE).kind == "invertible"
    diag = classify(E)
    assert diag.kind == "zero_divisor" and diag.vanishing == (2,)
    diag = classify(E_DAGGER)
    assert diag.kind == "zero_divisor" and diag.vanishing == (1,)
    assert classify(UNIT_K).kind == "invertible"


def test_classify_tolerance_scaling():
    # relative above norm 1: a 1e-8 component next to a 1e6 one vanishes
    big = BiComplex(1e6, 1e-8)
    assert classify(big).kind == "zero_divisor"
    assert classify(big).vanishing == (2,)
    # absolute below norm 1: 1e-13 is under the 1e-12 floor, 1e-6 is not
    small = BiComplex(1e-6, 1e-13)
    assert classify(small).kind == "zero_divisor"
    assert classify(BiComplex(1e-6, 1e-6)).kind == "invertible"
    with pytest.raises(InvalidInputError):
        classify(ONE, eps=-1.0)


@pytest.mark.parametrize(
    "Z",
    [BiComplex(1.5e308, 1.5e308), BiComplex(1.5e308 + 1.5e308j, 1e300j)],
    ids=["hypot-overflows", "modulus-overflows"],
)
def test_norm_near_float_max_keeps_large_elements_invertible(Z):
    # the norm once overflowed to inf (or |beta| raised OverflowError), so
    # the tolerance was inf and these read as zero (or escaped as a traceback)
    assert Z.norm() == pytest.approx(1.5e308, rel=1e-15)
    diagnosis = classify(Z)
    assert diagnosis.kind == "invertible" and math.isfinite(diagnosis.threshold)
    inverse = Z.invert()
    assert inverse.beta1 == 1.0 / Z.beta1 and inverse.beta2 == 1.0 / Z.beta2


BIG = BiComplex(1.5e308 + 1.5e308j, 1)


@pytest.mark.parametrize(
    "op, run",
    [
        ("add", lambda: BIG + BIG),
        ("sub", lambda: BIG - (-BIG)),
        ("mul", lambda: BIG * BIG),
        ("invert", lambda: BiComplex(5e-324, 1).invert(eps=0.0)),
    ],
)
def test_ring_result_past_the_floats_is_an_unsupported_instance(op, run):
    # valid operands once gave InvalidInputError "beta1 must be finite"
    with pytest.raises(UnsupportedInstanceError, match=f"^{op} overflows: idempotent component 1"):
        run()


def test_product_is_finite_where_only_a_partial_product_overflows():
    u = complex(1.4e154, 0.5e154)
    assert math.isinf((u * u).real)  # a*c = 1.96e308 passes the floats on the way
    Z = BiComplex(u, 2) * BiComplex(u, 3)
    a, b = Fraction(u.real), Fraction(u.imag)
    assert Z.beta1 == pytest.approx(complex(float(a * a - b * b), float(2 * a * b)), rel=1e-15)
    assert Z.beta2 == 6


def test_coordinates_disagreeing_past_the_floats_stay_an_input_error():
    obj = {
        "idempotent": {"b1": [1.5e308, 0], "b2": [0, 0]},
        "cartesian": {"z1": [-1e308, 0], "z2": [0, 0]},
    }
    with pytest.raises(InvalidInputError, match="disagree"):
        BiComplex.from_json_dict(obj)


def test_cartesian_view_of_a_large_element_is_finite():
    # (beta1 + beta2) / 2 once overflowed: z1 read inf + nan i
    Z = BiComplex(1.5e308, 1.5e308)
    assert Z.cartesian() == (1.5e308, 0j)
    assert BiComplex(1.5e308, -1.5e308).cartesian() == (0j, 1.5e308j)


def test_cartesian_view_keeps_its_values_where_the_sum_is_finite():
    rng = np.random.default_rng(15)
    for _ in range(2000):
        b1, b2 = (
            complex(*(rng.standard_normal(2) * 10.0 ** rng.integers(-300, 300, 2)))
            for _ in range(2)
        )
        Z = BiComplex(b1, b2)
        assert Z.z1 == (b1 + b2) / 2 and Z.z2 == 1j * (b1 - b2) / 2


def test_cartesian_coordinates_past_the_floats_are_an_unsupported_instance():
    # valid coordinates whose beta2 = z1 + i z2 = 3e308 once gave InvalidInputError
    with pytest.raises(UnsupportedInstanceError, match="^from_cartesian overflows: .* 2"):
        BiComplex.from_cartesian(1.5e308, -1.5e308j)
    obj = {"cartesian": {"z1": [1.5e308, 0], "z2": [0, -1.5e308]}}
    with pytest.raises(UnsupportedInstanceError, match="component 2"):
        BiComplex.from_json_dict(obj)
    # beside finite idempotent coordinates they disagree
    obj["idempotent"] = {"b1": [1.5e308, 0], "b2": [1e308, 0]}
    with pytest.raises(InvalidInputError, match="disagree"):
        BiComplex.from_json_dict(obj)


def test_pair_norm_keeps_the_bits_of_hypot_where_it_is_finite():
    from bcorlicz.bicomplex import pair_norm

    rng = np.random.default_rng(14)
    for _ in range(500):
        x1, x2 = np.abs(rng.standard_normal(2)) * 10.0 ** rng.integers(-300, 300, 2)
        Z = BiComplex(complex(*rng.standard_normal(2)), complex(*rng.standard_normal(2)))
        assert pair_norm(x1, x2) == math.hypot(x1, x2) / SQRT2
        assert Z.norm() == math.hypot(abs(Z.beta1), abs(Z.beta2)) / SQRT2
    # past the floats only the scaled form is finite
    assert pair_norm(1.5e308, 1.5e308) == math.hypot(1.5e308 / SQRT2, 1.5e308 / SQRT2)
    assert pair_norm(1.7e308, 1.7e308) < math.inf
    big = sys.float_info.max
    assert pair_norm(big, big) == math.hypot(big / SQRT2, big / SQRT2) < math.inf


def test_invert_componentwise():
    inv = BiComplex(2, 4).invert()
    assert inv == BiComplex(0.5, 0.25)
    assert abs((UNIT_J * UNIT_J.invert() - ONE).norm()) <= 1e-15
    rng = np.random.default_rng(13)
    for _ in range(300):
        Z = random_bc(rng, 2.0)
        if classify(Z).kind != "invertible":
            continue
        assert (Z * Z.invert() - ONE).norm() < 1e-12


def test_invert_rejects_zero_divisors_naming_component():
    with pytest.raises(NotInvertibleError, match="component 2"):
        E.invert()
    with pytest.raises(NotInvertibleError, match="component 1"):
        E_DAGGER.invert()
    try:
        ZERO.invert()
    except NotInvertibleError as exc:
        assert exc.classification.kind == "zero"
        assert exc.classification.vanishing == (1, 2)
    else:
        pytest.fail("expected NotInvertibleError")


def test_square_roots_of_one():
    # solve Z^2 = 1 by hand: z1^2 - z2^2 = 1 and 2 z1 z2 = 0 force
    # (z1, z2) in {(+-1, 0), (0, +-i)}, i.e. {1, -1, k, -k}
    found = poly_roots([-1, 0, 1])
    assert len(found.roots) == 4
    expected = {ONE, -ONE, UNIT_K, -UNIT_K}
    for want in expected:
        assert any((r - want).norm() < 1e-9 for r in found.roots)
    assert found.residual_bound < 1e-10


def test_poly_roots_counts_and_residuals():
    rng = np.random.default_rng(14)
    for _ in range(60):
        deg = int(rng.integers(1, 5))
        roots1 = rng.standard_normal(deg) + 1j * rng.standard_normal(deg)
        roots2 = rng.standard_normal(deg) + 1j * rng.standard_normal(deg)
        asc1 = np.poly(roots1)[::-1]
        asc2 = np.poly(roots2)[::-1]
        coeffs = [BiComplex(c1, c2) for c1, c2 in zip(asc1, asc2)]
        found = poly_roots(coeffs)
        assert len(found.roots) == deg * deg
        scale = max(c.norm() for c in coeffs)
        assert found.residual_bound < 1e-8 * max(1.0, scale)
        # every recombination of component roots appears
        for r1 in roots1:
            for r2 in roots2:
                assert any(
                    abs(r.beta1 - r1) < 1e-6 and abs(r.beta2 - r2) < 1e-6
                    for r in found.roots
                )


def test_poly_coincident_roots_keep_multiplicity():
    # (Z - 1)^2: four coincident recombinations of the double root
    found = poly_roots([1, -2, 1])
    assert len(found.roots) == 4
    assert all((r - ONE).norm() < 1e-6 for r in found.roots)


def test_poly_roots_rejects_degenerate_leading_coefficient():
    with pytest.raises(UnsupportedInstanceError, match="zero_divisor"):
        poly_roots([ONE, E])
    with pytest.raises(InvalidInputError):
        poly_roots([ONE])


def test_poly_eval_horner():
    rng = np.random.default_rng(15)
    coeffs = [random_bc(rng) for _ in range(4)]
    Z = random_bc(rng)
    direct = coeffs[0] + coeffs[1] * Z + coeffs[2] * Z * Z + coeffs[3] * Z * Z * Z
    assert (poly_eval(coeffs, Z) - direct).norm() <= 1e-12 * max(1.0, direct.norm())


def test_component_sets():
    plane = ComponentSet.whole_plane()
    assert plane.contains(123 + 4j)
    points = ComponentSet.finite([1 + 0j, 2j])
    assert points.contains(1) and points.contains(2j) and not points.contains(1.0000001)
    fuzzy = ComponentSet.finite([1 + 0j], tol=1e-6)
    assert fuzzy.contains(1 + 1e-7j)
    disc = ComponentSet.disc(1j, 2.0)
    assert disc.contains(1j + 1.5) and not disc.contains(1j + 2.5)
    half = ComponentSet.half_plane(1, 0.0)  # Re(z) <= 0
    assert half.contains(-1 + 5j) and not half.contains(0.1)
    with pytest.raises(InvalidInputError):
        ComponentSet.disc(0, -1.0)
    with pytest.raises(InvalidInputError):
        ComponentSet.half_plane(0, 0.0)


def test_indicator_is_product_membership():
    disc = ComponentSet.disc(0, 1.0)
    half = ComponentSet.half_plane(1, 0.0)
    rng = np.random.default_rng(16)
    for _ in range(200):
        Z = random_bc(rng)
        want = int(disc.contains(Z.beta1) and half.contains(Z.beta2))
        assert indicator(disc, half, Z) == want
    assert indicator(ComponentSet.finite([1 + 0j]), ComponentSet.finite([0j]), E) == 1
    assert indicator(ComponentSet.finite([0j]), ComponentSet.finite([0j]), E) == 0


def test_json_round_trip_both_forms():
    rng = np.random.default_rng(17)
    for _ in range(100):
        Z = random_bc(rng, 5.0)
        obj = Z.to_json_dict()
        assert set(obj) == {"cartesian", "idempotent"}
        assert BiComplex.from_json_dict(obj) == Z
        assert (BiComplex.from_json_dict({"cartesian": obj["cartesian"]}) - Z).norm() <= 1e-12
        assert BiComplex.from_json_dict({"idempotent": obj["idempotent"]}) == Z


def test_json_rejects_bad_input():
    with pytest.raises(InvalidInputError):
        BiComplex.from_json_dict({"weird": 1})
    with pytest.raises(InvalidInputError):
        BiComplex.from_json_dict({"idempotent": {"b1": [0, 0]}})
    with pytest.raises(InvalidInputError):
        BiComplex.from_json_dict({"idempotent": {"b1": [0, "x"], "b2": [0, 0]}})
    with pytest.raises(InvalidInputError):
        BiComplex.from_json_dict(
            {
                "cartesian": {"z1": [1, 0], "z2": [0, 0]},
                "idempotent": {"b1": [5, 0], "b2": [5, 0]},
            }
        )


def test_non_finite_inputs_rejected():
    with pytest.raises(InvalidInputError):
        BiComplex(float("nan"), 0)
    with pytest.raises(InvalidInputError):
        BiComplex.from_cartesian(float("inf"), 0)
