"""The closed-form Young-function facts of ``classify_phi`` against floats.

Hypothesis draws ``u`` log-uniformly in ``[1e-6, 1e6]`` for each family
and checks the table's doubling constant ``K``, convexity and least
elasticity ``alpha`` against ``phi`` evaluated in doubles; a second test
checks that ``K`` and ``alpha`` are approached, so neither is loose.  The
series tables of ``OrliczFunction.series`` are checked against ``phi`` in
50-digit decimals, up to their cut.
"""

import math
from decimal import Decimal, localcontext

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcorlicz import OrliczFunction, classify_phi

PROPERTY_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)

# p stays at most 40, so u^p is a normal float over the whole range of u
phis = st.one_of(
    st.floats(1.0, 40.0).map(OrliczFunction.power),
    st.just(OrliczFunction.exp_type()),
    st.just(OrliczFunction.entropy()),
)
points = st.floats(-6.0, 6.0).map(lambda e: 10.0**e)
steps = st.floats(-6.0, 0.0).map(lambda e: 10.0**e)


@PROPERTY_SETTINGS
@given(phis, points)
def test_doubling_constant_bounds_phi(phi, u):
    k = classify_phi(phi).k
    if math.isfinite(k):
        assert phi(2 * u) <= k * phi(u) * (1 + 1e-12)


@PROPERTY_SETTINGS
@given(phis, points, points)
def test_phi_is_midpoint_convex(phi, a, b):
    assert classify_phi(phi).convexity_ok
    assert phi((a + b) / 2) <= (phi(a) + phi(b)) / 2 * (1 + 1e-12)


@PROPERTY_SETTINGS
@given(phis, points, steps)
def test_least_elasticity_bounds_log_slope(phi, u, h):
    alpha = classify_phi(phi).alpha
    v = u * (1 + h)
    lo, hi = phi(u), phi(v)
    if math.isinf(lo):
        return
    a, b = math.log(lo), math.log(hi)
    assert b - a >= alpha * math.log(v / u) - 1e-12 * max(1.0, abs(a), abs(b))


@pytest.mark.parametrize(
    "spec, u, k_near, alpha_near",
    [
        ("power:p=2.5", 3.0, 2.0**2.5, 2.5),
        ("exp", 1e-4, 4.0, 2.0),
        ("entropy", 1e-8, 4.0, None),
        ("entropy", 1e300, None, 1.0),
    ],
)
def test_constants_are_approached(spec, u, k_near, alpha_near):
    phi = OrliczFunction.parse(spec)
    facts = classify_phi(phi)
    if k_near is not None:
        assert phi(2 * u) / phi(u) == pytest.approx(k_near, rel=1e-3)
        assert phi(2 * u) / phi(u) <= facts.k * (1 + 1e-12)
    if alpha_near is not None:
        h = 1e-6
        slope = (math.log(phi(u * (1 + h))) - math.log(phi(u))) / math.log1p(h)
        assert slope == pytest.approx(alpha_near, rel=1e-2)
        assert facts.alpha == alpha_near


@PROPERTY_SETTINGS
@given(st.sampled_from(("exp", "entropy")), st.floats(1e-6, 1.0))
def test_series_gives_phi_to_rounding_up_to_its_cut(spec, share):
    cut, coeffs = OrliczFunction.parse(spec).series()
    with localcontext() as ctx:
        ctx.prec = 50
        u = Decimal(share * cut)
        exact = u.exp() - u - 1 if spec == "exp" else u * (1 + u).ln()
        inner = Decimal(0)
        for a in coeffs:
            inner = inner * u + Decimal(a)
        # the terms left out, and the coefficients' own rounding
        assert abs(u * u * inner - exact) <= Decimal(2.0**-52) * exact
