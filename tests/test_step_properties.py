"""Property tests for the circumcenter and the circumcentered step.

Triples lie in dimensions 2-30 at offsets 1e-3 to 1e3 from the origin, with
sides of scale 1e-2 to 1e2.  Instances are those of the JSON round trip in
`test_set_properties.py`: the three generators with parameters drawn across
their valid ranges.  Arrays come from a seeded generator so that one example
stays cheap; hypothesis chooses the seeds, the scales and the kernel.
"""
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cfeas.circumcentering import circumcenter
from cfeas.errors import DegenerateCircumcenter
from cfeas.operators import KernelSpec, circumcentered_step
from cfeas.sampling import make_rng
from test_set_properties import instances

# sin^2 of the triangle's angle at z no smaller than this: far from collinear
MIN_SIN2 = 1e-6
# distances to the three points agree to this fraction of the circumradius
EQUIDISTANCE_RTOL = 1e-9
# a step moves no farther from s_ref than this fraction of ||z - s_ref||, plus
# FEJER_ATOL (1 + ||s_ref||): s_ref lies in both sets only up to rounding
FEJER_RTOL = 1e-9
FEJER_ATOL = 1e-12


@st.composite
def triples(draw):
    rng = make_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 30))
    z = rng.standard_normal(n) * 10.0 ** draw(st.floats(-3.0, 3.0))
    side = 10.0 ** draw(st.floats(-2.0, 2.0))
    return z, side, rng


@settings(max_examples=200)
@given(triples())
def test_circumcenter_is_equidistant_from_its_inputs(case):
    z, side, rng = case
    d1 = side * rng.standard_normal(z.size)
    d2 = side * rng.standard_normal(z.size)
    g11, g22, g12 = d1 @ d1, d2 @ d2, d1 @ d2
    assume(g11 * g22 - g12 * g12 >= MIN_SIN2 * g11 * g22)
    v, w = z + d1, z + d2
    c = circumcenter(z, v, w).center
    dist = [float(np.linalg.norm(c - p)) for p in (z, v, w)]
    assert max(dist) - min(dist) <= EQUIDISTANCE_RTOL * max(dist)


@settings(max_examples=200)
@given(
    triples(),
    st.floats(0.1, 10.0),
    st.floats(0.1, 10.0),
    st.booleans(),
    st.booleans(),
)
def test_distinct_collinear_points_have_no_circumcenter(case, a, b, flip_a, flip_b):
    z, side, rng = case
    a, b = (-a if flip_a else a), (-b if flip_b else b)
    assume(abs(a - b) >= 0.1)
    d = side * rng.standard_normal(z.size)
    with pytest.raises(DegenerateCircumcenter):
        circumcenter(z, z + a * d, z + b * d)


@settings(max_examples=150)
@given(
    instances(),
    st.sampled_from(["Y", "XY", "YXY"]),
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
)
def test_step_is_fejer_monotone_toward_the_reference_point(pair, kernel, alpha):
    """||step(z) - s_ref|| <= ||z - s_ref|| (1 + tol) over the first steps
    from z0; s_ref lies in both sets up to rounding."""
    spec = KernelSpec.from_string(kernel)
    atol = FEJER_ATOL * (1.0 + float(np.linalg.norm(pair.s_ref)))
    z = pair.z0
    for _ in range(3):
        nxt, _ = circumcentered_step(pair, z, alpha, spec)
        before = float(np.linalg.norm(z - pair.s_ref))
        assert float(np.linalg.norm(nxt - pair.s_ref)) <= before * (1.0 + FEJER_RTOL) + atol
        z = nxt
