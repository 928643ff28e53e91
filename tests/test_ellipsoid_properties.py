"""Property tests for the ellipsoid projection and its multiplier.

Instances span dimensions 1-60 and axis scales log-uniform on [1, 1e6];
points lie near the boundary (s - 1 down to 1e-15, s the quadratic form of
the point) or far away (up to 1e4 times a unit normal), some with no offset
along the longest axis.  Arrays come from a seeded generator so that one
example stays cheap; hypothesis chooses the seeds and the regime.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cfeas.geometry import Ellipsoid, project, project_ellipsoid_multiplier
from cfeas.oracles import ellipsoid_bisection
from cfeas.sampling import make_rng, random_member

PROPERTY_SETTINGS = settings(max_examples=150)

# bisection bracket wide enough for every multiplier drawn here: the multiplier
# is at most (sqrt(s) - 1) / min(diag) < 1e9
ORACLE_LAM_MAX = 1e12


@st.composite
def ellipsoid_and_point(draw, inside=False):
    n = draw(st.integers(1, 60))
    rng = make_rng(draw(st.integers(0, 2**32 - 1)))
    diag = 10.0 ** rng.uniform(0.0, 6.0, n)
    e = Ellipsoid(rng.standard_normal(n), diag)
    u = rng.standard_normal(n)
    if draw(st.booleans()):
        u[np.argmin(diag)] = 0.0  # no offset along the longest axis
    if not np.any(u):
        u = np.ones(n)
    boundary = u / np.sqrt(float(diag @ (u * u)))
    if inside:
        margin = 10.0 ** draw(st.floats(-12.0, 0.0))
        u = boundary * np.sqrt(1.0 - margin)
    elif draw(st.booleans()):
        excess = 10.0 ** draw(st.floats(-15.0, 0.0))
        u = boundary * np.sqrt(1.0 + excess)
    else:
        u = u * 10.0 ** draw(st.floats(0.0, 4.0))
    return e, e.center + u, rng


@PROPERTY_SETTINGS
@given(ellipsoid_and_point())
def test_projection_matches_bisection_oracle(case):
    e, z, _ = case
    p = project(e, z)
    q, _ = ellipsoid_bisection(e, z, lam_max=ORACLE_LAM_MAX)
    assert np.linalg.norm(p - q) <= 1e-8 * (1.0 + np.linalg.norm(q))


@PROPERTY_SETTINGS
@given(ellipsoid_and_point())
def test_characteristic_inequality_against_members(case):
    e, z, rng = case
    p = project(e, z)
    for _ in range(5):
        x = random_member(e, rng)
        ip = float((z - p) @ (x - p))
        assert ip <= 1e-9 * (1.0 + np.linalg.norm(z - p)) * (1.0 + np.linalg.norm(x - p))


@PROPERTY_SETTINGS
@given(ellipsoid_and_point(), st.floats(-6.0, 1.0))
def test_projection_is_nonexpansive(case, log_step):
    e, z, rng = case
    w = z + 10.0 ** log_step * rng.standard_normal(e.dim)
    gap = float(np.linalg.norm(project(e, z) - project(e, w)))
    assert gap <= float(np.linalg.norm(z - w)) + 1e-12 * (1.0 + np.linalg.norm(z))


@PROPERTY_SETTINGS
@given(ellipsoid_and_point())
def test_point_outside_lands_on_the_boundary(case):
    e, z, _ = case
    p, lam = project_ellipsoid_multiplier(e, z)
    if e.quadratic(z) > 1.0 + 1e-13:
        assert lam > 0.0
    if lam > 0.0:
        assert abs(e.quadratic(p) - 1.0) <= 1e-10
    else:
        assert np.array_equal(p, z)


@PROPERTY_SETTINGS
@given(ellipsoid_and_point(inside=True))
def test_point_inside_is_returned_unchanged(case):
    e, z, _ = case
    p, lam = project_ellipsoid_multiplier(e, z)
    assert lam == 0.0
    assert np.array_equal(p, z)
