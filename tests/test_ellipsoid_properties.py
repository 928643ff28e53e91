"""Property tests for the ellipsoid projection and its multiplier.

Instances span dimensions 1-60 and axis scales log-uniform on [1, 1e6];
points lie near the boundary (s - 1 down to 1e-15, s the quadratic form of
the point) or far away (up to 1e4 times a unit normal), some with no offset
along the longest axis.  An extreme regime widens the axis scales to
[1, 1e12] and the far points to 1e8.  Arrays come from a seeded generator so
that one example stays cheap; hypothesis chooses the seeds and the regime.
"""
import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cfeas.geometry import Ellipsoid, project, project_ellipsoid_multiplier
from cfeas.oracles import ellipsoid_bisection
from cfeas.problems import make_rng, random_member

PROPERTY_SETTINGS = settings(max_examples=150)

# bisection bracket wide enough for every multiplier drawn here: the multiplier
# is at most (sqrt(s) - 1) / min(diag) < 1e9
ORACLE_LAM_MAX = 1e12
# residuals |S(lam) - 1| the kernel and the oracle stop at
KERNEL_RESIDUAL, ORACLE_RESIDUAL = 1e-13, 1e-12


@st.composite
def ellipsoid_and_point(draw, inside=False, extreme=False):
    """extreme=True widens the axis scales to [1, 1e12] and the far points to
    1e8 times a unit normal."""
    n = draw(st.integers(1, 60))
    rng = make_rng(draw(st.integers(0, 2**32 - 1)))
    diag = 10.0 ** rng.uniform(0.0, 12.0 if extreme else 6.0, n)
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
        u = u * 10.0 ** draw(st.floats(0.0, 8.0 if extreme else 4.0))
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


def _form(e, z):
    """The ellipsoid's quadratic form sum_i diag_i (z_i - center_i)^2."""
    u = z - e.center
    return float(e.diag @ (u * u))


def _secular(e, u, lam):
    """S(lam) and T(lam), summed directly: -2 T is the slope of S."""
    w = 1.0 / (1.0 + lam * e.diag)
    a = e.diag * u * u * w * w
    return float(a.sum()), float((a * e.diag * w).sum())


@PROPERTY_SETTINGS
@given(ellipsoid_and_point())
def test_point_outside_lands_on_the_boundary(case):
    e, z, _ = case
    p, lam = project_ellipsoid_multiplier(e, z)
    if _form(e, z) > 1.0 + 1e-13:
        assert lam > 0.0
    if lam > 0.0:
        assert abs(_form(e, p) - 1.0) <= 1e-10
    else:
        assert np.array_equal(p, z)


@PROPERTY_SETTINGS
@given(st.one_of(ellipsoid_and_point(), ellipsoid_and_point(extreme=True)))
def test_every_start_lands_on_the_boundary(case):
    """Whichever start the kernel takes, it raises nothing and its multiplier
    solves the secular equation, summed directly, to 1e-10.  In both regimes
    some order-3 starts have a nonpositive denominator or fall outside [lo,
    hi), so the fallback starts run too."""
    e, z, _ = case
    _, lam = project_ellipsoid_multiplier(e, z)
    u = z - e.center
    s = _secular(e, u, 0.0)[0]
    if s > 1.0 + 1e-13:
        assert lam > 0.0
    if lam > 0.0:
        assert abs(_secular(e, u, lam)[0] - 1.0) <= 1e-10


@PROPERTY_SETTINGS
@given(ellipsoid_and_point(inside=True))
def test_point_inside_is_returned_unchanged(case):
    e, z, _ = case
    p, lam = project_ellipsoid_multiplier(e, z)
    assert lam == 0.0
    assert np.array_equal(p, z)


@PROPERTY_SETTINGS
@given(ellipsoid_and_point())
def test_first_newton_step_lies_between_the_lower_bracket_end_and_the_root(case):
    """The kernel's first fallback start, for when the order-3 start is not
    finite or not in [lo, hi): Newton's first iterate from lam = 0, in
    closed form (s^(3/2) - s) / T(0), itself falling back to lo = (sqrt(s) -
    1) / d_max if rounding puts it outside [lo, hi).  In exact arithmetic
    lo <= lam_1 <= root."""
    e, z, _ = case
    u = z - e.center
    s, t0 = _secular(e, u, 0.0)
    assume(s > 1.0)
    lam1 = (s * math.sqrt(s) - s) / t0
    lo = (math.sqrt(s) - 1.0) / e.d_max
    # both ends cancel in sqrt(s) - 1, which is exact to about eps / (s - 1)
    assert lam1 >= lo * (1.0 - 8e-16 * s / (s - 1.0))
    assert _secular(e, u, lam1)[0] >= 1.0 - KERNEL_RESIDUAL


@PROPERTY_SETTINGS
@given(ellipsoid_and_point())
def test_multiplier_matches_bisection_oracle(case):
    """The multipliers agree to 1e-8 relative, or within the interval that the
    two residual tolerances leave: S falls with slope at least 2 T(lam_max)
    between them, so that interval has width at most the summed residuals
    over 2 T(lam_max) (doubled here for rounding)."""
    e, z, _ = case
    _, lam = project_ellipsoid_multiplier(e, z)
    _, want = ellipsoid_bisection(e, z, lam_max=ORACLE_LAM_MAX)
    slope = 2.0 * _secular(e, z - e.center, max(lam, want))[1]
    spread = 2.0 * (KERNEL_RESIDUAL + ORACLE_RESIDUAL) / slope
    assert abs(lam - want) <= 1e-8 * want + spread
