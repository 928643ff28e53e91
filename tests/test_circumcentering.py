"""Circumcenter of a point and its two reflections, and the PCRM operator."""
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

import cfeas.operators
from cfeas.geometry import Ball, Halfspace, ProblemPair, project
from cfeas.operators import KernelSpec, centralize, circumcenter, circumcentered_step, pcrm
from cfeas.oracles import (
    circumcenter_residuals,
    oracle_check,
    supporting_halfspace_projection,
)
from cfeas.problems import generate, make_rng
from test_acceptance import closed_form_center, is_strictly_centralized


def test_equidistance_and_span_random_triples():
    rng = make_rng(0)
    for _ in range(300):
        dim = int(rng.integers(2, 11))
        z = rng.standard_normal(dim)
        v = rng.standard_normal(dim)
        w = rng.standard_normal(dim)
        c = closed_form_center(z, v, w)
        eq, span = circumcenter_residuals(z, v, w, c)
        scale = 1.0 + max(np.linalg.norm(z), np.linalg.norm(v), np.linalg.norm(w))
        assert eq <= 1e-9 * scale
        assert span <= 1e-9 * scale


def test_planar_triangle_matches_analytic_circumcenter():
    # right triangle: circumcenter is the hypotenuse midpoint
    z = np.array([0.0, 0.0])
    v = np.array([4.0, 0.0])
    w = np.array([0.0, 2.0])
    assert np.allclose(closed_form_center(z, v, w), [2.0, 1.0], atol=1e-12)


def test_circumcenter_embeds_in_higher_dimension():
    rng = make_rng(3)
    z2 = np.array([0.0, 0.0])
    v2 = np.array([4.0, 0.0])
    w2 = np.array([0.0, 2.0])
    q, _ = np.linalg.qr(rng.standard_normal((7, 2)))
    shift = rng.standard_normal(7)
    c = closed_form_center(q @ z2 + shift, q @ v2 + shift, q @ w2 + shift)
    assert np.allclose(c, q @ np.array([2.0, 1.0]) + shift, atol=1e-10)


def _wedge(normal_y):
    X = Halfspace(np.array([1.0, 0.0]), 0.0)
    Y = Halfspace(np.asarray(normal_y, dtype=float), 0.0)
    return ProblemPair(X=X, Y=Y, z0=np.array([1.0, 1.0]))


def test_pcrm_obtuse_wedge_reaches_apex():
    # X = {x1 <= 0}, Y = {-0.6 x1 + 0.8 x2 <= 0}: (1, 1) lies in the normal
    # cone of X ∩ Y at the origin, and both reflections keep its norm
    pair = _wedge([-0.6, 0.8])
    z = np.array([1.0, 1.0])
    out, ip = pcrm(z, project(pair.X, z), project(pair.Y, z))
    assert np.allclose(out, [0.0, 0.0], atol=1e-12)
    assert ip == pytest.approx(-0.12, abs=1e-15)


@pytest.mark.parametrize(
    "eps, strict",
    [(0.0, False), (1e-12, False), (1e-10, False), (1e-9, False),
     (1e-7, True), (1e-3, True), (0.3, True)],
)
def test_pcrm_takes_px_exactly_when_not_strictly_centralized(eps, strict):
    # Y's normal turns eps past X's orthogonal one; the displacement cosine
    # at (1, 1) is about -eps, against the strictness threshold 1e-8
    pair = _wedge([-math.sin(eps), math.cos(eps)])
    z = np.array([1.0, 1.0])
    out, _ = pcrm(z, project(pair.X, z), project(pair.Y, z))
    assert is_strictly_centralized(pair, z) == strict
    if strict:
        assert np.allclose(out, [0.0, 0.0], atol=1e-12)
    else:
        assert np.array_equal(out, project(pair.X, z))


def test_pcrm_at_a_point_of_y_takes_the_strictness_branch():
    # z in Y, in X ∩ Y or in X: z - P_Y z = 0 or z - P_X z = 0, so the inner
    # product is 0, z is not strictly centralized, and pcrm returns P_X z
    X = Ball(np.zeros(3), 1.0)
    Y = Halfspace(np.array([0.0, 0.0, 1.0]), 0.5)
    pair = ProblemPair(X=X, Y=Y, z0=np.zeros(3))
    for z in ([3.0, 0.0, 0.0], [0.0, 0.6, 0.2], [0.0, 0.0, 0.9]):
        z = np.array(z)
        out, ip = pcrm(z, project(pair.X, z), project(pair.Y, z))
        assert ip == 0.0
        assert not is_strictly_centralized(pair, z)
        assert np.array_equal(out, project(pair.X, z))


@pytest.mark.parametrize("inner", ["X", "Y"])
def test_pcrm_takes_px_on_nested_halfspaces_with_one_normal(inner):
    # {x1 <= 0} inside {x1 <= 1}: outside both, dx and dy are parallel and
    # point the same way, where the closed form would divide 0 by 0
    small = Halfspace(np.array([1.0, 0.0]), 0.0)
    large = Halfspace(np.array([1.0, 0.0]), 1.0)
    X, Y = (small, large) if inner == "X" else (large, small)
    pair = ProblemPair(X=X, Y=Y, z0=np.zeros(2))
    z = np.array([3.0, -2.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out, ip = pcrm(z, project(pair.X, z), project(pair.Y, z))
    assert ip > 0.0
    assert np.array_equal(out, project(pair.X, z))


def test_circumcenter_is_none_at_exactly_antiparallel_normals():
    z = np.array([0.5, 0.3, -2.0])
    dx = np.array([0.5, 0.0, 0.0])
    dy = np.array([-0.25, 0.0, 0.0])
    assert circumcenter(z, dx, dy, 0.5, 0.25) is None


def test_pcrm_matches_supporting_halfspace_qp_on_centralized_points():
    # the centralizer output is always centralized, so it feeds the identity
    # PCRM(z) = P over the intersection of the two supporting halfspaces
    rng = make_rng(9)
    strict = 0
    for _ in range(500):
        dim = int(rng.integers(2, 8))
        c1 = rng.standard_normal(dim)
        u = _unit(rng, dim)
        c2 = c1 + rng.uniform(1.7, 1.95) * u
        v = rng.standard_normal(dim)
        v -= (v @ u) * u
        v /= np.linalg.norm(v)
        pair = ProblemPair(X=Ball(c1, 1.0), Y=Ball(c2, 1.0), z0=np.zeros(dim))
        # a lateral boundary point of Y whose X-projection leaves Y, so small
        # interpolation weights produce strictly centralized points
        y = project(pair.Y, c2 + 3.0 * v)
        z, px = centralize(pair, y, float(rng.uniform(0.05, 0.3)))
        py = project(pair.Y, z)
        if float((z - px) @ (z - py)) < -1e-10:
            strict += 1
        out, _ = pcrm(z, px, py)
        ref = supporting_halfspace_projection(z, px, py)
        assert np.linalg.norm(out - ref) <= 1e-8 * (1.0 + np.linalg.norm(ref))
        if is_strictly_centralized(pair, z):
            # the closed form against an exact rational solve of the Gram
            # system of the two supporting hyperplanes
            ref = _exact_step(z, px, py)
            err = math.sqrt(sum((Fraction(float(g)) - r) ** 2 for g, r in zip(out, ref)))
            size = math.sqrt(sum(r * r for r in ref))
            assert err <= 1e-8 * (1.0 + size)
    assert strict >= 50


def _exact_step(z, px, py):
    """The point of the two supporting hyperplanes nearest to z, in exact
    rational arithmetic on the floats z, P_X z and P_Y z: c = z - a dx - b dy
    with [[dx.dx, dx.dy], [dx.dy, dy.dy]] (a, b) = (dx.dx, dy.dy)."""
    z, px, py = ([Fraction(float(t)) for t in p] for p in (z, px, py))
    dx = [s - t for s, t in zip(z, px)]
    dy = [s - t for s, t in zip(z, py)]
    gxx = sum(t * t for t in dx)
    gyy = sum(t * t for t in dy)
    gxy = sum(s * t for s, t in zip(dx, dy))
    det = gxx * gyy - gxy * gxy
    a = (gxx - gxy) * gyy / det
    b = (gyy - gxy) * gxx / det
    return [s - a * t - b * u for s, t, u in zip(z, dx, dy)]


@pytest.mark.parametrize("eps", [1e-1, 1e-4, 1e-6, 1e-7, 1e-8])
def test_pcrm_is_accurate_at_nearly_antiparallel_normals(eps):
    # two halfspaces through px and py whose normals meet at angle pi - eps:
    # the step lands about 1/eps away, where a float solve of the Gram system
    # of z and its two reflections loses about 1/eps^2 of relative accuracy;
    # the closed form loses about 1/eps
    rng = make_rng(26)
    worst = 0.0
    for _ in range(100):
        dim = int(rng.integers(2, 9))
        q, _ = np.linalg.qr(rng.standard_normal((dim, 2)))
        a1 = q[:, 0]
        a2 = -math.cos(eps) * q[:, 0] + math.sin(eps) * q[:, 1]
        z = rng.standard_normal(dim)
        b1 = float(a1 @ (z - rng.uniform(0.1, 2.0) * a1))
        b2 = float(a2 @ (z - rng.uniform(0.1, 2.0) * a2))
        pair = ProblemPair(X=Halfspace(a1, b1), Y=Halfspace(a2, b2), z0=z)
        px, py = project(pair.X, z), project(pair.Y, z)
        got, _ = pcrm(z, px, py)
        want = _exact_step(z, px, py)
        err = math.sqrt(sum((Fraction(float(g)) - w) ** 2 for g, w in zip(got, want)))
        step = math.sqrt(sum((w - Fraction(float(t))) ** 2 for w, t in zip(want, z)))
        worst = max(worst, err / (1.0 + step))
    assert worst <= 1e-14 / eps


def test_pcrm_takes_px_at_exactly_antiparallel_normals():
    # X = {x1 <= 0} and Y = {x1 >= 1} are disjoint and parallel: z between
    # them is strictly centralized, but the supporting hyperplanes never meet
    pair = ProblemPair(
        X=Halfspace(np.array([1.0, 0.0, 0.0]), 0.0),
        Y=Halfspace(np.array([-1.0, 0.0, 0.0]), -1.0),
        z0=np.zeros(3),
    )
    for z in (np.array([0.5, 0.3, -2.0]), np.array([0.25, 0.0, 7.0])):
        out, ip = pcrm(z, project(pair.X, z), project(pair.Y, z))
        assert ip < 0.0 and is_strictly_centralized(pair, z)
        assert np.isfinite(out).all()
        assert np.array_equal(out, project(pair.X, z))


@pytest.mark.parametrize("alpha, noise", [(1e-13, True), (1e-6, False)])
def test_step_takes_px_when_a_normal_is_rounding_noise(alpha, noise):
    # a wedge whose normals meet at pi - 0.03: at alpha = 1e-13 the
    # centralized n lies about 14 ulps from P_X t, so n - P_X n has no
    # direction to speak of, and a circumcenter taken from it landed 24 times
    # farther from the apex than z0; at alpha = 1e-6 the normal is resolved
    pair = generate("halfspace_wedge", 0, n=2, theta=0.03125)
    first = project(pair.Y, pair.z0)
    _, px_t = centralize(pair, first, alpha)
    out, _ = circumcentered_step(pair, first, alpha, KernelSpec("Y"))
    assert np.array_equal(out, px_t) == noise
    assert np.linalg.norm(out - pair.s_ref) < np.linalg.norm(pair.z0 - pair.s_ref)


def test_pcrm_calls_the_closed_form_only_below_e_one(monkeypatch):
    # strictness, cos(u, v) < -1e-8, keeps e = 1 + cos(u, v) below 1 and so
    # away from e = 2, where the closed form divides 0 by 0
    seen = []
    inner = cfeas.operators.circumcenter

    def recorded(z, dx, dy, norm_dx, norm_dy):
        w = dx / norm_dx + dy / norm_dy
        seen.append(0.5 * float(w @ w))
        return inner(z, dx, dy, norm_dx, norm_dy)

    monkeypatch.setattr(cfeas.operators, "circumcenter", recorded)
    z = np.array([1.0, 1.0])
    for eps in np.geomspace(1e-9, 1e-7, 41):
        pair = _wedge([-math.sin(eps), math.cos(eps)])
        pcrm(z, project(pair.X, z), project(pair.Y, z))
    rng = make_rng(29)
    for _ in range(1000):
        dim = int(rng.integers(2, 6))
        a1, a2 = rng.standard_normal(dim), rng.standard_normal(dim)
        pair = ProblemPair(X=Halfspace(a1, 0.0), Y=Halfspace(a2, 0.0), z0=np.zeros(dim))
        z = rng.standard_normal(dim)
        pcrm(z, project(pair.X, z), project(pair.Y, z))
    assert len(seen) >= 100
    assert max(seen) < 1.0


def _unit(rng, dim):
    u = rng.standard_normal(dim)
    return u / np.linalg.norm(u)


def test_circumcenter_suite_reaches_the_step_on_every_seed(monkeypatch):
    # the equidistance case calls the step's circumcenter, and the ball-pair
    # case hands `pcrm` a strictly centralized point, which calls it again
    calls = []
    inner = cfeas.operators.circumcenter

    def counted(*args):
        calls.append(1)
        return inner(*args)

    monkeypatch.setattr(cfeas.operators, "circumcenter", counted)
    assert oracle_check("circumcenter", range(20))["ok"]
    assert len(calls) == 40


def test_circumcenter_suite_catches_a_shifted_step(monkeypatch):
    inner = cfeas.operators.circumcenter
    monkeypatch.setattr(cfeas.operators, "circumcenter", lambda *args: inner(*args) + 1e-3)
    report = oracle_check("circumcenter", range(20))
    assert not report["ok"]
    assert {f["case"] for f in report["failures"]} == {"equidistance", "pcrm-vs-qp"}


def test_circumcenter_suite_bounds_equidistance_by_the_circumradius():
    # at seed 28742 dx and dy are nearly antiparallel (cos = -1 + 3.3e-8) and
    # the circumradius is 1.5e4: the residual of 1.9e-8 is 1.3e-12 of it
    assert oracle_check("circumcenter", [28742])["ok"]


def test_supporting_halfspace_projection_projects_a_point_just_outside_both_sets():
    # unit balls centered 1.6 apart meet on the rim x = 0, y = +-0.6, where
    # their outward normals are obtuse; a point 1e-6 above it lies about 6e-7
    # outside both balls, and its step must still move it onto both
    # supporting hyperplanes rather than return it as feasible
    pair = ProblemPair(
        X=Ball(np.array([-0.8, 0.0]), 1.0), Y=Ball(np.array([0.8, 0.0]), 1.0), z0=np.zeros(2)
    )
    z = np.array([0.0, 0.6 + 1e-6])
    px, py = project(pair.X, z), project(pair.Y, z)
    got = supporting_halfspace_projection(z, px, py)
    want = _exact_step(z, px, py)
    err = math.sqrt(sum((Fraction(float(g)) - w) ** 2 for g, w in zip(got, want)))
    assert np.linalg.norm(got - z) > 5e-7
    assert err <= 1e-15
