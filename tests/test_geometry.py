"""Projection, distance, and membership behavior for every set variant."""
import dataclasses
import warnings
import zlib

import numpy as np
import pytest

from cfeas.errors import DimensionMismatch, EigenFailure, NonconvergedProjection
from cfeas.geometry import (
    Ball,
    Box,
    Ellipsoid,
    EntryMask,
    Halfspace,
    PsdCone,
    distance,
    project,
    project_ellipsoid_multiplier,
    project_psd,
    stopping_gap,
)
from cfeas.oracles import ellipsoid_bisection, psd_nearest
from cfeas.problems import VARIANTS, make_rng, random_member, random_point, random_set

MEMBERSHIP_RTOL = 1e-12


def _contains(set_, z):
    """Membership up to rounding: dist(z, C) <= MEMBERSHIP_RTOL (1 + ||z||)."""
    return distance(set_, z) <= MEMBERSHIP_RTOL * (1.0 + float(np.linalg.norm(z)))


def _form(e, z):
    """The ellipsoid's quadratic form sum_i diag_i (z_i - center_i)^2."""
    u = z - e.center
    return float(e.diag @ (u * u))


def _seed(*key) -> int:
    """A seed fixed by its key in every process, unlike the salted hash()."""
    return zlib.crc32(repr(key).encode())


def test_halfspace_projection_closed_form():
    hs = Halfspace(normal=np.array([0.0, 1.0]), offset=1.0)
    assert np.allclose(project(hs, np.array([3.0, 5.0])), [3.0, 1.0])
    # interior points are fixed
    assert np.allclose(project(hs, np.array([3.0, -2.0])), [3.0, -2.0])


def test_box_projection_componentwise():
    box = Box(lo=np.array([0.0, -1.0]), hi=np.array([1.0, 1.0]))
    assert np.allclose(project(box, np.array([2.0, -3.0])), [1.0, -1.0])
    assert np.allclose(project(box, np.array([0.5, 0.0])), [0.5, 0.0])


def test_ball_projection_radial():
    ball = Ball(center=np.array([1.0, 0.0]), radius=2.0)
    z = np.array([5.0, 0.0])
    assert np.allclose(project(ball, z), [3.0, 0.0])
    assert distance(ball, z) == pytest.approx(2.0)


def test_projection_idempotent_all_variants():
    for variant in VARIANTS:
        for seed in range(20):
            rng = make_rng(_seed("idempotent", variant, seed))
            c = random_set(variant, rng)
            z = random_point(c.dim, rng)
            p = project(c, z)
            p2 = project(c, p)
            assert np.linalg.norm(p2 - p) <= 1e-9 * (1.0 + np.linalg.norm(p)), variant


def test_projection_nonexpansive_all_variants():
    for variant in VARIANTS:
        for seed in range(20):
            rng = make_rng(_seed("nonexpansive", variant, seed))
            c = random_set(variant, rng)
            a = random_point(c.dim, rng)
            b = random_point(c.dim, rng)
            lhs = np.linalg.norm(project(c, a) - project(c, b))
            rhs = np.linalg.norm(a - b)
            assert lhs <= rhs + 1e-9 * (1.0 + rhs)


def test_projection_pythagorean_inequality():
    # <z - Pz, m - Pz> <= 0 for any member m characterizes the projection
    for variant in VARIANTS:
        for seed in range(20):
            rng = make_rng(_seed("pythagorean", variant, seed))
            c = random_set(variant, rng)
            z = random_point(c.dim, rng)
            p = project(c, z)
            m = random_member(c, rng)
            ip = float((z - p) @ (m - p))
            scale = (1.0 + np.linalg.norm(z)) * (1.0 + np.linalg.norm(m))
            assert ip <= 1e-8 * scale, variant


def test_ellipsoid_newton_matches_bisection():
    rng = make_rng(42)
    for _ in range(50):
        n = int(rng.integers(2, 30))
        e = Ellipsoid(
            center=rng.standard_normal(n),
            diag=np.exp(rng.uniform(-1.0, 3.0, n)),
        )
        z = rng.standard_normal(n) * 3.0
        p = project(e, z)
        q, _ = ellipsoid_bisection(e, z)
        assert np.linalg.norm(p - q) <= 1e-8 * (1.0 + np.linalg.norm(q))


def test_ellipsoid_boundary_point_when_outside():
    e = Ellipsoid(center=np.zeros(3), diag=np.array([1.0, 4.0, 9.0]))
    z = np.array([5.0, 5.0, 5.0])
    p = project(e, z)
    assert _form(e, p) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize(
    "diag,u",
    [
        ([1e80, 1e160, 1e80], [3e-40, 0.0, 1e-40]),
        ([1e80, 1e160], [1e-40, 2e-80]),
        ([1e-100, 1e-220], [0.0, 1e115]),
    ],
    ids=["zero_on_the_largest_axis", "both_axes", "squared_ratio_underflows"],
)
def test_ellipsoid_extreme_axis_scales_project_without_warnings(diag, u):
    """The cached axis-scale powers stay finite, and so does every moment of
    the start: axis scales of 1e160 overflow no power, and a zero offset
    meets no infinite one.  At 1e-220 beside 1e-100 the first moment's row
    underflows to 0, and the kernel starts from the lower bracket end."""
    u = np.array(u)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        e = Ellipsoid(np.zeros(len(diag)), np.array(diag))
        p, lam = project_ellipsoid_multiplier(e, u)
    hi = (np.sqrt(_form(e, u)) - 1.0) / min(diag)
    q, _ = ellipsoid_bisection(e, u, lam_max=2.0 * hi)
    assert lam > 0.0
    assert np.linalg.norm(p - q) <= 1e-8 * np.linalg.norm(q)
    assert _form(e, p) == pytest.approx(1.0, rel=0.0, abs=1e-12)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_ellipsoid_offset_whose_square_overflows_raises():
    """The kernel needs u * u finite: an offset of 1e160 raises rather than
    returning a wrong point, though its quadratic form 1e220 is finite."""
    e = Ellipsoid(np.zeros(2), np.array([1e-100, 1.0]))
    with pytest.raises(NonconvergedProjection):
        project_ellipsoid_multiplier(e, np.array([1e160, 0.0]))


def test_ellipsoid_multiplier_zero_inside():
    e = Ellipsoid(center=np.zeros(2), diag=np.array([1.0, 1.0]))
    p, lam = project_ellipsoid_multiplier(e, np.array([0.1, 0.2]))
    assert lam == 0.0
    assert np.allclose(p, [0.1, 0.2])


def test_psd_projection_matches_descent_oracle():
    rng = make_rng(7)
    for _ in range(10):
        n = int(rng.integers(2, 8))
        m = rng.standard_normal((n, n))
        p = project_psd(m.reshape(-1), n).reshape(n, n)
        q = psd_nearest(m)
        sym = 0.5 * (m + m.T)
        # both are the nearest PSD matrix to sym; distances must agree
        assert np.linalg.norm(p - sym) <= np.linalg.norm(q - sym) + 1e-6
        assert np.linalg.norm(p - q) <= 1e-5 * (1.0 + np.linalg.norm(p))


def test_psd_oracle_matches_a_known_spectrum():
    # A = Q diag(lam) Q^T with |lam| spread over 1e-12..1e3, about 30% exact
    # zeros and mixed signs; its nearest PSD matrix Q diag(max(lam, 0)) Q^T
    # depends on neither project_psd nor the oracle
    rng = make_rng(13)
    for case in range(200):
        n = int(rng.integers(2, 9))
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        lam = 10.0 ** rng.uniform(-12.0, 3.0, n) * rng.choice([-1.0, 1.0], n)
        lam[rng.random(n) < 0.3] = 0.0
        lam = [lam, np.abs(lam), -np.abs(lam)][case % 3]  # mixed, PSD, NSD
        want = (q * np.maximum(lam, 0.0)) @ q.T
        err = np.linalg.norm(psd_nearest((q * lam) @ q.T) - want)
        assert err <= 1e-10 * (1.0 + np.linalg.norm(want)), (case, lam)


def test_psd_projection_is_psd_and_fixes_psd_input():
    rng = make_rng(11)
    a = rng.standard_normal((6, 6))
    spd = a @ a.T
    assert np.allclose(project_psd(spd.reshape(-1), 6).reshape(6, 6), spd)
    p = project_psd(rng.standard_normal(36), 6).reshape(6, 6)
    w = np.linalg.eigvalsh(0.5 * (p + p.T))
    assert w.min() >= -1e-12


def test_project_flattens_a_matrix_point():
    m = make_rng(4).standard_normal((3, 3))
    assert np.array_equal(project(PsdCone(3), m), project(PsdCone(3), m.reshape(-1)))


def test_psd_projection_wraps_eigh_failure(monkeypatch):
    def fail(m):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(EigenFailure, match="did not converge"):
        project_psd(np.eye(2).reshape(-1), 2)


def test_psd_cone_descriptor_roundtrip():
    cone = PsdCone(4)
    rng = make_rng(5)
    z = rng.standard_normal(16)
    p = project(cone, z)
    mat = p.reshape(4, 4)
    assert np.allclose(mat, mat.T)
    assert np.linalg.eigvalsh(mat).min() >= -1e-12


def test_entry_mask_projection_pins_entries():
    rows = np.array([0, 1, 0, 1])
    cols = np.array([0, 1, 1, 0])
    values = np.array([2.0, 3.0, 1.0, 1.0])
    mask = EntryMask(2, rows, cols, values)
    z = np.zeros(4)
    p = project(mask, z).reshape(2, 2)
    assert p[0, 0] == 2.0 and p[1, 1] == 3.0 and p[0, 1] == 1.0 and p[1, 0] == 1.0


def test_entry_mask_requires_symmetric_data():
    with pytest.raises(ValueError):
        EntryMask(2, np.array([0]), np.array([1]), np.array([5.0]))


def test_contains_and_gap():
    from cfeas.geometry import ProblemPair

    ball = Ball(center=np.zeros(2), radius=1.0)
    hs = Halfspace(normal=np.array([1.0, 0.0]), offset=0.0)
    z = np.array([2.0, 0.0])
    assert not _contains(ball, z)
    assert _contains(hs, np.array([-1.0, 0.0]))
    pair = ProblemPair(X=ball, Y=hs, z0=z)
    assert stopping_gap(pair, z)[0] == pytest.approx(2.0)


def test_dimension_mismatch_raised():
    ball = Ball(center=np.zeros(3), radius=1.0)
    with pytest.raises(DimensionMismatch):
        project(ball, np.zeros(4))
    # the solve path skips these checks; the public entry points keep them
    with pytest.raises(DimensionMismatch):
        project_ellipsoid_multiplier(Ellipsoid(np.zeros(3), np.ones(3)), np.zeros(2))
    with pytest.raises(DimensionMismatch):
        project_psd(np.zeros(5), 2)


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_nonfinite_input_surfaces_as_error():
    from cfeas.errors import CfeasError, NonconvergedProjection
    from cfeas.geometry import ProblemPair

    ball = Ball(center=np.zeros(2), radius=1.0)
    with pytest.raises(CfeasError):
        project(ball, np.array([np.nan, 0.0]))
    pair = ProblemPair(X=ball, Y=Ellipsoid(np.zeros(2), np.ones(2)), z0=np.ones(2))
    for bad in (np.array([np.nan, 0.0]), np.array([np.inf, 0.0])):
        with pytest.raises(NonconvergedProjection):
            stopping_gap(pair, bad)
        with pytest.raises(NonconvergedProjection):
            project_ellipsoid_multiplier(pair.Y, bad)


@pytest.mark.parametrize("order", [0, -1])
@pytest.mark.parametrize(
    "make", [PsdCone, lambda order: EntryMask(order, [], [], [])], ids=["psd_cone", "entry_mask"]
)
def test_matrix_set_order_below_one_rejected_at_construction(make, order):
    with pytest.raises(ValueError, match="order must be >= 1"):
        make(order)


@pytest.mark.parametrize(
    "variant,field",
    [
        ("halfspace", "normal"),
        ("halfspace", "offset"),
        ("box", "lo"),
        ("box", "hi"),
        ("ball", "center"),
        ("ball", "radius"),
        ("ellipsoid", "center"),
        ("ellipsoid", "diag"),
        ("entry_mask", "values"),
    ],
)
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_nonfinite_set_parameter_rejected_at_construction(variant, field, bad):
    set_ = random_set(variant, make_rng(7))
    value = getattr(set_, field)
    if np.ndim(value):
        value = value.copy()
        value[0] = bad
    else:
        value = bad
    with pytest.raises(ValueError, match="finite"):
        dataclasses.replace(set_, **{field: value})
