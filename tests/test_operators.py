"""Kernel validation, centralizer properties, and the full solver step."""
import numpy as np
import pytest

from cfeas.errors import InvalidKernel
from cfeas.geometry import Ball, Halfspace, ProblemPair, distance, project
from cfeas.operators import (
    KERNEL_STANDARD,
    KernelSpec,
    apply_kernel,
    centralize,
    circumcentered_step,
    pcrm,
)
from cfeas.problems import make_rng
from test_acceptance import is_strictly_centralized

MEMBERSHIP_RTOL = 1e-12

_KERNELS = (KernelSpec.from_string("Y"), KERNEL_STANDARD, KernelSpec.from_string("YXY"))


def _contains(set_, z):
    """Membership up to rounding: dist(z, C) <= MEMBERSHIP_RTOL (1 + ||z||)."""
    return distance(set_, z) <= MEMBERSHIP_RTOL * (1.0 + float(np.linalg.norm(z)))


def _ball_pair(rng, dim=4, sep=1.2):
    c1 = rng.standard_normal(dim)
    u = rng.standard_normal(dim)
    u /= np.linalg.norm(u)
    return ProblemPair(X=Ball(c1, 1.0), Y=Ball(c1 + sep * u, 1.0), z0=np.zeros(dim))


def test_kernel_spec_parsing_and_str():
    assert KernelSpec.from_string("xy") == "XY" == KERNEL_STANDARD
    assert str(KernelSpec.from_string("YXY")) == "YXY"
    assert len(KernelSpec.from_string("Y")) == 1 and len(KERNEL_STANDARD) == 2


def test_kernel_spec_rejects_bad_token_sequences():
    with pytest.raises(InvalidKernel, match="outermost"):
        KernelSpec("X")
    with pytest.raises(InvalidKernel, match="at least one token"):
        KernelSpec("")
    with pytest.raises(InvalidKernel, match="adjacent"):
        KernelSpec("YY")
    with pytest.raises(InvalidKernel, match="kernel token 'Z'"):
        KernelSpec("ZY")


def test_kernel_image_lies_in_y():
    rng = make_rng(1)
    for spec in _KERNELS:
        for _ in range(30):
            pair = _ball_pair(rng)
            z = rng.standard_normal(pair.dim) * 3.0
            t = apply_kernel(spec, pair, project(pair.X if spec[0] == "X" else pair.Y, z))
            assert _contains(pair.Y, t)


def test_kernel_quasi_nonexpansive_wrt_intersection():
    rng = make_rng(2)
    for spec in _KERNELS:
        for _ in range(30):
            pair = _ball_pair(rng)
            # midpoint of the two centers lies in both unit balls (sep < 2)
            s = 0.5 * (pair.X.center + pair.Y.center)
            z = rng.standard_normal(pair.dim) * 3.0
            t = apply_kernel(spec, pair, project(pair.X if spec[0] == "X" else pair.Y, z))
            assert np.linalg.norm(t - s) <= np.linalg.norm(z - s) + 1e-10


def test_centralizer_output_is_centralized():
    rng = make_rng(3)
    for _ in range(200):
        pair = _ball_pair(rng, dim=int(rng.integers(2, 7)))
        z = rng.standard_normal(pair.dim) * 3.0
        t = apply_kernel(KERNEL_STANDARD, pair, project(pair.X, z))
        alpha = float(rng.uniform(0.05, 0.95))
        n, px_t = centralize(pair, t, alpha)
        ip = pcrm(n, project(pair.X, n), project(pair.Y, n))[1]
        scale = (1.0 + np.linalg.norm(n)) ** 2
        assert ip <= 1e-9 * scale


def test_centralize_reuse_contract():
    # P_X of the interpolated point equals the reused P_X(t)
    rng = make_rng(4)
    for _ in range(50):
        pair = _ball_pair(rng)
        z = rng.standard_normal(pair.dim) * 3.0
        t = apply_kernel(KERNEL_STANDARD, pair, project(pair.X, z))
        n, px_t = centralize(pair, t, 0.3)
        assert np.allclose(project(pair.X, n), px_t, atol=1e-10)


def test_centralize_validates_alpha():
    rng = make_rng(5)
    pair = _ball_pair(rng)
    with pytest.raises(ValueError):
        centralize(pair, pair.z0, 0.0)
    with pytest.raises(ValueError):
        centralize(pair, pair.z0, 1.0)


def test_strict_centralization_for_kernel_output_off_intersection():
    # t in P_Y(X) but outside S gives a strictly centralized interpolant
    rng = make_rng(6)
    hits = 0
    for _ in range(200):
        dim = int(rng.integers(2, 7))
        c1 = rng.standard_normal(dim)
        u = rng.standard_normal(dim)
        u /= np.linalg.norm(u)
        pair = ProblemPair(
            X=Ball(c1, 1.0), Y=Ball(c1 + 1.9 * u, 1.0), z0=np.zeros(dim)
        )
        z = rng.standard_normal(dim) * 4.0
        t = apply_kernel(KERNEL_STANDARD, pair, project(pair.X, z))
        if distance(pair.X, t) <= 1e-9:
            continue  # t in S: nothing to test
        n, _ = centralize(pair, t, float(rng.uniform(0.1, 0.9)))
        if is_strictly_centralized(pair, n):
            hits += 1
    assert hits >= 20


def test_step_orthogonal_halfspaces_one_shot():
    X = Halfspace(np.array([1.0, 0.0]), 0.0)
    Y = Halfspace(np.array([0.0, 1.0]), 0.0)
    pair = ProblemPair(X=X, Y=Y, z0=np.array([1.0, 1.0]))
    first = project(pair.Y, pair.z0)
    nxt, _ = circumcentered_step(pair, first, 0.5, KernelSpec.from_string("Y"))
    assert np.allclose(nxt, [0.0, 0.0], atol=1e-12)


def test_step_never_increases_distance_to_feasible_point():
    rng = make_rng(8)
    for _ in range(100):
        pair = _ball_pair(rng, dim=int(rng.integers(2, 7)))
        s = 0.5 * (pair.X.center + pair.Y.center)
        z = rng.standard_normal(pair.dim) * 3.0
        for spec in _KERNELS:
            first = project(pair.X if spec[0] == "X" else pair.Y, z)
            nxt, _ = circumcentered_step(pair, first, float(rng.uniform(0.1, 0.9)), spec)
            assert np.linalg.norm(nxt - s) <= np.linalg.norm(z - s) + 1e-9
