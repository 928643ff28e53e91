"""The premise of the ellipsoid projection's order-3 start, on the points MAP
projects.

`geometry.project_ellipsoid_multiplier` starts its Newton solve from the
Householder step of order 3 at lam = 0.  Its three moments are three more
rows of the product that computes s, plus a few scalar operations; they pay
off only if the start usually lands within the residual tolerance, so that
the solve ends at its first evaluation of S.  This test collects the points
that MAP projects on the ellipsoid bench family and recomputes that start
from its defining derivatives with direct sums, independently of the
kernel's arithmetic.  Newton's first iterate from lam = 0 (the start before the
order-3 step) meets the same check on none of these points.
"""
import numpy as np

import cfeas.geometry
from cfeas.problems import generate
from cfeas.solver import SolverConfig, solve

RESIDUAL_TOL = 1e-13  # the kernel's stopping residual |S(lam) - 1|


def _order3_start(d, u):
    """3 g0 (2 g1^2 - g0 g2) / (-6 g1^3 + 6 g0 g1 g2 - g0^2 g3), g_k the
    derivatives at 0 of g = S^(-1/2) - 1, from the moments sum d^k u^2."""
    s, m1, m2, m3 = (float((d**k * u * u).sum()) for k in (1, 2, 3, 4))
    g0 = s**-0.5 - 1.0
    g1 = s**-1.5 * m1
    g2 = 3.0 * s**-2.5 * m1 * m1 - 3.0 * s**-1.5 * m2
    g3 = 15.0 * s**-3.5 * m1 * m1 * m1 - 27.0 * s**-2.5 * m1 * m2 + 12.0 * s**-1.5 * m3
    return 3.0 * g0 * (2.0 * g1 * g1 - g0 * g2) / (
        -6.0 * g1 * g1 * g1 + 6.0 * g0 * g1 * g2 - g0 * g0 * g3
    )


def _secular(d, u, lam):
    w = 1.0 / (1.0 + lam * d)
    return float((d * u * u * w * w).sum())


def test_order3_start_ends_most_projections_at_the_first_evaluation(monkeypatch):
    points = []
    kernel = cfeas.geometry.project_ellipsoid_multiplier

    def collecting(e, z):
        points.append((e, np.array(z)))
        return kernel(e, z)

    monkeypatch.setattr(cfeas.geometry, "project_ellipsoid_multiplier", collecting)
    for seed in range(3):
        pair = generate("ellipsoids", seed, n=100, cond=1.5, tangency_gap=1e-3)
        trace = solve(pair, SolverConfig(method="map", eps=1e-4))
        assert trace.status == "converged"
    outside = hits = 0
    for e, z in points:
        u = z - e.center
        if _secular(e.diag, u, 0.0) <= 1.0:
            continue
        outside += 1
        lam = _order3_start(e.diag, u)
        hits += abs(_secular(e.diag, u, lam) - 1.0) <= RESIDUAL_TOL
    assert outside > 1000
    assert hits >= 0.8 * outside, f"{hits} of {outside} starts within {RESIDUAL_TOL}"
