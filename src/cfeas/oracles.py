"""Independent reference oracles, and the `oracle-check` suites that
compare the library with them.

Each oracle deliberately avoids the code path it cross-checks: the ellipsoid
oracle bisects the multiplier instead of running Newton, the PSD oracle
takes the symmetric polar factor from one SVD instead of clamping the
eigenvalues of an eigh, and the two-halfspace oracle enumerates active sets.
The step's circumcenter has no second implementation here: it is checked
against its definition, equidistance and the affine span by least squares
(`circumcenter_residuals`), and, at a centralized point, against the
projection onto the two supporting halfspaces.  The suites in SUITES call
the library's projections, the step's circumcenter and `pcrm`, and compare
them with these oracles, which themselves stay independent of it, and with
the defining properties: equidistance for the circumcenter; for every
projection, idempotence, nonexpansiveness of P and of 2P - I, and the
characteristic inequality.
"""
from __future__ import annotations

import numpy as np

from . import operators
from .errors import InvalidSpec
from .geometry import Ball, Ellipsoid, Halfspace, ProblemPair, as_point, project, project_psd
from .problems import VARIANTS, make_rng, random_member, random_point, random_set

# bisection stops once the secular residual is this small
BISECTION_RESIDUAL_TOL = 1e-12
# a two-halfspace candidate is feasible when each violation <a, x> - b is at
# most this times (1 + ||z||) (1 + ||a||)
HALFSPACE_FEASIBILITY_RTOL = 1e-10


def ellipsoid_bisection(e: Ellipsoid, z, lam_max: float = 1e6) -> tuple[np.ndarray, float]:
    """Projection onto an ellipsoid by pure bisection of the multiplier."""
    z = as_point(z)
    d = e.diag
    u = z - e.center
    du2 = d * u * u
    if float(np.sum(du2)) <= 1.0:
        return z.copy(), 0.0

    def phi(lam: float) -> float:
        w = 1.0 + lam * d
        return float(np.sum(du2 / (w * w))) - 1.0

    lo, hi = 0.0, lam_max
    if phi(hi) > 0.0:
        raise ValueError("multiplier exceeds the bisection bracket")
    for _ in range(400):
        mid = 0.5 * (lo + hi)
        r = phi(mid)
        if abs(r) <= BISECTION_RESIDUAL_TOL:
            lo = hi = mid
            break
        if r > 0.0:
            lo = mid
        else:
            hi = mid
    lam = 0.5 * (lo + hi)
    return e.center + u / (1.0 + lam * d), lam


def psd_nearest(m: np.ndarray) -> np.ndarray:
    """Frobenius-nearest PSD matrix to S = sym(m), in Higham's closed form.

    The nearest PSD matrix is (S + H) / 2, where H = V diag(sigma) V^T is the
    symmetric polar factor of S, read off one SVD S = U diag(sigma) V^T
    (Higham, Linear Algebra Appl. 103, 1988).  No eigendecomposition and no
    clamped eigenvalue, so it shares neither routine nor formula with
    `project_psd`.
    """
    m = np.asarray(m, dtype=float)
    sym = 0.5 * (m + m.T)
    _, sigma, vt = np.linalg.svd(sym)
    out = 0.5 * (sym + (vt.T * sigma) @ vt)
    return 0.5 * (out + out.T)


def project_two_halfspaces(z, a1, b1: float, a2, b2: float) -> np.ndarray:
    """Exact projection onto {x : <a1,x> <= b1} ∩ {x : <a2,x> <= b2}.

    Active-set enumeration: try the point itself, each single-constraint
    projection, then the joint equality system.
    """
    z = as_point(z)
    a1 = as_point(a1)
    a2 = as_point(a2)
    scale = HALFSPACE_FEASIBILITY_RTOL * (1.0 + float(np.linalg.norm(z)))

    def feasible(x):
        return (
            float(a1 @ x) - b1 <= scale * (1.0 + np.linalg.norm(a1))
            and float(a2 @ x) - b2 <= scale * (1.0 + np.linalg.norm(a2))
        )

    candidates = []
    if feasible(z):
        return z.copy()
    p1 = z - ((float(a1 @ z) - b1) / float(a1 @ a1)) * a1
    if feasible(p1):
        candidates.append(p1)
    p2 = z - ((float(a2 @ z) - b2) / float(a2 @ a2)) * a2
    if feasible(p2):
        candidates.append(p2)
    g = np.array([[float(a1 @ a1), float(a1 @ a2)], [float(a1 @ a2), float(a2 @ a2)]])
    rhs = np.array([b1 - float(a1 @ z), b2 - float(a2 @ z)])
    det = g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]
    if abs(det) > 1e-14 * (g[0, 0] * g[1, 1] + g[0, 1] * g[0, 1]):
        mu = np.linalg.solve(g, rhs)
        p12 = z + mu[0] * a1 + mu[1] * a2
        if feasible(p12):
            candidates.append(p12)
    if not candidates:
        raise ValueError("no feasible active-set candidate found")
    return min(candidates, key=lambda x: float(np.linalg.norm(x - z)))


def supporting_halfspace_projection(z, px, py) -> np.ndarray:
    """Project z onto the intersection of its two supporting halfspaces, from
    px = P_X z and py = P_Y z.

    The supporting halfspace of X at P_X z has normal z - P_X z and passes
    through P_X z (similarly for Y).  A vanishing normal means z lies in the
    set and the constraint is vacuous.  The normals are scaled to unit
    length so that the feasibility test of `project_two_halfspaces` bounds
    a distance: with normals as short as z's distances to the sets, a z
    within about 1e-5 of both would pass it and come back unprojected.
    """
    scale = 1e-12 * (1.0 + float(np.linalg.norm(z)))
    active = []
    for p in (px, py):
        normal = z - p
        norm = float(np.linalg.norm(normal))
        if norm > scale:
            active.append((normal / norm, float(normal @ p) / norm))
    if not active:
        return z.copy()
    if len(active) == 1:
        a, b = active[0]
        viol = float(a @ z) - b
        return z.copy() if viol <= 0 else z - (viol / float(a @ a)) * a
    (a1, b1), (a2, b2) = active
    return project_two_halfspaces(z, a1, b1, a2, b2)


def wedge_distance_to_intersection(pair: ProblemPair, z) -> float:
    """dist(z, X ∩ Y) for a pair of halfspaces, via exact two-constraint QP."""
    if not (isinstance(pair.X, Halfspace) and isinstance(pair.Y, Halfspace)):
        raise TypeError("exact intersection distance needs two halfspaces")
    p = project_two_halfspaces(
        z, pair.X.normal, pair.X.offset, pair.Y.normal, pair.Y.offset
    )
    return float(np.linalg.norm(as_point(z) - p))


def circumcenter_residuals(z, v, w, c) -> tuple[float, float]:
    """(max equidistance deviation, affine-span least-squares residual) of c."""
    z, v, w, c = map(as_point, (z, v, w, c))
    rz = float(np.linalg.norm(c - z))
    equi = max(
        abs(rz - float(np.linalg.norm(c - v))),
        abs(rz - float(np.linalg.norm(c - w))),
    )
    basis = np.stack([v - z, w - z], axis=1)
    coef, *_ = np.linalg.lstsq(basis, c - z, rcond=None)
    span = float(np.linalg.norm(basis @ coef - (c - z)))
    return equi, span


def oracle_check(suite: str, seeds=range(10)) -> dict:
    """Run the suite SUITES names over seeds; returns a machine-readable report."""
    if suite not in SUITES:
        raise InvalidSpec(f"unknown oracle suite {suite!r}")
    failures = SUITES[suite](seeds)
    return {
        "suite": suite,
        "seeds": list(seeds),
        "failures": failures,
        "ok": not failures,
    }


def _check_projections(seeds) -> list:
    failures = []
    for seed in seeds:
        rng = make_rng(1000 + seed)
        ell = random_set("ellipsoid", rng, dim=6)
        z = random_point(6, rng)
        got = project(ell, z)
        want, _ = ellipsoid_bisection(ell, z)
        err = float(np.linalg.norm(got - want))
        if err > 1e-8 * (1.0 + np.linalg.norm(want)):
            failures.append({"seed": seed, "case": "ellipsoid", "error": err})
        m = rng.standard_normal((4, 4))
        m = 0.5 * (m + m.T)
        got = project_psd(m.reshape(-1), 4).reshape(4, 4)
        want = psd_nearest(m)
        err = float(np.linalg.norm(got - want))
        if err > 1e-8 * (1.0 + np.linalg.norm(want)):
            failures.append({"seed": seed, "case": "psd", "error": err})
    return failures


def _check_circumcenter(seeds) -> list:
    failures = []
    for seed in seeds:
        rng = make_rng(2000 + seed)
        dim = int(rng.integers(2, 8))
        # the step's circumcenter against z and its reflections z - 2 dx, z - 2 dy
        z = random_point(dim, rng)
        dx = random_point(dim, rng)
        dy = random_point(dim, rng)
        c = operators.circumcenter(z, dx, dy, float(np.linalg.norm(dx)), float(np.linalg.norm(dy)))
        # relative to the circumradius too, which grows without bound as dx
        # and dy turn antiparallel
        error = max(circumcenter_residuals(z, z - 2.0 * dx, z - 2.0 * dy, c))
        if error > 1e-9 * (1.0 + float(np.linalg.norm(z)) + float(np.linalg.norm(c - z))):
            failures.append({"seed": seed, "case": "equidistance", "error": error})
        # a strictly centralized point via the centralizer on a ball pair: unit
        # balls whose centers lie sqrt(2) to 2 apart intersect, and near the rim
        # of the intersection their outward normals meet at an obtuse angle.
        # The point is redrawn until they do, well clear of the step's
        # strictness test, so that `pcrm` takes its circumcenter.
        c1 = rng.standard_normal(dim)
        offset = rng.standard_normal(dim)
        offset *= rng.uniform(1.5, 1.95) / np.linalg.norm(offset)
        pair = ProblemPair(X=Ball(c1, 1.0), Y=Ball(c1 + offset, 1.0), z0=np.zeros(dim))
        while True:
            y = project(pair.Y, c1 + 0.5 * offset + random_point(dim, rng, scale=1.0))
            n, _ = operators.centralize(pair, y, float(rng.uniform(0.2, 0.8)))
            px, py = project(pair.X, n), project(pair.Y, n)
            nx, ny = n - px, n - py
            if float(nx @ ny) < -1e-6 * float(np.linalg.norm(nx) * np.linalg.norm(ny)):
                break
        got, _ = operators.pcrm(n, px, py)
        want = supporting_halfspace_projection(n, px, py)
        err = float(np.linalg.norm(got - want))
        if err > 1e-8 * (1.0 + np.linalg.norm(want)):
            failures.append({"seed": seed, "case": "pcrm-vs-qp", "error": err})
    return failures


def _check_invariants(seeds) -> list:
    """The properties of a projection P onto any closed convex set, on every
    variant: idempotence, P and the reflector 2P - I nonexpansive, and the
    characteristic inequality <z - Pz, x - Pz> <= 0 for each member x."""
    failures = []
    for seed in seeds:
        rng = make_rng(3000 + seed)
        for variant in VARIANTS:
            set_ = random_set(variant, rng)
            z, w = random_point(set_.dim, rng), random_point(set_.dim, rng)
            pz, pw = project(set_, z), project(set_, w)
            err = float(np.linalg.norm(pz - project(set_, pz)))
            if err > 1e-12:
                failures.append({"seed": seed, "case": f"{variant}-idempotence", "error": err})
            bound = float(np.linalg.norm(z - w)) + 1e-9
            if float(np.linalg.norm(pz - pw)) > bound:
                failures.append({"seed": seed, "case": f"{variant}-nonexpansive"})
            if float(np.linalg.norm((2.0 * pz - z) - (2.0 * pw - w))) > bound:
                failures.append({"seed": seed, "case": f"{variant}-reflection"})
            x = random_member(set_, rng)
            # in Pythagorean form: |z - x|^2 >= |z - Pz|^2 + |Pz - x|^2
            lhs = float(np.linalg.norm(z - x)) ** 2
            rhs = float(np.linalg.norm(z - pz)) ** 2 + float(np.linalg.norm(pz - x)) ** 2
            if lhs < rhs - 1e-9 * (1.0 + lhs):
                failures.append({"seed": seed, "case": f"{variant}-characteristic"})
    return failures


# suite name -> check(seeds), which returns the failures it found
SUITES = {
    "projections": _check_projections,
    "circumcenter": _check_circumcenter,
    "invariants": _check_invariants,
}
