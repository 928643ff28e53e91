"""Independent brute-force oracles used for verification.

Each oracle deliberately avoids the code path it cross-checks: the ellipsoid
oracle bisects the multiplier instead of running Newton, the PSD oracle
minimizes a factored objective instead of clamping eigenvalues, and the
two-halfspace oracle enumerates active sets instead of circumcentering.
"""
from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .errors import CfeasError
from .geometry import Ellipsoid, Halfspace, ProblemPair, as_point, project
from .sampling import make_rng


def ellipsoid_bisection(
    e: Ellipsoid, z, residual_tol: float = 1e-12, lam_max: float = 1e6
) -> tuple[np.ndarray, float]:
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
        if abs(r) <= residual_tol:
            lo = hi = mid
            break
        if r > 0.0:
            lo = mid
        else:
            hi = mid
    lam = 0.5 * (lo + hi)
    return e.center + u / (1.0 + lam * d), lam


def psd_nearest_descent(m: np.ndarray, seed: int = 0) -> np.ndarray:
    """Frobenius-nearest PSD matrix via gradient descent on a factored form.

    Minimizes f(L) = 0.25 ||L L^T - sym(M)||_F^2 over full n x n factors L
    (no spurious local minima for this objective), so the result is the PSD
    projection without ever forming an eigendecomposition.  The only oracle
    that needs scipy, so scipy loads here and not with the package.
    """
    try:
        from scipy.optimize import minimize
    except ImportError:
        raise CfeasError(
            "oracle-check projections needs scipy (install cfeas[test])"
        ) from None
    m = np.asarray(m, dtype=float)
    n = m.shape[0]
    sym = 0.5 * (m + m.T)
    scale = max(1.0, float(np.linalg.norm(sym)))
    rng = make_rng(seed)
    l0 = math.sqrt(scale) * rng.standard_normal((n, n)) / math.sqrt(n)

    def fun(flat):
        l = flat.reshape(n, n)
        resid = l @ l.T - sym
        return 0.25 * float(np.sum(resid * resid)), (resid @ l).reshape(-1)

    res = minimize(
        fun,
        l0.reshape(-1),
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": 100_000, "gtol": 1e-16, "ftol": 0.0},
    )
    # L-BFGS stalls once objective decrements fall below float64 resolution;
    # finish with plain gradient descent in extended precision
    l = res.x.reshape(n, n).astype(np.longdouble)
    s_ld = sym.astype(np.longdouble)
    eta = np.longdouble(0.05 / scale)
    target = np.longdouble(1e-16) * scale * scale
    for _ in range(50_000):
        grad = (l @ l.T - s_ld) @ l
        l = l - eta * grad
        if np.linalg.norm(grad) <= target:
            break
    out = (l @ l.T).astype(float)
    return 0.5 * (out + out.T)


def project_two_halfspaces(
    z, a1, b1: float, a2, b2: float, tol: float = 1e-10
) -> np.ndarray:
    """Exact projection onto {x : <a1,x> <= b1} ∩ {x : <a2,x> <= b2}.

    Active-set enumeration: try the point itself, each single-constraint
    projection, then the joint equality system.
    """
    z = as_point(z)
    a1 = as_point(a1)
    a2 = as_point(a2)
    scale = tol * (1.0 + float(np.linalg.norm(z)))

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


def supporting_halfspace_projection(
    pair: ProblemPair,
    z,
    px: Optional[np.ndarray] = None,
    py: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Project z onto the intersection of its two supporting halfspaces.

    The supporting halfspace of X at P_X z has normal z - P_X z and passes
    through P_X z (similarly for Y).  A vanishing normal means z lies in the
    set and the constraint is vacuous.
    """
    z = as_point(z)
    if px is None:
        px = project(pair.X, z)
    if py is None:
        py = project(pair.Y, z)
    n1 = z - px
    n2 = z - py
    scale = 1e-12 * (1.0 + float(np.linalg.norm(z)))
    active = []
    if float(np.linalg.norm(n1)) > scale:
        active.append((n1, float(n1 @ px)))
    if float(np.linalg.norm(n2)) > scale:
        active.append((n2, float(n2 @ py)))
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
