"""Circumcenter of three points and the parallel circumcentered-reflection step."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DegenerateCircumcenter
from .geometry import MEMBERSHIP_RTOL, ProblemPair, as_point, project

CASE_FULL_RANK = "full_rank"
CASE_COINCIDENT_PAIR = "coincident_pair"
CASE_ALL_COINCIDENT = "all_coincident"

# |det G| below this fraction of ||G||_F^2 triggers the degenerate handling
_GRAM_DET_RTOL = 1e-14


@dataclass(frozen=True)
class CircumcenterResult:
    center: np.ndarray
    case: str


def circumcenter(z, v, w) -> CircumcenterResult:
    """Equidistant point to {z, v, w} inside their affine hull.

    Solves the 2x2 Gram system G (a, b)^T = (||v-z||^2, ||w-z||^2)^T / 2 for
    c = z + a (v - z) + b (w - z).  Coincident inputs fall back to midpoints;
    distinct collinear triples have no equidistant point in their span and
    raise DegenerateCircumcenter.
    """
    z, v, w = as_point(z), as_point(v), as_point(w)
    if not (z.shape == v.shape == w.shape):
        raise ValueError("circumcenter inputs must share one dimension")
    d1 = v - z
    d2 = w - z
    scale = max(
        1.0,
        float(np.linalg.norm(z)),
        float(np.linalg.norm(v)),
        float(np.linalg.norm(w)),
    )
    tiny = 1e-14 * scale
    n1 = float(np.linalg.norm(d1))
    n2 = float(np.linalg.norm(d2))
    nvw = float(np.linalg.norm(v - w))
    if n1 <= tiny and n2 <= tiny:
        return CircumcenterResult(z.copy(), CASE_ALL_COINCIDENT)
    if nvw <= tiny:
        return CircumcenterResult(0.5 * (z + v), CASE_COINCIDENT_PAIR)
    if n1 <= tiny:
        return CircumcenterResult(0.5 * (z + w), CASE_COINCIDENT_PAIR)
    if n2 <= tiny:
        return CircumcenterResult(0.5 * (z + v), CASE_COINCIDENT_PAIR)

    g11 = float(d1 @ d1)
    g22 = float(d2 @ d2)
    g12 = float(d1 @ d2)
    det = g11 * g22 - g12 * g12
    gnorm2 = g11 * g11 + 2.0 * g12 * g12 + g22 * g22
    if det <= _GRAM_DET_RTOL * gnorm2:
        # Distinct collinear points: equidistance would force w == z or w == v,
        # which the coincidence branches above already cover.
        raise DegenerateCircumcenter(
            "distinct collinear points admit no circumcenter in their span"
        )
    a = 0.5 * (g11 * g22 - g22 * g12) / det
    b = 0.5 * (g22 * g11 - g11 * g12) / det
    return CircumcenterResult(z + a * d1 + b * d2, CASE_FULL_RANK)


def pcrm(
    pair: ProblemPair,
    z,
    px: Optional[np.ndarray] = None,
    py: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Circumcenter of z with its two reflections across X and Y.

    Membership shortcuts are explicit branches: a point already in Y maps to
    its X-projection (and symmetrically), which is also the numerically robust
    path near convergence where the reflections nearly coincide with z.
    Precomputed projections may be passed in to honor projection-count budgets.
    """
    z = as_point(z)
    if px is None:
        px = project(pair.X, z)
    if py is None:
        py = project(pair.Y, z)
    tol = MEMBERSHIP_RTOL * (1.0 + float(np.linalg.norm(z)))
    if float(np.linalg.norm(z - py)) <= tol:
        return px.copy()
    if float(np.linalg.norm(z - px)) <= tol:
        return py.copy()
    return circumcenter(z, 2.0 * px - z, 2.0 * py - z).center
