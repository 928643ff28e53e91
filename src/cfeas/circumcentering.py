"""Circumcenter of three points."""
from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateCircumcenter
from .geometry import as_point

# |det G| below this fraction of ||G||_F^2 triggers the degenerate handling
_GRAM_DET_RTOL = 1e-14


def circumcenter(z, v, w) -> np.ndarray:
    """Equidistant point to {z, v, w} inside their affine hull.

    Solves the 2x2 Gram system G (a, b)^T = (||v-z||^2, ||w-z||^2)^T / 2 for
    c = z + a (v - z) + b (w - z).  Coincident inputs fall back to midpoints;
    distinct collinear triples have no equidistant point in their span and
    raise DegenerateCircumcenter.

    Each norm is computed once, as math.sqrt(float(v.dot(v))), the bits of
    numpy's 1-D norm; ||v - z||^2 and ||w - z||^2 are also the Gram diagonal.
    """
    z, v, w = as_point(z), as_point(v), as_point(w)
    if not (z.shape == v.shape == w.shape):
        raise ValueError("circumcenter inputs must share one dimension")
    d1 = v - z
    d2 = w - z
    scale = max(
        1.0,
        math.sqrt(float(z.dot(z))),
        math.sqrt(float(v.dot(v))),
        math.sqrt(float(w.dot(w))),
    )
    tiny = 1e-14 * scale
    g11 = float(d1.dot(d1))
    g22 = float(d2.dot(d2))
    n1 = math.sqrt(g11)
    n2 = math.sqrt(g22)
    vw = v - w
    nvw = math.sqrt(float(vw.dot(vw)))
    if n1 <= tiny and n2 <= tiny:
        return z.copy()
    if nvw <= tiny:
        return 0.5 * (z + v)
    if n1 <= tiny:
        return 0.5 * (z + w)
    if n2 <= tiny:
        return 0.5 * (z + v)

    g12 = float(d1.dot(d2))
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
    return z + a * d1 + b * d2
