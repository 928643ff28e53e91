"""Catalog of closed convex sets with metric projections and distances.

Points are plain 1-D float arrays.  Sets of symmetric n x n matrices operate
on length-n^2 row-major vectors; the projections re-enforce symmetry so the
matrix embedding stays consistent after every operation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .errors import DimensionMismatch, EigenFailure, InvalidSpec, NonconvergedProjection

# Secular-equation solve for the ellipsoid projection
_ELLIPSOID_RESIDUAL_TOL = 1e-13
_ELLIPSOID_MAX_ITER = 200

# Eigenvalues below this fraction of the spectral norm clamp to exactly 0
_PSD_CLAMP_RTOL = 1e-14


def as_point(x) -> np.ndarray:
    z = np.asarray(x, dtype=float)
    if z.ndim != 1:
        z = z.reshape(-1)
    return z


@dataclass(frozen=True)
class Halfspace:
    """{x : <normal, x> <= offset}."""

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        object.__setattr__(self, "normal", as_point(self.normal))
        object.__setattr__(self, "offset", float(self.offset))
        if not (np.isfinite(self.normal).all() and math.isfinite(self.offset)):
            raise ValueError("halfspace normal and offset must be finite")
        if not np.any(self.normal):
            raise ValueError("halfspace normal must be nonzero")

    @property
    def dim(self) -> int:
        return self.normal.shape[0]

    def _project(self, z: np.ndarray) -> np.ndarray:
        a = self.normal
        viol = float(a.dot(z)) - self.offset
        if viol <= 0.0:
            return z.copy()
        return z - (viol / float(a.dot(a))) * a


@dataclass(frozen=True)
class Box:
    """{x : lo <= x <= hi} componentwise."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lo", as_point(self.lo))
        object.__setattr__(self, "hi", as_point(self.hi))
        if not (np.isfinite(self.lo).all() and np.isfinite(self.hi).all()):
            raise ValueError("box bounds must be finite")
        if self.lo.shape != self.hi.shape or np.any(self.lo > self.hi):
            raise ValueError("box requires lo <= hi of equal length")

    @property
    def dim(self) -> int:
        return self.lo.shape[0]

    def _project(self, z: np.ndarray) -> np.ndarray:
        return np.clip(z, self.lo, self.hi)


@dataclass(frozen=True)
class Ball:
    """{x : ||x - center|| <= radius}."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", as_point(self.center))
        object.__setattr__(self, "radius", float(self.radius))
        if not (np.isfinite(self.center).all() and math.isfinite(self.radius)):
            raise ValueError("ball center and radius must be finite")
        if self.radius <= 0.0:
            raise ValueError("ball radius must be positive")

    @property
    def dim(self) -> int:
        return self.center.shape[0]

    def _project(self, z: np.ndarray) -> np.ndarray:
        u = z - self.center
        r = math.sqrt(float(u.dot(u)))
        if r <= self.radius:
            return z.copy()
        return self.center + (self.radius / r) * u


@dataclass(frozen=True)
class Ellipsoid:
    """Axis-aligned ellipsoid {x : sum_i diag_i (x_i - center_i)^2 <= 1}."""

    center: np.ndarray
    diag: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "center", as_point(self.center))
        object.__setattr__(self, "diag", as_point(self.diag))
        if self.center.shape != self.diag.shape:
            raise ValueError("ellipsoid center and diag must share length")
        if np.any(self.diag <= 0.0) or not np.all(np.isfinite(self.diag)):
            raise ValueError("ellipsoid axis scales must be positive and finite")
        if not np.isfinite(self.center).all():
            raise ValueError("ellipsoid center must be finite")
        # extreme axis scales bracket the projection's multiplier, and the
        # reciprocal axis scales give its weights mu / (mu + lam)
        object.__setattr__(self, "d_min", float(np.min(self.diag)))
        object.__setattr__(self, "d_max", float(np.max(self.diag)))
        object.__setattr__(self, "mu", 1.0 / self.diag)
        # rows d (d / d_max)^k, k = 0..3: each row's dot with u^2 is a moment
        # of the projection's start, and no entry exceeds d, so none overflows
        powers = self.diag * (self.diag / self.d_max) ** np.arange(4.0)[:, None]
        object.__setattr__(self, "powers", powers)

    @property
    def dim(self) -> int:
        return self.center.shape[0]

    def _project(self, z: np.ndarray) -> np.ndarray:
        return project_ellipsoid_multiplier(self, z)[0]


@dataclass(frozen=True)
class PsdCone:
    """Symmetric positive semidefinite matrices of a given order (n^2 vector)."""

    order: int

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("PSD cone order must be >= 1")

    @property
    def dim(self) -> int:
        return self.order * self.order

    def _project(self, z: np.ndarray) -> np.ndarray:
        return project_psd(z, self.order)


@dataclass(frozen=True)
class EntryMask:
    """Matrices agreeing with prescribed values on a symmetric index set."""

    order: int
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("entry mask order must be >= 1")
        object.__setattr__(self, "rows", np.asarray(self.rows, dtype=int))
        object.__setattr__(self, "cols", np.asarray(self.cols, dtype=int))
        object.__setattr__(self, "values", as_point(self.values))
        if not (len(self.rows) == len(self.cols) == len(self.values)):
            raise ValueError("rows, cols, values must have equal length")
        if not np.isfinite(self.values).all():
            raise ValueError("entry mask values must be finite")
        n = self.order
        if np.any((self.rows < 0) | (self.rows >= n) | (self.cols < 0) | (self.cols >= n)):
            raise ValueError("mask index out of range")
        flat = self.rows * n + self.cols
        # a pair given twice keeps its last value, its first occurrence in the
        # reversed order; the mask is symmetric iff sorting the transposed
        # indices gives the indices back, each with the same value
        uniq, first_rev = np.unique(flat[::-1], return_index=True)
        pinned = self.values[::-1][first_rev]
        i, j = np.divmod(uniq, n)
        transposed = j * n + i
        perm = np.argsort(transposed)
        if not (np.array_equal(transposed[perm], uniq) and np.array_equal(pinned[perm], pinned)):
            raise ValueError("entry mask must be symmetric with equal values")
        object.__setattr__(self, "_flat", flat.astype(int))

    @property
    def dim(self) -> int:
        return self.order * self.order

    def _project(self, z: np.ndarray) -> np.ndarray:
        out = z.copy()
        out[self._flat] = self.values
        return out


SetDescriptor = Union[Halfspace, Box, Ball, Ellipsoid, PsdCone, EntryMask]


def project_ellipsoid_multiplier(e: Ellipsoid, z) -> tuple[np.ndarray, float]:
    """Projection onto an ellipsoid with its Lagrange multiplier.

    With u = z - center and w_i = 1 / (1 + lam d_i) = mu_i / (mu_i + lam),
    mu_i = 1 / d_i, the projection is center + u w and the multiplier solves
    the secular equation S(lam) = sum_i d_i u_i^2 w_i^2 = 1, S decreasing on
    [0, inf).

    Bracket: with s = S(0), s / (1 + lam d_max)^2 <= S(lam) <= s / (1 + lam
    d_min)^2, so the root lies in [lo, hi] = [(sqrt(s) - 1) / d_max,
    (sqrt(s) - 1) / d_min].

    Newton runs on g(lam) = S(lam)^(-1/2) - 1, with the step lam + (S^(3/2)
    - S) / T, T = sum_i d_i^2 u_i^2 w_i^3.  In the variables mu_i, S =
    sum_i (u_i / sqrt(d_i))^2 / (lam + mu_i)^2 is the trust-region secular
    function, whose reciprocal square root is concave and increasing for
    lam > -min(mu) (More & Sorensen, 1983).  A tangent of a concave function
    lies above it, so its zero lies left of the root wherever it is taken:
    a step from the left of the root stays left and climbs monotonically,
    and a step from the right returns to the left in one step.

    Start.  The moments s = sum d u^2 and m_k = sum d^(k+1) u^2, k = 1..3,
    come from one product of the cached powers d (d / d_max)^k with u^2, as
    s and r_k = m_k / d_max^k.  The derivatives of g at lam = 0 are closed
    form in them: g0 = s^(-1/2) - 1, g1 = s^(-3/2) m1, g2 = 3 s^(-5/2) m1^2
    - 3 s^(-3/2) m2 (<= 0, since m1^2 <= s m2 by Cauchy-Schwarz) and g3 = 15
    s^(-7/2) m1^3 - 27 s^(-5/2) m1 m2 + 12 s^(-3/2) m3.  The start is the
    Householder step of order 3 from 0, lam = 3 g0 (2 g1^2 - g0 g2) / (-6
    g1^3 + 6 g0 g1 g2 - g0^2 g3), written here relative to the Newton
    iterate h = -g0 / g1 = (s^(3/2) - s) / m1 as h (1 + h g2 / (2 g1)) / (1
    + h g2 / g1 + h^2 g3 / (6 g1)), which needs no cube.  The products h g2
    / g1 and h^2 g3 / g1 are free of scale, so they are formed from h d_max
    and the r_k, which stay finite where the m_k would overflow.  On a ball
    the start is the root, and near one it usually lands within the residual
    tolerance, so most projections end at their first evaluation of S.  If
    the start is not finite or not in [lo, hi), Newton starts at h, which
    lies in [lo, root]: m1 <= d_max s gives h >= lo, and concavity gives h
    <= root.  If rounding puts h outside [lo, hi) too, or r1 / s underflows
    to 0 (as when d_i^2 / d_max does wherever u_i != 0), it starts at lo.
    Rounding that breaks monotonicity later is caught by the bisection
    safeguard inside the bracket.

    Evaluation.  With q = mu + lam, dy = u / q is d u w, and y = mu dy is
    u w, the offset of the result from the center, so S = dy.y and T =
    dy.(y / q).

    Domain.  u^2 must be finite: an entry of u above about 1.3e154 (the
    square root of the largest float) makes s infinite, and the projection
    raises NonconvergedProjection.  The solver's gap norms overflow at
    offsets of that size as well.
    """
    z = as_point(z)
    if z.shape[0] != e.dim:
        raise DimensionMismatch(f"point dim {z.shape[0]} != set dim {e.dim}")
    u = z - e.center
    s, r1, r2, r3 = e.powers.dot(u * u).tolist()
    if s <= 1.0:
        return z.copy(), 0.0
    if not math.isfinite(s):
        # a non-finite point (or an overflowing one) has no Newton solve
        raise NonconvergedProjection("projection produced non-finite entries")

    sqrt_s = math.sqrt(s)
    lo, hi = (sqrt_s - 1.0) / e.d_max, (sqrt_s - 1.0) / e.d_min
    lam = h = lo
    v = r1 / s  # m1 / (s d_max), in (0, 1] unless it underflows
    if v > 0.0:
        hd = (sqrt_s - 1.0) / v  # h d_max
        c2 = 3.0 * (v - r2 / r1)  # g2 / (g1 d_max)
        c3 = 15.0 * v * v - 27.0 * r2 / s + 12.0 * r3 / r1  # g3 / (g1 d_max^2)
        den = 1.0 + hd * (c2 + hd * c3 / 6.0)
        h = hd / e.d_max
        lam = h * (1.0 + 0.5 * hd * c2) / den if den else math.nan
    if not lo <= lam < hi:
        lam = h if lo <= h < hi else lo
    mu = e.mu
    for _ in range(_ELLIPSOID_MAX_ITER):
        q = mu + lam
        dy = u / q
        y = mu * dy
        S = float(dy.dot(y))
        if abs(S - 1.0) <= _ELLIPSOID_RESIDUAL_TOL:
            break
        if S > 1.0:
            lo = lam
        else:
            hi = lam
        T = float(dy.dot(y / q))
        step = lam + (S * math.sqrt(S) - S) / T
        lam = step if lo < step < hi else 0.5 * (lo + hi)
    else:
        raise NonconvergedProjection(
            f"ellipsoid projection residual above {_ELLIPSOID_RESIDUAL_TOL}"
        )
    return e.center + y, lam


def project_psd(z, order: int) -> np.ndarray:
    """Frobenius-nearest PSD matrix via eigenvalue clamping."""
    z = as_point(z)
    if z.shape[0] != order * order:
        raise DimensionMismatch(f"point dim {z.shape[0]} != {order}^2")
    m = z.reshape(order, order)
    m = 0.5 * (m + m.T)
    try:
        vals, vecs = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(str(exc)) from exc
    cut = _PSD_CLAMP_RTOL * float(np.max(np.abs(vals))) if vals.size else 0.0
    vals = np.where(vals < cut, 0.0, vals)
    out = (vecs * vals) @ vecs.T
    out = 0.5 * (out + out.T)
    return out.reshape(-1)


def project(set_: SetDescriptor, z) -> np.ndarray:
    z = as_point(z)
    if z.shape[0] != set_.dim:
        raise DimensionMismatch(
            f"point dim {z.shape[0]} != set dim {set_.dim} ({type(set_).__name__})"
        )
    out = set_._project(z)
    if not np.isfinite(out).all():
        raise NonconvergedProjection("projection produced non-finite entries")
    return out


def distance(set_: SetDescriptor, z) -> float:
    z = as_point(z)
    return float(np.linalg.norm(z - project(set_, z)))


@dataclass
class ProblemPair:
    """A two-set feasibility instance: find z in X ∩ Y."""

    X: SetDescriptor
    Y: SetDescriptor
    z0: np.ndarray
    s_ref: Optional[np.ndarray] = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.z0 = as_point(self.z0)
        if self.s_ref is not None:
            self.s_ref = as_point(self.s_ref)
        if self.X.dim != self.Y.dim:
            raise DimensionMismatch("X and Y must share ambient dimension")
        if self.z0.shape[0] != self.X.dim:
            raise DimensionMismatch("z0 dimension does not match the sets")
        if self.s_ref is not None and self.s_ref.shape[0] != self.X.dim:
            raise DimensionMismatch("s_ref dimension does not match the sets")
        if not np.all(np.isfinite(self.z0)):
            raise InvalidSpec("z0 has non-finite entries")
        if self.s_ref is not None and not np.all(np.isfinite(self.s_ref)):
            raise InvalidSpec("s_ref has non-finite entries")

    @property
    def dim(self) -> int:
        return self.X.dim


def stopping_gap(pair: ProblemPair, z, px=None):
    """(gap, P_X z, P_Y z) with gap = max{dist(z, X), dist(z, Y)}.

    The gap is the stopping merit, with the bits `distance` gives: each
    distance is math.sqrt(float(r.dot(r))), and numpy's 1-D real norm is
    sqrt(r.dot(r)) on the same BLAS dot, with both square roots correctly
    rounded.  The two projections are returned so that the next step can
    reuse one of them.  z must be a 1-D float array of the pair's dimension,
    as the solver's iterates are; it is not checked here.

    A caller that already holds P_X z hands it in as `px` and X is not
    projected again.  `px is z` says that z is itself an X-projection (MAP's
    iterates are), and then dist(z, X) is 0.0 by idempotence, with no
    arithmetic.

    The projections are not checked one by one.  Instead the gap raises
    NonconvergedProjection unless both distances are finite, which holds
    exactly when z and both projections are finite (barring overflow of the
    squared norm).  Each distance is tested on its own: max(1.0, nan) is 1.0.
    With `px is z` a non-finite z still raises: z - P_Y z is NaN or infinite
    at a non-finite entry of z whatever P_Y z holds there.
    """
    if px is None:
        px = pair.X._project(z)
    py = pair.Y._project(z)
    if px is z:
        dist_x = 0.0
    else:
        rx = z - px
        dist_x = math.sqrt(float(rx.dot(rx)))
    ry = z - py
    dist_y = math.sqrt(float(ry.dot(ry)))
    if not (math.isfinite(dist_x) and math.isfinite(dist_y)):
        raise NonconvergedProjection("projection produced non-finite entries")
    return max(dist_x, dist_y), px, py

