"""Admissible kernels, the step-size centralizer, and the circumcentered step.

A kernel is an ordered composition of the two set projections whose outermost
factor is P_Y, so its image lies in Y and it is quasi-nonexpansive relative to
the intersection.  The centralizer interpolates between the kernel output and
its X-projection; its output is always centralized, which is what makes the
circumcenter step behave like a projection onto supporting halfspaces.

The step and `pcrm` take the projections their caller holds, unchecked; the
kernel's later tokens go through the checked `project`, and `pcrm` raises
NonconvergedProjection on a non-finite inner product.
"""
from __future__ import annotations

import math

from .errors import InvalidKernel, NonconvergedProjection
from .geometry import ProblemPair, as_point, project

# Strictness is a cosine test, ip < -tol * ||dx|| ||dy||: the inner product
# itself shrinks like gap^2, so any fixed absolute scale would disable the
# circumcenter acceleration long before tight tolerances are reached.
STEP_COSINE_TOL = 1e-8
# A normal dx = z - P_X z (or dy) no longer than this times ||z||, 256 units in
# the last place, is rounding noise in direction, which near antiparallel
# normals magnify into a step far off.  A centralized n meets it when
# alpha ||t - P_X t|| is that small, as n holds no smaller offset from P_X t.
STEP_NORMAL_RTOL = 2.0**-44


class KernelSpec(str):
    """A projection composition as its word over X and Y, innermost first:
    "XY" = P_Y P_X.  The word is read as str(word).upper()."""

    def __new__(cls, word: str) -> "KernelSpec":
        word = str(word).upper()
        if len(word) < 1:
            raise InvalidKernel("kernel needs at least one token")
        for tok in word:
            if tok not in "XY":
                raise InvalidKernel(f"unknown kernel token {tok!r}")
        if word[-1] != "Y":
            raise InvalidKernel("outermost kernel token must be Y")
        for a, b in zip(word, word[1:]):
            if a == b:
                raise InvalidKernel("adjacent identical tokens are redundant")
        return super().__new__(cls, word)

    @classmethod
    def from_string(cls, s: str) -> "KernelSpec":
        return cls(s)


KERNEL_STANDARD = KernelSpec("XY")


def apply_kernel(spec: KernelSpec, pair: ProblemPair, first):
    """Apply the kernel's projection composition, its innermost token done.

    `first` is the point projected onto the set of the innermost token, as
    the caller already holds it (the solver's stopping gap made it); the
    remaining tokens spec[1:] are applied here.

    Each projection here is checked: after two or more of them a later one
    can overwrite a non-finite entry (the EntryMask projection rewrites the
    pinned entries), so a check on the result alone would miss it.
    """
    out = first
    for tok in spec[1:]:
        out = project(pair.X if tok == "X" else pair.Y, out)
    return out


def centralize(pair: ProblemPair, t_point, alpha: float):
    """Interpolate alpha * t + (1 - alpha) * P_X t; returns (n_point, px_t).

    Since the result lies on the segment [t, P_X t], its X-projection equals
    px_t; callers must reuse px_t instead of re-projecting.  P_X t is not
    checked for finiteness; `pcrm` checks its inner product.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    t_point = as_point(t_point)
    px_t = pair.X._project(t_point)
    n_point = alpha * t_point + (1.0 - alpha) * px_t
    return n_point, px_t


def _strictly_centralized(norm_z: float, norm_dx: float, norm_dy: float, ip: float) -> bool:
    """Whether the angle between dx = z - P_X z and dy = z - P_Y z is genuinely
    obtuse, from ip = <dx, dy>, the two norms and ||z||; a normal within
    rounding of z has no angle to judge."""
    resolved = min(norm_dx, norm_dy) > STEP_NORMAL_RTOL * norm_z
    return resolved and ip < -STEP_COSINE_TOL * norm_dx * norm_dy


def circumcenter(z, dx, dy, norm_dx: float, norm_dy: float):
    """Circumcenter of z and its reflections z - 2 dx and z - 2 dy, or None
    when dx and dy are exactly antiparallel.

    It is the point of the hyperplanes {<dx, x - (z - dx)> = 0} and
    {<dy, x - (z - dy)> = 0} nearest to z.  With unit normals u, v, w = u + v
    and e = ||w||^2 / 2 = 1 + cos(u, v), free of the cancellation in
    1 + <u, v>, it is c = z - [(|dx| + |dy|) w - e (|dy| u + |dx| v)] /
    (e (2 - e)).  The norms must be positive.

    The domain is e in [0, 2), and at e = 0 the call returns None.  Normals
    that are parallel and point the same way give e = 2, which divides 0 by
    0.  `pcrm` calls it only at a strictly centralized z, where
    cos(u, v) < -STEP_COSINE_TOL, so e < 1.
    """
    u = dx / norm_dx
    v = dy / norm_dy
    w = u + v
    e = 0.5 * float(w.dot(w))
    if e == 0.0:
        return None
    return z - ((norm_dx + norm_dy) * w - e * (norm_dy * u + norm_dx * v)) / (e * (2.0 - e))


def pcrm(z, px, py):
    """Circumcenter of z with its two reflections across X and Y, from
    px = P_X z and py = P_Y z.

    Returns (next point, <z - P_X z, z - P_Y z>).  At a strictly centralized
    z the circumcenter is the projection onto the two supporting hyperplanes
    at P_X z and P_Y z (Behling, Bello-Cruz, Iusem, Liu & Santos, Math.
    Program. 2024), taken in closed form from the two normals.  A z that is
    not strictly centralized, a point of Y included (its inner product is
    0) and a normal within rounding of z (STEP_NORMAL_RTOL), and exactly
    antiparallel normals, where the hyperplanes are parallel, give P_X z.

    The caller's projections are taken unchecked; a non-finite entry in
    either raises NonconvergedProjection through the inner product, where it
    would otherwise fail the strictness test and be replaced by P_X z.

    Norms are math.sqrt(float(v.dot(v))), the bits of numpy's 1-D norm.
    """
    dx = z - px
    dy = z - py
    ip = float(dx.dot(dy))
    if not math.isfinite(ip):
        raise NonconvergedProjection("projection produced non-finite entries")
    norm_dx = math.sqrt(float(dx.dot(dx)))
    norm_dy = math.sqrt(float(dy.dot(dy)))
    if _strictly_centralized(math.sqrt(float(z.dot(z))), norm_dx, norm_dy, ip):
        c = circumcenter(z, dx, dy, norm_dx, norm_dy)
        if c is not None:
            return c, ip
    return px.copy(), ip


def circumcentered_step(pair: ProblemPair, first, alpha: float, spec: KernelSpec):
    """One solver step from z, given as `first`: z projected onto the set of
    the kernel's innermost token, the projection the solver's stopping gap
    already made.  Kernel, centralizer, then `pcrm` at the centralized n.

    Returns (next point, <n - P_X n, n - P_Y n>).  Beyond `first`, the step
    applies the kernel's remaining tokens (checked, see `apply_kernel`) plus
    P_X(t) and P_Y(n), which `pcrm` takes unchecked.
    """
    t_point = apply_kernel(spec, pair, first)
    n_point, px_t = centralize(pair, t_point, alpha)
    return pcrm(n_point, px_t, pair.Y._project(n_point))
