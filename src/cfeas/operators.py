"""Admissible kernels, the step-size centralizer, and one circumcentered step.

A kernel is an ordered composition of the two set projections whose outermost
factor is P_Y, so its image lies in Y and it is quasi-nonexpansive relative to
the intersection.  The centralizer interpolates between the kernel output and
its X-projection; its output is always centralized, which is what makes the
circumcenter step behave like a projection onto supporting halfspaces.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circumcentering import circumcenter
from .errors import DegenerateCircumcenter, InvalidKernel, NonconvergedProjection
from .geometry import MEMBERSHIP_RTOL, ProblemPair, as_point, project

_TOKENS = ("X", "Y")

# Diagnostic predicate scale: ip < -tol * (1 + ||z||^2).
STRICT_CENTRALIZATION_RTOL = 1e-12

# The step's internal branch instead compares the inner product against the
# product of the displacement norms (a cosine test): the inner product itself
# shrinks like gap^2, so any fixed absolute scale would disable the
# circumcenter acceleration long before tight tolerances are reached.
STEP_COSINE_TOL = 1e-8


@dataclass(frozen=True)
class KernelSpec:
    """Projection composition, innermost token first; e.g. ("X", "Y") = P_Y P_X."""

    tokens: tuple

    def __post_init__(self):
        tokens = tuple(self.tokens)
        object.__setattr__(self, "tokens", tokens)
        if len(tokens) < 1:
            raise InvalidKernel("kernel needs at least one token")
        for tok in tokens:
            if tok not in _TOKENS:
                raise InvalidKernel(f"unknown kernel token {tok!r}")
        if tokens[-1] != "Y":
            raise InvalidKernel("outermost kernel token must be Y")
        for a, b in zip(tokens, tokens[1:]):
            if a == b:
                raise InvalidKernel("adjacent identical tokens are redundant")

    @classmethod
    def from_string(cls, s: str) -> "KernelSpec":
        return cls(tuple(s.upper()))

    def __str__(self) -> str:
        return "".join(self.tokens)

    def __len__(self) -> int:
        return len(self.tokens)


KERNEL_BASIC = KernelSpec(("Y",))
KERNEL_STANDARD = KernelSpec(("X", "Y"))
KERNEL_DEEP = KernelSpec(("Y", "X", "Y"))


def apply_kernel(spec: KernelSpec, pair: ProblemPair, z, first=None):
    """Apply the kernel's projection composition to z.

    `first`, if given, is the projection of z onto the set of the innermost
    token, already computed by the caller; only the remaining tokens are then
    applied.

    Each projection here is checked: after two or more of them a later one
    can overwrite a non-finite entry (the EntryMask projection rewrites the
    pinned entries), so a check on the result alone would miss it.
    """
    if first is None:
        out, tokens = as_point(z), spec.tokens
    else:
        out, tokens = as_point(first), spec.tokens[1:]
    for tok in tokens:
        out = project(pair.X if tok == "X" else pair.Y, out)
    return out


def centralize(pair: ProblemPair, t_point, alpha: float):
    """Interpolate alpha * t + (1 - alpha) * P_X t; returns (n_point, px_t).

    Since the result lies on the segment [t, P_X t], its X-projection equals
    px_t; callers must reuse px_t instead of re-projecting.  P_X t is not
    checked for finiteness; `circumcentered_step` checks its inner product.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    t_point = as_point(t_point)
    px_t = pair.X._project(t_point)
    n_point = alpha * t_point + (1.0 - alpha) * px_t
    return n_point, px_t


def centralization_inner_product(pair: ProblemPair, z) -> float:
    """<z - P_X z, z - P_Y z>; nonpositive iff z is centralized. 2 projections."""
    z = as_point(z)
    px = project(pair.X, z)
    py = project(pair.Y, z)
    return float((z - px) @ (z - py))


def is_strictly_centralized(pair: ProblemPair, z) -> bool:
    z = as_point(z)
    ip = centralization_inner_product(pair, z)
    return ip < -STRICT_CENTRALIZATION_RTOL * (1.0 + float(z @ z))


def circumcentered_step(pair: ProblemPair, z, alpha: float, spec: KernelSpec, first=None):
    """One solver step: kernel, centralizer, circumcentered reflections.

    Returns (next point, <n - P_X n, n - P_Y n>).  The step applies the
    kernel plus P_X(t) and P_Y(n); when `first` (z projected onto the set of
    the kernel's innermost token) is handed in, as the solver does with the
    projection its stopping gap already made, the kernel skips that one.  The
    X-reflection of n reuses px_t.  When n is not strictly centralized it lies
    in Y (up to tolerance) and the step reduces to P_X n = px_t.

    P_X t and P_Y n are unchecked; the step raises NonconvergedProjection
    when <n - P_X n, n - P_Y n> is not finite, since a non-finite entry in
    either would otherwise turn `strict` False and be replaced by px_t.
    """
    t_point = apply_kernel(spec, pair, z, first)
    n_point, px_t = centralize(pair, t_point, alpha)
    py_n = pair.Y._project(n_point)
    dx = n_point - px_t
    dy = n_point - py_n
    ip = float(dx @ dy)
    if not math.isfinite(ip):
        raise NonconvergedProjection("projection produced non-finite entries")
    # cosine test: strict iff the displacement angle is genuinely obtuse
    strict = ip < -STEP_COSINE_TOL * float(np.linalg.norm(dx)) * float(np.linalg.norm(dy))
    in_y = float(np.linalg.norm(dy)) <= MEMBERSHIP_RTOL * (
        1.0 + float(np.linalg.norm(n_point))
    )
    if in_y or not strict:
        nxt = px_t.copy()
    else:
        try:
            nxt = circumcenter(n_point, n_point + 2.0 * -dx, n_point + 2.0 * -dy).center
        except DegenerateCircumcenter:
            # reflections numerically collinear with n: fall back to P_X n
            nxt = px_t.copy()
    return nxt, ip
