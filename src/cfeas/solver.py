"""Iteration drivers, step schedules, trace capture, and rate estimation."""
from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, field, replace
from typing import List, Optional, Union

import numpy as np

from .circumcentering import DegenerateCircumcenter
from .errors import (
    EigenFailure,
    InsufficientTrace,
    InvalidSchedule,
    InvalidSpec,
    NonconvergedProjection,
)
from .geometry import (
    MEMBERSHIP_RTOL,
    ProblemPair,
    as_point,
    distance,  # noqa: F401  not called here; perfbench/tracer.py wraps this name
    project,  # noqa: F401  not called here; perfbench/tracer.py wraps this name
    stopping_gap,
)
from .operators import (
    KERNEL_STANDARD,
    STEP_COSINE_TOL,
    KernelSpec,
    circumcentered_step,
)

STATUS_CONVERGED = "converged"
STATUS_MAX_ITER = "max_iter"
STATUS_NUMERICAL_FAILURE = "numerical_failure"

CLASS_LINEAR = "linear"
CLASS_SUPERLINEAR = "superlinear"
CLASS_INCONCLUSIVE = "inconclusive"

TRACE_COLUMNS = ["k", "delta", "dist_sref", "alpha", "cum_proj_alg", "cum_proj_diag", "wall_ns"]


@dataclass(frozen=True)
class Constant:
    alpha: float

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise InvalidSchedule(f"constant alpha must lie in (0,1), got {self.alpha}")


@dataclass(frozen=True)
class Vanishing:
    """alpha_k = 1 / (k + 2): 1/2, 1/3, 1/4, ..."""


@dataclass(frozen=True)
class Table:
    values: tuple

    def __post_init__(self):
        values = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", values)
        if not values:
            raise InvalidSchedule("table schedule needs at least one value")
        for v in values:
            if not 0.0 < v < 1.0:
                raise InvalidSchedule(f"table value {v} outside (0,1)")


StepSchedule = Union[Constant, Vanishing, Table]


def schedule_value(schedule: StepSchedule, k: int) -> float:
    if k < 0:
        raise ValueError("iteration index must be nonnegative")
    if isinstance(schedule, Constant):
        return schedule.alpha
    if isinstance(schedule, Vanishing):
        return 1.0 / (k + 2)
    if isinstance(schedule, Table):
        return schedule.values[min(k, len(schedule.values) - 1)]
    raise InvalidSchedule(f"unknown schedule {schedule!r}")


@dataclass
class SolverConfig:
    method: str = "crm"  # "crm" (circumcentered) | "map" (alternating projections)
    kernel: KernelSpec = KERNEL_STANDARD
    schedule: StepSchedule = Constant(0.5)
    eps: float = 1e-10
    max_iter: int = 100_000
    membership_tol: float = MEMBERSHIP_RTOL
    strict_tol: float = STEP_COSINE_TOL
    record_iterates: bool = False

    def __post_init__(self):
        if self.eps <= 0.0:
            raise InvalidSpec("eps must be positive")
        if self.max_iter < 1:
            raise InvalidSpec("max_iter must be >= 1")
        if self.method not in ("crm", "map"):
            raise InvalidSpec(f"unknown method {self.method!r}")


def ccrm_config(**overrides) -> SolverConfig:
    """Classical fixed-step variant: kernel P_Y P_X with constant alpha = 1/2."""
    cfg = SolverConfig(method="crm", kernel=KERNEL_STANDARD, schedule=Constant(0.5))
    return replace(cfg, **overrides) if overrides else cfg


@dataclass(frozen=True, slots=True)
class IterationRecord:
    k: int
    delta: float
    dist_sref: Optional[float]
    centralization_ip: float
    alpha: float
    cum_proj_alg: int
    cum_proj_diag: int
    wall_ns: int


@dataclass
class SolveTrace:
    records: List[IterationRecord]
    status: str
    final_point: np.ndarray
    iterations: int
    iterates: Optional[List[np.ndarray]] = None
    failure: Optional[str] = None

    @property
    def deltas(self) -> np.ndarray:
        return np.array([r.delta for r in self.records])

    @property
    def final_delta(self) -> float:
        """The last recorded gap; NaN for a run that failed at z0."""
        return self.records[-1].delta if self.records else math.nan

    @property
    def total_algorithmic_projections(self) -> int:
        return self.records[-1].cum_proj_alg if self.records else 0


# a projection or step that cannot be completed ends the run as numerical_failure
_FAILURES = (NonconvergedProjection, EigenFailure, DegenerateCircumcenter)


def solve(pair: ProblemPair, cfg: SolverConfig) -> SolveTrace:
    """Iterate until the feasibility gap drops to eps or the cap is reached.

    cfg.method picks the step: "crm" takes one circumcentered step, "map" the
    alternating-projections step z_{k+1} = P_X(P_Y(z_k)).  The stopping gap
    at each iterate projects onto both sets; the next step reuses the
    projection it needs (the one matching the kernel's innermost token, or
    MAP's P_Y z_k) instead of computing it again.  A MAP iterate after z0 is
    itself an X-projection, so its gap takes P_X z = z and projects onto Y
    alone.  The counters are logical: `cum_proj_alg` adds len(kernel) + 2 per
    cCRM step and 2 per MAP step; `cum_proj_diag` adds 2 per gap, except 1
    per MAP gap after z0.  The one projection per iteration that the step
    and the gap share is counted in both, and the projections actually
    evaluated are cum_proj_alg + cum_proj_diag - k for either method: 2 per
    MAP iteration.  MAP records carry NaN for the centralization inner
    product and alpha.

    Inputs are checked once, by ProblemPair; inside the loop the projections
    are the sets' unchecked `_project`, and finiteness is checked once per
    gap and once per step (see `circumcentered_step`).  A non-finite or
    failed projection ends the run as numerical_failure at the iteration
    where it occurs; at z0 the trace has no records and its failure message
    starts with "initial point".
    """
    z = as_point(pair.z0).copy()
    records: List[IterationRecord] = []
    iterates: Optional[List[np.ndarray]] = [z.copy()] if cfg.record_iterates else None
    cum_alg = 0
    cum_diag = 0
    t0 = time.perf_counter_ns()

    def snapshot(k, delta, ip, alpha):
        dist_sref = None
        if pair.s_ref is not None:
            r = z - pair.s_ref
            dist_sref = math.sqrt(float(r @ r))
        records.append(
            IterationRecord(
                k=k,
                delta=delta,
                dist_sref=dist_sref,
                centralization_ip=ip,
                alpha=alpha,
                cum_proj_alg=cum_alg,
                cum_proj_diag=cum_diag,
                wall_ns=time.perf_counter_ns() - t0,
            )
        )

    try:
        delta, px, py = stopping_gap(pair, z)
    except _FAILURES as exc:
        return SolveTrace(
            records, STATUS_NUMERICAL_FAILURE, z, 0, iterates, f"initial point: {exc}"
        )
    cum_diag += 2
    snapshot(0, delta, math.nan, math.nan)
    if delta <= cfg.eps:
        return SolveTrace(records, STATUS_CONVERGED, z, 0, iterates)

    status = STATUS_MAX_ITER
    failure = None
    iterations = cfg.max_iter
    crm = cfg.method == "crm"
    lead_x = cfg.kernel.tokens[0] == "X"
    ip = alpha = math.nan
    for k in range(cfg.max_iter):
        try:
            if crm:
                alpha = schedule_value(cfg.schedule, k)
                z, diag = circumcentered_step(
                    pair,
                    z,
                    alpha,
                    cfg.kernel,
                    membership_tol=cfg.membership_tol,
                    strict_tol=cfg.strict_tol,
                    first=px if lead_x else py,
                )
                cum_alg += diag.algorithmic_projections
                ip = diag.centralization_ip
                delta, px, py = stopping_gap(pair, z)
                cum_diag += 2
            else:
                z = pair.X._project(py)
                cum_alg += 2
                delta, px, py = stopping_gap(pair, z, px=z)
                cum_diag += 1
        except _FAILURES as exc:
            status = STATUS_NUMERICAL_FAILURE
            failure = f"iteration {k}: {exc}"
            iterations = k
            break
        if iterates is not None:
            iterates.append(z.copy())
        snapshot(k + 1, delta, ip, alpha)
        if delta <= cfg.eps:
            status = STATUS_CONVERGED
            iterations = k + 1
            break
    return SolveTrace(records, status, z, iterations, iterates, failure)


def solve_map(pair: ProblemPair, cfg: SolverConfig) -> SolveTrace:
    """Alternating-projections baseline z_{k+1} = P_X(P_Y(z_k)); see `solve`."""
    return solve(pair, replace(cfg, method="map"))


@dataclass
class RateEstimate:
    q_ratios: np.ndarray
    tail_mean: float
    classification: str
    rho: Optional[float] = None


def estimate_rate_from_merits(merits) -> RateEstimate:
    """Classify the convergence order of a positive merit sequence.

    Ratios are computed only while the merit sits above a noise floor of
    100 * machine epsilon * scale.  A burn-in of max(10, 10% of the sequence)
    is discarded (the theoretical rates are asymptotic), but never so much
    that fewer than five ratios remain for the superlinear window.
    """
    m = np.asarray(merits, dtype=float)
    if m.ndim != 1 or m.shape[0] < 10:
        raise InsufficientTrace("need a merit sequence of at least 10 entries")
    scale = max(1.0, float(m[0]))
    floor = 100.0 * np.finfo(float).eps * scale
    valid = m > floor
    n_valid = int(np.count_nonzero(valid))
    if n_valid < 6:
        raise InsufficientTrace("too few merit values above the noise floor")
    burn = max(10, int(math.ceil(0.1 * m.shape[0])))
    idx = [k for k in range(m.shape[0] - 1) if valid[k] and valid[k + 1]]
    if len(idx) - 5 < burn:
        burn = max(0, len(idx) - 5)
    idx = [k for k in idx if k >= burn]
    ratios = np.array([m[k + 1] / m[k] for k in idx])

    if ratios.size == 0:
        return RateEstimate(ratios, math.nan, CLASS_INCONCLUSIVE)
    tail = ratios[-min(10, ratios.size):]
    tail_mean = float(np.exp(np.mean(np.log(tail))))

    last5 = ratios[-5:]
    if (
        last5.size == 5
        and np.all(np.diff(last5) < 0.0)
        and last5[-1] < 0.1
    ):
        return RateEstimate(ratios, tail_mean, CLASS_SUPERLINEAR)
    if ratios.size >= 10:
        last10 = ratios[-10:]
        rho = float(np.exp(np.mean(np.log(last10))))
        if np.all(last10 >= 0.8 * rho) and np.all(last10 <= 1.2 * rho):
            return RateEstimate(ratios, tail_mean, CLASS_LINEAR, rho=rho)
    return RateEstimate(ratios, tail_mean, CLASS_INCONCLUSIVE)


def estimate_rate(trace: SolveTrace, merit: str = "delta") -> RateEstimate:
    """Rate estimate from a solve trace.

    merit "delta" uses the recorded feasibility gaps; "dist_to_limit" uses
    distances to the final iterate and needs record_iterates=True.
    """
    if merit == "delta":
        merits = trace.deltas
    elif merit == "dist_to_limit":
        if not trace.iterates:
            raise InsufficientTrace("dist_to_limit merit needs recorded iterates")
        z_bar = trace.iterates[-1]
        merits = np.array([float(np.linalg.norm(z - z_bar)) for z in trace.iterates])
    else:
        raise ValueError(f"unknown merit {merit!r}")
    return estimate_rate_from_merits(merits)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_trace_csv(trace: SolveTrace, path) -> None:
    """One row per iteration; floats in shortest round-trip decimal form."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        for r in trace.records:
            writer.writerow(
                [
                    r.k,
                    _fmt(r.delta),
                    _fmt(r.dist_sref),
                    _fmt(r.alpha),
                    r.cum_proj_alg,
                    r.cum_proj_diag,
                    r.wall_ns,
                ]
            )


def read_trace_csv(path) -> SolveTrace:
    """Inverse of write_trace_csv for the columns it writes.

    The CSV does not hold the centralization inner product, the status or the
    final point: they read back as NaN, "unknown" and None.
    """
    records = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            records.append(
                IterationRecord(
                    k=int(row["k"]),
                    delta=float(row["delta"]),
                    dist_sref=float(row["dist_sref"]) if row["dist_sref"] else None,
                    centralization_ip=math.nan,
                    alpha=float(row["alpha"]) if row["alpha"] else math.nan,
                    cum_proj_alg=int(row["cum_proj_alg"]),
                    cum_proj_diag=int(row["cum_proj_diag"]),
                    wall_ns=int(row["wall_ns"]),
                )
            )
    return SolveTrace(
        records=records,
        status="unknown",
        final_point=None,
        iterations=records[-1].k if records else 0,
    )
