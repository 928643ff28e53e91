"""Iteration drivers, step schedules, trace capture, and rate estimation."""
from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .errors import (
    EigenFailure,
    InsufficientTrace,
    InvalidSchedule,
    InvalidSpec,
    NonconvergedProjection,
)
from .geometry import (
    ProblemPair,
    as_point,
    distance,  # noqa: F401  not called here; perfbench/tracer.py wraps this name
    project,  # noqa: F401  not called here; perfbench/tracer.py wraps this name
    stopping_gap,
)
from .operators import KERNEL_STANDARD, KernelSpec, circumcentered_step

METHODS = ("crm", "map")  # circumcentered, alternating projections

STATUS_CONVERGED = "converged"
STATUS_MAX_ITER = "max_iter"
STATUS_NUMERICAL_FAILURE = "numerical_failure"

CLASS_LINEAR = "linear"
CLASS_SUPERLINEAR = "superlinear"
CLASS_INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class Constant:
    alpha: float = 0.5  # classical cCRM

    def __post_init__(self):
        object.__setattr__(self, "alpha", float(self.alpha))
        if not 0.0 < self.alpha < 1.0:
            raise InvalidSchedule(f"constant alpha must lie in (0,1), got {self.alpha}")

    def __call__(self, k: int) -> float:
        return self.alpha


@dataclass(frozen=True)
class Vanishing:
    """alpha_k = 1 / (k + 2): 1/2, 1/3, 1/4, ..."""

    def __call__(self, k: int) -> float:
        return 1.0 / (k + 2)


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

    def __call__(self, k: int) -> float:
        return self.values[min(k, len(self.values) - 1)]


@dataclass
class SolverConfig:
    """What to run, checked and defaulted here alone.  For crm, a kernel is
    read by KernelSpec and defaults to P_Y P_X, and the schedule defaults to
    constant alpha = 1/2: classical cCRM.  map takes neither."""

    method: str = "crm"  # one of METHODS
    kernel: Optional[KernelSpec] = None
    schedule: Constant | Vanishing | Table | None = None
    eps: float = 1e-10
    max_iter: int = 100_000

    def __post_init__(self):
        if not isinstance(self.eps, numbers.Real) or not 0.0 < self.eps < math.inf:
            raise InvalidSpec(f"eps must be positive and finite, got {self.eps!r}")
        max_iter = self.max_iter
        if isinstance(max_iter, bool) or not isinstance(max_iter, numbers.Integral) or max_iter < 1:
            raise InvalidSpec(f"max_iter must be an integer >= 1, got {max_iter!r}")
        if self.method not in METHODS:
            raise InvalidSpec(f"unknown method {self.method!r}")
        if self.method == "map":
            if self.kernel is not None or self.schedule is not None:
                raise InvalidSpec("method map takes no kernel or schedule")
            return
        self.kernel = KERNEL_STANDARD if self.kernel is None else KernelSpec(self.kernel)
        self.schedule = Constant() if self.schedule is None else self.schedule
        if not isinstance(self.schedule, (Constant, Vanishing, Table)):
            raise InvalidSchedule(f"not a step schedule: {self.schedule!r}")


@dataclass(slots=True)
class IterationRecord:
    """One row of a trace; its fields, in order, are the trace file's columns
    (`bench.write_trace_csv`).  Not frozen: the solver builds one per iteration,
    and a frozen dataclass's __init__ sets each field through
    object.__setattr__, which costs several times a plain slot store."""

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
    failure: Optional[str] = None

    @property
    def iterations(self) -> int:
        """Steps taken: the last record's k, 0 for a run that failed at z0."""
        return self.records[-1].k if self.records else 0

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
_FAILURES = (NonconvergedProjection, EigenFailure)


def solve(pair: ProblemPair, cfg: SolverConfig) -> SolveTrace:
    """Iterate until the feasibility gap drops to eps or the cap is reached.

    z0 is iteration 0; each later iteration k takes one step from z_{k-1}.
    cfg.method picks the step: "crm" takes one circumcentered step with
    alpha = schedule(k - 1), "map" the alternating-projections step
    z_k = P_X(P_Y(z_{k-1})).  The stopping gap at each iterate projects onto
    both sets; the next step reuses the projection it needs (the one
    matching the kernel's innermost token, or MAP's P_Y z) instead of
    computing it again.  A MAP iterate after z0 is itself an X-projection,
    so its gap takes P_X z = z and projects onto Y alone.  The counters are
    logical closed forms of k: `cum_proj_alg` is k * (len(kernel) + 2) for
    cCRM and 2k for MAP; `cum_proj_diag` is 2 + 2k and 2 + k.  The one
    projection per iteration that the step and the gap share is counted in
    both, and the projections actually evaluated are cum_proj_alg +
    cum_proj_diag - k for either method: 2 per MAP iteration.  Records at z0
    and of MAP carry NaN for the centralization inner product and alpha.

    Inputs are checked once, by ProblemPair; inside the loop the projections
    are the sets' unchecked `_project`, and finiteness is checked once per
    gap and once per step (see `circumcentered_step`).  A non-finite or
    failed projection ends the run as numerical_failure at the iteration
    where it occurs; at z0 the trace has no records and its failure message
    starts with "initial point".
    """
    z = as_point(pair.z0).copy()
    records: List[IterationRecord] = []
    status = STATUS_MAX_ITER
    failure = None
    crm = cfg.method == "crm"
    lead_x = crm and cfg.kernel[0] == "X"
    alg_step, diag_step = (len(cfg.kernel) + 2, 2) if crm else (2, 1)
    ip = alpha = math.nan
    t0 = time.perf_counter_ns()
    for k in range(cfg.max_iter + 1):
        try:
            if k and crm:
                alpha = cfg.schedule(k - 1)
                z, ip = circumcentered_step(pair, px if lead_x else py, alpha, cfg.kernel)
            elif k:
                z = pair.X._project(py)
            delta, px, py = stopping_gap(pair, z, px=z if k and not crm else None)
        except _FAILURES as exc:
            status = STATUS_NUMERICAL_FAILURE
            failure = f"iteration {k - 1}: {exc}" if k else f"initial point: {exc}"
            break
        dist_sref = None
        if pair.s_ref is not None:
            r = z - pair.s_ref
            dist_sref = math.sqrt(float(r.dot(r)))
        records.append(
            IterationRecord(
                k, delta, dist_sref, ip, alpha, k * alg_step, 2 + k * diag_step,
                time.perf_counter_ns() - t0,
            )
        )
        if delta <= cfg.eps:
            status = STATUS_CONVERGED
            break
    return SolveTrace(records, status, z, failure)


@dataclass
class RateEstimate:
    classification: str
    rho: Optional[float] = None


def estimate_rate(merits) -> RateEstimate:
    """Classify the convergence order of a positive merit sequence, such as
    a trace's recorded gaps (`SolveTrace.deltas`).

    Ratios are computed only while the merit sits above a noise floor of
    100 * machine epsilon * scale.  A burn-in of max(10, 10% of the sequence)
    is discarded (the theoretical rates are asymptotic), but never so much
    that fewer than five ratios remain for the superlinear window.  Linear
    needs rho < 1: a flat or growing sequence is inconclusive.
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

    last5 = ratios[-5:]
    if (
        last5.size == 5
        and np.all(np.diff(last5) < 0.0)
        and last5[-1] < 0.1
    ):
        return RateEstimate(CLASS_SUPERLINEAR)
    if ratios.size >= 10:
        last10 = ratios[-10:]
        rho = float(np.exp(np.mean(np.log(last10))))
        if rho < 1.0 and np.all(last10 >= 0.8 * rho) and np.all(last10 <= 1.2 * rho):
            return RateEstimate(CLASS_LINEAR, rho=rho)
    return RateEstimate(CLASS_INCONCLUSIVE)

