"""Experiment matrices: seeded runs, aggregation, and every file a run
writes."""
from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, fields
from operator import attrgetter
from typing import List, Optional

import numpy as np

from .errors import InvalidSpec
from .problems import CONFIG_FIELDS, SCHEDULES, generate, read_fields
from .solver import STATUS_NUMERICAL_FAILURE, Constant, IterationRecord, SolveTrace, SolverConfig

# a trace file's columns are IterationRecord's fields, in order
_TRACE_COLUMNS = [f.name for f in fields(IterationRecord)]
_trace_row = attrgetter(*_TRACE_COLUMNS)


def _schedule_label(schedule):
    if isinstance(schedule, Constant):
        return schedule.alpha
    return next(kind for kind, (make, _) in SCHEDULES.items() if isinstance(schedule, make))


@dataclass
class MethodSpec:
    name: str
    config: SolverConfig


@dataclass
class ExperimentConfig:
    generator: dict
    methods: List[MethodSpec]
    seeds: List[int]
    eps: float
    max_iter: int
    output_dir: str

    def __post_init__(self):
        names = [m.name for m in self.methods]
        for name in names:
            if not name or os.path.basename(name) != name or "\0" in name:
                raise InvalidSpec(f"method name {name!r} is not one file-name component")
        # a run's method name and seed name its trace file, so neither repeats
        for what, values in (("method name", names), ("seed", self.seeds)):
            for i, value in enumerate(values):
                if value in values[:i]:
                    raise InvalidSpec(f"{what} {value!r} is given twice")

    @classmethod
    def from_json(cls, doc: dict) -> "ExperimentConfig":
        """Build a config, checked once here: a malformed document, an unknown
        family or method, a missing or mistyped field, a bad kernel or
        schedule, or either given to map raise InvalidSpec instead of failing
        every cell later.  An error in one method names that method."""
        values = read_fields(doc, "bench config", CONFIG_FIELDS)
        generator, rows, seeds, eps, max_iter, output_dir = values
        methods = []
        for name, *rest in rows:
            try:
                methods.append(MethodSpec(name, SolverConfig(*rest, eps, max_iter)))
            except InvalidSpec as exc:
                # an eps or max_iter error belongs to no one method: raise it plain
                SolverConfig(eps=eps, max_iter=max_iter)
                raise InvalidSpec(f"bench config method {name!r}: {exc}") from None
        return cls(generator, methods, seeds, eps, max_iter, output_dir)


@dataclass
class RunResult:
    method: str
    seed: int
    trace: Optional[SolveTrace] = None
    error: Optional[str] = None

    @property
    def failed(self) -> bool:
        return self.error is not None or (
            self.trace is not None and self.trace.status == STATUS_NUMERICAL_FAILURE
        )


def _run_one(config: ExperimentConfig, method: MethodSpec, seed: int) -> RunResult:
    from .solver import solve

    gen = dict(config.generator)
    family = gen.pop("family")
    try:
        pair = generate(family, seed, **gen)
        trace = solve(pair, method.config)
        return RunResult(method.name, seed, trace=trace)
    except Exception as exc:  # aggregated into the partial-failure report
        return RunResult(method.name, seed, error=f"{type(exc).__name__}: {exc}")


def run_matrix(config: ExperimentConfig, jobs: int = 1, out_dir: Optional[str] = None):
    """Run every (method x seed) cell; write traces, summary.csv, plotdata.csv,
    report.json.  Returns (summary_rows, report)."""
    if jobs < 1:
        raise InvalidSpec(f"jobs must be at least 1, got {jobs}")
    out = out_dir or config.output_dir
    os.makedirs(out, exist_ok=True)
    cells = [(m, s) for m in config.methods for s in config.seeds]
    if jobs > 1:
        # loaded here, not with the module: it brings logging, queue, traceback
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(lambda c: _run_one(config, *c), cells))
    else:
        results = [_run_one(config, m, s) for m, s in cells]
    # deterministic reduction order regardless of completion order
    results.sort(key=lambda r: (r.method, r.seed))

    traces = {f"{r.method}_{r.seed}": r.trace for r in results if r.trace is not None}
    for name, trace in traces.items():
        write_trace_csv(trace, os.path.join(out, f"trace_{name}.csv"))

    summary_rows = []
    for m in config.methods:
        runs = [r for r in results if r.method == m.name and r.trace is not None]
        ok = [r.trace for r in runs if not r.failed]
        if ok:
            mean_iters = float(np.mean([t.iterations for t in ok]))
            mean_time_s = float(np.mean([t.records[-1].wall_ns for t in ok])) * 1e-9
            mean_final_delta = float(np.mean([t.final_delta for t in ok]))
            mean_proj = float(np.mean([t.total_algorithmic_projections for t in ok]))
        else:
            mean_iters = mean_time_s = mean_final_delta = mean_proj = float("nan")
        summary_rows.append(
            {
                "method": m.name,
                "alpha": _schedule_label(m.config.schedule) if m.config.schedule else "",
                "kernel": m.config.kernel or "",
                "mean_iters": mean_iters,
                "mean_time_s": mean_time_s,
                "mean_final_delta": mean_final_delta,
                "mean_projections": mean_proj,
            }
        )

    write_summary_csv(summary_rows, os.path.join(out, "summary.csv"))
    emit_convergence_plotdata(traces, os.path.join(out, "plotdata.csv"))

    failures = [
        {"method": r.method, "seed": r.seed, "error": r.error or r.trace.failure}
        for r in results
        if r.failed
    ]
    report = {
        "generator": config.generator,
        "eps": config.eps,
        "max_iter": config.max_iter,
        "runs": [
            {
                "method": r.method,
                "seed": r.seed,
                "status": r.trace.status if r.trace else "error",
                "iterations": r.trace.iterations if r.trace else None,
                "final_delta": r.trace.final_delta if r.trace and r.trace.records else None,
                "projections": r.trace.total_algorithmic_projections
                if r.trace
                else None,
            }
            for r in results
        ],
        "failures": failures,
    }
    with open(os.path.join(out, "report.json"), "w") as fh:
        json.dump(report, fh, indent=2)
    return summary_rows, report


def write_trace_csv(trace: SolveTrace, path) -> None:
    """One row per iteration and one column per IterationRecord field.  csv
    writes floats in shortest round-trip form (NaN as nan) and None as ""."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_TRACE_COLUMNS)
        writer.writerows(map(_trace_row, trace.records))


def write_summary_csv(rows, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def emit_convergence_plotdata(traces: dict, path) -> None:
    """Long-format CSV method,k,delta from {name: SolveTrace}; strictly
    positive gaps only.  With no traces it holds the header alone."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "k", "delta"])
        for name, trace in traces.items():
            writer.writerows((name, r.k, r.delta) for r in trace.records if r.delta > 0.0)
