"""Experiment matrices: seeded runs, aggregation, and every file a run
writes."""
from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import dataclass, fields
from operator import attrgetter
from typing import List, Optional

import numpy as np

from .errors import InvalidSpec
from .problems import CONFIG_FIELDS, SCHEDULES, generate, read_fields
from .solver import Constant, IterationRecord, SolveTrace, SolverConfig

# a trace file's columns are IterationRecord's fields, in order
_TRACE_COLUMNS = [f.name for f in fields(IterationRecord)]
_trace_head = attrgetter("k", "delta")
_trace_tail = attrgetter(*_TRACE_COLUMNS[2:])


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
            seen = set()
            for value in values:
                if value in seen:
                    raise InvalidSpec(f"{what} {value!r} is given twice")
                seen.add(value)

    @classmethod
    def from_json(cls, doc: dict) -> "ExperimentConfig":
        """Build a config, checked once here: a malformed document, an unknown
        family or method, a missing or mistyped field, a bad kernel or
        schedule, or either given to map raise InvalidSpec instead of failing
        every cell later.  An error in one method names that method."""
        values = read_fields(doc, "bench config", CONFIG_FIELDS)
        generator, rows, seeds, eps, max_iter, output_dir = values
        # an eps or max_iter error belongs to no one method: raise it plain
        SolverConfig(eps=eps, max_iter=max_iter)
        methods = []
        for name, *rest in rows:
            try:
                methods.append(MethodSpec(name, SolverConfig(*rest, eps, max_iter)))
            except InvalidSpec as exc:
                raise InvalidSpec(f"bench config method {name!r}: {exc}") from None
        return cls(generator, methods, seeds, eps, max_iter, output_dir)


def _run_one(config: ExperimentConfig, method: MethodSpec, seed: int):
    """One cell: (method name, seed, trace or None, failure or None).  The
    failure is the text of what the cell raised, or the trace's own failure,
    which is set exactly when the solve ended numerical_failure."""
    # looked up at call time: perfbench swaps cfeas.bench.generate and cfeas.solver.solve
    from .solver import solve

    gen = dict(config.generator)
    family = gen.pop("family")
    try:
        trace = solve(generate(family, seed, **gen), method.config)
    except Exception as exc:  # aggregated into the partial-failure report
        return method.name, seed, None, f"{type(exc).__name__}: {exc}"
    return method.name, seed, trace, trace.failure


def run_matrix(config: ExperimentConfig, jobs: int = 1, out_dir: Optional[str] = None):
    """Run every (method x seed) cell; write traces, summary.csv, plotdata.csv,
    report.json.  Returns (summary_rows, report)."""
    if jobs < 1:
        raise InvalidSpec(f"jobs must be at least 1, got {jobs}")
    out = out_dir or config.output_dir
    os.makedirs(out, exist_ok=True)
    pending = [(m, s) for m in config.methods for s in config.seeds]
    if jobs > 1:
        # loaded here, not with the module: it brings logging, queue, traceback
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=jobs) as pool:
            cells = list(pool.map(lambda c: _run_one(config, *c), pending))
    else:
        cells = [_run_one(config, m, s) for m, s in pending]
    # plotdata.csv and report.json list the cells by (method name, seed), not in config order
    cells.sort(key=lambda c: c[:2])

    traces = {f"{name}_{seed}": t for name, seed, t, _ in cells if t is not None}
    heads = {n: write_trace_csv(t, os.path.join(out, f"trace_{n}.csv")) for n, t in traces.items()}

    summary_rows = []
    for m in config.methods:
        ok = [t for name, _, t, failure in cells if name == m.name and failure is None]
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
    emit_convergence_plotdata(traces, heads, os.path.join(out, "plotdata.csv"))

    report = {
        "generator": config.generator,
        "eps": config.eps,
        "max_iter": config.max_iter,
        "runs": [
            {
                "method": name,
                "seed": seed,
                "status": t.status if t else "error",
                "iterations": t.iterations if t else None,
                "final_delta": t.final_delta if t and t.records else None,
                "projections": t.total_algorithmic_projections if t else None,
            }
            for name, seed, t, _ in cells
        ],
        "failures": [
            {"method": name, "seed": seed, "error": failure}
            for name, seed, _, failure in cells
            if failure is not None
        ],
    }
    with open(os.path.join(out, "report.json"), "w") as fh:
        json.dump(report, fh, indent=2)
    return summary_rows, report


def write_trace_csv(trace: SolveTrace, path) -> List[str]:
    """One row per IterationRecord, one column per field, each value formatted
    once as csv would: floats by repr (NaN as nan), ints by str, and dist_sref
    as "" when the pair has no s_ref.  Returns each row's "k,delta" text."""
    records = trace.records
    heads = list(map("%d,%r".__mod__, map(_trace_head, records)))
    sref = "%.0s" if records and records[0].dist_sref is None else "%r"  # "%.0s": None as ""
    tail = f"%s,{sref},%r,%r,%d,%d,%d\r\n"
    rows = [tail % (h, *_trace_tail(r)) for h, r in zip(heads, records)]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(_TRACE_COLUMNS) + "\r\n" + "".join(rows))
    return heads


def write_summary_csv(rows, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def emit_convergence_plotdata(traces: dict, heads: dict, path) -> None:
    """Long-format CSV method,k,delta from {name: SolveTrace} and the traces'
    "k,delta" texts; strictly positive gaps only, or the header alone."""
    with open(path, "w", newline="") as fh:
        fh.write("method,k,delta\r\n")
        for name, trace in traces.items():
            field = io.StringIO()  # csv quotes a name where it must
            csv.writer(field, lineterminator=",").writerow([name])
            prefix = field.getvalue()
            if rows := [h for h, r in zip(heads[name], trace.records) if r.delta > 0.0]:
                fh.write(prefix + ("\r\n" + prefix).join(rows) + "\r\n")
