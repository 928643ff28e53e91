"""Experiment matrices: seeded runs, aggregation, oracle suites, and the
files a run reads and writes."""
from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, fields
from operator import attrgetter
from typing import List, Optional

import numpy as np

from . import oracles, sampling
from .circumcentering import circumcenter
from .errors import EmptyInput, InvalidSpec
from .geometry import project, project_psd
from .operators import centralize, pcrm
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
        for i, name in enumerate(names):  # a method's name names its trace files
            if name in names[:i]:
                raise InvalidSpec(f"method name {name!r} is given twice")
            if not name or os.path.basename(name) != name or "\0" in name:
                raise InvalidSpec(f"method name {name!r} is not one file-name component")

    @classmethod
    def from_json(cls, doc: dict) -> "ExperimentConfig":
        """Build a config, checked once here: a malformed document, an unknown
        family or method, a missing or mistyped field, a bad kernel or
        schedule raise InvalidSpec instead of failing every cell later."""
        values = read_fields(doc, "bench config", CONFIG_FIELDS)
        generator, methods, seeds, eps, max_iter, output_dir = values
        methods = [MethodSpec(name, SolverConfig(*rest, eps, max_iter)) for name, *rest in methods]
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

    by_method: dict = {}
    for r in results:
        by_method.setdefault(r.method, []).append(r)
    traces = {f"{r.method}_{r.seed}": r.trace for r in results if r.trace is not None}
    for name, trace in traces.items():
        write_trace_csv(trace, os.path.join(out, f"trace_{name}.csv"))

    summary_rows = []
    for m in config.methods:
        runs = [r for r in by_method.get(m.name, []) if r.trace is not None]
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
                "alpha": _schedule_label(m.config.schedule)
                if m.config.method == "crm"
                else "",
                "kernel": str(m.config.kernel) if m.config.method == "crm" else "",
                "mean_iters": mean_iters,
                "mean_time_s": mean_time_s,
                "mean_final_delta": mean_final_delta,
                "mean_projections": mean_proj,
            }
        )

    write_summary_csv(summary_rows, os.path.join(out, "summary.csv"))
    if traces:
        emit_convergence_plotdata(
            {name: ((r.k, r.delta) for r in t.records) for name, t in traces.items()},
            os.path.join(out, "plotdata.csv"),
        )

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


def _cell_order(name: str):
    """run_matrix's (method, seed) order for a trace named <method>_<seed>;
    a name without an integer seed sorts as a method of its own."""
    method, _, seed = name.rpartition("_")
    return (method, int(seed)) if seed.isdecimal() else (name, -1)


def read_run_gaps(run_dir) -> dict:
    """{name: (k, delta) rows} of every trace_<name>.csv in run_dir, in
    run_matrix's (method, seed) order.  k and delta are read by column name,
    so traces with fewer or more columns read the same; a file without both,
    or with a value that does not parse, raises InvalidSpec naming it."""
    names = [
        name[len("trace_"):-len(".csv")]
        for name in os.listdir(run_dir)
        if name.startswith("trace_") and name.endswith(".csv")
    ]
    gaps = {}
    for name in sorted(names, key=_cell_order):
        path = os.path.join(run_dir, f"trace_{name}.csv")
        try:
            with open(path, newline="") as fh:
                rows = [(int(row["k"]), float(row["delta"])) for row in csv.DictReader(fh)]
        except (KeyError, TypeError, ValueError, csv.Error) as exc:
            raise InvalidSpec(f"trace {path}: not a trace CSV ({exc!r})") from None
        gaps[name] = rows
    if not gaps:
        raise EmptyInput(f"no trace_*.csv files in {run_dir}")
    return gaps


def write_summary_csv(rows, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def emit_convergence_plotdata(gaps: dict, path) -> None:
    """Long-format CSV method,k,delta from {name: (k, delta) rows}; strictly
    positive gaps only."""
    if not gaps:
        raise EmptyInput("no traces to plot")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "k", "delta"])
        for name, rows in gaps.items():
            writer.writerows((name, k, delta) for k, delta in rows if delta > 0.0)


def oracle_check(suite: str, seeds=range(10)) -> dict:
    """Brute-force oracle comparisons; returns a machine-readable report."""
    if suite == "projections":
        failures = _check_projections(seeds)
    elif suite == "circumcenter":
        failures = _check_circumcenter(seeds)
    elif suite == "invariants":
        failures = _check_invariants(seeds)
    else:
        raise InvalidSpec(f"unknown oracle suite {suite!r}")
    return {
        "suite": suite,
        "seeds": list(seeds),
        "failures": failures,
        "ok": not failures,
    }


def _check_projections(seeds) -> list:
    failures = []
    for seed in seeds:
        rng = sampling.make_rng(1000 + seed)
        ell = sampling.random_set("ellipsoid", rng, dim=6)
        z = sampling.random_point(6, rng)
        got = project(ell, z)
        want, _ = oracles.ellipsoid_bisection(ell, z)
        err = float(np.linalg.norm(got - want))
        if err > 1e-8 * (1.0 + np.linalg.norm(want)):
            failures.append({"seed": seed, "case": "ellipsoid", "error": err})
        m = rng.standard_normal((4, 4))
        m = 0.5 * (m + m.T)
        got = project_psd(m.reshape(-1), 4).reshape(4, 4)
        want = oracles.psd_nearest_descent(m)
        err = float(np.linalg.norm(got - want))
        if err > 1e-6 * (1.0 + np.linalg.norm(want)):
            failures.append({"seed": seed, "case": "psd", "error": err})
        for variant in ("halfspace", "box", "ball"):
            set_ = sampling.random_set(variant, rng, dim=5)
            z = sampling.random_point(5, rng)
            p = project(set_, z)
            p2 = project(set_, p)
            err = float(np.linalg.norm(p - p2))
            if err > 1e-12:
                failures.append({"seed": seed, "case": f"{variant}-idempotence", "error": err})
            x = sampling.random_member(set_, rng)
            ip = float((z - p) @ (x - p))
            if ip > 1e-9 * (1.0 + float(z @ z)):
                failures.append({"seed": seed, "case": f"{variant}-characteristic", "error": ip})
    return failures


def _check_circumcenter(seeds) -> list:
    failures = []
    for seed in seeds:
        rng = sampling.make_rng(2000 + seed)
        dim = int(rng.integers(2, 8))
        z = sampling.random_point(dim, rng)
        v = sampling.random_point(dim, rng)
        w = sampling.random_point(dim, rng)
        c = circumcenter(z, v, w)
        equi, span = oracles.circumcenter_residuals(z, v, w, c)
        scale = 1.0 + float(np.linalg.norm(z))
        if equi > 1e-9 * scale or span > 1e-9 * scale:
            failures.append(
                {"seed": seed, "case": "equidistance", "error": max(equi, span)}
            )
        # strictly centralized input via the centralizer on an overlapping
        # ball pair (center distance < 2 keeps the intersection nonempty)
        from .geometry import Ball, ProblemPair

        c1 = rng.standard_normal(dim)
        offset = rng.standard_normal(dim)
        offset *= rng.uniform(0.0, 1.5) / np.linalg.norm(offset)
        pair = ProblemPair(
            X=Ball(c1, 1.0),
            Y=Ball(c1 + offset, 1.0),
            z0=np.zeros(dim),
        )
        y = project(pair.Y, sampling.random_point(dim, rng))
        n, _ = centralize(pair, y, float(rng.uniform(0.2, 0.8)))
        got, _ = pcrm(pair, n)
        want = oracles.supporting_halfspace_projection(pair, n)
        err = float(np.linalg.norm(got - want))
        if err > 1e-8 * (1.0 + np.linalg.norm(want)):
            failures.append({"seed": seed, "case": "pcrm-vs-qp", "error": err})
    return failures


def _check_invariants(seeds) -> list:
    failures = []
    for seed in seeds:
        rng = sampling.make_rng(3000 + seed)
        for variant in sampling.VARIANTS:
            set_ = sampling.random_set(variant, rng)
            dim = set_.dim
            z = sampling.random_point(dim, rng)
            w = sampling.random_point(dim, rng)
            pz, pw = project(set_, z), project(set_, w)
            if float(np.linalg.norm(pz - pw)) > float(np.linalg.norm(z - w)) + 1e-9:
                failures.append({"seed": seed, "case": f"{variant}-nonexpansive"})
            x = sampling.random_member(set_, rng)
            lhs = float(np.linalg.norm(z - x)) ** 2
            rhs = (
                float(np.linalg.norm(z - pz)) ** 2
                + float(np.linalg.norm(pz - x)) ** 2
            )
            if lhs < rhs - 1e-9 * (1.0 + lhs):
                failures.append({"seed": seed, "case": f"{variant}-pythagorean"})
            refl = 2.0 * pz - z
            if abs(
                float(np.linalg.norm(refl - pz)) - float(np.linalg.norm(z - pz))
            ) > 1e-9 * (1.0 + np.linalg.norm(z)):
                failures.append({"seed": seed, "case": f"{variant}-reflection"})
    return failures
