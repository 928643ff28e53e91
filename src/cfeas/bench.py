"""Experiment matrices: seeded runs, aggregation, plot data, oracle suites."""
from __future__ import annotations

import csv
import json
import operator
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from . import oracles, sampling
from .circumcentering import circumcenter, pcrm
from .errors import EmptyInput, InvalidSpec
from .geometry import Ellipsoid, PsdCone, distance, project, project_psd
from .operators import KernelSpec, centralize
from .problems import GENERATORS, generate, generator_args
from .solver import (
    STATUS_NUMERICAL_FAILURE,
    Constant,
    SolveTrace,
    SolverConfig,
    Table,
    Vanishing,
    schedule_value,
    write_trace_csv,
)

SUMMARY_COLUMNS = [
    "method",
    "alpha",
    "kernel",
    "mean_iters",
    "mean_time_s",
    "mean_final_delta",
    "mean_projections",
]

CONFIG_SCHEMA = {
    "type": "object",
    "required": ["generator", "methods", "seeds"],
    "properties": {
        "generator": {
            "type": "object",
            "required": ["family"],
            "properties": {
                "family": {"enum": list(GENERATORS)},
                **{
                    key: {"type": "integer" if read is operator.index else "number"}
                    for _, fields in GENERATORS.values()
                    for key, read, _ in fields
                },
            },
        },
        "methods": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["name"],
                "properties": {
                    "name": {"type": "string"},
                    "method": {"enum": ["crm", "map"]},
                    "kernel": {"type": "string"},
                    "schedule": {
                        "type": "object",
                        "properties": {
                            "kind": {"enum": ["constant", "vanishing", "table"]},
                            "alpha": {"type": "number"},
                            "values": {"type": "array"},
                        },
                    },
                },
            },
        },
        "seeds": {"type": "array", "minItems": 1, "items": {"type": "integer"}},
        "eps": {"type": "number"},
        "max_iter": {"type": "integer"},
        "output_dir": {"type": "string"},
    },
}


def schedule_from_json(doc: Optional[dict]):
    if doc is None:
        return Constant(0.5)
    kind = doc.get("kind", "constant")
    if kind == "constant":
        return Constant(float(doc.get("alpha", 0.5)))
    if kind == "vanishing":
        return Vanishing()
    if kind == "table":
        return Table(tuple(doc.get("values", ())))
    raise InvalidSpec(f"unknown schedule kind {kind!r}")


def _schedule_label(schedule) -> str:
    if isinstance(schedule, Constant):
        return repr(schedule.alpha)
    if isinstance(schedule, Vanishing):
        return "vanishing"
    return "table"


@dataclass
class MethodSpec:
    name: str
    config: SolverConfig

    @classmethod
    def from_json(cls, doc: dict, eps: float, max_iter: int) -> "MethodSpec":
        method = doc.get("method", "crm")
        cfg = SolverConfig(
            method=method,
            kernel=KernelSpec.from_string(doc.get("kernel", "XY")),
            schedule=schedule_from_json(doc.get("schedule")),
            eps=eps,
            max_iter=max_iter,
        )
        return cls(name=doc["name"], config=cfg)


@dataclass
class ExperimentConfig:
    generator: dict
    methods: List[MethodSpec]
    seeds: List[int]
    eps: float = 1e-8
    max_iter: int = 100_000
    output_dir: str = "bench_out"

    def __post_init__(self):
        if not self.methods:
            raise InvalidSpec("need at least one method")
        if not self.seeds:
            raise InvalidSpec("need at least one seed")

    @classmethod
    def from_json(cls, doc: dict) -> "ExperimentConfig":
        """Build a config, checked once here: a malformed document, an unknown
        family or method, a missing generator parameter, a bad kernel or
        schedule raise InvalidSpec instead of failing every cell later."""
        try:
            eps = float(doc.get("eps", 1e-8))
            max_iter = int(doc.get("max_iter", 100_000))
            generator = dict(doc["generator"])
            family = generator["family"]
            methods = [MethodSpec.from_json(m, eps, max_iter) for m in doc["methods"]]
            seeds = [int(s) for s in doc["seeds"]]
            generator_args(family, generator)
        except KeyError as exc:
            raise InvalidSpec(f"bench config: missing field {exc}") from None
        except (AttributeError, TypeError, ValueError) as exc:
            raise InvalidSpec(f"bench config: {exc}") from None
        return cls(
            generator=generator,
            methods=methods,
            seeds=seeds,
            eps=eps,
            max_iter=max_iter,
            output_dir=doc.get("output_dir", "bench_out"),
        )


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
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(lambda c: _run_one(config, *c), cells))
    else:
        results = [_run_one(config, m, s) for m, s in cells]
    # deterministic reduction order regardless of completion order
    results.sort(key=lambda r: (r.method, r.seed))

    by_method: dict = {}
    for r in results:
        by_method.setdefault(r.method, []).append(r)
        if r.trace is not None:
            write_trace_csv(r.trace, os.path.join(out, f"trace_{r.method}_{r.seed}.csv"))

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
    traces = {
        f"{r.method}_{r.seed}": r.trace for r in results if r.trace is not None
    }
    if traces:
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


def write_summary_csv(rows, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=SUMMARY_COLUMNS)
        writer.writeheader()
        for row in rows:
            out = dict(row)
            for key in ("mean_iters", "mean_time_s", "mean_final_delta", "mean_projections"):
                out[key] = repr(float(out[key]))
            writer.writerow(out)


def emit_convergence_plotdata(traces: dict, path) -> None:
    """Long-format CSV method,k,delta; strictly positive gaps only."""
    if not traces:
        raise EmptyInput("no traces to plot")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "k", "delta"])
        for name, trace in traces.items():
            for r in trace.records:
                if r.delta > 0.0:
                    writer.writerow([name, r.k, repr(r.delta)])


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


def _check_circumcenter(seeds, perturb: float = 0.0) -> list:
    failures = []
    for seed in seeds:
        rng = sampling.make_rng(2000 + seed)
        dim = int(rng.integers(2, 8))
        z = sampling.random_point(dim, rng)
        v = sampling.random_point(dim, rng)
        w = sampling.random_point(dim, rng)
        c = circumcenter(z, v, w).center + perturb
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
        got = pcrm(pair, n)
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
