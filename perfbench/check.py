"""Independent check of a solve's final point.

The distances are computed without ``cfeas.geometry.project``:
- ellipsoid: projection by bisection of the multiplier (``cfeas.oracles``);
- PSD cone: norm of the negative part of the spectrum (``eigvalsh``);
- entry mask: the exact residual on the pinned entries.
"""
from __future__ import annotations

import csv
import json

import numpy as np

from cfeas.geometry import Ellipsoid, EntryMask, PsdCone
from cfeas.oracles import ellipsoid_bisection
from cfeas.solver import STATUS_NUMERICAL_FAILURE

# The bisection oracle stops at a secular residual of 1e-12, so its distance
# can exceed the solver's own by a small fraction of eps: on MAP ellipsoid
# runs it was measured at 1.0008e-10 against eps = 1e-10.
EPS_SLACK_RTOL = 0.01
ABS_SLACK_RTOL = 1e-12


def oracle_distance(set_, z: np.ndarray) -> float:
    if isinstance(set_, Ellipsoid):
        p, _ = ellipsoid_bisection(set_, z)
        return float(np.linalg.norm(z - p))
    if isinstance(set_, PsdCone):
        m = z.reshape(set_.order, set_.order)
        vals = np.linalg.eigvalsh(0.5 * (m + m.T))
        asym = 0.5 * (m - m.T)
        # the skew part is orthogonal to every symmetric matrix
        return float(np.sqrt(np.sum(np.minimum(vals, 0.0) ** 2) + np.sum(asym * asym)))
    if isinstance(set_, EntryMask):
        flat = set_.rows * set_.order + set_.cols
        return float(np.linalg.norm(z[flat] - set_.values))
    raise TypeError(f"no independent distance for {type(set_).__name__}")


def verify_point(pair, z, eps: float) -> tuple:
    """(passed, largest distance / eps) for a final point of a solve with gap eps."""
    z = np.asarray(z, dtype=float)
    worst = max(oracle_distance(pair.X, z), oracle_distance(pair.Y, z))
    limit = eps * (1.0 + EPS_SLACK_RTOL) + ABS_SLACK_RTOL * (1.0 + float(np.linalg.norm(z)))
    return worst <= limit, worst / eps


def check_outputs(cells, files) -> list:
    """Read back what ``cfeas.bench.run_matrix`` wrote for one pass and compare
    it with the solves; returns a list of problems (empty if none)."""
    problems = []
    positive = 0
    iters: dict = {}
    for name, seed, trace, _ in cells:
        if trace is None:
            continue
        if trace.status != STATUS_NUMERICAL_FAILURE:
            iters.setdefault(name, []).append(trace.iterations)
        positive += sum(1 for r in trace.records if r.delta > 0.0)
        with open(files[(name, seed)], newline="") as fh:
            rows = list(csv.DictReader(fh))
        got = [(float(r["delta"]), int(r["cum_proj_alg"]), int(r["cum_proj_diag"])) for r in rows]
        want = [(r.delta, r.cum_proj_alg, r.cum_proj_diag) for r in trace.records]
        if got != want:
            problems.append(f"trace CSV of {name} seed {seed} differs from the solve")
    with open(files["summary"], newline="") as fh:
        summary = {r["method"]: float(r["mean_iters"]) for r in csv.DictReader(fh)}
    if set(summary) != {name for name, _, _, _ in cells}:
        problems.append("summary.csv does not hold one row per method")
    for name, mean_iters in summary.items():
        if name in iters and mean_iters != float(np.mean(iters[name])):
            problems.append(f"summary.csv mean_iters of {name} differs from the solves")
    with open(files["plotdata"], newline="") as fh:
        if sum(1 for _ in fh) - 1 != positive:
            problems.append("plotdata.csv row count differs from the positive gaps")
    with open(files["report"]) as fh:
        report = json.load(fh)
    runs = {(r["method"], r["seed"]): r for r in report["runs"]}
    failed = set()
    for name, seed, trace, _ in cells:
        run = runs.get((name, seed), {})
        status = trace.status if trace is not None else "error"
        iterations = trace.iterations if trace is not None else None
        if (run.get("status"), run.get("iterations")) != (status, iterations):
            problems.append(f"report.json entry of {name} seed {seed} differs from the solve")
        if trace is None or trace.status == STATUS_NUMERICAL_FAILURE:
            failed.add((name, seed))
    if len(runs) != len(cells):
        problems.append("report.json does not list every cell once")
    if {(f["method"], f["seed"]) for f in report["failures"]} != failed:
        problems.append("report.json failures differ from the failed solves")
    return problems
