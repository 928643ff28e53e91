"""Print one digest line per instance and per solve of a fixed list, to
check that a change leaves every instance and every trace bit-identical.

    PYTHONPATH=<checkout>/src python3 tools/trace_digest.py > digests.txt

Run it on two checkouts and `diff` the outputs.  An instance line is the
instance's name and the sha256 of its JSON document, metadata included.  A
solve line is the solve's name, status, iteration count and a sha256 over
every record field except `wall_ns`, the failure text and the final point.
The instances cover the three generator families, a parameter left to its
default, integer-valued numbers, the instances of run seed 0 of each
benchmark workload, read from `perfbench/workloads.py`, and two tangent
ellipsoid pairs (margin 0, built by the private builder, so their documents
hold no metadata).  The solves cover the three families with every kernel
shape, both schedules and MAP, iteration caps of 1, 2 and 7, failures at z0
and mid-run, the benchmark workloads' instances with their methods, and the
tangent pairs, where normals near antiparallel test the step's accuracy.
"""
from __future__ import annotations

import os

# one BLAS thread, as in the benchmark, before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib
import importlib.util
import json
from contextlib import contextmanager
from dataclasses import astuple
from pathlib import Path

import numpy as np

from cfeas.bench import ExperimentConfig
from cfeas.geometry import ProblemPair
from cfeas.problems import _ellipsoids, generate, make_rng, pair_to_json
from cfeas.solver import Constant, SolverConfig, Vanishing, solve

FAMILIES = {
    "ellipsoids": ({"n": 30, "cond": 10.0}, 1e-10),
    "matrix_completion": ({"n": 12, "rank": 2, "obs_frac": 0.5}, 1e-6),
    "halfspace_wedge": ({"n": 10, "theta": 0.5}, 1e-12),
}
METHODS = [
    {"kernel": kernel, "schedule": schedule}
    for kernel in ("Y", "XY", "YXY", "XYXY")
    for schedule in (Constant(0.5), Vanishing())
] + [{"method": "map"}]
BENCHMARK_WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def benchmark_workloads() -> dict:
    """workload -> (family, params, instance seeds, solver config) of run
    seed 0 of each benchmark workload, as the benchmark's loader reads them."""
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", BENCHMARK_WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    workloads = {}
    for name in module.WORKLOADS:
        config = ExperimentConfig.from_json(module.experiment_doc(name, 0))
        params = dict(config.generator)
        family = params.pop("family")
        (method,) = config.methods
        workloads[name] = (family, params, config.seeds, method.config)
    return workloads


@contextmanager
def failing_eigh(call):
    """np.linalg.eigh raises LinAlgError at its `call`-th call."""
    eigh, calls = np.linalg.eigh, [0]

    def failing(m):
        calls[0] += 1
        if calls[0] == call:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigh(m)

    np.linalg.eigh = failing
    try:
        yield
    finally:
        np.linalg.eigh = eigh


def instances(workloads):
    """(name, pair) of every instance, in a fixed order, with the benchmark
    instances of `workloads`, which `benchmark_workloads` returns."""
    for family, (params, _) in FAMILIES.items():
        for seed in range(3):
            yield f"{family}-{seed}", generate(family, seed, **params)
    for workload, (family, params, seeds, _) in workloads.items():
        for seed in seeds:
            yield f"{workload}-{seed}", generate(family, seed, **params)
    yield "ellipsoids-default-gap", generate("ellipsoids", 0, n=6, cond=4.0)
    yield "ellipsoids-int-cond", generate("ellipsoids", 1, n=5, cond=20)
    yield "matrix_completion-int-obs", generate("matrix_completion", 1, n=6, rank=2, obs_frac=1)
    for seed in range(2):
        yield f"tangent-{seed}", _ellipsoids(100, 20.0, 0.0, make_rng(seed))


def solves(pairs, workloads):
    """(name, pair, config, eigh call to fail or None), in a fixed order, over
    the instances `pairs` names."""
    for family, (params, eps) in FAMILIES.items():
        for seed in range(3):
            pair = pairs[f"{family}-{seed}"]
            for options in METHODS:
                name = f"{family}-{seed}-" + (
                    f"{options['kernel']}-{type(options['schedule']).__name__}"
                    if "kernel" in options else "map"
                )
                for max_iter in (1, 2, 7, 2000):
                    cfg = SolverConfig(eps=eps, max_iter=max_iter, **options)
                    yield f"{name}-cap{max_iter}", pair, cfg, None
    for workload, (_, _, seeds, cfg) in workloads.items():
        for seed in seeds:
            yield f"{workload}-{seed}", pairs[f"{workload}-{seed}"], cfg, None
    for seed in range(2):
        for schedule in (Constant(0.5), Vanishing()):
            cfg = SolverConfig(kernel="XY", schedule=schedule, eps=1e-12, max_iter=2000)
            name = f"tangent-{seed}-XY-{type(schedule).__name__}"
            yield name, pairs[f"tangent-{seed}"], cfg, None
    far = pairs["ellipsoids-default-gap"]
    far = ProblemPair(far.X, far.Y, np.full(6, 1e160))  # overflows the ellipsoid projection
    mc = pairs["matrix_completion-2"]
    for method in ("crm", "map"):
        yield f"far-z0-{method}", far, SolverConfig(method=method), None
        # crm: z0's gap is eigh call 1 and each XY step makes two more;
        # map: z0's gap is call 1 and each step makes one
        cfg = SolverConfig(method=method, eps=1e-300, max_iter=10)
        yield f"eigh-fails-{method}", mc, cfg, 4 if method == "crm" else 3


def digest(trace) -> str:
    h = hashlib.sha256()
    for record in trace.records:
        h.update(repr(astuple(record)[:-1]).encode())  # wall_ns is last
    h.update(repr(trace.failure).encode())
    h.update(np.asarray(trace.final_point, dtype="<f8").tobytes())
    return h.hexdigest()


def main():
    workloads = benchmark_workloads()
    pairs = dict(instances(workloads))
    for name, pair in pairs.items():
        print(name, hashlib.sha256(json.dumps(pair_to_json(pair)).encode()).hexdigest())
    for name, pair, cfg, fail_at in solves(pairs, workloads):
        if fail_at is None:
            trace = solve(pair, cfg)
        else:
            with failing_eigh(fail_at):
                trace = solve(pair, cfg)
        print(name, trace.status, trace.iterations, digest(trace))


if __name__ == "__main__":
    main()
