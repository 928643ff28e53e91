"""Workload definitions and one measured pass over a workload's cells.

Each workload is a ``cfeas bench`` config (generator, methods x seeds, eps,
max_iter).  The run's ``--seed`` picks a block of instance seeds that no other
run seed shares: run seed s solves instance seeds s*K .. s*K + K - 1.

Why these two:
- mc_psd: matrix completion; the PSD projection (one ``eigh``) dominates, and
  the stopping gap issues a third of the ``eigh`` calls.  No ellipsoid work.
- ell_map: alternating projections on ellipsoids; thousands of iterations near
  the boundary with no step or circumcenter, so the driver loop, the stopping
  gap and the trace-CSV output carry their largest share.

Cyclic CRM on ellipsoids is left out: its Python-bound iterations swung
most with the machine's speed, and matrix completion already runs the
operators and the circumcenter on every iteration.

Sizes trade two kinds of noise.  A pass is short (about 1 s) so that it
repeats about fifty times a run and every unit of a solve gets a fast sample
(see ``run.fastest``); a pass holds enough instances that a run's iteration
total stays within about 10% across run seeds.  Matrix completion at n = 80
keeps the ``eigh`` at 87% of self time (as at n = 150) for a third of the cost
per iteration; its iterations vary 20% between instance seeds, and sixteen
seeds give about 280 iterations a pass.  MAP on ellipsoids with axis scales
in [1, 20] varies tenfold between seeds (4.8k to 49k iterations); with scales
in [1, 1.5] at n = 100 and eps 1e-4 it takes about 600 iterations a seed and
varies 6%.
"""
from __future__ import annotations

import hashlib
import os
import time

WORKLOADS = {
    "mc_psd": {
        "generator": {"family": "matrix_completion", "n": 80, "rank": 3, "obs_frac": 0.6},
        "methods": [
            {"name": "crm_xy", "kernel": "XY", "schedule": {"kind": "constant", "alpha": 0.5}},
        ],
        "seeds_per_run": 16,
        # about 2% of the initial gap (about 52)
        "eps": 1.0,
        "max_iter": 5000,
    },
    "ell_map": {
        "generator": {"family": "ellipsoids", "n": 100, "cond": 1.5, "tangency_gap": 1e-3},
        "methods": [{"name": "map", "method": "map"}],
        "seeds_per_run": 5,
        "eps": 1e-4,
        "max_iter": 200_000,
    },
}

# Tiny instances of each family, solved once untimed before measuring.
WARMUP_GENERATORS = {
    "matrix_completion": {"n": 8, "rank": 2, "obs_frac": 0.6},
    "ellipsoids": {"n": 6, "cond": 4.0, "tangency_gap": 0.05},
}


def experiment_doc(name: str, run_seed: int) -> dict:
    spec = WORKLOADS[name]
    k = spec["seeds_per_run"]
    return {
        "generator": spec["generator"],
        "methods": spec["methods"],
        "seeds": [run_seed * k + i for i in range(k)],
        "eps": spec["eps"],
        "max_iter": spec["max_iter"],
    }


def set_up(name: str, run_seed: int):
    """Import the harness and generate every instance; returns the config,
    the instances by seed, and the two phase times in seconds."""
    t0 = time.perf_counter()
    import cfeas.bench
    import cfeas.problems

    t1 = time.perf_counter()
    config = cfeas.bench.ExperimentConfig.from_json(experiment_doc(name, run_seed))
    gen = dict(config.generator)
    family = gen.pop("family")
    pairs = {seed: cfeas.problems.generate(family, seed, **gen) for seed in config.seeds}
    t2 = time.perf_counter()
    return config, pairs, t1 - t0, t2 - t1


def warm_up(config) -> None:
    import cfeas.problems
    import cfeas.solver

    family = config.generator["family"]
    pair = cfeas.problems.generate(family, 0, **WARMUP_GENERATORS[family])
    for method in config.methods:
        cfeas.solver.solve(pair, method.config)


class PassResult:
    """Outcome of one ``cfeas.bench.run_matrix`` call over a workload's cells.

    ``cells`` holds the traces; the other fields summarise them so that a
    measuring loop can drop the traces of all but one pass.
    """

    def __init__(self):
        self.cells = []  # (method name, seed, trace or None, error or None)
        self.solve_ns = []
        self.wall_s = 0.0
        self.io_s = 0.0
        self.io_bytes = 0
        self.files = {}

    def summarise(self) -> None:
        self.digest = delta_digest(self.cells)
        self.converged = [t is not None and t.status == "converged" for _, _, t, _ in self.cells]
        self.fingerprints = [cell_fingerprint(t) for _, _, t, _ in self.cells]
        self.units_ns = [solve_units_ns(t, ns) for (_, _, t, _), ns in zip(self.cells, self.solve_ns)]


def solve_units_ns(trace, solve_ns: int):
    """A solve's time cut at its trace records: the initial gap, each
    iteration (differences of ``wall_ns``) and the rest up to the return, as
    timed from outside.  A solve that raised is one unit."""
    import numpy as np

    if trace is None:
        return np.array([solve_ns], dtype=np.int64)
    wall = np.array([r.wall_ns for r in trace.records], dtype=np.int64)
    return np.concatenate([np.diff(wall, prepend=0), [max(solve_ns - int(wall[-1]), 0)]])


def run_pass(config, pairs, out_dir: str) -> PassResult:
    """Run ``cfeas.bench.run_matrix`` on the pre-generated instances.

    Two module attributes are swapped for the duration of the call:
    ``cfeas.bench.generate`` becomes a lookup into ``pairs``, so generation
    stays in the set-up, and ``cfeas.solver.solve`` (which ``run_matrix``
    resolves at call time) becomes a wrapper that times each solve from
    outside and keeps its trace.  A tracer installed around this call wraps
    the same attribute, underneath the timing wrapper.
    """
    import cfeas.bench as bench
    import cfeas.solver as solver

    res = PassResult()
    method_of = {id(m.config): m.name for m in config.methods}
    seed_of = {id(pair): seed for seed, pair in pairs.items()}
    family = config.generator["family"]
    solve = solver.solve

    def lookup(family_, seed, **_params):
        assert family_ == family, family_
        return pairs[seed]

    def timed_solve(pair, cfg):
        trace = error = None
        start = time.perf_counter_ns()
        try:
            trace = solve(pair, cfg)
            return trace
        except Exception as exc:  # run_matrix records it as a failed cell
            error = f"{type(exc).__name__}: {exc}"
            raise
        finally:
            res.solve_ns.append(time.perf_counter_ns() - start)
            res.cells.append((method_of[id(cfg)], seed_of[id(pair)], trace, error))

    saved = bench.generate, solver.solve
    bench.generate, solver.solve = lookup, timed_solve
    t0 = time.perf_counter()
    try:
        bench.run_matrix(config, out_dir=out_dir)
    finally:
        res.wall_s = time.perf_counter() - t0
        bench.generate, solver.solve = saved
    res.io_s = res.wall_s - sum(res.solve_ns) * 1e-9

    for name, seed, trace, _ in res.cells:
        if trace is not None:
            res.files[(name, seed)] = os.path.join(out_dir, f"trace_{name}_{seed}.csv")
    for key, base in (("summary", "summary.csv"), ("plotdata", "plotdata.csv"), ("report", "report.json")):
        res.files[key] = os.path.join(out_dir, base)
    res.io_bytes = sum(os.path.getsize(p) for p in res.files.values() if os.path.exists(p))
    res.summarise()
    return res


def delta_digest(cells) -> str:
    """sha256 over every solve's ``delta`` column, in cell order."""
    import numpy as np

    h = hashlib.sha256()
    for _, _, trace, _ in cells:
        deltas = np.asarray(trace.deltas if trace is not None else [], dtype="<f8")
        h.update(len(deltas).to_bytes(8, "little"))
        h.update(deltas.tobytes())
    return h.hexdigest()


def cell_fingerprint(trace) -> str:
    """sha256 of one solve's ``delta`` column and final point."""
    import numpy as np

    if trace is None:
        return ""
    h = hashlib.sha256(np.asarray(trace.deltas, dtype="<f8").tobytes())
    h.update(np.asarray(trace.final_point, dtype="<f8").tobytes())
    return h.hexdigest()
