"""Tracer, independent check and output read-back of the benchmark.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""
import importlib
import time

import numpy as np
import pytest

import cfeas.bench
import cfeas.geometry
import check
import tracer as tracing
import workloads
from cfeas.bench import ExperimentConfig
from cfeas.operators import KernelSpec
from cfeas.problems import generate
from cfeas.solver import SolverConfig, solve

import cfeas.solver as solver_module

# A traced solve may spend this much beyond what its own clock measures:
# entering and leaving the root span and building the returned trace.
ROOT_OVERHEAD_RTOL = 0.05
ROOT_OVERHEAD_NS = 2_000_000


def _map_pair():
    return generate("ellipsoids", 3, n=20, cond=1.5, tangency_gap=1e-3)


def _traced_solve(pair, cfg):
    t = tracing.Tracer()
    with t.installed():
        start = time.perf_counter_ns()
        trace = solver_module.solve(pair, cfg)
        outside_ns = time.perf_counter_ns() - start
    return t, trace, outside_ns


@pytest.mark.parametrize("leave_early", [False, True])
def test_patched_attributes_are_restored(leave_early):
    originals = {
        site: getattr(importlib.import_module(site[0]), site[1]) for site in tracing.PATCH_SITES
    }
    t = tracing.Tracer()
    try:
        with t.installed():
            for (module, attr), fn in originals.items():
                assert getattr(importlib.import_module(module), attr) is not fn
            solver_module.solve(_map_pair(), SolverConfig(method="map", eps=1e-6))
            if leave_early:
                raise RuntimeError("leave the block early")
    except RuntimeError:
        assert leave_early
    for (module, attr), fn in originals.items():
        assert getattr(importlib.import_module(module), attr) is fn
    assert t.spans, "the solve inside the block was not traced"


def test_child_spans_nest_inside_their_parents():
    pair = generate("ellipsoids", 1, n=30, cond=10.0, tangency_gap=1e-2)
    t, _, _ = _traced_solve(pair, SolverConfig(kernel=KernelSpec.from_string("YXY"), eps=1e-9))
    assert len(t.spans) > 100
    for s in t.spans:
        assert s[tracing.START] <= s[tracing.END]
        if s[tracing.PARENT] >= 0:
            p = t.spans[s[tracing.PARENT]]
            assert p[tracing.START] <= s[tracing.START] and s[tracing.END] <= p[tracing.END]
            assert p[tracing.SOLVE] == s[tracing.SOLVE] == 0
    roots = [s for s in t.spans if s[tracing.PARENT] < 0]
    assert [tracing.span_name(s[tracing.SITE]) for s in roots] == ["solver.solve"]


@pytest.mark.parametrize("method", ["crm", "map"])
def test_self_times_add_up_to_the_solve(method):
    t, trace, outside_ns = _traced_solve(_map_pair(), SolverConfig(method=method, eps=1e-9))
    root = t.spans[0]
    root_ns = root[tracing.END] - root[tracing.START]
    # self times partition the root span exactly (integer nanoseconds)
    assert sum(tracing.self_times_ns(t.spans)) == root_ns
    assert all(ns >= 0 for ns in tracing.self_times_ns(t.spans))
    # and the root span is the solve as timed from inside and from outside
    assert trace.records[-1].wall_ns <= root_ns <= outside_ns
    assert root_ns - trace.records[-1].wall_ns <= ROOT_OVERHEAD_RTOL * root_ns + ROOT_OVERHEAD_NS


def test_counts_match_the_trace_on_a_map_run():
    t, trace, _ = _traced_solve(_map_pair(), SolverConfig(method="map", eps=1e-10))
    m = tracing.layer_metrics(t.spans)
    last = trace.records[-1]
    assert trace.status == "converged" and trace.iterations > 100
    assert m["geometry.ellipsoid.calls"] == last.cum_proj_alg + last.cum_proj_diag
    assert m["solver.stop_gap.calls"] == last.cum_proj_diag
    assert m["circumcentering.calls"] == 0
    assert m["operators.step.calls"] == 0
    assert m["geometry.psd.calls"] == 0
    assert m["geometry.failures"] == 0


def test_counts_match_the_trace_on_a_crm_run():
    pair = generate("matrix_completion", 2, n=12, rank=2, obs_frac=0.5)
    t, trace, _ = _traced_solve(pair, SolverConfig(eps=1e-3))
    m = tracing.layer_metrics(t.spans)
    last = trace.records[-1]
    assert m["operators.project.calls"] == last.cum_proj_alg
    assert m["solver.stop_gap.calls"] == last.cum_proj_diag
    assert m["operators.step.calls"] == trace.iterations
    # XY kernel: P_X in the kernel and in the centralizer, P_X in the stopping gap
    assert m["geometry.psd.calls"] == 3 * trace.iterations + 1
    assert m["geometry.ellipsoid.calls"] == 0
    shares = tracing.self_shares(t.spans)
    assert abs(sum(shares.values()) - 1.0) < 1e-9


def test_independent_check_does_not_project(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the independent check called cfeas.geometry.project")

    traces = {}
    for family, params, eps in (
        ("ellipsoids", {"n": 20, "cond": 1.5, "tangency_gap": 1e-3}, 1e-10),
        ("matrix_completion", {"n": 12, "rank": 2, "obs_frac": 0.5}, 1e-3),
    ):
        pair = generate(family, 0, **params)
        traces[family] = (pair, solve(pair, SolverConfig(eps=eps)), eps)
    monkeypatch.setattr(cfeas.geometry, "project", refuse)
    for pair, trace, eps in traces.values():
        assert trace.status == "converged"
        ok, ratio = check.verify_point(pair, trace.final_point, eps)
        assert ok and ratio <= 1.0 + check.EPS_SLACK_RTOL
        bad, _ = check.verify_point(pair, pair.z0, eps)
        assert not bad


def test_pass_outputs_read_back(tmp_path):
    params = {"n": 15, "cond": 5.0, "tangency_gap": 1e-2}
    doc = {
        "generator": {"family": "ellipsoids", **params},
        "methods": [
            {"name": "crm_xy", "kernel": "XY", "schedule": {"kind": "constant", "alpha": 0.5}},
            {"name": "crm_xy_vanishing", "kernel": "XY", "schedule": {"kind": "vanishing"}},
            {"name": "crm_yxy", "kernel": "YXY", "schedule": {"kind": "constant", "alpha": 0.5}},
        ],
        "seeds": [0, 1],
        "eps": 1e-10,
        "max_iter": 5000,
    }
    config = ExperimentConfig.from_json(doc)
    pairs = {s: generate("ellipsoids", s, **params) for s in doc["seeds"]}
    originals = (cfeas.bench.generate, solver_module.solve)
    res = workloads.run_pass(config, pairs, str(tmp_path))
    assert (cfeas.bench.generate, solver_module.solve) == originals
    assert [(n, s) for n, s, _, _ in res.cells] == [
        (m.name, s) for m in config.methods for s in config.seeds
    ]
    assert len(res.cells) == 6 and all(t.status == "converged" for _, _, t, _ in res.cells)
    assert check.check_outputs(res.cells, res.files) == []
    again = workloads.run_pass(config, pairs, str(tmp_path))
    assert workloads.delta_digest(again.cells) == workloads.delta_digest(res.cells)
    path = res.files[("crm_xy", 0)]
    lines = open(path).read().splitlines()
    with open(path, "w") as fh:
        fh.write("\n".join(lines[:-1]) + "\n")
    assert check.check_outputs(res.cells, res.files) != []


def test_fastest_takes_each_unit_at_its_best_pass():
    import run

    passes = [type("Pass", (), {})() for _ in range(3)]
    # cell 0: initial gap, two iterations, tail; cell 1 raised: one unit
    passes[0].units_ns = [np.array([1, 5, 9, 2]), np.array([7])]
    passes[1].units_ns = [np.array([2, 4, 2, 1]), np.array([3])]
    passes[2].units_ns = [np.array([3, 6, 3, 3]), np.array([4])]
    for p, io_s in zip(passes, (0.5, 0.25, 1.0)):
        p.io_s = io_s
    solve_ns, iter_ns = run.fastest(passes)
    assert solve_ns.tolist() == [1 + 4 + 2 + 1, 3]
    assert iter_ns.tolist() == [4, 2]
    assert run.pass_wall_s(passes) == (8 + 3) * 1e-9 + 0.25
    assert np.isnan(run.pass_wall_s([]))


def test_solve_units_add_up_to_the_solve():
    pair = _map_pair()
    start = time.perf_counter_ns()
    trace = solve(pair, SolverConfig(method="map", eps=1e-8))
    outside_ns = time.perf_counter_ns() - start
    units = workloads.solve_units_ns(trace, outside_ns)
    assert len(units) == trace.iterations + 2
    assert units.sum() == outside_ns and (units >= 0).all()
    assert workloads.solve_units_ns(None, 5).tolist() == [5]
