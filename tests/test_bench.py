"""Experiment matrix runner, summary/plotdata outputs, oracle suites."""
import csv
import json
import os
import time

import numpy as np
import pytest

import cfeas.bench
import cfeas.oracles
from cfeas.bench import ExperimentConfig, run_matrix
from cfeas.cli import build_parser
from cfeas.errors import InvalidSpec
from cfeas.oracles import oracle_check
from cfeas.problems import CONFIG_SCHEMA, generate, schedule_from_json
from cfeas.solver import Constant, SolverConfig, Table, Vanishing, solve


def _config_doc(out_dir, seeds=(0, 1, 2)):
    return {
        "generator": {
            "family": "ellipsoids",
            "n": 20,
            "cond": 10.0,
            "tangency_gap": 0.05,
        },
        "methods": [
            {"name": "crm_half", "schedule": {"kind": "constant", "alpha": 0.5}},
            {"name": "crm_vanish", "schedule": {"kind": "vanishing"}},
            {"name": "map", "method": "map"},
        ],
        "seeds": list(seeds),
        "eps": 1e-8,
        "max_iter": 50000,
        "output_dir": out_dir,
    }


def test_schedule_from_json_variants():
    assert schedule_from_json({"kind": "constant", "alpha": 0.3}) == Constant(0.3)
    assert isinstance(schedule_from_json({"kind": "vanishing"}), Vanishing)
    assert schedule_from_json({"kind": "table", "values": [0.5, 0.2]}) == Table(
        (0.5, 0.2)
    )
    # a schedule without a kind is constant, and a method without a schedule
    # takes the fixed-step default
    assert schedule_from_json({"alpha": 0.3}) == Constant(0.3)
    config = ExperimentConfig.from_json({**_config_doc("out"), "methods": [{"name": "m"}]})
    assert config.methods[0].config.schedule == Constant(0.5)
    with pytest.raises(InvalidSpec):
        schedule_from_json({"kind": "adaptive"})


def test_solve_and_bench_config_defaults_agree():
    # each default is stated once: alpha in Constant, eps in the config table
    assert schedule_from_json({}) == SolverConfig().schedule
    doc = _config_doc("out")
    del doc["eps"]
    assert build_parser().parse_args(["solve"]).eps == ExperimentConfig.from_json(doc).eps


def test_experiment_config_validation():
    with pytest.raises(InvalidSpec):
        ExperimentConfig.from_json(
            {"generator": {"family": "ellipsoids"}, "methods": [], "seeds": [0]}
        )
    with pytest.raises(InvalidSpec):
        ExperimentConfig.from_json(
            {
                "generator": {"family": "ellipsoids"},
                "methods": [{"name": "m"}],
                "seeds": [],
            }
        )


def test_config_schema_is_self_consistent():
    assert CONFIG_SCHEMA["type"] == "object"
    assert set(CONFIG_SCHEMA["required"]) <= set(CONFIG_SCHEMA["properties"])


def test_run_matrix_outputs(tmp_path):
    out = str(tmp_path / "run")
    config = ExperimentConfig.from_json(_config_doc(out))
    summary, report = run_matrix(config)
    assert not report["failures"]
    assert {row["method"] for row in summary} == {"crm_half", "crm_vanish", "map"}
    for row in summary:
        assert row["mean_final_delta"] <= 1e-8
    assert os.path.exists(os.path.join(out, "summary.csv"))
    assert os.path.exists(os.path.join(out, "plotdata.csv"))
    assert os.path.exists(os.path.join(out, "report.json"))
    for method in ("crm_half", "crm_vanish", "map"):
        for seed in (0, 1, 2):
            assert os.path.exists(os.path.join(out, f"trace_{method}_{seed}.csv"))
    with open(os.path.join(out, "report.json")) as fh:
        loaded = json.load(fh)
    assert len(loaded["runs"]) == 9


def test_run_matrix_parallel_matches_serial(tmp_path):
    serial = ExperimentConfig.from_json(_config_doc(str(tmp_path / "a"), seeds=(0, 1)))
    parallel = ExperimentConfig.from_json(_config_doc(str(tmp_path / "b"), seeds=(0, 1)))
    rows_a, _ = run_matrix(serial, jobs=1)
    rows_b, _ = run_matrix(parallel, jobs=4)
    for ra, rb in zip(rows_a, rows_b):
        assert ra["method"] == rb["method"]
        assert ra["mean_iters"] == rb["mean_iters"]
        assert ra["mean_final_delta"] == rb["mean_final_delta"]
        assert ra["mean_projections"] == rb["mean_projections"]


def test_summary_csv_identical_across_reruns(tmp_path):
    def non_time_content(path):
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        return [
            {k: v for k, v in row.items() if k != "mean_time_s"} for row in rows
        ]

    out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
    run_matrix(ExperimentConfig.from_json(_config_doc(out1)))
    run_matrix(ExperimentConfig.from_json(_config_doc(out2)))
    assert non_time_content(os.path.join(out1, "summary.csv")) == non_time_content(
        os.path.join(out2, "summary.csv")
    )


def test_plotdata_long_format(tmp_path):
    out = str(tmp_path / "run")
    config = ExperimentConfig.from_json(_config_doc(out, seeds=(0,)))
    run_matrix(config)
    with open(os.path.join(out, "plotdata.csv")) as fh:
        rows = list(csv.DictReader(fh))
    assert set(rows[0].keys()) == {"method", "k", "delta"}
    for row in rows:
        assert float(row["delta"]) > 0.0


def test_plotdata_rows_are_the_traces_in_method_then_seed_order(tmp_path):
    """plotdata.csv holds each trace's positive (k, delta) rows, in (method,
    integer seed) order.  Twelve seeds put seed 10 where integer order and
    file-name order differ."""
    out = tmp_path / "run"
    run_matrix(ExperimentConfig.from_json(_config_doc(str(out), seeds=range(12))))
    with open(out / "plotdata.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    want = [["method", "k", "delta"]]
    for method in ("crm_half", "crm_vanish", "map"):
        for seed in range(12):
            name = f"{method}_{seed}"
            with open(out / f"trace_{name}.csv", newline="") as fh:
                trace = list(csv.DictReader(fh))
            want += [[name, r["k"], r["delta"]] for r in trace if float(r["delta"]) > 0.0]
    assert rows == want


def test_plotdata_bytes_match_the_csv_module(tmp_path):
    """plotdata.csv reuses each trace row's k,delta text; its bytes are what
    the csv module writes for the same (method, k, delta) rows, names that
    csv must quote included.  The rows are deterministic, so the oracle
    solves every cell again."""
    doc = _config_doc(str(tmp_path / "run"), seeds=(0, 1))
    doc["methods"] = [
        {"name": "a,b", "schedule": {"kind": "vanishing"}},
        {"name": 'q"t', "method": "map"},
        {"name": "plain"},
    ]
    config = ExperimentConfig.from_json(doc)
    run_matrix(config)
    oracle = tmp_path / "oracle.csv"
    with open(oracle, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "k", "delta"])
        for m in sorted(config.methods, key=lambda m: m.name):
            for seed in config.seeds:
                trace = solve(generate(seed=seed, **doc["generator"]), m.config)
                name = f"{m.name}_{seed}"
                writer.writerows((name, r.k, r.delta) for r in trace.records if r.delta > 0.0)
    data = (tmp_path / "run" / "plotdata.csv").read_bytes()
    assert b'"a,b_0",1,' in data and b'"q""t_1",1,' in data
    assert data == oracle.read_bytes()


def test_plotdata_is_header_only_when_every_cell_fails(tmp_path, monkeypatch):
    def failing(family, seed, **params):
        raise InvalidSpec("generator failed")

    monkeypatch.setattr(cfeas.bench, "generate", failing)
    out = tmp_path / "run"
    run_matrix(ExperimentConfig.from_json(_config_doc(str(out), seeds=(0, 1))))
    assert not list(out.glob("trace_*.csv"))
    assert (out / "plotdata.csv").read_bytes() == b"method,k,delta\r\n"


def test_run_matrix_collects_failures(tmp_path, monkeypatch):
    def failing(family, seed, **params):
        raise InvalidSpec("generator failed")

    monkeypatch.setattr(cfeas.bench, "generate", failing)
    config = ExperimentConfig.from_json(_config_doc(str(tmp_path / "run"), seeds=(0,)))
    summary, report = run_matrix(config)
    assert len(report["failures"]) == 3
    assert all(f["error"] == "InvalidSpec: generator failed" for f in report["failures"])
    assert all(np.isnan(row["mean_iters"]) for row in summary)


def test_run_matrix_reports_a_failure_at_z0(tmp_path, monkeypatch):
    """A run that fails at its first projection has no gap: report.json holds
    null for it, and stays strict JSON."""

    def poisoned(family, seed, **params):
        pair = generate(family, seed, **params)
        object.__setattr__(pair.Y, "_project", lambda z: np.full_like(z, np.nan))
        return pair

    monkeypatch.setattr(cfeas.bench, "generate", poisoned)
    out = str(tmp_path / "run")
    run_matrix(ExperimentConfig.from_json(_config_doc(out, seeds=(0,))))
    with open(os.path.join(out, "report.json")) as fh:
        report = json.load(fh, parse_constant=lambda name: pytest.fail(f"{name} in report.json"))
    assert len(report["runs"]) == len(report["failures"]) == 3
    for run in report["runs"]:
        assert (run["status"], run["iterations"]) == ("numerical_failure", 0)
        assert (run["final_delta"], run["projections"]) == (None, 0)
    for failure in report["failures"]:
        assert failure["error"] == "initial point: projection produced non-finite entries"


def test_run_matrix_averages_only_the_cells_that_did_not_fail(tmp_path, monkeypatch):
    """One matrix with a successful seed (0), a seed whose generator raises
    (1) and a seed whose run fails mid-run (2): summary.csv averages seed 0
    alone, and report.json lists every cell of seeds 1 and 2 as a failure."""

    def mixed(family, seed, **params):
        if seed == 1:
            raise InvalidSpec("generator failed")
        pair = generate(family, seed, **params)
        if seed == 2:
            project, calls = pair.Y._project, []

            def poisoned(z):
                calls.append(1)
                return project(z) if len(calls) <= 4 else np.full_like(z, np.nan)

            object.__setattr__(pair.Y, "_project", poisoned)
        return pair

    monkeypatch.setattr(cfeas.bench, "generate", mixed)
    doc = _config_doc(str(tmp_path / "run"))
    config = ExperimentConfig.from_json(doc)
    summary, report = run_matrix(config)
    for m, row in zip(config.methods, summary):
        trace = solve(generate(seed=0, **doc["generator"]), m.config)
        assert row["mean_iters"] == trace.iterations
        assert row["mean_final_delta"] == trace.final_delta
        assert row["mean_projections"] == trace.total_algorithmic_projections
    with open(tmp_path / "run" / "summary.csv", newline="") as fh:
        assert [r["mean_iters"] for r in csv.DictReader(fh)] == [
            str(row["mean_iters"]) for row in summary
        ]
    failures = {(f["method"], f["seed"]): f["error"] for f in report["failures"]}
    assert set(failures) == {(m.name, s) for m in config.methods for s in (1, 2)}
    for m in config.methods:
        assert failures[(m.name, 1)] == "InvalidSpec: generator failed"
        assert failures[(m.name, 2)].startswith("iteration ")
    status = {(r["method"], r["seed"]): r["status"] for r in report["runs"]}
    assert {status[(m.name, 2)] for m in config.methods} == {"numerical_failure"}
    assert {status[(m.name, 1)] for m in config.methods} == {"error"}


def test_many_seeds_load_quickly_and_a_repeat_is_named(tmp_path):
    seeds = list(range(300_000))
    start = time.perf_counter()
    config = ExperimentConfig.from_json(_config_doc(str(tmp_path), seeds=seeds))
    assert time.perf_counter() - start < 5.0
    assert len(config.seeds) == 300_000
    with pytest.raises(InvalidSpec, match="seed 299999 is given twice"):
        ExperimentConfig.from_json(_config_doc(str(tmp_path), seeds=seeds + [299_999]))


def test_oracle_suites_clean():
    for suite in ("projections", "circumcenter", "invariants"):
        report = oracle_check(suite, range(5))
        assert report["ok"], report["failures"]


def test_invariants_suite_catches_the_reflector_in_place_of_the_projection(monkeypatch):
    # 2P - I is nonexpansive, so only the reflector, idempotence and
    # characteristic checks can tell it from P
    project = cfeas.oracles.project
    monkeypatch.setattr(cfeas.oracles, "project", lambda s, z: 2.0 * project(s, z) - z)
    report = oracle_check("invariants", range(20))
    cases = {f["case"].split("-", 1)[1] for f in report["failures"]}
    assert cases == {"idempotence", "reflection", "characteristic"}


def test_oracle_check_unknown_suite():
    with pytest.raises(InvalidSpec):
        oracle_check("kkt", range(3))
