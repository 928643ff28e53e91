"""Experiment matrix runner, summary/plotdata outputs, oracle suites."""
import csv
import json
import os

import numpy as np
import pytest

import cfeas.bench
from cfeas.bench import (
    CONFIG_SCHEMA,
    ExperimentConfig,
    emit_convergence_plotdata,
    oracle_check,
    run_matrix,
    schedule_from_json,
)
from cfeas.errors import EmptyInput, InvalidSpec
from cfeas.problems import generate
from cfeas.solver import Constant, Table, Vanishing


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
    # omitted schedule falls back to the fixed-step default
    assert schedule_from_json(None) == Constant(0.5)
    with pytest.raises(InvalidSpec):
        schedule_from_json({"kind": "adaptive"})


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


def test_plotdata_empty_rejected(tmp_path):
    with pytest.raises(EmptyInput):
        emit_convergence_plotdata({}, str(tmp_path / "p.csv"))


def test_run_matrix_collects_failures(tmp_path):
    doc = _config_doc(str(tmp_path / "run"), seeds=(0,))
    doc["generator"] = {"family": "ellipsoids", "n": 20, "cond": -1.0}
    summary, report = run_matrix(ExperimentConfig.from_json(doc))
    assert len(report["failures"]) == 3
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


def test_oracle_suites_clean():
    for suite in ("projections", "circumcenter", "invariants"):
        report = oracle_check(suite, range(5))
        assert report["ok"], report["failures"]


def test_oracle_check_unknown_suite():
    with pytest.raises(InvalidSpec):
        oracle_check("kkt", range(3))
