"""End-to-end command-line flows driven through main(argv)."""
import argparse
import csv
import json
import os
import re
import subprocess
import sys

import pytest

import cfeas.bench
import cfeas.cli
from cfeas.cli import EXIT_OK, EXIT_RUN_FAILURE, EXIT_USAGE, build_parser, main
from cfeas.errors import NonconvergedProjection
from cfeas.oracles import SUITES
from cfeas.problems import GENERATORS, generate, pair_to_json

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def test_gen_and_solve_instance(tmp_path, capsys):
    inst = str(tmp_path / "inst.json")
    rc = main(
        [
            "gen",
            "--family", "ellipsoids",
            "--n", "20",
            "--cond", "10.0",
            "--seed", "3",
            "--out", inst,
        ]
    )
    assert rc == EXIT_OK
    assert os.path.exists(inst)

    trace_out = str(tmp_path / "trace.csv")
    rc = main(
        [
            "solve",
            "--instance", inst,
            "--eps", "1e-8",
            "--trace-out", trace_out,
        ]
    )
    captured = capsys.readouterr()
    assert rc == EXIT_OK
    assert "status=converged" in captured.out
    with open(trace_out) as fh:
        rows = list(csv.DictReader(fh))
    assert rows and float(rows[-1]["delta"]) <= 1e-8


def test_solve_from_generator_args(capsys):
    rc = main(
        [
            "solve",
            "--family", "halfspace_wedge",
            "--n", "8",
            "--theta", "0.7",
            "--seed", "1",
            "--eps", "1e-10",
        ]
    )
    assert rc == EXIT_OK
    assert "iterations=" in capsys.readouterr().out


def test_solve_with_map_and_schedules(capsys):
    rc = main(
        [
            "solve",
            "--family", "ellipsoids",
            "--n", "15",
            "--cond", "5.0",
            "--tangency-gap", "0.05",
            "--method", "map",
            "--eps", "1e-6",
        ]
    )
    assert rc == EXIT_OK
    rc = main(
        [
            "solve",
            "--family", "ellipsoids",
            "--n", "15",
            "--cond", "5.0",
            "--schedule", "vanishing",
            "--eps", "1e-8",
        ]
    )
    assert rc == EXIT_OK
    rc = main(
        [
            "solve",
            "--family", "ellipsoids",
            "--n", "15",
            "--cond", "5.0",
            "--schedule", "table:0.5,0.3,0.1",
            "--eps", "1e-8",
        ]
    )
    assert rc == EXIT_OK


def test_solve_requires_instance_or_family(capsys):
    rc = main(["solve", "--eps", "1e-8"])
    assert rc == EXIT_USAGE


def test_solve_bad_schedule_is_usage_error(capsys):
    rc = main(
        ["solve", "--family", "ellipsoids", "--n", "10", "--cond", "20", "--schedule", "warmup:3"]
    )
    assert rc == EXIT_USAGE


def test_bench_print_schema(capsys):
    rc = main(["bench", "--print-schema"])
    assert rc == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["type"] == "object"


def test_bench_requires_config(capsys):
    rc = main(["bench"])
    assert rc == EXIT_USAGE


def test_bench_run_and_plotdata(tmp_path, capsys):
    config = {
        "generator": {
            "family": "ellipsoids",
            "n": 15,
            "cond": 5.0,
            "tangency_gap": 0.05,
        },
        "methods": [
            {"name": "crm", "schedule": {"kind": "constant", "alpha": 0.5}},
            {"name": "map", "method": "map"},
        ],
        "seeds": [0, 1],
        "eps": 1e-8,
        "output_dir": str(tmp_path / "default_out"),
    }
    cfg_path = str(tmp_path / "cfg.json")
    with open(cfg_path, "w") as fh:
        json.dump(config, fh)
    out = str(tmp_path / "run")
    rc = main(["bench", "--config", cfg_path, "--out", out, "--jobs", "2"])
    assert rc == EXIT_OK
    assert "crm:" in capsys.readouterr().out
    assert os.path.exists(os.path.join(out, "summary.csv"))

    with open(os.path.join(out, "plotdata.csv")) as fh:
        rows = list(csv.DictReader(fh))
    assert {r["method"] for r in rows} >= {"crm_0", "map_0"}


def test_bench_seed_range_override(tmp_path):
    config = {
        "generator": {
            "family": "ellipsoids",
            "n": 12,
            "cond": 5.0,
            "tangency_gap": 0.05,
        },
        "methods": [{"name": "crm"}],
        "seeds": [0],
        "eps": 1e-8,
    }
    cfg_path = str(tmp_path / "cfg.json")
    with open(cfg_path, "w") as fh:
        json.dump(config, fh)
    out = str(tmp_path / "run")
    rc = main(["bench", "--config", cfg_path, "--out", out, "--seed-range", "2..4"])
    assert rc == EXIT_OK
    names = sorted(os.listdir(out))
    assert "trace_crm_2.csv" in names and "trace_crm_4.csv" in names
    assert "trace_crm_0.csv" not in names


_WEDGE_BENCH = {
    "generator": {"family": "halfspace_wedge", "n": 4, "theta": 0.5},
    "methods": [{"name": "crm"}, {"name": "map", "method": "map"}],
    "seeds": [0, 1],
    "eps": 1e-8,
    "max_iter": 1000,
}


def test_bench_eps_and_max_iter_flags_override_the_config(tmp_path):
    out = tmp_path / "run"
    argv = ["bench", "--config", _bench_config(tmp_path, json.dumps(_WEDGE_BENCH)),
            "--out", str(out), "--eps", "0.25", "--max-iter", "1"]
    assert main(argv) == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["eps"] == 0.25 and report["max_iter"] == 1
    assert all(run["iterations"] <= 1 for run in report["runs"])


def test_bench_failed_runs_exit_1_with_one_line_each(tmp_path, monkeypatch, capsys):
    def failing(family, seed, **params):
        raise ValueError(f"no instance for seed {seed}")

    monkeypatch.setattr(cfeas.bench, "generate", failing)
    argv = ["bench", "--config", _bench_config(tmp_path, json.dumps(_WEDGE_BENCH)),
            "--out", str(tmp_path / "run")]
    assert main(argv) == EXIT_RUN_FAILURE
    assert capsys.readouterr().err.splitlines() == [
        "4 failed runs:",
        "  crm seed 0: ValueError: no instance for seed 0",
        "  crm seed 1: ValueError: no instance for seed 1",
        "  map seed 0: ValueError: no instance for seed 0",
        "  map seed 1: ValueError: no instance for seed 1",
    ]


def test_oracle_check_command(capsys):
    rc = main(["oracle-check", "circumcenter", "--seed-range", "0..3"])
    assert rc == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True


def test_oracle_check_without_scipy(monkeypatch, capsys):
    monkeypatch.setitem(sys.modules, "scipy", None)  # any scipy import fails
    for suite in SUITES:
        assert main(["oracle-check", suite, "--seed-range", "0..1"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["ok"] is True


def _write_instance(tmp_path, edit):
    """Write a generated wedge instance's document, changed by `edit`."""
    doc = pair_to_json(generate("halfspace_wedge", 0, n=4, theta=0.5))
    edit(doc)
    path = str(tmp_path / "inst.json")
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


def _ball_without_radius(doc):
    doc["X"] = {"variant": "ball", "center": [0.0, 0.0, 0.0, 0.0]}


def _non_numeric_z0(doc):
    doc["z0"] = ["a", "b", "c", "d"]


def _nan_z0(doc):
    doc["z0"][1] = float("nan")


def _nan_radius(doc):
    doc["X"] = {"variant": "ball", "center": [0.0, 0.0, 0.0, 0.0], "radius": float("nan")}


def _huge_z0(doc):
    doc["z0"][1] = 10**400  # an integer too large for a float


def _short_z0(doc):
    doc["z0"] = doc["z0"][:2]


def _short_s_ref(doc):
    doc["s_ref"] = doc["s_ref"][:2]


def _nan_s_ref(doc):
    doc["s_ref"][0] = float("nan")


def _inf_s_ref(doc):
    doc["s_ref"][1] = float("-inf")


def _psd_cone_of_another_order(doc):
    doc["X"] = {"variant": "psd_cone", "order": 3}


def _extra_key(doc):
    doc["z1"] = doc["z0"]


def _set_x(variant, **fields):
    """An edit that makes set X the given set."""

    def edit(doc):
        doc["X"] = {"variant": variant, **fields}

    return edit


@pytest.mark.parametrize(
    "edit,words",
    [
        (_ball_without_radius, ["set X (ball)", "'radius'"]),
        (_non_numeric_z0, ["instance", "'z0'"]),
        (_nan_z0, ["z0", "non-finite"]),
        (_nan_radius, ["set X (ball)", "finite"]),
        (_short_z0, ["instance", "z0 dimension"]),
        (_short_s_ref, ["instance", "s_ref dimension"]),
        (_psd_cone_of_another_order, ["instance", "X and Y", "dimension"]),
        (_nan_s_ref, ["s_ref", "non-finite"]),
        (_inf_s_ref, ["s_ref", "non-finite"]),
        (_extra_key, ["instance", "unknown field", "'z1'"]),
        (_set_x("halfspace", normal=[0.0] * 4, offset=0.0), ["set X (halfspace)", "nonzero"]),
        (_set_x("box", lo=[1.0, 0, 0, 0], hi=[0.0, 1, 1, 1]), ["set X (box)", "lo <= hi"]),
        (_set_x("ball", center=[0.0] * 4, radius=0.0), ["set X (ball)", "positive"]),
        (_set_x("ellipsoid", center=[0.0] * 4, diag=[1.0] * 3), ["set X (ellipsoid)", "length"]),
        (_set_x("psd_cone", order=0), ["set X (psd_cone)", "order must be >= 1"]),
        (
            _set_x("entry_mask", order=2, rows=[0, 1], cols=[0], values=[1.0, 1.0]),
            ["set X (entry_mask)", "equal length"],
        ),
        (_huge_z0, ["instance", "'z0'", "too large"]),
        (
            _set_x("entry_mask", order=2, rows=[0], cols=[0], values=[10**400]),
            ["set X (entry_mask)", "'values'", "too large"],
        ),
        (
            _set_x("entry_mask", order=2, rows=[10**20], cols=[0], values=[1.0]),
            ["set X (entry_mask)", "too large"],
        ),
        (
            _set_x("entry_mask", order=10**20, rows=[0], cols=[0], values=[1.0]),
            ["set X (entry_mask)", "too large"],
        ),
    ],
    ids=[
        "missing_field",
        "wrong_type",
        "nan_z0",
        "nan_radius",
        "short_z0",
        "short_s_ref",
        "psd_order",
        "nan_s_ref",
        "inf_s_ref",
        "extra_key",
        "zero_normal",
        "box_lo_above_hi",
        "zero_radius",
        "ellipsoid_lengths_differ",
        "psd_order_zero",
        "mask_lengths_differ",
        "huge_z0",
        "huge_mask_value",
        "huge_mask_row",
        "huge_mask_order",
    ],
)
def test_solve_malformed_instance_is_one_line_usage_error(tmp_path, capsys, edit, words):
    rc = main(["solve", "--instance", _write_instance(tmp_path, edit), "--eps", "1e-8"])
    err = capsys.readouterr().err
    assert rc == EXIT_USAGE
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("usage error:")
    for word in words:
        assert word in err


def test_solve_instance_that_is_not_json_is_usage_error(tmp_path, capsys):
    path = tmp_path / "inst.json"
    path.write_text('{"X": {"variant": "ball",')
    rc = main(["solve", "--instance", str(path)])
    err = capsys.readouterr().err
    assert rc == EXIT_USAGE
    assert err.startswith("usage error:") and "not JSON" in err


def _bench_config(tmp_path, text):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    return str(path)


_ELLIPSOIDS_WITHOUT_COND = {
    "generator": {"family": "ellipsoids", "n": 12, "tangency_gap": 0.05},
    "methods": [{"name": "crm"}],
    "seeds": [0, 1, 2],
}
_BOGUS_METHOD = {
    "generator": {"family": "ellipsoids", "n": 12, "cond": 5.0},
    "methods": [{"name": "m", "method": "bogus"}],
    "seeds": [0],
}
_SAME_NAME_TWICE = {
    "generator": {"family": "ellipsoids", "n": 12, "cond": 5.0},
    "methods": [{"name": "m", "method": "crm"}, {"name": "m", "method": "map"}],
    "seeds": [0],
}
_NAME_WITH_SLASH = {
    "generator": {"family": "ellipsoids", "n": 12, "cond": 5.0},
    "methods": [{"name": "a/b"}],
    "seeds": [0],
}
_NEGATIVE_COND = {
    "generator": {"family": "ellipsoids", "n": 12, "cond": -1},
    "methods": [{"name": "m"}],
    "seeds": [0],
}
_SAME_SEED_TWICE = {
    "generator": {"family": "ellipsoids", "n": 12, "cond": 5.0},
    "methods": [{"name": "m"}],
    "seeds": [0, 0, 1],
}
_MISSPELLED_FIELDS = {
    "generator": {"family": "ellipsoids", "n": 12, "cond": 5.0, "tangency_gp": 0.5},
    "methods": [{"name": "m", "schedul": {"kind": "vanishing"}}],
    "seeds": [0],
    "max_iters": 1,
}
_NEGATIVE_SEED = {
    "generator": {"family": "ellipsoids", "n": 12, "cond": 5.0},
    "methods": [{"name": "m"}],
    "seeds": [-1],
}
_MAP_WITH_KERNEL = {
    "generator": {"family": "ellipsoids", "n": 12, "cond": 5.0},
    "methods": [{"name": "crm"}, {"name": "m", "method": "map", "kernel": "YXY"}],
    "seeds": [0],
}
_MAP_WITH_SCHEDULE = {
    "generator": {"family": "ellipsoids", "n": 12, "cond": 5.0},
    "methods": [
        {"name": "map_a", "method": "map"},
        {"name": "map_b", "method": "map", "schedule": {"kind": "vanishing"}},
    ],
    "seeds": [0],
}
_BAD_KERNEL_IN_SECOND_METHOD = {
    "generator": {"family": "ellipsoids", "n": 12, "cond": 5.0},
    "methods": [{"name": "a"}, {"name": "b", "kernel": "XZ"}],
    "seeds": [0],
}
_HUGE_ALPHA = {
    "generator": {"family": "ellipsoids", "n": 12, "cond": 5.0},
    "methods": [{"name": "m", "schedule": {"alpha": 10**400}}],
    "seeds": [0],
}
_ZERO_EPS = {
    "generator": {"family": "ellipsoids", "n": 12, "cond": 5.0},
    "methods": [{"name": "m"}],
    "seeds": [0],
    "eps": 0,
}


@pytest.mark.parametrize(
    "text,words",
    [
        (json.dumps(_ELLIPSOIDS_WITHOUT_COND), ["ellipsoids generator", "'cond'"]),
        (json.dumps(_BOGUS_METHOD), ["unknown method", "'bogus'"]),
        ('{"generator": {"family": "ellipsoids",', ["not JSON"]),
        (json.dumps(_SAME_NAME_TWICE), ["method name", "'m'", "twice"]),
        (json.dumps(_NAME_WITH_SLASH), ["method name", "'a/b'", "file-name component"]),
        (json.dumps(_NEGATIVE_COND), ["'generator'", "'cond'", "[1, inf)", "-1"]),
        (json.dumps([_BOGUS_METHOD]), ["bench config", "not a JSON object"]),
        (json.dumps(_SAME_SEED_TWICE), ["seed 0", "twice"]),
        (json.dumps(_MISSPELLED_FIELDS), ["bench config", "unknown field", "'max_iters'"]),
        (json.dumps(_NEGATIVE_SEED), ["'seeds'", "[0, 2**128)", "-1"]),
        (json.dumps(_MAP_WITH_KERNEL), ["method 'm'", "map takes no kernel"]),
        (json.dumps(_MAP_WITH_SCHEDULE), ["method 'map_b'", "map takes no kernel or schedule"]),
        (json.dumps(_BAD_KERNEL_IN_SECOND_METHOD), ["method 'b'", "kernel token", "'Z'"]),
        (json.dumps(_ZERO_EPS), ["usage error: eps must be positive"]),
        (json.dumps(_HUGE_ALPHA), ["method 'm'", "'alpha'", "too large"]),
    ],
    ids=[
        "missing_generator_parameter",
        "unknown_method",
        "not_json",
        "same_method_name_twice",
        "method_name_with_slash",
        "generator_parameter_out_of_range",
        "config_is_an_array",
        "same_seed_twice",
        "misspelled_fields",
        "negative_seed",
        "map_with_kernel",
        "map_with_schedule",
        "bad_kernel_in_second_method",
        "zero_eps",
        "huge_alpha",
    ],
)
def test_bench_malformed_config_is_one_line_usage_error(tmp_path, capsys, text, words):
    out = tmp_path / "run"
    rc = main(["bench", "--config", _bench_config(tmp_path, text), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == EXIT_USAGE
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("usage error:")
    for word in words:
        assert word in err
    assert not out.exists()  # rejected at load, before any cell runs


_SOLVE = ["solve", "--family", "ellipsoids", "--n", "10", "--cond", "20"]
_WEDGE = ["--family", "halfspace_wedge", "--n", "4", "--theta", "1.0"]


@pytest.mark.parametrize(
    "argv,words",
    [
        (_SOLVE + ["--schedule", "table:"], ["--schedule", "'table:'"]),
        (["oracle-check", "projections", "--seed-range", "3"], ["--seed-range", "'3'"]),
        (["bench", "--config", "nosuch.json"], ["bench config", "nosuch.json"]),
        (["solve", "--instance", "nosuch.json"], ["instance", "nosuch.json"]),
        (["solve", "--instance", "binary.json"], ["instance", "not JSON"]),
        (_SOLVE + ["--kernel", "XZ"], ["kernel token", "'Z'"]),
        (_SOLVE + ["--schedule", "constant:2"], ["--schedule", "alpha"]),
        (_SOLVE + ["--eps", "0"], ["eps"]),
        (_SOLVE + ["--eps", "nan"], ["eps", "nan"]),
        (_SOLVE + ["--eps", "inf"], ["eps", "inf"]),
        (["gen", "--family", "ellipsoids", "--n", "30", "--cond", "inf", "--out", "i.json"],
         ["'cond'", "[1, inf)"]),
        (_SOLVE + ["--max-iter", "0"], ["max_iter"]),
        (["solve", "--eps", "1e-8"], ["--instance", "--family"]),
        (["bench"], ["--config"]),
        (["oracle-check", "invariants", "--seed-range", "5..3"], ["--seed-range", "'5..3'"]),
        (["gen", *_WEDGE, "--out", "nodir/inst.json"], ["nodir/inst.json"]),
        (["solve", *_WEDGE, "--trace-out", "nodir/t.csv"], ["nodir/t.csv"]),
        (["bench", "--config", "cfg.json", "--out", "binary.json"], ["binary.json"]),
        (["bench", "--config", "cfg.json", "--jobs", "0"], ["jobs", "0"]),
        (_SOLVE + ["--schedule", "vanishing:0.3"], ["--schedule", "unknown field 'value'"]),
        (["gen", *_WEDGE, "--seed", "-1", "--out", "i.json"], ["seed", "[0, 2**128)", "-1"]),
        (["oracle-check", "circumcenter", "--seed-range=-3000..-2999"],
         ["--seed-range", "[0, 2**128)", "-3000"]),
        (["gen", "--family", "ellipsoids", "--n", "10", "--cond", "5", "--theta", "1.0",
          "--rank", "3", "--out", "x.json"], ["ellipsoids generator", "unknown field 'rank'"]),
        (["solve", "--instance", "i.json", "--family", "matrix_completion", "--n", "9",
          "--rank", "2", "--obs-frac", "0.5"], ["--instance", "--family", "--obs-frac"]),
        (["solve", "--instance", "i.json", "--theta", "1.0"], ["--instance", "--theta"]),
        (["solve", "--instance", "i.json", "--seed", "3"], ["--instance", "--seed"]),
        (_SOLVE + ["--method", "map", "--kernel", "YXY"], ["map takes no kernel"]),
        (_SOLVE + ["--method", "map", "--schedule", "vanishing"],
         ["map takes no kernel or schedule"]),
        # more seeds than a list can hold, though each lies in [0, 2**128)
        (["bench", "--config", "cfg.json", "--seed-range", f"0..{10**29}"],
         ["--seed-range", "too large"]),
        (["oracle-check", "invariants", "--seed-range", f"0..{10**29}"],
         ["--seed-range", "too large"]),
        # an n whose arrays numpy cannot address
        (["gen", "--family", "ellipsoids", "--n", str(10**20), "--cond", "2", "--out", "i.json"],
         ["ellipsoids generator", "'n'", "[1, 2**60)"]),
        (["solve", "--family", "halfspace_wedge", "--n", str(10**20), "--theta", "0.5"],
         ["halfspace_wedge generator", "'n'", "[2, 2**60)"]),
        (["bench", "--config", "huge_n.json"], ["'generator'", "'n'", "[1, 2**60)"]),
        # an empty value is no default
        (["bench", "--config", "cfg.json", "--seed-range", ""], ["--seed-range", "''"]),
        (["bench", "--config", "cfg.json", "--out", ""], ["'output_dir'", "empty"]),
        (["bench", "--config", "empty_out.json"], ["'output_dir'", "empty"]),
        (_SOLVE + ["--schedule", "constant:"], ["--schedule", "'constant:'", "no value"]),
        (_SOLVE + ["--schedule", "vanishing:"], ["--schedule", "'vanishing:'", "no value"]),
        (_SOLVE + ["--schedule", ""], ["--schedule", "''", "unknown kind"]),
        (_SOLVE + ["--instance", ""], ["--instance", "--family"]),
        (["solve", "--instance", ""], ["instance", "No such file"]),
        (_SOLVE + ["--trace-out", ""], ["No such file"]),
    ],
    ids=[
        "empty_table",
        "seed_range_without_dots",
        "missing_config",
        "missing_instance",
        "instance_not_utf8",
        "bad_kernel",
        "alpha_out_of_range",
        "zero_eps",
        "nan_eps",
        "inf_eps",
        "inf_cond",
        "zero_max_iter",
        "solve_without_instance",
        "bench_without_config",
        "empty_seed_range",
        "gen_out_dir_missing",
        "trace_out_dir_missing",
        "bench_out_is_a_file",
        "jobs_below_one",
        "value_for_vanishing",
        "negative_gen_seed",
        "negative_oracle_seeds",
        "gen_flags_of_another_family",
        "instance_with_family",
        "instance_with_parameter",
        "instance_with_seed",
        "map_with_kernel",
        "map_with_schedule",
        "bench_seed_range_too_long",
        "oracle_seed_range_too_long",
        "gen_n_beyond_numpy",
        "solve_n_beyond_numpy",
        "bench_n_beyond_numpy",
        "bench_empty_seed_range",
        "bench_empty_out",
        "bench_empty_output_dir",
        "empty_constant_alpha",
        "empty_vanishing_value",
        "empty_schedule",
        "empty_instance_with_family",
        "empty_instance",
        "empty_trace_out",
    ],
)
def test_bad_flag_or_file_is_one_line_usage_error(tmp_path, monkeypatch, capsys, argv, words):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "binary.json").write_bytes(b"\xff\xfe{}")
    config = {"generator": {"family": "halfspace_wedge", "n": 4, "theta": 0.5},
              "methods": [{"name": "crm"}], "seeds": [0]}
    configs = {
        "cfg.json": config,
        "empty_out.json": {**config, "output_dir": ""},
        "huge_n.json": {**config, "generator": {"family": "ellipsoids", "n": 10**20, "cond": 2.0}},
    }
    for name, doc in configs.items():
        (tmp_path / name).write_text(json.dumps(doc))
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == EXIT_USAGE
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("usage error:")
    for word in words:
        assert word in err
    assert sorted(os.listdir(tmp_path)) == sorted(["binary.json", *configs])  # none written


def test_library_error_is_one_line_error_and_exit_1(monkeypatch, capsys):
    def failing(pair, cfg):
        raise NonconvergedProjection("eigh did not converge")

    monkeypatch.setattr(cfeas.cli, "solve", failing)
    assert main(_SOLVE) == EXIT_RUN_FAILURE
    err = capsys.readouterr().err
    assert err == "error: eigh did not converge\n"


def test_python_dash_m_runs_the_command_line(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))

    def run(*argv):
        return subprocess.run(
            [sys.executable, "-m", "cfeas", *argv],
            cwd=tmp_path, env=env, capture_output=True, text=True,
        )

    done = run("--help")
    assert done.returncode == EXIT_OK
    assert "oracle-check" in done.stdout
    done = run("solve", "--family", "ellipsoids", "--n", "10", "--cond", "20", "--kernel", "XZ")
    assert done.returncode == EXIT_USAGE
    assert done.stderr.startswith("usage error:") and "kernel token" in done.stderr


def _commands() -> dict:
    parser = build_parser()
    (commands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return commands.choices


def _subparser(command):
    return _commands()[command]


def test_readme_command_line_block_names_every_command():
    """The README's `Command line` block shows each subcommand of the parser
    and no other, so the two cannot drift apart."""
    with open(os.path.join(os.path.dirname(SRC), "README.md")) as fh:
        (block,) = re.findall(r"^## Command line\n\n```sh\n(.*?)```", fh.read(), flags=re.S | re.M)
    assert set(re.findall(r"^cfeas (\S+)", block, flags=re.M)) == set(_commands())


# each command's flags besides the generator's
_OWN_FLAGS = {
    "gen": {"-h", "--help", "--out"},
    "solve": {"-h", "--help", "--instance", "--method", "--kernel", "--schedule", "--eps",
              "--max-iter", "--trace-out"},
}
_PARAMS = {key: read for _, fields in GENERATORS.values() for key, read, *_ in fields}


@pytest.mark.parametrize("command", list(_OWN_FLAGS))
def test_generator_flags_are_the_generator_parameters(command):
    """One flag per distinct GENERATORS parameter, typed by its reader's
    schema type and without a default, plus --family and --seed."""
    actions = {s: a for a in _subparser(command)._actions for s in a.option_strings}
    flags = {"--" + key.replace("_", "-"): key for key in _PARAMS}
    assert set(actions) - _OWN_FLAGS[command] == {"--family", "--seed", *flags}
    for flag, key in flags.items():
        assert actions[flag].type is {"integer": int, "number": float}[_PARAMS[key].schema["type"]]
        assert actions[flag].default is None


_VALUES = {"n": "6", "rank": "2", "obs_frac": "0.5", "cond": "5", "theta": "0.5"}
_REQUIRED = [
    (family, key)
    for family, (_, fields) in GENERATORS.items()
    for key, _, *default in fields
    if not default
]


@pytest.mark.parametrize("command", list(_OWN_FLAGS))
@pytest.mark.parametrize("family,missing", _REQUIRED, ids=[f"{f}-{k}" for f, k in _REQUIRED])
def test_missing_required_generator_flag_is_usage_error(tmp_path, capsys, command, family,
                                                        missing):
    _, fields = GENERATORS[family]
    argv = [command, "--family", family]
    for key, *_ in fields:
        if key in _VALUES:
            argv += ["--" + key.replace("_", "-"), _VALUES[key]]
    if command == "gen":
        argv += ["--out", str(tmp_path / "inst.json")]
    assert main(argv) == EXIT_OK
    i = argv.index("--" + missing.replace("_", "-"))
    assert main(argv[:i] + argv[i + 2:]) == EXIT_USAGE
    assert capsys.readouterr().err == f"usage error: {family} generator: missing field {missing!r}\n"


def test_oracle_check_offers_and_runs_every_suite(monkeypatch, capsys):
    monkeypatch.setitem(SUITES, "toy", lambda seeds: [{"seed": s} for s in seeds if s == 1])
    (suite,) = (a for a in _subparser("oracle-check")._actions if a.dest == "suite")
    assert suite.choices == list(SUITES)
    assert main(["oracle-check", "toy", "--seed-range", "0..2"]) == EXIT_RUN_FAILURE
    assert json.loads(capsys.readouterr().out)["failures"] == [{"seed": 1}]
