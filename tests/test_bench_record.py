"""`tools/bench_record.py` summarises benchmark runs into a BENCH document;
the runs here are made-up detail lines, so no benchmark runs."""
import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"


def _tool():
    spec = importlib.util.spec_from_file_location("_bench_record", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _detail(seed, wall_s, machine="box"):
    return {
        "seed": seed,
        "correct": True,
        "attempted": 4,
        "failed": 0,
        "delta_sha256": f"sha-{seed}",
        "machine": {"cpu": machine},
        "metrics": {"wall_s": wall_s, "iters_total": 100},
        "pass_wall_s": [wall_s, wall_s],
    }


def test_record_keeps_each_run_and_the_quartiles_of_each_metric():
    tool = _tool()
    runs = {"w": [_detail(s, t) for s, t in zip(range(20, 25), (5.0, 1.0, 4.0, 2.0, 3.0))]}
    doc = tool.record(28, runs)
    assert doc["pr"] == 28
    assert doc["command"] == "python3 perfbench/run.py --seconds 50 --trace 0"
    assert doc["machine"] == {"cpu": "box"}
    (summary,) = doc["workloads"].values()
    assert summary["n_runs"] == 5
    assert summary["metrics"]["wall_s"] == {"median": 3.0, "q1": 2.0, "q3": 4.0}
    assert summary["metrics"]["iters_total"] == {"median": 100.0, "q1": 100.0, "q3": 100.0}
    first = summary["runs"][0]
    assert first == {
        "seed": 20,
        "correct": True,
        "attempted": 4,
        "failed": 0,
        "delta_sha256": "sha-20",
        "metrics": {"wall_s": 5.0, "iters_total": 100},
    }


def test_runs_every_benchmark_workload(monkeypatch, tmp_path):
    tool = _tool()
    made = []
    monkeypatch.setattr(tool, "run", lambda w, seed: made.append((w, seed)) or _detail(seed, 1.0))
    monkeypatch.setattr(tool, "ROOT", tmp_path)
    (tmp_path / "BENCHMARK.json").write_text('{"workloads": [{"name": "a"}, {"name": "b"}]}')
    tool.main(["--pr", "7", "--seeds", "3", "4"])
    assert made == [("a", 3), ("a", 4), ("b", 3), ("b", 4)]
    assert (tmp_path / "BENCH_7.json").exists()


@pytest.mark.parametrize("argv", [["--seeds", "1"], ["--pr", "7"]])
def test_pr_and_seeds_are_required(argv):
    with pytest.raises(SystemExit):
        _tool().main(argv)
