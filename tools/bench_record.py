"""Run the benchmark at some run seeds and record the runs in BENCH_<pr>.json.

    python3 tools/bench_record.py --pr 28 --seeds {20..29}

Each run is `python3 perfbench/run.py --workload W --seed S --seconds 50
--trace 0` in a fresh interpreter, for every workload BENCHMARK.json lists
and every run seed, workload by workload.
The record keeps each run's end-to-end metrics, its correctness counts and
the `delta_sha256` of its detail line; per workload, the number of runs and
the median and quartiles of each metric; and the machine block of the first
run.  It is written to BENCH_<pr>.json at the root of the checkout.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
RUN_ARGS = ("--seconds", "50", "--trace", "0")


def run(workload: str, seed: int) -> dict:
    """One benchmark run of this checkout: its detail line, with the
    correctness counts of its last line."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), *RUN_ARGS],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    *_, detail, last = done.stdout.strip().splitlines()
    result = json.loads(last)
    return {**json.loads(detail), **{key: result[key] for key in ("correct", "attempted", "failed")}}


def summary(runs: list) -> dict:
    """The runs of one workload: each run's record, and per metric the median
    and the quartiles over the runs."""
    records = [
        {key: r[key] for key in ("seed", "correct", "attempted", "failed", "delta_sha256", "metrics")}
        for r in runs
    ]
    metrics = {}
    for name in runs[0]["metrics"]:
        q1, median, q3 = np.percentile([r["metrics"][name] for r in runs], [25, 50, 75])
        metrics[name] = {"median": float(median), "q1": float(q1), "q3": float(q3)}
    return {"n_runs": len(runs), "metrics": metrics, "runs": records}


def record(pr: int, runs: dict) -> dict:
    """The BENCH document of `runs`, workload -> its runs' detail lines."""
    first = next(iter(runs.values()))[0]
    return {
        "pr": pr,
        "command": " ".join(["python3", "perfbench/run.py", *RUN_ARGS]),
        "machine": first["machine"],
        "workloads": {workload: summary(details) for workload, details in runs.items()},
    }


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    runs = {w: [run(w, seed) for seed in args.seeds] for w in workloads}
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(record(args.pr, runs), indent=2) + "\n")
    print(out)


if __name__ == "__main__":
    main()
