"""Smoke test of `tools/trace_digest.py`, the check that a change keeps every
instance and trace bit-identical: it must run and print one well-formed
line per instance and per solve."""
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "_perfbench_workloads", ROOT / "perfbench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return list(module.WORKLOADS)


def test_trace_digest_prints_one_digest_per_instance_and_solve():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "trace_digest.py")],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = [line.split() for line in done.stdout.splitlines()]
    assert len(lines) == 388
    # an instance line is "name digest", a solve line "name status iterations digest"
    instances = [fields[0] for fields in lines if len(fields) == 2]
    solves = [fields[0] for fields in lines if len(fields) == 4]
    assert len(instances) + len(solves) == len(lines)
    assert len(set(instances)) == len(instances) and len(set(solves)) == len(solves)
    assert all(re.fullmatch(r"[0-9a-f]{64}", fields[-1]) for fields in lines)
    for workload in _workloads():
        assert any(name.startswith(f"{workload}-") for name in instances), workload
        assert any(name.startswith(f"{workload}-") for name in solves), workload
