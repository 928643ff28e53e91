"""cfeas benchmark: solve a workload's cells for a fixed time and report metrics.

    python3 perfbench/run.py --workload mc_psd --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory and nowhere else.  A run

1. sets up the workload (``import cfeas.bench`` plus generating every
   instance) once here and SETUP_PROBES times in fresh interpreters, and
   reports the median as ``setup_s``;
2. solves one tiny instance per method, untimed;
3. repeats passes until ``--seconds`` is used up, at least MIN_PASSES of them.
   A pass is one ``cfeas.bench.run_matrix`` call: it solves every cell and
   writes the trace CSVs, summary, plot data and report.  With
   ``--trace 1`` passes alternate untraced and traced, and the per-layer
   numbers are medians over the traced passes;
4. checks every final point with an independent oracle (``check.py``) and
   reads the outputs back; every pass must repeat the first pass's ``delta``
   digest and final points.

Timings take each unit of each solve (its initial gap, every iteration, the
rest up to its return) at its fastest pass (see ``fastest``), then report sums,
medians and percentiles across them.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
The line before it holds the details (digest, counts, machine, sample counts,
self-time shares), also written to ``perfbench/out/<workload>/run.json``.
"""
from __future__ import annotations

import os

# One BLAS thread, set before numpy is first imported: on a 2-core machine two
# threads made matrix completion slower, with identical iteration counts.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_PROBES = 6
PROBE_TIMEOUT_S = 60
# untraced passes a run makes at least; with --trace 1 as many traced ones
MIN_PASSES = 2


def find_package() -> None:
    """Put the checkout's ``src`` first on the path, without importing it."""
    if not os.path.isfile(os.path.join(SRC, "cfeas", "__init__.py")):
        sys.exit(f"perfbench: no cfeas sources under {SRC}")
    sys.path.insert(0, SRC)


def check_package_source() -> None:
    import cfeas

    if os.path.dirname(os.path.dirname(os.path.abspath(cfeas.__file__))) != SRC:
        sys.exit(f"perfbench: imported cfeas from {cfeas.__file__}, not from {SRC}")


def setup_probe(workload: str, seed: int) -> None:
    """Entry point of a fresh interpreter that only times the set-up."""
    import workloads

    _, _, import_s, generate_s = workloads.set_up(workload, seed)
    check_package_source()
    print(json.dumps({"import_s": import_s, "generate_s": generate_s}))


def probe_setups(workload: str, seed: int) -> list:
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
        )
        samples.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return samples


def machine_info() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu or platform.processor(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def metric_units() -> tuple:
    """(end-to-end, per-layer) metric name -> unit, as BENCHMARK.json lists them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    return (
        {m["name"]: m["unit"] for m in doc["end_to_end"]},
        {m["name"]: m["unit"] for m in doc["per_layer"]},
    )


def fastest(passes) -> tuple:
    """Per cell, the solve time rebuilt from its fastest units, and the
    fastest time of each iteration.

    The machine runs at two speeds about 1.7 times apart, and which one
    prevails changes over minutes: between two sets of ten runs, medians over
    passes moved by 30%.  A run of short code sees the fast speed in
    bursts of a few to a few tens of percent of the time, so every unit of a
    solve (the initial gap, each iteration, the rest up to the return; see
    ``workloads.solve_units_ns``) is taken at the fastest of the passes that
    repeated it.  That needs many passes: with about 15 a run, the median
    iteration time moved 13-24% between runs of one seed; with about 50, the
    middle half of ten runs spread 3-7%.  Medians and percentiles are then
    taken across cells or iterations.
    """
    import numpy as np

    units = [np.min([p.units_ns[c] for p in passes], axis=0) for c in range(len(passes[0].units_ns))]
    solve_ns = np.array([u.sum() for u in units], dtype=np.int64)
    return solve_ns, np.concatenate([u[1:-1] for u in units])


def pass_wall_s(passes) -> float:
    """Time to solve every cell and write the outputs, each at its fastest;
    NaN without passes."""
    if not passes:
        return float("nan")
    solve_ns, _ = fastest(passes)
    return float(solve_ns.sum()) * 1e-9 + min(p.io_s for p in passes)


def run_passes(config, pairs, out_dir: str, seconds: float, trace: bool):
    """Repeat passes until ``seconds`` is used up.

    Returns the untraced passes, the traced ones, the per-layer numbers of
    each traced pass and the tracer holding the last traced pass's spans.
    Only the first pass keeps its traces.
    """
    import tracer as tracing
    import workloads

    tracer = tracing.Tracer()
    plain, traced, layer_runs = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        if trace and len(plain) > len(traced):
            tracer.clear()
            with tracer.installed():
                res = workloads.run_pass(config, pairs, out_dir)
            layers = tracing.layer_metrics(tracer.spans)
            layers["bench.io_bytes"] = res.io_bytes
            layers["solver.proj_diag_total"] = sum(
                t.records[-1].cum_proj_diag for _, _, t, _ in res.cells if t is not None
            )
            layer_runs.append(layers)
            traced.append(res)
        else:
            res = workloads.run_pass(config, pairs, out_dir)
            plain.append(res)
        if len(plain) + len(traced) > 1:
            res.cells = None
        enough = len(plain) >= MIN_PASSES and (not trace or len(traced) == len(plain))
        if enough and time.perf_counter() + res.wall_s > deadline:
            return plain, traced, layer_runs, tracer


def outcomes(passes, pairs, eps: float) -> dict:
    """Verify the first pass's final points and compare every pass with it."""
    import check

    first = passes[0]
    problems = check.check_outputs(first.cells, first.files)
    verified_cells, worst = set(), 0.0
    for c, (_, seed, trace, _) in enumerate(first.cells):
        if first.converged[c]:
            ok, ratio = check.verify_point(pairs[seed], trace.final_point, eps)
            worst = max(worst, ratio)
            if ok:
                verified_cells.add(c)
    attempted = converged = verified = 0
    for res in passes:
        if res.digest != first.digest:
            problems.append("a pass changed the delta digest")
        attempted += len(res.converged)
        converged += sum(res.converged)
        verified += sum(1 for c in verified_cells if res.fingerprints[c] == first.fingerprints[c])
    return {
        "attempted": attempted,
        "converged": converged,
        "verified": verified,
        "worst_distance_over_eps": worst,
        "problems": problems,
    }


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads

    e2e_units, layer_units = metric_units()
    config, pairs, import_s, generate_s = workloads.set_up(workload, seed)
    check_package_source()
    setups = [{"import_s": import_s, "generate_s": generate_s}] + probe_setups(workload, seed)
    workloads.warm_up(config)

    import numpy as np

    import check
    import tracer as tracing

    out_dir = os.path.join(OUT, workload)
    os.makedirs(out_dir, exist_ok=True)
    plain, traced, layer_runs, tracer = run_passes(config, pairs, out_dir, seconds, trace)
    first = plain[0]
    out = outcomes(plain + traced, pairs, config.eps)
    # timings only from passes that repeated the first one's work exactly
    timed = [r for r in plain if r.digest == first.digest]
    solve_ns, iter_ns = fastest(timed)
    solved = [t for _, _, t, _ in first.cells if t is not None]
    metrics = {
        "wall_s": pass_wall_s(timed),
        "setup_s": statistics.median(x["import_s"] + x["generate_s"] for x in setups),
        "solve_s_p50": float(np.median(solve_ns)) * 1e-9,
        "iter_ms_p50": float(np.percentile(iter_ns, 50)) * 1e-6 if iter_ns.size else 0.0,
        "iter_ms_p90": float(np.percentile(iter_ns, 90)) * 1e-6 if iter_ns.size else 0.0,
        "iters_total": sum(t.iterations for t in solved),
        "proj_alg_total": sum(t.total_algorithmic_projections for t in solved),
        "converged_frac": out["converged"] / out["attempted"],
        "verified_frac": out["verified"] / out["attempted"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    shares = None
    if trace:
        layer = {k: statistics.median_low(run[k] for run in layer_runs) for k in layer_runs[0]}
        layer["problems.generate_ms"] = statistics.median(x["generate_s"] for x in setups) * 1e3
        layer["bench.import_ms"] = statistics.median(x["import_s"] for x in setups) * 1e3
        # NaN if no traced pass repeated the first pass's work; the run is
        # then reported incorrect
        same = [r for r in traced if r.digest == first.digest]
        layer["trace.overhead_pct"] = 100.0 * (pass_wall_s(same) / metrics["wall_s"] - 1.0)
        shares = tracing.self_shares(tracer.spans)
        tracing.write_spans_csv(tracer.spans, os.path.join(out_dir, "spans.csv"))
        reported = {k: (layer[k], u) for k, u in layer_units.items()}
    else:
        reported = {k: (metrics[k], u) for k, u in e2e_units.items()}

    details = {
        "workload": workload,
        "seed": seed,
        "instance_seeds": config.seeds,
        "seconds": seconds,
        "trace": int(trace),
        "passes": {"untraced": len(plain), "traced": len(traced)},
        "pass_wall_s": [r.wall_s for r in plain],
        "samples": {
            "setup": len(setups),
            "solves": int(solve_ns.size),
            "iterations": int(iter_ns.size),
        },
        "delta_sha256": first.digest,
        "iters_total": metrics["iters_total"],
        "proj_alg_total": metrics["proj_alg_total"],
        "worst_distance_over_eps": out["worst_distance_over_eps"],
        "verify_slack": {"eps_rtol": check.EPS_SLACK_RTOL, "abs_rtol": check.ABS_SLACK_RTOL},
        "output_problems": out["problems"],
        "self_time_shares": shares,
        "machine": machine_info(),
        "metrics": {k: v for k, (v, _) in reported.items()},
    }
    with open(os.path.join(out_dir, "run.json"), "w") as fh:
        json.dump(details, fh, indent=2)
    print(json.dumps(details))
    failed = out["attempted"] - out["verified"]
    return {
        "correct": failed == 0 and not out["problems"],
        "attempted": out["attempted"],
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
    }


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    find_package()
    sys.path.insert(0, HERE)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
    else:
        print(json.dumps(measure(args.workload, args.seed, args.seconds, bool(args.trace))))
