"""The benchmark tracer patches library names by (module, attribute); a
refactor that renames or drops one would only show when the traced benchmark
runs, so every site is checked here."""
import importlib
import importlib.util
from pathlib import Path

import cfeas  # noqa: F401  the sites must resolve after the package import

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _patch_sites():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PATCH_SITES


def test_every_tracer_patch_site_resolves():
    sites = _patch_sites()
    assert sites
    missing = [
        f"{module}.{attr}"
        for module, attr in sites
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []


def test_step_reaches_the_patched_circumcenter(monkeypatch):
    # the tracer's circumcentering layer counts calls through this name; on
    # matrix completion every cCRM step takes the circumcenter branch
    import cfeas.operators
    from cfeas.problems import generate
    from cfeas.solver import SolverConfig, solve

    calls = []
    inner = cfeas.operators.circumcenter

    def counted(*args):
        calls.append(1)
        return inner(*args)

    monkeypatch.setattr(cfeas.operators, "circumcenter", counted)
    pair = generate("matrix_completion", 0, n=12, rank=2, obs_frac=0.5)
    trace = solve(pair, SolverConfig(eps=1e-6))
    assert trace.iterations > 0
    assert len(calls) == trace.iterations


def test_every_ellipsoid_projection_reaches_the_patched_kernel(monkeypatch):
    # the tracer's geometry.ellipsoid layer counts calls through this name;
    # on two ellipsoids MAP evaluates cum_proj_alg + cum_proj_diag - k
    # projections, and every one of them is an ellipsoid projection
    import cfeas.geometry
    from cfeas.problems import generate
    from cfeas.solver import SolverConfig, solve

    calls = []
    inner = cfeas.geometry.project_ellipsoid_multiplier

    def counted(*args):
        calls.append(1)
        return inner(*args)

    monkeypatch.setattr(cfeas.geometry, "project_ellipsoid_multiplier", counted)
    trace = solve(generate("ellipsoids", 0, n=30, cond=10), SolverConfig(method="map"))
    last = trace.records[-1]
    assert trace.iterations > 0
    assert len(calls) == last.cum_proj_alg + last.cum_proj_diag - last.k


def test_run_matrix_writes_through_the_patched_bench_writers(monkeypatch, tmp_path):
    # the tracer's bench.io layer times a run's formatting through these
    # names: one trace writer call per trace, one plotdata call per run
    import cfeas.bench
    from cfeas.bench import ExperimentConfig, run_matrix

    calls = []
    for attr in ("write_trace_csv", "emit_convergence_plotdata"):
        def counted(*args, _attr=attr, _inner=getattr(cfeas.bench, attr)):
            calls.append(_attr)
            return _inner(*args)

        monkeypatch.setattr(cfeas.bench, attr, counted)
    config = ExperimentConfig.from_json(
        {
            "generator": {"family": "ellipsoids", "n": 10, "cond": 4.0, "tangency_gap": 0.05},
            "methods": [{"name": "crm"}, {"name": "map", "method": "map"}],
            "seeds": [0, 1, 2],
            "eps": 1e-6,
            "max_iter": 10000,
            "output_dir": str(tmp_path),
        }
    )
    _, report = run_matrix(config)
    assert len(report["runs"]) == 6 and not report["failures"]
    assert calls == ["write_trace_csv"] * 6 + ["emit_convergence_plotdata"]
