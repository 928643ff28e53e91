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
    from cfeas.problems import gen_matrix_completion
    from cfeas.solver import SolverConfig, solve

    calls = []
    inner = cfeas.operators.circumcenter

    def counted(*args):
        calls.append(1)
        return inner(*args)

    monkeypatch.setattr(cfeas.operators, "circumcenter", counted)
    trace = solve(gen_matrix_completion(12, 2, 0.5, seed=0), SolverConfig(eps=1e-6))
    assert trace.iterations > 0
    assert len(calls) == trace.iterations


def test_every_ellipsoid_projection_reaches_the_patched_kernel(monkeypatch):
    # the tracer's geometry.ellipsoid layer counts calls through this name;
    # on two ellipsoids MAP evaluates cum_proj_alg + cum_proj_diag - k
    # projections, and every one of them is an ellipsoid projection
    import cfeas.geometry
    from cfeas.problems import gen_ellipsoids
    from cfeas.solver import SolverConfig, solve

    calls = []
    inner = cfeas.geometry.project_ellipsoid_multiplier

    def counted(*args):
        calls.append(1)
        return inner(*args)

    monkeypatch.setattr(cfeas.geometry, "project_ellipsoid_multiplier", counted)
    trace = solve(gen_ellipsoids(30, 10), SolverConfig(method="map"))
    last = trace.records[-1]
    assert trace.iterations > 0
    assert len(calls) == last.cum_proj_alg + last.cum_proj_diag - last.k
