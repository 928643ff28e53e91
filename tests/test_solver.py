"""Schedules, the iteration driver, rate estimation, and trace output."""
import csv
import math

import numpy as np
import pytest

import cfeas.geometry
from cfeas.errors import InsufficientTrace, InvalidSchedule
from cfeas.geometry import Ball, EntryMask, Halfspace, ProblemPair, distance, project
from cfeas.operators import KERNEL_BASIC, KernelSpec, circumcentered_step
from cfeas.problems import gen_ellipsoids, gen_halfspace_wedge, generate
from cfeas.solver import (
    CLASS_INCONCLUSIVE,
    CLASS_LINEAR,
    CLASS_SUPERLINEAR,
    STATUS_CONVERGED,
    STATUS_MAX_ITER,
    TRACE_COLUMNS,
    Constant,
    SolverConfig,
    Table,
    Vanishing,
    ccrm_config,
    estimate_rate,
    estimate_rate_from_merits,
    read_trace_csv,
    schedule_value,
    solve,
    solve_map,
    write_trace_csv,
)


def test_schedule_values():
    assert schedule_value(Constant(0.25), 17) == 0.25
    assert schedule_value(Vanishing(), 0) == 0.5
    assert schedule_value(Vanishing(), 1) == pytest.approx(1.0 / 3.0)
    assert schedule_value(Vanishing(), 8) == pytest.approx(0.1)
    t = Table((0.3, 0.6))
    assert schedule_value(t, 0) == 0.3
    # table values clamp to the last entry
    assert schedule_value(t, 5) == 0.6


def test_schedule_validation():
    with pytest.raises(InvalidSchedule):
        Constant(1.0)
    with pytest.raises(InvalidSchedule):
        Constant(0.0)
    with pytest.raises(InvalidSchedule):
        Table(())
    with pytest.raises(InvalidSchedule):
        Table((0.5, 1.5))


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(eps=0.0)
    with pytest.raises(ValueError):
        SolverConfig(max_iter=0)
    with pytest.raises(ValueError):
        SolverConfig(method="newton")


def test_ccrm_config_defaults():
    cfg = ccrm_config(eps=1e-6)
    assert cfg.method == "crm"
    assert str(cfg.kernel) == "XY"
    assert cfg.schedule == Constant(0.5)
    assert cfg.eps == 1e-6


def test_solve_orthogonal_halfspaces_single_iteration():
    X = Halfspace(np.array([1.0, 0.0]), 0.0)
    Y = Halfspace(np.array([0.0, 1.0]), 0.0)
    pair = ProblemPair(X=X, Y=Y, z0=np.array([1.0, 1.0]))
    trace = solve(pair, SolverConfig(kernel=KERNEL_BASIC, eps=1e-12))
    assert trace.status == STATUS_CONVERGED
    assert trace.iterations == 1
    assert np.allclose(trace.final_point, [0.0, 0.0], atol=1e-12)


def test_solve_feasible_start_zero_iterations():
    pair = gen_ellipsoids(10, 5.0, seed=0)
    pair2 = ProblemPair(pair.X, pair.Y, z0=pair.s_ref, s_ref=pair.s_ref)
    trace = solve(pair2, SolverConfig(eps=1e-10))
    assert trace.status == STATUS_CONVERGED
    assert trace.iterations == 0


def test_solve_hits_iteration_cap():
    pair = gen_ellipsoids(30, 20.0, seed=2)
    trace = solve(pair, SolverConfig(eps=1e-15, max_iter=2))
    assert trace.status in (STATUS_MAX_ITER, STATUS_CONVERGED)
    if trace.status == STATUS_MAX_ITER:
        assert trace.iterations == 2


def test_solve_fejer_monotone_distances():
    pair = gen_ellipsoids(40, 20.0, seed=3)
    trace = solve(pair, SolverConfig(eps=1e-12, record_iterates=True))
    s = pair.s_ref
    dists = [np.linalg.norm(z - s) for z in trace.iterates]
    scale = 1.0 + dists[0]
    for a, b in zip(dists, dists[1:]):
        assert b <= a + 1e-9 * scale


def test_solve_map_matches_composition():
    pair = gen_ellipsoids(15, 10.0, seed=4)
    cfg = SolverConfig(method="map", eps=1e-10, max_iter=50000, record_iterates=True)
    trace = solve(pair, cfg)
    assert trace.status == STATUS_CONVERGED
    from cfeas.geometry import project

    z = pair.z0
    for znext in trace.iterates[1:3]:
        z = project(pair.X, project(pair.Y, z))
        assert np.allclose(znext, z, atol=1e-12)
    # two projections per iteration, counted as algorithmic
    assert trace.total_algorithmic_projections == 2 * trace.iterations


def test_solve_map_slower_than_circumcentered_on_ellipsoids():
    pair = gen_ellipsoids(50, 20.0, seed=5)
    crm = solve(pair, SolverConfig(eps=1e-8, max_iter=20000))
    amap = solve_map(pair, SolverConfig(method="map", eps=1e-8, max_iter=20000))
    assert crm.status == STATUS_CONVERGED
    assert amap.iterations > crm.iterations


def test_wedge_converges_immediately():
    pair = gen_halfspace_wedge(10, 0.8, seed=1)
    trace = solve(pair, SolverConfig(eps=1e-12))
    assert trace.status == STATUS_CONVERGED
    assert trace.iterations <= 2


def test_rate_geometric_sequence_classifies_linear():
    merits = 0.5 ** np.arange(40)
    est = estimate_rate_from_merits(merits)
    assert est.classification == CLASS_LINEAR
    assert est.rho == pytest.approx(0.5, rel=1e-6)


def test_rate_squared_exponent_classifies_superlinear():
    merits = np.array([2.0 ** -(k * k) for k in range(12)])
    est = estimate_rate_from_merits(merits)
    assert est.classification == CLASS_SUPERLINEAR


def test_rate_noisy_sequence_inconclusive():
    rng = np.random.default_rng(0)
    merits = np.exp(rng.uniform(-1.0, 1.0, 60))
    est = estimate_rate_from_merits(merits)
    assert est.classification == CLASS_INCONCLUSIVE


def test_rate_short_trace_raises():
    with pytest.raises(InsufficientTrace):
        estimate_rate_from_merits(np.ones(5))


def test_estimate_rate_dist_to_limit_merit():
    pair = gen_ellipsoids(40, 20.0, seed=6)
    trace = solve(pair, SolverConfig(eps=1e-12, record_iterates=True))
    if len(trace.iterates) >= 10:
        est = estimate_rate(trace, merit="dist_to_limit")
        assert est.classification in (
            CLASS_LINEAR,
            CLASS_SUPERLINEAR,
            CLASS_INCONCLUSIVE,
        )
    with pytest.raises(ValueError):
        estimate_rate(trace, merit="wallclock")


def test_trace_csv_roundtrip(tmp_path):
    pair = gen_ellipsoids(20, 10.0, seed=7)
    trace = solve(pair, SolverConfig(eps=1e-10))
    out = tmp_path / "trace.csv"
    write_trace_csv(trace, out)
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(trace.records)
    # floats use shortest round-trip form, so parsing is lossless
    for row, rec in zip(rows, trace.records):
        assert int(row["k"]) == rec.k
        assert float(row["delta"]) == rec.delta


def test_read_trace_csv_inverts_write_trace_csv(tmp_path):
    pair = gen_ellipsoids(20, 10.0, seed=7)
    trace = solve(pair, SolverConfig(eps=1e-10))
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    write_trace_csv(trace, first)
    back = read_trace_csv(first)
    assert back.iterations == trace.iterations and back.status == "unknown"
    columns = [c for c in TRACE_COLUMNS if c not in ("alpha", "dist_sref")]
    for got, want in zip(back.records, trace.records, strict=True):
        assert [getattr(got, c) for c in columns] == [getattr(want, c) for c in columns]
        assert got.dist_sref == want.dist_sref
        assert got.alpha == want.alpha or (math.isnan(got.alpha) and math.isnan(want.alpha))
        assert math.isnan(got.centralization_ip)
    write_trace_csv(back, second)
    assert second.read_bytes() == first.read_bytes()


def test_map_iteration_counts_on_ell_map_instances():
    """Pinned counts: a faster projection must leave the iterations alone."""
    cfg = SolverConfig(method="map", eps=1e-4, max_iter=200_000)
    counts = [solve(gen_ellipsoids(100, 1.5, 1e-3, seed), cfg).iterations for seed in range(5)]
    assert counts == [592, 598, 593, 678, 572]


def test_trace_delta_reaches_eps():
    pair = gen_ellipsoids(20, 10.0, seed=8)
    trace = solve(pair, SolverConfig(eps=1e-10))
    assert trace.status == STATUS_CONVERGED
    assert trace.final_delta <= 1e-10
    assert max(distance(pair.X, trace.final_point),
               distance(pair.Y, trace.final_point)) <= 1e-10


def _reference_solve(pair, cfg):
    """Both drivers with every projection computed afresh: the stopping gap
    from `distance`, each step without a handed-in projection.  `columns`
    holds each record's (centralization_ip, alpha): NaN at k = 0 and for MAP.
    `diag` counts the projections the solver's gap evaluates: 2 per gap, but
    1 per MAP gap after z0, which takes P_X z = z."""
    z = pair.z0.copy()
    deltas = [max(distance(pair.X, z), distance(pair.Y, z))]
    columns = [(math.nan, math.nan)]
    alg, diag = 0, 2
    status, iterations = STATUS_MAX_ITER, cfg.max_iter
    if deltas[0] <= cfg.eps:
        return deltas, columns, alg, diag, STATUS_CONVERGED, 0, z
    for k in range(cfg.max_iter):
        if cfg.method == "map":
            z = project(pair.X, project(pair.Y, z))
            alg += 2
            columns.append((math.nan, math.nan))
        else:
            alpha = schedule_value(cfg.schedule, k)
            z, step = circumcentered_step(
                pair,
                z,
                alpha,
                cfg.kernel,
                membership_tol=cfg.membership_tol,
                strict_tol=cfg.strict_tol,
            )
            alg += step.algorithmic_projections
            columns.append((step.centralization_ip, alpha))
        deltas.append(max(distance(pair.X, z), distance(pair.Y, z)))
        diag += 1 if cfg.method == "map" else 2
        if deltas[-1] <= cfg.eps:
            status, iterations = STATUS_CONVERGED, k + 1
            break
    return deltas, columns, alg, diag, status, iterations, z


_INSTANCES = {
    "ellipsoids": (("ellipsoids", 1, {"n": 30, "cond": 10.0}), 1e-10),
    "matrix_completion": (("matrix_completion", 2, {"n": 12, "rank": 2, "obs_frac": 0.5}), 1e-6),
    "wedge": (("halfspace_wedge", 3, {"n": 10, "theta": 0.5}), 1e-12),
}
# the ell_map workload's geometry, for MAP only
_MAP_INSTANCES = {
    f"ell_map_{seed}": (("ellipsoids", seed, {"n": 100, "cond": 1.5, "tangency_gap": 1e-3}), 1e-4)
    for seed in (0, 1)
}
_ALL_INSTANCES = {**_INSTANCES, **_MAP_INSTANCES}

_CASES = [
    pytest.param(
        name,
        {"kernel": KernelSpec.from_string(kernel), "schedule": schedule},
        id=f"{name}-{kernel}-{type(schedule).__name__}",
    )
    for name in _INSTANCES
    for kernel in ("Y", "XY", "YXY", "XYXY")
    for schedule in (Constant(0.5), Vanishing())
] + [
    pytest.param(name, {"method": "map"}, id=f"{name}-map")
    for name in _ALL_INSTANCES
]


@pytest.mark.parametrize("instance,options", _CASES)
def test_reused_gap_projections_keep_traces_bit_identical(instance, options):
    (family, seed, params), eps = _ALL_INSTANCES[instance]
    pair = generate(family, seed, **params)
    cfg = SolverConfig(eps=eps, max_iter=2000, **options)
    trace = solve(pair, cfg)
    deltas, columns, alg, diag, status, iterations, z = _reference_solve(pair, cfg)
    assert trace.deltas.tolist() == deltas
    got = np.array([(r.centralization_ip, r.alpha) for r in trace.records])
    assert np.array_equal(got, np.array(columns), equal_nan=True)
    assert trace.records[-1].cum_proj_alg == alg
    assert trace.records[-1].cum_proj_diag == diag
    assert (trace.status, trace.iterations) == (status, iterations)
    assert np.array_equal(trace.final_point, z)


@pytest.mark.parametrize("instance", _ALL_INSTANCES)
def test_map_iterates_are_x_projections(instance):
    """The premise of MAP's one-distance gap: a MAP iterate after z0 is
    P_X of a point, so re-projecting it onto X moves it only by rounding, and
    dist(z, X) never decides the gap unless both distances are at that level."""
    (family, seed, params), eps = _ALL_INSTANCES[instance]
    pair = generate(family, seed, **params)
    trace = solve(pair, SolverConfig(method="map", eps=eps, max_iter=2000, record_iterates=True))
    assert trace.iterations == len(trace.iterates) - 1 > 0
    for z in trace.iterates[1:]:
        residual = 1e-13 * (1.0 + float(np.linalg.norm(z)))
        dist_x, dist_y = distance(pair.X, z), distance(pair.Y, z)
        assert dist_x <= residual
        assert dist_x <= dist_y or dist_y <= residual


def _count_projections(monkeypatch):
    counts = {"eigh": 0, "ellipsoid": 0, "mask": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        cfeas.geometry, "project_psd", counted("eigh", cfeas.geometry.project_psd)
    )
    monkeypatch.setattr(
        cfeas.geometry,
        "project_ellipsoid_multiplier",
        counted("ellipsoid", cfeas.geometry.project_ellipsoid_multiplier),
    )
    monkeypatch.setattr(EntryMask, "_project", counted("mask", EntryMask._project))
    return counts


def test_one_projection_per_iteration_is_shared(monkeypatch):
    """The counters are logical: the gap's projection that the next step
    reuses is counted in both, and evaluated once."""
    pair = generate("matrix_completion", 2, n=12, rank=2, obs_frac=0.5)
    counts = _count_projections(monkeypatch)
    trace = solve(pair, SolverConfig(eps=1e-3))
    last = trace.records[-1]
    assert trace.status == STATUS_CONVERGED and trace.iterations > 10
    assert sum(counts.values()) == last.cum_proj_alg + last.cum_proj_diag - trace.iterations
    # XY: P_X in the centralizer and in the gap; the kernel's P_X is the gap's
    assert counts["eigh"] == 2 * trace.iterations + 1

    pair = generate("ellipsoids", 2, n=20, cond=1.5, tangency_gap=1e-3)
    counts = _count_projections(monkeypatch)
    trace = solve(pair, SolverConfig(method="map", eps=1e-10))
    last = trace.records[-1]
    assert trace.status == STATUS_CONVERGED and trace.iterations > 100
    # MAP: P_Y z from the gap, then P_X of it; the gap at the new point
    # takes P_X z = z and projects onto Y alone
    assert counts["ellipsoid"] == 2 * trace.iterations + 2
    assert counts["ellipsoid"] == last.cum_proj_alg + last.cum_proj_diag - trace.iterations
