"""Schedules, the iteration driver, rate estimation, and trace output."""
import csv
import dataclasses
import math
from operator import attrgetter

import numpy as np
import pytest

import cfeas.geometry
from cfeas.bench import write_trace_csv
from cfeas.errors import InsufficientTrace, InvalidKernel, InvalidSchedule, InvalidSpec
from cfeas.geometry import EntryMask, Halfspace, ProblemPair, distance, project
from cfeas.operators import KernelSpec, circumcentered_step
from cfeas.problems import generate
from cfeas.solver import (
    CLASS_INCONCLUSIVE,
    CLASS_LINEAR,
    CLASS_SUPERLINEAR,
    STATUS_CONVERGED,
    STATUS_MAX_ITER,
    STATUS_NUMERICAL_FAILURE,
    Constant,
    IterationRecord,
    SolverConfig,
    SolveTrace,
    Table,
    Vanishing,
    estimate_rate,
    solve,
)


def test_schedule_values():
    assert Constant(0.25)(17) == 0.25
    assert Vanishing()(0) == 0.5
    assert Vanishing()(1) == pytest.approx(1.0 / 3.0)
    assert Vanishing()(8) == pytest.approx(0.1)
    t = Table((0.3, 0.6))
    assert t(0) == 0.3
    # table values clamp to the last entry
    assert t(5) == 0.6


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
    # a wrong type is a usage error too, never a TypeError later in solve
    for given in ({"max_iter": 2.5}, {"max_iter": True}, {"eps": "1e-8"}, {"eps": None}):
        with pytest.raises(InvalidSpec):
            SolverConfig(**given)
    cfg = SolverConfig(max_iter=np.int64(3), eps=np.float64(1e-3))
    assert solve(generate("halfspace_wedge", 0, n=4, theta=0.5), cfg).iterations <= 3


def test_ccrm_config_defaults():
    cfg = SolverConfig()
    assert cfg.method == "crm"
    assert cfg.kernel == "XY"
    assert cfg.schedule == Constant(0.5)
    assert (cfg.eps, cfg.max_iter) == (1e-10, 100_000)
    assert (SolverConfig(method="map").kernel, SolverConfig(method="map").schedule) == (None, None)


def test_config_reads_a_kernel_word_and_checks_kernel_and_schedule_at_construction():
    cfg = SolverConfig(kernel="yxy")
    assert isinstance(cfg.kernel, KernelSpec) and cfg.kernel == "YXY"
    pair = generate("halfspace_wedge", 0, n=4, theta=0.5)
    given = solve(pair, SolverConfig(kernel="XY", eps=1e-10))
    assert given.status == STATUS_CONVERGED
    assert np.array_equal(given.deltas, solve(pair, SolverConfig(eps=1e-10)).deltas)
    with pytest.raises(InvalidKernel, match="kernel token 'Z'"):
        SolverConfig(kernel="XZ")
    with pytest.raises(InvalidSchedule):
        SolverConfig(schedule=0.5)


@pytest.mark.parametrize("given", [{"kernel": "XY"}, {"schedule": Constant(0.5)}])
def test_map_takes_no_kernel_or_schedule(given):
    with pytest.raises(InvalidSpec, match="map takes no kernel or schedule"):
        SolverConfig(method="map", **given)


def test_eigh_failure_ends_a_matrix_completion_solve_at_its_iteration(monkeypatch):
    """The gap at z0 makes eigh call 1; each XY step makes two more, P_X t
    and the gap's P_X z.  Call 4, P_X t of iteration 1, fails."""
    pair = generate("matrix_completion", 2, n=12, rank=2, obs_frac=0.5)
    eigh, calls = np.linalg.eigh, []

    def failing_fourth(m):
        calls.append(1)
        if len(calls) == 4:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigh(m)

    monkeypatch.setattr(np.linalg, "eigh", failing_fourth)
    trace = solve(pair, SolverConfig(eps=1e-300, max_iter=10))
    assert trace.status == STATUS_NUMERICAL_FAILURE
    assert trace.failure == "iteration 1: Eigenvalues did not converge"
    assert [r.k for r in trace.records] == [0, 1]
    assert [r.cum_proj_alg for r in trace.records] == [0, 4]
    assert [r.cum_proj_diag for r in trace.records] == [2, 4]


def test_solve_orthogonal_halfspaces_single_iteration():
    X = Halfspace(np.array([1.0, 0.0]), 0.0)
    Y = Halfspace(np.array([0.0, 1.0]), 0.0)
    pair = ProblemPair(X=X, Y=Y, z0=np.array([1.0, 1.0]))
    trace = solve(pair, SolverConfig(kernel=KernelSpec.from_string("Y"), eps=1e-12))
    assert trace.status == STATUS_CONVERGED
    assert trace.iterations == 1
    assert np.allclose(trace.final_point, [0.0, 0.0], atol=1e-12)


def test_solve_feasible_start_zero_iterations():
    pair = generate("ellipsoids", 0, n=10, cond=5.0)
    pair2 = ProblemPair(pair.X, pair.Y, z0=pair.s_ref, s_ref=pair.s_ref)
    trace = solve(pair2, SolverConfig(eps=1e-10))
    assert trace.status == STATUS_CONVERGED
    assert trace.iterations == 0


def test_solve_hits_iteration_cap():
    pair = generate("ellipsoids", 2, n=30, cond=20.0)
    trace = solve(pair, SolverConfig(eps=1e-15, max_iter=2))
    assert trace.status in (STATUS_MAX_ITER, STATUS_CONVERGED)
    if trace.status == STATUS_MAX_ITER:
        assert trace.iterations == 2


def _ellipsoids_poisoned_after(calls):
    """An ellipsoid pair whose Y projection turns NaN after `calls` calls."""
    pair = generate("ellipsoids", 2, n=30, cond=20.0)
    project, count = pair.Y._project, []

    def poisoned(z):
        count.append(1)
        return project(z) if len(count) <= calls else np.full_like(z, np.nan)

    object.__setattr__(pair.Y, "_project", poisoned)
    return pair


@pytest.mark.parametrize(
    "make,eps,status,failure",
    [
        (lambda: generate("halfspace_wedge", 1, n=10, theta=0.8), 1e-12, STATUS_CONVERGED, None),
        (lambda: generate("ellipsoids", 2, n=30, cond=20.0), 1e-300, STATUS_MAX_ITER, None),
        (lambda: _ellipsoids_poisoned_after(0), 1e-12, STATUS_NUMERICAL_FAILURE, "initial point: "),
        (lambda: _ellipsoids_poisoned_after(8), 1e-12, STATUS_NUMERICAL_FAILURE, "iteration "),
    ],
    ids=["converged", "max_iter", "failure_at_z0", "failure_mid_run"],
)
def test_trace_failure_is_set_exactly_when_the_run_ends_numerical_failure(
    make, eps, status, failure
):
    # run_matrix counts a cell as failed by its trace's failure alone
    trace = solve(make(), SolverConfig(eps=eps, max_iter=5))
    assert trace.status == status
    if failure is None:
        assert trace.failure is None
    else:
        assert trace.failure.startswith(failure)
        # failed mid-run, the trace keeps the iterates before the failure
        assert (trace.iterations > 0) == (failure == "iteration ")


def test_solve_fejer_monotone_distances(solve_recording):
    pair = generate("ellipsoids", 3, n=40, cond=20.0)
    _, zs = solve_recording(pair, SolverConfig(eps=1e-12))
    s = pair.s_ref
    dists = [np.linalg.norm(z - s) for z in zs]
    scale = 1.0 + dists[0]
    for a, b in zip(dists, dists[1:]):
        assert b <= a + 1e-9 * scale


def test_solve_map_matches_composition(solve_recording):
    pair = generate("ellipsoids", 4, n=15, cond=10.0)
    cfg = SolverConfig(method="map", eps=1e-10, max_iter=50000)
    trace, zs = solve_recording(pair, cfg)
    assert trace.status == STATUS_CONVERGED

    z = pair.z0
    for znext in zs[1:3]:
        z = project(pair.X, project(pair.Y, z))
        assert np.allclose(znext, z, atol=1e-12)
    # two projections per iteration, counted as algorithmic
    assert trace.total_algorithmic_projections == 2 * trace.iterations


@pytest.mark.parametrize("given", [{"kernel": "XY"}, {"method": "map"}], ids=["crm", "map"])
def test_solve_recording_sees_each_iterate_once(given, solve_recording):
    pair = generate("ellipsoids", 4, n=15, cond=10.0)
    cfg = SolverConfig(**given, eps=1e-6, max_iter=5000)
    trace, zs = solve_recording(pair, cfg)
    assert trace.status == STATUS_CONVERGED
    assert len(zs) == trace.iterations + 1
    assert np.array_equal(zs[0], pair.z0)
    assert np.array_equal(zs[-1], trace.final_point)
    if cfg.method == "map":
        for z, znext in zip(zs, zs[1:]):
            assert np.array_equal(znext, pair.X._project(pair.Y._project(z)))


def test_solve_map_slower_than_circumcentered_on_ellipsoids():
    pair = generate("ellipsoids", 5, n=50, cond=20.0)
    crm = solve(pair, SolverConfig(eps=1e-8, max_iter=20000))
    amap = solve(pair, SolverConfig(method="map", eps=1e-8, max_iter=20000))
    assert crm.status == STATUS_CONVERGED
    assert amap.iterations > crm.iterations


def test_tight_ellipsoid_run_keeps_the_circumcenter_step():
    # the gap reaches about 1e-12 at k = 7; the step must stay a circumcenter
    # step there, since a P_X n step shrinks this gap by only about 0.4%
    pair = generate("ellipsoids", 4, n=100, cond=1.5)
    trace = solve(pair, SolverConfig(schedule=Constant(0.5), eps=1e-12))
    assert trace.status == STATUS_CONVERGED
    assert trace.iterations <= 10


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize(
    "schedule", [Constant(0.25), Constant(0.5), Constant(0.75), Vanishing()], ids=repr
)
def test_tangent_ellipsoids_converge_under_every_schedule(schedule, seed):
    # margin 0: the ellipsoids touch only at the origin, so near the solution
    # the two normals are almost antiparallel; the step must stay accurate
    # there instead of falling back to P_X n, which stalls the gap near 1e-12
    pair = generate("ellipsoids", seed, n=100, cond=20.0, tangency_gap=0.0)
    cfg = SolverConfig(kernel="XY", schedule=schedule, eps=1e-12, max_iter=2000)
    assert solve(pair, cfg).status == STATUS_CONVERGED


def test_wedge_converges_immediately():
    pair = generate("halfspace_wedge", 1, n=10, theta=0.8)
    trace = solve(pair, SolverConfig(eps=1e-12))
    assert trace.status == STATUS_CONVERGED
    assert trace.iterations <= 2


def test_rate_geometric_sequence_classifies_linear():
    merits = 0.5 ** np.arange(40)
    est = estimate_rate(merits)
    assert est.classification == CLASS_LINEAR
    assert est.rho == pytest.approx(0.5, rel=1e-6)


@pytest.mark.parametrize("factor", [1.0, 1.001], ids=["flat", "growing"])
def test_rate_flat_or_growing_sequence_is_not_linear(factor):
    merits = factor ** np.arange(40)
    est = estimate_rate(merits)
    assert est.classification == CLASS_INCONCLUSIVE
    assert est.rho is None


def test_rate_squared_exponent_classifies_superlinear():
    merits = np.array([2.0 ** -(k * k) for k in range(12)])
    est = estimate_rate(merits)
    assert est.classification == CLASS_SUPERLINEAR


def test_rate_noisy_sequence_inconclusive():
    rng = np.random.default_rng(0)
    merits = np.exp(rng.uniform(-1.0, 1.0, 60))
    est = estimate_rate(merits)
    assert est.classification == CLASS_INCONCLUSIVE


def test_rate_short_trace_raises():
    with pytest.raises(InsufficientTrace):
        estimate_rate(np.ones(5))


def test_rate_trace_mostly_below_the_noise_floor_raises():
    merits = np.concatenate([0.5 ** np.arange(5), np.zeros(35)])
    with pytest.raises(InsufficientTrace, match="noise floor"):
        estimate_rate(merits)


def test_trace_csv_roundtrip(tmp_path):
    pair = generate("ellipsoids", 7, n=20, cond=10.0)
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


def _without_s_ref(pair):
    return ProblemPair(pair.X, pair.Y, pair.z0)


_trace_cases = pytest.mark.parametrize(
    "pair,cfg",
    [
        (generate("ellipsoids", 7, n=20, cond=10.0), SolverConfig(eps=1e-10)),
        (_without_s_ref(generate("ellipsoids", 7, n=20, cond=10.0)), SolverConfig(eps=1e-10)),
        (
            generate("ellipsoids", 7, n=20, cond=10.0),
            SolverConfig(schedule=Constant(np.float64(0.3))),
        ),
        (generate("ellipsoids", 7, n=20, cond=10.0), SolverConfig(method="map", eps=1e-6)),
    ],
    ids=["crm", "no_s_ref", "numpy_alpha", "map"],
)


def _csv_module_trace(trace, path):
    """The trace writer as the csv module writes it: the oracle that
    write_trace_csv's own formatting must match byte for byte."""
    names = [f.name for f in dataclasses.fields(IterationRecord)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        writer.writerows(map(attrgetter(*names), trace.records))


@_trace_cases
def test_trace_csv_holds_every_record_field(tmp_path, pair, cfg):
    """Each column is one IterationRecord field, parsed back without loss:
    None as "", NaN as nan, floats in shortest round-trip form.  Every float
    is a plain float, even for a NumPy alpha, so its repr is its digits."""
    trace = solve(pair, cfg)
    out = tmp_path / "trace.csv"
    write_trace_csv(trace, out)
    with open(out, newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    names = [f.name for f in dataclasses.fields(IterationRecord)]
    assert reader.fieldnames == names
    assert len(rows) == len(trace.records) > 1
    for row, rec in zip(rows, trace.records):
        for name in names:
            cell, value = row[name], getattr(rec, name)
            if value is None:
                assert cell == "", name
            elif isinstance(value, int):
                assert cell == str(value), name
            else:
                assert type(value) is float, name
                got = float(cell)
                assert got == value or (math.isnan(got) and math.isnan(value)), name


@_trace_cases
def test_trace_csv_bytes_match_the_csv_module(tmp_path, pair, cfg):
    trace = solve(pair, cfg)
    write_trace_csv(trace, tmp_path / "trace.csv")
    _csv_module_trace(trace, tmp_path / "oracle.csv")
    assert (tmp_path / "trace.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


def test_trace_csv_of_a_run_that_failed_at_z0_is_its_header(tmp_path):
    trace = SolveTrace([], STATUS_NUMERICAL_FAILURE, np.zeros(2), failure="initial point")
    assert write_trace_csv(trace, tmp_path / "trace.csv") == []
    _csv_module_trace(trace, tmp_path / "oracle.csv")
    assert (tmp_path / "trace.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


def test_map_iteration_counts_on_ell_map_instances():
    """Pinned counts: a faster projection must leave the iterations alone."""
    cfg = SolverConfig(method="map", eps=1e-4, max_iter=200_000)
    params = {"n": 100, "cond": 1.5, "tangency_gap": 1e-3}
    counts = [solve(generate("ellipsoids", seed, **params), cfg).iterations for seed in range(5)]
    assert counts == [592, 598, 593, 678, 572]


def test_trace_delta_reaches_eps():
    pair = generate("ellipsoids", 8, n=20, cond=10.0)
    trace = solve(pair, SolverConfig(eps=1e-10))
    assert trace.status == STATUS_CONVERGED
    assert trace.final_delta <= 1e-10
    assert max(distance(pair.X, trace.final_point),
               distance(pair.Y, trace.final_point)) <= 1e-10


def _reference_solve(pair, cfg):
    """Both drivers with every projection computed afresh: the stopping gap
    from `distance`, each step from its own `project` of z onto the kernel's
    innermost set.  `columns` holds each record's (centralization_ip, alpha,
    dist_sref, cum_proj_alg, cum_proj_diag): NaN ip and alpha at k = 0 and
    for MAP, dist_sref from np.linalg.norm, and the counters as running sums.  The diagonal counter
    adds the projections the solver's gap evaluates: 2 per gap, but 1 per MAP
    gap after z0, which takes P_X z = z."""
    z = pair.z0.copy()
    alg, diag = 0, 2
    deltas, columns = [], []

    def record(delta, ip=math.nan, alpha=math.nan):
        dist_sref = None if pair.s_ref is None else float(np.linalg.norm(z - pair.s_ref))
        deltas.append(delta)
        columns.append((ip, alpha, dist_sref, alg, diag))

    record(max(distance(pair.X, z), distance(pair.Y, z)))
    status, iterations = STATUS_MAX_ITER, cfg.max_iter
    if deltas[0] <= cfg.eps:
        return deltas, columns, STATUS_CONVERGED, 0, z
    for k in range(cfg.max_iter):
        ip = alpha = math.nan
        if cfg.method == "map":
            z = project(pair.X, project(pair.Y, z))
            alg += 2
        else:
            alpha = cfg.schedule(k)
            first = project(pair.X if cfg.kernel[0] == "X" else pair.Y, z)
            z, ip = circumcentered_step(pair, first, alpha, cfg.kernel)
            alg += len(cfg.kernel) + 2
        diag += 1 if cfg.method == "map" else 2
        record(max(distance(pair.X, z), distance(pair.Y, z)), ip, alpha)
        if deltas[-1] <= cfg.eps:
            status, iterations = STATUS_CONVERGED, k + 1
            break
    return deltas, columns, status, iterations, z


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
    deltas, columns, status, iterations, z = _reference_solve(pair, cfg)
    assert trace.deltas.tolist() == deltas
    fields = attrgetter("centralization_ip", "alpha", "dist_sref", "cum_proj_alg", "cum_proj_diag")
    got = [fields(r) for r in trace.records]
    assert len(got) == len(columns)
    for row, want in zip(got, columns):
        # NaN == NaN fails, so compare the NaN columns by their reprs
        assert repr(row) == repr(want)
    assert (trace.status, trace.iterations) == (status, iterations)
    assert np.array_equal(trace.final_point, z)


@pytest.mark.parametrize("instance", _ALL_INSTANCES)
def test_map_iterates_are_x_projections(instance, solve_recording):
    """The premise of MAP's one-distance gap: a MAP iterate after z0 is
    P_X of a point, so re-projecting it onto X moves it only by rounding, and
    dist(z, X) never decides the gap unless both distances are at that level."""
    (family, seed, params), eps = _ALL_INSTANCES[instance]
    pair = generate(family, seed, **params)
    trace, zs = solve_recording(pair, SolverConfig(method="map", eps=eps, max_iter=2000))
    assert trace.iterations == len(zs) - 1 > 0
    for z in zs[1:]:
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
