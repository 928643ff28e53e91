"""Acceptance gate: ten numbered criteria, one printed pass/fail line each.

Each test computes its criterion at the stated tolerances, prints a single
summary line, and then asserts.  Criteria 7 and 8 encode the paper's trend
comparisons between method variants.

Criterion 7 (matrix completion) checks that a deeper kernel needs strictly
fewer mean iterations at every alpha, and that alpha does not change the
step.  Y is affine there and the iterates lie in Y, so YXY acts as XY; the
deeper kernel compared is XYXY.  Alpha leaves the circumcenter unchanged in
exact arithmetic, so it is checked per step and not by comparing mean
iteration counts, whose order rounding decides.  Both identities are asserted.

Criterion 8 (ellipsoids) is asserted as stated and fails: alpha moves the
step only at second order in the gap near the solution, and constant and
vanishing schedules take the same 10-13 iterations on every instance.
"""
import math
import time

import numpy as np

from cfeas.errors import InsufficientTrace
from cfeas.geometry import (
    Ball,
    ProblemPair,
    as_point,
    distance,
    project,
    project_psd,
    stopping_gap,
)
from cfeas.operators import (
    KERNEL_STANDARD,
    KernelSpec,
    _strictly_centralized,
    apply_kernel,
    centralize,
    circumcenter,
    circumcentered_step,
    pcrm,
)
from cfeas.oracles import (
    circumcenter_residuals,
    ellipsoid_bisection,
    psd_nearest,
    supporting_halfspace_projection,
    wedge_distance_to_intersection,
)
from cfeas.problems import generate, make_rng, random_point, random_set
from cfeas.solver import (
    CLASS_SUPERLINEAR,
    STATUS_CONVERGED,
    Constant,
    SolverConfig,
    Vanishing,
    estimate_rate,
    solve,
)


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"CRITERION {num} [{name}]: {verdict}{suffix}")


def test_criterion_1_projection_oracle_equivalence():
    t0 = time.time()
    worst = 0.0
    for seed in range(200):
        rng = make_rng(50_000 + seed)

        ell = random_set("ellipsoid", rng, dim=6)
        z = random_point(6, rng)
        got = project(ell, z)
        want, _ = ellipsoid_bisection(ell, z)
        worst = max(worst, np.linalg.norm(got - want) / (1.0 + np.linalg.norm(want)))

        m = rng.standard_normal((4, 4))
        got = project_psd(m.reshape(-1), 4).reshape(4, 4)
        want = psd_nearest(m)
        worst = max(worst, np.linalg.norm(got - want) / (1.0 + np.linalg.norm(want)))

        hs = random_set("halfspace", rng, dim=6)
        z = random_point(6, rng)
        viol = float(hs.normal @ z) - hs.offset
        want = z - max(viol, 0.0) / float(hs.normal @ hs.normal) * hs.normal
        worst = max(
            worst,
            np.linalg.norm(project(hs, z) - want) / (1.0 + np.linalg.norm(want)),
        )

        box = random_set("box", rng, dim=6)
        z = random_point(6, rng)
        want = np.minimum(np.maximum(z, box.lo), box.hi)
        worst = max(
            worst,
            np.linalg.norm(project(box, z) - want) / (1.0 + np.linalg.norm(want)),
        )

        ball = random_set("ball", rng, dim=6)
        z = random_point(6, rng)
        u = z - ball.center
        r = np.linalg.norm(u)
        want = z if r <= ball.radius else ball.center + (ball.radius / r) * u
        worst = max(
            worst,
            np.linalg.norm(project(ball, z) - want) / (1.0 + np.linalg.norm(want)),
        )
    elapsed = time.time() - t0
    ok = worst <= 1e-8 and elapsed < 30.0
    _report(1, "projection oracles", ok, f"worst rel err {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-8
    assert elapsed < 30.0


def test_criterion_2_circumcenter_correctness():
    t0 = time.time()
    worst_geom = 0.0
    rng = make_rng(60_000)
    produced = 0
    while produced < 1000:
        dim = int(rng.integers(2, 11))
        z, v, w = (rng.standard_normal(dim) for _ in range(3))
        c = closed_form_center(z, v, w)
        if c is None:
            continue
        produced += 1
        equi, span = circumcenter_residuals(z, v, w, c)
        scale = 1.0 + max(map(np.linalg.norm, (z, v, w)))
        worst_geom = max(worst_geom, equi / scale, span / scale)

    worst_qp = 0.0
    strict = 0
    for seed in range(400):
        rng = make_rng(61_000 + seed)
        dim = int(rng.integers(2, 8))
        c1 = rng.standard_normal(dim)
        u = rng.standard_normal(dim)
        u /= np.linalg.norm(u)
        c2 = c1 + rng.uniform(1.7, 1.95) * u
        v = rng.standard_normal(dim)
        v -= (v @ u) * u
        v /= np.linalg.norm(v)
        pair = ProblemPair(X=Ball(c1, 1.0), Y=Ball(c2, 1.0), z0=np.zeros(dim))
        y = project(pair.Y, c2 + 3.0 * v)
        z, px = centralize(pair, y, float(rng.uniform(0.05, 0.3)))
        py = project(pair.Y, z)
        if float((z - px) @ (z - py)) >= -1e-10:
            continue
        strict += 1
        got, _ = pcrm(z, px, py)
        want = supporting_halfspace_projection(z, px, py)
        worst_qp = max(
            worst_qp, np.linalg.norm(got - want) / (1.0 + np.linalg.norm(want))
        )
    elapsed = time.time() - t0
    ok = worst_geom <= 1e-9 and worst_qp <= 1e-8 and strict >= 50 and elapsed < 10.0
    _report(
        2,
        "circumcenter + PCRM vs QP",
        ok,
        f"geom {worst_geom:.2e}, qp {worst_qp:.2e} on {strict} points, {elapsed:.1f}s",
    )
    assert worst_geom <= 1e-9
    assert worst_qp <= 1e-8
    assert strict >= 50
    assert elapsed < 10.0


def closed_form_center(z, v, w):
    """The step's closed-form circumcenter of z, v = z - 2 dx and w = z - 2 dy,
    or None where it returns None."""
    dx, dy = 0.5 * (z - v), 0.5 * (z - w)
    return circumcenter(z, dx, dy, float(np.linalg.norm(dx)), float(np.linalg.norm(dy)))


def is_strictly_centralized(pair: ProblemPair, z) -> bool:
    """The strictness test `pcrm` applies, from two checked projections."""
    z = as_point(z)
    dx = z - project(pair.X, z)
    dy = z - project(pair.Y, z)
    return _strictly_centralized(
        math.sqrt(float(z.dot(z))),
        math.sqrt(float(dx.dot(dx))),
        math.sqrt(float(dy.dot(dy))),
        float(dx.dot(dy)),
    )


def test_criterion_3_centralization_invariant():
    worst = -np.inf
    strict_hits = 0
    strict_eligible = 0
    for seed in range(1000):
        rng = make_rng(70_000 + seed)
        dim = int(rng.integers(2, 8))
        c1 = rng.standard_normal(dim)
        u = rng.standard_normal(dim)
        u /= np.linalg.norm(u)
        pair = ProblemPair(
            X=Ball(c1, 1.0),
            Y=Ball(c1 + rng.uniform(0.3, 1.9) * u, 1.0),
            z0=np.zeros(dim),
        )
        z = rng.standard_normal(dim) * 4.0
        alpha = float(rng.uniform(0.05, 0.95))
        t = apply_kernel(KERNEL_STANDARD, pair, project(pair.X, z))
        n, _ = centralize(pair, t, alpha)
        ip = pcrm(n, project(pair.X, n), project(pair.Y, n))[1]
        scale = (1.0 + float(np.linalg.norm(n))) ** 2
        worst = max(worst, ip / scale)
        # t lies in P_Y(X) by construction; off the intersection the
        # interpolant must be strictly centralized
        if distance(pair.X, t) > 1e-6:
            strict_eligible += 1
            if is_strictly_centralized(pair, n):
                strict_hits += 1
    ok = worst <= 1e-9 and strict_eligible >= 100 and strict_hits == strict_eligible
    _report(
        3,
        "centralization invariant",
        ok,
        f"worst ip/scale {worst:.2e}, strict {strict_hits}/{strict_eligible}",
    )
    assert worst <= 1e-9
    assert strict_eligible >= 100
    assert strict_hits == strict_eligible


def test_criterion_4_fejer_suite(solve_recording):
    instances = [
        generate("matrix_completion", 0, n=20, rank=3, obs_frac=0.4),
        generate("matrix_completion", 1, n=20, rank=3, obs_frac=0.4),
        generate("ellipsoids", 0, n=60, cond=20.0, tangency_gap=1e-3),
        generate("ellipsoids", 1, n=60, cond=20.0, tangency_gap=1e-3),
        generate("halfspace_wedge", 0, n=15, theta=0.6),
        generate("halfspace_wedge", 1, n=15, theta=0.6),
    ]
    configs = [
        SolverConfig(schedule=Constant(0.5), eps=1e-2, max_iter=5000),
        SolverConfig(schedule=Vanishing(), eps=1e-2, max_iter=5000),
    ]
    worst_step = -np.inf
    worst_tele = -np.inf
    for pair in instances:
        s = pair.s_ref
        for cfg in configs:
            trace, zs = solve_recording(pair, cfg)
            scale = max(1.0, float(np.linalg.norm(s - zs[0])) ** 2)
            for k in range(len(zs) - 1):
                lhs = float(np.linalg.norm(s - zs[k + 1])) ** 2
                gap = stopping_gap(pair, zs[k + 1])[0]
                rhs = float(np.linalg.norm(s - zs[k])) ** 2 - gap ** 2
                worst_step = max(worst_step, (lhs - rhs) / scale)
            tele = float(np.sum(trace.deltas[1:] ** 2)) - float(
                np.linalg.norm(s - zs[0])
            ) ** 2
            worst_tele = max(worst_tele, tele / scale)
    ok = worst_step <= 1e-8 and worst_tele <= 1e-8
    _report(
        4,
        "Fejer suite",
        ok,
        f"worst per-step excess {worst_step:.2e}, telescoped excess {worst_tele:.2e}",
    )
    assert worst_step <= 1e-8
    assert worst_tele <= 1e-8


def test_criterion_5_wedge_rate_sandwich(solve_recording):
    t0 = time.time()
    worst_q = -np.inf
    worst_d = -np.inf
    for theta in (0.3, 0.7, 1.2):
        for seed in range(5):
            pair = generate("halfspace_wedge", seed, n=12, theta=theta)
            omega = pair.metadata["omega"]
            beta = math.sqrt(1.0 - omega * omega)
            alpha = 0.5
            cfg = SolverConfig(schedule=Constant(alpha), eps=1e-14, max_iter=200)
            _, zs = solve_recording(pair, cfg)
            zbar = zs[-1]
            burn = 1
            q_bound = (1.0 + omega * omega / 4.0) ** -0.5 + 1e-3
            for k in range(burn, len(zs) - 1):
                a = float(np.linalg.norm(zs[k] - zbar))
                b = float(np.linalg.norm(zs[k + 1] - zbar))
                if a > 1e-12:
                    worst_q = max(worst_q, b / a - q_bound)
            d_bound = beta * (alpha + (1.0 - alpha) * beta) + 1e-6
            ds = [wedge_distance_to_intersection(pair, z) for z in zs]
            for k in range(len(ds) - 1):
                if ds[k] > 1e-12:
                    worst_d = max(worst_d, ds[k + 1] / ds[k] - d_bound)
    elapsed = time.time() - t0
    ok = worst_q <= 0.0 and worst_d <= 0.0 and elapsed < 5.0
    _report(
        5,
        "wedge rate sandwich",
        ok,
        f"q-bound margin {worst_q:.2e}, d-bound margin {worst_d:.2e}, {elapsed:.1f}s",
    )
    assert worst_q <= 0.0
    assert worst_d <= 0.0
    assert elapsed < 5.0


def test_criterion_6_superlinearity_detection():
    t0 = time.time()
    vanish_hits = 0
    kernel_hits = 0
    for seed in range(5):
        pair = generate("ellipsoids", seed, n=50, cond=20.0, tangency_gap=1e-3)
        tr = solve(
            pair,
            SolverConfig(schedule=Vanishing(), eps=1e-12, max_iter=20000),
        )
        try:
            if (
                tr.status == STATUS_CONVERGED
                and estimate_rate(tr.deltas).classification == CLASS_SUPERLINEAR
            ):
                vanish_hits += 1
        except InsufficientTrace:
            pass
        tr = solve(
            pair,
            SolverConfig(
                kernel=KERNEL_STANDARD,
                schedule=Constant(0.5),
                eps=1e-12,
                max_iter=20000,
            ),
        )
        try:
            if (
                tr.status == STATUS_CONVERGED
                and estimate_rate(tr.deltas).classification == CLASS_SUPERLINEAR
            ):
                kernel_hits += 1
        except InsufficientTrace:
            pass
    elapsed = time.time() - t0
    ok = vanish_hits >= 4 and kernel_hits >= 4 and elapsed < 60.0
    _report(
        6,
        "superlinearity detection",
        ok,
        f"vanishing {vanish_hits}/5, kernel XY {kernel_hits}/5, {elapsed:.1f}s",
    )
    assert vanish_hits >= 4
    assert kernel_hits >= 4
    assert elapsed < 60.0


def test_criterion_7_matrix_completion_trend(solve_recording):
    """Deeper kernel wins at every alpha; alpha leaves every step unchanged.

    On this family Y (the entry mask) is affine and z0 lies in Y, so every
    iterate stays in Y: the leading P_Y of YXY is idle and YXY steps as XY
    does.  The deeper kernel is XYXY = (P_Y P_X)^2.  With Y affine, P_X n is
    P_X t for every alpha and n - P_Y n only scales with (1 - alpha), so the
    circumcenter is the same point for every alpha; the alpha relation is
    checked per step, where rounding cannot decide it as it decides a
    comparison of mean iteration counts.  The two identities are asserted
    too, so a change that breaks them turns this criterion red.
    """
    t0 = time.time()
    rtol = 1e-10
    alphas = (0.25, 0.5, 0.75)
    kernels = (("XY", KERNEL_STANDARD), ("XYXY", KernelSpec("XYXY")))
    pairs = [generate("matrix_completion", seed, n=30, rank=3, obs_frac=0.4) for seed in range(10)]
    means = {}
    half_runs = {}
    for kernel_name, kernel in kernels:
        for alpha in alphas:
            runs = [
                solve_recording(
                    pair,
                    SolverConfig(
                        kernel=kernel,
                        schedule=Constant(alpha),
                        eps=1e-2,
                        max_iter=50000,
                    ),
                )
                for pair in pairs
            ]
            means[(kernel_name, alpha)] = float(np.mean([tr.iterations for tr, _ in runs]))
            if alpha == 0.5:
                half_runs[kernel_name] = [zs for _, zs in runs]
    worst_in_y = 0.0
    worst_yxy = 0.0
    worst_alpha = 0.0
    for kernel_name, kernel in kernels:
        for pair, zs in zip(pairs, half_runs[kernel_name]):
            for z, nxt in zip(zs, zs[1:]):
                scale = 1.0 + float(np.linalg.norm(nxt))
                px = project(pair.X, z)
                for alpha in (0.25, 0.75):
                    step, _ = circumcentered_step(pair, px, alpha, kernel)
                    worst_alpha = max(worst_alpha, float(np.linalg.norm(step - nxt)) / scale)
                if kernel_name == "XY":
                    py = project(pair.Y, z)
                    step, _ = circumcentered_step(pair, py, 0.5, KernelSpec.from_string("YXY"))
                    worst_yxy = max(worst_yxy, float(np.linalg.norm(step - nxt)) / scale)
            if kernel_name == "XY":
                for z in zs:
                    worst_in_y = max(
                        worst_in_y, distance(pair.Y, z) / (1.0 + float(np.linalg.norm(z)))
                    )
    elapsed = time.time() - t0
    in_y = worst_in_y <= rtol
    yxy_is_xy = worst_yxy <= rtol
    alpha_idle = worst_alpha <= rtol
    deep_wins = all(means[("XYXY", a)] < means[("XY", a)] for a in alphas)
    ok = in_y and yxy_is_xy and alpha_idle and deep_wins and elapsed < 300.0
    detail = ", ".join(f"{k}@{a}={means[(k, a)]:.1f}" for k, _ in kernels for a in alphas)
    _report(
        7,
        "matrix completion trend",
        ok,
        f"{detail}, dist(Y) {worst_in_y:.1e}, YXY-XY step {worst_yxy:.1e}, "
        f"alpha step {worst_alpha:.1e}, {elapsed:.0f}s",
    )
    assert in_y, f"an XY iterate leaves the affine set Y: {worst_in_y:.2e} relative"
    assert yxy_is_xy, f"YXY step differs from XY step: {worst_yxy:.2e} relative"
    assert alpha_idle, f"alpha changes the step on affine Y: {worst_alpha:.2e} relative"
    assert deep_wins, f"deep kernel not strictly better at every alpha: {means}"
    assert elapsed < 300.0


def test_criterion_8_ellipsoid_schedule_trend():
    t0 = time.time()
    iters = {"constant": [], "vanishing": []}
    deltas = {"constant": [], "vanishing": []}
    for seed in range(10):
        pair = generate("ellipsoids", seed, n=200, cond=20.0)
        for name, schedule in (
            ("constant", Constant(0.5)),
            ("vanishing", Vanishing()),
        ):
            tr = solve(
                pair,
                SolverConfig(schedule=schedule, eps=1e-12, max_iter=50000),
            )
            iters[name].append(tr.iterations)
            deltas[name].append(tr.final_delta)
    elapsed = time.time() - t0
    mean_c = float(np.mean(iters["constant"]))
    mean_v = float(np.mean(iters["vanishing"]))
    reduction = (mean_c - mean_v) / mean_c
    all_tight = all(d <= 1e-12 for d in deltas["constant"] + deltas["vanishing"])
    ok = reduction >= 0.05 and all_tight and elapsed < 120.0
    _report(
        8,
        "ellipsoid schedule trend",
        ok,
        f"constant {mean_c:.1f}, vanishing {mean_v:.1f}, "
        f"reduction {100 * reduction:.1f}%, {elapsed:.0f}s",
    )
    assert all_tight
    assert elapsed < 120.0
    assert reduction >= 0.05, (
        f"vanishing schedule saves {100 * reduction:.1f}% iterations, below the "
        f"required 5% (constant {mean_c:.1f} vs vanishing {mean_v:.1f})"
    )


def test_criterion_8_alpha_moves_the_step_at_second_order(solve_recording):
    """README's account of criterion 8's failure: at each Constant(0.5)
    iterate of its runs with a gap of at least 1e-5, the alpha = 0.25 and
    0.75 steps differ by at most 0.161 gap (measured: 0.16015), and by a
    median of at most 30 gap^2 (measured: 28.95)."""
    first_order, second_order = [], []
    for seed in range(10):
        pair = generate("ellipsoids", seed, n=200, cond=20.0)
        trace, zs = solve_recording(
            pair, SolverConfig(schedule=Constant(0.5), eps=1e-12, max_iter=50000)
        )
        for record, z in zip(trace.records, zs):
            gap = record.delta
            if gap < 1e-5:
                continue
            px = project(pair.X, z)
            low, _ = circumcentered_step(pair, px, 0.25, KERNEL_STANDARD)
            high, _ = circumcentered_step(pair, px, 0.75, KERNEL_STANDARD)
            moved = float(np.linalg.norm(low - high))
            first_order.append(moved / gap)
            second_order.append(moved / gap**2)
    print(
        f"{len(first_order)} iterates: max |step(.25) - step(.75)| / gap "
        f"{max(first_order):.5f}, median / gap^2 {float(np.median(second_order)):.2f}"
    )
    assert len(first_order) >= 50
    assert max(first_order) <= 0.161
    assert float(np.median(second_order)) <= 30.0


# each kernel's projections per iteration: its own, P_X t, P_Y n
_COST_PER_ITERATION = (
    (KernelSpec.from_string("Y"), 3),
    (KERNEL_STANDARD, 4),
    (KernelSpec.from_string("YXY"), 5),
)


def test_criterion_9_cost_accounting():
    pair = generate("ellipsoids", 0, n=40, cond=20.0, tangency_gap=1e-3)
    ok = True
    detail = []
    for kernel, cost in _COST_PER_ITERATION:
        tr = solve(
            pair, SolverConfig(kernel=kernel, eps=1e-10, max_iter=10000)
        )
        exact = tr.total_algorithmic_projections == cost * tr.iterations
        ok = ok and exact
        detail.append(
            f"{kernel}={tr.total_algorithmic_projections}/{tr.iterations}it"
        )
    _report(9, "cost accounting", ok, ", ".join(detail))
    for kernel, cost in _COST_PER_ITERATION:
        tr = solve(
            pair, SolverConfig(kernel=kernel, eps=1e-10, max_iter=10000)
        )
        assert tr.total_algorithmic_projections == cost * tr.iterations


def test_criterion_10_determinism(tmp_path):
    import csv

    from cfeas.bench import ExperimentConfig, run_matrix

    doc = {
        "generator": {"family": "ellipsoids", "n": 30, "cond": 10.0},
        "methods": [
            {"name": "crm", "schedule": {"kind": "constant", "alpha": 0.5}},
            {"name": "vanish", "schedule": {"kind": "vanishing"}},
        ],
        "seeds": [0, 1, 2],
        "eps": 1e-10,
    }

    def run(out):
        run_matrix(ExperimentConfig.from_json(doc), out_dir=str(out))
        with open(out / "summary.csv") as fh:
            rows = list(csv.DictReader(fh))
        return [
            {k: v for k, v in row.items() if k != "mean_time_s"} for row in rows
        ]

    first = run(tmp_path / "r1")
    second = run(tmp_path / "r2")
    ok = first == second
    _report(10, "determinism", ok, f"{len(first)} summary rows compared")
    assert first == second
