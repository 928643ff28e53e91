"""Instance generators: feasibility, determinism, and serialization."""
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfeas.errors import InvalidSpec
from cfeas.geometry import Ellipsoid, EntryMask, PsdCone, distance, stopping_gap
from cfeas.problems import (
    generate,
    make_rng,
    pair_from_json,
    pair_to_json,
    random_set,
    read_json,
)

MEMBERSHIP_RTOL = 1e-12


def test_matrix_completion_structure():
    pair = generate("matrix_completion", 0, n=12, rank=2, obs_frac=0.4)
    assert isinstance(pair.X, PsdCone)
    assert isinstance(pair.Y, EntryMask)
    assert pair.dim == 144
    # ground truth is feasible: PSD and consistent with the mask
    assert stopping_gap(pair, pair.s_ref)[0] <= 1e-10
    a = pair.s_ref.reshape(12, 12)
    assert np.allclose(a, a.T)
    assert np.linalg.eigvalsh(a).min() >= -1e-10


def test_matrix_completion_mask_is_symmetric_and_covers_fraction():
    n = 15
    pair = generate("matrix_completion", 1, n=n, rank=3, obs_frac=0.4)
    mask = pair.Y
    pairs = set(zip(mask.rows.tolist(), mask.cols.tolist()))
    for i, j in pairs:
        assert (j, i) in pairs
    assert len(pairs) >= int(np.ceil(0.4 * n * n))


def test_matrix_completion_z0_is_masked_truth():
    pair = generate("matrix_completion", 2, n=8, rank=2, obs_frac=0.5)
    z0 = pair.z0.reshape(8, 8)
    a = pair.s_ref.reshape(8, 8)
    mask = np.zeros((8, 8), dtype=bool)
    mask[pair.Y.rows, pair.Y.cols] = True
    assert np.allclose(z0[mask], a[mask])
    assert np.all(z0[~mask] == 0.0)


def test_matrix_completion_full_observation_pins_solution():
    pair = generate("matrix_completion", 3, n=4, rank=1, obs_frac=1.0)
    assert len(pair.Y.values) == 16
    assert stopping_gap(pair, pair.z0)[0] <= 1e-10


def test_matrix_completion_invalid_params():
    with pytest.raises(InvalidSpec):
        generate("matrix_completion", 0, n=5, rank=5, obs_frac=0.4)
    with pytest.raises(InvalidSpec):
        generate("matrix_completion", 0, n=5, rank=2, obs_frac=0.0)


def _form(e, z):
    """The ellipsoid's quadratic form sum_i diag_i (z_i - center_i)^2."""
    u = z - e.center
    return float(e.diag @ (u * u))


def _contains(set_, z):
    """Membership up to rounding: dist(z, C) <= MEMBERSHIP_RTOL (1 + ||z||)."""
    return distance(set_, z) <= MEMBERSHIP_RTOL * (1.0 + float(np.linalg.norm(z)))


def _reference_mask(n, obs_frac, rng):
    """The mask sampler as a loop over draws: (rows, cols, draws taken).

    Each draw of rng.permutation(n * n) pins (i, j) and (j, i); the draws
    stop once at least ceil(obs_frac * n^2) entries are pinned.
    """
    target = math.ceil(obs_frac * n * n)
    chosen = set()
    draws = 0
    for flat in rng.permutation(n * n):
        if len(chosen) >= target:
            break
        i, j = divmod(int(flat), n)
        chosen.add((i, j))
        chosen.add((j, i))
        draws += 1
    idx = sorted(chosen)
    rows = np.array([i for i, _ in idx], dtype=int)
    cols = np.array([j for _, j in idx], dtype=int)
    return rows, cols, draws


def _assert_matches_reference(n, r, obs_frac, seed):
    """The matrix_completion family equals the reference sampler byte for byte;
    returns the reference's number of draws."""
    rng = make_rng(seed)
    b = rng.standard_normal((n, r))
    a = b @ b.T
    rows, cols, draws = _reference_mask(n, obs_frac, rng)
    z0 = np.zeros((n, n))
    z0[rows, cols] = a[rows, cols]
    want = {
        "rows": rows,
        "cols": cols,
        "values": a[rows, cols],
        "z0": z0.reshape(-1),
        "s_ref": a.reshape(-1),
    }
    pair = generate("matrix_completion", seed, n=n, rank=r, obs_frac=obs_frac)
    got = {
        "rows": pair.Y.rows,
        "cols": pair.Y.cols,
        "values": pair.Y.values,
        "z0": pair.z0,
        "s_ref": pair.s_ref,
    }
    for key, ref in want.items():
        assert got[key].dtype == ref.dtype, key
        assert got[key].shape == ref.shape, key
        assert got[key].tobytes() == ref.tobytes(), key
    meta = {"family": "matrix_completion", "n": n, "rank": r, "obs_frac": obs_frac, "seed": seed}
    assert json.dumps(pair.metadata) == json.dumps(meta)
    return draws


@pytest.mark.parametrize("n", [2, 3, 5, 8, 12, 30])
def test_matrix_completion_mask_matches_reference_sampler(n):
    for r in sorted({1, n - 1}):
        for obs_frac in (1e-9, 0.01, 0.1, 0.3, 0.5, 0.77, 0.99, 1.0):
            for seed in range(3):
                _assert_matches_reference(n, r, obs_frac, seed)


def test_matrix_completion_mc_psd_instances_match_reference_sampler():
    # the instance seeds of the mc_psd benchmark's run seeds 0 and 1
    for seed in range(32):
        _assert_matches_reference(80, 3, 0.6, seed)


@settings(max_examples=120)
@given(
    st.integers(2, 40).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n - 1))),
    st.floats(0.0, 1.0, exclude_min=True),
    st.integers(0, 2**32 - 1),
)
def test_matrix_completion_mask_matches_reference_property(n_rank, obs_frac, seed):
    n, r = n_rank
    _assert_matches_reference(n, r, obs_frac, seed)


def test_matrix_completion_full_observation_stops_at_last_new_pair():
    for n in (2, 3, 7):
        for seed in range(4):
            pair = generate("matrix_completion", seed, n=n, rank=1, obs_frac=1.0)
            assert pair.Y.rows.tolist() == np.repeat(np.arange(n), n).tolist()
            assert pair.Y.cols.tolist() == np.tile(np.arange(n), n).tolist()
            draws = _assert_matches_reference(n, 1, 1.0, seed)
            # the last draw taken pins a new pair: its transpose is not drawn before it
            rng = make_rng(seed)
            rng.standard_normal((n, 1))
            perm = rng.permutation(n * n)
            i, j = divmod(int(perm[draws - 1]), n)
            assert j * n + i in perm[draws - 1 :].tolist()


def test_matrix_completion_target_one_stops_after_one_draw():
    sizes = set()
    for n in (2, 3):
        for seed in range(20):
            pair = generate("matrix_completion", seed, n=n, rank=1, obs_frac=1e-9)
            assert _assert_matches_reference(n, 1, 1e-9, seed) == 1
            rng = make_rng(seed)
            rng.standard_normal((n, 1))
            i, j = divmod(int(rng.permutation(n * n)[0]), n)
            assert set(zip(pair.Y.rows.tolist(), pair.Y.cols.tolist())) == {(i, j), (j, i)}
            sizes.add(len(pair.Y.rows))
    assert sizes == {1, 2}


def test_random_entry_mask_pins_each_draw_and_its_transpose_in_row_major_order():
    for seed in range(200):
        order = 1 + seed % 9
        mask = random_set("entry_mask", make_rng(seed), order=order)
        rng = make_rng(seed)
        rng.standard_normal((order, order))
        pinned = set()
        for flat in rng.permutation(order * order)[: max(1, order * order // 3)].tolist():
            i, j = divmod(flat, order)
            pinned |= {(i, j), (j, i)}
        assert list(zip(mask.rows.tolist(), mask.cols.tolist())) == sorted(pinned)


def test_ellipsoids_interior_margin():
    for seed in range(5):
        pair = generate("ellipsoids", seed, n=30, cond=20.0, tangency_gap=1e-3)
        assert isinstance(pair.X, Ellipsoid)
        assert isinstance(pair.Y, Ellipsoid)
        # the reference point sits inside both with quadratic margin = gap
        assert _form(pair.X, pair.s_ref) == pytest.approx(1.0 - 1e-3, abs=1e-12)
        assert _form(pair.Y, pair.s_ref) == pytest.approx(1.0 - 1e-3, abs=1e-12)
        assert _contains(pair.X, pair.s_ref)
        assert _contains(pair.Y, pair.s_ref)


def test_ellipsoids_tangent_at_margin_zero():
    # margin 0 puts s_ref on the boundary of both ellipsoids
    for seed in range(5):
        pair = generate("ellipsoids", seed, n=30, cond=20.0, tangency_gap=0.0)
        assert _form(pair.X, pair.s_ref) == pytest.approx(1.0, abs=1e-12)
        assert _form(pair.Y, pair.s_ref) == pytest.approx(1.0, abs=1e-12)


def test_ellipsoids_interior_point_probe():
    # direction probes from s_ref stay feasible for a short distance, so the
    # reference point is interior to both sets, not merely on the boundary
    pair = generate("ellipsoids", 1, n=200, cond=20.0, tangency_gap=1e-3)
    rng = np.random.default_rng(0)
    step = 1e-5
    for _ in range(100):
        u = rng.standard_normal(pair.dim)
        u /= np.linalg.norm(u)
        probe = pair.s_ref + step * u
        assert _form(pair.X, probe) < 1.0
        assert _form(pair.Y, probe) < 1.0


def test_ellipsoids_condition_number_range():
    pair = generate("ellipsoids", 2, n=100, cond=20.0, tangency_gap=1e-3)
    for e in (pair.X, pair.Y):
        assert e.diag.min() >= 1.0 - 1e-12
        assert e.diag.max() <= 20.0 + 1e-12


def test_ellipsoids_isotropic_case():
    pair = generate("ellipsoids", 3, n=10, cond=1.0, tangency_gap=0.5)
    assert np.allclose(pair.X.diag, 1.0)
    assert np.allclose(pair.Y.diag, 1.0)
    assert stopping_gap(pair, pair.s_ref)[0] <= 1e-10


def test_ellipsoids_z0_scale():
    pair = generate("ellipsoids", 4, n=50, cond=20.0, tangency_gap=1e-3)
    r = np.linalg.norm(pair.z0 - pair.s_ref)
    # about the ellipsoid diameters away from the reference point
    assert 1.0 <= r <= 5.0


def test_ellipsoids_invalid_params():
    with pytest.raises(InvalidSpec):
        generate("ellipsoids", 0, n=10, cond=0.5, tangency_gap=1e-3)
    # NaN passes `cond < 1` and would give an isotropic instance; inf overflows
    for cond in (float("nan"), float("inf")):
        with pytest.raises(InvalidSpec, match=r"'cond': must lie in \[1, inf\)"):
            generate("ellipsoids", 0, n=10, cond=cond, tangency_gap=1e-3)


def test_wedge_geometry():
    theta = 0.8
    pair = generate("halfspace_wedge", 0, n=12, theta=theta)
    n1, n2 = pair.X.normal, pair.Y.normal
    # normals at angle pi - theta and closed-form error bound constant
    cosang = float(n1 @ n2) / (np.linalg.norm(n1) * np.linalg.norm(n2))
    assert cosang == pytest.approx(np.cos(np.pi - theta), abs=1e-12)
    assert pair.metadata["omega"] == pytest.approx(np.sin(theta / 2.0))
    assert stopping_gap(pair, pair.s_ref)[0] <= 1e-12


def test_wedge_invalid_theta():
    with pytest.raises(InvalidSpec):
        generate("halfspace_wedge", 0, n=5, theta=0.0)
    with pytest.raises(InvalidSpec):
        generate("halfspace_wedge", 0, n=5, theta=2.0)


def test_wedge_needs_dimension_two():
    with pytest.raises(InvalidSpec, match=r"'n': must lie in \[2, inf\)"):
        generate("halfspace_wedge", 0, n=1, theta=0.5)


def test_generators_deterministic():
    a = generate("ellipsoids", 9, n=20, cond=20.0, tangency_gap=1e-3)
    b = generate("ellipsoids", 9, n=20, cond=20.0, tangency_gap=1e-3)
    assert np.array_equal(a.z0, b.z0)
    assert np.array_equal(a.X.diag, b.X.diag)
    c = generate("matrix_completion", 9, n=10, rank=2, obs_frac=0.4)
    d = generate("matrix_completion", 9, n=10, rank=2, obs_frac=0.4)
    assert np.array_equal(c.s_ref, d.s_ref)
    assert np.array_equal(c.Y.rows, d.Y.rows)


def test_generate_dispatch_and_unknown_family():
    pair = generate("ellipsoids", 0, n=10, cond=5.0)
    assert pair.metadata["family"] == "ellipsoids"
    with pytest.raises(InvalidSpec):
        generate("simplex", 0, n=3)
    with pytest.raises(InvalidSpec, match="ellipsoids generator: unknown field 'theta'"):
        generate("ellipsoids", 0, n=10, cond=5.0, theta=1.0)
    with pytest.raises(InvalidSpec, match=r"'seed': must lie in \[0, 2\*\*128\)"):
        generate("ellipsoids", -1, n=10, cond=5.0)
    for seed in (True, 1.5, "0", None):
        with pytest.raises(InvalidSpec) as raised:
            generate("ellipsoids", seed, n=10, cond=5.0)
        assert str(raised.value) == (
            f"ellipsoids generator field 'seed': expected a JSON integer, got {seed!r}"
        )


@pytest.mark.parametrize(
    "family,params",
    [
        ("matrix_completion", {"rank": 2, "obs_frac": 0.5}),
        ("ellipsoids", {"cond": 2.0}),
        ("halfspace_wedge", {"theta": 0.5}),
    ],
)
def test_generate_maps_an_n_numpy_cannot_build_to_invalid_spec(family, params):
    # numpy rejects a dimension of 10**20 before it allocates anything
    with pytest.raises(InvalidSpec, match=f"^{family} generator: cannot build .*"
                       "Maximum allowed dimension exceeded"):
        generate(family, 0, n=10**20, **params)


def test_json_roundtrip_all_families(tmp_path):
    instances = [
        generate("matrix_completion", 0, n=6, rank=2, obs_frac=0.5),
        generate("ellipsoids", 0, n=12, cond=10.0, tangency_gap=1e-3),
        generate("halfspace_wedge", 0, n=7, theta=0.5),
    ]
    for idx, pair in enumerate(instances):
        doc = pair_to_json(pair)
        back = pair_from_json(doc)
        assert np.array_equal(back.z0, pair.z0)
        assert np.array_equal(back.s_ref, pair.s_ref)
        assert back.metadata == pair.metadata
        assert type(back.X) is type(pair.X)
        path = tmp_path / f"inst{idx}.json"
        with open(path, "w") as fh:
            json.dump(pair_to_json(pair), fh)
        loaded = pair_from_json(read_json(path, "instance"))
        assert np.array_equal(loaded.z0, pair.z0)
        assert distance(loaded.X, pair.z0) == pytest.approx(
            distance(pair.X, pair.z0), abs=1e-12
        )
