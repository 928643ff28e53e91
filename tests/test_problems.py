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
    gen_ellipsoids,
    gen_halfspace_wedge,
    gen_matrix_completion,
    generate,
    load_pair,
    pair_from_json,
    pair_to_json,
    save_pair,
)
from cfeas.sampling import make_rng

MEMBERSHIP_RTOL = 1e-12


def test_matrix_completion_structure():
    pair = gen_matrix_completion(12, 2, 0.4, seed=0)
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
    pair = gen_matrix_completion(n, 3, 0.4, seed=1)
    mask = pair.Y
    pairs = set(zip(mask.rows.tolist(), mask.cols.tolist()))
    for i, j in pairs:
        assert (j, i) in pairs
    assert len(pairs) >= int(np.ceil(0.4 * n * n))


def test_matrix_completion_z0_is_masked_truth():
    pair = gen_matrix_completion(8, 2, 0.5, seed=2)
    z0 = pair.z0.reshape(8, 8)
    a = pair.s_ref.reshape(8, 8)
    mask = np.zeros((8, 8), dtype=bool)
    mask[pair.Y.rows, pair.Y.cols] = True
    assert np.allclose(z0[mask], a[mask])
    assert np.all(z0[~mask] == 0.0)


def test_matrix_completion_full_observation_pins_solution():
    pair = gen_matrix_completion(4, 1, 1.0, seed=3)
    assert len(pair.Y.values) == 16
    assert stopping_gap(pair, pair.z0)[0] <= 1e-10


def test_matrix_completion_invalid_params():
    with pytest.raises(InvalidSpec):
        gen_matrix_completion(5, 5, 0.4, seed=0)
    with pytest.raises(InvalidSpec):
        gen_matrix_completion(5, 2, 0.0, seed=0)


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
    """gen_matrix_completion equals the reference sampler byte for byte;
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
    pair = gen_matrix_completion(n, r, obs_frac, seed)
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
            pair = gen_matrix_completion(n, 1, 1.0, seed)
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
            pair = gen_matrix_completion(n, 1, 1e-9, seed)
            assert _assert_matches_reference(n, 1, 1e-9, seed) == 1
            rng = make_rng(seed)
            rng.standard_normal((n, 1))
            i, j = divmod(int(rng.permutation(n * n)[0]), n)
            assert set(zip(pair.Y.rows.tolist(), pair.Y.cols.tolist())) == {(i, j), (j, i)}
            sizes.add(len(pair.Y.rows))
    assert sizes == {1, 2}


def test_ellipsoids_interior_margin():
    for seed in range(5):
        pair = gen_ellipsoids(30, 20.0, 1e-3, seed)
        assert isinstance(pair.X, Ellipsoid)
        assert isinstance(pair.Y, Ellipsoid)
        # the reference point sits inside both with quadratic margin = gap
        assert _form(pair.X, pair.s_ref) == pytest.approx(1.0 - 1e-3, abs=1e-12)
        assert _form(pair.Y, pair.s_ref) == pytest.approx(1.0 - 1e-3, abs=1e-12)
        assert _contains(pair.X, pair.s_ref)
        assert _contains(pair.Y, pair.s_ref)


def test_ellipsoids_interior_point_probe():
    # direction probes from s_ref stay feasible for a short distance, so the
    # reference point is interior to both sets, not merely on the boundary
    pair = gen_ellipsoids(200, 20.0, 1e-3, seed=1)
    rng = np.random.default_rng(0)
    step = 1e-5
    for _ in range(100):
        u = rng.standard_normal(pair.dim)
        u /= np.linalg.norm(u)
        probe = pair.s_ref + step * u
        assert _form(pair.X, probe) < 1.0
        assert _form(pair.Y, probe) < 1.0


def test_ellipsoids_condition_number_range():
    pair = gen_ellipsoids(100, 20.0, 1e-3, seed=2)
    for e in (pair.X, pair.Y):
        assert e.diag.min() >= 1.0 - 1e-12
        assert e.diag.max() <= 20.0 + 1e-12


def test_ellipsoids_isotropic_case():
    pair = gen_ellipsoids(10, 1.0, 0.5, seed=3)
    assert np.allclose(pair.X.diag, 1.0)
    assert np.allclose(pair.Y.diag, 1.0)
    assert stopping_gap(pair, pair.s_ref)[0] <= 1e-10


def test_ellipsoids_z0_scale():
    pair = gen_ellipsoids(50, 20.0, 1e-3, seed=4)
    r = np.linalg.norm(pair.z0 - pair.s_ref)
    # about the ellipsoid diameters away from the reference point
    assert 1.0 <= r <= 5.0


def test_ellipsoids_invalid_params():
    with pytest.raises(InvalidSpec):
        gen_ellipsoids(10, 0.5, 1e-3, seed=0)
    with pytest.raises(InvalidSpec):
        gen_ellipsoids(10, 20.0, 0.0, seed=0)
    # NaN passes `cond < 1` and would give an isotropic instance; inf overflows
    for cond in (float("nan"), float("inf")):
        with pytest.raises(InvalidSpec, match="condition number"):
            gen_ellipsoids(10, cond, 1e-3, seed=0)


def test_wedge_geometry():
    theta = 0.8
    pair = gen_halfspace_wedge(12, theta, seed=0)
    n1, n2 = pair.X.normal, pair.Y.normal
    # normals at angle pi - theta and closed-form error bound constant
    cosang = float(n1 @ n2) / (np.linalg.norm(n1) * np.linalg.norm(n2))
    assert cosang == pytest.approx(np.cos(np.pi - theta), abs=1e-12)
    assert pair.metadata["omega"] == pytest.approx(np.sin(theta / 2.0))
    assert stopping_gap(pair, pair.s_ref)[0] <= 1e-12


def test_wedge_invalid_theta():
    with pytest.raises(InvalidSpec):
        gen_halfspace_wedge(5, 0.0, seed=0)
    with pytest.raises(InvalidSpec):
        gen_halfspace_wedge(5, 2.0, seed=0)


def test_wedge_needs_dimension_two():
    with pytest.raises(InvalidSpec, match="dimension >= 2"):
        gen_halfspace_wedge(1, 0.5, seed=0)


def test_generators_deterministic():
    a = gen_ellipsoids(20, 20.0, 1e-3, seed=9)
    b = gen_ellipsoids(20, 20.0, 1e-3, seed=9)
    assert np.array_equal(a.z0, b.z0)
    assert np.array_equal(a.X.diag, b.X.diag)
    c = gen_matrix_completion(10, 2, 0.4, seed=9)
    d = gen_matrix_completion(10, 2, 0.4, seed=9)
    assert np.array_equal(c.s_ref, d.s_ref)
    assert np.array_equal(c.Y.rows, d.Y.rows)


def test_generate_dispatch_and_unknown_family():
    pair = generate("ellipsoids", 0, n=10, cond=5.0)
    assert pair.metadata["family"] == "ellipsoids"
    with pytest.raises(InvalidSpec):
        generate("simplex", 0, n=3)
    with pytest.raises(InvalidSpec, match="ellipsoids generator: unknown field 'theta'"):
        generate("ellipsoids", 0, n=10, cond=5.0, theta=1.0)
    with pytest.raises(InvalidSpec, match="seed must lie in"):
        generate("ellipsoids", -1, n=10, cond=5.0)


def test_json_roundtrip_all_families(tmp_path):
    instances = [
        gen_matrix_completion(6, 2, 0.5, seed=0),
        gen_ellipsoids(12, 10.0, 1e-3, seed=0),
        gen_halfspace_wedge(7, 0.5, seed=0),
    ]
    for idx, pair in enumerate(instances):
        doc = pair_to_json(pair)
        back = pair_from_json(doc)
        assert np.array_equal(back.z0, pair.z0)
        assert np.array_equal(back.s_ref, pair.s_ref)
        assert back.metadata == pair.metadata
        assert type(back.X) is type(pair.X)
        path = tmp_path / f"inst{idx}.json"
        save_pair(pair, path)
        loaded = load_pair(path)
        assert np.array_equal(loaded.z0, pair.z0)
        assert distance(loaded.X, pair.z0) == pytest.approx(
            distance(pair.X, pair.z0), abs=1e-12
        )
