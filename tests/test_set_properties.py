"""Property tests for every set variant's projection and the instance JSON.

Sets come from `problems.random_set` in dimensions 1-30 (matrix orders 1-8),
points at scales 1e-2 to 1e3, and members from `problems.random_member`, which
builds them from the set's definition and not through the projection.
Instances come from `generate` for the three families, with parameters drawn
across their valid ranges, and from two `random_set` sets of each variant.
Arrays come from a seeded generator so that one
example stays cheap; hypothesis chooses the seeds and the sizes.
"""
import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfeas.geometry import EntryMask, ProblemPair, project
from cfeas.problems import (
    VARIANTS,
    generate,
    make_rng,
    pair_from_json,
    pair_to_json,
    random_member,
    random_point,
    random_set,
)

PROPERTY_SETTINGS = settings(max_examples=60)


@st.composite
def set_and_point(draw, variant):
    rng = make_rng(draw(st.integers(0, 2**32 - 1)))
    set_ = random_set(variant, rng, dim=draw(st.integers(1, 30)), order=draw(st.integers(1, 8)))
    z = random_point(set_.dim, rng, scale=10.0 ** draw(st.floats(-2.0, 3.0)))
    return set_, z, rng


@pytest.mark.parametrize("variant", VARIANTS)
@PROPERTY_SETTINGS
@given(data=st.data())
def test_characteristic_inequality_against_members(variant, data):
    set_, z, rng = data.draw(set_and_point(variant))
    p = project(set_, z)
    for _ in range(5):
        x = random_member(set_, rng)
        ip = float((z - p) @ (x - p))
        assert ip <= 1e-9 * (1.0 + np.linalg.norm(z - p)) * (1.0 + np.linalg.norm(x - p))


@pytest.mark.parametrize("variant", VARIANTS)
@PROPERTY_SETTINGS
@given(data=st.data(), log_step=st.floats(-6.0, 1.0))
def test_projection_is_nonexpansive(variant, data, log_step):
    set_, z, rng = data.draw(set_and_point(variant))
    w = z + 10.0 ** log_step * rng.standard_normal(set_.dim)
    gap = float(np.linalg.norm(project(set_, z) - project(set_, w)))
    assert gap <= float(np.linalg.norm(z - w)) + 1e-12 * (1.0 + np.linalg.norm(z))


@st.composite
def instances(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    family = draw(st.sampled_from(["matrix_completion", "ellipsoids", "halfspace_wedge"]))
    if family == "matrix_completion":
        n = draw(st.integers(2, 12))
        rank = draw(st.integers(1, n - 1))
        obs_frac = draw(st.floats(0.05, 1.0))
        return generate("matrix_completion", seed, n=n, rank=rank, obs_frac=obs_frac)
    if family == "ellipsoids":
        cond = 10.0 ** draw(st.floats(0.0, 4.0))
        gap = 10.0 ** draw(st.floats(-8.0, -0.5))
        return generate("ellipsoids", seed, n=draw(st.integers(1, 30)), cond=cond, tangency_gap=gap)
    n = draw(st.integers(2, 30))
    return generate("halfspace_wedge", seed, n=n, theta=draw(st.floats(0.01, 1.55)))


def _assert_same_set(a, b):
    assert type(a) is type(b)
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype and np.array_equal(x, y)
        else:
            assert x == y


@PROPERTY_SETTINGS
@given(instances())
def test_instance_json_round_trip(pair):
    back = pair_from_json(json.loads(json.dumps(pair_to_json(pair))))
    _assert_same_set(pair.X, back.X)
    _assert_same_set(pair.Y, back.Y)
    assert np.array_equal(pair.z0, back.z0)
    assert np.array_equal(pair.s_ref, back.s_ref)
    assert back.metadata == pair.metadata


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("seed", range(3))
def test_set_variant_json_round_trip(variant, seed):
    rng = make_rng(seed)
    x, y = (random_set(variant, rng, dim=5, order=3) for _ in range(2))
    pair = ProblemPair(x, y, random_point(x.dim, rng))
    doc = pair_to_json(pair)
    assert doc["X"]["variant"] == doc["Y"]["variant"] == variant
    back = pair_from_json(json.loads(json.dumps(doc)))
    _assert_same_set(pair.X, back.X)
    _assert_same_set(pair.Y, back.Y)
    assert np.array_equal(pair.z0, back.z0)
    assert back.s_ref is None


def _entry_mask_loop_check(order, rows, cols, values):
    """The symmetry check EntryMask made with a loop and a dict, kept as the
    reference: a pair given twice keeps its last value."""
    pinned = {}
    for i, j, v in zip(rows, cols, values):
        if not (0 <= i < order and 0 <= j < order):
            raise ValueError("mask index out of range")
        pinned[(int(i), int(j))] = float(v)
    for (i, j), v in pinned.items():
        if (j, i) not in pinned or pinned[(j, i)] != v:
            raise ValueError("entry mask must be symmetric with equal values")


@st.composite
def mask_entries(draw):
    """(order, entries): few indices, so pairs repeat; mirrored entries keep or
    change their value; now and then one index one past either end."""
    order = draw(st.integers(1, 5))
    index = st.integers(0, order - 1)
    value = st.sampled_from([0.0, -0.0, 1.0, 2.5])
    entries = draw(st.lists(st.tuples(index, index, value), max_size=12))
    if draw(st.booleans()):
        entries += [(j, i, draw(value) if draw(st.booleans()) else v) for i, j, v in entries]
        entries = draw(st.permutations(entries))
    if entries and draw(st.integers(0, 3)) == 0:
        k = draw(st.integers(0, len(entries) - 1))
        i, j, v = entries[k]
        bad = draw(st.sampled_from([-1, order]))
        entries[k] = (bad, j, v) if draw(st.booleans()) else (i, bad, v)
    return order, entries


def _outcome(check, order, rows, cols, values):
    try:
        check(order, rows, cols, values)
    except ValueError as exc:
        return str(exc)
    return None


@settings(max_examples=400)
@given(mask_entries())
def test_entry_mask_checks_as_the_loop_reference(case):
    order, entries = case
    rows = np.array([e[0] for e in entries], dtype=int)
    cols = np.array([e[1] for e in entries], dtype=int)
    values = np.array([e[2] for e in entries], dtype=float)
    expected = _outcome(_entry_mask_loop_check, order, rows, cols, values)
    assert _outcome(EntryMask, order, rows, cols, values) == expected
    if expected is None:
        mask = EntryMask(order, rows, cols, values)
        assert np.array_equal(mask._flat, rows * order + cols)


def test_entry_mask_memory_follows_its_entries_not_its_order():
    # a dense order x order check would take about 90 MB here
    tracemalloc.start()
    try:
        EntryMask(3000, [0], [0], [1.0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
