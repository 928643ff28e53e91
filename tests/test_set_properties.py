"""Property tests for every set variant's projection and the instance JSON.

Sets come from `sampling.random_set` in dimensions 1-30 (matrix orders 1-8),
points at scales 1e-2 to 1e3, and members from `sampling.random_member`, which
builds them from the set's definition and not through the projection.
Instances come from the three generators with parameters drawn across their
valid ranges.  Arrays come from a seeded generator so that one example stays
cheap; hypothesis chooses the seeds and the sizes.
"""
import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfeas.geometry import project
from cfeas.problems import (
    gen_ellipsoids,
    gen_halfspace_wedge,
    gen_matrix_completion,
    pair_from_json,
    pair_to_json,
)
from cfeas.sampling import VARIANTS, make_rng, random_member, random_point, random_set

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


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
        return gen_matrix_completion(n, rank, draw(st.floats(0.05, 1.0)), seed)
    if family == "ellipsoids":
        cond = 10.0 ** draw(st.floats(0.0, 4.0))
        gap = 10.0 ** draw(st.floats(-8.0, -0.5))
        return gen_ellipsoids(draw(st.integers(1, 30)), cond, gap, seed)
    return gen_halfspace_wedge(draw(st.integers(2, 30)), draw(st.floats(0.01, 1.55)), seed)


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
