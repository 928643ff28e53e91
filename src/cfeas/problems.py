"""Seeded generators for benchmark instances, plus instance (de)serialization.

All randomness flows through a counter-based Philox bit generator keyed by the
instance seed, so regenerating with the same parameters is bit-identical and
reproducible across platforms (integers map to floats via numpy's standard
53-bit mantissa fill).
"""
from __future__ import annotations

import json
import math
import operator

import numpy as np

from .errors import InvalidSpec
from .geometry import (
    Ball,
    Box,
    Ellipsoid,
    EntryMask,
    Halfspace,
    ProblemPair,
    PsdCone,
    SetDescriptor,
)
from .sampling import make_rng

DEFAULT_TANGENCY_GAP = 1e-3


def gen_matrix_completion(n: int, r: int, obs_frac: float, seed: int) -> ProblemPair:
    """PSD matrix completion: X = PSD cone, Y = entries pinned on a mask.

    The ground truth A = B B^T (B n x r standard normal) is feasible by
    construction and serves as s_ref.  The mask follows rng.permutation(n^2)
    of flat indices: each draw p = i n + j pins (i, j) and (j, i), and the
    draws stop once at least ceil(obs_frac * n^2) entries are pinned.  rows
    and cols list the pinned entries in row-major order.  z0 is the masked
    matrix (A on the mask, zero elsewhere).

    The PSD cone plays the role of X because the mask projection is the cheap
    one and kernels end in P_Y, keeping eigendecompositions to one per X token.
    Y is affine and z0 lies in it, and every circumcentered step lands in Y
    again, so a kernel's leading P_Y does nothing on this family: YXY acts as
    XY, and the deeper kernel here is XYXY.
    """
    if not 0 < r < n:
        raise InvalidSpec(f"need 0 < rank < n, got rank={r}, n={n}")
    if not 0.0 < obs_frac <= 1.0:
        raise InvalidSpec(f"obs_frac must lie in (0, 1], got {obs_frac}")
    rng = make_rng(seed)
    b = rng.standard_normal((n, r))
    a = b @ b.T
    perm = rng.permutation(n * n)
    i, j = np.divmod(perm, n)
    # draw t pins new entries iff its transpose was not drawn before it:
    # 2 of them off the diagonal, 1 on it
    order = np.arange(n * n)
    at = np.empty_like(perm)
    at[perm] = order
    added = np.where(at[j * n + i] >= order, 2 - (i == j), 0)
    m = int(np.searchsorted(np.cumsum(added), math.ceil(obs_frac * n * n))) + 1
    mask = np.zeros((n, n), dtype=bool)
    mask[i[:m], j[:m]] = True
    mask[j[:m], i[:m]] = True
    rows, cols = np.divmod(np.flatnonzero(mask), n)
    values = a[rows, cols]
    z0 = np.zeros((n, n))
    z0[rows, cols] = values
    pair = ProblemPair(
        X=PsdCone(n),
        Y=EntryMask(n, rows, cols, values),
        z0=z0.reshape(-1),
        s_ref=a.reshape(-1),
        metadata={
            "family": "matrix_completion",
            "n": n,
            "rank": r,
            "obs_frac": obs_frac,
            "seed": int(seed),
        },
    )
    return pair


def gen_ellipsoids(
    n: int, cond: float, tangency_gap: float = DEFAULT_TANGENCY_GAP, seed: int = 0
) -> ProblemPair:
    """Two nearly tangent anisotropic ellipsoids sharing an interior point.

    Axis scales are log-uniform on [1, cond].  The centers sit symmetrically
    about the origin along coordinate axis 1, placed so the origin lies inside
    both ellipsoids with quadratic-form margin exactly tangency_gap; the
    intersection therefore has nonempty interior and s_ref = 0 is feasible.
    z0 is a seeded random point at roughly the ellipsoid diameter from s_ref.
    """
    if cond < 1.0:
        raise InvalidSpec(f"condition number must be >= 1, got {cond}")
    if not 0.0 < tangency_gap < 1.0:
        raise InvalidSpec(f"tangency_gap must lie in (0, 1), got {tangency_gap}")
    if n < 1:
        raise InvalidSpec("dimension must be >= 1")
    rng = make_rng(seed)
    d1 = np.exp(rng.uniform(0.0, math.log(cond), n)) if cond > 1.0 else np.ones(n)
    d2 = np.exp(rng.uniform(0.0, math.log(cond), n)) if cond > 1.0 else np.ones(n)
    c1 = np.zeros(n)
    c1[0] = math.sqrt((1.0 - tangency_gap) / d1[0])
    c2 = np.zeros(n)
    c2[0] = -math.sqrt((1.0 - tangency_gap) / d2[0])
    direction = rng.standard_normal(n)
    direction /= np.linalg.norm(direction)
    radius = 2.0 / math.sqrt(min(float(d1.min()), float(d2.min())))
    z0 = radius * direction
    return ProblemPair(
        X=Ellipsoid(c1, d1),
        Y=Ellipsoid(c2, d2),
        z0=z0,
        s_ref=np.zeros(n),
        metadata={
            "family": "ellipsoids",
            "n": n,
            "cond": cond,
            "tangency_gap": tangency_gap,
            "seed": int(seed),
        },
    )


def gen_halfspace_wedge(n: int, theta: float, seed: int = 0) -> ProblemPair:
    """Two halfspaces through the origin whose normals meet at angle pi - theta.

    Their intersection is a wedge of opening angle theta, and the local error
    bound holds globally with constant omega = sin(theta / 2) in the plane
    spanned by the normals; omega is recorded in the metadata for rate tests.
    """
    if not 0.0 < theta < math.pi / 2:
        raise InvalidSpec(f"theta must lie in (0, pi/2), got {theta}")
    if n < 2:
        raise InvalidSpec("wedge needs dimension >= 2")
    rng = make_rng(seed)
    basis, _ = np.linalg.qr(rng.standard_normal((n, 2)))
    u1, u2 = basis[:, 0], basis[:, 1]
    s, c = math.sin(theta / 2.0), math.cos(theta / 2.0)
    n1 = s * u1 + c * u2
    n2 = s * u1 - c * u2
    z0 = rng.standard_normal(n)
    return ProblemPair(
        X=Halfspace(n1, 0.0),
        Y=Halfspace(n2, 0.0),
        z0=z0,
        s_ref=np.zeros(n),
        metadata={
            "family": "halfspace_wedge",
            "n": n,
            "theta": theta,
            "omega": s,
            "seed": int(seed),
        },
    )


# family -> (generator, its parameters in call order, each with its reader
# and its default, None if the parameter is required); the seed comes last
GENERATORS = {
    "matrix_completion": (
        gen_matrix_completion,
        (("n", operator.index, None), ("rank", operator.index, None), ("obs_frac", float, None)),
    ),
    "ellipsoids": (
        gen_ellipsoids,
        (
            ("n", operator.index, None),
            ("cond", float, None),
            ("tangency_gap", float, DEFAULT_TANGENCY_GAP),
        ),
    ),
    "halfspace_wedge": (gen_halfspace_wedge, (("n", operator.index, None), ("theta", float, None))),
}


def _generator(family: str):
    try:
        return GENERATORS[family]
    except (KeyError, TypeError):
        raise InvalidSpec(f"unknown family {family!r}") from None


def generator_args(family: str, params: dict) -> list:
    """The family's parameters from `params` in call order, defaults filled in.

    Parameters the family does not take are ignored; an unknown family, a
    missing required parameter or one of the wrong type raises InvalidSpec.
    """
    _, fields = _generator(family)
    name = f"{family} generator"
    return [
        _field(params, name, key, read) if default is None or key in params else default
        for key, read, default in fields
    ]


def generate(family: str, seed: int, **params) -> ProblemPair:
    gen, _ = _generator(family)
    return gen(*generator_args(family, params), seed)


def _vector(value) -> np.ndarray:
    return np.asarray(value, dtype=float)


# variant -> (descriptor, its fields in constructor order with their readers)
_SET_VARIANTS = {
    "halfspace": (Halfspace, (("normal", _vector), ("offset", float))),
    "box": (Box, (("lo", _vector), ("hi", _vector))),
    "ball": (Ball, (("center", _vector), ("radius", float))),
    "ellipsoid": (Ellipsoid, (("center", _vector), ("diag", _vector))),
    "psd_cone": (PsdCone, (("order", operator.index),)),
    "entry_mask": (
        EntryMask,
        (("order", operator.index), ("rows", _vector), ("cols", _vector), ("values", _vector)),
    ),
}


def _set_to_json(set_: SetDescriptor) -> dict:
    for variant, (cls, fields) in _SET_VARIANTS.items():
        if isinstance(set_, cls):
            doc = {"variant": variant}
            for key, _ in fields:
                value = getattr(set_, key)
                doc[key] = value.tolist() if isinstance(value, np.ndarray) else value
            return doc
    raise TypeError(f"unsupported set descriptor {type(set_).__name__}")


def _field(doc, name: str, key: str, read=None):
    """doc[key] passed through read; InvalidSpec naming `name` and the field."""
    try:
        value = doc[key]
    except KeyError:
        raise InvalidSpec(f"{name}: missing field {key!r}") from None
    except TypeError:
        raise InvalidSpec(f"{name} must be a JSON object") from None
    if read is None:
        return value
    try:
        return read(value)
    except (TypeError, ValueError) as exc:
        raise InvalidSpec(f"{name} field {key!r}: {exc}") from None


def _set_from_json(doc: dict, name: str) -> SetDescriptor:
    variant = _field(doc, name, "variant")
    try:
        cls, fields = _SET_VARIANTS[variant]
    except (KeyError, TypeError):
        raise InvalidSpec(f"{name}: unknown set variant {variant!r}") from None
    name = f"{name} ({variant})"
    args = [_field(doc, name, key, read) for key, read in fields]
    try:
        return cls(*args)
    except ValueError as exc:
        raise InvalidSpec(f"{name}: {exc}") from None


def pair_to_json(pair: ProblemPair) -> dict:
    """Self-describing instance document for cross-implementation replay."""
    return {
        "metadata": dict(pair.metadata),
        "X": _set_to_json(pair.X),
        "Y": _set_to_json(pair.Y),
        "z0": pair.z0.tolist(),
        "s_ref": pair.s_ref.tolist() if pair.s_ref is not None else None,
    }


def pair_from_json(doc: dict) -> ProblemPair:
    """Inverse of pair_to_json; a malformed document raises InvalidSpec."""
    return ProblemPair(
        X=_set_from_json(_field(doc, "instance", "X"), "set X"),
        Y=_set_from_json(_field(doc, "instance", "Y"), "set Y"),
        z0=_field(doc, "instance", "z0", _vector),
        s_ref=_field(doc, "instance", "s_ref", _vector)
        if doc.get("s_ref") is not None
        else None,
        metadata=doc.get("metadata", {}),
    )


def save_pair(pair: ProblemPair, path) -> None:
    with open(path, "w") as fh:
        json.dump(pair_to_json(pair), fh)


def read_json(path, what: str):
    """The JSON document at path; InvalidSpec naming `what` and the path if
    the file cannot be opened or is not JSON."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InvalidSpec(f"{what} {path}: {exc.strerror}") from None
    except ValueError as exc:  # not UTF-8 text, or not JSON
        raise InvalidSpec(f"{what} {path}: not JSON ({exc})") from None


def load_pair(path) -> ProblemPair:
    return pair_from_json(read_json(path, "instance"))
