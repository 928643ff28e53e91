"""Seeded generators for benchmark instances, and the one reader of every
input document: instances, generator parameters, schedules and bench configs.

All randomness flows through a counter-based Philox bit generator keyed by the
instance seed, so regenerating with the same parameters is bit-identical and
reproducible across platforms (integers map to floats via numpy's standard
53-bit mantissa fill).
"""
from __future__ import annotations

import json
import math
import numbers

import numpy as np

from .errors import DimensionMismatch, InvalidSpec
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
from .operators import KernelSpec
from .sampling import make_rng
from .solver import METHODS, Constant, Table, Vanishing

DEFAULT_TANGENCY_GAP = 1e-3


def _checked_by(ranges):
    """Mark a generator with the check of its parameters' ranges, which the
    generator makes first and the bench config loader makes alone, without
    generating an instance."""

    def mark(gen):
        gen.ranges = ranges
        return gen

    return mark


def _matrix_completion_ranges(n: int, r: int, obs_frac: float) -> None:
    if not 0 < r < n:
        raise InvalidSpec(f"need 0 < rank < n, got rank={r}, n={n}")
    if not 0.0 < obs_frac <= 1.0:
        raise InvalidSpec(f"obs_frac must lie in (0, 1], got {obs_frac}")


@_checked_by(_matrix_completion_ranges)
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
    _matrix_completion_ranges(n, r, obs_frac)
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


def _ellipsoids_ranges(n: int, cond: float, tangency_gap: float) -> None:
    if not 1.0 <= cond < math.inf:
        raise InvalidSpec(f"condition number must be finite and >= 1, got {cond}")
    if not 0.0 < tangency_gap < 1.0:
        raise InvalidSpec(f"tangency_gap must lie in (0, 1), got {tangency_gap}")
    if n < 1:
        raise InvalidSpec("dimension must be >= 1")


@_checked_by(_ellipsoids_ranges)
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
    _ellipsoids_ranges(n, cond, tangency_gap)
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


def _halfspace_wedge_ranges(n: int, theta: float) -> None:
    if not 0.0 < theta < math.pi / 2:
        raise InvalidSpec(f"theta must lie in (0, pi/2), got {theta}")
    if n < 2:
        raise InvalidSpec("wedge needs dimension >= 2")


@_checked_by(_halfspace_wedge_ranges)
def gen_halfspace_wedge(n: int, theta: float, seed: int = 0) -> ProblemPair:
    """Two halfspaces through the origin whose normals meet at angle pi - theta.

    Their intersection is a wedge of opening angle theta, and the local error
    bound holds globally with constant omega = sin(theta / 2) in the plane
    spanned by the normals; omega is recorded in the metadata for rate tests.
    """
    _halfspace_wedge_ranges(n, theta)
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


# A field reader takes a decoded JSON value and returns what it stands for, or
# raises TypeError or ValueError.  Its `schema` is the JSON Schema of the
# values it takes, so the bench config schema derives from the loader's tables.


def reader(schema: dict, read):
    """`read`, marked with the JSON Schema of the values it takes."""
    read.schema = schema
    return read


def _typed(json_type: str, types, convert):
    def read(value):
        if isinstance(value, bool) or not isinstance(value, types):
            raise TypeError(f"expected a JSON {json_type}, got {value!r}")
        return convert(value)

    return reader({"type": json_type}, read)


read_int = _typed("integer", numbers.Integral, int)  # not a float, a bool or a string
read_number = _typed("number", numbers.Real, float)  # an integer too, not a bool or a string
read_str = _typed("string", str, str)
read_object = _typed("object", dict, dict)


def _seed(value) -> int:
    if not 0 <= read_int(value) < 2**128:  # the range of a Philox key
        raise InvalidSpec(f"seed must lie in [0, 2**128), got {value}")
    return int(value)


read_seed = reader({**read_int.schema, "minimum": 0, "exclusiveMaximum": 2**128}, _seed)


def read_list(read):
    def read_items(value):
        if not isinstance(value, list) or not value:
            raise TypeError("expected a non-empty array")
        return [read(item) for item in value]

    return reader({"type": "array", "minItems": 1, "items": read.schema}, read_items)


def read_fields(doc, name: str, fields) -> list:
    """doc's values of the fields (key, read) or (key, read, default), in
    table order.  Errors name `name` and the field, or a key of no field."""
    if not isinstance(doc, dict):
        raise InvalidSpec(f"{name} must be a JSON object")
    for key in sorted(doc.keys() - {key for key, *_ in fields}):
        raise InvalidSpec(f"{name}: unknown field {key!r}")
    values = []
    for key, read, *default in fields:
        if key not in doc and not default:
            raise InvalidSpec(f"{name}: missing field {key!r}")
        try:
            values.append(read(doc[key]) if key in doc else default[0])
        except (TypeError, ValueError) as exc:
            raise InvalidSpec(f"{name} field {key!r}: {exc}") from None
    return values


def read_variant(doc, name: str, table: dict, tag: str, default=None):
    """(make, its fields read from doc) for the entry (make, fields) of
    `table` that doc[tag] names, `default` standing in for a missing tag.
    `name` names doc in errors, with the variant in place of '{}'."""
    if not isinstance(doc, dict):
        raise InvalidSpec("must be a JSON object")
    variant = doc.get(tag, default)
    if not isinstance(variant, str) or variant not in table:
        raise InvalidSpec(f"unknown {tag} {variant!r}" if tag in doc else f"missing field {tag!r}")
    make, fields = table[variant]
    doc = {key: value for key, value in doc.items() if key != tag}
    return make, read_fields(doc, name.format(variant), fields)


def fields_schema(fields) -> dict:
    return {
        "type": "object",
        "required": [key for key, _, *default in fields if not default],
        "properties": {key: read.schema for key, read, *_ in fields},
        "additionalProperties": False,
    }


def variants_schema(table: dict, tag: str, default=None) -> dict:
    branches = []
    for variant, (_, fields) in table.items():
        schema = fields_schema(fields)
        schema["properties"] = {tag: {"const": variant}, **schema["properties"]}
        schema["required"] += [] if variant == default else [tag]
        branches.append(schema)
    return {"oneOf": branches}


# family -> (generator, its parameters in call order); the seed comes last
GENERATORS = {
    "matrix_completion": (
        gen_matrix_completion,
        (("n", read_int), ("rank", read_int), ("obs_frac", read_number)),
    ),
    "ellipsoids": (
        gen_ellipsoids,
        (
            ("n", read_int),
            ("cond", read_number),
            ("tangency_gap", read_number, DEFAULT_TANGENCY_GAP),
        ),
    ),
    "halfspace_wedge": (gen_halfspace_wedge, (("n", read_int), ("theta", read_number))),
}


def generate(family: str, seed: int, **params) -> ProblemPair:
    """The seeded `family` instance; InvalidSpec for a parameter the family
    does not take, a missing one or a seed outside [0, 2**128)."""
    gen, args = read_variant({**params, "family": family}, "{} generator", GENERATORS, "family")
    return gen(*args, read_seed(seed))


_numbers, _indices = read_list(read_number), read_list(read_int)

# variant -> (descriptor, its fields in constructor order with their readers)
_SET_VARIANTS = {
    "halfspace": (Halfspace, (("normal", _numbers), ("offset", read_number))),
    "box": (Box, (("lo", _numbers), ("hi", _numbers))),
    "ball": (Ball, (("center", _numbers), ("radius", read_number))),
    "ellipsoid": (Ellipsoid, (("center", _numbers), ("diag", _numbers))),
    "psd_cone": (PsdCone, (("order", read_int),)),
    "entry_mask": (
        EntryMask,
        (("order", read_int), ("rows", _indices), ("cols", _indices), ("values", _numbers)),
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


def _set_from_json(doc, name: str) -> SetDescriptor:
    cls, args = read_variant(doc, name + " ({})", _SET_VARIANTS, "variant")
    try:
        return cls(*args)
    except ValueError as exc:
        raise InvalidSpec(f"{name} ({doc['variant']}): {exc}") from None


def pair_to_json(pair: ProblemPair) -> dict:
    """Self-describing instance document for cross-implementation replay."""
    return {
        "metadata": dict(pair.metadata),
        "X": _set_to_json(pair.X),
        "Y": _set_to_json(pair.Y),
        "z0": pair.z0.tolist(),
        "s_ref": pair.s_ref.tolist() if pair.s_ref is not None else None,
    }


_PAIR_FIELDS = (
    ("X", lambda doc: _set_from_json(doc, "set X")),
    ("Y", lambda doc: _set_from_json(doc, "set Y")),
    ("z0", _numbers),
    ("s_ref", lambda value: None if value is None else _numbers(value), None),
    ("metadata", read_object, {}),
)


def pair_from_json(doc: dict) -> ProblemPair:
    """Inverse of pair_to_json; a malformed document raises InvalidSpec."""
    x, y, z0, s_ref, metadata = read_fields(doc, "instance", _PAIR_FIELDS)
    try:
        return ProblemPair(X=x, Y=y, z0=z0, s_ref=s_ref, metadata=metadata)
    except DimensionMismatch as exc:
        raise InvalidSpec(f"instance: {exc}") from None


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


# kind -> (schedule, its fields); a schedule that names no kind is constant
SCHEDULES = {
    "constant": (Constant, (("alpha", read_number, 0.5),)),
    "vanishing": (Vanishing, ()),
    "table": (Table, (("values", _numbers),)),
}


def schedule_from_json(doc):
    make, args = read_variant(doc, "{} schedule", SCHEDULES, "kind", "constant")
    return make(*args)


def _generator_doc(doc) -> dict:
    gen, args = read_variant(doc, "{} generator", GENERATORS, "family")
    gen.ranges(*args)
    return dict(doc)


schedule_from_json.schema = variants_schema(SCHEDULES, "kind", "constant")
_generator_doc.schema = variants_schema(GENERATORS, "family")
# SolverConfig rejects an unknown method, fills in crm's kernel and schedule and
# rejects map's; each reader is a new function, so read_str keeps its own schema
_method_kind = reader({"enum": list(METHODS)}, lambda text: read_str(text))
_kernel = reader(read_str.schema, lambda text: KernelSpec(read_str(text)))
_METHOD_FIELDS = (
    ("name", read_str),
    ("method", _method_kind, "crm"),
    ("kernel", _kernel, None),
    ("schedule", schedule_from_json, None),
)


def _read_method(doc):
    # errors name the method by its name field, when it has one
    name = doc.get("name") if isinstance(doc, dict) else None
    return read_fields(doc, "method" if name is None else f"method {name!r}", _METHOD_FIELDS)


_method = reader(fields_schema(_METHOD_FIELDS), _read_method)

# bench config fields; each method reads as (name, method, kernel, schedule)
CONFIG_FIELDS = (
    ("generator", _generator_doc),
    ("methods", read_list(_method)),
    ("seeds", read_list(read_seed)),
    ("eps", read_number, 1e-8),
    ("max_iter", read_int, 100_000),
    ("output_dir", read_str, "bench_out"),
)
CONFIG_SCHEMA = fields_schema(CONFIG_FIELDS)
