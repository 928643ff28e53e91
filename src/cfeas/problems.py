"""Seeded generators for benchmark instances and for the random sets, points
and set members of the oracle and property checks, and the one reader of
every input document: instances, generator parameters, schedules and bench
configs.  A generator parameter is one GENERATORS row, its name, reader and
range and default, which the loader, `generate`, CLI and schema all read.

All randomness flows through a counter-based Philox bit generator keyed by the
seed (`make_rng`), so regenerating with the same parameters is bit-identical
and reproducible across platforms (integers map to floats via numpy's
standard 53-bit mantissa fill).
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
from .solver import METHODS, Constant, SolverConfig, Table, Vanishing


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=int(seed)))


def _symmetric_entries(i: np.ndarray, j: np.ndarray, n: int):
    """rows and cols of the entries (i, j) and (j, i) of an n x n matrix, each
    once, in row-major order."""
    mask = np.zeros((n, n), dtype=bool)
    mask[i, j] = True
    mask[j, i] = True
    return np.divmod(np.flatnonzero(mask), n)


def _matrix_completion(n: int, rank: int, obs_frac: float, rng) -> ProblemPair:
    """PSD matrix completion: X = PSD cone, Y = entries pinned on a mask.

    The ground truth A = B B^T (B n x rank standard normal) is feasible by
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
    b = rng.standard_normal((n, rank))
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
    rows, cols = _symmetric_entries(i[:m], j[:m], n)
    values = a[rows, cols]
    z0 = np.zeros((n, n))
    z0[rows, cols] = values
    return ProblemPair(
        X=PsdCone(n),
        Y=EntryMask(n, rows, cols, values),
        z0=z0.reshape(-1),
        s_ref=a.reshape(-1),
    )


def _ellipsoids(n: int, cond: float, tangency_gap: float, rng) -> ProblemPair:
    """Two nearly tangent anisotropic ellipsoids sharing an interior point.

    Axis scales are log-uniform on [1, cond].  The centers sit symmetrically
    about the origin along coordinate axis 1, placed so the origin lies inside
    both ellipsoids with quadratic-form margin exactly tangency_gap; the
    intersection therefore has nonempty interior and s_ref = 0 is feasible.
    z0 is a seeded random point at roughly the ellipsoid diameter from s_ref.
    """
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
    )


def _halfspace_wedge(n: int, theta: float, rng) -> ProblemPair:
    """Two halfspaces through the origin whose normals meet at angle pi - theta.

    Their intersection is a wedge of opening angle theta, and the local error
    bound holds globally with constant omega = sin(theta / 2) in the plane
    spanned by the normals; omega is recorded in the metadata for rate tests.
    """
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
        metadata={"omega": s},
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


_ENDS = {"inf": math.inf, "pi/2": math.pi / 2, "2**128": 2**128}


def within(read, interval: str):
    """`read`, limited to `interval`: "[lo, hi)" with "(" or ")" at an open
    end, each end an integer or a key of _ENDS.  An infinite end is written
    open, so NaN and +-inf fail.  The finite ends go into the schema."""
    lo, hi = (_ENDS[end] if end in _ENDS else int(end) for end in interval[1:-1].split(", "))
    lo_open, hi_open = interval[0] == "(", interval[-1] == ")"
    bounds = {"exclusiveMinimum" if lo_open else "minimum": lo}
    bounds["exclusiveMaximum" if hi_open else "maximum"] = hi

    def read_within(value):
        value = read(value)
        above = lo < value if lo_open else lo <= value
        below = value < hi if hi_open else value <= hi
        if not (above and below):
            raise ValueError(f"must lie in {interval}, got {value}")
        return value

    finite = {key: end for key, end in bounds.items() if abs(end) < math.inf}
    return reader({**read.schema, **finite}, read_within)


read_seed = within(read_int, "[0, 2**128)")  # the keys of the Philox generator


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
        except (TypeError, ValueError, OverflowError) as exc:  # a number too large for a float
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


# family -> (instance builder, its parameters in call order, each read within
# its range); a builder takes the instance's rng last
GENERATORS = {
    "matrix_completion": (
        _matrix_completion,
        (
            ("n", within(read_int, "[1, inf)")),
            ("rank", within(read_int, "[1, inf)")),  # and below n, see _read_generator
            ("obs_frac", within(read_number, "(0, 1]")),
        ),
    ),
    "ellipsoids": (
        _ellipsoids,
        (
            ("n", within(read_int, "[1, inf)")),
            ("cond", within(read_number, "[1, inf)")),
            ("tangency_gap", within(read_number, "[0, 1)"), 1e-3),
        ),
    ),
    "halfspace_wedge": (
        _halfspace_wedge,
        (("n", within(read_int, "[2, inf)")), ("theta", within(read_number, "(0, pi/2)"))),
    ),
}


def _read_generator(doc):
    """(builder, its parameters by name in call order) of a generator
    document, read by the family's GENERATORS row.  It also checks rank < n,
    the one range that spans two parameters."""
    build, args = read_variant(doc, "{} generator", GENERATORS, "family")
    params = dict(zip((key for key, *_ in GENERATORS[doc["family"]][1]), args))
    if params.get("rank", 0) >= params["n"]:  # a family without a rank passes
        raise InvalidSpec(f"{doc['family']} generator: need rank < n, got {params}")
    return build, params


def generate(family: str, seed: int, **params) -> ProblemPair:
    """The seeded `family` instance, the one way to build one.  InvalidSpec
    for a parameter the family does not take, a missing one or one out of
    its range, then for a seed that is not an integer in [0, 2**128), and
    for a size numpy cannot build.  The metadata lists the family, its
    parameters, a wedge's omega and the seed."""
    build, params = _read_generator({**params, "family": family})
    (seed,) = read_fields({"seed": seed}, f"{family} generator", (("seed", read_seed),))
    try:
        pair = build(*params.values(), make_rng(seed))
    except (ValueError, OverflowError, MemoryError) as exc:  # n beyond numpy's array sizes
        raise InvalidSpec(f"{family} generator: cannot build {params}: {exc}") from None
    pair.metadata = {"family": family, **params, **pair.metadata, "seed": seed}
    return pair


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

# the set variants, in the order the checks draw them
VARIANTS = tuple(_SET_VARIANTS)


def random_point(dim: int, rng: np.random.Generator, scale: float = 3.0) -> np.ndarray:
    return scale * rng.standard_normal(dim)


def random_set(variant: str, rng: np.random.Generator, dim: int = 5, order: int = 4):
    if variant == "halfspace":
        a = rng.standard_normal(dim)
        a /= np.linalg.norm(a)
        return Halfspace(a, float(rng.normal()))
    if variant == "box":
        mid = rng.standard_normal(dim)
        half = np.abs(rng.standard_normal(dim)) + 0.1
        return Box(mid - half, mid + half)
    if variant == "ball":
        return Ball(rng.standard_normal(dim), float(rng.uniform(0.5, 2.0)))
    if variant == "ellipsoid":
        d = np.exp(rng.uniform(np.log(0.25), np.log(4.0), dim))
        return Ellipsoid(rng.standard_normal(dim), d)
    if variant == "psd_cone":
        return PsdCone(order)
    if variant == "entry_mask":
        m = rng.standard_normal((order, order))
        m = 0.5 * (m + m.T)
        picked = rng.permutation(order * order)[: max(1, order * order // 3)]
        rows, cols = _symmetric_entries(*np.divmod(picked, order), order)
        return EntryMask(order, rows, cols, m[rows, cols])
    raise ValueError(f"unknown variant {variant!r}")


def random_member(set_: SetDescriptor, rng: np.random.Generator) -> np.ndarray:
    """A point of the set, built directly from the set's definition and not
    by the projection under test, so membership-dependent checks stay
    independent of it."""
    if isinstance(set_, Halfspace):
        x = rng.standard_normal(set_.dim)
        a = set_.normal
        slack = float(rng.exponential())
        return x - ((float(a @ x) - set_.offset + slack) / float(a @ a)) * a
    if isinstance(set_, Box):
        u = rng.uniform(size=set_.dim)
        return set_.lo + u * (set_.hi - set_.lo)
    if isinstance(set_, Ball):
        u = rng.standard_normal(set_.dim)
        u /= np.linalg.norm(u)
        radius = set_.radius * rng.uniform() ** (1.0 / set_.dim)
        return set_.center + radius * u
    if isinstance(set_, Ellipsoid):
        u = rng.standard_normal(set_.dim)
        u /= np.linalg.norm(u)
        r = rng.uniform() ** (1.0 / set_.dim)
        return set_.center + r * u / np.sqrt(set_.diag)
    if isinstance(set_, PsdCone):
        b = rng.standard_normal((set_.order, set_.order))
        return (b @ b.T).reshape(-1)
    if isinstance(set_, EntryMask):
        m = rng.standard_normal((set_.order, set_.order))
        m = 0.5 * (m + m.T)
        m = m.reshape(-1)
        m[set_._flat] = set_.values
        return m
    raise TypeError(f"unsupported descriptor {type(set_).__name__}")


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
    except (ValueError, OverflowError) as exc:  # an order or index too large for numpy
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


# kind -> (schedule, its fields); a schedule that names no kind is constant
SCHEDULES = {
    "constant": (Constant, (("alpha", read_number, Constant.alpha),)),
    "vanishing": (Vanishing, ()),
    "table": (Table, (("values", _numbers),)),
}


def schedule_from_json(doc):
    make, args = read_variant(doc, "{} schedule", SCHEDULES, "kind", "constant")
    return make(*args)


def _generator_doc(doc) -> dict:
    _read_generator(doc)
    return dict(doc)


schedule_from_json.schema = variants_schema(SCHEDULES, "kind", "constant")
_generator_doc.schema = variants_schema(GENERATORS, "family")
# SolverConfig rejects an unknown method, fills in crm's kernel and schedule and
# rejects map's; each reader is a new function, so read_str keeps its own schema
_method_kind = reader({"enum": list(METHODS)}, lambda text: read_str(text))
_kernel = reader(read_str.schema, lambda text: KernelSpec(read_str(text)))
_METHOD_FIELDS = (
    ("name", read_str),
    ("method", _method_kind, SolverConfig.method),
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
    ("max_iter", read_int, SolverConfig.max_iter),
    ("output_dir", read_str, "bench_out"),
)
CONFIG_SCHEMA = fields_schema(CONFIG_FIELDS)
