"""The bench config schema that `cfeas bench --print-schema` prints and the
loader `ExperimentConfig.from_json` read one format: both come from the field
tables in `cfeas.problems`, and these tests hold them to the same verdict.

JSON Schema states types, required fields, the known families, kinds and
methods, the seed and generator parameter ranges, and that an output
directory is not empty.  The range checks it does not state are listed by
name below; each is a document the schema accepts and the loader rejects.
"""
import copy
import json
import re
from pathlib import Path

import pytest

from cfeas.bench import ExperimentConfig
from cfeas.cli import EXIT_OK, main
from cfeas.errors import InvalidSpec
from cfeas.problems import CONFIG_SCHEMA, GENERATORS

jsonschema = pytest.importorskip("jsonschema")

README = Path(__file__).resolve().parents[1] / "README.md"

_BASE = {
    "generator": {"family": "ellipsoids", "n": 12, "cond": 5.0},
    "methods": [{"name": "m"}],
    "seeds": [0, 1],
}


def _with(**changes):
    doc = copy.deepcopy(_BASE)
    doc.update(changes)
    return doc


def _generator(**params):
    return _with(generator={"family": "ellipsoids", "n": 12, "cond": 5.0, **params})


def _method(**fields):
    return _with(methods=[{"name": "m", **fields}])


# documents on which the schema and the loader must agree
AGREED = {
    "minimal": _BASE,
    "every_field": _with(
        methods=[
            {"name": "a", "method": "crm", "kernel": "YXY", "schedule": {"kind": "vanishing"}},
            {"name": "b", "schedule": {"kind": "table", "values": [0.5, 0.25]}},
            {"name": "c", "schedule": {"alpha": 0.3}},
            {"name": "d", "method": "map"},
        ],
        eps=1e-6,
        max_iter=500,
        output_dir="out",
    ),
    "integer_where_number_belongs": _generator(cond=5, tangency_gap=0.01),
    "seeds_float": _with(seeds=[0.7, 1.2]),
    "seeds_string": _with(seeds=["0"]),
    "seeds_bool": _with(seeds=[True]),
    "seeds_empty": _with(seeds=[]),
    "max_iter_float": _with(max_iter=2.5),
    "max_iter_bool": _with(max_iter=True),
    "max_iter_string": _with(max_iter="100"),
    "eps_string": _with(eps="1e-8"),
    "eps_bool": _with(eps=False),
    "n_float": _generator(n=12.5),
    "cond_string": _generator(cond="5"),
    "alpha_string": _method(schedule={"kind": "constant", "alpha": "0.3"}),
    "alpha_bool": _method(schedule={"alpha": True}),
    "table_value_string": _method(schedule={"kind": "table", "values": ["0.5"]}),
    "missing_cond": _with(generator={"family": "ellipsoids", "n": 12}),
    "missing_obs_frac": _with(generator={"family": "matrix_completion", "n": 8, "rank": 2}),
    "missing_family": _with(generator={"n": 12, "cond": 5.0}),
    "missing_seeds": {key: value for key, value in _BASE.items() if key != "seeds"},
    "missing_name": _with(methods=[{"kernel": "XY"}]),
    "unknown_family": _with(generator={"family": "simplex", "n": 3}),
    "unknown_kind": _method(schedule={"kind": "adaptive"}),
    "unknown_method": _method(method="bogus"),
    "name_not_string": _with(methods=[{"name": 5}]),
    "kernel_not_string": _method(kernel=["X", "Y"]),
    "output_dir_not_string": _with(output_dir=5),
    "schedule_not_object": _method(schedule=[0.5]),
    "generator_not_object": _with(generator="ellipsoids"),
    "methods_not_array": _with(methods={"name": "m"}),
    "not_an_object": [_BASE],
    # a key that names no field, at each level, and a seed no Philox key takes
    "unknown_config_key": _with(max_iters=1),
    "unknown_method_key": _method(schedul={"kind": "vanishing"}),
    "unknown_schedule_key": _method(schedule={"kind": "constant", "alpha": 0.3, "beta": 1}),
    "unknown_generator_key": _generator(tangency_gp=0.5),
    "seed_negative": _with(seeds=[-1]),
    "seed_not_below_2_128": _with(seeds=[2**128]),
    # generator parameter ranges, checked without generating an instance
    "cond_below_one": _generator(cond=-1),
    "n_zero": _generator(n=0),
    "tangency_gap_outside_0_1": _generator(tangency_gap=1.0),
    "theta_outside_0_pi_2": _with(generator={"family": "halfspace_wedge", "n": 4, "theta": 2.0}),
    # an n whose arrays numpy cannot address
    "n_beyond_numpy": _generator(n=10**20),
    "matrix_completion_n_beyond_numpy": _with(
        generator={"family": "matrix_completion", "n": 2**30, "rank": 2, "obs_frac": 0.5}
    ),
    "output_dir_empty": _with(output_dir=""),
}

# range checks that only the loader makes: the schema accepts these documents
LOADER_ONLY = {
    "eps_not_positive": _with(eps=-1),
    "max_iter_below_one": _with(max_iter=0),
    "alpha_outside_0_1": _method(schedule={"alpha": 1.5}),
    "table_value_outside_0_1": _method(schedule={"kind": "table", "values": [0.5, 1.0]}),
    "kernel_token": _method(kernel="XZ"),
    "kernel_not_ending_in_y": _method(kernel="YX"),
    "kernel_for_map": _method(method="map", kernel="XY"),
    "schedule_for_map": _method(method="map", schedule={"kind": "vanishing"}),
    "method_name_given_twice": _with(methods=[{"name": "m"}, {"name": "m", "method": "map"}]),
    "method_name_not_one_file_name_component": _method(name="a/b"),
    "seed_given_twice": _with(seeds=[0, 0, 1]),
    # the one generator range that spans two parameters
    "rank_not_below_n": _with(
        generator={"family": "matrix_completion", "n": 4, "rank": 4, "obs_frac": 0.5}
    ),
    # JSON Schema's "integer" admits a number with a zero fraction
    "integral_float_where_integer_belongs": _with(max_iter=100.0),
}


def _schema_accepts(doc) -> bool:
    return jsonschema.Draft202012Validator(CONFIG_SCHEMA).is_valid(doc)


def _loader_accepts(doc) -> bool:
    """Any verdict but InvalidSpec is a defect of the loader, so it is raised."""
    try:
        ExperimentConfig.from_json(copy.deepcopy(doc))
    except InvalidSpec:
        return False
    return True


def test_printed_schema_is_a_valid_schema(capsys):
    assert main(["bench", "--print-schema"]) == EXIT_OK
    printed = json.loads(capsys.readouterr().out)
    assert printed == CONFIG_SCHEMA
    jsonschema.Draft202012Validator.check_schema(printed)


def test_schema_states_each_familys_required_parameters():
    branches = CONFIG_SCHEMA["properties"]["generator"]["oneOf"]
    required = {b["properties"]["family"]["const"]: set(b["required"]) for b in branches}
    assert required == {
        family: {"family"} | {key for key, _, *default in fields if not default}
        for family, (_, fields) in GENERATORS.items()
    }
    assert required["ellipsoids"] == {"family", "n", "cond"}


@pytest.mark.parametrize("name", list(AGREED))
def test_schema_and_loader_agree(name):
    doc = AGREED[name]
    assert _schema_accepts(doc) == _loader_accepts(doc)


def test_the_corpus_has_both_verdicts():
    verdicts = [_loader_accepts(doc) for doc in AGREED.values()]
    assert verdicts.count(True) == 3
    assert verdicts.count(False) == len(AGREED) - 3


@pytest.mark.parametrize("name", list(LOADER_ONLY))
def test_range_checks_only_the_loader_makes(name):
    doc = LOADER_ONLY[name]
    assert _schema_accepts(doc)
    assert not _loader_accepts(doc)


def test_readme_example_config_loads_through_both():
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(), flags=re.S)
    examples = [json.loads(b) for b in blocks if '"generator"' in b]
    assert len(examples) == 1
    assert _schema_accepts(examples[0])
    config = ExperimentConfig.from_json(examples[0])
    assert [m.name for m in config.methods] == ["crm", "crm_vanishing", "map"]
