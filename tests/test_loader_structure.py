"""The loader's structure check against the shipped schema.

The loader checks a document's structure with checkers compiled from
``scenario.schema.json`` at import and never imports ``jsonschema`` at
run time. The compiled checkers list the same errors, in the same order,
as the interpreted walk of the schema kept below as the reference.
``jsonschema`` stays a test dependency to check the loader against: both
accept and reject the same documents, and where both reject, the loader
reports one of ``jsonschema``'s shallowest error paths. Among several
errors the loader reports the shallowest, then the first in document
order, whichever ``jsonschema`` version is installed. Within a document
each distinct drone ``body`` and ``rotors`` value is checked once, and
only values that checked clean are remembered, so the full error lists
stay those of the reference walk.
"""

import collections
import copy
import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings

import dronesim as ds
from dronesim import scenario_io

from test_loader_properties import BUNDLED, MUTATIONS, PATHS, PROPERTY, mutate, \
    node_paths, scenario_documents

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import crossing_document, survey_document  # noqa: E402

VALIDATOR = jsonschema.Draft202012Validator(scenario_io.schema())


def path_text(path) -> str:
    text = "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path)
    return text.removeprefix(".") or "(document root)"


def loader_path(document):
    """The path of the loader's schema error, or None when it has none."""
    try:
        ds.scenario_from_dict(document)
    except ds.ScenarioSchemaError as err:
        return err.path
    except ds.ScenarioError:
        pass
    return None


def agrees_with_jsonschema(document) -> bool:
    """Whether the loader rejects ``document`` for its structure exactly when
    jsonschema does, at one of jsonschema's shallowest error paths."""
    errors = list(VALIDATOR.iter_errors(document))
    path = loader_path(document)
    if not errors:
        return path is None
    depth = min(len(e.absolute_path) for e in errors)
    return path in {path_text(e.absolute_path) for e in errors if len(e.absolute_path) == depth}


def structure_errors(node: tuple, value, path: tuple, errors: list) -> None:
    """Append ``(path, message)`` for each way ``value`` breaks schema ``node``.

    The loader's interpreted walk of a prepared schema node, as it was
    before the walk was compiled, kept as the reference for the compiled
    checkers. Errors come in document order; at one object its missing
    keys come before its unknown keys.
    """
    types, kind, allowed, required, closed, properties, items, min_items, max_items = node
    if types and (not isinstance(value, types) or isinstance(value, bool)):
        errors.append((path, f"must be of type {kind}, got {type(value).__name__}"))
    if allowed is not None and not any(scenario_io._same(value, c) for c in allowed):
        errors.append((path, f"must be {' or '.join(map(repr, allowed))}, got {value!r}"))
    if isinstance(value, dict):
        errors += [(path, f"missing required key {key!r}") for key in required
                   if key not in value]
        for key, item in value.items():
            if key in properties:
                structure_errors(properties[key], item, path + (key,), errors)
            elif closed:
                errors.append((path, f"unknown key {key!r}"))
    elif isinstance(value, list):
        if len(value) < min_items:
            errors.append((path, f"must hold at least {min_items} items, got {len(value)}"))
        if len(value) > max_items:
            errors.append((path, f"must hold at most {max_items} items, got {len(value)}"))
        if items is not None:
            for i, item in enumerate(value):
                structure_errors(items, item, path + (i,), errors)


SHIPPED = scenario_io.schema()
ROOT = scenario_io._prepared(SHIPPED, SHIPPED["$defs"])
CROSSING = crossing_document(1, pairs=3)[0]
# a vec3 whose every item is wrong, and values a JSON document never holds
# but a dict handed to scenario_from_dict may: numpy scalars (np.float64 is
# a float, np.int64 no int), a tuple, a float equal to an enum's integer
# and subclasses of str, dict and list
ODD_VALUES = [["x", None, True], np.float64(2.0), np.int64(2), (1.0, 2.0, 3.0), 1.0, -1.0,
              type("Text", (str,), {})("ENU"), collections.OrderedDict(mass=1.0),
              type("Items", (list,), {})([1.0, 2.0, 3.0])]


def test_compiled_checkers_list_the_errors_of_the_interpreted_walk():
    documents = dict(BUNDLED, crossing=CROSSING)
    texts = {name: json.dumps(document) for name, document in documents.items()}
    paths = [(name, path) for name, document in documents.items()
             for path in node_paths(document)]
    # the checks done in place are hit where they are deep: on a later
    # drone, inside its rotors and on single vec3 numbers
    assert ("crossing", ("drones", 5, "rotors", 3, "position", 2)) in paths
    assert ("crossing", ("drones", 4, "body", "inertia", 1)) in paths
    assert ("two_drone_cross.json", ("drones", 1, "start", "position", 0)) in paths
    compared = failing = 0
    for name, path in paths:
        for mutation in MUTATIONS + ODD_VALUES:
            document = json.loads(texts[name])
            mutate(document, path, mutation)
            expected = []
            structure_errors(ROOT, document, (), expected)
            assert scenario_io._CHECK(document) == expected, (name, path, mutation)
            compared += 1
            failing += bool(expected)
    assert compared == len(paths) * 24 and failing > compared // 2
    for document in ([], {}, None, 1.0, "text", [CROSSING]):
        expected = []
        structure_errors(ROOT, document, (), expected)
        assert scenario_io._CHECK(document) == expected


def test_every_single_mutation_of_the_bundled_scenarios_agrees():
    texts = {name: json.dumps(document) for name, document in BUNDLED.items()}
    for name, path in PATHS:
        for mutation in MUTATIONS:
            document = json.loads(texts[name])
            mutate(document, path, mutation)
            assert agrees_with_jsonschema(document), (name, path, mutation)
    assert len(PATHS) * len(MUTATIONS) == 5250


@pytest.mark.parametrize("seed", [1, 7, 104729])
def test_perfbench_documents_agree(seed):
    documents = [crossing_document(seed)[0], survey_document(seed, 1, 30),
                 survey_document(seed, 4, 96)]
    for document in documents:
        assert not list(VALIDATOR.iter_errors(document))
        assert loader_path(document) is None


@settings(PROPERTY, max_examples=30)
@given(scenario_documents())
def test_generated_valid_scenarios_agree(document):
    assert not list(VALIDATOR.iter_errors(document))
    assert loader_path(document) is None


# --- which of several errors is reported ------------------------------------

def two_drone_cross():
    return copy.deepcopy(BUNDLED["two_drone_cross.json"])


def schema_error(document) -> ds.ScenarioSchemaError:
    with pytest.raises(ds.ScenarioSchemaError) as excinfo:
        ds.scenario_from_dict(document)
    return excinfo.value


def test_first_of_sibling_errors_is_reported():
    document = two_drone_cross()
    document["drones"] = [1.0, 2.0]
    assert schema_error(document).path == "drones[0]"
    document = two_drone_cross()
    for rotor in (1, 3):
        document["drones"][0]["rotors"][rotor]["max_speed"] = "fast"
    assert schema_error(document).path == "drones[0].rotors[1].max_speed"


def test_missing_key_is_reported_before_an_unknown_key_beside_it():
    document = two_drone_cross()
    body = document["drones"][1]["body"]
    body["weight"] = body.pop("mass")
    err = schema_error(document)
    assert err.path == "drones[1].body"
    assert str(err) == "drones[1].body: missing required key 'mass'"
    del document["drones"][1]["body"]["inertia"]
    document["drones"][1]["body"]["mass"] = 1.0
    assert str(schema_error(document)) == "drones[1].body: missing required key 'inertia'"
    document["drones"][1]["body"]["inertia"] = [0.01, 0.01, 0.02]
    assert str(schema_error(document)) == "drones[1].body: unknown key 'weight'"


def test_shallowest_error_is_reported_before_an_earlier_deeper_one():
    document = two_drone_cross()
    document["drones"][0]["rotors"][0]["max_speed"] = "fast"
    document["drones"][1]["gains"]["gain"] = 1.0
    assert schema_error(document).path == "drones[1].gains"
    del document["simulation"]["dt"]
    assert schema_error(document).path == "simulation"
    document["version"] = True
    assert schema_error(document).path == "version"


def test_a_float_equal_to_an_enum_integer_is_accepted():
    for value in (1.0, -1.0):
        document = two_drone_cross()
        document["drones"][0]["rotors"][0]["spin_direction"] = value
        assert loader_path(document) is None
        assert not list(VALIDATOR.iter_errors(document))


def test_a_non_object_document_is_a_schema_error_at_its_root():
    assert schema_error([]).path == "(document root)"


# --- each distinct airframe value is checked once ---------------------------

DRONE = ROOT[5]["drones"][6]  # the prepared node of one drone
BODY, ROTORS = DRONE[5]["body"], DRONE[5]["rotors"]


def counted_checker(monkeypatch):
    """The compiled checker of the shipped schema, rebuilt with every node's
    checker counting its calls, and the counts by prepared node."""
    calls = collections.Counter()
    compiled = scenario_io._compiled

    def counting(node):
        check = compiled(node)  # compiles its children through counting

        def counted(value, *rest):
            calls[id(node)] += 1
            return check(value, *rest)

        return counted

    monkeypatch.setattr(scenario_io, "_compiled", counting)
    return counting(ROOT), calls


def parsed_crossing(pairs):
    """A crossing document as a file gives it: no two drones share an object."""
    return json.loads(json.dumps(crossing_document(1, pairs=pairs)[0]))


def test_the_rotor_list_checker_runs_once_for_drones_of_one_airframe(monkeypatch):
    check, calls = counted_checker(monkeypatch)
    document = parsed_crossing(20)
    assert len(document["drones"]) == 40 and "gains" not in document["drones"][0]
    assert check(document) == []
    assert calls[id(DRONE)] == 40
    assert calls[id(ROTORS)] == calls[id(BODY)] == 1


@pytest.mark.parametrize("part, path, value", [
    ("rotors", (0, "position", 2), -0.0),  # the arms' z is 0.0 elsewhere
    ("rotors", (1, "max_speed"), 1000),  # an int where the others hold a float
    ("rotors", (2, "disk_area"), math.nan),
    ("body", ("mass",), 1),
    ("body", ("inertia", 0), math.nan),
])
def test_an_airframe_equal_to_a_clean_one_but_in_its_bits_is_checked_in_full(
        monkeypatch, part, path, value):
    check, calls = counted_checker(monkeypatch)
    document = parsed_crossing(3)
    changed = document["drones"][2][part]
    mutate(changed, path, value)
    assert changed == document["drones"][0][part] or math.isnan(value)
    assert check(document) == []
    assert calls[id(ROTORS if part == "rotors" else BODY)] == 2
    # a NaN value is not kept: it would never equal itself read back
    assert calls[id(ROTORS if part == "body" else BODY)] == 1


def test_two_drones_with_one_invalid_airframe_value_are_both_reported():
    document = parsed_crossing(3)
    for index in (1, 4):
        document["drones"][index]["rotors"][2]["max_speed"] = "fast"
        document["drones"][index]["body"]["weight"] = 1.0
    expected = []
    structure_errors(ROOT, document, (), expected)
    assert scenario_io._CHECK(document) == expected
    assert [path[:2] for path, _ in expected] == [("drones", 1)] * 2 + [("drones", 4)] * 2


def test_a_one_item_array_is_not_taken_for_the_numpy_float_of_a_clean_airframe():
    # marshal writes both as the same bare buffer, and they compare equal
    document = parsed_crossing(3)
    document["drones"][0]["body"]["mass"] = np.float64(1.0)
    document["drones"][1]["body"]["mass"] = np.array([1.0])
    assert document["drones"][0]["body"] == document["drones"][1]["body"]
    expected = []
    structure_errors(ROOT, document, (), expected)
    assert expected == [(("drones", 1, "body", "mass"), "must be of type number, got ndarray")]
    assert scenario_io._CHECK(document) == expected


# --- the schema holds only what the walk checks -----------------------------

def test_shipped_schema_holds_only_interpreted_keywords():
    shipped = scenario_io.schema()
    check = scenario_io._compiled(scenario_io._prepared(shipped, shipped["$defs"]))
    for document in BUNDLED.values():
        assert check(document) == []


@pytest.mark.parametrize("node", [
    {"type": "string", "pattern": "x"},
    {"type": "number", "minimum": 0},
    {"type": "integer"},
    {"type": ["number", "null"]},
    {"type": "object", "additionalProperties": {"type": "number"}},
    {"const": 1, "enum": [1, 2]},
    {"$ref": "#/$defs/missing"},
    {"$ref": "vec3"},
    {"$ref": "#/$defs/vec3", "minItems": 1},
    {"type": "array", "items": True},
    {"type": "object", "properties": {"a": {"oneOf": []}}},
])
def test_schema_keyword_guard_rejects_what_the_walk_does_not_check(node):
    with pytest.raises(ValueError):
        scenario_io._compiled(scenario_io._prepared(node, {"vec3": {"type": "array"}}))


# --- the runtime needs no jsonschema ----------------------------------------

def run_python(code: str, cwd) -> None:
    src = Path(ds.__file__).resolve().parents[1]
    result = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], cwd=cwd,
                            env={**os.environ, "PYTHONPATH": str(src)},
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr


def test_runtime_runs_with_jsonschema_unimportable(tmp_path):
    run_python("""
        import sys
        sys.modules["jsonschema"] = None  # any import of it raises ImportError
        import dronesim as ds
        from dronesim import cli
        for name in ("hover.json", "square_route.json", "two_drone_cross.json"):
            ds.load_scenario(ds.bundled_scenario_path(name))
        scenario = str(ds.bundled_scenario_path("two_drone_cross.json"))
        assert cli.main(["simulate", "--scenario", scenario, "--out", "track.csv",
                         "--format", "csv"]) == 0
        """, tmp_path)
    assert (tmp_path / "track.csv").stat().st_size > 0


def test_loading_imports_no_jsonschema(tmp_path):
    run_python("""
        import sys
        import dronesim as ds
        for name in ("hover.json", "square_route.json", "two_drone_cross.json"):
            ds.load_scenario(ds.bundled_scenario_path(name))
        assert "jsonschema" not in sys.modules
        """, tmp_path)
