"""Scenario file loading, validation, and serialization.

A scenario is a single versioned JSON document with sections for
physics, flying conditions, the geodetic frame, the simulation clock,
the drones (body, rotors, gains, start state) and an optional mission.
Loading is strict and checks each thing in one place: the shipped JSON
schema states the document's structure (unknown keys are rejected), the
constructors of the simulation objects check every value and hold every
default, and the loader maps the document onto those constructors and
names the offending field by its document path. One table of the keys
whose document name differs from the constructor field serves both
reading and writing. Airframes and gains are values, so drones whose
body and rotors, or whose gains, are the same document value share one
object, built and checked once. The structure check alone tells values
apart, exactly, by their ``marshal`` bytes (a ``-0.0`` arm or an int
where another drone has a float is a value of its own), and the build
shares what it built by the identity of the value the check matched.

The structure is checked by checkers compiled from the schema once, at
import, not by a JSON Schema library: one closure per schema node, in
the manner of fastjsonschema but without generated source. An object's
checker tests its properties that only name a type, and its arrays of
such items (a ``vec3``), in place, without a call, and the path of an
error is built only when one is found; each distinct drone ``body``,
``rotors`` and ``gains`` value is walked once. The compiler understands the
keywords the schema uses, with Draft 2020-12 meaning: ``type`` (only a
dict is an object, only a list an array, and a bool is never a number),
``const`` and ``enum`` (a bool never equals a number), ``required``,
``properties`` with ``additionalProperties``, ``items``, ``minItems``,
``maxItems`` and ``$ref`` into ``$defs``. A schema holding any other
keyword makes the import fail, so the file stays the one statement of
the format and none of its rules is skipped.

Three distinct, machine-readable failure kinds are raised:
ScenarioParseError (unreadable, not UTF-8 or not JSON), ScenarioSchemaError
(structure does not match the shipped JSON schema), and
ScenarioInvariantError (structurally valid but physically inconsistent
values). All carry a ``path`` attribute pointing at the offending field,
in one notation with list indices in brackets, such as
``drones[0].rotors[1].max_speed``. Of several structure errors the
shallowest is reported, and of those the first in document order; at
one object a missing key comes before an unknown one, and the message
names the key.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import marshal
import math
import re
from importlib import resources
from pathlib import Path

import numpy as np

from .airframe import Airframe, Body, Rotor
from .control import ControllerGains
from .dynamics import DroneState
from .frames import FieldError, InertialFrame
from .routing import Mission, Waypoint
from .scenario import Box, FlyingConditions, Physics, Scenario
from .swarm import Drone, Swarm

SCHEMA_VERSION = 1

# Constructor fields whose document key differs, per class, for reading and
# for writing. The swarm is built at the document root, so its key is a full path.
_DOCUMENT_KEYS = {
    Rotor: {"position_body": "position"},
    Body: {"inertia_diagonal": "inertia"},
    FlyingConditions: {"wind_velocity": "wind"},
    Box: {"min_corner": "min", "max_corner": "max"},
    Scenario: {"reference_time_step": "dt"},
    Swarm: {"min_separation": "simulation.min_separation"},
}

# document key -> constructor field, for the classes with a renamed key
_FIELD_NAMES = {cls: {key: name for name, key in keys.items()}
                for cls, keys in _DOCUMENT_KEYS.items()}

# Constructor fields a document does not hold
_UNWRITTEN = {InertialFrame: ("axes",), DroneState: ("t",)}


class ScenarioError(Exception):
    """Base class for scenario file problems."""

    def __init__(self, message: str, path: str = ""):
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path


class ScenarioParseError(ScenarioError):
    """The file could not be read or is not valid JSON."""


class ScenarioSchemaError(ScenarioError):
    """The document structure does not match the scenario schema."""


class ScenarioInvariantError(ScenarioError):
    """A value violates a physical or consistency invariant."""


def schema() -> dict:
    """The machine-readable JSON schema shipped with the package."""
    text = resources.files("dronesim").joinpath("data/scenario.schema.json").read_text()
    return json.loads(text)


# Schema keywords the compiled checkers understand, and those that state no
# rule of their own ($defs is reached through $ref). A schema holding any
# other keyword fails the import, so the file cannot state a rule the loader
# skips.
_INTERPRETED = {"type", "const", "enum", "required", "properties", "additionalProperties",
                "items", "minItems", "maxItems", "$ref"}
_ANNOTATIONS = {"$schema", "$id", "title", "$defs"}

# The JSON types the schema may name, as the Draft 2020-12 type checker sees
# them: only a dict is an object and only a list an array. A bool is none of
# them, although Python makes it an int.
_TYPES = {"object": (dict,), "array": (list,), "string": (str,), "number": (int, float)}


def _prepared(node: dict, definitions: dict) -> tuple:
    """Schema ``node`` as the tuple ``_compiled`` compiles, refs resolved.

    Raises ValueError on any keyword or value the checkers would not
    check; ``definitions`` are the schema's ``$defs``.
    """
    if not isinstance(node, dict):
        raise ValueError(f"scenario schema nodes must be objects, got {node!r}")
    unknown = sorted(node.keys() - _INTERPRETED - _ANNOTATIONS)
    if unknown:
        raise ValueError(f"scenario schema keywords the loader does not check: {unknown}")
    if "$ref" in node:
        prefix, _, name = node["$ref"].partition("#/$defs/")
        if len(node) > 1 or prefix or name not in definitions:
            raise ValueError(f"scenario schema $ref must stand alone and name a $defs "
                             f"entry: {node}")
        return _prepared(definitions[name], definitions)
    kind = node.get("type")
    extra = node.get("additionalProperties", True)
    if (kind not in (None, *_TYPES) or not isinstance(extra, bool)
            or {"const", "enum"} <= node.keys()):
        raise ValueError(f"scenario schema holds values the loader does not check: {node}")
    for sub in node.get("$defs", {}).values():
        _prepared(sub, definitions)
    return (_TYPES.get(kind), kind, [node["const"]] if "const" in node else node.get("enum"),
            node.get("required", ()), not extra,
            {key: _prepared(sub, definitions) for key, sub in node.get("properties", {}).items()},
            _prepared(node["items"], definitions) if "items" in node else None,
            node.get("minItems", 0), node.get("maxItems", math.inf))


def _same(value, constant) -> bool:
    """JSON equality of a document value and a schema constant: a bool never
    equals a number."""
    return isinstance(value, bool) == isinstance(constant, bool) and value == constant


_PLAIN = (int, float, str)


def _mistyped(value, types) -> bool:
    """Whether ``value`` is not of the JSON type that ``types`` stands for."""
    return not isinstance(value, types) or isinstance(value, bool)


def _length_messages(count: int, min_items: int, max_items) -> list[str]:
    messages = []
    if count < min_items:
        messages.append(f"must hold at least {min_items} items, got {count}")
    if count > max_items:
        messages.append(f"must hold at most {max_items} items, got {count}")
    return messages


def _inline(node: tuple):
    """How an object checks the prepared property ``node`` in place, or None.

    A node that checks only a type gives ``(exact, types, message,
    elements)``: a value of one of the ``exact`` classes has the type, any
    other is tested with ``_mistyped``, and ``message`` lacks only the
    value's type name. ``elements`` is None, or for an array of such typed
    items ``(min_items, max_items, exact, types, message)`` of its items.
    Any other node needs a checker of its own.
    """
    types, kind, allowed, required, closed, properties, items, min_items, max_items = node
    if types is None or allowed is not None or required or closed or properties:
        return None
    elements = None
    if items is not None or min_items or max_items != math.inf:
        inner = _inline(items) if items is not None else None
        if types != (list,) or inner is None or inner[3] is not None:
            return None
        elements = (min_items, max_items, *inner[:3])
    return frozenset(types), types, f"must be of type {kind}, got ", elements


# The properties of a drone that make its airframe and its gains: each
# distinct value of them in a document is checked once, and built once.
_SHARED = frozenset({"body", "rotors", "gains"})


def _once(check, key: str, value, clean: dict) -> list:
    """``check(value, clean)`` for the property ``key`` of a drone, skipped
    when an equal value checked clean earlier in the document.

    ``clean`` maps ``(key, marshal bytes)`` of each value that checked
    clean to that value; the value a later one hits, confirmed with
    ``==``, is recorded against the later value's ``id``, so the build
    shares by identity alone. A value is kept only if marshal reads it
    back equal, which a NaN, a numpy float64 (written as a bare buffer, as
    a one-item array that breaks the schema is) and a dict subclass (not
    written) never do: such a value is checked, and built, for each drone.
    """
    try:
        mark = (key, marshal.dumps(value))
    except ValueError:
        return check(value, clean)
    seen = clean.get(mark)  # a clean value is a dict or list, never None
    if seen is not None and seen == value:
        clean[id(value)] = seen
        return []
    errors = check(value, clean)
    if not errors and marshal.loads(mark[1]) == value:
        clean[mark] = value
    return errors


def _compiled(node: tuple):
    """A checker for the prepared schema ``node``.

    ``check(value, clean)`` returns ``(path, message)`` for each way
    ``value`` breaks the node, with paths relative to ``value``, in
    document order; at one object its missing keys come before its
    unknown keys. The properties ``_inline`` describes are checked in
    place, without a call, and a path is built only for an error.
    ``clean``, the document's table of values that checked clean (started
    when none is given), goes to every checker below; a ``_SHARED``
    property is checked through ``_once``.
    """
    types, kind, allowed, required, closed, properties, items, min_items, max_items = node
    exact = frozenset(types or ())
    required_set = frozenset(required)
    # the constants that a plain int, float or str equals exactly when it is
    # one of them (only a bool equals a number it is not)
    plain = frozenset(c for c in allowed or () if type(c) in _PLAIN)
    item_check = _compiled(items) if items is not None else None
    specs = {key: _inline(sub) or _compiled(sub) for key, sub in properties.items()}
    for key in _SHARED & specs.keys():
        specs[key] = functools.partial(_once, specs[key], key)

    def check(value, clean=None) -> list:
        if clean is None:
            clean = {}
        errors = []
        if types is not None and type(value) not in exact and _mistyped(value, types):
            errors.append(((), f"must be of type {kind}, got {type(value).__name__}"))
        if (allowed is not None and not (type(value) in _PLAIN and value in plain)
                and not any(_same(value, c) for c in allowed)):
            errors.append(((), f"must be {' or '.join(map(repr, allowed))}, got {value!r}"))
        if isinstance(value, dict):
            if not value.keys() >= required_set:
                errors += [((), f"missing required key {key!r}") for key in required
                           if key not in value]
            for key, item in value.items():
                spec = specs.get(key)
                if spec is None:
                    if closed:
                        errors.append(((), f"unknown key {key!r}"))
                elif type(spec) is not tuple:
                    found = spec(item, clean)
                    if found:
                        errors += [((key, *path), message) for path, message in found]
                elif type(item) not in spec[0] and _mistyped(item, spec[1]):
                    errors.append(((key,), spec[2] + type(item).__name__))
                elif spec[3] is not None:  # a list, whose items are checked here too
                    lo, hi, item_exact, item_types, message = spec[3]
                    if not lo <= len(item) <= hi:
                        errors += [((key,), m) for m in _length_messages(len(item), lo, hi)]
                    for x in item:
                        if type(x) not in item_exact and _mistyped(x, item_types):
                            errors += [((key, i), message + type(y).__name__)
                                       for i, y in enumerate(item) if _mistyped(y, item_types)]
                            break
        elif isinstance(value, list):
            if not min_items <= len(value) <= max_items:
                errors += [((), m) for m in _length_messages(len(value), min_items, max_items)]
            if item_check is not None:
                for i, item in enumerate(value):
                    found = item_check(item, clean)
                    if found:
                        errors += [((i, *path), message) for path, message in found]
        return errors

    return check


_SCHEMA = schema()
_CHECK = _compiled(_prepared(_SCHEMA, _SCHEMA.get("$defs", {})))


def bundled_scenario_path(name: str) -> Path:
    """Filesystem path of a shipped example scenario (e.g. 'hover.json')."""
    path = Path(str(resources.files("dronesim").joinpath("data/scenarios", name)))
    if not path.exists():
        available = sorted(p.name for p in path.parent.glob("*.json"))
        raise FileNotFoundError(f"no bundled scenario {name!r}; available: {available}")
    return path


def _build(cls, path: str, data: dict, **fields):
    """``cls`` from the document object ``data`` at ``path``, plus ``fields``.

    A FieldError from the constructor becomes a ScenarioInvariantError at
    the document path of the offending field.
    """
    renamed = _FIELD_NAMES.get(cls)
    try:
        if renamed is None:
            return cls(**data, **fields)
        return cls(**{renamed.get(k, k): v for k, v in data.items()}, **fields)
    except FieldError as err:
        name, rest = re.match(r"(\w*)(.*)", err.field).groups()
        field = _DOCUMENT_KEYS.get(cls, {}).get(name, name) + rest
        raise ScenarioInvariantError(
            str(err), path=".".join(p for p in (path, field) if p)) from err


def _airframe(data: dict, path: str) -> Airframe:
    rotors = [_build(Rotor, f"{path}.rotors[{i}]", r) for i, r in enumerate(data["rotors"])]
    return _build(Airframe, path, {}, body=_build(Body, f"{path}.body", data["body"]),
                  rotors=rotors)


# What a drone without gains is built from, one object for all of them
_NO_GAINS = {}


def _build_drone(data: dict, index: int, clean: dict, built: dict) -> Drone:
    # airframes and gains are values: ``clean`` maps a value the check found
    # equal to an earlier one to that one, and ``built`` holds the objects
    # built, by the identity of the first values they were built from
    path = f"drones[{index}]"
    body, rotors = data["body"], data["rotors"]
    gains = data.get("gains", _NO_GAINS)
    frame = (id(clean.get(id(body), body)), id(clean.get(id(rotors), rotors)))
    if frame not in built:
        built[frame] = _airframe(data, path)
    state = _build(DroneState, f"{path}.start", data["start"], t=0.0)
    tuning = id(clean.get(id(gains), gains))
    if tuning not in built:
        built[tuning] = _build(ControllerGains, f"{path}.gains", gains)
    return _build(Drone, path, {"id": data["id"]}, airframe=built[frame], state=state,
                  gains=built[tuning])


def scenario_from_dict(data: dict) -> tuple[Swarm, Scenario, Mission]:
    """Validate a parsed document and build the simulation objects."""
    clean = {}
    errors = _CHECK(data, clean)
    if errors:
        path, message = min(errors, key=lambda error: len(error[0]))
        text = "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path)
        raise ScenarioSchemaError(message, path=text.removeprefix(".") or "(document root)")

    section = data.get("flying_conditions", {})
    obstacles = [_build(Box, f"flying_conditions.obstacles[{i}]", raw)
                 for i, raw in enumerate(section.get("obstacles", []))]
    conditions = _build(FlyingConditions, "flying_conditions", section | {"obstacles": obstacles})
    # dt, max_duration and recording_interval belong to the scenario, min_separation
    # to the swarm; a missing one takes its constructor's default
    clock = dict(data["simulation"])
    tick = clock.pop("reference_time_step", clock["dt"])
    spacing = {k: clock.pop(k) for k in ["min_separation"] if k in clock}
    scenario = _build(
        Scenario, "simulation", clock,
        physics=_build(Physics, "physics", data.get("physics", {})),
        conditions=conditions,
        inertial_frame=_build(InertialFrame, "inertial_frame", data["inertial_frame"]))
    # the one check no constructor sees: the document's two names for the clock agree
    if tick != clock["dt"]:
        raise ScenarioInvariantError(
            f"must equal dt ({scenario.reference_time_step}) — the swarm runs on one "
            f"global clock, got {tick}", path="simulation.reference_time_step")

    built = {}
    drones = [_build_drone(d, i, clean, built) for i, d in enumerate(data["drones"])]
    swarm = _build(Swarm, "", spacing, drones=drones)

    section = data.get("mission", {"waypoints": [], "max_route_length": math.inf})
    waypoints = [_build(Waypoint, f"mission.waypoints[{i}]", raw)
                 for i, raw in enumerate(section["waypoints"])]
    mission = _build(Mission, "mission", {"max_route_length": section["max_route_length"]},
                     waypoints=waypoints,
                     start_positions=[d.state.position.copy() for d in swarm.drones],
                     obstacles=list(conditions.obstacles))
    return swarm, scenario, mission


def load_scenario(path) -> tuple[Swarm, Scenario, Mission]:
    """Load and fully validate a scenario file.

    Returns (swarm, scenario, mission); the mission is empty when the
    file has no mission section. Raises a ScenarioError subclass with a
    field path on any problem.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        raise ScenarioParseError(f"cannot read scenario file: {err}") from err
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as err:
        # ValueError covers malformed JSON and integers too long to convert;
        # RecursionError, arrays or objects nested too deep to decode
        raise ScenarioParseError(f"not valid JSON: {err}") from err
    if not isinstance(data, dict):
        raise ScenarioParseError("scenario document must be a JSON object")
    return scenario_from_dict(data)


def _to_document(value):
    """``value`` in document form.

    A constructor object becomes a document object holding its fields
    under their ``_DOCUMENT_KEYS`` names, less the ``_UNWRITTEN`` ones and
    any that are None (a waypoint without a label); arrays and tuples become
    lists.
    """
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (list, tuple)):  # an airframe's rotors are a tuple
        return [_to_document(v) for v in value]
    if not dataclasses.is_dataclass(value):
        return value
    keys = _DOCUMENT_KEYS.get(type(value), {})
    skip = _UNWRITTEN.get(type(value), ())
    fields = ((f.name, getattr(value, f.name)) for f in dataclasses.fields(value))
    return {keys.get(name, name): _to_document(v) for name, v in fields
            if v is not None and name not in skip}


def scenario_to_dict(swarm: Swarm, scenario: Scenario, mission: Mission) -> dict:
    """Serialize simulation objects back to the canonical document form.

    Writes every field explicitly (defaults included), so serializing,
    loading, and serializing again produces an identical document; the
    deprecated ``simulation.reference_time_step`` is not written.
    """
    doc = {
        "version": SCHEMA_VERSION,
        "physics": _to_document(scenario.physics),
        "flying_conditions": _to_document(scenario.conditions),
        "inertial_frame": _to_document(scenario.inertial_frame),
        "simulation": {
            _DOCUMENT_KEYS[Scenario]["reference_time_step"]: scenario.reference_time_step,
            "max_duration": scenario.max_duration,
            "recording_interval": scenario.recording_interval,
            "min_separation": swarm.min_separation,
        },
        "drones": [
            {"id": d.id, "body": _to_document(d.airframe.body),
             "rotors": _to_document(d.airframe.rotors), "gains": _to_document(d.gains),
             "start": _to_document(d.state)}
            for d in swarm.drones
        ],
    }
    if mission.waypoints or math.isfinite(mission.max_route_length):
        doc["mission"] = {"waypoints": _to_document(mission.waypoints),
                          "max_route_length": mission.max_route_length}
    return doc


def save_scenario(path, swarm: Swarm, scenario: Scenario, mission: Mission) -> None:
    """Write the canonical JSON document for these objects."""
    doc = scenario_to_dict(swarm, scenario, mission)
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
