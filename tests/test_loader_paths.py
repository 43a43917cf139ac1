"""Every invalid value in a scenario document is reported at its exact path.

Each case sets one field of the bundled ``two_drone_cross`` document to
an invalid value and pins the ``ScenarioInvariantError.path`` the loader
reports for it. Files that cannot be parsed raise ScenarioParseError, and
the constructors behind the loader raise FieldError naming the field.
"""

import json
import math
import re
import struct
import sys
import warnings
from collections import OrderedDict
from pathlib import Path

import numpy as np
import pytest

import dronesim as ds

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import crossing_document  # noqa: E402

NAN = math.nan
INF = math.inf
BOX = {"min": [0.0, 0.0, 0.0], "max": [1.0, 1.0, 1.0]}


def fixture_dict(name="two_drone_cross.json"):
    return json.loads(ds.bundled_scenario_path(name).read_text())


def set_field(doc, path, value):
    """Set the field at a document path such as ``drones[0].body.mass``."""
    keys = [int(k) if k.isdigit() else k for k in re.findall(r"[^.\[\]]+", path)]
    target = doc
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value


def case(field, value, expected=None):
    """One pinned case: set ``field`` to ``value``, expect ``expected``
    (by default the field itself) as the reported path."""
    label = re.sub(r"\d{40,}", "1e400", f"{field}={value!r}")
    return pytest.param(field, value, expected or field, id=label)


PINNED = [
    case("physics.gravity", 0.0),
    case("physics.gravity", -9.81),
    case("physics.air_density", 0.0),
    case("physics.air_density", NAN),
    case("flying_conditions.wind", [NAN, 0.0, 0.0]),
    case("flying_conditions.wind", [0.0, INF, 0.0]),
    case("flying_conditions.obstacles", [BOX, {"min": [NAN, 0.0, 0.0], "max": [1.0, 1.0, 1.0]}],
         "flying_conditions.obstacles[1].min"),
    case("flying_conditions.obstacles", [{"min": [0.0, 0.0, 0.0], "max": [1.0, -INF, 1.0]}],
         "flying_conditions.obstacles[0].max"),
    case("flying_conditions.obstacles", [BOX, {"min": [0.0, 2.0, 0.0], "max": [1.0, 1.0, 1.0]}],
         "flying_conditions.obstacles[1]"),
    case("inertial_frame.latitude_deg", 90.5),
    case("inertial_frame.latitude_deg", NAN),
    case("inertial_frame.longitude_deg", -180.5),
    case("inertial_frame.longitude_deg", INF),
    case("inertial_frame.altitude_m", NAN),
    case("inertial_frame.altitude_m", -INF),
    case("drones[0].id", ""),
    case("drones[1].id", ""),
    case("drones[0].body.mass", 0.0),
    case("drones[1].body.mass", -1.0),
    case("drones[0].body.mass", NAN),
    case("drones[0].body.inertia", [0.01, 0.0, 0.02]),
    case("drones[1].body.inertia", [0.01, NAN, 0.02]),
    case("drones[0].body.linear_drag", -0.1),
    case("drones[0].rotors[0].position", [NAN, 0.2, 0.0]),
    case("drones[1].rotors[3].position", [0.2, -0.2, INF]),
    case("drones[0].rotors[1].disk_area", 0.0),
    case("drones[0].rotors[1].disk_area", NAN),
    case("drones[0].rotors[2].thrust_coefficient", -1e-4),
    case("drones[1].rotors[0].torque_coefficient", -1e-6),
    case("drones[0].rotors[3].max_speed", 0.0),
    case("drones[0].gains.position_kp", -1.0),
    case("drones[0].gains.position_kd", -1.0),
    case("drones[1].gains.attitude_kp", -1.0),
    case("drones[1].gains.attitude_kd", -1.0),
    case("drones[0].gains.max_tilt", 0.0),
    case("drones[0].gains.max_tilt", 1.6),
    case("drones[0].gains.max_tilt", NAN),
    case("drones[0].gains.capture_radius", 0.0),
    case("drones[0].gains.capture_radius", NAN),
    case("drones[0].start.position", [NAN, 0.0, 5.0]),
    case("drones[1].start.velocity", [0.0, INF, 0.0]),
    case("drones[0].start.orientation", [1.0, 1.0, 0.0, 0.0]),
    case("drones[0].start.orientation", [0.0, 0.0, 0.0, 0.0]),
    case("drones[1].start.orientation", [NAN, 0.0, 0.0, 0.0]),
    case("drones[0].start.angular_velocity", [0.0, 0.0, NAN]),
    case("mission.waypoints[1].id", ""),
    case("mission.waypoints[1].id", "cross-east"),
    case("mission.waypoints[0].position", [NAN, 0.0, 5.0]),
    case("mission.max_route_length", 0.0),
    case("mission.max_route_length", NAN),
    case("simulation.dt", 0.0),
    case("simulation.dt", -0.002),
    case("simulation.dt", NAN),
    case("simulation.reference_time_step", 0.001),
    case("simulation.reference_time_step", NAN),
    case("simulation.max_duration", 0.0),
    case("simulation.max_duration", NAN),
    case("simulation.recording_interval", 0.0),
    case("simulation.recording_interval", 0.001),
    case("simulation.min_separation", -1.0),
]


# Values the loader used to accept or report without a path: NaN passed the
# ">= 0" checks, infinity passed where a finite quantity is needed, and an
# integer beyond float range or a repeated drone id escaped or lost its path.
HUGE = 10 ** 400

CLOSED = [
    case("drones[0].rotors[0].torque_coefficient", NAN),
    case("drones[0].body.linear_drag", NAN),
    case("drones[0].gains.position_kp", NAN),
    case("drones[0].gains.position_kd", NAN),
    case("drones[1].gains.attitude_kp", NAN),
    case("drones[1].gains.attitude_kd", NAN),
    case("simulation.min_separation", NAN),
    case("physics.gravity", INF),
    case("drones[0].body.mass", INF),
    case("drones[0].body.linear_drag", INF),
    case("drones[0].rotors[1].disk_area", INF),
    case("drones[0].rotors[1].thrust_coefficient", INF),
    case("drones[0].rotors[1].torque_coefficient", INF),
    case("drones[0].rotors[1].max_speed", INF),
    case("drones[0].gains.position_kp", INF),
    case("drones[0].gains.capture_radius", INF),
    case("simulation.dt", INF),
    case("simulation.reference_time_step", INF),
    case("simulation.max_duration", INF),
    case("simulation.recording_interval", INF),
    case("simulation.min_separation", INF),
    case("drones[0].body.mass", HUGE),
    case("drones[0].body.inertia", [0.01, HUGE, 0.02]),
    case("inertial_frame.latitude_deg", HUGE),
    case("inertial_frame.altitude_m", -HUGE),
    case("simulation.max_duration", HUGE),
    case("mission.max_route_length", HUGE),
    case("drones[1].id", "east"),
    # finite, but too many ticks of dt to count
    case("simulation.max_duration", 1e308),
    case("simulation.recording_interval", 1e308),
]


@pytest.mark.parametrize("field, value, expected", PINNED + CLOSED)
def test_invalid_value_is_reported_at_its_path(field, value, expected):
    data = fixture_dict()
    set_field(data, field, value)
    with pytest.raises(ds.ScenarioInvariantError) as excinfo:
        ds.scenario_from_dict(data)
    assert excinfo.value.path == expected
    assert str(excinfo.value).startswith(f"{expected}: ")


def test_current_speed_is_rejected_like_any_unknown_rotor_key():
    # rotors hold no speed, so the key is not part of the format
    for value in (0.0, 500.0, -1.0, 1e6, NAN, HUGE):
        data = fixture_dict()
        data["drones"][0]["rotors"][0]["current_speed"] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ds.ScenarioSchemaError) as excinfo:
                ds.scenario_from_dict(data)
        assert excinfo.value.path == "drones[0].rotors[0]"
        assert str(excinfo.value) == "drones[0].rotors[0]: unknown key 'current_speed'"


@pytest.mark.parametrize("orientation", [[1e200, 0.0, 0.0, 0.0], [1e155] * 4])
def test_overflowing_start_orientation_is_a_scenario_error_without_a_numpy_warning(
        orientation):
    data = fixture_dict()
    data["drones"][0]["start"]["orientation"] = orientation
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ds.ScenarioInvariantError, match="norm is inf") as excinfo:
            ds.scenario_from_dict(data)
    assert excinfo.value.path == "drones[0].start.orientation"


def test_infinite_route_budget_stays_legal():
    data = fixture_dict()
    data["mission"]["max_route_length"] = INF
    _, _, mission = ds.scenario_from_dict(data)
    assert mission.max_route_length == INF


def test_integer_beyond_float_range_in_a_file_names_its_path(tmp_path):
    text = ds.bundled_scenario_path("hover.json").read_text()
    data = json.loads(text)
    data["drones"][0]["body"]["mass"] = HUGE
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ds.ScenarioInvariantError) as excinfo:
        ds.load_scenario(path)
    assert excinfo.value.path == "drones[0].body.mass"


def test_integer_too_long_to_parse_is_a_scenario_error(tmp_path):
    path = tmp_path / "long.json"
    path.write_text('{"version": 1' + "0" * 5000 + "}")
    # a parse error where Python limits int conversion (3.11, late 3.10)
    with pytest.raises(ds.ScenarioError):
        ds.load_scenario(path)


def test_deeply_nested_document_is_a_parse_error(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000)
    with pytest.raises(ds.ScenarioParseError):
        ds.load_scenario(path)


def test_non_utf8_file_is_a_parse_error(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"version": 1, "note": "caf\xe9"}')
    with pytest.raises(ds.ScenarioParseError):
        ds.load_scenario(path)


# --- the constructors name the offending field ------------------------------

def test_constructors_raise_field_errors():
    with pytest.raises(ds.FieldError) as excinfo:
        ds.Body(mass=INF, inertia_diagonal=[0.01, 0.01, 0.02])
    assert excinfo.value.field == "mass"
    assert str(excinfo.value) == "mass must be finite and > 0, got inf"
    with pytest.raises(ds.FieldError) as excinfo:
        ds.Mission(waypoints=[ds.Waypoint("a", [0, 0, 0]), ds.Waypoint("b", [1, 0, 0]),
                              ds.Waypoint("a", [2, 0, 0])],
                   start_positions=[[0, 0, 0]], max_route_length=INF)
    assert excinfo.value.field == "waypoints[2].id"
    assert isinstance(excinfo.value, ValueError)


def test_scenario_recording_interval_covers_its_time_step():
    parts = dict(physics=ds.Physics(), conditions=ds.FlyingConditions(),
                 inertial_frame=ds.InertialFrame(41.1, 16.9))
    ds.Scenario(**parts, reference_time_step=0.01, recording_interval=0.01)
    with pytest.raises(ds.FieldError) as excinfo:
        ds.Scenario(**parts, reference_time_step=0.01, recording_interval=0.005)
    assert excinfo.value.field == "recording_interval"
    # the default is 0.1 s, or one step when the step is longer
    assert ds.Scenario(**parts, reference_time_step=0.01).recording_interval == 0.1
    assert ds.Scenario(**parts, reference_time_step=0.2).recording_interval == 0.2


def test_constructors_store_floats():
    rotor = ds.Rotor(position_body=[0, 1, 0], spin_direction=1, disk_area=1,
                     thrust_coefficient=1, torque_coefficient=0, max_speed=1000)
    assert all(type(getattr(rotor, name)) is float for name in
               ("disk_area", "thrust_coefficient", "torque_coefficient", "max_speed"))
    assert type(ds.InertialFrame(45, 9).latitude_deg) is float


# --- equal airframes are built once and shared ------------------------------

def airframe_bits(airframe):
    """Every float of an airframe's body and rotors, as bytes."""
    body = airframe.body
    numbers = [body.mass, *body.inertia_diagonal.tolist(), body.linear_drag]
    for r in airframe.rotors:
        numbers += [*r.position_body.tolist(), r.spin_direction, r.disk_area,
                    r.thrust_coefficient, r.torque_coefficient, r.max_speed]
    return struct.pack(f"{len(numbers)}d", *numbers)


def test_a_crossing_of_equal_airframes_builds_one_airframe():
    document, _ = crossing_document(seed=7)
    swarm, _, _ = ds.scenario_from_dict(json.loads(json.dumps(document)))
    assert len(swarm.drones) == 200
    assert len({id(d.airframe) for d in swarm.drones}) == 1


def test_a_negative_zero_arm_gets_its_own_airframe():
    doc = fixture_dict()
    doc["drones"][1]["rotors"][0]["position"][2] = -0.0
    swarm, scenario, mission = ds.scenario_from_dict(doc)
    assert swarm.drones[0].airframe is not swarm.drones[1].airframe
    written = ds.scenario_to_dict(swarm, scenario, mission)["drones"]
    assert [math.copysign(1.0, d["rotors"][0]["position"][2]) for d in written] == [1.0, -1.0]


@pytest.mark.parametrize("field, value", [("drones[1].body.mass", 1),
                                          ("drones[1].rotors[2].max_speed", 1000)])
def test_an_int_where_another_drone_has_a_float_builds_the_same_floats(field, value):
    plain = ds.scenario_to_dict(*ds.scenario_from_dict(fixture_dict()))
    doc = fixture_dict()
    set_field(doc, field, value)
    loaded = ds.scenario_from_dict(doc)
    first, second = (d.airframe for d in loaded[0].drones)
    assert airframe_bits(first) == airframe_bits(second)
    assert ds.scenario_to_dict(*loaded) == plain


def test_an_invalid_rotor_after_equal_drones_is_reported_at_its_own_drone():
    document, _ = crossing_document(seed=7, pairs=3)
    doc = json.loads(json.dumps(document))
    for index in (3, 4):  # drones[4] is as invalid, and comes later
        doc["drones"][index]["rotors"][2]["max_speed"] = 0.0
    with pytest.raises(ds.ScenarioInvariantError) as excinfo:
        ds.scenario_from_dict(doc)
    assert excinfo.value.path == "drones[3].rotors[2].max_speed"


def numpy_floats(value):
    """``value`` with every float of it a numpy float64."""
    if isinstance(value, dict):
        return {k: numpy_floats(v) for k, v in value.items()}
    if isinstance(value, list):
        return [numpy_floats(v) for v in value]
    return np.float64(value) if type(value) is float else value


@pytest.mark.parametrize("drones", [[0], [1], [0, 1]])
@pytest.mark.parametrize("kind", ["numpy floats", "OrderedDict body"])
def test_airframes_of_unusual_python_values_build_the_plain_floats(kind, drones):
    plain = ds.scenario_from_dict(fixture_dict())
    doc = fixture_dict()
    for index in drones:
        drone = doc["drones"][index]
        if kind == "numpy floats":
            drone["body"], drone["rotors"] = numpy_floats([drone["body"], drone["rotors"]])
        else:
            drone["body"] = OrderedDict(drone["body"])
    loaded = ds.scenario_from_dict(doc)
    assert ds.scenario_to_dict(*loaded) == ds.scenario_to_dict(*plain)
    for ours, theirs in zip(loaded[0].drones, plain[0].drones):
        assert airframe_bits(ours.airframe) == airframe_bits(theirs.airframe)


@pytest.mark.parametrize("field, value", [("drones[1].body.mass", np.float64(0.0)),
                                          ("drones[1].body.mass", np.float64(math.nan)),
                                          ("drones[1].rotors[3].position",
                                           [np.float64(0.2), np.float64(math.inf), 0.0]),
                                          ("drones[1].body", OrderedDict(
                                              mass=1.0, inertia=[0.01, -0.01, 0.02],
                                              linear_drag=0.0))])
def test_invalid_unusual_python_values_raise_scenario_errors(field, value):
    doc = fixture_dict()
    set_field(doc, field, value)
    with pytest.raises(ds.ScenarioInvariantError) as excinfo:
        ds.scenario_from_dict(doc)
    assert excinfo.value.path.startswith(field)
