"""Property tests of the scenario loader.

The loader raises nothing but ScenarioError subclasses on documents that
are one mutation away from a bundled scenario, and saving, loading and
saving again is a fixed point on generated valid scenarios. Examples are
derandomized so that every run checks the same cases.
"""

import copy
import json
import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import dronesim as ds

BUNDLED = {name: json.loads(ds.bundled_scenario_path(name).read_text())
           for name in ("hover.json", "square_route.json", "two_drone_cross.json")}

DELETE = object()
EXTRA = object()
MUTATIONS = [math.nan, math.inf, -math.inf, 10 ** 400, -10 ** 400, "text", None, True,
             [], {}, [1.0, 2.0], 0, -1, DELETE, EXTRA]

PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def node_paths(node, path=()):
    """Paths to every value inside a document, containers included."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield path + (key,)
        yield from node_paths(value, path + (key,))


PATHS = [(name, path) for name, doc in BUNDLED.items() for path in node_paths(doc)]


def mutate(doc, path, mutation):
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    if mutation is DELETE:
        del parent[key]
    elif mutation is EXTRA:
        target = parent[key]
        if isinstance(target, dict):
            target["unexpected"] = 1.0
        elif isinstance(target, list):
            target.append(copy.deepcopy(target[-1]) if target else 1.0)
        else:
            parent[key] = [target, target]
    else:
        parent[key] = mutation


@settings(PROPERTY, max_examples=300)
@given(st.sampled_from(PATHS), st.sampled_from(MUTATIONS))
def test_loader_raises_only_scenario_errors(where, mutation):
    name, path = where
    doc = copy.deepcopy(BUNDLED[name])
    mutate(doc, path, mutation)
    try:
        ds.scenario_from_dict(doc)
    except ds.ScenarioError as err:
        assert isinstance(err.path, str)


# --- generated valid scenarios ----------------------------------------------

finite = st.floats(min_value=-1e4, max_value=1e4, allow_nan=False)
positive = st.floats(min_value=1e-6, max_value=1e4)
non_negative = st.floats(min_value=0.0, max_value=1e4)
vec3 = st.lists(finite, min_size=3, max_size=3)
ids = st.text(min_size=1, max_size=6)


@st.composite
def rotors(draw):
    return {"position": draw(vec3), "spin_direction": draw(st.sampled_from([-1, 1])),
            "disk_area": draw(positive), "thrust_coefficient": draw(positive),
            "torque_coefficient": draw(non_negative), "max_speed": draw(positive)}


@st.composite
def drones(draw, drone_id):
    angle = st.floats(min_value=-math.pi, max_value=math.pi)
    return {
        "id": drone_id,
        "body": {"mass": draw(positive),
                 "inertia": draw(st.lists(positive, min_size=3, max_size=3)),
                 "linear_drag": draw(non_negative)},
        "rotors": draw(st.lists(rotors(), min_size=2, max_size=4)),
        "gains": {"position_kp": draw(non_negative), "position_kd": draw(non_negative),
                  "attitude_kp": draw(non_negative), "attitude_kd": draw(non_negative),
                  "max_tilt": draw(st.floats(min_value=0.01, max_value=1.5)),
                  "capture_radius": draw(positive)},
        "start": {"position": draw(vec3), "velocity": draw(vec3),
                  "orientation": ds.quat_from_euler(draw(angle), draw(angle),
                                                    draw(angle)).tolist(),
                  "angular_velocity": draw(vec3)},
    }


@st.composite
def obstacles(draw):
    low = draw(vec3)
    return {"min": low, "max": [x + draw(non_negative) for x in low]}


@st.composite
def scenario_documents(draw):
    dt = draw(st.floats(min_value=1e-4, max_value=0.1))
    doc = {
        "version": 1,
        "physics": {"gravity": draw(positive), "air_density": draw(positive)},
        "flying_conditions": {"wind": draw(vec3),
                              "obstacles": draw(st.lists(obstacles(), max_size=2))},
        "inertial_frame": {"latitude_deg": draw(st.floats(min_value=-89.0, max_value=89.0)),
                           "longitude_deg": draw(st.floats(min_value=-180.0, max_value=180.0)),
                           "altitude_m": draw(finite)},
        "simulation": {"dt": dt, "max_duration": draw(positive),
                       "recording_interval": dt * draw(st.floats(min_value=1.0, max_value=100.0)),
                       "min_separation": draw(non_negative)},
        "drones": [draw(drones(i)) for i in draw(st.lists(ids, min_size=1, max_size=3,
                                                           unique=True))],
    }
    if draw(st.booleans()):
        waypoints = [{"id": i, "position": draw(vec3)}
                     for i in draw(st.lists(ids, max_size=4, unique=True))]
        for waypoint in waypoints:
            if draw(st.booleans()):
                waypoint["label"] = draw(st.text(max_size=6))
        doc["mission"] = {"waypoints": waypoints,
                          "max_route_length": draw(st.one_of(positive, st.just(math.inf)))}
    return doc


@settings(PROPERTY, max_examples=30)
@given(scenario_documents())
def test_save_load_save_is_a_fixed_point(document):
    first = ds.scenario_to_dict(*ds.scenario_from_dict(document))
    text = json.dumps(first)
    second = ds.scenario_to_dict(*ds.scenario_from_dict(json.loads(text)))
    assert second == first
    assert json.dumps(second) == text
