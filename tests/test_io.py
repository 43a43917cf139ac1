import csv
import io
import itertools
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import dronesim as ds
from dronesim import metrics
from dronesim.frames import geo_project, geo_project_columns
from dronesim.swarm import RecordedSamples

from conftest import assert_strict_geojson, level_state


def load_fixture_dict(name):
    return json.loads(ds.bundled_scenario_path(name).read_text())


def write_scenario(tmp_path, data, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


# --- load_scenario ----------------------------------------------------------

def test_hover_fixture_loads():
    swarm, scenario, mission = ds.load_scenario(ds.bundled_scenario_path("hover.json"))
    assert [d.id for d in swarm.drones] == ["alpha"]
    drone = swarm.drones[0]
    assert drone.airframe.body.mass == 1.0
    assert len(drone.airframe.rotors) == 4
    assert scenario.reference_time_step == 0.001
    assert mission.waypoints == []


def test_negative_mass_names_field_path(tmp_path):
    data = load_fixture_dict("hover.json")
    data["drones"][0]["body"]["mass"] = -1.0
    with pytest.raises(ds.ScenarioInvariantError) as excinfo:
        ds.load_scenario(write_scenario(tmp_path, data))
    assert excinfo.value.path == "drones[0].body.mass"
    assert "drones[0].body.mass" in str(excinfo.value)


def test_unknown_top_level_key_rejected(tmp_path):
    data = load_fixture_dict("hover.json")
    data["unexpected_section"] = {}
    with pytest.raises(ds.ScenarioSchemaError) as excinfo:
        ds.load_scenario(write_scenario(tmp_path, data))
    assert "unexpected_section" in str(excinfo.value)


def test_unknown_nested_key_rejected(tmp_path):
    data = load_fixture_dict("hover.json")
    data["drones"][0]["body"]["weight"] = 1.0
    with pytest.raises(ds.ScenarioSchemaError) as excinfo:
        ds.load_scenario(write_scenario(tmp_path, data))
    assert excinfo.value.path == "drones[0].body"


def test_schema_error_path_indexes_lists_like_invariant_errors(tmp_path):
    data = load_fixture_dict("hover.json")
    data["drones"][0]["rotors"][1]["max_speed"] = "fast"
    with pytest.raises(ds.ScenarioSchemaError) as excinfo:
        ds.load_scenario(write_scenario(tmp_path, data))
    assert excinfo.value.path == "drones[0].rotors[1].max_speed"


def test_parse_errors_are_distinct(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ds.ScenarioParseError):
        ds.load_scenario(path)
    with pytest.raises(ds.ScenarioParseError):
        ds.load_scenario(tmp_path / "missing.json")
    path.write_text("[]")
    with pytest.raises(ds.ScenarioParseError, match="scenario document must be a JSON object"):
        ds.load_scenario(path)


def test_unknown_bundled_scenario_names_the_available_files():
    with pytest.raises(FileNotFoundError, match="'nope.json'") as excinfo:
        ds.bundled_scenario_path("nope.json")
    assert "['hover.json', 'square_route.json', 'two_drone_cross.json']" in str(excinfo.value)


def test_schema_violation_reports_path(tmp_path):
    data = load_fixture_dict("hover.json")
    data["drones"][0]["rotors"] = data["drones"][0]["rotors"][:1]  # below minItems
    with pytest.raises(ds.ScenarioSchemaError) as excinfo:
        ds.load_scenario(write_scenario(tmp_path, data))
    assert excinfo.value.path == "drones[0].rotors"


def test_mismatched_reference_time_step_rejected(tmp_path):
    data = load_fixture_dict("hover.json")
    data["simulation"]["reference_time_step"] = 0.01  # dt is 0.001
    with pytest.raises(ds.ScenarioInvariantError) as excinfo:
        ds.load_scenario(write_scenario(tmp_path, data))
    assert excinfo.value.path == "simulation.reference_time_step"


def test_duplicate_waypoint_id_names_path(tmp_path):
    data = load_fixture_dict("square_route.json")
    data["mission"]["waypoints"][1]["id"] = data["mission"]["waypoints"][0]["id"]
    with pytest.raises(ds.ScenarioInvariantError) as excinfo:
        ds.load_scenario(write_scenario(tmp_path, data))
    assert excinfo.value.path == "mission.waypoints[1].id"


def test_non_unit_start_orientation_rejected(tmp_path):
    data = load_fixture_dict("hover.json")
    data["drones"][0]["start"]["orientation"] = [1.0, 1.0, 0.0, 0.0]
    with pytest.raises(ds.ScenarioInvariantError) as excinfo:
        ds.load_scenario(write_scenario(tmp_path, data))
    assert excinfo.value.path == "drones[0].start.orientation"


@pytest.mark.parametrize("name", ["hover.json", "square_route.json",
                                  "two_drone_cross.json"])
def test_serialize_load_round_trip_is_idempotent(name, tmp_path):
    first = ds.load_scenario(ds.bundled_scenario_path(name))
    doc_one = ds.scenario_to_dict(*first)
    ds.save_scenario(tmp_path / "copy.json", *first)
    second = ds.load_scenario(tmp_path / "copy.json")
    doc_two = ds.scenario_to_dict(*second)
    assert doc_one == doc_two


# --- GeoJSON export ---------------------------------------------------------

def stationary_trajectory(n=4, position=(0.0, 0.0, 0.0)):
    samples = [level_state(*position, t=0.1 * i) for i in range(n)]
    return ds.Trajectory(samples={"alpha": samples}, events=[])


def test_stationary_drone_exports_constant_linestring(tmp_path):
    frame = ds.InertialFrame(10.0, 20.0, 100.0)
    out = tmp_path / "track.geojson"
    ds.export_geojson(stationary_trajectory(), frame, out)
    document = json.loads(out.read_text())
    assert_strict_geojson(document)
    feature = document["features"][0]
    assert feature["geometry"]["type"] == "LineString"
    coords = feature["geometry"]["coordinates"]
    assert len(coords) == 4
    assert all(c == [20.0, 10.0, 100.0] for c in coords)
    assert feature["properties"]["drone_id"] == "alpha"
    assert feature["properties"]["times_s"] == [0.0, 0.1, 0.2, 0.30000000000000004]


def test_northward_displacement_exports_one_degree_latitude(tmp_path):
    frame = ds.InertialFrame(0.0, 0.0, 0.0)
    states = [level_state(0.0, 0.0, 0.0, t=0.0),
              level_state(0.0, 111_194.9, 0.0, t=1.0)]
    trajectory = ds.Trajectory(samples={"alpha": states}, events=[])
    out = tmp_path / "north.geojson"
    ds.export_geojson(trajectory, frame, out)
    document = json.loads(out.read_text())
    assert_strict_geojson(document)
    final = document["features"][0]["geometry"]["coordinates"][-1]
    assert final[1] == pytest.approx(1.0, abs=1e-6)


def test_single_sample_degenerates_to_point(tmp_path):
    frame = ds.InertialFrame(0.0, 0.0, 0.0)
    out = tmp_path / "point.geojson"
    ds.export_geojson(stationary_trajectory(n=1), frame, out)
    document = json.loads(out.read_text())
    assert_strict_geojson(document)
    assert document["features"][0]["geometry"]["type"] == "Point"


def test_events_become_point_features(tmp_path):
    trajectory = stationary_trajectory()
    trajectory.events.append(ds.SimEvent(0.2, "separation_violation", ("alpha", "bravo"),
                                         {"distance_m": 1.0, "position": [0.0, 0.0, 0.0]}))
    out = tmp_path / "events.geojson"
    ds.export_geojson(trajectory, ds.InertialFrame(0.0, 0.0, 0.0), out)
    document = json.loads(out.read_text())
    assert_strict_geojson(document)
    markers = [f for f in document["features"]
               if f["properties"].get("event") == "separation_violation"]
    assert len(markers) == 1
    assert markers[0]["properties"]["drone_ids"] == ["alpha", "bravo"]
    assert markers[0]["geometry"]["type"] == "Point"


def test_empty_trajectory_export_refuses_and_creates_nothing(tmp_path):
    out = tmp_path / "nothing.geojson"
    with pytest.raises(ValueError):
        ds.export_geojson(ds.Trajectory(samples={}, events=[]),
                          ds.InertialFrame(0.0, 0.0, 0.0), out)
    assert not out.exists()
    with pytest.raises(ValueError):
        ds.export_csv(ds.Trajectory(samples={}, events=[]), tmp_path / "nothing.csv")
    assert not (tmp_path / "nothing.csv").exists()


def test_export_errors_create_no_file(tmp_path):
    frame = ds.InertialFrame(0.0, 0.0, 0.0)
    out = tmp_path / "bad.geojson"
    trajectory = stationary_trajectory(n=3)
    trajectory.samples["alpha"][1].position[2] = math.inf
    with pytest.raises(ds.FieldError, match="position"):
        ds.export_geojson(trajectory, frame, out)
    assert not out.exists()
    trajectory = stationary_trajectory(n=3)
    trajectory.events.append(ds.SimEvent(0.1, "note", ("alpha",), {"value": object()}))
    with pytest.raises(TypeError, match="not JSON serializable"):
        ds.export_geojson(trajectory, frame, out)
    assert not out.exists()


def reference_export_geojson(trajectory, frame, path):
    # the exporter as it was before tracks were spliced into the skeleton:
    # the whole document through json.dumps(indent=2)
    features = []
    for drone_id in trajectory.samples:
        rows = trajectory.table(drone_id).tolist()
        if not rows:
            continue
        times = [row[0] for row in rows]
        positions = np.array([row[1:4] for row in rows]).T
        lat, lon, alt = geo_project_columns(frame, *positions)
        coordinates = np.column_stack((lon, lat, alt)).tolist()
        if len(coordinates) >= 2:
            geometry = {"type": "LineString", "coordinates": coordinates}
        else:
            geometry = {"type": "Point", "coordinates": coordinates[0]}
        features.append({"type": "Feature",
                         "properties": {"drone_id": drone_id, "times_s": times},
                         "geometry": geometry})
    for event in trajectory.events:
        payload = dict(event.payload)
        position = payload.pop("position", None)
        geometry = None
        if position is not None:
            lat, lon, alt = geo_project(frame, position)
            geometry = {"type": "Point", "coordinates": [lon, lat, alt]}
        features.append({"type": "Feature",
                         "properties": {"event": event.kind, "t_s": event.t,
                                        "drone_ids": list(event.drone_ids), **payload},
                         "geometry": geometry})
    document = {"type": "FeatureCollection", "features": features}
    path.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")


# text that needs escaping, and the placeholders the exporter tries first,
# alone and after a quote, where a JSON string's text ends with their
# encoded form
TEXT = st.lists(st.sampled_from(['"', "\\", "\x00", "\x01", "\x1f", "\n", "\x7f", "é",
                                 "\u2708", "\U0001f681", "a", " ", "0", "1", "\x000",
                                 "\x001", '"\x000', '"\x001']),
                max_size=5).map("".join)
NUMBERS = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                                     1e-300, 1e300, -1e300]),
                    st.floats(-1e6, 1e6))
TIMES = st.one_of(NUMBERS, st.integers(-10**6, 10**6), NUMBERS.map(np.float64))


# payload values: scalars, and arrays and objects nested up to three deep,
# empty ones among them
PAYLOAD_VALUES = st.recursive(
    st.one_of(TEXT, st.integers(), NUMBERS, st.booleans(), st.none()),
    lambda values: st.one_of(st.lists(values, max_size=3),
                             st.dictionaries(TEXT, values, max_size=3)),
    max_leaves=6)


@st.composite
def trajectories(draw):
    # drones without samples are skipped and single samples are Points,
    # wherever they fall among the LineStrings; at least one drone has samples
    ids = draw(st.lists(TEXT, min_size=1, max_size=6, unique=True))
    counts = draw(st.lists(st.integers(0, 3), min_size=len(ids), max_size=len(ids)))
    counts[draw(st.integers(0, len(ids) - 1))] = draw(st.integers(1, 3))
    samples = {drone_id: [ds.DroneState(t=draw(TIMES), position=draw(st.tuples(*[NUMBERS] * 3)))
                          for _ in range(count)]
               for drone_id, count in zip(ids, counts)}
    events = []
    for _ in range(draw(st.integers(0, 3))):
        # a payload key may also name one of the properties every event has
        keys = st.one_of(TEXT, st.sampled_from(["event", "t_s", "drone_ids"]))
        payload = draw(st.dictionaries(keys, PAYLOAD_VALUES, max_size=3))
        if draw(st.booleans()):
            payload["position"] = list(draw(st.tuples(*[NUMBERS] * 3)))
        events.append(ds.SimEvent(draw(TIMES), draw(TEXT),
                                  tuple(draw(st.lists(TEXT, max_size=2))), payload))
    return ds.Trajectory(samples=samples, events=events)


# -0.0 + -0.0 is the only sum that keeps a -0.0 coordinate, and a 1e300
# climb above the largest float is an infinite altitude, which json writes
# as Infinity
FRAMES = st.builds(ds.InertialFrame, st.sampled_from([-0.0, 0.0, 37.5]),
                   st.sampled_from([-0.0, 0.0, -122.25, 180.0]),
                   st.sampled_from([-0.0, 0.0, 1e300, sys.float_info.max]))


# each example writes files of its own names: the examples share one
# tmp_path, and rewriting an existing file can cost tens of milliseconds on
# close where writing a new one costs a fraction of one
EXAMPLES = itertools.count()


@settings(derandomize=True, database=None, deadline=None, max_examples=300,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(trajectories(), FRAMES)
def test_geojson_bytes_equal_the_indenting_encoder(tmp_path, trajectory, frame):
    example = next(EXAMPLES)
    spliced = tmp_path / f"spliced-{example}.geojson"
    reference = tmp_path / f"reference-{example}.geojson"
    with np.errstate(over="ignore"):
        ds.export_geojson(trajectory, frame, spliced)
        reference_export_geojson(trajectory, frame, reference)
    assert spliced.read_bytes() == reference.read_bytes()


@pytest.mark.parametrize("text", ["\x000", '"\x000', "\x000\x001\x002", '"\x000"\x001'])
def test_geojson_ids_and_payloads_equal_to_the_placeholder(tmp_path, text):
    trajectory = ds.Trajectory(
        samples={text: [level_state(t=0.0), level_state(1.0, t=1.0)],
                 "b" + text: [level_state(2.0, t=0.5)]},
        events=[ds.SimEvent(0.5, text, (text,), {text: text, "note": text})])
    frame = ds.InertialFrame(0.0, 0.0, 0.0)
    ds.export_geojson(trajectory, frame, tmp_path / "spliced.geojson")
    reference_export_geojson(trajectory, frame, tmp_path / "reference.geojson")
    assert ((tmp_path / "spliced.geojson").read_bytes()
            == (tmp_path / "reference.geojson").read_bytes())


def mixed_events(count):
    """``count`` events cycling through every kind the simulator raises and
    payloads it never builds: positions as tuples and arrays or absent,
    empty and mixed arrays, nested values, an int key and keys that
    override the properties every event has."""
    rng = np.random.default_rng(23)

    def point():
        return rng.uniform(-50.0, 50.0, 3).tolist()

    makers = [
        lambda: ("waypoint_reached", ("a",), {"waypoint_index": 2, "position": point()}),
        lambda: ("separation_violation", ("a", "b"), {
            "distance_m": float(rng.uniform(0.0, 2.0)), "min_separation_m": 2.0,
            "position": point()}),
        lambda: ("obstacle_collision", ("b",), {"position": tuple(point())}),
        lambda: ("divergence", ("c",), {"detail": "non-finite state at t = 0.5",
                                        "position": np.array(point())}),
        lambda: ("ground_contact", ("c",), {"position": point()}),
        lambda: ("mission_complete", ("a",), {"position": point()}),
        lambda: ("note", (), {"tags": [], "pair": ("x", 1, None, True, -0.0), "event": "x"}),
        lambda: ("nested", ("a",), {"path": [[1.0, 2.0], [3.0]], "meta": {"k": [1, -0.0]}}),
        lambda: ("keys", ("a", "b", "c"), {1: "one", "drone_ids": "none", "position": None}),
    ]
    return [ds.SimEvent(0.01 * k, *makers[k % len(makers)]()) for k in range(count)]


def mixed_trajectory(events):
    return ds.Trajectory(samples={"a": [level_state(1.0, 2.0, 3.0, t=0.0),
                                        level_state(2.0, 2.0, 3.0, t=0.1)],
                                  "b": [level_state(5.0, t=0.0)], "c": []},
                         events=events)


FRAME = ds.InertialFrame(47.4, 8.5, 400.0)


def test_a_hundred_mixed_events_give_the_bytes_of_the_indenting_encoder(tmp_path):
    trajectory = mixed_trajectory(mixed_events(120))
    ds.export_geojson(trajectory, FRAME, tmp_path / "spliced.geojson")
    reference_export_geojson(trajectory, FRAME, tmp_path / "reference.geojson")
    assert ((tmp_path / "spliced.geojson").read_bytes()
            == (tmp_path / "reference.geojson").read_bytes())
    assert len(json.loads((tmp_path / "spliced.geojson").read_text())["features"]) == 122


def _set_payload(index, key, value):
    def change(events):
        events[index].payload[key] = value
    return change


@pytest.mark.parametrize("changes, error", [
    # a position error comes before any property's, and the first one first
    ([_set_payload(3, "note", object()), _set_payload(91, "position", [0.0, math.nan, 0.0]),
      _set_payload(100, "position", [1.0, 2.0])], ds.FieldError),
    ([_set_payload(3, "note", object()), _set_payload(91, "position", "abc")], ds.FieldError),
    ([_set_payload(3, "note", object()), _set_payload(91, "position", [[1.0], [2.0], [3.0]])],
     ds.FieldError),
    # the first value json cannot serialize, in document order: one inside
    # an array before a later scalar, and one inside a nested value before both
    ([_set_payload(10, "tags", [1.0, {2, 3}]), _set_payload(20, "note", object())], TypeError),
    ([_set_payload(7, "meta", {"k": [complex(1, 2)]}), _set_payload(10, "tags", [{2, 3}]),
      _set_payload(20, "note", object())], TypeError),
    ([_set_payload(20, "note", object()), _set_payload(30, ("a", "b"), 1.0)], TypeError),
])
def test_export_raises_the_first_error_of_the_indenting_encoder_and_writes_nothing(
        tmp_path, changes, error):
    events = mixed_events(120)
    for change in changes:
        change(events)
    trajectory = mixed_trajectory(events)
    with pytest.raises(error) as ours:
        ds.export_geojson(trajectory, FRAME, tmp_path / "spliced.geojson")
    with pytest.raises(error) as theirs:
        reference_export_geojson(trajectory, FRAME, tmp_path / "reference.geojson")
    assert str(ours.value) == str(theirs.value)
    assert not (tmp_path / "spliced.geojson").exists()


def test_a_bad_track_sample_is_reported_before_any_event_value(tmp_path):
    trajectory = mixed_trajectory(mixed_events(120))
    trajectory.events[0].payload["note"] = object()
    trajectory.events[1].payload["position"] = [math.inf, 0.0, 0.0]
    trajectory.samples["a"][1].position[0] = math.nan
    with pytest.raises(ds.FieldError, match=r"non-finite components: \[nan, 2\.0, 3\.0\]"):
        ds.export_geojson(trajectory, FRAME, tmp_path / "bad.geojson")
    assert not (tmp_path / "bad.geojson").exists()


# --- CSV export -------------------------------------------------------------

def test_csv_has_header_plus_row_per_sample(tmp_path):
    out = tmp_path / "track.csv"
    ds.export_csv(stationary_trajectory(n=3), out)
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 4
    assert lines[0] == "drone_id,t,px,py,pz,vx,vy,vz,qw,qx,qy,qz,wx,wy,wz"


def test_csv_round_trip_within_formatting_precision(tmp_path):
    rng = np.random.default_rng(61)
    states = []
    for i in range(5):
        q = ds.quat_normalize(rng.normal(size=4))
        states.append(ds.DroneState(t=0.1 * i, position=rng.uniform(-100, 100, 3),
                                    velocity=rng.uniform(-10, 10, 3), orientation=q,
                                    angular_velocity=rng.uniform(-2, 2, 3)))
    trajectory = ds.Trajectory(samples={"alpha": states}, events=[])
    out = tmp_path / "rt.csv"
    ds.export_csv(trajectory, out)
    loaded = ds.load_csv(out)
    assert list(loaded.samples) == ["alpha"]
    for original, parsed in zip(states, loaded.samples["alpha"]):
        assert parsed.t == pytest.approx(original.t, rel=1e-8, abs=1e-12)
        for attr in ("position", "velocity", "orientation", "angular_velocity"):
            assert np.allclose(getattr(parsed, attr), getattr(original, attr),
                               rtol=1e-8, atol=1e-12)


def test_csv_groups_rows_by_drone_not_time(tmp_path):
    older = [level_state(1.0, 0.0, 0.0, t=0.0), level_state(1.0, 0.0, 0.0, t=0.4)]
    newer = [level_state(2.0, 0.0, 0.0, t=0.2)]
    trajectory = ds.Trajectory(samples={"bravo": older, "alpha": newer}, events=[])
    out = tmp_path / "grouped.csv"
    ds.export_csv(trajectory, out)
    ids = [line.split(",")[0] for line in out.read_text().strip().splitlines()[1:]]
    assert ids == ["alpha", "bravo", "bravo"]


def test_csv_uses_nine_significant_digits(tmp_path):
    state = ds.DroneState(t=0.123456789123, position=ds.vec3(1234.56789123, 0, 0),
                          velocity=np.zeros(3), orientation=ds.quat_identity(),
                          angular_velocity=np.zeros(3))
    out = tmp_path / "digits.csv"
    ds.export_csv(ds.Trajectory(samples={"a": [state]}, events=[]), out)
    row = out.read_text().strip().splitlines()[1].split(",")
    assert row[1] == "0.123456789"
    assert row[2] == "1234.56789"


def test_csv_matches_the_csv_module_row_by_row(tmp_path):
    # the reference is csv.writer fed f"{v:.9g}" strings, as the exporter
    # once wrote every row; ids that need quoting or hold a % sign included
    rng = np.random.default_rng(83)
    special = [0.0, -0.0, 5e-324, -2.5e-310, 1e-5, 123456789.5, -1e300, 0.1 + 0.2]
    samples = {}
    for k, drone_id in enumerate(["plain", "a,b", 'say "hi"', "50% done", "line\nbreak", " "]):
        states = []
        for i in range(6):
            position = rng.uniform(-1e4, 1e4, 3) * 10.0 ** rng.integers(-12, 12, 3)
            position[i % 3] = special[(k + i) % len(special)]
            states.append(ds.DroneState(t=0.1 * i, position=position,
                                        velocity=rng.normal(size=3),
                                        orientation=ds.quat_normalize(rng.normal(size=4)),
                                        angular_velocity=rng.normal(size=3)))
        samples[drone_id] = states
    out = tmp_path / "quoted.csv"
    ds.export_csv(ds.Trajectory(samples=samples, events=[]), out)
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(ds.export.CSV_FIELDS)
    for drone_id in sorted(samples):
        for s in samples[drone_id]:
            writer.writerow([drone_id] + [f"{v:.9g}" for v in [s.t, *s.as_floats()]])
    assert out.read_bytes() == expected.getvalue().encode("utf-8")
    assert list(ds.load_csv(out).samples) == sorted(samples)

def csv_with_third_row(tmp_path, cells):
    # a valid three-sample file whose third row (CSV line 4) is replaced
    out = tmp_path / "bad.csv"
    ds.export_csv(stationary_trajectory(n=3), out)
    lines = out.read_text().splitlines()
    lines[3] = ",".join(cells)
    out.write_text("\n".join(lines) + "\n")
    return out


GOOD_ROW = ["alpha", "0.2", "1", "2", "3", "0", "0", "0", "1", "0", "0", "0", "0", "0", "0"]


@pytest.mark.parametrize("cells, error, message", [
    (GOOD_ROW + ["7", "8"], ValueError, "CSV line 4: expected 15 columns, got 17"),
    (GOOD_ROW[:13], ValueError, "CSV line 4: expected 15 columns, got 13"),
    (GOOD_ROW[:4] + ["nan"] + GOOD_ROW[5:], ds.FieldError, "CSV line 4: pz must be finite"),
    (GOOD_ROW[:1] + ["inf"] + GOOD_ROW[2:], ds.FieldError, "CSV line 4: t must be finite"),
    (GOOD_ROW[:8] + ["2"] + GOOD_ROW[9:], ds.FieldError,
     "CSV line 4: orientation must be a unit quaternion, norm is 2.0"),
    (GOOD_ROW[:6] + ["fast"] + GOOD_ROW[7:], ValueError, "CSV line 4: could not convert"),
])
def test_load_csv_rejects_a_bad_row_naming_its_line(tmp_path, cells, error, message):
    with pytest.raises(error, match=message):
        ds.load_csv(csv_with_third_row(tmp_path, cells))


def with_cells(index, *cells):
    row = list(GOOD_ROW)
    row[index:index + len(cells)] = cells
    return row


NAN_PZ = with_cells(4, "nan")
QUATERNION_OF_TWO = with_cells(8, "2")


@pytest.mark.parametrize("rows, message, field", [
    ((NAN_PZ, with_cells(6, "fast")), "CSV line 4: pz must be finite", "pz"),
    ((NAN_PZ, GOOD_ROW[:13]), "CSV line 4: pz must be finite", "pz"),
    ((QUATERNION_OF_TWO, with_cells(1, "inf")),
     "CSV line 4: orientation must be a unit quaternion, norm is 2.0", "orientation"),
    ((GOOD_ROW, with_cells(4, "nan", "1", "-inf")), "CSV line 5: pz must be finite", "pz"),
    ((with_cells(8, "2", "0", "0", "0", "inf"), GOOD_ROW), "CSV line 4: wx must be finite", "wx"),
    ((with_cells(8, "nan"), GOOD_ROW), "CSV line 4: qw must be finite", "qw"),
    ((with_cells(2, "1e308", "1e308"), QUATERNION_OF_TWO),
     "CSV line 5: orientation must be a unit quaternion", "orientation"),
])
def test_load_csv_reports_the_first_bad_row_and_column(tmp_path, rows, message, field):
    # rows replace CSV lines 4 and 5; every row is parsed and checked before
    # the next is read, finiteness before the quaternion
    out = tmp_path / "bad.csv"
    ds.export_csv(stationary_trajectory(n=4), out)
    lines = out.read_text().splitlines()
    lines[3:5] = [",".join(row) for row in rows]
    out.write_text("\n".join(lines) + "\n")
    with pytest.raises(ds.FieldError, match=message) as raised:
        ds.load_csv(out)
    assert raised.value.field == field


def test_load_csv_rejects_a_wrong_header_and_skips_blank_lines(tmp_path):
    out = tmp_path / "track.csv"
    ds.export_csv(stationary_trajectory(n=3), out)
    lines = out.read_text().splitlines()
    out.write_text("\n\n".join(lines) + "\n\n")
    assert len(ds.load_csv(out).samples["alpha"]) == 3
    out.write_text("\n".join(["drone,t"] + lines[1:]) + "\n")
    with pytest.raises(ValueError, match=r"^CSV line 1: unexpected CSV header"):
        ds.load_csv(out)


def test_load_csv_accepts_a_quaternion_within_the_state_tolerance(tmp_path):
    cells = GOOD_ROW[:8] + ["1.0000009"] + GOOD_ROW[9:]
    loaded = ds.load_csv(csv_with_third_row(tmp_path, cells))
    assert loaded.samples["alpha"][2].orientation.tolist() == [1.0000009, 0.0, 0.0, 0.0]
    with pytest.raises(ds.FieldError, match="norm is 1.000002"):
        ds.load_csv(csv_with_third_row(tmp_path, GOOD_ROW[:8] + ["1.000002"] + GOOD_ROW[9:]))


# --- metrics ----------------------------------------------------------------

def straight_reference():
    return {"alpha": [ds.Setpoint(ds.vec3(0, 0, 0)), ds.Setpoint(ds.vec3(10, 0, 0))]}


def test_rmse_zero_for_trajectory_on_the_polyline():
    states = [level_state(x, 0.0, 0.0, t=0.1 * i) for i, x in enumerate([0.0, 2.5, 7.5, 10.0])]
    report = ds.compute_rmse(ds.Trajectory(samples={"alpha": states}, events=[]),
                             straight_reference())
    assert report.rmse_m["alpha"] == 0.0


def test_rmse_constant_one_meter_offset():
    states = [level_state(x, 1.0, 0.0, t=0.1 * i) for i, x in enumerate([1.0, 4.0, 6.0, 9.0])]
    report = ds.compute_rmse(ds.Trajectory(samples={"alpha": states}, events=[]),
                             straight_reference())
    assert report.rmse_m["alpha"] == pytest.approx(1.0, abs=1e-9)


def test_rmse_alternating_offsets_average_to_one():
    offsets = [1.0, -1.0, 1.0, -1.0]
    states = [level_state(2.0 * i + 1.0, off, 0.0, t=0.1 * i)
              for i, off in enumerate(offsets)]
    report = ds.compute_rmse(ds.Trajectory(samples={"alpha": states}, events=[]),
                             straight_reference())
    assert report.rmse_m["alpha"] == pytest.approx(1.0, abs=1e-9)


def test_rmse_invariant_under_collinear_densification():
    states = [level_state(x, 0.7, 0.3, t=0.1 * i) for i, x in enumerate([0.5, 3.5, 8.0])]
    trajectory = ds.Trajectory(samples={"alpha": states}, events=[])
    sparse = ds.compute_rmse(trajectory, straight_reference())
    dense_reference = {"alpha": [ds.Setpoint(ds.vec3(x, 0, 0))
                                 for x in (0.0, 2.0, 4.0, 5.0, 6.5, 10.0)]}
    dense = ds.compute_rmse(trajectory, dense_reference)
    assert dense.rmse_m["alpha"] == pytest.approx(sparse.rmse_m["alpha"], rel=1e-12)


def test_rmse_missing_reference_is_reported_and_skipped():
    states = [level_state(0.0, 0.0, 0.0, t=0.0)]
    trajectory = ds.Trajectory(samples={"alpha": states, "ghost": states}, events=[])
    report = ds.compute_rmse(trajectory, straight_reference())
    assert report.skipped_drones == ["ghost"]
    assert "ghost" not in report.rmse_m
    assert "alpha" in report.rmse_m


def test_metrics_collect_capture_times_and_event_counts():
    states = [level_state(0.0, 0.0, 0.0, t=0.0)]
    events = [ds.SimEvent(1.5, "waypoint_reached", ("alpha",), {}),
              ds.SimEvent(3.0, "waypoint_reached", ("alpha",), {}),
              ds.SimEvent(3.0, "separation_violation", ("alpha", "bravo"), {})]
    report = ds.compute_rmse(ds.Trajectory(samples={"alpha": states}, events=events),
                             straight_reference())
    assert report.waypoint_capture_times_s["alpha"] == [1.5, 3.0]
    assert report.event_counts == {"waypoint_reached": 2, "separation_violation": 1}


def test_flown_length_sums_sample_legs():
    states = [level_state(0, 0, 0, t=0.0), level_state(3, 4, 0, t=0.1),
              level_state(3, 4, 12, t=0.2)]
    report = ds.compute_rmse(ds.Trajectory(samples={"alpha": states}, events=[]),
                             straight_reference())
    assert report.route_length_flown_m["alpha"] == pytest.approx(17.0, abs=1e-12)


def point_segment_distance(p, a, b) -> float:
    """Distance from point p to the closed segment [a, b]."""
    p, a, b = (np.asarray(v, dtype=float) for v in (p, a, b))
    ab = b - a
    denom = float(ab @ ab)
    if denom == 0.0:
        d = p - a
    else:
        t = min(1.0, max(0.0, float((p - a) @ ab) / denom))
        d = p - (a + t * ab)
    return math.sqrt(float(d @ d))


def point_polyline_distance(p, vertices) -> float:
    """Distance from p to the nearest point on the polyline through vertices."""
    if len(vertices) == 1:
        return point_segment_distance(p, vertices[0], vertices[0])
    return min(point_segment_distance(p, vertices[i], vertices[i + 1])
               for i in range(len(vertices) - 1))


def polyline_distances(points, vertices) -> np.ndarray:
    # one drone's distances as compute_rmse found them before it scored all
    # drones together: the vectorised point_polyline_distance
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    vertices = np.asarray(vertices, dtype=float).reshape(-1, 3)
    if len(vertices) == 1:
        vertices = np.vstack([vertices, vertices])
    a, ab = vertices[:-1], np.diff(vertices, axis=0)
    denom = np.einsum("ij,ij->i", ab, ab)
    denom[denom == 0.0] = np.inf  # a zero-length segment projects to t = 0
    out = np.empty(len(points))
    block = max(1, (1 << 16) // len(a))  # (sample, segment) pairs per block
    for start in range(0, len(points), block):
        ap = points[start:start + block, None, :] - a        # (b, s, 3)
        t = np.clip(np.einsum("bsk,sk->bs", ap, ab) / denom, 0.0, 1.0)
        d = ap - t[:, :, None] * ab
        out[start:start + block] = np.sqrt(np.einsum("bsk,bsk->bs", d, d).min(axis=1))
    return out


def reference_compute_rmse(trajectory, reference) -> dict:
    # compute_rmse as it was before it scored all drones together: one
    # drone at a time, each with its own arrays
    report = ds.MetricsReport()
    for event in trajectory.events:
        report.event_counts[event.kind] = report.event_counts.get(event.kind, 0) + 1
        if event.kind == "waypoint_reached":
            for drone_id in event.drone_ids:
                report.waypoint_capture_times_s.setdefault(drone_id, []).append(event.t)
    for drone_id in trajectory.samples:
        rows = trajectory.table(drone_id).tolist()
        positions = (np.column_stack(list(itertools.islice(zip(*rows), 1, 4))) if rows
                     else np.empty((0, 3)))
        steps = np.diff(positions, axis=0)
        report.route_length_flown_m[drone_id] = float(
            np.sqrt(np.einsum("ij,ij->i", steps, steps)).sum())
        setpoints = reference.get(drone_id)
        if not setpoints:
            report.skipped_drones.append(drone_id)
            continue
        if len(positions) == 0:
            report.rmse_m[drone_id] = 0.0
            continue
        distances = polyline_distances(positions, [sp.target_position for sp in setpoints])
        report.rmse_m[drone_id] = math.sqrt(float(np.mean(distances * distances)))
    return report.to_dict()


def test_rmse_matches_scalar_point_to_polyline_distance():
    # seeded random polylines, among them single-vertex ones and ones with
    # zero-length segments; some samples sit exactly on a vertex
    rng = np.random.default_rng(41)
    for trial in range(60):
        vertices = rng.uniform(-50.0, 50.0, size=(int(rng.integers(1, 9)), 3))
        if len(vertices) >= 3 and trial % 2 == 0:
            vertices[2] = vertices[1]
        positions = rng.uniform(-60.0, 60.0, size=(int(rng.integers(1, 40)), 3))
        positions[0] = vertices[-1]
        expected = [point_polyline_distance(p, list(vertices)) for p in positions]
        assert polyline_distances(positions, vertices) == pytest.approx(expected, rel=1e-12)

        states = [level_state(*p, t=0.1 * i) for i, p in enumerate(positions)]
        report = ds.compute_rmse(ds.Trajectory(samples={"alpha": states}, events=[]),
                                 {"alpha": [ds.Setpoint(v) for v in vertices]})
        rmse = math.sqrt(sum(d * d for d in expected) / len(expected))
        assert report.rmse_m["alpha"] == pytest.approx(rmse, rel=1e-12)


# coordinates that put samples on vertices and repeat vertices (zero-length
# segments) often, among arbitrary ones
COORDINATES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -2.5, 10.0]),
                        st.floats(-1e3, 1e3, allow_nan=False))
POINTS = st.lists(COORDINATES, min_size=3, max_size=3)


@st.composite
def scored_flights(draw):
    """A trajectory of 0-8 drones with 0-40 samples each, as recorded
    float64 tables or as state lists, and a reference that lacks some of
    them."""
    ids = draw(st.lists(st.text(min_size=1, max_size=3), max_size=8, unique=True))
    rows, reference = {}, {}
    for k, drone_id in enumerate(ids):
        rows[drone_id] = [[0.1 * i, *draw(POINTS), 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0,
                           0.0, 0.0, 0.0] for i in range(draw(st.integers(0, 40)))]
        choice = draw(st.sampled_from(["polyline", "polyline", "empty", "missing"]))
        if choice != "missing":
            vertices = draw(st.lists(POINTS, min_size=1, max_size=8))
            if len(vertices) >= 2 and draw(st.booleans()):
                vertices.insert(1, list(vertices[0]))  # a zero-length first segment
            reference[drone_id] = ([] if choice == "empty" else
                                   [ds.Setpoint(np.array(v, dtype=float)) for v in vertices])
    if draw(st.booleans()):
        samples = RecordedSamples({drone_id: np.array(r, dtype=float).reshape(-1, 14)
                                   for drone_id, r in rows.items()})
    else:
        samples = {drone_id: [ds.DroneState.from_checked(row[0], row[1:]) for row in r]
                   for drone_id, r in rows.items()}
    events = [ds.SimEvent(0.5, "waypoint_reached", (drone_id,), {}) for drone_id in ids[:2]]
    return ds.Trajectory(samples=samples, events=events), reference


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(scored_flights(), st.sampled_from([metrics._PAIRS_PER_BLOCK] * 2 + [1, 2, 7, 40]))
def test_rmse_of_all_drones_together_equals_one_drone_at_a_time(flight, pairs_per_block):
    # bit for bit, also when a block of (sample, segment) pairs holds a
    # single sample or splits across drones
    trajectory, reference = flight
    expected = reference_compute_rmse(trajectory, reference)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(metrics, "_PAIRS_PER_BLOCK", pairs_per_block)
        report = ds.compute_rmse(trajectory, reference).to_dict()
    assert report == expected
