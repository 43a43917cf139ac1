"""Pinned exports: the files, metrics, samples and events of six flights.

``export_golden.json`` holds, for each flight below, the SHA-256 of the
CSV and GeoJSON files, the metrics report of the flown trajectory and of
its CSV read back (compared with ``==``), and digests of the recorded
samples and of the events. The flights are the three bundled scenarios,
flown as ``dronesim simulate`` flies them, the benchmark's 200-drone
crossing swarm at seed 7 and its two planned survey missions at seed 3.
A change to recording, export, read-back or scoring that is meant to
keep its output must leave this file unchanged; rewrite it only for a
change that is meant to change output:

    PYTHONPATH=src python tests/test_export_golden.py

The exports are written before anything reads ``Trajectory.samples``,
so they come from the recorded columns. A trajectory built from a dict
of the same states must export the same bytes, and a state list that a
caller read and then changed is what the exporters write.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import dronesim as ds
from dronesim import swarm as swarm_module
from dronesim.cli import routes_from_plan

from conftest import build_reference_craft, level_state

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import crossing_document, survey_document  # noqa: E402

FIXTURE = Path(__file__).with_name("export_golden.json")
SURVEY_SEED = 3


def bundled(name: str):
    swarm, scenario, mission = ds.load_scenario(ds.bundled_scenario_path(name))
    if mission.waypoints:
        routes_from_plan(swarm, mission, ds.optimize(mission))
    return swarm, scenario


def crossing(seed: int):
    document, _ = crossing_document(seed)
    swarm, scenario, mission = ds.scenario_from_dict(document)
    plan = ds.RoutePlan(routes=[[f"{d.id}-goal"] for d in swarm.drones],
                        lengths=[0.0] * len(swarm.drones), total_length=0.0, feasible=True)
    routes_from_plan(swarm, mission, plan)
    return swarm, scenario


def survey(drones: int, count: int):
    swarm, scenario, mission = ds.scenario_from_dict(
        survey_document(SURVEY_SEED, drones, count))
    routes_from_plan(swarm, mission, ds.optimize(mission))
    return swarm, scenario


FLIGHTS = {
    "hover": lambda: bundled("hover.json"),
    "square_route": lambda: bundled("square_route.json"),
    "two_drone_cross": lambda: bundled("two_drone_cross.json"),
    "crossing-7": lambda: crossing(7),
    f"survey_single-{SURVEY_SEED}": lambda: survey(1, 30),
    f"survey_team-{SURVEY_SEED}": lambda: survey(4, 96),
}


def reference_of(swarm) -> dict:
    # what `dronesim simulate --metrics` scores against
    return {d.id: [ds.Setpoint(d.state.position.copy())] + d.route
            for d in swarm.drones if d.route}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def samples_digest(trajectory) -> str:
    h = hashlib.sha256()
    for drone_id, states in trajectory.samples.items():
        h.update(drone_id.encode() + b"\0")
        for s in states:
            h.update(struct.pack("<14d", s.t, *s.as_floats()))
    return h.hexdigest()


def events_digest(trajectory) -> str:
    h = hashlib.sha256()
    for e in trajectory.events:
        h.update(json.dumps([e.t, e.kind, list(e.drone_ids), e.payload],
                            sort_keys=True).encode() + b"\n")
    return h.hexdigest()


def exported(trajectory, scenario, reference, work: Path) -> dict:
    """Hashes of the two files and the metrics of the trajectory and of
    its CSV read back."""
    csv_path, geojson_path = work / "track.csv", work / "track.geojson"
    ds.export_csv(trajectory, csv_path)
    ds.export_geojson(trajectory, scenario.inertial_frame, geojson_path)
    return {"csv": sha256(csv_path), "geojson": sha256(geojson_path),
            "metrics": ds.compute_rmse(trajectory, reference).to_dict(),
            "read_back_metrics": ds.compute_rmse(ds.load_csv(csv_path), reference).to_dict()}


def golden_entry(name: str, work: Path) -> dict:
    swarm, scenario = FLIGHTS[name]()
    trajectory = ds.simulate(swarm, scenario)
    entry = exported(trajectory, scenario, reference_of(swarm), work)
    entry["samples"] = samples_digest(trajectory)
    entry["events"] = events_digest(trajectory)
    return entry


GOLDEN = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else {}


@pytest.mark.parametrize("name", list(FLIGHTS))
def test_exports_match_the_pinned_bytes_and_metrics(name, tmp_path):
    swarm, scenario = FLIGHTS[name]()
    trajectory = ds.simulate(swarm, scenario)
    reference = reference_of(swarm)
    pinned = GOLDEN[name]
    fresh = exported(trajectory, scenario, reference, tmp_path)
    assert fresh == {k: pinned[k] for k in fresh}
    assert samples_digest(trajectory) == pinned["samples"]
    assert events_digest(trajectory) == pinned["events"]
    # the same states in a plain dict take the other way into the exporters
    built = ds.Trajectory(samples={k: list(v) for k, v in trajectory.samples.items()},
                          events=list(trajectory.events))
    assert exported(built, scenario, reference, tmp_path) == fresh


@pytest.mark.parametrize("threshold", [1, math.inf])
@pytest.mark.parametrize("name", ["two_drone_cross", "crossing-7",
                                  f"survey_team-{SURVEY_SEED}"])
def test_samples_and_events_match_on_blocks_and_on_floats(name, threshold):
    swarm, scenario = FLIGHTS[name]()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(swarm_module, "_BLOCK_MIN", threshold)
        trajectory = ds.simulate(swarm, scenario)
    assert samples_digest(trajectory) == GOLDEN[name]["samples"]
    assert events_digest(trajectory) == GOLDEN[name]["events"]


def test_samples_iterate_in_drone_order():
    ids = ["zulu", "alpha", "mike", "bravo"]
    swarm = ds.Swarm([ds.Drone(id=i, airframe=build_reference_craft(),
                               state=level_state(10.0 * k, 0.0, 5.0),
                               route=[ds.Setpoint(ds.vec3(10.0 * k, 0.0, 9.0))])
                      for k, i in enumerate(ids)])
    scenario = ds.Scenario(physics=ds.Physics(), conditions=ds.FlyingConditions(),
                           inertial_frame=ds.InertialFrame(41.1, 16.9, 10.0),
                           reference_time_step=0.01, max_duration=0.05,
                           recording_interval=0.02)
    trajectory = ds.simulate(swarm, scenario)
    assert list(trajectory.samples) == ids
    assert "mike" in trajectory.samples and "echo" not in trajectory.samples
    assert len(trajectory.samples) == 4
    assert [k for k, _ in trajectory.samples.items()] == ids
    assert [len(v) for v in trajectory.samples.values()] == [4] * 4
    with pytest.raises(KeyError):
        trajectory.samples["echo"]


def test_a_read_list_is_what_the_exporters_write(tmp_path):
    swarm, scenario = FLIGHTS["two_drone_cross"]()
    trajectory = ds.simulate(swarm, scenario)
    reference = reference_of(swarm)
    states = trajectory.samples["east"]
    assert trajectory.samples["east"] is states  # built once, then kept
    states[3].position = states[3].position + np.array([0.0, 2.5, 0.0])
    del states[-2:]
    edited = exported(trajectory, scenario, reference, tmp_path)
    assert edited["csv"] != GOLDEN["two_drone_cross"]["csv"]
    assert edited["geojson"] != GOLDEN["two_drone_cross"]["geojson"]
    assert edited["metrics"] != GOLDEN["two_drone_cross"]["metrics"]
    built = ds.Trajectory(samples={k: list(v) for k, v in trajectory.samples.items()},
                          events=list(trajectory.events))
    assert exported(built, scenario, reference, tmp_path) == edited


def test_a_non_finite_position_in_a_read_list_is_refused_by_geojson(tmp_path):
    swarm, scenario = FLIGHTS["two_drone_cross"]()
    trajectory = ds.simulate(swarm, scenario)
    trajectory.samples["west"][5].position[2] = math.nan
    with pytest.raises(ds.FieldError, match="position has non-finite components"):
        ds.export_geojson(trajectory, scenario.inertial_frame, tmp_path / "bad.geojson")


if __name__ == "__main__":
    # one flight per line, so that a changed output shows as a changed line
    with tempfile.TemporaryDirectory() as work:
        FIXTURE.write_text("{\n" + ",\n".join(
            f"{json.dumps(name)}: {json.dumps(golden_entry(name, Path(work)))}"
            for name in FLIGHTS) + "\n}\n")
