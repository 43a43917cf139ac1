"""The benchmark's checks reject deliberately corrupted outputs.

Each test takes a real output of the pipeline (a small crossing flight
and a small survey plan), confirms the check passes on it, corrupts one
thing and confirms the check now fails.

Run: python -m pytest -q perfbench
"""

import copy
import dataclasses
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import dronesim as ds  # noqa: E402
import dronesim.cli  # noqa: E402,F401

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def crossing(tmp_path_factory):
    work = tmp_path_factory.mktemp("crossing")
    document, designed = workloads.crossing_document(seed=3, pairs=2, ticks=40)
    path = work / "crossing.json"
    path.write_text(json.dumps(document))
    swarm, scenario, mission = ds.load_scenario(path)
    by_id = {w.id: w for w in mission.waypoints}
    for d in swarm.drones:
        d.route = [ds.Setpoint(by_id[f"{d.id}-goal"].position.copy())]
    trajectory = ds.simulate(swarm, scenario, scenario.recording_interval)
    ds.export_geojson(trajectory, scenario.inertial_frame, work / "out.geojson")
    ds.export_csv(trajectory, work / "out.csv")
    report = ds.compute_rmse(trajectory, {d.id: [ds.Setpoint(d.state.position.copy())] + d.route
                                          for d in swarm.drones})
    return SimpleNamespace(work=work, swarm=swarm, scenario=scenario, designed=designed,
                           trajectory=trajectory, report=report)


@pytest.fixture(scope="module")
def survey(tmp_path_factory):
    path = tmp_path_factory.mktemp("survey") / "survey.json"
    path.write_text(json.dumps(workloads.survey_document(seed=5, drones=2, count=14)))
    _, _, mission = ds.load_scenario(path)
    return mission, ds.optimize(mission)


def _copy_trajectory(trajectory):
    return ds.Trajectory(samples={k: [s.copy() for s in v] for k, v in trajectory.samples.items()},
                         events=list(trajectory.events))


def _pair_failures(c, trajectory):
    return checks.check_pairs(trajectory, c.designed, c.swarm.min_separation,
                              {d.id: d.state.position for d in c.swarm.drones})


def test_samples_reject_bad_quaternion_nan_and_time_reversal(crossing):
    assert checks.check_samples(crossing.trajectory) == []
    for corrupt in ("quaternion", "nan", "time"):
        broken = _copy_trajectory(crossing.trajectory)
        states = broken.samples["p000e"]
        if corrupt == "quaternion":
            states[2].orientation = states[2].orientation * (1.0 + 1e-8)
        elif corrupt == "nan":
            states[1].velocity = np.array([np.nan, 0.0, 0.0])
        else:
            states[1], states[2] = states[2], states[1]
        assert checks.check_samples(broken), corrupt


def test_pairs_reject_dropped_extra_and_far_episodes(crossing):
    assert _pair_failures(crossing, crossing.trajectory) == []
    events = crossing.trajectory.events
    separations = [e for e in events if e.kind == "separation_violation"]
    assert len(separations) == 2

    dropped = _copy_trajectory(crossing.trajectory)
    dropped.events = [e for e in events if e is not separations[0]]
    assert _pair_failures(crossing, dropped)

    repeated = _copy_trajectory(crossing.trajectory)
    repeated.events = events + [separations[0]]
    assert _pair_failures(crossing, repeated)

    stranger = _copy_trajectory(crossing.trajectory)
    stranger.events = events + [dataclasses.replace(separations[0], drone_ids=("p000e", "p001e"))]
    assert _pair_failures(crossing, stranger)

    far = _copy_trajectory(crossing.trajectory)
    payload = dict(separations[0].payload, distance_m=2.5)
    far.events = [dataclasses.replace(e, payload=payload) if e is separations[0] else e
                  for e in events]
    assert _pair_failures(crossing, far)


def test_pairs_reject_a_perturbed_sample(crossing):
    broken = _copy_trajectory(crossing.trajectory)
    broken.samples["p001w"][3].position = broken.samples["p001w"][3].position + [0.0, 1e-6, 0.0]
    assert _pair_failures(crossing, broken)


def test_only_events_rejects_an_obstacle_event(crossing):
    assert checks.check_only_events(crossing.trajectory, {"separation_violation"}) == []
    broken = _copy_trajectory(crossing.trajectory)
    broken.events.append(ds.SimEvent(0.01, "obstacle_collision", ("p000e",), {}))
    assert checks.check_only_events(broken, {"separation_violation"})


def test_csv_rejects_a_changed_digit_and_a_dropped_row(crossing, tmp_path):
    path = crossing.work / "out.csv"
    assert checks.check_csv(path, crossing.trajectory) == []
    lines = path.read_text().splitlines()
    fields = lines[5].split(",")
    fields[2] = f"{float(fields[2]) * (1.0 + 1e-7):.9g}"
    changed = tmp_path / "changed.csv"
    changed.write_text("\n".join(lines[:5] + [",".join(fields)] + lines[6:]) + "\n")
    assert checks.check_csv(changed, crossing.trajectory)
    dropped = tmp_path / "dropped.csv"
    dropped.write_text("\n".join(lines[:5] + lines[6:]) + "\n")
    assert checks.check_csv(dropped, crossing.trajectory)


def test_geojson_rejects_a_moved_coordinate_and_altitude(crossing, tmp_path):
    path = crossing.work / "out.geojson"
    altitude = crossing.scenario.inertial_frame.altitude_m
    assert checks.check_geojson(path, crossing.trajectory, altitude) == []
    document = json.loads(path.read_text())
    for corrupt in ("longitude", "altitude"):
        broken = copy.deepcopy(document)
        coordinate = broken["features"][0]["geometry"]["coordinates"][2]
        if corrupt == "longitude":
            coordinate[0] += 1e-7  # about 8 mm east
        else:
            coordinate[2] += 1e-6
        out = tmp_path / f"{corrupt}.geojson"
        out.write_text(json.dumps(broken))
        assert checks.check_geojson(out, crossing.trajectory, altitude), corrupt


def test_metrics_reject_a_changed_rmse_and_flown_length(crossing):
    tracks = {k: np.array([s.position for s in v]) for k, v in crossing.trajectory.samples.items()}
    references = {d.id: np.array([d.state.position] + [sp.target_position for sp in d.route])
                  for d in crossing.swarm.drones}
    rmse, flown = crossing.report.rmse_m, crossing.report.route_length_flown_m
    assert checks.check_metrics(rmse, flown, tracks, references) == []
    assert checks.check_metrics(dict(rmse, p000e=rmse["p000e"] * (1 + 1e-6)), flown,
                                tracks, references)
    assert checks.check_metrics(rmse, dict(flown, p001w=flown["p001w"] + 1e-6),
                                tracks, references)


def test_digest_changes_with_a_sample_or_an_event(crossing):
    reference = checks.digest(crossing.trajectory)
    assert checks.digest(_copy_trajectory(crossing.trajectory)) == reference
    moved = _copy_trajectory(crossing.trajectory)
    moved.samples["p000e"][-1].t = np.nextafter(moved.samples["p000e"][-1].t, 1.0)
    assert checks.digest(moved) != reference
    dropped = _copy_trajectory(crossing.trajectory)
    dropped.events = dropped.events[1:]
    assert checks.digest(dropped) != reference


def test_survey_plan_rejects_reordered_duplicated_and_misreported_routes(survey):
    mission, plan = survey
    assert checks.check_survey_plan(mission, plan) == []
    route = plan.routes[0]
    by_id = {w.id: w for w in mission.waypoints}
    swapped = [route[0], route[2], route[1]] + route[3:]
    length = ds.route_length(mission.start_positions[0], [by_id[w] for w in swapped])
    reordered = dataclasses.replace(plan, routes=[swapped] + plan.routes[1:],
                                    lengths=[length] + plan.lengths[1:],
                                    total_length=length + sum(plan.lengths[1:]))
    assert checks.check_survey_plan(mission, reordered)
    duplicated = copy.deepcopy(plan)
    duplicated.routes[1] = duplicated.routes[1] + [route[0]]
    assert checks.check_survey_plan(mission, duplicated)
    misreported = copy.deepcopy(plan)
    misreported.lengths[0] += 1e-3
    assert checks.check_survey_plan(mission, misreported)


def test_exhaustive_optimum_rejects_a_longer_order():
    swarm, _, mission = ds.load_scenario(ds.bundled_scenario_path("square_route.json"))
    plan = ds.optimize(mission)
    assert checks.check_exhaustive_optimum(mission, plan) == []
    by_id = {w.id: w for w in mission.waypoints}
    order = plan.routes[0]
    worse = [order[0], order[2], order[1], order[3]]
    length = ds.route_length(mission.start_positions[0], [by_id[w] for w in worse])
    assert checks.check_exhaustive_optimum(
        mission, dataclasses.replace(plan, routes=[worse], lengths=[length],
                                     total_length=length))


def test_captures_reject_a_dropped_capture_and_a_short_flight():
    target = ds.Setpoint([0.0, 0.0, 1.0])
    drone = SimpleNamespace(id="a", route=[ds.Setpoint([1.0, 0.0, 1.0]), target],
                            gains=ds.ControllerGains())
    state = SimpleNamespace(position=np.array([0.0, 0.1, 1.0]))
    captures = [ds.SimEvent(t, "waypoint_reached", ("a",), {"waypoint_index": i})
                for i, t in enumerate((1.0, 2.0))]
    good = SimpleNamespace(events=captures, samples={"a": [state]})
    assert checks.check_captures(good, drone) == []
    assert checks.check_captures(SimpleNamespace(events=captures[:1], samples=good.samples),
                                 drone)
    away = SimpleNamespace(position=np.array([0.0, 0.6, 1.0]))
    assert checks.check_captures(SimpleNamespace(events=captures, samples={"a": [away]}),
                                 drone)


def test_recorder_restores_functions_and_reports_missing_ones():
    original = ds.swarm.compute_commands
    recorder = spans.Recorder()
    patches = recorder.install([spans.Boundary("control.compute_commands", "dronesim.control",
                                               "compute_commands"),
                                spans.Boundary("gone", "dronesim.swarm", "no_such_function")])
    assert ds.swarm.compute_commands is not original
    assert ds.control.compute_commands is ds.swarm.compute_commands
    assert "gone" in recorder.missing and "control.compute_commands" not in recorder.missing
    recorder.uninstall(patches)
    assert ds.swarm.compute_commands is original and ds.control.compute_commands is original


def test_self_time_subtracts_direct_children_only():
    recorded = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1], ["b", 5.0, 6.0, 0]]
    busy, self_time = spans.busy_and_self(recorded)
    assert busy == {"a": 10.0, "b": 4.0, "c": 1.0}
    assert self_time == {"a": 6.0, "b": 3.0, "c": 1.0}

