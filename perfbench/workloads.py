"""The benchmark's workloads: seeded inputs and the operations run on them.

An operation is one scenario through the public pipeline (load ->
optimize -> simulate -> export -> metrics). A round runs every operation
of a workload once, in a fixed order; a run repeats whole rounds.

* ``bundled_cli``: ``dronesim simulate`` in-process on the two shipped
  mission scenarios, once to GeoJSON and once to CSV with ``--metrics``.
  The inputs are the shipped files, so the seed changes nothing.
* ``swarm_crossing``: 100 head-on pairs (200 drones) on two facing lines
  with closing velocity, each pair offset 0.5 m laterally; routes are
  attached without planning and the flight lasts a fixed tick count.
* ``survey_dense``: a one-drone and a four-drone survey mission planned
  with ``optimize``, flown for a capped tick count with a sample every
  tick, exported to GeoJSON and CSV, read back and scored.

The generated documents go to disk and reach the program only through
``load_scenario``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks

ANCHOR = {"latitude_deg": 41.109, "longitude_deg": 16.879, "altitude_m": 10.0}
PHYSICS = {"gravity": 9.81, "air_density": 1.225}

# the shipped reference quadrotor: 1 kg, 0.2 m arms, hover near 490 rad/s
_K_T = 0.00013061224489795917
_K_Q = 2.089795918367347e-06
ROTORS = [
    {"position": [x, y, 0.0], "spin_direction": spin, "disk_area": 0.0625,
     "thrust_coefficient": _K_T, "torque_coefficient": _K_Q, "max_speed": 1000.0}
    for x, y, spin in ((0.2, 0.2, 1), (-0.2, 0.2, -1), (-0.2, -0.2, 1), (0.2, -0.2, -1))
]
BODY = {"mass": 1.0, "inertia": [0.01, 0.01, 0.02], "linear_drag": 0.0}

CROSSING_PAIRS = 100
CROSSING_TICKS = 12
CROSSING_DT = 0.01
CROSSING_LANE_SPACING_M = 6.0
CROSSING_LATERAL_OFFSET_M = 0.5

SURVEY_DT = 0.01
SURVEY_TICKS = 400
SURVEY_SPACING_M = 15.0
# The survey layout is fixed: on random layouts the planner's local
# search varies by +-30% in time between seeds, which would hide any
# change to it. The run seed moves the whole scene, relabels the
# waypoints and shuffles their order, none of which changes the work.
SURVEY_LAYOUT_SEED = 1906
SURVEY_MISSIONS = (("survey_single", 1, 30), ("survey_team", 4, 96))


@dataclass
class Operation:
    name: str
    run: Callable[[], dict]
    check: Callable[[dict, dict], list[str]]


@dataclass
class Workload:
    name: str
    documents: list[Path]   # what the set-up loads and validates
    operations: list[Operation]


def _drone(drone_id: str, position, velocity=(0.0, 0.0, 0.0)) -> dict:
    return {"id": drone_id, "body": BODY, "rotors": ROTORS,
            "start": {"position": list(position), "velocity": list(velocity)}}


def _document(drones, waypoints, dt, ticks, recording_interval, obstacles=()) -> dict:
    return {
        "version": 1,
        "physics": PHYSICS,
        "flying_conditions": {"wind": [0.0, 0.0, 0.0], "obstacles": list(obstacles)},
        "inertial_frame": ANCHOR,
        "simulation": {"dt": dt, "max_duration": ticks * dt,
                       "recording_interval": recording_interval, "min_separation": 2.0},
        "drones": drones,
        "mission": {"waypoints": waypoints, "max_route_length": 10_000.0},
    }


def crossing_document(seed: int, pairs: int = CROSSING_PAIRS,
                      ticks: int = CROSSING_TICKS) -> tuple[dict, list[tuple[str, str]]]:
    """Two facing lines of drones, one designed head-on pair per lane.

    Pair i flies along lane y_i: its east-bound drone starts at cx - a
    with +v, its west-bound partner at cx + a, 0.5 m further north, with
    -v, so the two close at 2v and pass 0.5 m apart. a, v, cx and the
    altitude are drawn per pair from the seed; 2a > 1.94 m keeps the
    first tick clear of the 2 m separation, and 12 ticks (0.12 s) close
    more than the 0.7 m needed to enter it. Lanes are 6 m apart, so only designed
    partners ever come within 2 m. Each drone's single waypoint lies
    20 m ahead on its lane. Three obstacle boxes sit south of lane 0.
    """
    rng = random.Random(seed)
    drones, waypoints, designed = [], [], []
    for i in range(pairs):
        half_gap = rng.uniform(1.1, 1.3)
        speed = rng.uniform(7.5, 8.5)
        z = rng.uniform(8.0, 12.0)
        cx = rng.uniform(-2.0, 2.0)
        y = CROSSING_LANE_SPACING_M * i
        east, west = f"p{i:03d}e", f"p{i:03d}w"
        yw = y + CROSSING_LATERAL_OFFSET_M
        drones.append(_drone(east, (cx - half_gap, y, z), (speed, 0.0, 0.0)))
        drones.append(_drone(west, (cx + half_gap, yw, z), (-speed, 0.0, 0.0)))
        waypoints.append({"id": f"{east}-goal", "position": [cx + 20.0, y, z]})
        waypoints.append({"id": f"{west}-goal", "position": [cx - 20.0, yw, z]})
        designed.append((east, west))
    obstacles = []
    for _ in range(3):
        x0, y0 = rng.uniform(-40.0, 30.0), rng.uniform(-40.0, -20.0)
        obstacles.append({"min": [x0, y0, 0.0], "max": [x0 + 10.0, y0 + 10.0, 20.0]})
    return _document(drones, waypoints, CROSSING_DT, ticks, 4 * CROSSING_DT,
                     obstacles), designed


def survey_document(seed: int, drones: int, count: int,
                    ticks: int = SURVEY_TICKS) -> dict:
    """A jittered lawn-mower grid of waypoints with drones at its corners."""
    layout = random.Random(SURVEY_LAYOUT_SEED * 1000 + count)
    rng = random.Random(seed * 1000 + count)
    east0, north0 = rng.uniform(-500.0, 500.0), rng.uniform(-500.0, 500.0)
    labels = list(range(count))
    rng.shuffle(labels)
    cols = math.ceil(math.sqrt(count))
    rows = math.ceil(count / cols)
    waypoints = []
    for k in range(count):
        r, c = divmod(k, cols)
        x = east0 + SURVEY_SPACING_M * (c + layout.uniform(-0.3, 0.3))
        y = north0 + SURVEY_SPACING_M * (r + layout.uniform(-0.3, 0.3))
        waypoints.append({"id": f"wp{labels[k]:03d}",
                          "position": [x, y, 10.0 + layout.uniform(-1.0, 1.0)]})
    rng.shuffle(waypoints)
    far_x = east0 + SURVEY_SPACING_M * cols
    far_y = north0 + SURVEY_SPACING_M * rows
    corners = [(east0 - 10.0, north0 - 10.0), (far_x, far_y),
               (far_x, north0 - 10.0), (east0 - 10.0, far_y)]
    team = [_drone(f"s{i}", (x, y, 0.5)) for i, (x, y) in enumerate(corners[:drones])]
    return _document(team, waypoints, SURVEY_DT, ticks, SURVEY_DT)


def _write(path: Path, document: dict) -> Path:
    path.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    return path


# -- what the checks read from the recorded calls ---------------------------

def _result(calls: dict, name: str):
    return calls[name][0][2]


def _references(swarm) -> dict[str, np.ndarray]:
    return {d.id: np.array([d.state.position] + [sp.target_position for sp in d.route],
                           dtype=float)
            for d in swarm.drones if d.route}


def _tracks(trajectory) -> dict[str, np.ndarray]:
    return {k: np.array([s.position for s in v], dtype=float)
            for k, v in trajectory.samples.items()}


def _file_checks(ctx: dict, trajectory, scenario) -> list[str]:
    failures = []
    if "geojson" in ctx:
        failures += checks.check_geojson(ctx["geojson"], trajectory,
                                         scenario.inertial_frame.altitude_m)
    if "csv" in ctx:
        failures += checks.check_csv(ctx["csv"], trajectory)
    return failures


def _starts(swarm) -> dict[str, np.ndarray]:
    return {d.id: np.asarray(d.state.position, dtype=float) for d in swarm.drones}


# -- bundled_cli --------------------------------------------------------------

def bundled_cli(seed: int, work: Path, ds) -> Workload:
    del seed  # the shipped scenarios are the input
    documents = [ds.bundled_scenario_path(n) for n in ("square_route.json",
                                                       "two_drone_cross.json")]
    operations = []
    for doc in documents:
        stem = doc.stem
        for fmt in ("geojson", "csv"):
            ctx = {fmt: work / f"{stem}.{fmt}"}
            argv = ["simulate", "--scenario", str(doc), "--out", str(ctx[fmt]),
                    "--format", fmt]
            if fmt == "csv":
                ctx["metrics"] = work / f"{stem}.metrics.json"
                argv += ["--metrics", str(ctx["metrics"])]
            operations.append(Operation(f"{stem}.{fmt}", _cli_run(ds, argv, ctx),
                                        _cli_check(stem)))
    return Workload("bundled_cli", documents, operations)


def _cli_run(ds, argv, ctx):
    def run():
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = ds.cli.main(argv)
        return dict(ctx, exit_code=code)
    return run


def _cli_check(stem: str):
    def check(ctx: dict, calls: dict) -> list[str]:
        if ctx["exit_code"] != 0:
            return [f"dronesim simulate exited with {ctx['exit_code']}"]
        swarm, scenario, mission = _result(calls, "scenario_io.load_scenario")
        plan = _result(calls, "routing.optimize")
        trajectory = _result(calls, "swarm.simulate")
        failures = checks.check_samples(trajectory) + _file_checks(ctx, trajectory, scenario)
        if stem == "square_route":
            failures += checks.check_exhaustive_optimum(mission, plan)
            failures += checks.check_captures(trajectory, swarm.drones[0])
        else:
            failures += checks.check_pairs(trajectory, [("east", "west")],
                                           swarm.min_separation, _starts(swarm))
        if "metrics" in ctx:
            report = json.loads(Path(ctx["metrics"]).read_text(encoding="utf-8"))
            failures += checks.check_metrics(report["rmse_m"], report["route_length_flown_m"],
                                             _tracks(trajectory), _references(swarm))
        return failures
    return check


# -- swarm_crossing -----------------------------------------------------------

def swarm_crossing(seed: int, work: Path, ds) -> Workload:
    document, designed = crossing_document(seed)
    path = _write(work / "crossing.json", document)
    ctx = {"geojson": work / "crossing.geojson", "csv": work / "crossing.csv"}

    def run():
        swarm, scenario, mission = ds.load_scenario(path)
        # each drone flies to its own goal: attach it without planning
        plan = ds.RoutePlan(routes=[[f"{d.id}-goal"] for d in swarm.drones],
                            lengths=[0.0] * len(swarm.drones), total_length=0.0,
                            feasible=True)
        ds.cli.routes_from_plan(swarm, mission, plan)
        trajectory = ds.simulate(swarm, scenario, scenario.recording_interval)
        ds.export_geojson(trajectory, scenario.inertial_frame, ctx["geojson"])
        ds.export_csv(trajectory, ctx["csv"])
        ds.compute_rmse(trajectory, {d.id: [ds.Setpoint(d.state.position.copy())] + d.route
                                     for d in swarm.drones})
        return ctx

    def check(ctx: dict, calls: dict) -> list[str]:
        swarm, scenario, _ = _result(calls, "scenario_io.load_scenario")
        trajectory = _result(calls, "swarm.simulate")
        report = _result(calls, "metrics.compute_rmse")
        return (checks.check_samples(trajectory)
                + checks.check_pairs(trajectory, designed, swarm.min_separation,
                                     _starts(swarm))
                + checks.check_only_events(trajectory, {"separation_violation"})
                + _file_checks(ctx, trajectory, scenario)
                + checks.check_metrics(report.rmse_m, report.route_length_flown_m,
                                       _tracks(trajectory), _references(swarm)))

    return Workload("swarm_crossing", [path], [Operation("crossing", run, check)])


# -- survey_dense -------------------------------------------------------------

def survey_dense(seed: int, work: Path, ds) -> Workload:
    documents, operations = [], []
    for name, drones, count in SURVEY_MISSIONS:
        path = _write(work / f"{name}.json", survey_document(seed, drones, count))
        documents.append(path)
        ctx = {"geojson": work / f"{name}.geojson", "csv": work / f"{name}.csv"}
        operations.append(Operation(name, _survey_run(ds, path, ctx), _survey_check))
    return Workload("survey_dense", documents, operations)


def _survey_run(ds, path: Path, ctx: dict):
    def run():
        swarm, scenario, mission = ds.load_scenario(path)
        plan = ds.optimize(mission)
        ds.cli.routes_from_plan(swarm, mission, plan)
        trajectory = ds.simulate(swarm, scenario, scenario.recording_interval)
        ds.export_geojson(trajectory, scenario.inertial_frame, ctx["geojson"])
        ds.export_csv(trajectory, ctx["csv"])
        flown = ds.load_csv(ctx["csv"])
        ds.compute_rmse(flown, {d.id: [ds.Setpoint(d.state.position.copy())] + d.route
                                for d in swarm.drones})
        return ctx
    return run


def _survey_check(ctx: dict, calls: dict) -> list[str]:
    swarm, scenario, mission = _result(calls, "scenario_io.load_scenario")
    plan = _result(calls, "routing.optimize")
    trajectory = _result(calls, "swarm.simulate")
    report = _result(calls, "metrics.compute_rmse")
    return (checks.check_samples(trajectory)
            + checks.check_survey_plan(mission, plan)
            + _file_checks(ctx, trajectory, scenario)
            + checks.check_metrics(report.rmse_m, report.route_length_flown_m,
                                   checks.parse_csv(ctx["csv"]), _references(swarm)))


WORKLOADS = {"bundled_cli": bundled_cli, "swarm_crossing": swarm_crossing,
             "survey_dense": survey_dense}
