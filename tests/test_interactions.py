"""The sort-based interaction check gives the all-pairs events.

``reference_instant_violations`` is the all-pairs check the grid
replaced: it measures every pair with the same float expression, then
tests every drone against every box with numpy comparisons. The grid
must give events equal to it with ``==``, in the same order: in whole
``simulate`` runs on the bundled scenarios, on the benchmark's crossing
swarms (200 drones at 10 seeds, and 1000 drones), on a swarm of one
block and lone drones interleaved in drone order, and on a block drone
that touched the ground and still counts for separation; and on
generated clustered swarms with drones exactly ``min_separation``
apart, one ulp inside it, on cell borders at negative coordinates,
stacked in z, and inside or on the faces of obstacle boxes, given both
as lists of floats and as (3, N) position arrays. The clustered lists
hold 1 to ``MAX_CLUSTER`` drones, so they cover both the grid and the
small swarms below ``_GRID_MIN``, where every pair is measured; the
arrays hold 12 to 300. ``simulate`` keys violation episodes on drone
indices; a run in which episodes end and restart must report what
keying them on drone ids reports. A run in which no event is possible
(one drone, or ``min_separation`` 0, without boxes) must not call the
check at all; one in which an event is possible, also through a box, a
finished drone or a grounded one, must call it after every tick.
Hypothesis examples are derandomized so that every run checks the same
cases.
"""

import dataclasses
import math
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import dronesim as ds
from dronesim import swarm as swarm_module
from dronesim.cli import routes_from_plan

from conftest import build_reference_craft, grid_violations, level_state

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import crossing_document  # noqa: E402


def reference_instant_violations(ids, positions, min_separation, conditions, t):
    # positions: one sequence of 3 plain floats per drone
    events = []
    for i, (ax, ay, az) in enumerate(positions):
        for j in range(i + 1, len(positions)):
            bx, by, bz = positions[j]
            dx, dy, dz = ax - bx, ay - by, az - bz
            distance = math.sqrt(dx * dx + dy * dy + dz * dz)
            if distance < min_separation:
                pair = tuple(sorted((ids[i], ids[j])))
                events.append(ds.SimEvent(t, swarm_module.SEPARATION_VIOLATION, pair, {
                    "distance_m": distance,
                    "min_separation_m": min_separation,
                    "position": [0.5 * (ax + bx), 0.5 * (ay + by), 0.5 * (az + bz)],
                }))
    for drone_id, pos in zip(ids, positions):
        p = np.array(pos)
        if any(np.all(p >= box.min_corner) and np.all(p <= box.max_corner)
               for box in conditions.obstacles):
            events.append(ds.SimEvent(t, swarm_module.OBSTACLE_COLLISION, (drone_id,), {
                "position": list(pos),
            }))
    return events


def as_lists(positions):
    # one list of 3 floats per drone, from a (3, N) array or from lists
    if isinstance(positions, np.ndarray):
        return positions.T.tolist()
    return [list(p) for p in positions]


def reference_hook(conditions):
    """``_instant_violations`` made from the all-pairs reference."""
    def instant(positions, min_separation, boxes):
        positions = as_lists(positions)
        # with the drone indices as ids, a pair's sorted ids are (i, j)
        events = reference_instant_violations(range(len(positions)), positions,
                                              min_separation, conditions, 0.0)
        return [(*e.drone_ids, e.payload["distance_m"])
                if e.kind == swarm_module.SEPARATION_VIOLATION else e.drone_ids
                for e in events]
    return instant


def flat(trajectory):
    return {drone_id: [(s.t, s.as_floats()) for s in states]
            for drone_id, states in trajectory.samples.items()}


def assert_simulate_matches_reference(swarm, scenario):
    """Run ``simulate`` with the grid and with the all-pairs reference;
    returns the grid run's events once they and the samples are equal."""
    trajectory = ds.simulate(swarm, scenario)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(swarm_module, "_instant_violations", reference_hook(scenario.conditions))
        reference = ds.simulate(swarm, scenario)
    assert trajectory.events == reference.events
    assert flat(trajectory) == flat(reference)
    return trajectory.events


def crossing(pairs, seed):
    document, designed = crossing_document(seed, pairs=pairs)
    swarm, scenario, mission = ds.scenario_from_dict(document)
    # each drone flies to its own goal, as in the benchmark
    plan = ds.RoutePlan(routes=[[f"{d.id}-goal"] for d in swarm.drones],
                        lengths=[0.0] * len(swarm.drones), total_length=0.0, feasible=True)
    routes_from_plan(swarm, mission, plan)
    return swarm, scenario, designed


# --- whole runs ---------------------------------------------------------------

@pytest.mark.parametrize("name", ["hover.json", "square_route.json", "two_drone_cross.json"])
def test_bundled_scenarios_give_the_reference_events(name):
    swarm, scenario, mission = ds.load_scenario(ds.bundled_scenario_path(name))
    if mission.waypoints:
        routes_from_plan(swarm, mission, ds.optimize(mission))
    assert_simulate_matches_reference(swarm, scenario)


@pytest.mark.parametrize("seed", range(10))
def test_crossing_swarms_give_the_reference_events(seed):
    swarm, scenario, designed = crossing(100, seed)
    events = assert_simulate_matches_reference(swarm, scenario)
    # every designed pair enters the separation once, so the check is not vacuous
    assert sorted(e.drone_ids for e in events) == sorted(designed)


def test_thousand_drone_crossing_gives_the_reference_events():
    swarm, scenario, designed = crossing(500, 104729)
    events = assert_simulate_matches_reference(swarm, scenario)
    assert sorted(e.drone_ids for e in events) == sorted(designed)


def scenario_of(ticks, obstacles=(), dt=0.01):
    return ds.Scenario(physics=ds.Physics(),
                       conditions=ds.FlyingConditions(obstacles=list(obstacles)),
                       inertial_frame=ds.InertialFrame(41.1, 16.9, 10.0),
                       reference_time_step=dt, max_duration=ticks * dt,
                       recording_interval=3 * dt)


def heavier_craft():
    return dataclasses.replace(build_reference_craft(), body=ds.Body(
        mass=1.3, inertia_diagonal=ds.vec3(0.012, 0.012, 0.025)))


def units_of(swarm):
    units = swarm_module._units([swarm_module._start(i, d, 1.225)
                                 for i, d in enumerate(swarm.drones)])
    return ([u.columns.tolist() for u in units if isinstance(u, swarm_module._Block)],
            [u.index for u in units if isinstance(u, swarm_module._DroneRun)])


def test_block_and_lone_drones_interleaved_give_the_reference_events():
    # 32 drones of one airframe form a block, and 10 heavier drones, one in
    # every four, fly alone; neighbours on the line fly through each
    # other, so pairs of block and lone drones meet, and some pass
    # through an obstacle slab
    n = swarm_module._BLOCK_MIN + 10
    lone = list(range(1, 40, 4))
    drones = []
    for i in range(n):
        x, step = 3.0 * i, (1.6 if i % 2 == 0 else -1.6)
        drones.append(ds.Drone(
            id=f"m{n - i:02d}", airframe=heavier_craft() if i in lone else build_reference_craft(),
            state=level_state(x, 0.0, 5.0), route=[ds.Setpoint(ds.vec3(x + step, 0.3, 5.0))]))
    swarm = ds.Swarm(drones)
    assert units_of(swarm) == ([[i for i in range(n) if i not in lone]], lone)
    slab = ds.Box(ds.vec3(2.0, -5.0, 0.0), ds.vec3(2.2, 5.0, 10.0))
    events = assert_simulate_matches_reference(swarm, scenario_of(150, [slab]))
    pairs = {e.drone_ids for e in events if e.kind == swarm_module.SEPARATION_VIOLATION}
    ids = [d.id for d in drones]
    assert tuple(sorted((ids[0], ids[1]))) in pairs  # a block drone and a lone one
    assert tuple(sorted((ids[2], ids[3]))) in pairs  # two block drones
    assert {e.drone_ids for e in events if e.kind == swarm_module.OBSTACLE_COLLISION}


@pytest.mark.parametrize("threshold", [None, math.inf])
def test_a_grounded_block_drone_still_counts_for_separation(threshold):
    # drone 0 touches the ground in the first tick; drone 1 then flies to
    # within 2 m of where it lies, so the pair's one episode starts later
    n = swarm_module._BLOCK_MIN
    drones = [ds.Drone(id="g00", airframe=build_reference_craft(),
                       state=ds.DroneState(0.0, ds.vec3(0.0, 0.0, 0.01),
                                           velocity=ds.vec3(0.0, 0.0, -5.0)),
                       route=[ds.Setpoint(ds.vec3(0.0, 0.0, 1.0))]),
              ds.Drone(id="g01", airframe=build_reference_craft(),
                       state=level_state(4.0, 0.0, 1.0),
                       route=[ds.Setpoint(ds.vec3(1.0, 0.0, 0.8))])]
    drones += [ds.Drone(id=f"g{i:02d}", airframe=build_reference_craft(),
                        state=level_state(10.0 * i, 10.0, 5.0),
                        route=[ds.Setpoint(ds.vec3(10.0 * i, 10.0, 5.0))]) for i in range(2, n)]
    swarm = ds.Swarm(drones)
    with pytest.MonkeyPatch.context() as patch:
        if threshold is not None:
            patch.setattr(swarm_module, "_BLOCK_MIN", threshold)
        assert len(units_of(swarm)[0]) == (threshold is None)
        events = assert_simulate_matches_reference(swarm, scenario_of(200))
    left = [(e.kind, e.drone_ids, e.t) for e in events
            if e.kind in (swarm_module.GROUND_CONTACT, swarm_module.SEPARATION_VIOLATION)]
    assert [entry[0:2] for entry in left] == [(swarm_module.GROUND_CONTACT, ("g00",)),
                                             (swarm_module.SEPARATION_VIOLATION, ("g00", "g01"))]
    assert left[0][2] == 0.01 and left[1][2] > 0.1


@pytest.mark.parametrize("threshold", [1, math.inf])
def test_episodes_that_end_and_restart_are_keyed_as_by_drone_ids(threshold):
    # in each pair, drone b starts 1.5 m from drone a, flying away at
    # 2 m/s: it leaves the separation, then settles back 1.9 m away; on
    # the way it crosses an obstacle slab and comes back into it. Drone
    # ids run opposite to drone indices
    pairs = 16
    gains = ds.ControllerGains(capture_radius=1e-3)  # b flies until it settles
    drones = []
    for k in range(pairs):
        y = 10.0 * k
        for name, x, vx in (("a", 0.0, 0.0), ("b", 1.5, 2.0)):
            drones.append(ds.Drone(
                id=f"e{2 * pairs - len(drones):02d}{name}", airframe=build_reference_craft(),
                state=ds.DroneState(0.0, ds.vec3(x, y, 5.0), velocity=ds.vec3(vx, 0.0, 0.0)),
                gains=gains, route=[ds.Setpoint(ds.vec3(0.0 if name == "a" else 1.9, y, 5.0))]))
    swarm = ds.Swarm(drones)
    slab = ds.Box(ds.vec3(1.85, -5.0, 0.0), ds.vec3(1.95, 200.0, 10.0))
    scenario = scenario_of(300, [slab])
    calls = []
    check = swarm_module._instant_violations

    def recording(positions, min_separation, boxes):
        calls.append(as_lists(positions))
        return check(positions, min_separation, boxes)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(swarm_module, "_BLOCK_MIN", threshold)
        patch.setattr(swarm_module, "_instant_violations", recording)
        trajectory = ds.simulate(swarm, scenario)
    # the check after tick k runs at time (k + 1) * dt; an event is new
    # when its kind and sorted ids were not in violation at the check before
    ids = [d.id for d in drones]
    expected, active = [], set()
    for k, positions in enumerate(calls):
        instant = reference_instant_violations(ids, positions, swarm.min_separation,
                                               scenario.conditions, (k + 1) * 0.01)
        expected += [e for e in instant if (e.kind, *e.drone_ids) not in active]
        active = {(e.kind, *e.drone_ids) for e in instant}
    assert [e for e in trajectory.events if e.kind in (
        swarm_module.SEPARATION_VIOLATION, swarm_module.OBSTACLE_COLLISION)] == expected
    episodes = Counter((e.kind, e.drone_ids) for e in expected)
    assert len(episodes) == 2 * pairs and set(episodes.values()) == {2}


# --- runs in which no event is possible skip the check ------------------------

def checks_per_tick(swarm, scenario):
    """The number of ``_instant_violations`` calls in a ``simulate`` run,
    and the number of ticks the run stepped; the run's samples and events
    must equal those of a run checked with the all-pairs reference."""
    calls = []
    check = swarm_module._instant_violations

    def counting(positions, min_separation, boxes):
        calls.append(min_separation)
        return check(positions, min_separation, boxes)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(swarm_module, "_instant_violations", counting)
        trajectory = ds.simulate(swarm, scenario)
    assert trajectory.events == assert_simulate_matches_reference(swarm, scenario)
    # every drone that is not deactivated is recorded at the run's last tick
    last = max(states[-1].t for states in trajectory.samples.values())
    return len(calls), round(last / scenario.reference_time_step), trajectory.events


def kinds(events):
    return [(e.kind, e.drone_ids) for e in events if e.kind not in (
        swarm_module.WAYPOINT_REACHED, swarm_module.MISSION_COMPLETE)]


def test_one_drone_without_boxes_is_never_checked():
    drone = ds.Drone(id="solo", airframe=build_reference_craft(), state=level_state(0.0, 0.0, 5.0),
                     route=[ds.Setpoint(ds.vec3(2.0, 0.0, 5.0))])
    calls, ticks, events = checks_per_tick(ds.Swarm([drone]), scenario_of(300))
    assert (calls, kinds(events)) == (0, []) and ticks > 50


def test_zero_separation_without_boxes_is_never_checked():
    # two drones fly through each other, which 2 m of separation reports
    drones = [ds.Drone(id=name, airframe=build_reference_craft(), state=level_state(x, 0.0, 5.0),
                       route=[ds.Setpoint(ds.vec3(-x, 0.3, 5.0))])
              for name, x in (("a", -1.5), ("b", 1.5))]
    calls, ticks, events = checks_per_tick(ds.Swarm(drones, min_separation=0.0), scenario_of(300))
    assert (calls, kinds(events)) == (0, []) and ticks > 50
    calls, ticks, events = checks_per_tick(ds.Swarm(drones), scenario_of(300))
    assert calls == ticks and kinds(events) == [(swarm_module.SEPARATION_VIOLATION, ("a", "b"))]


def test_one_drone_flying_through_a_box_is_checked_every_tick():
    drone = ds.Drone(id="solo", airframe=build_reference_craft(), state=level_state(0.0, 0.0, 5.0),
                     route=[ds.Setpoint(ds.vec3(3.0, 0.0, 5.0))])
    slab = ds.Box(ds.vec3(1.4, -5.0, 0.0), ds.vec3(1.6, 5.0, 10.0))
    calls, ticks, events = checks_per_tick(ds.Swarm([drone]), scenario_of(300, [slab]))
    assert calls == ticks > 50
    assert kinds(events) == [(swarm_module.OBSTACLE_COLLISION, ("solo",))]


def test_a_finished_drone_is_checked_while_another_flies_into_it():
    # "idle" starts on its only waypoint, completes at t = 0 and holds station
    drones = [ds.Drone(id=name, airframe=build_reference_craft(), state=level_state(x, 0.0, 5.0),
                       route=[ds.Setpoint(ds.vec3(goal, 0.0, 5.0))])
              for name, x, goal in (("idle", 0.0, 0.0), ("busy", 5.0, 1.5))]
    calls, ticks, events = checks_per_tick(ds.Swarm(drones), scenario_of(300))
    assert calls == ticks > 50
    assert [(e.kind, e.drone_ids) for e in events if e.t == 0.0][-1] == \
        (swarm_module.MISSION_COMPLETE, ("idle",))
    assert kinds(events) == [(swarm_module.SEPARATION_VIOLATION, ("busy", "idle"))]


def test_a_grounded_drone_is_checked_while_another_passes_it():
    drones = [ds.Drone(id="g0", airframe=build_reference_craft(),
                       state=ds.DroneState(0.0, ds.vec3(0.0, 0.0, 0.01),
                                           velocity=ds.vec3(0.0, 0.0, -5.0)),
                       route=[ds.Setpoint(ds.vec3(0.0, 0.0, 1.0))]),
              ds.Drone(id="g1", airframe=build_reference_craft(), state=level_state(4.0, 0.0, 1.0),
                       route=[ds.Setpoint(ds.vec3(-3.0, 0.0, 1.0))])]
    calls, ticks, events = checks_per_tick(ds.Swarm(drones), scenario_of(400))
    assert calls == ticks > 50
    assert kinds(events) == [(swarm_module.GROUND_CONTACT, ("g0",)),
                             (swarm_module.SEPARATION_VIOLATION, ("g0", "g1"))]


# --- clustered swarms ---------------------------------------------------------

SEPARATIONS = [0.0, 0.5, 1.0, 2.0, 3.0, 0.1, 1.605311791776961]
MAX_CLUSTER = 40


@st.composite
def clustered(draw, sizes=(1, MAX_CLUSTER)):
    """Drones on and near the multiples of min_separation around a
    (possibly negative) origin, each placed relative to an earlier one:
    exactly min_separation away along an axis, one ulp inside it, stacked
    in z above it, or at a random offset; boxes have a drone inside or on
    a face or corner."""
    s = draw(st.sampled_from(SEPARATIONS))
    unit = s if s > 0.0 else 1.0
    origin = draw(st.sampled_from([0.0, -3.0 * unit, -1000.0 * unit, 1e5]))
    positions = []
    for _ in range(draw(st.integers(*sizes))):
        move = draw(st.sampled_from(["border", "apart", "ulp_inside", "stacked", "near"]))
        if move == "border" or not positions:
            # on a multiple of s (a cell border of a grid of side s), or a few ulps off
            p = [origin + draw(st.integers(-4, 4)) * unit for _ in range(2)]
            p = [draw(st.sampled_from([c, math.nextafter(c, -math.inf),
                                       math.nextafter(c, math.inf)])) for c in p]
            p.append(draw(st.sampled_from([5.0, 5.0 + unit])))
        else:
            p = list(draw(st.sampled_from(positions)))
            axis = draw(st.integers(0, 2))
            sign = draw(st.sampled_from([-1.0, 1.0]))
            if move == "apart":
                p[axis] += sign * unit
            elif move == "ulp_inside":
                p[axis] = math.nextafter(p[axis] + sign * unit, p[axis])
            elif move == "stacked":
                p[2] += draw(st.sampled_from([0.0, 0.25, 1.0, 4.0])) * unit
            else:
                p = [c + draw(st.floats(-1.5, 1.5)) * unit for c in p]
        positions.append(p)
    order = draw(st.permutations(range(len(positions))))
    ids = [f"d{k:02d}" for k in order]  # name order differs from index order
    boxes = []
    for _ in range(draw(st.integers(0, 2))):
        corner = draw(st.sampled_from(positions))
        low = [c - draw(st.sampled_from([0.0, 0.5])) * unit for c in corner]
        high = [c + draw(st.sampled_from([0.0, 1.0])) * unit for c in low]
        boxes.append(ds.Box(low, high))
    return ids, positions, s, ds.FlyingConditions(obstacles=boxes)


@settings(derandomize=True, database=None, deadline=None, max_examples=400,
          suppress_health_check=[HealthCheck.too_slow])
@given(clustered())
def test_clustered_swarms_give_the_reference_events(case):
    ids, positions, s, conditions = case
    assert (grid_violations(ids, positions, s, conditions, 1.5)
            == reference_instant_violations(ids, positions, s, conditions, 1.5))


@settings(derandomize=True, database=None, deadline=None, max_examples=150,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(clustered(sizes=(12, 300)))
def test_clustered_position_arrays_give_the_reference_events(case):
    ids, positions, s, conditions = case
    array = np.array(positions).T.copy()
    assert array.shape == (3, len(ids))
    assert (grid_violations(ids, array, s, conditions, 1.5)
            == reference_instant_violations(ids, positions, s, conditions, 1.5))


def test_clustered_swarm_sizes_straddle_the_all_pairs_cutoff():
    assert 2 < swarm_module._GRID_MIN <= MAX_CLUSTER


# --- float edge cases of the hash ---------------------------------------------

def assert_checks_match(positions, min_separation, expected_pairs):
    ids, conditions = [f"d{i}" for i in range(len(positions))], ds.FlyingConditions()
    lists = [list(map(float, p)) for p in positions]
    reference = reference_instant_violations(ids, lists, min_separation, conditions, 0.0)
    assert [e.drone_ids for e in reference] == expected_pairs
    array = np.array(lists).T.copy()
    for checked in (lists, array):
        assert grid_violations(ids, checked, min_separation, conditions, 0.0) == reference
    # the same (3, N) array through the sorted grid, which a few drones
    # would otherwise not reach
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(swarm_module, "_GRID_MIN", 2)
        assert grid_violations(ids, array, min_separation, conditions, 0.0) == reference


def test_pair_whose_quotients_round_apart_is_reported():
    # x / s is 1.9999999999999998 and 2.9999999999999996, yet x * (1 / s)
    # floors to 1 and 3: a grid of side exactly s hashed that way puts
    # this pair, 1.6053117917769608 apart, two columns apart
    s = 1.605311791776961
    a, b = 3.2106235835539216, 4.8159353753308825
    assert (math.floor(a * (1 / s)), math.floor(b * (1 / s))) == (1, 3)
    assert_checks_match([(a, 0.0, 5.0), (b, 0.0, 5.0)], s, [("d0", "d1")])


def test_positions_near_the_float_maximum_do_not_overflow_the_hash():
    # 1e308 / 1e-300 is infinite, and math.floor of it raises OverflowError
    with pytest.raises(OverflowError):
        math.floor(1e308 / 1e-300)
    assert_checks_match([(1e308, -1e308, 5.0), (1e308, -1e308, 5.0), (-1e308, 0.0, 5.0)],
                        1e-300, [("d0", "d1")])


def test_pair_whose_squared_distance_underflows_is_reported():
    # 1e-170 squared underflows to 0, so the all-pairs test reports this
    # pair at distance 0 although it is far more than 1e-300 apart
    assert_checks_match([(0.0, 0.0, 5.0), (1e-170, 1e-170, 5.0)], 1e-300, [("d0", "d1")])


def test_zero_separation_reports_no_pair():
    assert_checks_match([(1.0, 2.0, 5.0), (1.0, 2.0, 5.0)], 0.0, [])
