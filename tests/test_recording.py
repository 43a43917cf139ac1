"""Samples are taken on the record ticks, and each drone's last state once more.

``simulate`` records every drone at each tick k with
``k % record_every == 0``, where ``record_every`` is the recording
interval in ticks, up to the drone's last tick, and then records the
drone's last tick if it fell between two records. Each test derives
those times from the events and the rule alone and requires the sample
times to equal them with ``==``: for a drone deactivated between two
records (one that had already finished its route, so the run must
count it out once), for a flight whose last tick falls between records,
and for a record interval longer than the whole run. Every test runs
with every drone alone and with every group stepped as a block.

The samples are held as float64 tables: a block's tables must hold the
bits of its drones flown alone, also for drones that leave the block,
finish early or are caught by the final flush, and a sample recorded
every tick may hold at most 130 B.
"""

import math
import tracemalloc

import pytest

import dronesim as ds
from dronesim import swarm as swarm_module
from dronesim.cli import routes_from_plan

from conftest import build_reference_craft, level_state
from workloads import crossing_document

DT = 0.01


def scenario_of(ticks, record_every):
    return ds.Scenario(physics=ds.Physics(), conditions=ds.FlyingConditions(),
                       inertial_frame=ds.InertialFrame(41.1, 16.9, 10.0),
                       reference_time_step=DT, max_duration=ticks * DT,
                       recording_interval=record_every * DT)


def drone(name, state, *targets):
    return ds.Drone(id=name, airframe=build_reference_craft(), state=state,
                    route=[ds.Setpoint(ds.vec3(*p)) for p in targets])


def rule_times(last, record_every):
    """The times ``tick % record_every == 0`` gives a drone whose last tick
    is ``last``, with that tick flushed when it fell between records."""
    ticks = [k for k in range(last + 1) if k % record_every == 0]
    if ticks[-1] != last:
        ticks.append(last)
    return [k * DT for k in ticks]


def fly(swarm, scenario, threshold):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(swarm_module, "_BLOCK_MIN", threshold)
        trajectory = ds.simulate(swarm, scenario)
    times = {i: [s.t for s in states] for i, states in trajectory.samples.items()}
    ends = {(e.kind, e.drone_ids[0]): round(e.t / DT) for e in trajectory.events
            if e.kind in (swarm_module.MISSION_COMPLETE, swarm_module.GROUND_CONTACT)}
    return times, ends


@pytest.mark.parametrize("threshold", [1, math.inf])
def test_a_drone_deactivated_between_records(threshold):
    # "diver" starts on its waypoint, so it finishes at t = 0, then touches
    # the ground; "flyer" flies on until it captures its waypoint
    every = 5
    diver = drone("diver", ds.DroneState(0.0, ds.vec3(0.0, 0.0, 0.2),
                                         velocity=ds.vec3(0.0, 0.0, -3.0)), (0.0, 0.0, 0.2))
    flyer = drone("flyer", level_state(10.0, 0.0, 5.0), (12.0, 0.0, 5.0))
    times, ends = fly(ds.Swarm([diver, flyer]), scenario_of(1000, every), threshold)
    assert ends[(swarm_module.MISSION_COMPLETE, "diver")] == 0
    grounded = ends[(swarm_module.GROUND_CONTACT, "diver")]
    complete = ends[(swarm_module.MISSION_COMPLETE, "flyer")]
    assert grounded % every and complete % every and every < grounded < complete < 1000
    assert times == {"diver": rule_times(grounded, every), "flyer": rule_times(complete, every)}


@pytest.mark.parametrize("threshold", [1, math.inf])
def test_a_flight_whose_last_tick_falls_between_records(threshold):
    every = 9
    solo = drone("solo", level_state(0.0, 0.0, 5.0), (1.0, 1.0, 5.5), (2.0, 0.0, 5.0))
    times, ends = fly(ds.Swarm([solo]), scenario_of(1000, every), threshold)
    complete = ends[(swarm_module.MISSION_COMPLETE, "solo")]
    assert complete % every and every < complete < 1000
    assert times == {"solo": rule_times(complete, every)}


@pytest.mark.parametrize("threshold", [1, math.inf])
def test_a_record_interval_longer_than_the_run(threshold):
    # the drones are still flying when the run ends at tick 40
    swarm = ds.Swarm([drone("near", level_state(0.0, 0.0, 5.0), (30.0, 0.0, 5.0)),
                      drone("far", level_state(0.0, 10.0, 5.0), (30.0, 10.0, 5.0))])
    times, ends = fly(swarm, scenario_of(40, 100), threshold)
    assert ends == {}
    assert times == {"near": [0.0, 40 * DT], "far": [0.0, 40 * DT]}


def a_block_that_loses_drones():
    # a block flying to far waypoints, of which four drones touch the
    # ground at ticks 1-4 (3 is a record tick) and two, spun off their
    # axes, overflow stepping from tick 2 (between records) and from tick 3
    # (a record tick)
    drones = [drone(f"k{i:02d}", level_state(4.0 * i, 0.0, 5.0), (4.0 * i, 100.0, 5.0))
              for i in range(swarm_module._BLOCK_MIN + 6)]
    for i, z in ((3, 0.01), (9, 0.06), (10, 0.11), (20, 0.16)):
        drones[i].state = ds.DroneState(0.0, ds.vec3(4.0 * i, 0.0, z),
                                        velocity=ds.vec3(0.0, 0.0, -5.0))
    for i, w in ((5, 1e6), (12, 1e5)):
        drones[i].state = ds.DroneState(0.0, ds.vec3(4.0 * i, 0.0, 5.0),
                                        angular_velocity=ds.vec3(w, 3.0 * w, -2.0 * w))
    return ds.Swarm(drones), scenario_of(30, 3)


def a_block_that_finishes_early():
    # every other drone starts on its waypoint and finishes at t = 0, the
    # rest capture a near one, and the run ends when the last is done
    drones = [drone(f"e{i:02d}", level_state(4.0 * i, 0.0, 5.0),
                    (4.0 * i, 0.0 if i % 2 else 3.0, 5.0))
              for i in range(swarm_module._BLOCK_MIN + 4)]
    return ds.Swarm(drones), scenario_of(1000, 11)


def a_block_caught_by_the_final_flush():
    # still flying when the run ends at tick 40, between records
    drones = [drone(f"f{i:02d}", level_state(4.0 * i, 0.0, 5.0), (4.0 * i, 50.0, 5.0))
              for i in range(swarm_module._BLOCK_MIN + 2)]
    return ds.Swarm(drones), scenario_of(40, 3)


def exact(trajectory):
    # each drone's rows, every number as its exact text (float.hex takes
    # Python floats alone and tells -0.0 from 0.0)
    return {drone_id: [[v.hex() for v in row] for row in trajectory.rows(drone_id)]
            for drone_id in trajectory.samples}


# per case: the (kind, tick) of each drone's last event and the run's last tick
LEAVING = {
    a_block_that_loses_drones: (
        [(swarm_module.GROUND_CONTACT, k) for k in (1, 2, 3, 4)]
        + [(swarm_module.DIVERGENCE, 3), (swarm_module.DIVERGENCE, 4)], 30),
    a_block_that_finishes_early: (
        [(swarm_module.MISSION_COMPLETE, 0)] * 18 + [(swarm_module.MISSION_COMPLETE, 210)] * 18,
        210),
    a_block_caught_by_the_final_flush: ([], 40),
}


@pytest.mark.parametrize("case", list(LEAVING))
def test_a_block_records_the_bits_of_its_drones_flown_alone(case):
    swarm, scenario = case()
    flown = {}
    for threshold in (math.inf, 1, swarm_module._BLOCK_MIN):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(swarm_module, "_BLOCK_MIN", threshold)
            flown[threshold] = ds.simulate(swarm, scenario)
    alone = flown.pop(math.inf)
    ends, last = LEAVING[case]
    kinds = (swarm_module.GROUND_CONTACT, swarm_module.DIVERGENCE, swarm_module.MISSION_COMPLETE)
    assert sorted((e.kind, round(e.t / DT)) for e in alone.events if e.kind in kinds) == sorted(ends)
    expected = exact(alone)
    assert max(round(float.fromhex(rows[-1][0]) / DT) for rows in expected.values()) == last
    for trajectory in flown.values():
        assert trajectory.events == alone.events
        assert exact(trajectory) == expected
        # rows are new lists, equal to the rows of the drone's states
        for drone_id in trajectory.samples:
            rows = trajectory.rows(drone_id)
            rows[0][0] = -1.0
            assert [row[0] for row in trajectory.rows(drone_id)][0] == 0.0
            assert trajectory.rows(drone_id) == [[s.t, *s.as_floats()]
                                                 for s in trajectory.samples[drone_id]]


@pytest.mark.parametrize("pairs, threshold", [(16, swarm_module._BLOCK_MIN), (2, math.inf)])
def test_a_recorded_sample_holds_at_most_130_bytes(pairs, threshold):
    # a crossing recorded every tick for 120 ticks, its 32 drones in one
    # block or its 4 drones each alone; held is what the run leaves
    # allocated, its events included (a list of 14 floats held 509 B)
    document, _ = crossing_document(7, pairs=pairs, ticks=120)
    document["simulation"]["recording_interval"] = DT
    swarm, scenario, mission = ds.scenario_from_dict(document)
    routes_from_plan(swarm, mission, ds.RoutePlan(
        routes=[[f"{d.id}-goal"] for d in swarm.drones], lengths=[0.0] * len(swarm.drones),
        total_length=0.0, feasible=True))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(swarm_module, "_BLOCK_MIN", threshold)
        ds.simulate(swarm, scenario)  # what a first run caches is not the samples'
        tracemalloc.start()
        try:
            trajectory = ds.simulate(swarm, scenario)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
    samples = sum(len(trajectory.table(d)) for d in trajectory.samples)
    assert samples == 2 * pairs * 121
    assert held <= 130 * samples, held / samples
