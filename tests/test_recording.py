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
"""

import math

import pytest

import dronesim as ds
from dronesim import swarm as swarm_module

from conftest import build_reference_craft, level_state

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
