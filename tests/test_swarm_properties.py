"""Property tests of the swarm clock and attitude.

On small generated swarms (1-3 drones, dt of 5, 10 or 20 ms, 0-3
waypoints each, at most 200 ticks) every sample and event time is an
exact tick multiple, ``t == round(t / dt) * dt``, and every recorded
orientation is a unit quaternion to within 1e-9. Examples are
derandomized so that every run checks the same cases.
"""

import math

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import dronesim as ds

from conftest import build_reference_craft

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60,
                    suppress_health_check=[HealthCheck.too_slow])


def points(low: float, high: float):
    # drones and waypoints share a few metres, so that captures and
    # separation episodes happen within the flight
    return st.tuples(st.floats(-4.0, 4.0), st.floats(-4.0, 4.0), st.floats(low, high))


@st.composite
def flights(draw):
    dt = draw(st.sampled_from([0.005, 0.01, 0.02]))
    drones = []
    for i in range(draw(st.integers(1, 3))):
        state = ds.DroneState(
            t=0.0, position=draw(points(0.2, 6.0)), velocity=draw(points(-2.0, 2.0)),
            orientation=ds.quat_from_euler(*draw(st.tuples(*[st.floats(-0.3, 0.3)] * 3))),
            angular_velocity=draw(points(-1.0, 1.0)))
        route = [ds.Setpoint(ds.vec3(*p)) for p in draw(st.lists(points(0.5, 6.0), max_size=3))]
        drones.append(ds.Drone(id=f"d{i}", airframe=build_reference_craft(), state=state,
                               gains=ds.ControllerGains(), route=route))
    obstacles = [ds.Box(low, [c + 2.0 for c in low])
                 for low in draw(st.lists(points(0.0, 4.0), max_size=1))]
    scenario = ds.Scenario(
        physics=ds.Physics(), conditions=ds.FlyingConditions(obstacles=obstacles),
        inertial_frame=ds.InertialFrame(41.1, 16.9, 10.0), reference_time_step=dt,
        max_duration=draw(st.integers(1, 200)) * dt,
        recording_interval=draw(st.integers(1, 5)) * dt)
    return ds.Swarm(drones, min_separation=2.0), scenario


@PROPERTY
@given(flights())
def test_times_are_tick_multiples_and_quaternions_unit(flight):
    swarm, scenario = flight
    dt = scenario.reference_time_step
    trajectory = ds.simulate(swarm, scenario)
    samples = [s for track in trajectory.samples.values() for s in track]
    for t in [s.t for s in samples] + [e.t for e in trajectory.events]:
        assert t == round(t / dt) * dt
    for s in samples:
        assert math.isclose(float(np.linalg.norm(s.orientation)), 1.0, rel_tol=0.0, abs_tol=1e-9)
