import numpy as np
import pytest

import dronesim as ds

from conftest import (AIR_DENSITY, GRAVITY, calm_environment, level_state,
                      reference_hover_speed)


def test_hover_at_target_commands_hover_speeds(reference_craft):
    state = level_state(z=5.0)
    setpoint = ds.Setpoint(ds.vec3(0.0, 0.0, 5.0))
    commands = ds.compute_commands(state, setpoint, reference_craft,
                                   ds.ControllerGains(), GRAVITY, AIR_DENSITY)
    assert np.allclose(commands, reference_hover_speed(), rtol=1e-12)
    assert commands[0] == pytest.approx(495.23, abs=5e-3)


def test_target_above_demands_more_than_hover_thrust(reference_craft):
    state = level_state(z=0.0)
    setpoint = ds.Setpoint(ds.vec3(0.0, 0.0, 10.0))
    thrust, *_ = ds.thrust_and_attitude(state, setpoint, reference_craft,
                                        ds.ControllerGains(), GRAVITY)
    assert thrust > reference_craft.body.mass * GRAVITY
    commands = ds.compute_commands(state, setpoint, reference_craft,
                                   ds.ControllerGains(), GRAVITY, AIR_DENSITY)
    assert np.all(commands > reference_hover_speed())


def test_huge_lateral_error_clamps_tilt_exactly(reference_craft):
    gains = ds.ControllerGains()
    state = level_state()
    setpoint = ds.Setpoint(ds.vec3(1e6, 0.0, 0.0))
    _, roll, pitch, _ = ds.thrust_and_attitude(state, setpoint, reference_craft,
                                               gains, GRAVITY)
    assert pitch == gains.max_tilt
    assert roll == 0.0
    # and the mirrored direction saturates the other way
    setpoint = ds.Setpoint(ds.vec3(0.0, 1e6, 0.0))
    _, roll, pitch, _ = ds.thrust_and_attitude(state, setpoint, reference_craft,
                                               gains, GRAVITY)
    assert roll == -gains.max_tilt
    assert pitch == 0.0


def test_commands_are_deterministic(reference_craft):
    state = ds.DroneState(0.0, ds.vec3(1.0, 2.0, 3.0), ds.vec3(0.1, -0.2, 0.3),
                          ds.quat_from_axis_angle([0.1, 0.9, 0.2], 0.15),
                          ds.vec3(0.05, 0.02, -0.01))
    setpoint = ds.Setpoint(ds.vec3(5.0, -2.0, 8.0), target_yaw=0.4)
    a = ds.compute_commands(state, setpoint, reference_craft, ds.ControllerGains(),
                            GRAVITY, AIR_DENSITY)
    b = ds.compute_commands(state, setpoint, reference_craft, ds.ControllerGains(),
                            GRAVITY, AIR_DENSITY)
    assert np.array_equal(a, b)


def test_waypoint_reached_boundaries():
    gains = ds.ControllerGains(capture_radius=0.5)
    target = ds.Setpoint(ds.vec3(0.0, 0.0, 0.0))
    assert ds.waypoint_reached(level_state(), target, gains)
    assert ds.waypoint_reached(level_state(x=0.5), target, gains)  # inclusive edge
    assert not ds.waypoint_reached(level_state(x=1.0), target, gains)


def test_closed_loop_hover_holds_position(reference_craft):
    # start exactly on target at rest: 10 s of closed loop stays within 1 mm
    env = calm_environment()
    gains = ds.ControllerGains()
    target = ds.Setpoint(ds.vec3(0.0, 0.0, 5.0))
    state = level_state(z=5.0)
    worst = 0.0
    for _ in range(10_000):
        commands = ds.compute_commands(state, target, reference_craft, gains,
                                       GRAVITY, AIR_DENSITY)
        state = ds.step(state, reference_craft, env, 0.001, commands)
        worst = max(worst, float(np.linalg.norm(state.position - target.target_position)))
    assert worst < 1e-3


def test_vertical_step_is_captured_quickly(reference_craft):
    env = calm_environment()
    gains = ds.ControllerGains()
    target = ds.Setpoint(ds.vec3(0.0, 0.0, 5.0))
    state = level_state(z=0.0)
    captured_at = None
    t = 0.0
    while t < 10.0:
        commands = ds.compute_commands(state, target, reference_craft, gains,
                                       GRAVITY, AIR_DENSITY)
        assert np.all(commands >= 0.0)
        assert np.all(commands <= reference_craft.rotors[0].max_speed)
        state = ds.step(state, reference_craft, env, 0.001, commands)
        t += 0.001
        if ds.waypoint_reached(state, target, gains):
            captured_at = t
            break
    assert captured_at is not None and captured_at < 10.0


def test_gains_validation():
    with pytest.raises(ValueError):
        ds.ControllerGains(position_kp=-1.0)
    with pytest.raises(ValueError):
        ds.ControllerGains(max_tilt=2.0)
    with pytest.raises(ValueError):
        ds.ControllerGains(capture_radius=0.0)
    with pytest.raises(ValueError):
        ds.Setpoint(ds.vec3(0, 0, 0), target_yaw=float("nan"))
