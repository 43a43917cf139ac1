import collections
import copy
import dataclasses
import logging
import math
import pickle
import random

import numpy as np
import pytest

import dronesim as ds
from dronesim.airframe import airframe_constants, allocate_speeds
from dronesim.backend import _NO_DIRECTION, FLOATS, ROWS
from dronesim.control import command_speeds, heading
from dronesim.frames import half_angle_quat, hamilton_product

from conftest import (AIR_DENSITY, GRAVITY, build_reference_craft, calm_environment,
                      level_state, reference_hover_speed)


# --- the controller composed of its parts, the reference ----------------------

def reference_thrust_and_attitude(B, mass, gains, gravity, x, target, cos_y, sin_y):
    # the outer loop: thrust and the desired roll and pitch
    px, py, pz, vx, vy, vz, qw, qx, qy, qz = x[0:10]
    kp, kd = gains.position_kp, gains.position_kd
    ax = kp * (target[0] - px) - kd * vx
    ay = kp * (target[1] - py) - kd * vy
    az = kp * (target[2] - pz) - kd * vz + gravity

    # a_des projected on the body z axis (third column of R(q))
    along_z = (ax * (2.0 * (qx * qz + qy * qw))
               + ay * (2.0 * (qy * qz - qx * qw))
               + az * (1.0 - 2.0 * (qx * qx + qy * qy)))
    thrust = mass * B.positive(along_z)

    tilt_x, tilt_y = B.direction(ax, ay, B.sqrt(ax * ax + ay * ay + az * az))
    pitch_des = B.clamp(tilt_x * cos_y + tilt_y * sin_y, gains.max_tilt)
    roll_des = B.clamp(tilt_x * sin_y - tilt_y * cos_y, gains.max_tilt)
    return thrust, roll_des, pitch_des


def reference_command_speeds(c, gains, gravity, x, target, yaw_trig):
    """The controller composed of its parts: outer loop, the attitude error
    as a Hamilton product, then the allocation; :func:`command_speeds` must
    give its bits."""
    B = ROWS if isinstance(x, np.ndarray) else FLOATS
    cos_y, sin_y, cos_half_yaw, sin_half_yaw = yaw_trig
    thrust, roll_des, pitch_des = reference_thrust_and_attitude(
        B, c.mass, gains, gravity, x, target, cos_y, sin_y)

    half_roll, half_pitch = 0.5 * roll_des, 0.5 * pitch_des
    qw, qx, qy, qz = x[6:10]
    ew, ex, ey, ez = hamilton_product((qw, -qx, -qy, -qz), half_angle_quat(
        B.cos(half_roll), B.sin(half_roll), B.cos(half_pitch), B.sin(half_pitch),
        cos_half_yaw, sin_half_yaw))
    ex, ey, ez = B.hemisphere(ew, ex, ey, ez)

    kp, kd = gains.attitude_kp, gains.attitude_kd
    ix, iy, iz = c.inertia
    return allocate_speeds(c, thrust,
                           ix * (kp * (2.0 * ex) - kd * x[10]),
                           iy * (kp * (2.0 * ey) - kd * x[11]),
                           iz * (kp * (2.0 * ez) - kd * x[12]))


def thrust_and_attitude(state, setpoint, airframe, gains, gravity):
    """Outer-loop output: (total thrust N, desired roll, pitch, yaw rad).

    The demanded acceleration is projected on the current body z axis for
    thrust, and its direction is inverted at small angles for the tilt
    setpoint, clamped to +-max_tilt.
    """
    yaw = setpoint.target_yaw
    cos_y, sin_y, _, _ = heading(yaw)
    return (*reference_thrust_and_attitude(
        FLOATS, float(airframe.body.mass), gains, gravity, state.as_floats(),
        setpoint.target_position.tolist(), cos_y, sin_y), yaw)


# --- the controller's behaviour ----------------------------------------------

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
    thrust, *_ = thrust_and_attitude(state, setpoint, reference_craft,
                                     ds.ControllerGains(), GRAVITY)
    assert thrust > reference_craft.body.mass * GRAVITY
    commands = ds.compute_commands(state, setpoint, reference_craft,
                                   ds.ControllerGains(), GRAVITY, AIR_DENSITY)
    assert np.all(commands > reference_hover_speed())


def test_huge_lateral_error_clamps_tilt_exactly(reference_craft):
    gains = ds.ControllerGains()
    state = level_state()
    setpoint = ds.Setpoint(ds.vec3(1e6, 0.0, 0.0))
    _, roll, pitch, _ = thrust_and_attitude(state, setpoint, reference_craft,
                                            gains, GRAVITY)
    assert pitch == gains.max_tilt
    assert roll == 0.0
    # and the mirrored direction saturates the other way
    setpoint = ds.Setpoint(ds.vec3(0.0, 1e6, 0.0))
    _, roll, pitch, _ = thrust_and_attitude(state, setpoint, reference_craft,
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


def test_gains_are_frozen_values():
    gains = ds.ControllerGains(position_kp=1, max_tilt=0.25)
    for name in ("position_kp", "max_tilt", "capture_radius"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(gains, name, 1.0)
    assert (gains.position_kp, gains.max_tilt) == (1.0, 0.25)
    assert type(gains.position_kp) is float
    for copied in (copy.copy(gains), copy.deepcopy(gains), pickle.loads(pickle.dumps(gains))):
        assert copied == gains and hash(copied) == hash(gains)
        assert [type(v) for v in vars(copied).values()] == [float] * 6
    edited = dataclasses.replace(gains, position_kp=3)
    assert edited.position_kp == 3.0 and type(edited.position_kp) is float
    assert (gains.position_kp, edited != gains) == (1.0, True)
    # the drones' default is one shared value
    drones = [ds.Drone(f"d{i}", build_reference_craft(), level_state()) for i in range(2)]
    assert drones[0].gains is drones[1].gains == ds.ControllerGains()


# --- command_speeds against the composed controller ---------------------------

def controller_outcome(controller, c, gains, x, target, yaw_trig, caplog):
    """The speeds' bytes, or the raised error, with the log lines it wrote."""
    caplog.clear()
    with np.errstate(all="ignore"), caplog.at_level(logging.DEBUG, logger="dronesim.airframe"):
        try:
            result = np.array(controller(c, gains, GRAVITY, x, target, yaw_trig),
                              dtype=float).tobytes()
        except Exception as err:  # noqa: BLE001 - the error is the outcome
            result = (type(err), str(err))
    return result, [r.getMessage() for r in caplog.records]


def controller_cases(seed, count, position_kp=2.0):
    """Tilted, spinning, moving states with targets and headings, some
    components +0.0 or -0.0, and edge cases of every branch: saturated
    rotors, a demand along body z that is not positive, a demanded
    acceleration too small to have a direction, a clamped tilt and an
    attitude error whose scalar part is negative."""
    rng = random.Random(seed)
    cases = []
    for n in range(count):
        q = [rng.gauss(0.0, 1.0) for _ in range(4)]
        if n % 4 == 0:  # near level, either sign of the scalar part
            q = [rng.choice((1.0, -1.0))] + [rng.gauss(0.0, 0.05) for _ in range(3)]
        norm = math.sqrt(sum(v * v for v in q))
        x = ([rng.uniform(-50.0, 50.0) for _ in range(3)]
             + [rng.uniform(-15.0, 15.0) for _ in range(3)]
             + [v / norm for v in q]
             + [rng.choice((rng.uniform(-3.0, 3.0), rng.uniform(-60.0, 60.0)))
                for _ in range(3)])
        target = [p + rng.choice((rng.uniform(-2.0, 2.0), rng.uniform(-500.0, 500.0)))
                  for p in x[0:3]]
        yaw = rng.choice((0.0, -0.0, math.pi, rng.uniform(-4.0, 4.0)))
        for i in rng.sample(range(13), rng.randrange(5)):
            x[i] = rng.choice((0.0, -0.0))
        for i in rng.sample(range(3), rng.randrange(2)):
            target[i] = rng.choice((0.0, -0.0))
        cases.append((x, target, heading(yaw)))
    # a demanded acceleration of zero: at rest, with the target g / kp below
    # (kp a power of two, so kp * -(g / kp) + g == 0.0), and a lateral error
    # of 1e-12 m
    still = [3.0, -2.0, GRAVITY / position_kp, 0.0, -0.0, 0.0, 1.0, 0.0, 0.0, 0.0,
             0.0, 0.0, 0.0]
    cases.append((still, [3.0, -2.0, 0.0], heading(0.0)))
    cases.append((still, [3.0 + 1e-12, -2.0, 0.0], heading(0.3)))
    cases.append((still[:6] + [0.0, 1.0, 0.0, 0.0] + still[10:], [3.0, -2.0, 0.0],
                  heading(-0.0)))
    # upside down and asked to climb: no thrust; far off sideways: clamped tilt
    cases.append(([0.0] * 6 + [0.0, 1.0, 0.0, 0.0] + [0.0] * 3, [0.0, 0.0, 10.0],
                  heading(0.0)))
    for target in ([1e6, 0.0, 0.0], [0.0, 1e6, 0.0], [-1e6, -1e6, 0.0]):
        cases.append(([0.0] * 6 + [1.0, 0.0, 0.0, 0.0] + [0.0] * 3, target, heading(0.7)))
    # the attitude the level, yaw-pi setpoint asks for is the negated identity
    cases.append(([0.0] * 6 + [-1.0, 0.0, 0.0, 0.0] + [0.0] * 3, [0.0, 0.0, 0.0],
                  heading(math.pi)))
    return cases


def branches_taken(gains, x, target, yaw_trig):
    """The branches of the controller that a case on floats takes."""
    thrust, roll, pitch = reference_thrust_and_attitude(
        FLOATS, 1.0, gains, GRAVITY, x, target, yaw_trig[0], yaw_trig[1])
    kp, kd = gains.position_kp, gains.position_kd
    a = [kp * (target[i] - x[i]) - kd * x[3 + i] for i in range(3)]
    a[2] += GRAVITY
    qw, qx, qy, qz = x[6:10]
    ew = hamilton_product((qw, -qx, -qy, -qz), half_angle_quat(
        math.cos(0.5 * roll), math.sin(0.5 * roll), math.cos(0.5 * pitch),
        math.sin(0.5 * pitch), yaw_trig[2], yaw_trig[3]))[0]
    zeros = {math.copysign(1.0, v) for v in x + list(target) if v == 0.0}
    return {"no thrust": thrust == 0.0,
            "no direction": math.sqrt(sum(v * v for v in a)) < _NO_DIRECTION,
            "clamped tilt": gains.max_tilt in (abs(roll), abs(pitch)),
            "ew < 0": ew < 0.0,
            "+0.0 and -0.0": zeros == {1.0, -1.0}}


GAINS = [ds.ControllerGains(),
         ds.ControllerGains(position_kp=0.5, position_kd=0.0, attitude_kp=250.0,
                            attitude_kd=0.5, max_tilt=0.3)]


@pytest.mark.parametrize("gains", GAINS, ids=["default", "stiff"])
@pytest.mark.parametrize("seed", [2, 29])
def test_command_speeds_gives_the_bits_of_the_composed_controller(gains, seed, caplog):
    c = airframe_constants(build_reference_craft(), AIR_DENSITY)
    cases = controller_cases(seed, 300, gains.position_kp)
    taken = collections.Counter()
    for x, target, yaw_trig in cases:
        expected = controller_outcome(reference_command_speeds, c, gains, x, target,
                                      yaw_trig, caplog)
        assert controller_outcome(command_speeds, c, gains, x, target, yaw_trig,
                                  caplog) == expected
        taken.update({"saturated": bool(expected[1]),
                      **branches_taken(gains, x, target, yaw_trig)})
    # every case as one column of a (13, n) block
    block = np.array([x for x, _, _ in cases]).T.copy()
    targets = np.array([t for _, t, _ in cases]).T.copy()
    headings = np.array([h for _, _, h in cases]).T.copy()
    assert controller_outcome(command_speeds, c, gains, block, targets, headings, caplog) == \
        controller_outcome(reference_command_speeds, c, gains, block, targets, headings,
                           caplog)
    # the cases take every branch, and its other side
    assert all(0 < taken[branch] < len(cases) for branch in (
        "saturated", "no thrust", "no direction", "clamped tilt", "ew < 0", "+0.0 and -0.0")), \
        taken


def test_command_speeds_raises_on_a_rank_deficient_layout_as_the_reference(caplog):
    craft = build_reference_craft()
    flat = dataclasses.replace(craft, rotors=tuple(
        dataclasses.replace(r, position_body=[0.2, 0.0, 0.0]) for r in craft.rotors))
    c = airframe_constants(flat, AIR_DENSITY)
    x, target, yaw_trig = controller_cases(4, 1)[0]
    outcome = controller_outcome(command_speeds, c, GAINS[0], x, target, yaw_trig, caplog)
    assert outcome == controller_outcome(reference_command_speeds, c, GAINS[0], x, target,
                                         yaw_trig, caplog)
    assert outcome[0][0] is ds.ConfigurationError
