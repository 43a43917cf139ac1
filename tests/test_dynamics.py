import dataclasses
import math
import random
import warnings

import numpy as np
import pytest

import dronesim as ds
from dronesim.airframe import AirframeConstants, airframe_constants, rotor_wrench
from dronesim.backend import FLOATS, ROWS
from dronesim.dynamics import rk4_step

from conftest import (AIR_DENSITY, GRAVITY, build_reference_craft,
                      calm_environment, level_state, reference_hover_speed)

STOPPED = [0.0] * 4


def with_drag(craft, drag):
    return dataclasses.replace(craft, body=dataclasses.replace(craft.body, linear_drag=drag))


def test_free_fall_acceleration(reference_craft, calm_env):
    d_position, d_velocity, _, _ = state_derivative(level_state(z=10.0), reference_craft,
                                                    calm_env, STOPPED)
    assert np.allclose(d_velocity, [0.0, 0.0, -GRAVITY], atol=1e-15)
    assert np.all(d_position == 0.0)


def test_hover_acceleration_is_zero(reference_craft, calm_env):
    _, d_velocity, _, _ = state_derivative(level_state(z=5.0), reference_craft, calm_env,
                                           [reference_hover_speed()] * 4)
    assert np.max(np.abs(d_velocity)) < 1e-9


def test_gyroscopic_term_vanishes_on_principal_axis(reference_craft, calm_env):
    # omega parallel to a principal axis: omega x (I omega) = 0
    state = ds.DroneState(0.0, np.zeros(3), np.zeros(3), ds.quat_identity(),
                          ds.vec3(0.0, 0.0, 1.0))
    *_, d_angular_velocity = state_derivative(state, reference_craft, calm_env, STOPPED)
    assert np.all(d_angular_velocity == 0.0)


def test_ballistic_drop_matches_closed_form(reference_craft, calm_env):
    state = level_state(z=10.0)
    for _ in range(100):
        state = ds.step(state, reference_craft, calm_env, 0.01, STOPPED)
    expected = 10.0 - 0.5 * GRAVITY * 1.0 ** 2
    assert abs(state.position[2] - expected) < 1e-6
    assert state.t == pytest.approx(1.0, abs=1e-12)


def _drag_drop_error(drag: float, dt: float) -> float:
    craft = with_drag(build_reference_craft(), drag)
    env = calm_environment()
    state = level_state(z=10.0)
    for _ in range(round(1.0 / dt)):
        state = ds.step(state, craft, env, dt, STOPPED)
    # closed form for m vdot = -m g - c v from rest:
    # z(t) = z0 - (g m / c) t + (m / c) (v0 + g m / c) (1 - exp(-c t / m))
    m, g, c, t = craft.body.mass, GRAVITY, drag, 1.0
    z_exact = 10.0 - (g * m / c) * t + (m / c) * (g * m / c) * (1.0 - math.exp(-c * t / m))
    return abs(float(state.position[2]) - z_exact)


def test_rk4_fourth_order_on_drag_ballistic():
    # drag-free fall is a degree-2 polynomial that RK4 integrates exactly,
    # so the order measurement needs the linear-drag profile
    e_coarse = _drag_drop_error(0.3, 0.02)
    e_fine = _drag_drop_error(0.3, 0.01)
    assert e_coarse / e_fine == pytest.approx(16.0, abs=4.0)


def test_a_wind_given_as_a_list_steps_like_an_array(reference_craft):
    craft = with_drag(reference_craft, 0.1)
    speeds = [reference_hover_speed()] * 4
    stepped = [ds.step(level_state(z=5.0), craft,
                       ds.EnvironmentSample(GRAVITY, AIR_DENSITY, wind), 0.01, speeds)
               for wind in ([3, -1, 0.5], np.array([3.0, -1.0, 0.5]))]
    assert stepped[0].as_floats() == stepped[1].as_floats()
    assert stepped[0].velocity[0] > 0.0  # the wind pushed it


def test_constant_yaw_torque_spins_up_linearly(reference_craft, calm_env):
    # spin only the counter-clockwise diagonal: pure yaw torque 2 q s^2
    torque_z = 0.02
    per_rotor = reference_craft.rotors[0]
    q_const = per_rotor.torque_coefficient * AIR_DENSITY * per_rotor.disk_area
    speed = math.sqrt(torque_z / (2.0 * q_const))
    speeds = [speed if rotor.spin_direction == 1 else 0.0
              for rotor in reference_craft.rotors]

    state = level_state(z=0.0)
    *_, d_angular_velocity = state_derivative(state, reference_craft, calm_env, speeds)
    izz = reference_craft.body.inertia_diagonal[2]
    assert d_angular_velocity[2] == pytest.approx(torque_z / izz, rel=1e-9)

    for _ in range(1000):
        state = ds.step(state, reference_craft, calm_env, 0.001, speeds)
    assert abs(state.angular_velocity[2] - torque_z * 1.0 / izz) < 1e-6


def test_energy_conserved_without_drag_or_thrust(reference_craft, calm_env):
    state = ds.DroneState(0.0, ds.vec3(0.0, 0.0, 200.0), ds.vec3(2.0, 1.0, 4.0),
                          ds.quat_identity(), ds.vec3(0.3, 0.2, 0.1))
    mass = reference_craft.body.mass

    def energy(s):
        return 0.5 * mass * float(s.velocity @ s.velocity) + mass * GRAVITY * s.position[2]

    initial = energy(state)
    worst = 0.0
    for _ in range(5000):
        state = ds.step(state, reference_craft, calm_env, 0.001, STOPPED)
        worst = max(worst, abs(energy(state) - initial) / abs(initial))
    assert worst < 1e-8


def test_step_is_bit_deterministic(reference_craft, calm_env):
    speeds = [480.0, 470.0, 480.0, 490.0]
    state = ds.DroneState(0.0, ds.vec3(1.0, -2.0, 7.0), ds.vec3(0.2, 0.1, -0.3),
                          ds.quat_from_axis_angle([1.0, 2.0, 0.5], 0.2),
                          ds.vec3(0.1, -0.2, 0.05))
    a = ds.step(state, reference_craft, calm_env, 0.001, speeds)
    b = ds.step(state, reference_craft, calm_env, 0.001, speeds)
    assert np.array_equal(a.position, b.position)
    assert np.array_equal(a.velocity, b.velocity)
    assert np.array_equal(a.orientation, b.orientation)
    assert np.array_equal(a.angular_velocity, b.angular_velocity)


def test_divergence_raises_with_time(reference_craft, calm_env):
    state = ds.DroneState(2.5, np.zeros(3), np.zeros(3), ds.quat_identity(),
                          ds.vec3(0.0, 0.0, 1e200))
    with pytest.raises(ds.DivergenceError) as excinfo:
        ds.step(state, reference_craft, calm_env, 0.001, STOPPED)
    assert excinfo.value.t == pytest.approx(2.501)


def test_orientation_norm_stays_tight_over_many_steps(reference_craft, calm_env):
    speeds = [480.0, 500.0, 510.0, 470.0]
    state = level_state(z=50.0)
    for _ in range(20_000):
        state = ds.step(state, reference_craft, calm_env, 0.001, speeds)
        if state.position[2] < 1.0:
            break
    assert abs(float(np.linalg.norm(state.orientation)) - 1.0) < 1e-9


def test_step_rejects_non_positive_dt(reference_craft, calm_env):
    with pytest.raises(ValueError):
        ds.step(level_state(), reference_craft, calm_env, 0.0, STOPPED)


def test_drone_state_validates():
    with pytest.raises(ValueError):
        ds.DroneState(0.0, ds.vec3(0, 0, math.inf), np.zeros(3),
                      ds.quat_identity(), np.zeros(3))
    with pytest.raises(ValueError):
        ds.DroneState(0.0, np.zeros(3), np.zeros(3), [1.0, 1.0, 0.0, 0.0], np.zeros(3))


@pytest.mark.parametrize("orientation", [[1e200, 0.0, 0.0, 0.0], [1e155] * 4])
def test_drone_state_rejects_an_overflowing_orientation_without_a_numpy_warning(orientation):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ds.FieldError, match="norm is inf"):
            ds.DroneState(0.0, np.zeros(3), orientation=orientation)


# --- rk4_step against the integrator with list-built substeps ---------------

def reference_rhs(c, gravity, wind, wrench, x):
    # the right-hand side read from a whole 13-component substep state
    fz, tx, ty, tz = wrench
    _, _, _, vx, vy, vz, qw, qx, qy, qz, wx, wy, wz = x
    n2 = qw * qw + qx * qx + qy * qy + qz * qz
    s = 2.0 / n2
    f = fz / c.mass
    ax = s * (qx * qz + qy * qw) * f
    ay = s * (qy * qz - qx * qw) * f
    az = (1.0 - s * (qx * qx + qy * qy)) * f - gravity
    if c.linear_drag != 0.0:
        k = c.linear_drag / c.mass
        ax -= k * (vx - wind[0])
        ay -= k * (vy - wind[1])
        az -= k * (vz - wind[2])
    ix, iy, iz = c.inertia
    return [vx, vy, vz, ax, ay, az,
            0.5 * (-qx * wx - qy * wy - qz * wz),
            0.5 * (qw * wx + qy * wz - qz * wy),
            0.5 * (qw * wy - qx * wz + qz * wx),
            0.5 * (qw * wz + qx * wy - qy * wx),
            (tx - wy * wz * (iz - iy)) / ix,
            (ty - wz * wx * (ix - iz)) / iy,
            (tz - wx * wy * (iy - ix)) / iz]


def state_derivative(state, airframe, env, speeds):
    """The equations of motion at a state and rotor speeds, as
    :func:`reference_rhs` evaluates them (which
    ``test_rk4_step_gives_the_bits_of_list_built_substeps`` ties to
    :func:`rk4_step` bit for bit): the time derivatives of position,
    velocity, orientation and angular velocity."""
    c = airframe_constants(airframe, env.air_density)
    d = reference_rhs(c, float(env.gravity), env.wind_velocity.tolist(),
                      rotor_wrench(c, ds.set_rotor_speeds(airframe, speeds)),
                      state.as_floats())
    return np.array(d[0:3]), np.array(d[3:6]), np.array(d[6:10]), np.array(d[10:13])


def reference_rk4_step(c, env, speeds, x, dt, t_end):
    """RK4 whose substeps are built as whole states, ``x + h * k`` component
    by component; :func:`dynamics.rk4_step` must give its bits."""
    gravity = float(env.gravity)
    wind = env.wind_velocity.tolist() if c.linear_drag != 0.0 else None
    wrench = rotor_wrench(c, speeds)
    h = 0.5 * dt
    try:
        k1 = reference_rhs(c, gravity, wind, wrench, x)
        k2 = reference_rhs(c, gravity, wind, wrench, [a + h * b for a, b in zip(x, k1)])
        k3 = reference_rhs(c, gravity, wind, wrench, [a + h * b for a, b in zip(x, k2)])
        k4 = reference_rhs(c, gravity, wind, wrench, [a + dt * b for a, b in zip(x, k3)])
    except ZeroDivisionError:
        raise ds.DivergenceError(f"non-finite state at t = {t_end}", t=t_end) from None
    sixth = dt / 6.0
    B = ROWS if isinstance(x, np.ndarray) else FLOATS
    return B.renormalized([a + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
                           for a, b1, b2, b3, b4 in zip(x, k1, k2, k3, k4)], t_end)


def outcome(integrator, c, env, speeds, x, dt):
    """The stepped state's bytes (NaN payloads and zero signs included), or
    the raised message with the failed columns and the block they left."""
    with np.errstate(all="ignore"):
        try:
            result = integrator(c, env, speeds, x, dt, 0.75)
        except ds.DivergenceError as err:
            state = None if err.state is None else err.state.tobytes()
            return str(err), err.columns, state
    return np.array(result, dtype=float).tobytes()


def assert_matches_reference(c, env, states, speeds, dt=0.01):
    # each state on floats, then all of them as the columns of one block
    for x, s in zip(states, speeds):
        assert outcome(rk4_step, c, env, s, list(x), dt) == \
            outcome(reference_rk4_step, c, env, s, list(x), dt)
    block = np.array(states, dtype=float).T.copy()
    rows = [np.array(column, dtype=float) for column in zip(*speeds)]
    assert outcome(rk4_step, c, env, rows, block, dt) == \
        outcome(reference_rk4_step, c, env, rows, block, dt)


def seeded_states(seed, count):
    """Tilted, spinning, moving states, some components set to +0.0 or -0.0,
    with rotor speeds up to the ceiling."""
    rng = random.Random(seed)
    states, speeds = [], []
    for _ in range(count):
        q = [rng.gauss(0.0, 1.0) for _ in range(4)]
        n = math.sqrt(sum(v * v for v in q))
        x = ([rng.uniform(-50.0, 50.0) for _ in range(3)]
             + [rng.uniform(-15.0, 15.0) for _ in range(3)]
             + [v / n for v in q]
             + [rng.uniform(-30.0, 30.0) for _ in range(3)])
        for i in rng.sample(range(13), rng.randrange(5)):
            x[i] = rng.choice((0.0, -0.0))
        states.append(x)
        speeds.append([rng.choice((0.0, rng.uniform(0.0, 1000.0))) for _ in range(4)])
    return states, speeds


def craft_constants(drag):
    return airframe_constants(with_drag(build_reference_craft(), drag), AIR_DENSITY)


@pytest.mark.parametrize("drag, wind", [(0.0, (0.0, 0.0, 0.0)),
                                        (0.35, (4.0, -2.5, 0.75)),
                                        (1.2, (-0.0, 7.0, -3.0))])
@pytest.mark.parametrize("seed", [3, 17])
def test_rk4_step_gives_the_bits_of_list_built_substeps(drag, wind, seed):
    env = ds.EnvironmentSample(GRAVITY, AIR_DENSITY, np.array(wind))
    states, speeds = seeded_states(seed, 40)
    assert_matches_reference(craft_constants(drag), env, states, speeds)
    # large steps stretch the substeps further from x
    assert_matches_reference(craft_constants(drag), env, states, speeds, dt=0.37)


@pytest.mark.parametrize("drag, wind", [(0.0, (0.0, 0.0, 0.0)), (0.35, (-0.0, 0.0, -0.0))])
def test_signed_zeros_reach_the_stepped_state_as_in_the_reference(drag, wind):
    # components of +-0.0 and +-1.0, so that sums and products of zeros
    # keep a sign through all four stages into the stepped state
    env = ds.EnvironmentSample(GRAVITY, AIR_DENSITY, np.array(wind))
    rng = random.Random(11)
    states, speeds = [], []
    for _ in range(1500):
        x = [rng.choice((0.0, -0.0, 1.0, -1.0)) for _ in range(13)]
        q = [rng.choice((1.0, -1.0))] + [rng.choice((0.0, -0.0, 1.0, -1.0)) for _ in range(3)]
        n = math.sqrt(sum(v * v for v in q))
        x[6:10] = [v / n for v in q]
        states.append(x)
        speeds.append([rng.choice((0.0, 495.0)) for _ in range(4)])
    assert_matches_reference(craft_constants(drag), env, states, speeds)


def test_a_zero_substep_quaternion_raises_as_the_reference_does():
    # identity attitude spinning about x with a constant x torque: the last
    # substep's quaternion, x + dt * k3, is exactly zero at dt = 0.3
    c = AirframeConstants(AIR_DENSITY, 1.0, (1.0, 1.0, 1.0), 0.0,
                          ((62.85393610547089, 0.0, -1.0, 0.0),), (1e9,), None, 0)
    x = [0.0] * 6 + [1.0, 0.0, 0.0, 0.0] + [18.856180831641268, 0.0, 0.0]
    wrench, h = rotor_wrench(c, [1.0]), 0.15
    k1 = reference_rhs(c, GRAVITY, None, wrench, x)
    k2 = reference_rhs(c, GRAVITY, None, wrench, [a + h * b for a, b in zip(x, k1)])
    k3 = reference_rhs(c, GRAVITY, None, wrench, [a + h * b for a, b in zip(x, k2)])
    assert [a + 0.3 * b for a, b in zip(x, k3)][6:10] == [0.0, 0.0, 0.0, 0.0]
    env = calm_environment()
    with pytest.raises(ds.DivergenceError, match=r"^non-finite state at t = 0\.75$"):
        rk4_step(c, env, [1.0], x, 0.3, 0.75)
    assert_matches_reference(c, env, [x, x[:6] + [0.6, 0.0, 0.8, 0.0] + x[10:]],
                             [[1.0], [1.0]], dt=0.3)
    # and a state whose own quaternion is zero
    assert_matches_reference(c, env, [x[:6] + [0.0, -0.0, 0.0, 0.0] + x[10:]], [[1.0]])


def test_overflow_and_nan_inputs_fail_as_the_reference_does():
    states, speeds = seeded_states(5, 12)
    inf, nan = math.inf, math.nan
    changes = [{10: 1e200}, {3: 1e308}, {0: 1e308, 1: 1e308}, {4: inf}, {5: -inf},
               {7: nan}, {12: -nan}, {2: inf, 3: -inf}, {11: 1e160}, {6: 1e300},
               {6: 1e-140, 7: 1e-140, 8: -1e-140, 9: 1e-140}, {9: -1e-320, 8: 1e-170}]
    for x, change in zip(states, changes):
        for i, value in change.items():
            x[i] = value
    # and, in the block, beside columns that step
    good, good_speeds = seeded_states(6, 12)
    env = ds.EnvironmentSample(GRAVITY, AIR_DENSITY, np.array([3.0, -1.0, 0.5]))
    for drag in (0.0, 0.35):
        assert_matches_reference(craft_constants(drag), env, states, speeds)
        assert_matches_reference(craft_constants(drag), env, states + good, speeds + good_speeds)
