"""6-DOF rigid-body flight dynamics and its fixed-step RK4 integrator.

Equations of motion, with R(q) the body-to-world rotation, ω the body
angular rate and I the diagonal inertia tensor:

    ṗ = v
    m v̇ = R(q) F_body − m g ẑ − c_drag (v − v_wind)
    q̇ = ½ q ⊗ (0, ω)
    I ω̇ = τ_body − ω × (I ω)

F_body and τ_body come from the rotor speeds, held over a step; wind
couples in through the linear drag term only. States advance with
classical fixed-step RK4; the quaternion is renormalized once per step.
The integrator runs on 13 plain floats, or on the rows of a (13, n)
block of drones with one airframe (:func:`rk4_step`, its branches
through :mod:`dronesim.backend`), with the airframe's constants built
once (:func:`airframe_constants`);
:func:`step` and :func:`state_derivative` wrap it for DroneState
values and rotor speeds passed in.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy import ndarray

from .airframe import (Airframe, AirframeConstants, airframe_constants, rotor_wrench,
                       set_rotor_speeds)
from .backend import FLOATS, ROWS, DivergenceError
from .frames import FieldError, as_quat, as_vec3, finite, positive, quat_identity, quat_norm
from .scenario import EnvironmentSample

# Orientation guard: a loose sanity bound for constructed states. The
# integrator itself keeps the norm within ~1e-15 of unity per step.
_ORIENTATION_NORM_TOL = 1e-6


def check_unit_orientation(q) -> None:
    """Raise FieldError unless the finite quaternion q is a unit quaternion
    to within the tolerance every constructed state is held to."""
    n = quat_norm(q)
    if abs(n - 1.0) > _ORIENTATION_NORM_TOL:
        raise FieldError(f"orientation must be a unit quaternion, norm is {n}", "orientation")


@dataclass
class DroneState:
    """Full kinematic state of one drone at time t.

    position/velocity are in the world frame, angular_velocity in the
    body frame, orientation the body-to-world unit quaternion. A state
    given only t and position is at rest and level.
    """

    t: float
    position: np.ndarray
    velocity: np.ndarray = field(default_factory=lambda: np.zeros(3))
    orientation: np.ndarray = field(default_factory=quat_identity)
    angular_velocity: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        self.position = as_vec3(self.position, "position", "position")
        self.velocity = as_vec3(self.velocity, "velocity", "velocity")
        self.orientation = as_quat(self.orientation, "orientation", "orientation")
        self.angular_velocity = as_vec3(self.angular_velocity, "angular_velocity",
                                        "angular_velocity")
        self.t = finite(self.t, "t")
        check_unit_orientation(self.orientation)

    def copy(self) -> "DroneState":
        return DroneState(self.t, self.position.copy(), self.velocity.copy(),
                          self.orientation.copy(), self.angular_velocity.copy())

    def as_floats(self) -> list[float]:
        """The 13 components as plain floats: position, velocity,
        orientation, angular velocity."""
        return (self.position.tolist() + self.velocity.tolist()
                + self.orientation.tolist() + self.angular_velocity.tolist())

    @classmethod
    def from_checked(cls, t: float, x) -> "DroneState":
        """Build from 13 floats that are already checked (finite, unit
        quaternion), such as a recorded or loaded sample, without
        validating them again."""
        state = cls.__new__(cls)
        state.t = t
        state.position = np.array(x[0:3])
        state.velocity = np.array(x[3:6])
        state.orientation = np.array(x[6:10])
        state.angular_velocity = np.array(x[10:13])
        return state


def _rhs(c: AirframeConstants, gravity: float, wind, wrench, x, h: float = 0.0,
         k=None) -> list[float]:
    # Right-hand side at the 13 state floats x or, given the previous RK4
    # stage k, at the substep x + h * k. No position is read, so only the
    # ten other substep components are formed, each as x[i] + h * k[i];
    # the first stage reads x itself, as x + 0.0 * k would turn -0.0 into
    # 0.0 and an infinity into NaN. Rotor speeds are held constant over a
    # step, so the caller evaluates the wrench once. Non-finite components
    # propagate (rk4_step turns them into a DivergenceError). The
    # quaternion may be slightly off-unit during RK4 substeps; the 2/n^2
    # factor applies the rotation of its normalized form.
    fz, tx, ty, tz = wrench
    _, _, _, vx, vy, vz, qw, qx, qy, qz, wx, wy, wz = x
    if k is not None:
        _, _, _, kvx, kvy, kvz, kqw, kqx, kqy, kqz, kwx, kwy, kwz = k
        vx, vy, vz = vx + h * kvx, vy + h * kvy, vz + h * kvz
        qw, qx, qy, qz = qw + h * kqw, qx + h * kqx, qy + h * kqy, qz + h * kqz
        wx, wy, wz = wx + h * kwx, wy + h * kwy, wz + h * kwz
    n2 = qw * qw + qx * qx + qy * qy + qz * qz
    s = 2.0 / n2
    # thrust acts along body +z: world direction is the third matrix column
    f = fz / c.mass
    ax = s * (qx * qz + qy * qw) * f
    ay = s * (qy * qz - qx * qw) * f
    az = (1.0 - s * (qx * qx + qy * qy)) * f - gravity
    if c.linear_drag != 0.0:
        kd = c.linear_drag / c.mass
        ax -= kd * (vx - wind[0])
        ay -= kd * (vy - wind[1])
        az -= kd * (vz - wind[2])

    ix, iy, iz = c.inertia
    # omega x (I omega) for a diagonal inertia tensor
    return [vx, vy, vz, ax, ay, az,
            0.5 * (-qx * wx - qy * wy - qz * wz),
            0.5 * (qw * wx + qy * wz - qz * wy),
            0.5 * (qw * wy - qx * wz + qz * wx),
            0.5 * (qw * wz + qx * wy - qy * wx),
            (tx - wy * wz * (iz - iy)) / ix,
            (ty - wz * wx * (ix - iz)) / iy,
            (tz - wx * wy * (iy - ix)) / iz]


def rk4_step(c: AirframeConstants, env: EnvironmentSample, speeds, x,
             dt: float, t_end: float) -> list[float]:
    """One RK4 step of the 13 state floats ``x`` with rotor speeds held.

    The law behind :func:`step`. Raises DivergenceError, stamped with
    ``t_end``, if the result is non-finite or its quaternion collapsed.
    ``x`` may also be a (13, n) block of drones sharing ``c``, with one
    row per rotor speed: then it returns the stepped block, or raises
    with the failed columns.
    """
    gravity = float(env.gravity)
    wind = env.wind_velocity.tolist() if c.linear_drag != 0.0 else None
    wrench = rotor_wrench(c, speeds)
    h = 0.5 * dt
    try:
        k1 = _rhs(c, gravity, wind, wrench, x)
        k2 = _rhs(c, gravity, wind, wrench, x, h, k1)
        k3 = _rhs(c, gravity, wind, wrench, x, h, k2)
        k4 = _rhs(c, gravity, wind, wrench, x, dt, k3)
    except ZeroDivisionError:  # a substep quaternion of zero norm
        raise DivergenceError(f"non-finite state at t = {t_end}", t=t_end) from None
    sixth = dt / 6.0
    B = ROWS if isinstance(x, ndarray) else FLOATS
    # x[i] + sixth * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]), written out
    # per component: on floats a comprehension over zip costs 1.7 times as much
    return B.renormalized([
        x[0] + sixth * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0]),
        x[1] + sixth * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1]),
        x[2] + sixth * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2]),
        x[3] + sixth * (k1[3] + 2.0 * k2[3] + 2.0 * k3[3] + k4[3]),
        x[4] + sixth * (k1[4] + 2.0 * k2[4] + 2.0 * k3[4] + k4[4]),
        x[5] + sixth * (k1[5] + 2.0 * k2[5] + 2.0 * k3[5] + k4[5]),
        x[6] + sixth * (k1[6] + 2.0 * k2[6] + 2.0 * k3[6] + k4[6]),
        x[7] + sixth * (k1[7] + 2.0 * k2[7] + 2.0 * k3[7] + k4[7]),
        x[8] + sixth * (k1[8] + 2.0 * k2[8] + 2.0 * k3[8] + k4[8]),
        x[9] + sixth * (k1[9] + 2.0 * k2[9] + 2.0 * k3[9] + k4[9]),
        x[10] + sixth * (k1[10] + 2.0 * k2[10] + 2.0 * k3[10] + k4[10]),
        x[11] + sixth * (k1[11] + 2.0 * k2[11] + 2.0 * k3[11] + k4[11]),
        x[12] + sixth * (k1[12] + 2.0 * k2[12] + 2.0 * k3[12] + k4[12])], t_end)


def state_derivative(state: DroneState, airframe: Airframe, env: EnvironmentSample,
                     speeds) -> tuple[ndarray, ndarray, ndarray, ndarray]:
    """Evaluate the equations of motion at the given state and rotor speeds
    (checked by :func:`set_rotor_speeds`): the time derivatives of
    position, velocity, orientation and angular velocity."""
    c = airframe_constants(airframe, env.air_density)
    d = _rhs(c, float(env.gravity), env.wind_velocity.tolist(),
             rotor_wrench(c, set_rotor_speeds(airframe, speeds)), state.as_floats())
    return np.array(d[0:3]), np.array(d[3:6]), np.array(d[6:10]), np.array(d[10:13])


def step(state: DroneState, airframe: Airframe, env: EnvironmentSample,
         dt: float, speeds) -> DroneState:
    """Advance one classical RK4 step of size dt and renormalize orientation.

    The rotor ``speeds``, checked by :func:`set_rotor_speeds`, are held
    constant across the step (zero-order hold). Deterministic: identical
    inputs produce bit-identical outputs. Raises DivergenceError (with
    the end-of-step time) if any component of the result is non-finite.
    """
    dt = positive(dt, "dt")
    t_end = state.t + dt
    x = rk4_step(airframe_constants(airframe, env.air_density), env,
                 set_rotor_speeds(airframe, speeds), state.as_floats(), dt, t_end)
    return DroneState.from_checked(t_end, x)
