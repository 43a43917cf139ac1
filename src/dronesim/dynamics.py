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
The equations live only in the integrator, :func:`rk4_step`, which
spells them out in each of its four stages, so a step makes no call per
stage and builds no list but the stepped state. It runs on 13 plain
floats, or on the rows of a (13, n) block of drones with one rotor
layout, whose constants are rows too (its branches through
:mod:`dronesim.backend`), with each airframe's constants built once
(:func:`airframe_constants`); :func:`step` wraps it for DroneState
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
        check_unit_orientation(self.orientation.tolist())  # floats: no numpy overflow warning

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


def rk4_step(c: AirframeConstants, env: EnvironmentSample, speeds, x,
             dt: float, t_end: float) -> list[float]:
    """One RK4 step of the 13 state floats ``x`` with rotor speeds held.

    The law behind :func:`step`. Raises DivergenceError, stamped with
    ``t_end``, if the result is non-finite or its quaternion collapsed.
    ``x`` may also be a (13, n) block of drones, with ``c`` the block's
    constants (a row per number; one drone's floats serve every column)
    and one row per rotor speed: then it returns the stepped block, or
    raises with the failed columns.
    """
    # The four stages are written out, each derivative named by its stage:
    # p2x is stage 2's position rate (its substep's velocity), a2x its
    # acceleration, q2w its quaternion rate, r2x its angular acceleration.
    # A substep forms only the ten components the right-hand side reads
    # (velocity, quaternion sw..sz, angular rate ox..oz), each as x + h * k;
    # stage 1 reads x itself, as x + 0.0 * k would turn -0.0 into 0.0 and an
    # infinity into NaN. Rotor speeds are held over the step, so the wrench
    # is evaluated once. Non-finite components propagate to the finiteness
    # check. The quaternion may be slightly off-unit during the substeps; the
    # 2/n^2 factor applies the rotation of its normalized form.
    gravity = float(env.gravity)
    fz, tx, ty, tz = rotor_wrench(c, speeds)
    f = fz / c.mass
    B = ROWS if isinstance(x, ndarray) else FLOATS
    # a zero drag is skipped, not applied (-0.0 - 0.0 * (v - u) is +0.0 when
    # v < u), so a block's drones all have drag or none has (swarm._units)
    drag = c.linear_drag != 0.0 if B is FLOATS else np.all(c.linear_drag != 0.0)
    if drag:
        kd = c.linear_drag / c.mass
        ux, uy, uz = env.wind_velocity.tolist()
    ix, iy, iz = c.inertia
    dzy, dxz, dyx = iz - iy, ix - iz, iy - ix
    h = 0.5 * dt
    x0, x1, x2, vx, vy, vz, qw, qx, qy, qz, wx, wy, wz = x
    try:
        # stage 1, at x
        s = 2.0 / (qw * qw + qx * qx + qy * qy + qz * qz)
        a1x, a1y = s * (qx * qz + qy * qw) * f, s * (qy * qz - qx * qw) * f
        a1z = (1.0 - s * (qx * qx + qy * qy)) * f - gravity
        if drag:
            a1x, a1y, a1z = a1x - kd * (vx - ux), a1y - kd * (vy - uy), a1z - kd * (vz - uz)
        q1w, q1x = 0.5 * (-qx * wx - qy * wy - qz * wz), 0.5 * (qw * wx + qy * wz - qz * wy)
        q1y, q1z = 0.5 * (qw * wy - qx * wz + qz * wx), 0.5 * (qw * wz + qx * wy - qy * wx)
        r1x, r1y = (tx - wy * wz * dzy) / ix, (ty - wz * wx * dxz) / iy
        r1z = (tz - wx * wy * dyx) / iz

        # stage 2, at x + h * k1
        p2x, p2y, p2z = vx + h * a1x, vy + h * a1y, vz + h * a1z
        sw, sx, sy, sz = qw + h * q1w, qx + h * q1x, qy + h * q1y, qz + h * q1z
        ox, oy, oz = wx + h * r1x, wy + h * r1y, wz + h * r1z
        s = 2.0 / (sw * sw + sx * sx + sy * sy + sz * sz)
        a2x, a2y = s * (sx * sz + sy * sw) * f, s * (sy * sz - sx * sw) * f
        a2z = (1.0 - s * (sx * sx + sy * sy)) * f - gravity
        if drag:
            a2x, a2y, a2z = a2x - kd * (p2x - ux), a2y - kd * (p2y - uy), a2z - kd * (p2z - uz)
        q2w, q2x = 0.5 * (-sx * ox - sy * oy - sz * oz), 0.5 * (sw * ox + sy * oz - sz * oy)
        q2y, q2z = 0.5 * (sw * oy - sx * oz + sz * ox), 0.5 * (sw * oz + sx * oy - sy * ox)
        r2x, r2y = (tx - oy * oz * dzy) / ix, (ty - oz * ox * dxz) / iy
        r2z = (tz - ox * oy * dyx) / iz

        # stage 3, at x + h * k2
        p3x, p3y, p3z = vx + h * a2x, vy + h * a2y, vz + h * a2z
        sw, sx, sy, sz = qw + h * q2w, qx + h * q2x, qy + h * q2y, qz + h * q2z
        ox, oy, oz = wx + h * r2x, wy + h * r2y, wz + h * r2z
        s = 2.0 / (sw * sw + sx * sx + sy * sy + sz * sz)
        a3x, a3y = s * (sx * sz + sy * sw) * f, s * (sy * sz - sx * sw) * f
        a3z = (1.0 - s * (sx * sx + sy * sy)) * f - gravity
        if drag:
            a3x, a3y, a3z = a3x - kd * (p3x - ux), a3y - kd * (p3y - uy), a3z - kd * (p3z - uz)
        q3w, q3x = 0.5 * (-sx * ox - sy * oy - sz * oz), 0.5 * (sw * ox + sy * oz - sz * oy)
        q3y, q3z = 0.5 * (sw * oy - sx * oz + sz * ox), 0.5 * (sw * oz + sx * oy - sy * ox)
        r3x, r3y = (tx - oy * oz * dzy) / ix, (ty - oz * ox * dxz) / iy
        r3z = (tz - ox * oy * dyx) / iz

        # stage 4, at x + dt * k3
        p4x, p4y, p4z = vx + dt * a3x, vy + dt * a3y, vz + dt * a3z
        sw, sx, sy, sz = qw + dt * q3w, qx + dt * q3x, qy + dt * q3y, qz + dt * q3z
        ox, oy, oz = wx + dt * r3x, wy + dt * r3y, wz + dt * r3z
        s = 2.0 / (sw * sw + sx * sx + sy * sy + sz * sz)
        a4x, a4y = s * (sx * sz + sy * sw) * f, s * (sy * sz - sx * sw) * f
        a4z = (1.0 - s * (sx * sx + sy * sy)) * f - gravity
        if drag:
            a4x, a4y, a4z = a4x - kd * (p4x - ux), a4y - kd * (p4y - uy), a4z - kd * (p4z - uz)
        q4w, q4x = 0.5 * (-sx * ox - sy * oy - sz * oz), 0.5 * (sw * ox + sy * oz - sz * oy)
        q4y, q4z = 0.5 * (sw * oy - sx * oz + sz * ox), 0.5 * (sw * oz + sx * oy - sy * ox)
        r4x, r4y = (tx - oy * oz * dzy) / ix, (ty - oz * ox * dxz) / iy
        r4z = (tz - ox * oy * dyx) / iz
    except ZeroDivisionError:  # a substep quaternion of zero norm
        raise DivergenceError(f"non-finite state at t = {t_end}", t=t_end) from None
    sixth = dt / 6.0
    return B.renormalized([
        x0 + sixth * (vx + 2.0 * p2x + 2.0 * p3x + p4x),
        x1 + sixth * (vy + 2.0 * p2y + 2.0 * p3y + p4y),
        x2 + sixth * (vz + 2.0 * p2z + 2.0 * p3z + p4z),
        vx + sixth * (a1x + 2.0 * a2x + 2.0 * a3x + a4x),
        vy + sixth * (a1y + 2.0 * a2y + 2.0 * a3y + a4y),
        vz + sixth * (a1z + 2.0 * a2z + 2.0 * a3z + a4z),
        qw + sixth * (q1w + 2.0 * q2w + 2.0 * q3w + q4w),
        qx + sixth * (q1x + 2.0 * q2x + 2.0 * q3x + q4x),
        qy + sixth * (q1y + 2.0 * q2y + 2.0 * q3y + q4y),
        qz + sixth * (q1z + 2.0 * q2z + 2.0 * q3z + q4z),
        wx + sixth * (r1x + 2.0 * r2x + 2.0 * r3x + r4x),
        wy + sixth * (r1y + 2.0 * r2y + 2.0 * r3y + r4y),
        wz + sixth * (r1z + 2.0 * r2z + 2.0 * r3z + r4z)], t_end)


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
