"""Waypoint-following cascade controller.

Maps (current state, target setpoint) to rotor speed commands through a
PD cascade:

1. desired acceleration  a_des = Kp (target − p) − Kd v + g ẑ
2. desired thrust        T = m (a_des · ẑ_body), never negative;
   desired roll/pitch from a small-angle inversion of the a_des
   direction at the commanded yaw, clamped to ±max_tilt
3. attitude PD           angular accel = Kp_att e_att − Kd_att ω,
   torque = I ∘ accel, with e_att the small-angle attitude error
4. rotor allocation maps (T, torque) to speeds

Steps 1-3 are written out in one body, :func:`command_speeds`, on plain
floats or on numpy rows; :func:`compute_commands` is its public form.
The defaults below are tuned for a 1 kg craft with 0.2 m arms; every
gain is per-drone configurable. No integral action: steady wind shows up
as a small position offset rather than being trimmed out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy import ndarray

from .airframe import Airframe, AirframeConstants, airframe_constants, allocate_speeds
from .backend import FLOATS, ROWS
from .dynamics import DroneState
from .frames import FieldError, as_float, as_vec3, finite, non_negative, positive

DEFAULT_POSITION_KP = 2.0
DEFAULT_POSITION_KD = 2.8
DEFAULT_ATTITUDE_KP = 60.0
DEFAULT_ATTITUDE_KD = 15.0
DEFAULT_MAX_TILT = 0.5
DEFAULT_CAPTURE_RADIUS = 0.5

# the frozen gains set their normalised fields through object.__setattr__
_set = object.__setattr__


@dataclass(frozen=True)
class ControllerGains:
    """The controller's per-drone gains, a value like an airframe: frozen,
    checked when built, compared and hashed by value. Any number of drones
    can share one; to change one, build a new one, for example with
    ``dataclasses.replace``, which checks it again."""

    position_kp: float = DEFAULT_POSITION_KP
    position_kd: float = DEFAULT_POSITION_KD
    attitude_kp: float = DEFAULT_ATTITUDE_KP
    attitude_kd: float = DEFAULT_ATTITUDE_KD
    max_tilt: float = DEFAULT_MAX_TILT
    capture_radius: float = DEFAULT_CAPTURE_RADIUS

    def __post_init__(self):
        for name in ("position_kp", "position_kd", "attitude_kp", "attitude_kd"):
            _set(self, name, non_negative(getattr(self, name), name))
        max_tilt = as_float(self.max_tilt, "max_tilt")
        if not 0.0 < max_tilt < math.pi / 2.0:
            raise FieldError(f"max_tilt must be in (0, pi/2), got {max_tilt}", "max_tilt")
        _set(self, "max_tilt", max_tilt)
        _set(self, "capture_radius", positive(self.capture_radius, "capture_radius"))


@dataclass
class Setpoint:
    """A position target with a commanded yaw."""

    target_position: np.ndarray
    target_yaw: float = 0.0

    def __post_init__(self):
        self.target_position = as_vec3(self.target_position, "target position",
                                       "target_position")
        self.target_yaw = finite(self.target_yaw, "target_yaw")


def heading(yaw: float) -> tuple[float, float, float, float]:
    """cos and sin of a setpoint's yaw and of half of it, as
    :func:`command_speeds` reads them: computed once per setpoint, not
    once per tick."""
    half = 0.5 * yaw
    return math.cos(yaw), math.sin(yaw), math.cos(half), math.sin(half)


def command_speeds(c: AirframeConstants, gains: ControllerGains, gravity: float,
                   x, target, yaw_trig) -> list:
    """Rotor speeds from the 13 state floats toward ``target`` at the yaw
    whose :func:`heading` is ``yaw_trig``.

    The law behind :func:`compute_commands`, on plain floats, or on rows
    of a (13, n) block (``target`` (3, n), ``yaw_trig`` (4, n)) for n
    drones that share ``c`` and ``gains``: then each speed is a row.
    """
    B = ROWS if isinstance(x, ndarray) else FLOATS
    cos_y, sin_y, cy, sy = yaw_trig
    px, py, pz, vx, vy, vz, qw, qx, qy, qz, wx, wy, wz = x

    # demanded acceleration, and thrust: a_des projected on the body z
    # axis (third column of R(q)), never negative
    kp, kd = gains.position_kp, gains.position_kd
    ax = kp * (target[0] - px) - kd * vx
    ay = kp * (target[1] - py) - kd * vy
    az = kp * (target[2] - pz) - kd * vz + gravity
    along_z = (ax * (2.0 * (qx * qz + qy * qw))
               + ay * (2.0 * (qy * qz - qx * qw))
               + az * (1.0 - 2.0 * (qx * qx + qy * qy)))
    thrust = c.mass * B.positive(along_z)

    # desired roll and pitch: the a_des direction at the commanded yaw
    tilt_x, tilt_y = B.direction(ax, ay, B.sqrt(ax * ax + ay * ay + az * az))
    max_tilt = gains.max_tilt
    half_pitch = 0.5 * B.clamp(tilt_x * cos_y + tilt_y * sin_y, max_tilt)
    half_roll = 0.5 * B.clamp(tilt_x * sin_y - tilt_y * cos_y, max_tilt)

    # attitude error q* ⊗ q_des, with q_des from the half-angle cosines and
    # sines (frames.half_angle_quat, then frames.hamilton_product, written out)
    cr, sr, cp, sp = B.cos(half_roll), B.sin(half_roll), B.cos(half_pitch), B.sin(half_pitch)
    dw = cy * cp * cr + sy * sp * sr
    dx = cy * cp * sr - sy * sp * cr
    dy = cy * sp * cr + sy * cp * sr
    dz = sy * cp * cr - cy * sp * sr
    qx, qy, qz = -qx, -qy, -qz
    ew = qw * dw - qx * dx - qy * dy - qz * dz
    ex = qw * dx + qx * dw + qy * dz - qz * dy
    ey = qw * dy - qx * dz + qy * dw + qz * dx
    ez = qw * dz + qx * dy - qy * dx + qz * dw
    ex, ey, ez = B.hemisphere(ew, ex, ey, ez)

    # attitude PD: torque = I ∘ (Kp_att e_att − Kd_att ω)
    kp, kd = gains.attitude_kp, gains.attitude_kd
    ix, iy, iz = c.inertia
    return allocate_speeds(c, thrust,
                           ix * (kp * (2.0 * ex) - kd * wx),
                           iy * (kp * (2.0 * ey) - kd * wy),
                           iz * (kp * (2.0 * ez) - kd * wz))


def compute_commands(state: DroneState, setpoint: Setpoint, airframe: Airframe,
                     gains: ControllerGains, gravity: float,
                     air_density: float) -> np.ndarray:
    """Rotor speed commands (rad/s) steering the drone toward the setpoint.

    Pure function of its inputs; a rank-deficient rotor layout raises
    ConfigurationError out of the allocation step.
    """
    return np.array(command_speeds(
        airframe_constants(airframe, air_density), gains, positive(gravity, "gravity"),
        state.as_floats(), setpoint.target_position.tolist(),
        heading(setpoint.target_yaw)))


def within_capture(position, target, capture_radius: float) -> bool:
    """True iff ``position`` lies within ``capture_radius`` of ``target`` (inclusive).

    Reads the first three components of each, as plain floats, or as
    rows of n drones' positions and targets: then the result is a row
    of n booleans.
    """
    dx = position[0] - target[0]
    dy = position[1] - target[1]
    dz = position[2] - target[2]
    B = ROWS if isinstance(dx, ndarray) else FLOATS
    return B.sqrt(dx * dx + dy * dy + dz * dz) <= capture_radius


def waypoint_reached(state: DroneState, setpoint: Setpoint,
                     gains: ControllerGains) -> bool:
    """True iff the drone sits within capture_radius of the target (inclusive)."""
    return within_capture(state.position.tolist(), setpoint.target_position.tolist(),
                          gains.capture_radius)
