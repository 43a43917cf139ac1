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
from .frames import (FieldError, as_float, as_vec3, half_angle_quat, hamilton_product,
                     non_negative, positive)

DEFAULT_POSITION_KP = 2.0
DEFAULT_POSITION_KD = 2.8
DEFAULT_ATTITUDE_KP = 60.0
DEFAULT_ATTITUDE_KD = 15.0
DEFAULT_MAX_TILT = 0.5
DEFAULT_CAPTURE_RADIUS = 0.5


@dataclass
class ControllerGains:
    position_kp: float = DEFAULT_POSITION_KP
    position_kd: float = DEFAULT_POSITION_KD
    attitude_kp: float = DEFAULT_ATTITUDE_KP
    attitude_kd: float = DEFAULT_ATTITUDE_KD
    max_tilt: float = DEFAULT_MAX_TILT
    capture_radius: float = DEFAULT_CAPTURE_RADIUS

    def __post_init__(self):
        for name in ("position_kp", "position_kd", "attitude_kp", "attitude_kd"):
            setattr(self, name, non_negative(getattr(self, name), name))
        self.max_tilt = as_float(self.max_tilt, "max_tilt")
        if not 0.0 < self.max_tilt < math.pi / 2.0:
            raise FieldError(f"max_tilt must be in (0, pi/2), got {self.max_tilt}", "max_tilt")
        self.capture_radius = positive(self.capture_radius, "capture_radius")


@dataclass
class Setpoint:
    """A position target with a commanded yaw."""

    target_position: np.ndarray
    target_yaw: float = 0.0

    def __post_init__(self):
        self.target_position = as_vec3(self.target_position, "target position",
                                       "target_position")
        if not math.isfinite(self.target_yaw):
            raise FieldError("target_yaw must be finite", "target_yaw")


def heading(yaw: float) -> tuple[float, float, float, float]:
    """cos and sin of a setpoint's yaw and of half of it, as
    :func:`command_speeds` reads them: computed once per setpoint, not
    once per tick."""
    half = 0.5 * yaw
    return math.cos(yaw), math.sin(yaw), math.cos(half), math.sin(half)


def _thrust_and_attitude(B, mass: float, gains: ControllerGains, gravity: float, x,
                         target, cos_y, sin_y) -> tuple:
    # x: the 13 state floats, or rows; target: 3 floats, or rows; B: their backend
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


def thrust_and_attitude(state: DroneState, setpoint: Setpoint, airframe: Airframe,
                        gains: ControllerGains,
                        gravity: float) -> tuple[float, float, float, float]:
    """Outer-loop output: (total thrust N, desired roll, pitch, yaw rad).

    The demanded acceleration is projected on the current body z axis for
    thrust, and its direction is inverted at small angles for the tilt
    setpoint, clamped to +-max_tilt.
    """
    yaw = float(setpoint.target_yaw)
    cos_y, sin_y, _, _ = heading(yaw)
    return (*_thrust_and_attitude(FLOATS, float(airframe.body.mass), gains, float(gravity),
                                  state.as_floats(), setpoint.target_position.tolist(),
                                  cos_y, sin_y), yaw)


def command_speeds(c: AirframeConstants, gains: ControllerGains, gravity: float,
                   x, target, yaw_trig) -> list:
    """Rotor speeds from the 13 state floats toward ``target`` at the yaw
    whose :func:`heading` is ``yaw_trig``.

    The law behind :func:`compute_commands`, on plain floats, or on rows
    of a (13, n) block (``target`` (3, n), ``yaw_trig`` (4, n)) for n
    drones that share ``c`` and ``gains``: then each speed is a row.
    """
    B = ROWS if isinstance(x, ndarray) else FLOATS
    cos_y, sin_y, cos_half_yaw, sin_half_yaw = yaw_trig
    thrust, roll_des, pitch_des = _thrust_and_attitude(
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


def compute_commands(state: DroneState, setpoint: Setpoint, airframe: Airframe,
                     gains: ControllerGains, gravity: float,
                     air_density: float) -> np.ndarray:
    """Rotor speed commands (rad/s) steering the drone toward the setpoint.

    Pure function of its inputs; a rank-deficient rotor layout raises
    ConfigurationError out of the allocation step.
    """
    return np.array(command_speeds(
        airframe_constants(airframe, air_density), gains, float(gravity),
        state.as_floats(), setpoint.target_position.tolist(),
        heading(float(setpoint.target_yaw))))


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
