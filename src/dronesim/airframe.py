"""Physical drone definition: body, rotors, and the rotor-to-wrench map.

Rotors sit in the body x-y plane and thrust along body +z with the
standard quadratic law f = c_T * rho * A * s^2 (s in rad/s). Each rotor
also transmits a reaction torque about body z whose sign follows its
spin direction. The inverse problem (which speeds realize a demanded
thrust and torque) is solved least-squares in s^2 through the
pseudo-inverse of the allocation matrix. Rotor speeds are values passed
in; no function here writes onto a rotor or an airframe.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy import ndarray

from .backend import FLOATS, ROWS
from .frames import FieldError, as_vec3, non_negative, positive

log = logging.getLogger(__name__)

CLOCKWISE = -1
COUNTER_CLOCKWISE = 1


class ConfigurationError(Exception):
    """A physically inconsistent or underactuated configuration."""


@dataclass
class Rotor:
    """One rotor: geometry, aerodynamic coefficients and speed ceiling.

    ``spin_direction`` is +1 for counter-clockwise, -1 for clockwise
    (seen from above); it sets the sign of the reaction torque the rotor
    transmits to the body about +z.
    """

    position_body: np.ndarray
    spin_direction: int
    disk_area: float
    thrust_coefficient: float
    torque_coefficient: float
    max_speed: float

    def __post_init__(self):
        self.position_body = as_vec3(self.position_body, "rotor position", "position_body")
        if self.spin_direction not in (CLOCKWISE, COUNTER_CLOCKWISE):
            raise FieldError(f"spin_direction must be -1 or +1, got {self.spin_direction}",
                             "spin_direction")
        self.spin_direction = int(self.spin_direction)
        self.disk_area = positive(self.disk_area, "disk_area")
        self.thrust_coefficient = positive(self.thrust_coefficient, "thrust_coefficient")
        self.torque_coefficient = non_negative(self.torque_coefficient, "torque_coefficient")
        self.max_speed = positive(self.max_speed, "max_speed")


@dataclass
class Body:
    """Rigid-body mass properties plus a linear aerodynamic drag coefficient."""

    mass: float
    inertia_diagonal: np.ndarray
    linear_drag: float = 0.0

    def __post_init__(self):
        self.inertia_diagonal = as_vec3(self.inertia_diagonal, "inertia diagonal",
                                        "inertia_diagonal")
        self.mass = positive(self.mass, "mass")
        if not np.all(self.inertia_diagonal > 0.0):
            raise FieldError(
                f"inertia components must be > 0, got {self.inertia_diagonal.tolist()}",
                "inertia_diagonal")
        self.linear_drag = non_negative(self.linear_drag, "linear_drag")


@dataclass
class Airframe:
    """A body plus at least two rotors."""

    body: Body
    rotors: list[Rotor] = field(default_factory=list)

    def __post_init__(self):
        if len(self.rotors) < 2:
            raise FieldError(f"an airframe needs at least 2 rotors, got {len(self.rotors)}",
                             "rotors")


def thrust_gain(rotor: Rotor, air_density: float) -> float:
    """k in f = k * s^2: c_T * rho * A, in N s^2."""
    return rotor.thrust_coefficient * air_density * rotor.disk_area


def rotor_thrust(rotor: Rotor, air_density: float, speed: float) -> float:
    """Thrust of one rotor in N, along body +z: c_T * rho * A * s^2, s clamped."""
    s = _clamped(float(speed), rotor.max_speed, "speed")
    return thrust_gain(rotor, positive(air_density, "air_density")) * (s * s)


@dataclass(frozen=True)
class AirframeConstants:
    """What the per-tick kernels read of one airframe at one air density.

    ``rotors`` holds (thrust gain, arm x, arm y, signed torque gain) per
    rotor; ``pinv_rows`` is the pseudo-inverse of the allocation matrix,
    one 4-tuple per rotor, or None when the matrix is rank-deficient.
    Everything is a plain float so the tick runs without numpy.
    """

    air_density: float
    mass: float
    inertia: tuple[float, float, float]
    linear_drag: float
    rotors: tuple[tuple[float, float, float, float], ...]
    max_speeds: tuple[float, ...]
    pinv_rows: tuple[tuple[float, float, float, float], ...] | None
    rank: int


def airframe_constants(airframe: Airframe, air_density: float) -> AirframeConstants:
    """Per-rotor gains, body constants and the allocation pseudo-inverse.

    Cached on the values (not the identity) of the airframe, so equal
    airframes share one pseudo-inverse and rank check, and changing an
    airframe in place can never serve stale constants.
    """
    air_density = positive(air_density, "air_density")
    body = airframe.body
    # the key is built from plain floats: indexing the numpy arms costs more
    rotors = []
    for r in airframe.rotors:
        x, y, _ = r.position_body.tolist()
        rotors.append((thrust_gain(r, air_density), x, y,
                       r.spin_direction * r.torque_coefficient * air_density * r.disk_area))
    return _constants(air_density, body.mass, tuple(body.inertia_diagonal.tolist()),
                      body.linear_drag, tuple(rotors),
                      tuple(r.max_speed for r in airframe.rotors))


@lru_cache(maxsize=128)
def _constants(air_density, mass, inertia, linear_drag, rotors,
               max_speeds) -> AirframeConstants:
    m = _allocation_rows(rotors)
    rank = int(np.linalg.matrix_rank(m))
    pinv_rows = tuple(map(tuple, np.linalg.pinv(m).tolist())) if rank == 4 else None
    return AirframeConstants(air_density, mass, inertia, linear_drag, rotors,
                             max_speeds, pinv_rows, rank)


def _allocation_rows(rotors) -> np.ndarray:
    return np.array([[k for k, _, _, _ in rotors],
                     [k * y for k, _, y, _ in rotors],
                     [-k * x for k, x, _, _ in rotors],
                     [q for _, _, _, q in rotors]], dtype=float)


def rotor_wrench(constants: AirframeConstants, speeds) -> tuple[float, float, float, float]:
    """(thrust, torque x, y, z) in body axes for the given rotor speeds.

    force  = sum_i f_i ẑ
    torque = sum_i [ r_i x (f_i ẑ) + spin_i * c_Q_i * rho * A_i * s_i^2 ẑ ]
    """
    fz = tx = ty = tz = 0.0
    for (k, x, y, q), s in zip(constants.rotors, speeds):
        s2 = s * s
        f = k * s2
        fz += f
        # r x (f ẑ) = f * (y, -x, 0)
        tx += f * y
        ty -= f * x
        tz += q * s2
    return fz, tx, ty, tz


def allocate_speeds(constants: AirframeConstants, thrust, torque_x, torque_y,
                    torque_z) -> list:
    """Rotor speeds for a demanded wrench; the law behind :func:`allocate`.

    On floats, or on rows of n drones' demands (then each speed is a
    row); a rank-deficient rotor layout raises ConfigurationError.
    """
    if constants.pinv_rows is None:
        raise ConfigurationError(
            f"allocation matrix is rank-deficient (rank {constants.rank} < 4); "
            "this rotor layout cannot realize independent thrust and torques")
    s_squared = []  # a loop, not a comprehension: on floats it costs less
    for a, b, c, d in constants.pinv_rows:
        s_squared.append(a * thrust + b * torque_x + c * torque_y + d * torque_z)
    B = ROWS if isinstance(thrust, ndarray) else FLOATS
    speeds, saturated = B.rotor_speeds(s_squared, constants.max_speeds)
    if saturated:
        for demand, clamped in B.columns(saturated, [thrust, torque_x, torque_y, torque_z],
                                         speeds):
            log.debug("rotor saturation: demand %s clamped to %s", demand, clamped)
    return speeds


def net_wrench(airframe: Airframe, air_density: float, speeds) -> tuple[np.ndarray, np.ndarray]:
    """Total (force, torque) on the body at the speeds :func:`set_rotor_speeds` returns."""
    fz, tx, ty, tz = rotor_wrench(airframe_constants(airframe, air_density),
                                  set_rotor_speeds(airframe, speeds))
    return np.array([0.0, 0.0, fz]), np.array([tx, ty, tz])


def allocation_matrix(airframe: Airframe, air_density: float) -> np.ndarray:
    """4 x n map from squared rotor speeds to (thrust, torque x/y/z)."""
    return _allocation_rows(airframe_constants(airframe, air_density).rotors)


def allocate(airframe: Airframe, desired_thrust: float, desired_torque,
             air_density: float) -> np.ndarray:
    """Rotor speeds (rad/s) realizing a demanded thrust (N) and torque (N·m).

    Least-squares solve in squared speeds, then s = sqrt(max(s^2, 0))
    clamped per rotor to [0, max_speed]. Saturation is silent (flight
    continues degraded); a debug log line records the clamp. Raises
    ConfigurationError when the allocation matrix is rank-deficient,
    i.e. the craft cannot span all four wrench components.
    """
    tx, ty, tz = as_vec3(desired_torque, "desired_torque").tolist()
    constants = airframe_constants(airframe, air_density)
    thrust = non_negative(desired_thrust, "desired_thrust")
    return np.array(allocate_speeds(constants, thrust, tx, ty, tz))


def set_rotor_speeds(airframe: Airframe, speeds) -> tuple[float, ...]:
    """The one check of a speed command: one speed per rotor, each clamped to
    [0, max_speed] (a NaN raises ValueError). Writes nothing."""
    speeds = np.asarray(speeds, dtype=float)
    if speeds.shape != (len(airframe.rotors),):
        raise ValueError(
            f"expected {len(airframe.rotors)} speeds, got shape {speeds.shape}")
    return tuple(_clamped(s, r.max_speed, f"rotor {i} speed")
                 for i, (r, s) in enumerate(zip(airframe.rotors, speeds.tolist())))


def _clamped(speed: float, max_speed: float, name: str) -> float:
    if math.isnan(speed):
        raise ValueError(f"{name} must be a number, got nan")
    return min(max(speed, 0.0), max_speed)


def hover_speed(airframe: Airframe, gravity: float, air_density: float) -> float:
    """Closed-form equal-speed hover for a symmetric craft: sqrt(mg / (n k))."""
    k = sum(gain for gain, _, _, _ in airframe_constants(airframe, air_density).rotors)
    return math.sqrt(airframe.body.mass * positive(gravity, "gravity") / k)
