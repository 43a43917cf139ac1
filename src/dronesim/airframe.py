"""Physical drone definition: body, rotors, and the rotor-to-wrench map.

Rotors sit in the body x-y plane and thrust along body +z with the
standard quadratic law f = c_T * rho * A * s^2 (s in rad/s). Each rotor
also transmits a reaction torque about body z whose sign follows its
spin direction. The inverse problem (which speeds realize a demanded
thrust and torque) is solved least-squares in s^2 through the
pseudo-inverse of the allocation matrix. Rotor speeds are values passed
in; no function here writes onto a rotor or an airframe.

Rotors, bodies and airframes are values: frozen dataclasses whose arrays
are read-only float64 copies of what the caller passed, so one object
can be shared by any number of drones and never changes under them. To
change one, build a new one, for example with ``dataclasses.replace``.
An airframe keeps the constants last built from it, with their air
density (:func:`airframe_constants`), so they are built once per object.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, fields

import numpy as np
from numpy import ndarray

from .backend import FLOATS, ROWS
from .frames import FieldError, as_vec3, non_negative, positive

log = logging.getLogger(__name__)

CLOCKWISE = -1
COUNTER_CLOCKWISE = 1


class ConfigurationError(Exception):
    """A physically inconsistent or underactuated configuration."""


# frozen dataclasses set their normalised fields through object.__setattr__
_set = object.__setattr__


def _read_only_vec3(v, name: str, field: str) -> np.ndarray:
    # a copy, so the caller's array is neither aliased nor made read-only
    arr = np.array(as_vec3(v, name, field))
    arr.flags.writeable = False
    return arr


class _Value:
    """Base of the frozen airframe types, declared with eq=False: == and hash
    are identity, since generated ones would compare and hash numpy fields."""

    def __reduce__(self):
        # copies and pickles are rebuilt through the constructor, so their
        # arrays are read-only too, and an airframe's kept constants stay behind
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


@dataclass(frozen=True, eq=False)
class Rotor(_Value):
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
        _set(self, "position_body",
             _read_only_vec3(self.position_body, "rotor position", "position_body"))
        if self.spin_direction not in (CLOCKWISE, COUNTER_CLOCKWISE):
            raise FieldError(f"spin_direction must be -1 or +1, got {self.spin_direction}",
                             "spin_direction")
        _set(self, "spin_direction", int(self.spin_direction))
        _set(self, "disk_area", positive(self.disk_area, "disk_area"))
        _set(self, "thrust_coefficient", positive(self.thrust_coefficient, "thrust_coefficient"))
        _set(self, "torque_coefficient",
             non_negative(self.torque_coefficient, "torque_coefficient"))
        _set(self, "max_speed", positive(self.max_speed, "max_speed"))


@dataclass(frozen=True, eq=False)
class Body(_Value):
    """Rigid-body mass properties plus a linear aerodynamic drag coefficient."""

    mass: float
    inertia_diagonal: np.ndarray
    linear_drag: float = 0.0

    def __post_init__(self):
        inertia = _read_only_vec3(self.inertia_diagonal, "inertia diagonal", "inertia_diagonal")
        _set(self, "inertia_diagonal", inertia)
        _set(self, "mass", positive(self.mass, "mass"))
        if not np.all(inertia > 0.0):
            raise FieldError(f"inertia components must be > 0, got {inertia.tolist()}",
                             "inertia_diagonal")
        _set(self, "linear_drag", non_negative(self.linear_drag, "linear_drag"))


@dataclass(frozen=True, eq=False)
class Airframe(_Value):
    """A body plus at least two rotors, held as a tuple."""

    body: Body
    rotors: tuple[Rotor, ...] = ()
    # (air density, constants) of the last airframe_constants call: not a field,
    # so fields(), asdict(), replace() and the document writer skip it
    _last_constants = (None, None)

    def __post_init__(self):
        _set(self, "rotors", tuple(self.rotors))
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
    Everything is a plain float so the tick runs without numpy. A block
    of drones (:mod:`dronesim.swarm`) holds the same structure with a row
    of its drones' values in place of each number but ``air_density`` and
    ``rank``, and its ``max_speeds`` as one (rotors, n) array.
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

    Kept on the airframe for the last air density asked for, so repeat
    calls for one object build nothing, and a call with the very float
    object already checked for it checks nothing either. An airframe
    cannot change, so its constants are never stale.
    """
    density, constants = airframe._last_constants
    if density is air_density:
        return constants
    air_density = positive(air_density, "air_density")
    if density == air_density:
        return constants
    body = airframe.body
    # plain floats: indexing the numpy arms costs more
    rotors = []
    for r in airframe.rotors:
        x, y, _ = r.position_body.tolist()
        rotors.append((thrust_gain(r, air_density), x, y,
                       r.spin_direction * r.torque_coefficient * air_density * r.disk_area))
    m = _allocation_rows(rotors)
    rank = int(np.linalg.matrix_rank(m))
    pinv_rows = tuple(map(tuple, np.linalg.pinv(m).tolist())) if rank == 4 else None
    constants = AirframeConstants(air_density, body.mass, tuple(body.inertia_diagonal.tolist()),
                                  body.linear_drag, tuple(rotors),
                                  tuple(r.max_speed for r in airframe.rotors), pinv_rows, rank)
    _set(airframe, "_last_constants", (air_density, constants))
    return constants


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

    On floats, or on rows of n drones' demands, with a block's constants
    or one drone's for all (then each speed is a row); a rank-deficient
    rotor layout raises ConfigurationError. Exact on quadrotors; on more
    rotors see the limit in :func:`allocate`.
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
    if saturated and log.isEnabledFor(logging.DEBUG):
        for demand, clamped in B.columns(saturated, [thrust, torque_x, torque_y, torque_z],
                                         speeds):
            log.debug("rotor saturation: demand %s clamped to %s", demand, clamped)
    return speeds


def net_wrench(airframe: Airframe, air_density: float, speeds) -> tuple[np.ndarray, np.ndarray]:
    """Total (force, torque) on the body at the speeds :func:`set_rotor_speeds` returns."""
    fz, tx, ty, tz = rotor_wrench(airframe_constants(airframe, air_density),
                                  set_rotor_speeds(airframe, speeds))
    return np.array([0.0, 0.0, fz]), np.array([tx, ty, tz])


def allocate(airframe: Airframe, desired_thrust: float, desired_torque,
             air_density: float) -> np.ndarray:
    """Rotor speeds (rad/s) realizing a demanded thrust (N) and torque (N·m).

    Least-squares solve in squared speeds, then s = sqrt(max(s^2, 0))
    clamped per rotor to [0, max_speed]. Saturation is silent (flight
    continues degraded); a debug log line records the clamp. Raises
    ConfigurationError when the allocation matrix is rank-deficient,
    i.e. the craft cannot span all four wrench components. A quadrotor
    (every shipped airframe) gets its wrench exactly. On more rotors the
    minimum-norm s^2 can leave [0, max_speed^2], and the clamp then misses
    a wrench that other speeds realize: 39% (29%) of uniform-speed
    hexacopter (octocopter) wrenches, by a median 4.8% (3.1%) of its norm.
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
