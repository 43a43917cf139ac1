"""Rotation and reference-frame algebra.

Conventions used across the simulator:

* Vectors are length-3 float64 numpy arrays. The world frame is
  East-North-Up (x east, y north, z up); the body frame is x forward,
  y left, z up.
* Orientations are unit quaternions stored as length-4 arrays
  ``[w, x, y, z]`` encoding the body-to-world rotation.
* Every public operation that returns a quaternion renormalizes it,
  so the norm stays within 1e-9 of unity no matter how many times the
  operations are chained.

Geodetic export uses a local equirectangular projection around the
scenario origin with a spherical Earth of radius 6 371 000 m. That is
accurate to well under a meter for the few-kilometer scenes this
simulator targets, and is documented as approximate for anything larger.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

EARTH_RADIUS_M = 6_371_000.0


def vec3(x: float, y: float, z: float) -> np.ndarray:
    """Build a 3-vector as a float64 array."""
    return np.array([float(x), float(y), float(z)])


class FieldError(ValueError):
    """A constructor argument that breaks its invariant.

    ``field`` names it as a path relative to the object being built, such
    as ``mass``, ``waypoints[1].id`` or ``drones[1].id`` (empty when the
    object as a whole is at fault); ``str()`` is the diagnostic.
    """

    def __init__(self, message: str, field: str = ""):
        super().__init__(message)
        self.field = field


def check_unique_ids(ids: list, kind: str, path: str) -> None:
    """Raise FieldError at ``{path}[i].id``, i the first repeated id, unless ids are unique."""
    seen = set()
    for i, item in enumerate(ids):
        if item in seen:
            dup = sorted({x for x in ids if ids.count(x) > 1})
            raise FieldError(f"{kind} ids must be unique, duplicated: {dup}", f"{path}[{i}].id")
        seen.add(item)


def as_float(value, field: str) -> float:
    """Coerce to a Python float, raising FieldError when that cannot be done."""
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise FieldError(f"{field} must be a number in float range", field) from None


def finite(value, field: str) -> float:
    """``value`` as a float that must be finite."""
    x = as_float(value, field)
    if not math.isfinite(x):
        raise FieldError(f"{field} must be finite, got {x}", field)
    return x


def positive(value, field: str) -> float:
    """``value`` as a float that must be finite and > 0."""
    x = as_float(value, field)
    if not (math.isfinite(x) and x > 0.0):
        raise FieldError(f"{field} must be finite and > 0, got {x}", field)
    return x


def non_negative(value, field: str) -> float:
    """``value`` as a float that must be finite and >= 0."""
    x = as_float(value, field)
    if not (math.isfinite(x) and x >= 0.0):
        raise FieldError(f"{field} must be finite and >= 0, got {x}", field)
    return x


def _finite_array(v, size: int, name: str, field: str) -> np.ndarray:
    try:
        arr = np.asarray(v, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise FieldError(f"{name} must be {size} numbers in float range", field) from None
    if arr.shape != (size,):
        raise FieldError(f"{name} must have exactly {size} components, got shape {arr.shape}",
                         field)
    if not all(map(math.isfinite, arr.tolist())):
        raise FieldError(f"{name} has non-finite components: {arr.tolist()}", field)
    return arr


def as_vec3(v, name: str = "vector", field: str = "") -> np.ndarray:
    """Coerce to a finite float64 3-vector, raising FieldError otherwise."""
    return _finite_array(v, 3, name, field)


# ---------------------------------------------------------------------------
# Quaternions ([w, x, y, z], body-to-world)
# ---------------------------------------------------------------------------

def quat_identity() -> np.ndarray:
    return np.array([1.0, 0.0, 0.0, 0.0])


def as_quat(q, name: str = "quaternion", field: str = "") -> np.ndarray:
    return _finite_array(q, 4, name, field)


def quat_norm(q) -> float:
    w, x, y, z = q
    return math.sqrt(w * w + x * x + y * y + z * z)


def quat_normalize(q) -> np.ndarray:
    """Return q scaled to unit norm.

    Raises ValueError for non-finite or near-zero input, where no
    rotation can be recovered.
    """
    q = as_quat(q)
    n = quat_norm(q.tolist())  # floats: squares overflow to inf without a numpy warning
    if n == math.inf:  # then normalize the same rotation over its largest |component|
        return quat_normalize(q / np.abs(q).max())
    if n < 1e-12:
        raise ValueError("cannot normalize a near-zero quaternion")
    return q / n


def quat_inverse(q) -> np.ndarray:
    """Inverse rotation; for the unit quaternions used here, the conjugate."""
    w, x, y, z = quat_normalize(q)
    return np.array([w, -x, -y, -z])


def quat_multiply(q1, q2) -> np.ndarray:
    """Hamilton product q1 ⊗ q2 (apply q2 first, then q1)."""
    return np.array(hamilton_product(q1, q2))


def hamilton_product(q1, q2) -> tuple[float, float, float, float]:
    """q1 ⊗ q2 on plain 4-sequences; the law behind :func:`quat_multiply`."""
    w1, x1, y1, z1 = q1
    w2, x2, y2, z2 = q2
    return (w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2)


def quat_from_axis_angle(axis, angle: float) -> np.ndarray:
    """Unit quaternion for a rotation of ``angle`` radians about ``axis``."""
    axis = as_vec3(axis, "axis")
    with np.errstate(over="ignore"):
        n = math.sqrt(axis[0] ** 2 + axis[1] ** 2 + axis[2] ** 2)
    if n == math.inf:  # the squares overflow: the same axis over its largest |component|
        return quat_from_axis_angle(axis / np.abs(axis).max(), angle)
    if n < 1e-12:
        raise ValueError("rotation axis must be non-zero")
    half = 0.5 * finite(angle, "angle")
    s = math.sin(half) / n
    return np.array([math.cos(half), axis[0] * s, axis[1] * s, axis[2] * s])


def quat_from_euler(roll: float, pitch: float, yaw: float) -> np.ndarray:
    """Quaternion from roll (about x), pitch (about y), yaw (about z).

    Angles compose in ZYX order: q = q_yaw ⊗ q_pitch ⊗ q_roll.
    """
    r, p = 0.5 * finite(roll, "roll"), 0.5 * finite(pitch, "pitch")
    y = 0.5 * finite(yaw, "yaw")
    return np.array(half_angle_quat(math.cos(r), math.sin(r), math.cos(p), math.sin(p),
                                    math.cos(y), math.sin(y)))


def half_angle_quat(cr, sr, cp, sp, cy, sy) -> tuple:
    """:func:`quat_from_euler`, as a tuple, from the cosines and sines of
    half the roll, pitch and yaw; plain floats or numpy rows alike."""
    return (cy * cp * cr + sy * sp * sr,
            cy * cp * sr - sy * sp * cr,
            cy * sp * cr + sy * cp * sr,
            sy * cp * cr - cy * sp * sr)


def quat_to_matrix(q) -> np.ndarray:
    """3x3 rotation matrix mapping body vectors into the world frame."""
    w, x, y, z = quat_normalize(q)
    xx, yy, zz = x * x, y * y, z * z
    wx, wy, wz = w * x, w * y, w * z
    xy, xz, yz = x * y, x * z, y * z
    return np.array([
        [1.0 - 2.0 * (yy + zz), 2.0 * (xy - wz), 2.0 * (xz + wy)],
        [2.0 * (xy + wz), 1.0 - 2.0 * (xx + zz), 2.0 * (yz - wx)],
        [2.0 * (xz - wy), 2.0 * (yz + wx), 1.0 - 2.0 * (xx + yy)],
    ])


def rotate(q, v) -> np.ndarray:
    """Rotate body-frame vector ``v`` into the world frame.

    Preserves the Euclidean norm of ``v``. Raises ValueError on
    non-finite components in either argument.
    """
    q = quat_normalize(q)
    v = as_vec3(v)
    w, qx, qy, qz = q
    vx, vy, vz = v
    # v' = v + w * t + qv x t  with  t = 2 * qv x v
    tx = 2.0 * (qy * vz - qz * vy)
    ty = 2.0 * (qz * vx - qx * vz)
    tz = 2.0 * (qx * vy - qy * vx)
    return np.array([
        vx + w * tx + qy * tz - qz * ty,
        vy + w * ty + qz * tx - qx * tz,
        vz + w * tz + qx * ty - qy * tx,
    ])


def integrate_orientation(q, omega_body, dt: float) -> np.ndarray:
    """Advance a quaternion by one step of q̇ = ½ q ⊗ (0, ω) and renormalize.

    ``omega_body`` is the angular velocity in the body frame (rad/s).
    The normalized explicit step is second-order accurate in the rotation
    angle for constant ω. dt must be finite and strictly positive.

    Scalar math throughout: the simulator integrates attitude inside
    ``rk4_step``; acceptance criterion 5 calls this 10^6 times.
    """
    dt = positive(dt, "dt")
    try:
        qw, qx, qy, qz = (float(c) for c in q)
        ox, oy, oz = (float(c) for c in omega_body)
    except (TypeError, ValueError) as err:
        raise ValueError("quaternion needs 4 components and omega_body 3") from err
    if not (math.isfinite(qw) and math.isfinite(qx) and math.isfinite(qy)
            and math.isfinite(qz) and math.isfinite(ox) and math.isfinite(oy)
            and math.isfinite(oz)):
        raise ValueError("non-finite components in quaternion or omega_body")
    half = 0.5 * dt
    nw = qw + half * (-qx * ox - qy * oy - qz * oz)
    nx = qx + half * (qw * ox + qy * oz - qz * oy)
    ny = qy + half * (qw * oy - qx * oz + qz * ox)
    nz = qz + half * (qw * oz + qx * oy - qy * ox)
    norm = math.sqrt(nw * nw + nx * nx + ny * ny + nz * nz)
    if not 1e-12 <= norm < math.inf:  # zero, or squares that overflow
        return quat_normalize((nw, nx, ny, nz))
    return np.array([nw / norm, nx / norm, ny / norm, nz / norm])


# ---------------------------------------------------------------------------
# Geodetic anchoring
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InertialFrame:
    """World frame anchor: ENU axes tangent to the Earth at a geodetic origin."""

    latitude_deg: float
    longitude_deg: float
    altitude_m: float = 0.0
    axes: str = "ENU"

    def __post_init__(self):
        lat = as_float(self.latitude_deg, "latitude_deg")
        lon = as_float(self.longitude_deg, "longitude_deg")
        alt = finite(self.altitude_m, "altitude_m")
        if not (-90.0 <= lat <= 90.0):
            raise FieldError(f"latitude must be in [-90, 90], got {lat}", "latitude_deg")
        if not (-180.0 <= lon <= 180.0):
            raise FieldError(f"longitude must be in [-180, 180], got {lon}", "longitude_deg")
        if self.axes != "ENU":
            raise FieldError(f"unsupported axes convention {self.axes!r}, only 'ENU'", "axes")
        object.__setattr__(self, "latitude_deg", lat)
        object.__setattr__(self, "longitude_deg", lon)
        object.__setattr__(self, "altitude_m", alt)


def geo_project(frame: InertialFrame, p) -> tuple[float, float, float]:
    """Map a local ENU position (m) to (latitude deg, longitude deg, altitude m).

    Equirectangular projection about the frame origin; exact inverse of
    :func:`geo_unproject`. Intended for local scenes (positions small
    against the Earth radius); undefined at the poles.
    """
    east, north, up = as_vec3(p, "position").tolist()
    return geo_project_columns(frame, east, north, up)


def _cos_origin_latitude(frame: InertialFrame) -> float:
    cos_lat0 = math.cos(math.radians(frame.latitude_deg))
    if abs(cos_lat0) < 1e-9:
        raise ValueError("projection origin too close to a pole")
    return cos_lat0


# math.degrees(x) and np.degrees(x) are both x times this constant
_DEGREES_PER_RADIAN = 180.0 / math.pi


def geo_project_columns(frame: InertialFrame, east, north, up):
    """:func:`geo_project` of whole columns of east, north and up (m).

    The columns may be numpy arrays or single floats; returns latitude
    (deg), longitude (deg) and altitude (m) in the same form. A column
    goes through the same operations as one position, in the same
    order, so every element equals :func:`geo_project`'s result.
    """
    cos_lat0 = _cos_origin_latitude(frame)
    lat = frame.latitude_deg + (north / EARTH_RADIUS_M) * _DEGREES_PER_RADIAN
    lon = frame.longitude_deg + (east / (EARTH_RADIUS_M * cos_lat0)) * _DEGREES_PER_RADIAN
    alt = frame.altitude_m + up
    return (lat, lon, alt)


def geo_unproject(frame: InertialFrame, latitude_deg: float, longitude_deg: float,
                  altitude_m: float) -> np.ndarray:
    """Inverse of :func:`geo_project`: geodetic coordinates to local ENU meters."""
    cos_lat0 = _cos_origin_latitude(frame)
    east = math.radians(longitude_deg - frame.longitude_deg) * EARTH_RADIUS_M * cos_lat0
    north = math.radians(latitude_deg - frame.latitude_deg) * EARTH_RADIUS_M
    up = altitude_m - frame.altitude_m
    return np.array([east, north, up])
