"""World definition: physics constants, flying conditions, and the clock.

A scenario bundles everything the drones fly inside of: gravity and air
density, a uniform constant wind, obstacles as axis-aligned boxes, the
geodetic anchor of the world frame, and the global time step that keeps
the whole swarm on one clock. The constructors hold every default and
check every value; a scenario file only overrides them. Sampling the
environment is a function of (position, time) so that non-uniform fields
can land later without signature changes, even though this release
returns constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .frames import FieldError, InertialFrame, as_vec3, non_negative, positive

DEFAULT_GRAVITY = 9.81
DEFAULT_AIR_DENSITY = 1.225
DEFAULT_RECORDING_INTERVAL = 0.1


@dataclass
class Physics:
    gravity: float = DEFAULT_GRAVITY
    air_density: float = DEFAULT_AIR_DENSITY

    def __post_init__(self):
        self.gravity = positive(self.gravity, "gravity")
        self.air_density = positive(self.air_density, "air_density")


@dataclass
class Box:
    """Axis-aligned box with inclusive boundaries."""

    min_corner: np.ndarray
    max_corner: np.ndarray

    def __post_init__(self):
        self.min_corner = as_vec3(self.min_corner, "box min corner", "min_corner")
        self.max_corner = as_vec3(self.max_corner, "box max corner", "max_corner")
        if np.any(self.min_corner > self.max_corner):
            raise FieldError(
                f"box min corner {self.min_corner.tolist()} exceeds "
                f"max corner {self.max_corner.tolist()}")


@dataclass
class FlyingConditions:
    """Environmental context: uniform constant wind and box obstacles."""

    wind_velocity: np.ndarray = field(default_factory=lambda: np.zeros(3))
    obstacles: list[Box] = field(default_factory=list)

    def __post_init__(self):
        self.wind_velocity = as_vec3(self.wind_velocity, "wind velocity", "wind_velocity")


def _finite_ticks(value: float, reference_time_step: float, field: str) -> float:
    if not math.isfinite(value / reference_time_step):
        raise FieldError(f"{field} must span a finite number of reference time steps "
                         f"({reference_time_step}), got {value}", field)
    return value


def check_recording_interval(value, reference_time_step: float) -> float:
    """``value`` as a float spanning at least one and a finite number of
    ``reference_time_step`` ticks; raises FieldError otherwise."""
    interval = positive(value, "recording_interval")
    if interval < reference_time_step:
        raise FieldError(f"recording_interval must be >= reference_time_step "
                         f"({reference_time_step}), got {interval}", "recording_interval")
    return _finite_ticks(interval, reference_time_step, "recording_interval")


@dataclass
class Scenario:
    """The world the swarm flies in and its clock.

    ``max_duration`` and ``recording_interval`` must each span a finite
    number of ``reference_time_step`` ticks, and ``recording_interval``
    at least one; it defaults to ``max(DEFAULT_RECORDING_INTERVAL,
    reference_time_step)``.
    """

    physics: Physics
    conditions: FlyingConditions
    inertial_frame: InertialFrame
    reference_time_step: float = 0.001
    max_duration: float = 60.0
    recording_interval: float | None = None

    def __post_init__(self):
        self.reference_time_step = positive(self.reference_time_step, "reference_time_step")
        dt = self.reference_time_step
        self.max_duration = _finite_ticks(positive(self.max_duration, "max_duration"), dt,
                                          "max_duration")
        if self.recording_interval is None:
            self.recording_interval = max(DEFAULT_RECORDING_INTERVAL, dt)
        self.recording_interval = check_recording_interval(self.recording_interval, dt)


@dataclass
class EnvironmentSample:
    """Constants and wind as seen by one drone for one integration step."""

    gravity: float
    air_density: float
    wind_velocity: np.ndarray

    def __post_init__(self):
        self.gravity = positive(self.gravity, "gravity")
        self.air_density = positive(self.air_density, "air_density")
        self.wind_velocity = as_vec3(self.wind_velocity, "wind velocity", "wind_velocity")


def sample_environment(scenario: Scenario, position, t: float) -> EnvironmentSample:
    """Environment at a point and time; uniform and constant in this release."""
    non_negative(t, "t")
    return EnvironmentSample(
        gravity=scenario.physics.gravity,
        air_density=scenario.physics.air_density,
        wind_velocity=scenario.conditions.wind_velocity,
    )


def box_bounds(box: Box) -> tuple[float, float, float, float, float, float]:
    """The box as plain floats ``(lx, ly, lz, hx, hy, hz)``, for :func:`inside_any`."""
    return (*box.min_corner.tolist(), *box.max_corner.tolist())


def inside_any(bounds, x: float, y: float, z: float) -> bool:
    """True iff the finite point (x, y, z) lies inside (inclusive) any of
    the boxes given by :func:`box_bounds`; the caller has checked the point."""
    for lx, ly, lz, hx, hy, hz in bounds:
        if lx <= x <= hx and ly <= y <= hy and lz <= z <= hz:
            return True
    return False


def segment_hits_box(box: Box, a, b) -> bool:
    """Slab test for segment [a, b] against one box, inclusive boundaries.

    A degenerate segment (a == b) reduces to the point-containment test.
    """
    a = as_vec3(a, "segment start")
    b = as_vec3(b, "segment end")
    t_enter, t_exit = 0.0, 1.0
    for axis in range(3):
        origin = a[axis]
        direction = b[axis] - a[axis]
        lo = box.min_corner[axis]
        hi = box.max_corner[axis]
        if direction == 0.0:
            if origin < lo or origin > hi:
                return False
        else:
            t1 = (lo - origin) / direction
            t2 = (hi - origin) / direction
            if t1 > t2:
                t1, t2 = t2, t1
            t_enter = max(t_enter, t1)
            t_exit = min(t_exit, t2)
            if t_enter > t_exit:
                return False
    return True
