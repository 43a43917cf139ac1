"""Shared builders for the test suite.

The "reference craft" used throughout is the one shipped in the example
scenarios: 1 kg, inertia diag (0.01, 0.01, 0.02) kg m^2, four rotors in
an X at (+-0.2, +-0.2, 0) m with alternating spin, lumped thrust
constant c_T * rho * A = 1e-5 N s^2, reaction-to-thrust ratio 0.016,
1000 rad/s speed ceiling. Its hover speed has the closed form
sqrt(m g / (4 k)) ~ 495.23 rad/s.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import dronesim as ds
from dronesim import swarm as swarm_module
from dronesim.scenario import box_bounds

AIR_DENSITY = 1.225
GRAVITY = 9.81
DISK_AREA = 0.0625
THRUST_COEFF = 1e-5 / (AIR_DENSITY * DISK_AREA)
TORQUE_COEFF = 0.016 * THRUST_COEFF
LUMPED_THRUST_CONSTANT = THRUST_COEFF * AIR_DENSITY * DISK_AREA  # ~1e-5 N s^2


def build_reference_craft() -> ds.Airframe:
    def rotor(x, y, spin):
        return ds.Rotor(position_body=ds.vec3(x, y, 0.0), spin_direction=spin,
                        disk_area=DISK_AREA, thrust_coefficient=THRUST_COEFF,
                        torque_coefficient=TORQUE_COEFF, max_speed=1000.0)

    return ds.Airframe(
        body=ds.Body(mass=1.0, inertia_diagonal=ds.vec3(0.01, 0.01, 0.02),
                     linear_drag=0.0),
        rotors=[rotor(0.2, 0.2, 1), rotor(-0.2, 0.2, -1),
                rotor(-0.2, -0.2, 1), rotor(0.2, -0.2, -1)])


def reference_hover_speed() -> float:
    return math.sqrt(1.0 * GRAVITY / (4.0 * LUMPED_THRUST_CONSTANT))


def calm_environment() -> ds.EnvironmentSample:
    return ds.EnvironmentSample(gravity=GRAVITY, air_density=AIR_DENSITY,
                                wind_velocity=np.zeros(3))


def level_state(x=0.0, y=0.0, z=0.0, t=0.0) -> ds.DroneState:
    return ds.DroneState(t=t, position=ds.vec3(x, y, z), velocity=np.zeros(3),
                         orientation=ds.quat_identity(), angular_velocity=np.zeros(3))


def grid_violations(ids, positions, min_separation, conditions, t) -> list[ds.SimEvent]:
    """Every separation and obstacle violation at time t, as the events
    ``simulate`` builds; positions as a (3, N) array or one 3-float
    sequence per drone."""
    boxes = [box_bounds(b) for b in conditions.obstacles]
    return [swarm_module._violation_event(v, ids, positions, min_separation, t)
            for v in swarm_module._instant_violations(positions, min_separation, boxes)]


@pytest.fixture
def reference_craft() -> ds.Airframe:
    return build_reference_craft()


@pytest.fixture
def calm_env() -> ds.EnvironmentSample:
    return calm_environment()


def assert_strict_geojson(document: dict) -> None:
    """Structural RFC 7946 checks: types, arities, and coordinate ranges."""
    assert document["type"] == "FeatureCollection"
    assert isinstance(document["features"], list)

    def check_position(position):
        assert isinstance(position, list) and len(position) in (2, 3)
        lon, lat = position[0], position[1]
        assert all(isinstance(c, (int, float)) and math.isfinite(c) for c in position)
        assert -180.0 <= lon <= 180.0
        assert -90.0 <= lat <= 90.0

    for feature in document["features"]:
        assert feature["type"] == "Feature"
        assert "properties" in feature and "geometry" in feature
        geometry = feature["geometry"]
        if geometry is None:
            continue
        if geometry["type"] == "Point":
            check_position(geometry["coordinates"])
        elif geometry["type"] == "LineString":
            coords = geometry["coordinates"]
            assert isinstance(coords, list) and len(coords) >= 2
            for position in coords:
                check_position(position)
        else:
            raise AssertionError(f"unexpected geometry type {geometry['type']}")
