import math

import numpy as np
import pytest

import dronesim as ds
from dronesim.airframe import airframe_constants

from conftest import (AIR_DENSITY, GRAVITY, LUMPED_THRUST_CONSTANT,
                      build_reference_craft, reference_hover_speed)


def test_rotor_thrust_zero_speed(reference_craft):
    assert ds.rotor_thrust(reference_craft.rotors[0], AIR_DENSITY) == 0.0


def test_rotor_thrust_quarter_of_hover_weight(reference_craft):
    # at the closed-form hover speed each of the four rotors carries mg/4
    rotor = reference_craft.rotors[0]
    rotor.current_speed = reference_hover_speed()
    assert ds.rotor_thrust(rotor, AIR_DENSITY) == pytest.approx(GRAVITY / 4.0, rel=1e-12)
    rotor.current_speed = 495.23  # the rounded figure lands within 1e-4 N
    assert ds.rotor_thrust(rotor, AIR_DENSITY) == pytest.approx(2.4525, abs=1e-4)


def test_rotor_thrust_is_quadratic_in_speed():
    rng = np.random.default_rng(23)
    for _ in range(50):
        rotor = ds.Rotor(position_body=rng.normal(size=3),
                         spin_direction=int(rng.choice([-1, 1])),
                         disk_area=float(rng.uniform(0.01, 0.5)),
                         thrust_coefficient=float(rng.uniform(1e-5, 1e-2)),
                         torque_coefficient=float(rng.uniform(0.0, 1e-3)),
                         max_speed=2000.0,
                         current_speed=float(rng.uniform(1.0, 900.0)))
        f1 = ds.rotor_thrust(rotor, AIR_DENSITY)
        rotor.current_speed *= 2.0
        assert ds.rotor_thrust(rotor, AIR_DENSITY) == pytest.approx(4.0 * f1, rel=1e-12)


def test_rotor_thrust_rejects_non_positive_density(reference_craft):
    with pytest.raises(ValueError):
        ds.rotor_thrust(reference_craft.rotors[0], -1.0)


def test_net_wrench_symmetric_hover_has_no_torque(reference_craft):
    speed = reference_hover_speed()
    ds.set_rotor_speeds(reference_craft, [speed] * 4)
    force, torque = ds.net_wrench(reference_craft, AIR_DENSITY)
    f_single = LUMPED_THRUST_CONSTANT * speed * speed
    assert force[0] == 0.0 and force[1] == 0.0
    assert force[2] == pytest.approx(4.0 * f_single, rel=1e-12)
    assert np.max(np.abs(torque)) < 1e-12


def test_net_wrench_front_rear_split_gives_pure_pitch(reference_craft):
    # front pair (x > 0) slower than rear pair by the same margin
    front, rear = 450.0, 550.0
    speeds = []
    for rotor in reference_craft.rotors:
        speeds.append(front if rotor.position_body[0] > 0 else rear)
    ds.set_rotor_speeds(reference_craft, speeds)
    _, torque = ds.net_wrench(reference_craft, AIR_DENSITY)
    assert torque[0] == 0.0 and torque[2] == 0.0
    assert torque[1] != 0.0


def test_net_wrench_all_stopped(reference_craft):
    force, torque = ds.net_wrench(reference_craft, AIR_DENSITY)
    assert np.all(force == 0.0) and np.all(torque == 0.0)


def test_net_wrench_quadratic_homogeneity():
    rng = np.random.default_rng(29)
    for _ in range(30):
        craft = build_reference_craft()
        speeds = rng.uniform(50.0, 400.0, 4)
        scale = float(rng.uniform(1.1, 2.2))
        ds.set_rotor_speeds(craft, speeds)
        f1, t1 = ds.net_wrench(craft, AIR_DENSITY)
        ds.set_rotor_speeds(craft, speeds * scale)
        f2, t2 = ds.net_wrench(craft, AIR_DENSITY)
        assert np.allclose(f2, scale * scale * f1, rtol=1e-12, atol=1e-15)
        assert np.allclose(t2, scale * scale * t1, rtol=1e-12, atol=1e-15)


def test_opposite_spin_pairs_cancel_yaw(reference_craft):
    ds.set_rotor_speeds(reference_craft, [321.0] * 4)
    _, torque = ds.net_wrench(reference_craft, AIR_DENSITY)
    assert torque[2] == 0.0


def test_allocate_hover_demand_gives_equal_speeds(reference_craft):
    speeds = ds.allocate(reference_craft, GRAVITY, np.zeros(3), AIR_DENSITY)
    expected = reference_hover_speed()
    assert np.allclose(speeds, expected, rtol=1e-12)
    assert speeds[0] == pytest.approx(495.23, abs=5e-3)


def test_allocate_zero_demand(reference_craft):
    assert np.all(ds.allocate(reference_craft, 0.0, np.zeros(3), AIR_DENSITY) == 0.0)


def test_allocate_saturates_silently(reference_craft):
    # beyond-feasible demand clamps every rotor at its ceiling, no error
    speeds = ds.allocate(reference_craft, 1e6, np.zeros(3), AIR_DENSITY)
    assert np.all(speeds == 1000.0)


def test_allocate_rejects_negative_thrust(reference_craft):
    with pytest.raises(ValueError):
        ds.allocate(reference_craft, -1.0, np.zeros(3), AIR_DENSITY)


def test_allocate_rank_deficient_layout_is_configuration_error():
    # both rotors on the x axis: no rotor can produce roll torque
    rotor_a = ds.Rotor(ds.vec3(0.2, 0.0, 0.0), 1, 0.05, 1e-4, 1e-6, 1000.0)
    rotor_b = ds.Rotor(ds.vec3(-0.2, 0.0, 0.0), -1, 0.05, 1e-4, 1e-6, 1000.0)
    degenerate = ds.Airframe(body=ds.Body(1.0, ds.vec3(0.01, 0.01, 0.02)),
                             rotors=[rotor_a, rotor_b])
    with pytest.raises(ds.ConfigurationError):
        ds.allocate(degenerate, 5.0, np.zeros(3), AIR_DENSITY)


def test_wrench_allocate_round_trip_on_speeds():
    # allocate recovers the exact speeds whose wrench it is handed
    rng = np.random.default_rng(31)
    craft = build_reference_craft()
    for _ in range(200):
        speeds = rng.uniform(0.0, 900.0, 4)
        ds.set_rotor_speeds(craft, speeds)
        force, torque = ds.net_wrench(craft, AIR_DENSITY)
        recovered = ds.allocate(craft, float(force[2]), torque, AIR_DENSITY)
        assert np.max(np.abs(recovered - speeds)) < 1e-9 * max(1.0, float(np.max(speeds)))


def test_allocate_wrench_round_trip_on_demands():
    rng = np.random.default_rng(37)
    craft = build_reference_craft()
    for _ in range(200):
        speeds = rng.uniform(0.0, 900.0, 4)
        ds.set_rotor_speeds(craft, speeds)
        force, torque = ds.net_wrench(craft, AIR_DENSITY)
        demand = np.array([force[2], torque[0], torque[1], torque[2]])
        ds.set_rotor_speeds(craft, ds.allocate(craft, demand[0], demand[1:], AIR_DENSITY))
        force2, torque2 = ds.net_wrench(craft, AIR_DENSITY)
        produced = np.array([force2[2], torque2[0], torque2[1], torque2[2]])
        assert np.max(np.abs(produced - demand)) <= 1e-9 * max(1.0, float(np.linalg.norm(demand)))


def test_allocation_matrix_maps_squared_speeds_to_the_wrench():
    rng = np.random.default_rng(41)
    # the reference quad and a seeded irregular hexacopter
    hexa = ds.Airframe(
        body=ds.Body(1.5, ds.vec3(0.02, 0.02, 0.04)),
        rotors=[ds.Rotor(position_body=rng.normal(scale=0.3, size=3),
                         spin_direction=(-1) ** i,
                         disk_area=float(rng.uniform(0.02, 0.1)),
                         thrust_coefficient=float(rng.uniform(5e-5, 2e-4)),
                         torque_coefficient=float(rng.uniform(1e-7, 5e-6)),
                         max_speed=1200.0) for i in range(6)])
    for craft in (build_reference_craft(), hexa):
        matrix = ds.allocation_matrix(craft, AIR_DENSITY)
        for _ in range(100):
            speeds = rng.uniform(0.0, 1000.0, len(craft.rotors))
            ds.set_rotor_speeds(craft, speeds)
            force, torque = ds.net_wrench(craft, AIR_DENSITY)
            wrench = np.array([force[2], *torque])
            error = np.linalg.norm(matrix @ speeds**2 - wrench)
            assert error <= 1e-9 * np.linalg.norm(wrench)


def test_airframe_requires_two_rotors():
    rotor = ds.Rotor(ds.vec3(0.2, 0.0, 0.0), 1, 0.05, 1e-4, 1e-6, 1000.0)
    with pytest.raises(ValueError):
        ds.Airframe(body=ds.Body(1.0, ds.vec3(0.01, 0.01, 0.02)), rotors=[rotor])


@pytest.mark.parametrize("field,value", [
    ("mass", 0.0), ("mass", -1.0), ("linear_drag", -0.5),
])
def test_body_invariants(field, value):
    kwargs = {"mass": 1.0, "inertia_diagonal": ds.vec3(0.01, 0.01, 0.02),
              "linear_drag": 0.0, field: value}
    with pytest.raises(ValueError):
        ds.Body(**kwargs)


def test_rotor_invariants():
    good = dict(position_body=ds.vec3(0.2, 0.2, 0.0), spin_direction=1,
                disk_area=0.05, thrust_coefficient=1e-4,
                torque_coefficient=1e-6, max_speed=1000.0)
    with pytest.raises(ValueError):
        ds.Rotor(**{**good, "spin_direction": 2})
    with pytest.raises(ValueError):
        ds.Rotor(**{**good, "disk_area": 0.0})
    with pytest.raises(ValueError):
        ds.Rotor(**{**good, "thrust_coefficient": 0.0})
    with pytest.raises(ValueError):
        ds.Rotor(**{**good, "torque_coefficient": -1e-9})
    with pytest.raises(ValueError):
        ds.Rotor(**{**good, "current_speed": 1200.0})


def test_hover_speed_helper_matches_closed_form(reference_craft):
    assert ds.hover_speed(reference_craft, GRAVITY, AIR_DENSITY) == pytest.approx(
        math.sqrt(GRAVITY / (4.0 * LUMPED_THRUST_CONSTANT)), rel=1e-12)


def test_equal_airframes_share_one_constants_object():
    # the cache is keyed on values: swarm._units groups drones by the identity
    # of their constants, so equal airframes must get the same object
    first, second = build_reference_craft(), build_reference_craft()
    assert first is not second
    constants = airframe_constants(first, AIR_DENSITY)
    assert airframe_constants(second, AIR_DENSITY) is constants
    assert all(type(v) is float for rotor in constants.rotors for v in rotor)
    # an edit in place is a new key, never the stale constants
    second.rotors[0].position_body[1] += 0.01
    moved = airframe_constants(second, AIR_DENSITY)
    assert moved is not constants
    assert moved.rotors[0][2] == constants.rotors[0][2] + 0.01
