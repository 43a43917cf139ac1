import copy
import dataclasses
import logging
import math
import pickle

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import dronesim as ds
import dronesim.airframe as dronesim_airframe
from dronesim.airframe import (_allocation_rows, airframe_constants, allocate_speeds,
                               rotor_wrench)
from dronesim.backend import FLOATS, ROWS

from conftest import (AIR_DENSITY, GRAVITY, LUMPED_THRUST_CONSTANT,
                      build_reference_craft, reference_hover_speed)


def test_rotor_thrust_zero_speed(reference_craft):
    assert ds.rotor_thrust(reference_craft.rotors[0], AIR_DENSITY, 0.0) == 0.0


def test_rotor_thrust_quarter_of_hover_weight(reference_craft):
    # at the closed-form hover speed each of the four rotors carries mg/4
    rotor = reference_craft.rotors[0]
    assert ds.rotor_thrust(rotor, AIR_DENSITY, reference_hover_speed()) == pytest.approx(
        GRAVITY / 4.0, rel=1e-12)
    # the rounded figure lands within 1e-4 N
    assert ds.rotor_thrust(rotor, AIR_DENSITY, 495.23) == pytest.approx(2.4525, abs=1e-4)


def test_rotor_thrust_is_quadratic_in_speed():
    rng = np.random.default_rng(23)
    for _ in range(50):
        rotor = ds.Rotor(position_body=rng.normal(size=3),
                         spin_direction=int(rng.choice([-1, 1])),
                         disk_area=float(rng.uniform(0.01, 0.5)),
                         thrust_coefficient=float(rng.uniform(1e-5, 1e-2)),
                         torque_coefficient=float(rng.uniform(0.0, 1e-3)),
                         max_speed=2000.0)
        speed = float(rng.uniform(1.0, 900.0))
        f1 = ds.rotor_thrust(rotor, AIR_DENSITY, speed)
        f2 = ds.rotor_thrust(rotor, AIR_DENSITY, 2.0 * speed)
        assert f2 == pytest.approx(4.0 * f1, rel=1e-12)


def test_rotor_thrust_rejects_non_positive_density(reference_craft):
    with pytest.raises(ValueError):
        ds.rotor_thrust(reference_craft.rotors[0], -1.0, 0.0)


def test_net_wrench_symmetric_hover_has_no_torque(reference_craft):
    speed = reference_hover_speed()
    force, torque = ds.net_wrench(reference_craft, AIR_DENSITY, [speed] * 4)
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
    _, torque = ds.net_wrench(reference_craft, AIR_DENSITY, speeds)
    assert torque[0] == 0.0 and torque[2] == 0.0
    assert torque[1] != 0.0


def test_net_wrench_all_stopped(reference_craft):
    force, torque = ds.net_wrench(reference_craft, AIR_DENSITY, [0.0] * 4)
    assert np.all(force == 0.0) and np.all(torque == 0.0)


def test_net_wrench_quadratic_homogeneity():
    rng = np.random.default_rng(29)
    for _ in range(30):
        craft = build_reference_craft()
        speeds = rng.uniform(50.0, 400.0, 4)
        scale = float(rng.uniform(1.1, 2.2))
        f1, t1 = ds.net_wrench(craft, AIR_DENSITY, speeds)
        f2, t2 = ds.net_wrench(craft, AIR_DENSITY, speeds * scale)
        assert np.allclose(f2, scale * scale * f1, rtol=1e-12, atol=1e-15)
        assert np.allclose(t2, scale * scale * t1, rtol=1e-12, atol=1e-15)


def test_opposite_spin_pairs_cancel_yaw(reference_craft):
    _, torque = ds.net_wrench(reference_craft, AIR_DENSITY, [321.0] * 4)
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


def test_saturation_lines_are_built_only_when_debug_is_on(reference_craft, monkeypatch, caplog):
    # every rotor of every drone clamps at its ceiling
    constants = airframe_constants(reference_craft, AIR_DENSITY)
    rng = np.random.default_rng(3)
    block = [np.full(200, 1e6), *rng.uniform(-0.1, 0.1, (3, 200))]
    alone = [1e6, 0.01, 0.0, -0.01]

    def speeds():
        return [np.array(allocate_speeds(constants, *demand)).tobytes()
                for demand in (block, alone)]

    with caplog.at_level(logging.DEBUG, logger="dronesim.airframe"):
        logged = speeds()
    assert len(caplog.records) == 201

    def raise_if_called(*args):
        raise AssertionError("debug lines built with debug logging off")

    monkeypatch.setattr(ROWS, "columns", staticmethod(raise_if_called))
    monkeypatch.setattr(FLOATS, "columns", staticmethod(raise_if_called))
    assert not dronesim_airframe.log.isEnabledFor(logging.DEBUG)
    assert speeds() == logged


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
        force, torque = ds.net_wrench(craft, AIR_DENSITY, speeds)
        recovered = ds.allocate(craft, float(force[2]), torque, AIR_DENSITY)
        assert np.max(np.abs(recovered - speeds)) < 1e-9 * max(1.0, float(np.max(speeds)))


def test_allocate_wrench_round_trip_on_demands():
    rng = np.random.default_rng(37)
    craft = build_reference_craft()
    for _ in range(200):
        speeds = rng.uniform(0.0, 900.0, 4)
        force, torque = ds.net_wrench(craft, AIR_DENSITY, speeds)
        demand = np.array([force[2], torque[0], torque[1], torque[2]])
        force2, torque2 = ds.net_wrench(
            craft, AIR_DENSITY, ds.allocate(craft, demand[0], demand[1:], AIR_DENSITY))
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
        matrix = _allocation_rows(airframe_constants(craft, AIR_DENSITY).rotors)
        for _ in range(100):
            speeds = rng.uniform(0.0, 1000.0, len(craft.rotors))
            force, torque = ds.net_wrench(craft, AIR_DENSITY, speeds)
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
    with pytest.raises(TypeError):  # speeds are passed to step, not held
        ds.Rotor(**{**good, "current_speed": 0.0})


def test_set_rotor_speeds_clamps_and_writes_nothing(reference_craft):
    before = [dataclasses.asdict(r) for r in reference_craft.rotors]
    speeds = ds.set_rotor_speeds(reference_craft, np.array([-5.0, 250.0, 1e4, math.inf]))
    assert speeds == (0.0, 250.0, 1000.0, 1000.0)
    assert all(type(s) is float for s in speeds)
    after = [dataclasses.asdict(r) for r in reference_craft.rotors]
    assert all(a.keys() == b.keys() and all(np.array_equal(a[k], b[k]) for k in a)
               for a, b in zip(before, after))


def test_set_rotor_speeds_rejects_nan_and_wrong_count(reference_craft):
    with pytest.raises(ValueError, match="rotor 2 speed"):
        ds.set_rotor_speeds(reference_craft, [500.0, 500.0, math.nan, 500.0])
    with pytest.raises(ValueError, match="expected 4 speeds"):
        ds.set_rotor_speeds(reference_craft, [500.0] * 3)
    for call in (lambda: ds.net_wrench(reference_craft, AIR_DENSITY, [math.nan] * 4),
                 lambda: ds.rotor_thrust(reference_craft.rotors[0], AIR_DENSITY, math.nan)):
        with pytest.raises(ValueError):
            call()


def test_speed_taking_functions_clamp_like_set_rotor_speeds(reference_craft):
    command = [-1.0, 300.0, 2000.0, math.inf]
    clamped = ds.set_rotor_speeds(reference_craft, command)
    force, torque = ds.net_wrench(reference_craft, AIR_DENSITY, command)
    expected = ds.net_wrench(reference_craft, AIR_DENSITY, clamped)
    assert np.array_equal(force, expected[0]) and np.array_equal(torque, expected[1])
    for rotor, speed, s in zip(reference_craft.rotors, command, clamped):
        thrust = ds.rotor_thrust(rotor, AIR_DENSITY, speed)
        assert thrust == ds.rotor_thrust(rotor, AIR_DENSITY, s)


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
    # an airframe cannot be edited in place, so it never flies on stale constants
    rotor = second.rotors[0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        rotor.max_speed = 500.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        second.body = first.body
    with pytest.raises(ValueError, match="read-only"):
        rotor.position_body[1] += 0.01
    assert rotor.position_body[1] == 0.2
    assert airframe_constants(second, AIR_DENSITY) is constants
    # an edit builds a new airframe, which gets its own constants
    arm = rotor.position_body + [0.0, 0.01, 0.0]
    moved = dataclasses.replace(
        second, rotors=[dataclasses.replace(rotor, position_body=arm), *second.rotors[1:]])
    moved_constants = airframe_constants(moved, AIR_DENSITY)
    assert moved_constants is not constants
    assert moved_constants.rotors[0][2] == constants.rotors[0][2] + 0.01
    assert airframe_constants(second, AIR_DENSITY) is constants


def test_rotor_and_body_keep_read_only_copies_of_caller_arrays():
    arm, inertia = np.array([0.2, -0.2, 0.0]), np.array([0.01, 0.01, 0.02])
    rotor = ds.Rotor(position_body=arm, spin_direction=1, disk_area=0.06,
                     thrust_coefficient=1e-4, torque_coefficient=1e-6, max_speed=1000.0)
    body = ds.Body(mass=1.0, inertia_diagonal=inertia)
    for given_array, kept in ((arm, rotor.position_body), (inertia, body.inertia_diagonal)):
        assert given_array.flags.writeable and not kept.flags.writeable
        assert not np.shares_memory(given_array, kept)
        assert kept.dtype == np.float64 and np.array_equal(kept, given_array)
        given_array[0] = 5.0  # the caller's array is still theirs to change
        assert kept[0] != 5.0
    for duplicate in (copy.copy(rotor), copy.deepcopy(rotor), pickle.loads(pickle.dumps(rotor))):
        assert not duplicate.position_body.flags.writeable
        assert duplicate.position_body.tolist() == rotor.position_body.tolist()


def test_repeat_constants_calls_for_one_airframe_build_nothing(monkeypatch):
    craft = build_reference_craft()
    constants = airframe_constants(craft, AIR_DENSITY)

    def rebuilt(*args):
        raise AssertionError("constants rebuilt for an airframe that holds them")

    with monkeypatch.context() as patch:
        patch.setattr(dronesim_airframe, "_constants", rebuilt)
        patch.setattr(dronesim_airframe, "thrust_gain", rebuilt)
        assert airframe_constants(craft, AIR_DENSITY) is constants
    # another air density builds its own, which the airframe then keeps
    thin = airframe_constants(craft, 0.9)
    assert thin is not constants and thin.air_density == 0.9
    assert airframe_constants(craft, 0.9) is thin
    assert airframe_constants(craft, AIR_DENSITY) is constants
    # what the airframe keeps is not a field, so it is not part of its value,
    # and a copy shares the constants of the original
    assert [f.name for f in dataclasses.fields(craft)] == ["body", "rotors"]
    assert dataclasses.asdict(craft).keys() == {"body", "rotors"}
    for duplicate in (copy.copy(craft), copy.deepcopy(craft), pickle.loads(pickle.dumps(craft))):
        assert airframe_constants(duplicate, AIR_DENSITY) is constants


@st.composite
def airframes(draw):
    """3 to 8 rotors of one size with arms on a 5 cm grid, random spins,
    reaction torque coefficients and speed ceilings."""
    arm = st.integers(-8, 8).map(lambda i: 0.05 * i)
    disk_area, thrust_coefficient = draw(st.floats(0.01, 0.2)), draw(st.floats(1e-5, 1e-3))
    rotors = [ds.Rotor(position_body=[draw(arm), draw(arm), 0.0],
                       spin_direction=draw(st.sampled_from([-1, 1])),
                       disk_area=disk_area, thrust_coefficient=thrust_coefficient,
                       torque_coefficient=draw(st.floats(1e-7, 1e-5)),
                       max_speed=draw(st.floats(100.0, 2000.0)))
              for _ in range(draw(st.integers(3, 8)))]
    return ds.Airframe(body=ds.Body(1.0, ds.vec3(0.01, 0.01, 0.02)), rotors=rotors)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(airframes(), st.data())
def test_allocation_realizes_every_reachable_wrench(craft, data):
    constants = airframe_constants(craft, AIR_DENSITY)
    matrix = _allocation_rows(constants.rotors)
    rank = np.linalg.matrix_rank(matrix)
    assert rank < 4 or len(craft.rotors) > 3
    if rank < 4:
        with pytest.raises(ds.ConfigurationError):
            allocate_speeds(constants, 1.0, 0.0, 0.0, 0.0)
        return
    # speeds in a band [low, high] within [0, max_speed]: a narrow band
    # flies near hover, the full band anywhere
    low = data.draw(st.floats(0.0, min(r.max_speed for r in craft.rotors)))
    high = data.draw(st.floats(low, max(r.max_speed for r in craft.rotors)))
    speeds = [data.draw(st.floats(low, min(high, r.max_speed))) for r in craft.rotors]
    wrench = rotor_wrench(constants, speeds)
    # with more than four rotors the pseudo-inverse gives the minimum-norm
    # squared speeds, which may leave [0, max_speed^2] for a reachable wrench
    s_squared = np.linalg.pinv(matrix) @ wrench
    assume(all(0.0 <= s2 <= r.max_speed ** 2 for s2, r in zip(s_squared, craft.rotors)))
    produced = rotor_wrench(constants, allocate_speeds(constants, *wrench))
    error = float(np.linalg.norm(np.subtract(produced, wrench)))
    assert error <= 1e-9 * float(np.linalg.norm(wrench))
