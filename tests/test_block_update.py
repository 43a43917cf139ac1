"""Drones stepped as one numpy block fly exactly as drones stepped alone.

``simulate`` steps every group of at least ``swarm._BLOCK_MIN`` drones
of one rotor layout (rotor count, allocation rank, and drag on all or
none) as the columns of a (13, n) block, with their airframe constants
and gains as rows, and smaller groups drone by drone on plain floats.
Each whole-run test here runs ``simulate`` with the threshold patched
to 1 (every group a block) and to infinity (every drone alone) and
requires equal samples and events with ``==``: on the bundled
scenarios, on the benchmark's crossing swarms of 200 and 1000 drones,
on a swarm whose groups fall on both sides of the real threshold, on a
swarm whose edited gains and airframes stay in its block, on blocks of
random per-drone masses, inertias, rotors, drags and gains (there with
every sample and event compared bit for bit), on a block in which one
drone diverges and one touches the ground, on a block with a drone far
beyond 1e154 m, on drones that capture several waypoints in one tick,
and on generated tilted, spinning swarms.

The seam's numpy primitives are checked against their ``math`` twins on
NaN, signed zeros, infinities and values at the clamp limits, the float
finiteness check against a test of every component, and both paths
must log the same saturation lines.
"""

import dataclasses
import itertools
import logging
import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import dronesim as ds
from dronesim import swarm as swarm_module
from dronesim.backend import FLOATS, ROWS, DivergenceError
from dronesim.cli import routes_from_plan

from conftest import (build_reference_craft, crossing, flat, heavier_craft, level_state,
                      scenario_of)


def run_with_threshold(swarm, scenario, threshold):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(swarm_module, "_BLOCK_MIN", threshold)
        return ds.simulate(swarm, scenario)


def craft(rotor_count=4, mass=1.0, inertia=(0.01, 0.01, 0.02), drag=0.0, arm=0.2 * math.sqrt(2.0),
          thrust=1.0, torque=1.0, max_speed=1000.0, flat=False):
    """Rotors evenly spaced on a circle of radius ``arm`` from 45 degrees,
    spins alternating, each the reference rotor with its coefficients
    scaled by ``thrust`` and ``torque``; ``flat`` puts every rotor on the
    x axis, which leaves no roll torque (rank 3)."""
    rotor = build_reference_craft().rotors[0]
    angles = [math.radians(45.0 + 360.0 * k / rotor_count) for k in range(rotor_count)]
    return ds.Airframe(ds.Body(mass, ds.vec3(*inertia), drag), [dataclasses.replace(
        rotor, position_body=ds.vec3(arm * math.cos(a), 0.0 if flat else arm * math.sin(a), 0.0),
        spin_direction=1 - 2 * (k % 2), thrust_coefficient=thrust * rotor.thrust_coefficient,
        torque_coefficient=torque * rotor.torque_coefficient, max_speed=max_speed)
        for k, a in enumerate(angles)])


def hexacopter(mass, drag):
    return craft(6, mass=mass, inertia=(0.015, 0.015, 0.028), drag=drag)


def blocks_of(swarm, air_density=1.225):
    units = swarm_module._units([swarm_module._start(i, d, air_density)
                                 for i, d in enumerate(swarm.drones)])
    return [u for u in units if isinstance(u, swarm_module._Block)]


def assert_paths_agree(swarm, scenario, *thresholds):
    """Every drone alone, every group a block, and any further thresholds
    give equal samples and events; returns the events."""
    alone = run_with_threshold(swarm, scenario, math.inf)
    for threshold in (1,) + thresholds:
        other = run_with_threshold(swarm, scenario, threshold)
        assert other.events == alone.events
        assert flat(other) == flat(alone)
    return alone.events


# --- whole runs ---------------------------------------------------------------

@pytest.mark.parametrize("name", ["hover.json", "square_route.json", "two_drone_cross.json"])
def test_bundled_scenarios_fly_the_same_in_a_block(name):
    swarm, scenario, mission = ds.load_scenario(ds.bundled_scenario_path(name))
    if mission.waypoints:
        routes_from_plan(swarm, mission, ds.optimize(mission))
    assert assert_paths_agree(swarm, scenario)


@pytest.mark.parametrize("pairs, seed", [(100, 7), (100, 3001), (500, 104729)])
def test_crossing_swarms_fly_the_same_in_a_block(pairs, seed):
    swarm, scenario, designed = crossing(pairs, seed)
    events = assert_paths_agree(swarm, scenario, swarm_module._BLOCK_MIN)
    assert sorted(e.drone_ids for e in events) == sorted(designed)


def test_mixed_swarm_groups_on_both_sides_of_the_threshold():
    # four groups, interleaved in drone order: quadrotors and hexacopters,
    # each without and with drag, two groups above the real threshold and
    # two below it; the two gain sets are spread over all of them
    n0 = swarm_module._BLOCK_MIN
    sizes = {(0, 0): n0 + 5, (0, 1): 3, (1, 0): 2, (1, 1): n0}
    airframes = [[build_reference_craft, lambda: heavier_craft(0.2)],
                 [lambda: hexacopter(1.1, 0.0), lambda: hexacopter(1.4, 0.3)]]
    gain_sets = [ds.ControllerGains, lambda: ds.ControllerGains(position_kp=1.5, max_tilt=0.3)]
    keys = [key for key, size in sizes.items() for _ in range(size)]
    order = np.random.default_rng(5).permutation(len(keys))
    drones = []
    for i, k in enumerate(order):
        layout, drag = keys[k]
        x, y = 7.0 * (i % 9), 7.0 * (i // 9)
        drones.append(ds.Drone(
            id=f"m{i:03d}", airframe=airframes[layout][drag](),
            state=ds.DroneState(0.0, ds.vec3(x, y, 3.0), velocity=ds.vec3(0.5, -0.3, 0.2),
                                orientation=ds.quat_from_euler(0.1, -0.05, 0.3)),
            gains=gain_sets[i % 2](), route=[ds.Setpoint(ds.vec3(x + 2.0, y + 1.0, 4.0), 0.4),
                                           ds.Setpoint(ds.vec3(x, y, 4.5), -0.2)]))
    swarm = ds.Swarm(drones, min_separation=2.0)
    scenario = scenario_of(250, wind=(1.5, -0.5, 0.2))
    assert sorted(len(b.runs) for b in blocks_of(swarm)) == [n0, n0 + 5]
    events = assert_paths_agree(swarm, scenario, n0)
    assert [e for e in events if e.kind == swarm_module.WAYPOINT_REACHED]


def test_edited_gains_and_airframes_stay_in_their_block():
    swarm, scenario, _ = crossing(20, 7)  # 40 drones, one airframe, one gains object
    drones = swarm.drones
    drones[3].gains = dataclasses.replace(drones[3].gains, position_kp=1.5)
    drones[5].airframe = heavier_craft()
    for k in (10, 11, 12):
        drones[k].gains = ds.ControllerGains()
    assert drones[10].gains == drones[0].gains and drones[10].gains is not drones[0].gains
    assert [len(b.runs) for b in blocks_of(swarm, scenario.physics.air_density)] == [40]
    assert_paths_agree(swarm, scenario, swarm_module._BLOCK_MIN)


def random_drone(rng, i, rotor_count, drag, flat=False):
    """A drone of its own mass, inertia, rotors, drag (if ``drag``) and
    gains, its rotor ceiling 1.1 to 1.8 times its hover speed, starting
    tilted, moving and spinning, with a route of two or three setpoints."""
    mass, thrust = rng.uniform(0.7, 1.6), rng.uniform(0.8, 1.3)
    hover = math.sqrt(mass * 9.81 / (rotor_count * thrust * 1e-5))
    airframe = craft(rotor_count, mass, (rng.uniform(0.008, 0.014), rng.uniform(0.008, 0.014),
                                         rng.uniform(0.015, 0.03)),
                     rng.uniform(0.05, 0.4) if drag else 0.0, rng.uniform(0.15, 0.35), thrust,
                     rng.uniform(0.5, 1.5), hover * rng.uniform(1.1, 1.8), flat)
    gains = ds.ControllerGains(rng.uniform(1.2, 2.8), rng.uniform(2.0, 3.4),
                               rng.uniform(40.0, 80.0), rng.uniform(10.0, 20.0),
                               rng.uniform(0.2, 0.7), rng.uniform(0.2, 0.8))
    x, y, z = 3.0 * (i % 12), 3.0 * (i // 12), rng.uniform(3.0, 8.0)
    state = ds.DroneState(0.0, ds.vec3(x, y, z), rng.uniform(-2.0, 2.0, 3),
                          ds.quat_from_euler(*rng.uniform(-0.4, 0.4, 3)), rng.uniform(-2.0, 2.0, 3))
    route = [ds.Setpoint(ds.vec3(x + rng.uniform(-4.0, 4.0), y + rng.uniform(-4.0, 4.0),
                                 rng.uniform(2.0, 9.0)), rng.uniform(-3.0, 3.0))
             for _ in range(rng.integers(2, 4))]
    return ds.Drone(f"x{i:03d}", airframe, state, gains, route)


def bits(trajectory):
    """Every sample's floats and every event, spelled out exactly."""
    samples = {drone_id: [[v.hex() for v in row] for row in trajectory.table(drone_id).tolist()]
               for drone_id in trajectory.samples}
    return samples, [(e.t.hex(), e.kind, e.drone_ids, repr(e.payload)) for e in trajectory.events]


def test_drones_of_every_mass_inertia_rotor_drag_and_gains_fly_their_own_bits_in_a_block():
    # quadrotors without and with drag, interleaved with hexacopters, each
    # drone with its own values; every fifth drone shares the airframe and
    # gains objects of the drone of its layout before it. In each quadrotor
    # block one drone touches the ground in the first tick and one
    # diverges, so the blocks gather their rows again from the drones left
    rng = np.random.default_rng(20)
    layouts = [(4, False), (4, True), (6, False)] * 36
    drones = [random_drone(rng, i, *layout) for i, layout in enumerate(layouts[:105])]
    for i in range(5, len(drones), 5):
        drones[i].airframe, drones[i].gains = drones[i - 3].airframe, drones[i - 3].gains
    for i in (0, 1):
        drones[i].state = ds.DroneState(0.0, ds.vec3(3.0 * i, 0.0, 0.02), velocity=[0, 0, -5.0])
        drones[i + 3].state = ds.DroneState(0.0, ds.vec3(3.0 * i + 9.0, 0.0, 5.0),
                                            angular_velocity=[1e200, -2e200, 3e200])
    swarm = ds.Swarm(drones)
    scenario = scenario_of(200, wind=(2.0, -1.0, 0.3))
    # the quadrotors form one block per drag class, the hexacopters a third
    assert [b.columns.tolist() for b in blocks_of(swarm)] == [
        list(range(0, 105, 3)), list(range(1, 105, 3)), list(range(2, 105, 3))]
    alone = bits(run_with_threshold(swarm, scenario, math.inf))
    for threshold in (1, swarm_module._BLOCK_MIN):
        assert bits(run_with_threshold(swarm, scenario, threshold)) == alone
    kinds = {kind for _, kind, _, _ in alone[1]}
    assert {swarm_module.WAYPOINT_REACHED, swarm_module.GROUND_CONTACT,
            swarm_module.DIVERGENCE} <= kinds
    # a rank-deficient group of drones that differ in every value raises
    # the error a drone of it raises alone
    flat = ds.Swarm([random_drone(rng, i, 4, True, flat=True)
                     for i in range(swarm_module._BLOCK_MIN)])
    assert [len(b.runs) for b in blocks_of(flat)] == [swarm_module._BLOCK_MIN]
    with pytest.raises(ds.ConfigurationError) as lone:
        ds.simulate(ds.Swarm(flat.drones[0:1]), scenario)
    assert str(lone.value).startswith("allocation matrix is rank-deficient (rank 3 < 4)")
    for threshold in (1, swarm_module._BLOCK_MIN):
        with pytest.raises(ds.ConfigurationError) as err:
            run_with_threshold(flat, scenario, threshold)
        assert str(err.value) == str(lone.value)


def test_a_drone_far_beyond_1e154_m_flies_in_a_block_without_a_warning():
    # drone 0 starts at the largest float in x, flying on at 1e306 m/s;
    # drone 1 hovers 1e200 m above drone 2, in the one column of the
    # separation grid that holds every drone but drone 0. Their squared
    # distances overflow to inf in the block's capture test and in the grid
    n = swarm_module._BLOCK_MIN + 2
    drones = [ds.Drone(id=f"w{i:02d}", airframe=build_reference_craft(),
                       state=level_state(4.0 * i, 0.0, 5.0),
                       route=[ds.Setpoint(ds.vec3(4.0 * i, 2.0, 5.0))]) for i in range(n)]
    drones[0].state = ds.DroneState(0.0, ds.vec3(1.797e308, 0.0, 5.0), velocity=[1e306, 0, 0])
    drones[1].state = level_state(8.0, 0.0, 1e200)
    swarm = ds.Swarm(drones)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        alone = bits(run_with_threshold(swarm, scenario_of(20), math.inf))
        assert bits(run_with_threshold(swarm, scenario_of(20), 1)) == alone
    # drone 0's x overflows to inf after a few ticks
    assert [kind for _, kind, ids, _ in alone[1] if ids == ("w00",)] == [swarm_module.DIVERGENCE]


def test_a_diverging_and_a_grounded_drone_leave_their_blocks_alone():
    # two blocks, one without drag and one with, interleaved in drone
    # order; the block of the first drone steps first, yet drone 5's
    # divergence (second block) is reported before drone 8's ground
    # contact (first block)
    n = 2 * (swarm_module._BLOCK_MIN + 2)
    drones = []
    for i in range(n):
        state = level_state(4.0 * i, 0.0, 5.0)
        if i == 5:  # spins so fast that the first step overflows
            state = ds.DroneState(0.0, ds.vec3(20.0, 0.0, 5.0),
                                  angular_velocity=ds.vec3(1e200, 3e200, -2e200))
        if i == 8:  # a hair above the ground, falling
            state = ds.DroneState(0.0, ds.vec3(32.0, 0.0, 0.01), velocity=ds.vec3(0.0, 0.0, -5.0))
        craft = build_reference_craft() if i % 2 == 0 else heavier_craft(0.2)
        drones.append(ds.Drone(id=f"b{i:02d}", airframe=craft, state=state,
                               route=[ds.Setpoint(ds.vec3(4.0 * i, 3.0, 5.0))]))
    swarm = ds.Swarm(drones)
    assert [b.columns.tolist() for b in blocks_of(swarm)] == [list(range(0, n, 2)),
                                                            list(range(1, n, 2))]
    events = assert_paths_agree(swarm, scenario_of(60), swarm_module._BLOCK_MIN)
    left = [(e.kind, e.drone_ids, e.t) for e in events
            if e.kind in (swarm_module.DIVERGENCE, swarm_module.GROUND_CONTACT)]
    assert left == [(swarm_module.DIVERGENCE, ("b05",), 0.01),
                    (swarm_module.GROUND_CONTACT, ("b08",), 0.01)]
    trajectory = ds.simulate(swarm, scenario_of(60))
    assert [s.t for s in trajectory.samples["b05"]] == [0.0]
    assert [s.t for s in trajectory.samples["b08"]] == [0.0, 0.01]
    assert trajectory.samples["b07"][-1].t == pytest.approx(0.6)


def test_drones_capture_several_waypoints_in_one_tick():
    n = swarm_module._BLOCK_MIN + 1
    drones = []
    for i in range(n):
        x = 5.0 * i
        # the start sits on the first two waypoints; 3 m ahead, the last
        # two lie nearer than the third, so all three fall at once
        route = [ds.Setpoint(ds.vec3(x, 0.0, 4.0)), ds.Setpoint(ds.vec3(x + 0.1, 0.0, 4.0)),
                 ds.Setpoint(ds.vec3(x, 3.0, 4.0)), ds.Setpoint(ds.vec3(x, 2.9, 4.0)),
                 ds.Setpoint(ds.vec3(x, 2.8, 4.0))]
        drones.append(ds.Drone(id=f"c{i:02d}", airframe=build_reference_craft(),
                               state=level_state(x, 0.0, 4.0), route=route))
    events = assert_paths_agree(ds.Swarm(drones), scenario_of(400))
    captures = {}
    for e in events:
        if e.kind == swarm_module.WAYPOINT_REACHED:
            captures.setdefault((e.drone_ids, e.t), []).append(e.payload["waypoint_index"])
    assert captures[(("c00",), 0.0)] == [0, 1]
    assert [0, 1] in captures.values() and [2, 3, 4] in captures.values()


@st.composite
def spinning_swarms(draw):
    n = draw(st.integers(1, 40))
    drones = []
    for i in range(n):
        position = draw(st.tuples(st.floats(-20.0, 20.0), st.floats(-20.0, 20.0),
                                  st.floats(0.5, 8.0)))
        state = ds.DroneState(
            0.0, position, velocity=draw(st.tuples(*[st.floats(-3.0, 3.0)] * 3)),
            orientation=ds.quat_from_euler(*draw(st.tuples(*[st.floats(-1.2, 1.2)] * 3))),
            angular_velocity=draw(st.tuples(*[st.floats(-8.0, 8.0)] * 3)))
        route = [ds.Setpoint(ds.vec3(position[0] + dx, position[1] + dy, z), yaw)
                 for dx, dy, z, yaw in draw(st.lists(st.tuples(
                     st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.floats(0.5, 8.0),
                     st.floats(-3.0, 3.0)), max_size=3))]
        craft = draw(st.sampled_from([build_reference_craft, heavier_craft,
                                      lambda: heavier_craft(0.3)]))()
        drones.append(ds.Drone(id=f"h{i:02d}", airframe=craft, state=state, route=route))
    return ds.Swarm(drones), scenario_of(draw(st.integers(1, 40)), dt=draw(
        st.sampled_from([0.005, 0.01, 0.02])))


@settings(derandomize=True, database=None, deadline=None, max_examples=40,
          suppress_health_check=[HealthCheck.too_slow])
@given(spinning_swarms())
def test_tilted_spinning_swarms_fly_the_same_in_a_block(case):
    swarm, scenario = case
    assert_paths_agree(swarm, scenario, 5)


def test_saturation_lines_are_the_same_on_both_paths(caplog):
    # far targets saturate the rotors in the first ticks
    drones = [ds.Drone(id=f"s{i:02d}", airframe=build_reference_craft(),
                       state=level_state(4.0 * i, 0.0, 5.0),
                       route=[ds.Setpoint(ds.vec3(4.0 * i + 60.0, 40.0, 30.0))])
              for i in range(swarm_module._BLOCK_MIN)]
    swarm, scenario = ds.Swarm(drones), scenario_of(30)
    lines = []
    for threshold in (math.inf, 1):
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="dronesim.airframe"):
            run_with_threshold(swarm, scenario, threshold)
        lines.append(sorted(r.getMessage() for r in caplog.records
                            if r.getMessage().startswith("rotor saturation")))
    assert lines[0] and lines[0] == lines[1]


def test_rank_deficient_group_raises_the_same_error():
    def flat_craft():
        craft = build_reference_craft()
        # every rotor on the x axis: no roll torque
        return dataclasses.replace(craft, rotors=[
            dataclasses.replace(rotor, position_body=ds.vec3(rotor.position_body[0], 0.0, 0.0))
            for rotor in craft.rotors])

    drones = [ds.Drone(id=f"r{i:02d}", airframe=flat_craft(), state=level_state(4.0 * i, 0, 5),
                       route=[ds.Setpoint(ds.vec3(4.0 * i, 2.0, 5.0))])
              for i in range(swarm_module._BLOCK_MIN)]
    messages = []
    for threshold in (math.inf, 1):
        with pytest.raises(ds.ConfigurationError) as err:
            run_with_threshold(ds.Swarm(drones), scenario_of(5), threshold)
        messages.append(str(err.value))
    assert messages[0] == messages[1]


# --- the seam's primitives ------------------------------------------------------

SPECIAL = [math.nan, -math.nan, 0.0, -0.0, math.inf, -math.inf, 1e-300, -1e-300,
           0.5, -0.5, 0.49999999999999994, 0.5000000000000001, -0.5000000000000001,
           1e-9, 9.999999999999999e-10, 3.0, -7.25, 1e308]


def same(a, b):
    """Equal floats, with NaN equal to NaN and 0.0 unequal to -0.0."""
    a, b = float(a), float(b)
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def rows(values):
    return np.array(values, dtype=float)


def test_positive_and_clamp_keep_python_semantics():
    v = rows(SPECIAL)
    assert all(map(same, ROWS.positive(v), [FLOATS.positive(x) for x in SPECIAL]))
    assert all(map(same, ROWS.positive(v), [max(0.0, x) for x in SPECIAL]))
    with np.errstate(all="ignore"):
        for limit in (0.5, 1e-300, 1.0):
            expected = [max(-limit, min(limit, x)) for x in SPECIAL]
            assert all(map(same, [FLOATS.clamp(x, limit) for x in SPECIAL], expected))
            assert all(map(same, ROWS.clamp(v, limit), expected))


def test_direction_and_hemisphere_keep_python_semantics():
    pairs = [(a, b) for a in SPECIAL for b in SPECIAL]
    ax, norm = rows([a for a, _ in pairs]), rows([b for _, b in pairs])
    with np.errstate(all="ignore"):
        got_x, got_y = ROWS.direction(ax, -ax, norm)
    for (a, n), gx, gy in zip(pairs, got_x, got_y):
        ex, ey = FLOATS.direction(a, -a, n)
        assert same(gx, ex) and same(gy, ey)
    e = [rows(SPECIAL), rows(SPECIAL[::-1]), rows(SPECIAL[1:] + SPECIAL[:1])]
    got = ROWS.hemisphere(rows(SPECIAL), *e)
    for k, w in enumerate(SPECIAL):
        expected = FLOATS.hemisphere(w, *(float(r[k]) for r in e))
        assert all(same(g[k], x) for g, x in zip(got, expected))


def test_trig_maps_math_over_the_row():
    values = [x for x in SPECIAL if math.isfinite(x)] + [0.25, -1.2, 2.5]
    for name in ("cos", "sin"):
        got = getattr(ROWS, name)(rows(values))
        assert all(map(same, got, map(getattr(math, name), values)))


def test_rotor_speeds_keep_python_semantics():
    s_squared = [SPECIAL, SPECIAL[::-1], [1e6] * len(SPECIAL), [x * 1e6 for x in SPECIAL]]
    max_speeds = (1000.0, 3.0, 999.0, 0.5)
    speeds, saturated = ROWS.rotor_speeds([rows(r) for r in s_squared], max_speeds)
    picked = []
    for k in range(len(SPECIAL)):
        expected, clamped = FLOATS.rotor_speeds([r[k] for r in s_squared], max_speeds)
        assert all(same(s[k], x) for s, x in zip(speeds, expected))
        if clamped:
            picked.append(k)
    assert saturated == picked and picked


def test_renormalized_fails_the_same_columns_for_the_same_reasons():
    states = [[1.0] * 6 + [0.6, 0.0, 0.8, 0.0] + [0.0] * 3,
              [1.0] * 6 + [0.0, 0.0, 0.0, 0.0] + [0.0] * 3,  # collapsed
              [math.nan] + [1.0] * 5 + [1.0, 0.0, 0.0, 0.0] + [0.0] * 3,  # non-finite
              [1.0] * 6 + [1e200, 1e200, 0.0, 0.0] + [0.0] * 3,  # the norm overflows
              [1.0] * 6 + [1e-13, 0.0, 0.0, 0.0] + [0.0] * 3,  # below 1e-12
              [1.0] * 6 + [-0.0, 3.0, 4.0, 0.0] + [-0.0] * 3,
              [math.inf] * 13,
              [1e308, 1e308] + [1.0] * 4 + [0.6, 0.0, 0.8, 0.0] + [1e308] * 3,  # the sum overflows
              [math.inf, -math.inf] + [1.0] * 4 + [1.0, 0.0, 0.0, 0.0] + [0.0] * 3,
              [1.0] * 5 + [-math.inf, 1.0, 0.0, 0.0, 0.0] + [0.0] * 3,
              [-1e308] * 6 + [0.0, 0.6, 0.0, 0.8] + [-1e308] * 3]
    expected = {}
    for k, state in enumerate(states):
        try:
            expected[k] = FLOATS.renormalized(list(state), 0.5)
        except DivergenceError as err:
            expected[k] = str(err)
    with np.errstate(all="ignore"), pytest.raises(DivergenceError) as err:
        ROWS.renormalized(list(np.array(states).T), 0.5)
    assert err.value.columns == {k: v for k, v in expected.items() if isinstance(v, str)}
    assert err.value.columns == {1: "orientation collapsed at t = 0.5",
                                 2: "non-finite state at t = 0.5",
                                 3: "orientation collapsed at t = 0.5",
                                 4: "orientation collapsed at t = 0.5",
                                 6: "non-finite state at t = 0.5",
                                 8: "non-finite state at t = 0.5",
                                 9: "non-finite state at t = 0.5"}
    for k in (0, 5, 7, 10):
        assert all(map(same, err.value.state[:, k], expected[k]))


def test_floats_renormalized_raises_exactly_on_a_non_finite_component():
    # the sum of the components decides only when it is finite; finite
    # components whose sum overflows, such as 1e308 twice, must not raise
    outcomes = set()
    for i, a, b in itertools.product(range(13), SPECIAL, SPECIAL):
        state = [1.0] * 6 + [0.6, 0.0, 0.8, 0.0] + [0.0] * 3
        state[i], state[(i + 5) % 13] = a, b
        try:
            FLOATS.renormalized(list(state), 0.5)
            message = None
        except DivergenceError as err:
            message = str(err)
        if all(map(math.isfinite, state)):
            assert message in (None, "orientation collapsed at t = 0.5")
        else:
            assert message == "non-finite state at t = 0.5"
        outcomes.add((message, math.isfinite(sum(state))))
    assert (None, False) in outcomes  # a finite state whose sum overflowed
