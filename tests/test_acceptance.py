"""Acceptance suite: one test per release criterion, strictest tolerances.

Run with ``pytest tests/test_acceptance.py -v`` for one pass/fail line
per criterion; each test also prints its measured numbers.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

import dronesim as ds
from dronesim.cli import routes_from_plan

from conftest import (AIR_DENSITY, GRAVITY, assert_strict_geojson,
                      build_reference_craft, calm_environment, level_state,
                      reference_hover_speed)


def report(line: str) -> None:
    print(f"[acceptance] {line}: PASS")


def test_criterion_01_hover_equilibrium_holds_position():
    craft = build_reference_craft()
    env = calm_environment()
    hover = [reference_hover_speed()] * 4
    state = level_state(z=5.0)
    started = time.perf_counter()
    drift = 0.0
    for _ in range(10_000):  # 10 s at dt = 0.001
        state = ds.step(state, craft, env, 0.001, hover)
        drift = max(drift, float(np.linalg.norm(state.position - [0.0, 0.0, 5.0])))
    elapsed = time.perf_counter() - started
    assert drift < 1e-6
    assert elapsed < 5.0
    report(f"criterion 1 hover equilibrium (drift {drift:.2e} m, {elapsed:.2f} s wall)")


def test_criterion_02_ballistic_oracle_and_integrator_order():
    craft = build_reference_craft()
    env = calm_environment()

    state = level_state(z=10.0)
    for _ in range(100):
        state = ds.step(state, craft, env, 0.01, [0.0] * 4)
    drop_error = abs(float(state.position[2]) - (10.0 - 0.5 * GRAVITY))
    assert drop_error < 1e-6

    # drag-free fall is a quadratic that RK4 reproduces exactly, so the
    # order measurement uses the linear-drag profile with its closed form
    def drag_error(dt):
        drag = 0.3
        craft_d = build_reference_craft()
        craft_d = dataclasses.replace(
            craft_d, body=dataclasses.replace(craft_d.body, linear_drag=drag))
        s = level_state(z=10.0)
        for _ in range(round(1.0 / dt)):
            s = ds.step(s, craft_d, env, dt, [0.0] * 4)
        m, g, c = craft_d.body.mass, GRAVITY, drag
        z_exact = 10.0 - (g * m / c) + (m / c) * (g * m / c) * (1.0 - math.exp(-c / m))
        return abs(float(s.position[2]) - z_exact)

    ratio = drag_error(0.02) / drag_error(0.01)
    assert 12.0 <= ratio <= 20.0
    report(f"criterion 2 ballistic oracle (drop err {drop_error:.2e} m, "
           f"halving ratio {ratio:.2f})")


def test_criterion_03_energy_conservation():
    craft = build_reference_craft()
    env = calm_environment()
    state = ds.DroneState(0.0, ds.vec3(0.0, 0.0, 200.0), ds.vec3(2.0, 1.0, 4.0),
                          ds.quat_identity(), ds.vec3(0.3, 0.2, 0.1))
    mass = craft.body.mass

    def energy(s):
        return 0.5 * mass * float(s.velocity @ s.velocity) + mass * GRAVITY * s.position[2]

    reference = energy(state)
    worst = 0.0
    for _ in range(5_000):  # 5 s at dt = 0.001
        state = ds.step(state, craft, env, 0.001, [0.0] * 4)
        worst = max(worst, abs(energy(state) - reference) / abs(reference))
    assert worst < 1e-8
    report(f"criterion 3 energy conservation (relative drift {worst:.2e})")


def test_criterion_04_allocation_round_trip():
    craft = build_reference_craft()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1_000):
        speeds = rng.uniform(0.0, 950.0, 4)
        force, torque = ds.net_wrench(craft, AIR_DENSITY, speeds)
        demand = np.array([force[2], torque[0], torque[1], torque[2]])
        force2, torque2 = ds.net_wrench(
            craft, AIR_DENSITY, ds.allocate(craft, demand[0], demand[1:], AIR_DENSITY))
        produced = np.array([force2[2], torque2[0], torque2[1], torque2[2]])
        error = float(np.linalg.norm(produced - demand))
        scale = max(1.0, float(np.linalg.norm(demand)))
        worst = max(worst, error / scale)
    assert worst <= 1e-9
    report(f"criterion 4 allocation round trip (worst relative error {worst:.2e})")


def test_criterion_05_frame_algebra():
    rng = np.random.default_rng(2025)
    worst_norm, worst_comp = 0.0, 0.0
    for _ in range(10_000):
        q1 = ds.quat_normalize(rng.normal(size=4))
        q2 = ds.quat_normalize(rng.normal(size=4))
        v = rng.normal(size=3) * rng.uniform(0.1, 50.0)
        scale = float(np.linalg.norm(v))
        rotated = ds.rotate(q1, v)
        worst_norm = max(worst_norm, abs(float(np.linalg.norm(rotated)) - scale) / scale)
        lhs = ds.rotate(ds.quat_multiply(q1, q2), v)
        rhs = ds.rotate(q1, ds.rotate(q2, v))
        worst_comp = max(worst_comp, float(np.max(np.abs(lhs - rhs))) / max(1.0, scale))
    assert worst_norm <= 1e-12
    assert worst_comp <= 1e-12

    q = ds.quat_from_axis_angle([1.0, 2.0, 3.0], 0.4)
    omega = np.array([0.7, -0.3, 1.1])
    worst_unit = 0.0
    for i in range(1_000_000):
        q = ds.integrate_orientation(q, omega, 0.001)
        if i % 10_000 == 0:
            worst_unit = max(worst_unit, abs(float(np.linalg.norm(q)) - 1.0))
    worst_unit = max(worst_unit, abs(float(np.linalg.norm(q)) - 1.0))
    assert worst_unit <= 1e-9
    report(f"criterion 5 frame algebra (norm {worst_norm:.2e}, comp {worst_comp:.2e}, "
           f"unit drift over 1e6 steps {worst_unit:.2e})")


def test_criterion_06_routing_oracle():
    exact_matches = 0
    worst_ratio = 1.0
    oracle_seconds = 0.0
    for trial in range(100):
        rng = np.random.default_rng(1000 + trial)
        count = int(rng.integers(5, 9))  # 5 to 8 waypoints
        waypoints = [ds.Waypoint(f"wp-{i:02d}", rng.uniform(-50.0, 50.0, 3))
                     for i in range(count)]
        mission = ds.Mission(waypoints, [rng.uniform(-50.0, 50.0, 3)],
                             max_route_length=1e9)
        plan = ds.optimize(mission)

        # local optimality: no remaining 2-opt move shortens the route
        by_id = {w.id: w for w in waypoints}
        route = [by_id[i] for i in plan.routes[0]]
        start = mission.start_positions[0]
        base = ds.route_length(start, route)
        for i in range(len(route) - 1):
            for j in range(i + 1, len(route)):
                candidate = route[:i] + route[i:j + 1][::-1] + route[j + 1:]
                assert ds.route_length(start, candidate) >= base - 1e-9

        started = time.perf_counter()
        oracle = ds.brute_force_optimize(mission)
        oracle_seconds += time.perf_counter() - started
        ratio = plan.total_length / oracle.total_length
        worst_ratio = max(worst_ratio, ratio)
        assert ratio <= 1.25, f"seed {1000 + trial} exceeded the 25% bound: {ratio}"
        if plan.total_length <= oracle.total_length * (1.0 + 1e-9):
            exact_matches += 1
    assert exact_matches >= 95
    assert oracle_seconds < 60.0
    report(f"criterion 6 routing oracle ({exact_matches}/100 exact, worst ratio "
           f"{worst_ratio:.4f}, oracle {oracle_seconds:.1f} s)")


def test_criterion_07_closed_loop_vertical_step_capture():
    craft = build_reference_craft()
    env = calm_environment()
    gains = ds.ControllerGains()
    target = ds.Setpoint(ds.vec3(0.0, 0.0, 5.0))
    state = level_state(z=0.0)
    max_speed = craft.rotors[0].max_speed
    captured_at = None
    t = 0.0
    while t < 30.0:
        commands = ds.compute_commands(state, target, craft, gains, GRAVITY, AIR_DENSITY)
        assert np.all(commands >= 0.0) and np.all(commands <= max_speed)
        state = ds.step(state, craft, env, 0.001, commands)
        t += 0.001
        if ds.waypoint_reached(state, target, gains):
            captured_at = t
            break
    assert captured_at is not None and captured_at <= 30.0
    report(f"criterion 7 closed-loop capture (5 m step captured at {captured_at:.3f} s)")


def _run_cross_fixture() -> ds.Trajectory:
    swarm, scenario, mission = ds.load_scenario(
        ds.bundled_scenario_path("two_drone_cross.json"))
    routes_from_plan(swarm, mission, ds.optimize(mission))
    return ds.simulate(swarm, scenario, scenario.recording_interval)


def _trajectories_identical(a: ds.Trajectory, b: ds.Trajectory) -> bool:
    if [(e.t, e.kind, e.drone_ids) for e in a.events] != \
       [(e.t, e.kind, e.drone_ids) for e in b.events]:
        return False
    if list(a.samples) != list(b.samples):
        return False
    for drone_id in a.samples:
        sa, sb = a.samples[drone_id], b.samples[drone_id]
        if len(sa) != len(sb):
            return False
        for x, y in zip(sa, sb):
            if x.t != y.t or not np.array_equal(x.position, y.position) \
               or not np.array_equal(x.velocity, y.velocity) \
               or not np.array_equal(x.orientation, y.orientation) \
               or not np.array_equal(x.angular_velocity, y.angular_velocity):
                return False
    return True


def test_criterion_08_swarm_determinism_and_predicted_encounter():
    first = _run_cross_fixture()
    second = _run_cross_fixture()
    third = _run_cross_fixture()
    assert _trajectories_identical(first, second)
    assert _trajectories_identical(first, third)

    violations = [e for e in first.events if e.kind == "separation_violation"]
    assert len(violations) >= 1

    # prediction: fly the eastbound drone alone (interactions are purely
    # observational, so its swarm trajectory is the same); the westbound
    # drone mirrors it through (x, y, z) -> (-x, y + 0.5, z), so the pair
    # separation is sqrt((2 x(t))^2 + 0.5^2)
    swarm, scenario, mission = ds.load_scenario(
        ds.bundled_scenario_path("two_drone_cross.json"))
    routes_from_plan(swarm, mission, ds.optimize(mission))
    east = next(d for d in swarm.drones if d.id == "east")
    dt = scenario.reference_time_step
    solo_scenario = dataclasses.replace(scenario, recording_interval=dt)
    solo = ds.simulate(ds.Swarm([east], min_separation=swarm.min_separation),
                       solo_scenario, recording_interval=dt)
    lateral_offset = 0.5
    predicted_tick = None
    for s in solo.samples["east"]:
        separation = math.hypot(2.0 * float(s.position[0]), lateral_offset)
        if separation < swarm.min_separation:
            predicted_tick = round(s.t / dt)
            break
    assert predicted_tick is not None
    actual_tick = round(violations[0].t / dt)
    assert abs(actual_tick - predicted_tick) <= 2
    report(f"criterion 8 swarm determinism (violation tick {actual_tick} vs "
           f"predicted {predicted_tick}, 3 runs bit-identical)")


def test_criterion_09_export_fidelity(tmp_path):
    swarm, scenario, mission = ds.load_scenario(
        ds.bundled_scenario_path("square_route.json"))
    routes_from_plan(swarm, mission, ds.optimize(mission))
    trajectory = ds.simulate(swarm, scenario, scenario.recording_interval)

    geojson_path = tmp_path / "square.geojson"
    ds.export_geojson(trajectory, scenario.inertial_frame, geojson_path)
    import json
    document = json.loads(geojson_path.read_text())
    assert_strict_geojson(document)
    tracks = [f for f in document["features"] if "drone_id" in f["properties"]]
    assert len(tracks) == 1 and tracks[0]["geometry"]["type"] == "LineString"

    # meridian displacement: 111 194.9 m north of (0, 0) is 1 degree
    frame = ds.InertialFrame(0.0, 0.0, 0.0)
    displaced = ds.Trajectory(samples={"alpha": [
        level_state(0.0, 0.0, 0.0, t=0.0),
        level_state(0.0, 111_194.9, 0.0, t=1.0)]}, events=[])
    north_path = tmp_path / "north.geojson"
    ds.export_geojson(displaced, frame, north_path)
    final = json.loads(north_path.read_text())["features"][0]["geometry"]["coordinates"][-1]
    assert final[1] == pytest.approx(1.0, abs=1e-6)

    csv_path = tmp_path / "square.csv"
    ds.export_csv(trajectory, csv_path)
    loaded = ds.load_csv(csv_path)
    for original, parsed in zip(trajectory.samples["alpha"], loaded.samples["alpha"]):
        assert parsed.t == pytest.approx(original.t, rel=1e-8, abs=1e-12)
        assert np.allclose(parsed.position, original.position, rtol=1e-8, atol=1e-12)
        assert np.allclose(parsed.velocity, original.velocity, rtol=1e-8, atol=1e-12)
        assert np.allclose(parsed.orientation, original.orientation, rtol=1e-8, atol=1e-12)
    report(f"criterion 9 export fidelity (strict GeoJSON, final latitude "
           f"{final[1]:.9f} deg, CSV round trip)")


def test_criterion_10_rmse_metrics():
    reference = {"alpha": [ds.Setpoint(ds.vec3(0.0, 0.0, 0.0)),
                           ds.Setpoint(ds.vec3(10.0, 0.0, 0.0))]}
    on_line = [level_state(x, 0.0, 0.0, t=0.1 * i)
               for i, x in enumerate([0.0, 3.0, 6.0, 10.0])]
    zero = ds.compute_rmse(ds.Trajectory(samples={"alpha": on_line}, events=[]), reference)
    assert zero.rmse_m["alpha"] == 0.0

    offset = [level_state(x, 1.0, 0.0, t=0.1 * i)
              for i, x in enumerate([0.5, 2.5, 7.5, 9.5])]
    one = ds.compute_rmse(ds.Trajectory(samples={"alpha": offset}, events=[]), reference)
    assert one.rmse_m["alpha"] == pytest.approx(1.0, abs=1e-9)
    report(f"criterion 10 metrics (identical {zero.rmse_m['alpha']:.1e} m, "
           f"offset {one.rmse_m['alpha']:.12f} m)")
