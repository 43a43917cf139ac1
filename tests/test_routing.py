import dataclasses
import math
import random

import numpy as np
import pytest

import dronesim as ds
from dronesim import routing


def make_waypoints(positions, prefix="wp"):
    return [ds.Waypoint(f"{prefix}-{i:02d}", ds.vec3(*p)) for i, p in enumerate(positions)]


def single_drone_mission(positions, start=(0.0, 0.0, 0.0), budget=1e9, obstacles=()):
    return ds.Mission(waypoints=make_waypoints(positions),
                      start_positions=[ds.vec3(*start)],
                      max_route_length=budget,
                      obstacles=list(obstacles))


def reorder(plan, mission):
    by_id = {w.id: w for w in mission.waypoints}
    return [[by_id[i] for i in route] for route in plan.routes]


def assert_two_opt_optimal(start, route):
    """Re-apply every possible reversal: none may shorten the route."""
    base = ds.route_length(start, route)
    for i in range(len(route) - 1):
        for j in range(i + 1, len(route)):
            candidate = route[:i] + route[i:j + 1][::-1] + route[j + 1:]
            assert ds.route_length(start, candidate) >= base - 1e-9


def assert_or_opt_optimal(start, route):
    """Move every block of 1-3 consecutive waypoints to every other place in
    the route, keeping its direction: none of these may shorten the route."""
    base = ds.route_length(start, route)
    for size in (1, 2, 3):
        for i in range(len(route) - size + 1):
            block, rest = route[i:i + size], route[:i] + route[i + size:]
            for j in range(len(rest) + 1):
                candidate = rest[:j] + block + rest[j:]
                assert ds.route_length(start, candidate) >= base - 1e-9


def test_route_length_empty():
    assert ds.route_length(ds.vec3(0, 0, 0), []) == 0.0


def test_route_length_pythagorean_legs():
    wps = make_waypoints([(3.0, 4.0, 0.0), (3.0, 4.0, 10.0)])
    assert ds.route_length(ds.vec3(0, 0, 0), wps) == pytest.approx(15.0, abs=1e-12)


def test_route_length_single_element_permutation_is_noop():
    wps = make_waypoints([(7.0, -1.0, 2.0)])
    assert ds.route_length(ds.vec3(1, 1, 1), wps) == ds.route_length(ds.vec3(1, 1, 1), list(reversed(wps)))


def test_single_drone_single_waypoint():
    mission = single_drone_mission([(3.0, 4.0, 0.0)])
    plan = ds.optimize(mission)
    assert plan.routes == [["wp-00"]]
    assert plan.lengths[0] == pytest.approx(5.0, abs=1e-12)
    assert plan.feasible


def test_collinear_waypoints_visited_in_order():
    mission = single_drone_mission([(2.0, 0, 0), (4.0, 0, 0), (1.0, 0, 0), (3.0, 0, 0)])
    plan = ds.optimize(mission)
    assert plan.routes == [["wp-02", "wp-00", "wp-03", "wp-01"]]  # 1, 2, 3, 4 m out
    assert plan.total_length == pytest.approx(4.0, abs=1e-12)


def test_five_random_waypoints_match_exhaustive_optimum():
    rng = np.random.default_rng(0)
    wps = [ds.Waypoint(f"wp-{i}", rng.uniform(-20, 20, 3)) for i in range(5)]
    mission = ds.Mission(wps, [rng.uniform(-20, 20, 3)], max_route_length=1e9)
    plan = ds.optimize(mission)
    oracle = ds.brute_force_optimize(mission)
    assert plan.total_length == pytest.approx(oracle.total_length, rel=1e-12)
    assert plan.routes == oracle.routes


def test_optimized_routes_are_two_opt_locally_optimal():
    rng = np.random.default_rng(43)
    for _ in range(20):
        n = int(rng.integers(4, 9))
        mission = single_drone_mission(rng.uniform(-30, 30, (n, 3)),
                                       start=tuple(rng.uniform(-30, 30, 3)))
        plan = ds.optimize(mission)
        route = reorder(plan, mission)[0]
        assert_two_opt_optimal(mission.start_positions[0], route)


def test_optimized_routes_are_or_opt_locally_optimal():
    rng = np.random.default_rng(61)
    for _ in range(20):
        drones = int(rng.integers(1, 4))
        mission = ds.Mission(
            waypoints=make_waypoints(rng.uniform(-30, 30, (int(rng.integers(15, 31)), 3))),
            start_positions=[rng.uniform(-30, 30, 3) for _ in range(drones)],
            max_route_length=1e9)
        plan = ds.optimize(mission)
        for start, route in zip(mission.start_positions, reorder(plan, mission)):
            assert_or_opt_optimal(start, route)


def test_partition_covers_every_waypoint_exactly_once():
    rng = np.random.default_rng(47)
    mission = ds.Mission(
        waypoints=make_waypoints(rng.uniform(-40, 40, (11, 3))),
        start_positions=[rng.uniform(-40, 40, 3) for _ in range(3)],
        max_route_length=1e9)
    plan = ds.optimize(mission)
    assigned = [wid for route in plan.routes for wid in route]
    assert sorted(assigned) == sorted(w.id for w in mission.waypoints)
    # balanced to within one waypoint: 11 over 3 drones is 4/4/3
    assert sorted(len(r) for r in plan.routes) == [3, 4, 4]


def test_optimize_is_deterministic():
    rng = np.random.default_rng(53)
    mission = ds.Mission(
        waypoints=make_waypoints(rng.uniform(-40, 40, (8, 3))),
        start_positions=[rng.uniform(-40, 40, 3) for _ in range(2)],
        max_route_length=1e9)
    a, b = ds.optimize(mission), ds.optimize(mission)
    assert a.routes == b.routes and a.lengths == b.lengths
    assert a.total_length == b.total_length and a.feasible == b.feasible


def test_length_budget_violation_is_named():
    mission = single_drone_mission([(100.0, 0, 0)], budget=50.0)
    plan = ds.optimize(mission)
    assert not plan.feasible
    assert any("budget" in v and "drone 0" in v for v in plan.violations)
    assert plan.routes == [["wp-00"]]  # reported, not repaired


def test_obstacle_crossing_leg_is_named():
    wall = ds.Box(ds.vec3(4, -5, -5), ds.vec3(6, 5, 5))
    mission = single_drone_mission([(10.0, 0.0, 0.0)], obstacles=[wall])
    plan = ds.optimize(mission)
    assert not plan.feasible
    assert any("crosses obstacle 0" in v for v in plan.violations)


def test_empty_waypoints_trivial_plan():
    mission = ds.Mission([], [ds.vec3(0, 0, 0)], max_route_length=10.0)
    plan = ds.optimize(mission)
    assert plan.routes == [[]] and plan.total_length == 0.0 and plan.feasible


def test_no_drones_is_configuration_error():
    mission = ds.Mission(make_waypoints([(1, 0, 0)]), [], max_route_length=10.0)
    with pytest.raises(ds.ConfigurationError):
        ds.optimize(mission)
    with pytest.raises(ds.ConfigurationError):
        ds.brute_force_optimize(mission)


def test_duplicate_waypoint_ids_rejected():
    wps = [ds.Waypoint("same", ds.vec3(1, 0, 0)), ds.Waypoint("same", ds.vec3(2, 0, 0))]
    with pytest.raises(ValueError):
        ds.Mission(wps, [ds.vec3(0, 0, 0)], max_route_length=10.0)


def test_brute_force_square_matches_hand_enumeration():
    # unit square corners from the center: best open path is one diagonal
    # half plus three sides, 6 + sqrt(2); checked by hand over the 24 orders
    mission = single_drone_mission(
        [(1, 1, 0), (1, -1, 0), (-1, -1, 0), (-1, 1, 0)], start=(0.0, 0.0, 0.0))
    oracle = ds.brute_force_optimize(mission)
    assert oracle.total_length == pytest.approx(6.0 + math.sqrt(2.0), abs=1e-12)


def test_brute_force_never_exceeded_by_heuristic():
    rng = np.random.default_rng(59)
    for _ in range(10):
        n = int(rng.integers(3, 8))
        mission = single_drone_mission(rng.uniform(-25, 25, (n, 3)))
        assert ds.brute_force_optimize(mission).total_length <= \
            ds.optimize(mission).total_length + 1e-9


def test_brute_force_two_drones_split_clusters():
    # two tight clusters, one drone parked at each: the optimum keeps
    # every drone in its own cluster
    left = [(-10.0 + dx, 0.0, 0.0) for dx in (0.0, 0.5, 1.0)]
    right = [(10.0 + dx, 0.0, 0.0) for dx in (0.0, 0.5, 1.0)]
    mission = ds.Mission(
        waypoints=make_waypoints(left, "left") + make_waypoints(right, "right"),
        start_positions=[ds.vec3(-10, -1, 0), ds.vec3(10, -1, 0)],
        max_route_length=1e9)
    oracle = ds.brute_force_optimize(mission)
    assert sorted(oracle.routes[0]) == ["left-00", "left-01", "left-02"]
    assert sorted(oracle.routes[1]) == ["right-00", "right-01", "right-02"]


def test_brute_force_empty_mission():
    mission = ds.Mission([], [ds.vec3(0, 0, 0)], max_route_length=10.0)
    assert ds.brute_force_optimize(mission).total_length == 0.0


def test_brute_force_guard_limits():
    too_many_single = single_drone_mission([(i, 0, 0) for i in range(1, 11)])
    with pytest.raises(ds.InstanceTooLargeError):
        ds.brute_force_optimize(too_many_single)
    mission_two = ds.Mission(make_waypoints([(i, 0, 0) for i in range(1, 8)]),
                             [ds.vec3(0, 0, 0), ds.vec3(1, 1, 0)],
                             max_route_length=1e9)
    with pytest.raises(ds.InstanceTooLargeError):
        ds.brute_force_optimize(mission_two)
    mission_three = ds.Mission(make_waypoints([(1, 0, 0)]),
                               [ds.vec3(0, 0, 0)] * 3, max_route_length=1e9)
    with pytest.raises(ds.InstanceTooLargeError):
        ds.brute_force_optimize(mission_three)


# The two descents as first written on the distance table: one loop per
# candidate move, rebuilding the block and the rest of the route for each
# Or-opt position. routing._two_opt and routing._or_opt must return
# exactly what these return, tie for tie.

def reference_two_opt(table, route):
    route = list(route)
    k = len(route)
    if k < 2:
        return route
    improved = True
    while improved:
        improved = False
        for i in range(k - 1):
            from_prev = table[0 if i == 0 else route[i - 1]]
            for j in range(i + 1, k):
                old = from_prev[route[i]]
                new = from_prev[route[j]]
                if j < k - 1:
                    after = route[j + 1]
                    old += table[route[j]][after]
                    new += table[route[i]][after]
                if new < old - 1e-12:
                    route[i:j + 1] = reversed(route[i:j + 1])
                    improved = True
    return route


def reference_or_opt(table, route):
    route = list(route)
    improved = True
    while improved:
        improved = False
        k = len(route)
        for size in (1, 2, 3):
            if size >= k:
                break
            for i in range(k - size + 1):
                block = route[i:i + size]
                rest = route[:i] + route[i + size:]
                head, tail = table[block[0]], table[block[-1]]
                prev = 0 if i == 0 else route[i - 1]
                removal_gain = head[prev]
                if i + size < k:
                    after = route[i + size]
                    removal_gain += tail[after] - table[prev][after]
                last = len(rest)
                for j in range(last + 1):
                    if j == i:
                        continue
                    ins_prev = 0 if j == 0 else rest[j - 1]
                    insertion_cost = head[ins_prev]
                    if j < last:
                        nxt = rest[j]
                        insertion_cost += tail[nxt] - table[ins_prev][nxt]
                    if insertion_cost < removal_gain - 1e-12:
                        route = rest[:j] + block + rest[j:]
                        improved = True
                        break
                if improved:
                    break
            if improved:
                break
    return route


def near_tie_table(rng, size):
    """A symmetric table of small integers, each offset by a step around the
    1e-12 m move threshold, so that some moves gain about that much."""
    table = [[0.0] * size for _ in range(size)]
    for a in range(size):
        for b in range(a + 1, size):
            table[a][b] = table[b][a] = rng.randint(1, 3) + rng.choice(
                (0.0, 3e-13, 1e-12, 3e-12, 1e-10))
    return table


def descent_cases():
    """Seeded (table, route) pairs with routes of 0-30 nodes: uniform
    points, points on a small integer grid (equal distances and repeated
    points are common) and tables built around the move threshold."""
    for seed in range(360):
        rng = random.Random(seed)
        nodes = rng.randint(0, 3) if seed % 4 == 0 else rng.randint(4, 30)
        if seed % 3 == 2:
            table = near_tie_table(rng, nodes + 1)
        else:
            if seed % 3:
                points = [[float(rng.randint(-2, 2)), float(rng.randint(-2, 2)),
                           float(rng.randint(0, 1))] for _ in range(nodes + 1)]
            else:
                points = [[rng.uniform(-50.0, 50.0), rng.uniform(-50.0, 50.0),
                           rng.uniform(0.0, 20.0)] for _ in range(nodes + 1)]
            table = routing._distance_table([np.array(p) for p in points])
        route = list(range(1, nodes + 1))
        rng.shuffle(route)
        yield seed, table, route
        # the planner's own inputs: a nearest-neighbor route and its 2-opt
        yield seed, table, routing._nearest_neighbor(table)
        yield seed, table, reference_two_opt(table, routing._nearest_neighbor(table))


def test_descents_match_the_reference_scans():
    for seed, table, route in descent_cases():
        assert routing._two_opt(table, route) == reference_two_opt(table, route), seed
        assert routing._or_opt(table, route) == reference_or_opt(table, route), seed


def test_two_opt_leaves_its_own_output_unchanged():
    # _order_route ends a descent when Or-opt moves nothing, without a
    # further 2-opt pass: that pass could only move a route 2-opt left
    for seed, table, route in descent_cases():
        once = routing._two_opt(table, route)
        assert routing._two_opt(table, once) == once, seed


# The ordering search as it was before the planner used a fixed set of
# starts: one nearest-neighbor run from the start plus one anchored on
# every waypoint, each fully descended with the first-improvement scans.
# It is the reference that the plans' quality is measured against.

def reference_order_route(start, wps):
    if len(wps) < 2:
        return list(wps)
    by_id = sorted(wps, key=lambda w: w.id)
    table = routing._distance_table([start] + [w.position for w in by_id])
    descents = {}
    best_key = None
    unanchored = routing._nearest_neighbor(table)
    for first in [None, *range(1, len(table))]:
        if first == unanchored[0]:
            continue
        nearest = unanchored if first is None else routing._nearest_neighbor(table, first)
        route = routing._two_opt(table, nearest)
        entered = []
        while (key := tuple(route)) not in descents:
            entered.append(key)
            relocated = routing._or_opt(table, route)
            if relocated == route:
                break
            relocated = routing._two_opt(table, relocated)
            if relocated == route:
                break
            route = relocated
        else:
            route = descents[key]
        for key in entered:
            descents[key] = route
        length = 0.0
        for a, b in zip([0] + route, route):
            length += table[a][b]
        if best_key is None or (length, route) < best_key:
            best_key = (length, route)
    return [by_id[node - 1] for node in best_key[1]]


def reference_plan_length(mission):
    """Total length of the plan the reference search orders on optimize's
    own partition."""
    if not mission.waypoints:
        return 0.0
    return sum(ds.route_length(start, reference_order_route(start, wps))
               for start, wps in zip(mission.start_positions,
                                     routing._sweep_partition(mission)))


def quality_missions():
    """The pinned missions and the survey layouts at seed 3 besides."""
    from test_routing_golden import golden_missions, survey_mission
    missions = golden_missions()
    missions["survey_single-3"] = survey_mission(3, 1, 30)
    missions["survey_team-3"] = survey_mission(3, 4, 96)
    return missions


def test_plans_are_at_most_one_percent_longer_than_the_reference():
    planned = reference = 0.0
    for mission in quality_missions().values():
        planned += ds.optimize(mission).total_length
        reference += reference_plan_length(mission)
    assert planned <= 1.01 * reference


def wide_mission(seed, count, on_grid, drones=1):
    """``count`` waypoints, uniform or on a 13 x 13 x 3 integer grid where
    equal distances and repeated points are common."""
    rng = random.Random(seed)

    def point():
        if on_grid:
            return [float(rng.randint(-6, 6)), float(rng.randint(-6, 6)),
                    float(rng.randint(0, 2))]
        return [rng.uniform(-100.0, 100.0), rng.uniform(-100.0, 100.0), rng.uniform(0.0, 20.0)]

    waypoints = [ds.Waypoint(f"w{i}", point()) for i in range(count)]
    return ds.Mission(waypoints, [point() for _ in range(drones)], math.inf)


@pytest.mark.parametrize("on_grid", [False, True])
def test_routes_beyond_the_fixtures_are_locally_optimal(on_grid):
    # the full scans, as first written, find no move in what optimize returns
    mission = wide_mission(200 + on_grid, 200, on_grid)
    route = ds.optimize(mission).routes[0]
    by_id = sorted(mission.waypoints, key=lambda w: w.id)
    node = {w.id: i for i, w in enumerate(by_id, 1)}
    table = routing._distance_table([mission.start_positions[0]] + [w.position for w in by_id])
    nodes = [node[i] for i in route]
    assert sorted(nodes) == list(range(1, 201))
    assert reference_two_opt(table, nodes) == nodes
    assert reference_or_opt(table, nodes) == nodes


@pytest.mark.parametrize("on_grid", [False, True])
@pytest.mark.parametrize("drones", [1, 3])
def test_waypoint_list_order_does_not_change_the_plan(on_grid, drones):
    mission = wide_mission(300 + drones + on_grid, 60, on_grid, drones)
    plan = dataclasses.asdict(ds.optimize(mission))
    for seed in range(3):
        shuffled = list(mission.waypoints)
        random.Random(seed).shuffle(shuffled)
        again = ds.Mission(shuffled, mission.start_positions, mission.max_route_length)
        assert dataclasses.asdict(ds.optimize(again)) == plan


def test_distance_table_equals_the_distance_of_numpy_vectors():
    # the table reads the points as floats; the values must not change
    rng = np.random.default_rng(67)
    for scale in (1e-3, 1.0, 50.0, 1e6):
        points = list(rng.uniform(-scale, scale, (40, 3))) + \
            list(np.floor(rng.uniform(-4.0, 4.0, (20, 3))))
        assert routing._distance_table(points) == \
            [[routing._dist(a, b) for b in points] for a in points]
