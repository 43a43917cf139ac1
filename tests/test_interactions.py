"""The grid-hashed interaction check gives the all-pairs events.

``reference_instant_violations`` is the all-pairs check the grid
replaced: it measures every pair with the same float expression, then
tests every drone against every box with numpy comparisons. The grid
must give events equal to it with ``==``, in the same order: in whole
``simulate`` runs on the bundled scenarios and on the benchmark's
crossing swarms (200 drones at 10 seeds, and 1000 drones), and on
generated clustered swarms with drones exactly ``min_separation``
apart, one ulp inside it, on cell borders at negative coordinates,
stacked in z, and inside or on the faces of obstacle boxes. The
clustered swarms hold 1 to 20 drones, so they cover both the grid and
the small swarms below ``_GRID_MIN``, where every pair is measured.
Hypothesis examples are derandomized so that every run checks the same
cases.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import dronesim as ds
from dronesim import swarm as swarm_module
from dronesim.cli import routes_from_plan

from conftest import build_reference_craft, level_state

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import crossing_document  # noqa: E402


def reference_instant_violations(ids, positions, min_separation, conditions, t):
    # positions: one sequence of 3 plain floats per drone
    events = []
    for i, (ax, ay, az) in enumerate(positions):
        for j in range(i + 1, len(positions)):
            bx, by, bz = positions[j]
            dx, dy, dz = ax - bx, ay - by, az - bz
            distance = math.sqrt(dx * dx + dy * dy + dz * dz)
            if distance < min_separation:
                pair = tuple(sorted((ids[i], ids[j])))
                events.append(ds.SimEvent(t, swarm_module.SEPARATION_VIOLATION, pair, {
                    "distance_m": distance,
                    "min_separation_m": min_separation,
                    "position": [0.5 * (ax + bx), 0.5 * (ay + by), 0.5 * (az + bz)],
                }))
    for drone_id, pos in zip(ids, positions):
        p = np.array(pos)
        if any(np.all(p >= box.min_corner) and np.all(p <= box.max_corner)
               for box in conditions.obstacles):
            events.append(ds.SimEvent(t, swarm_module.OBSTACLE_COLLISION, (drone_id,), {
                "position": list(pos),
            }))
    return events


def grid_violations(ids, positions, min_separation, conditions, t):
    boxes = [ds.scenario.box_bounds(b) for b in conditions.obstacles]
    return swarm_module._instant_violations(ids, positions, min_separation, boxes, t)


def flat(trajectory):
    return {drone_id: [(s.t, s.as_floats()) for s in states]
            for drone_id, states in trajectory.samples.items()}


def assert_simulate_matches_reference(swarm, scenario):
    """Run ``simulate`` with the grid and with the all-pairs reference;
    returns the grid run's events once they and the samples are equal."""
    trajectory = ds.simulate(swarm, scenario)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(swarm_module, "_instant_violations",
                      lambda ids, positions, min_separation, boxes, t:
                      reference_instant_violations(ids, positions, min_separation,
                                                   scenario.conditions, t))
        reference = ds.simulate(swarm, scenario)
    assert trajectory.events == reference.events
    assert flat(trajectory) == flat(reference)
    return trajectory.events


def crossing(pairs, seed):
    document, designed = crossing_document(seed, pairs=pairs)
    swarm, scenario, mission = ds.scenario_from_dict(document)
    # each drone flies to its own goal, as in the benchmark
    plan = ds.RoutePlan(routes=[[f"{d.id}-goal"] for d in swarm.drones],
                        lengths=[0.0] * len(swarm.drones), total_length=0.0, feasible=True)
    routes_from_plan(swarm, mission, plan)
    return swarm, scenario, designed


# --- whole runs ---------------------------------------------------------------

@pytest.mark.parametrize("name", ["hover.json", "square_route.json", "two_drone_cross.json"])
def test_bundled_scenarios_give_the_reference_events(name):
    swarm, scenario, mission = ds.load_scenario(ds.bundled_scenario_path(name))
    if mission.waypoints:
        routes_from_plan(swarm, mission, ds.optimize(mission))
    assert_simulate_matches_reference(swarm, scenario)


@pytest.mark.parametrize("seed", range(10))
def test_crossing_swarms_give_the_reference_events(seed):
    swarm, scenario, designed = crossing(100, seed)
    events = assert_simulate_matches_reference(swarm, scenario)
    # every designed pair enters the separation once, so the check is not vacuous
    assert sorted(e.drone_ids for e in events) == sorted(designed)


def test_thousand_drone_crossing_gives_the_reference_events():
    swarm, scenario, designed = crossing(500, 104729)
    events = assert_simulate_matches_reference(swarm, scenario)
    assert sorted(e.drone_ids for e in events) == sorted(designed)


# --- clustered swarms ---------------------------------------------------------

SEPARATIONS = [0.0, 0.5, 1.0, 2.0, 3.0, 0.1, 1.605311791776961]
MAX_CLUSTER = 20


@st.composite
def clustered(draw):
    """Drones on and near the multiples of min_separation around a
    (possibly negative) origin, each placed relative to an earlier one:
    exactly min_separation away along an axis, one ulp inside it, stacked
    in z above it, or at a random offset; boxes have a drone inside or on
    a face or corner."""
    s = draw(st.sampled_from(SEPARATIONS))
    unit = s if s > 0.0 else 1.0
    origin = draw(st.sampled_from([0.0, -3.0 * unit, -1000.0 * unit, 1e5]))
    positions = []
    for _ in range(draw(st.integers(1, MAX_CLUSTER))):
        move = draw(st.sampled_from(["border", "apart", "ulp_inside", "stacked", "near"]))
        if move == "border" or not positions:
            # on a multiple of s (a cell border of a grid of side s), or a few ulps off
            p = [origin + draw(st.integers(-4, 4)) * unit for _ in range(2)]
            p = [draw(st.sampled_from([c, math.nextafter(c, -math.inf),
                                       math.nextafter(c, math.inf)])) for c in p]
            p.append(draw(st.sampled_from([5.0, 5.0 + unit])))
        else:
            p = list(draw(st.sampled_from(positions)))
            axis = draw(st.integers(0, 2))
            sign = draw(st.sampled_from([-1.0, 1.0]))
            if move == "apart":
                p[axis] += sign * unit
            elif move == "ulp_inside":
                p[axis] = math.nextafter(p[axis] + sign * unit, p[axis])
            elif move == "stacked":
                p[2] += draw(st.sampled_from([0.0, 0.25, 1.0, 4.0])) * unit
            else:
                p = [c + draw(st.floats(-1.5, 1.5)) * unit for c in p]
        positions.append(p)
    order = draw(st.permutations(range(len(positions))))
    ids = [f"d{k:02d}" for k in order]  # name order differs from index order
    boxes = []
    for _ in range(draw(st.integers(0, 2))):
        corner = draw(st.sampled_from(positions))
        low = [c - draw(st.sampled_from([0.0, 0.5])) * unit for c in corner]
        high = [c + draw(st.sampled_from([0.0, 1.0])) * unit for c in low]
        boxes.append(ds.Box(low, high))
    return ids, positions, s, ds.FlyingConditions(obstacles=boxes)


@settings(derandomize=True, database=None, deadline=None, max_examples=400,
          suppress_health_check=[HealthCheck.too_slow])
@given(clustered())
def test_clustered_swarms_give_the_reference_events(case):
    ids, positions, s, conditions = case
    assert (grid_violations(ids, positions, s, conditions, 1.5)
            == reference_instant_violations(ids, positions, s, conditions, 1.5))


def test_clustered_swarm_sizes_straddle_the_all_pairs_cutoff():
    assert 2 < swarm_module._GRID_MIN <= MAX_CLUSTER


# --- float edge cases of the hash ---------------------------------------------

def assert_checks_match(positions, min_separation, expected_pairs):
    swarm = ds.Swarm([ds.Drone(id=f"d{i}", airframe=build_reference_craft(),
                               state=level_state(*p)) for i, p in enumerate(positions)],
                     min_separation=min_separation)
    events = ds.check_interactions(swarm, ds.FlyingConditions(), 0.0)
    ids = [d.id for d in swarm.drones]
    reference = reference_instant_violations(
        ids, [list(map(float, p)) for p in positions], min_separation,
        ds.FlyingConditions(), 0.0)
    assert events == reference
    assert [e.drone_ids for e in events] == expected_pairs


def test_pair_whose_quotients_round_apart_is_reported():
    # x / s is 1.9999999999999998 and 2.9999999999999996, yet x * (1 / s)
    # floors to 1 and 3: a grid of side exactly s hashed that way puts
    # this pair, 1.6053117917769608 apart, two columns apart
    s = 1.605311791776961
    a, b = 3.2106235835539216, 4.8159353753308825
    assert (math.floor(a * (1 / s)), math.floor(b * (1 / s))) == (1, 3)
    assert_checks_match([(a, 0.0, 5.0), (b, 0.0, 5.0)], s, [("d0", "d1")])


def test_positions_near_the_float_maximum_do_not_overflow_the_hash():
    # 1e308 / 1e-300 is infinite, and math.floor of it raises OverflowError
    with pytest.raises(OverflowError):
        math.floor(1e308 / 1e-300)
    assert_checks_match([(1e308, -1e308, 5.0), (1e308, -1e308, 5.0), (-1e308, 0.0, 5.0)],
                        1e-300, [("d0", "d1")])


def test_pair_whose_squared_distance_underflows_is_reported():
    # 1e-170 squared underflows to 0, so the all-pairs test reports this
    # pair at distance 0 although it is far more than 1e-300 apart
    assert_checks_match([(0.0, 0.0, 5.0), (1e-170, 1e-170, 5.0)], 1e-300, [("d0", "d1")])


def test_zero_separation_reports_no_pair():
    assert_checks_match([(1.0, 2.0, 5.0), (1.0, 2.0, 5.0)], 0.0, [])
