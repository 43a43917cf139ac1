"""Pinned plans: optimize must keep returning exactly these routes.

``routing_golden.json`` holds the plan ``optimize`` returned for each
mission below, compared with ``==``: routes, lengths to the last bit,
total length, feasibility and violation messages. The missions are
about 200 seeded random ones (1-4 drones, 0-30 waypoints, every other
one on a small integer grid so that distance ties are common, some with
obstacles and a finite length budget), the two survey layouts of the
benchmark's ``survey_dense`` workload, rebuilt here from the same
recipe, and six single-drone missions of 40, 60 and 80 waypoints, one
of each size on an integer grid and one uniform, where the descents
run longest. A change to the planner that is meant to keep its plans must
leave this file unchanged; rewrite it only for a change that is meant
to change plans:

    PYTHONPATH=src python tests/test_routing_golden.py
"""

from __future__ import annotations

import dataclasses
import json
import math
import random
from pathlib import Path

import pytest

import dronesim as ds

FIXTURE = Path(__file__).with_name("routing_golden.json")
RANDOM_MISSIONS = 200
SURVEY_SEEDS = (1, 104729)
LARGE_COUNTS = (40, 60, 80)


def random_mission(seed: int) -> ds.Mission:
    rng = random.Random(seed)
    drones = rng.randint(1, 4)
    count = rng.randint(0, 30)
    on_grid = seed % 2 == 1

    def point():
        if on_grid:
            return [float(rng.randint(-4, 4)), float(rng.randint(-4, 4)),
                    float(rng.randint(0, 2))]
        return [rng.uniform(-50.0, 50.0), rng.uniform(-50.0, 50.0), rng.uniform(0.0, 20.0)]

    # unpadded labels, so id order differs from numeric order ("w10" < "w2")
    labels = list(range(count))
    rng.shuffle(labels)
    waypoints = [ds.Waypoint(f"w{label}", point()) for label in labels]
    starts = [point() for _ in range(drones)]
    obstacles = []
    budget = math.inf
    if seed % 3 == 0:
        for _ in range(rng.randint(1, 2)):
            low = point()
            size = [rng.uniform(0.5, 3.0) for _ in range(3)] if on_grid else \
                [rng.uniform(5.0, 30.0) for _ in range(3)]
            obstacles.append(ds.Box(low, [lo + s for lo, s in zip(low, size)]))
        budget = rng.uniform(5.0, 40.0) if on_grid else rng.uniform(50.0, 400.0)
    return ds.Mission(waypoints, starts, budget, obstacles)


def survey_mission(seed: int, drones: int, count: int) -> ds.Mission:
    """The jittered lawn-mower grid of the survey_dense benchmark workload."""
    layout = random.Random(1906 * 1000 + count)
    rng = random.Random(seed * 1000 + count)
    east0, north0 = rng.uniform(-500.0, 500.0), rng.uniform(-500.0, 500.0)
    labels = list(range(count))
    rng.shuffle(labels)
    cols = math.ceil(math.sqrt(count))
    rows = math.ceil(count / cols)
    waypoints = []
    for k in range(count):
        r, c = divmod(k, cols)
        x = east0 + 15.0 * (c + layout.uniform(-0.3, 0.3))
        y = north0 + 15.0 * (r + layout.uniform(-0.3, 0.3))
        z = 10.0 + layout.uniform(-1.0, 1.0)
        waypoints.append(ds.Waypoint(f"wp{labels[k]:03d}", [x, y, z]))
    rng.shuffle(waypoints)
    far_x = east0 + 15.0 * cols
    far_y = north0 + 15.0 * rows
    corners = [(east0 - 10.0, north0 - 10.0), (far_x, far_y),
               (far_x, north0 - 10.0), (east0 - 10.0, far_y)]
    return ds.Mission(waypoints, [[x, y, 0.5] for x, y in corners[:drones]], 10_000.0)


def large_mission(count: int, on_grid: bool) -> ds.Mission:
    """One drone and ``count`` waypoints, on a 13 x 13 x 3 grid or uniform."""
    rng = random.Random(7919 * count + on_grid)

    def point():
        if on_grid:
            return [float(rng.randint(-6, 6)), float(rng.randint(-6, 6)),
                    float(rng.randint(0, 2))]
        return [rng.uniform(-100.0, 100.0), rng.uniform(-100.0, 100.0), rng.uniform(0.0, 20.0)]

    labels = list(range(count))
    rng.shuffle(labels)
    waypoints = [ds.Waypoint(f"w{label}", point()) for label in labels]
    return ds.Mission(waypoints, [point()], math.inf)


def golden_missions() -> dict[str, ds.Mission]:
    missions = {f"random-{seed:03d}": random_mission(seed) for seed in range(RANDOM_MISSIONS)}
    for seed in SURVEY_SEEDS:
        missions[f"survey_single-{seed}"] = survey_mission(seed, 1, 30)
        missions[f"survey_team-{seed}"] = survey_mission(seed, 4, 96)
    for count in LARGE_COUNTS:
        missions[f"large_grid-{count}"] = large_mission(count, True)
        missions[f"large_uniform-{count}"] = large_mission(count, False)
    return missions


def plan_document(mission: ds.Mission) -> dict:
    return dataclasses.asdict(ds.optimize(mission))


MISSIONS = golden_missions()
GOLDEN = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else {}


@pytest.mark.parametrize("name", list(MISSIONS))
def test_plan_matches_the_pinned_plan(name):
    assert plan_document(MISSIONS[name]) == GOLDEN[name]


def test_fixture_pins_budget_and_obstacle_violations():
    plans = GOLDEN.values()
    assert len(GOLDEN) == RANDOM_MISSIONS + 2 * len(SURVEY_SEEDS) + 2 * len(LARGE_COUNTS)
    assert any("budget" in v for plan in plans for v in plan["violations"])
    assert any("obstacle" in v for plan in plans for v in plan["violations"])
    assert sum(plan["feasible"] for plan in plans) > len(GOLDEN) // 2


if __name__ == "__main__":
    # one mission per line, so that a changed plan shows as a changed line
    FIXTURE.write_text("{\n" + ",\n".join(
        f"{json.dumps(name)}: {json.dumps(plan_document(mission))}"
        for name, mission in MISSIONS.items()) + "\n}\n")
