"""Waypoint routing: sweep assignment, local search, and the exact oracle.

Builds a two-drone mission over a scatter of survey points, plans it
with the heuristic (angular-sweep partition, then nearest-neighbor runs
from a fixed set of starts, each descended with 2-opt and relocation
moves to a few nearest neighbours, and the best one finished with full
2-opt/relocation scans), and cross-checks a small single-drone instance
against exhaustive enumeration.
"""

import numpy as np

import dronesim as ds

rng = np.random.default_rng(7)

# Twelve survey points in a 80 x 80 m field at 10 m altitude, two drones
# parked at opposite corners.
points = rng.uniform(-40.0, 40.0, (12, 3))
points[:, 2] = 10.0
waypoints = [ds.Waypoint(f"survey-{i:02d}", points[i]) for i in range(len(points))]
mission = ds.Mission(
    waypoints=waypoints,
    start_positions=[ds.vec3(-40.0, -40.0, 0.0), ds.vec3(40.0, 40.0, 0.0)],
    max_route_length=400.0)

plan = ds.optimize(mission)
print(f"two-drone plan, total {plan.total_length:.1f} m, "
      f"{'feasible' if plan.feasible else 'INFEASIBLE'}")
for i, (route, length) in enumerate(zip(plan.routes, plan.lengths)):
    print(f"  drone {i}: {length:6.1f} m  {' -> '.join(route)}")

# A wall between start and waypoints makes the straight legs illegal;
# the plan is reported infeasible with the offending legs named.
wall = ds.Box(ds.vec3(-5.0, -60.0, 0.0), ds.vec3(5.0, 60.0, 40.0))
blocked = ds.Mission(waypoints, mission.start_positions, 400.0, obstacles=[wall])
blocked_plan = ds.optimize(blocked)
print(f"\nwith a wall: feasible={blocked_plan.feasible}, "
      f"{len(blocked_plan.violations)} violation(s), e.g.")
for violation in blocked_plan.violations[:3]:
    print("  -", violation)

# On small instances the heuristic can be checked against brute force:
# every assignment and visiting order, exhaustively.
small = ds.Mission(waypoints[:7], [ds.vec3(0.0, 0.0, 0.0)], max_route_length=1e9)
heuristic = ds.optimize(small)
oracle = ds.brute_force_optimize(small)
print(f"\n7-waypoint check: heuristic {heuristic.total_length:.3f} m, "
      f"exhaustive optimum {oracle.total_length:.3f} m")
print("orders match:", heuristic.routes == oracle.routes)
