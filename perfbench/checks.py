"""Output checks computed apart from the program under test.

Every check takes the program's outputs (trajectories, plans, reports,
files on disk) and recomputes what they should be with the standard
library and numpy only, never with dronesim's own functions. Each check
returns a list of failure messages; an empty list means the output
passed. Tolerances are stated next to each check and in the README.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
import struct

import numpy as np

QUATERNION_NORM_TOL = 1e-9
# values are written with 9 significant digits: the rounding error is at
# most half a unit in the ninth digit, 5e-9 of the value
CSV_REL_TOL = 5.000001e-9
# equirectangular projection about the scenario origin against the
# spherical great-circle distance: the two differ by about
# tan(lat0) * (north offset / R), under 3e-4 within 2 km of the origin
HAVERSINE_REL_TOL = 1e-3
HAVERSINE_ABS_TOL_M = 1e-6
ALTITUDE_TOL_M = 1e-9
MIRROR_TOL_M = 1e-9
LENGTH_REL_TOL = 1e-9
METRIC_REL_TOL = 1e-9
EARTH_RADIUS_M = 6_371_000.0


def _state_row(state) -> list[float]:
    return [float(state.t), *map(float, state.position), *map(float, state.velocity),
            *map(float, state.orientation), *map(float, state.angular_velocity)]


def digest(trajectory) -> str:
    """SHA-256 of every sample and every event, in output order."""
    h = hashlib.sha256()
    for drone_id, states in trajectory.samples.items():
        h.update(drone_id.encode() + b"\0")
        for s in states:
            h.update(struct.pack("<14d", *_state_row(s)))
    for e in trajectory.events:
        h.update(json.dumps([e.t, e.kind, list(e.drone_ids), e.payload],
                            sort_keys=True).encode() + b"\n")
    return h.hexdigest()


def off_tick_times(trajectory, dt: float) -> int:
    """Sample and event times that are not exactly a whole number of ticks."""
    times = [s.t for states in trajectory.samples.values() for s in states]
    times += [e.t for e in trajectory.events]
    return sum(1 for t in times if t != round(t / dt) * dt)


def check_samples(trajectory) -> list[str]:
    """Finite samples, unit quaternions within 1e-9, non-decreasing times."""
    failures = []
    for drone_id, states in trajectory.samples.items():
        if not states:
            failures.append(f"{drone_id}: no samples")
            continue
        rows = np.array([_state_row(s) for s in states])
        if not np.all(np.isfinite(rows)):
            failures.append(f"{drone_id}: non-finite sample")
        norms = np.sqrt((rows[:, 7:11] ** 2).sum(axis=1))
        worst = float(np.max(np.abs(norms - 1.0)))
        if not worst <= QUATERNION_NORM_TOL:
            failures.append(f"{drone_id}: quaternion norm off unity by {worst:.3g}")
        if np.any(np.diff(rows[:, 0]) < 0.0):
            failures.append(f"{drone_id}: sample times decrease")
    return failures


def _open_path_length(points: np.ndarray) -> float:
    return float(np.sqrt((np.diff(points, axis=0) ** 2).sum(axis=1)).sum())


def exhaustive_open_path(start, positions: list) -> float:
    """Shortest open path from start through every position (itertools)."""
    start = np.asarray(start, dtype=float)
    best = math.inf
    for order in itertools.permutations(range(len(positions))):
        pts = np.array([start] + [positions[i] for i in order], dtype=float)
        best = min(best, _open_path_length(pts))
    return best


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def check_exhaustive_optimum(mission, plan) -> list[str]:
    """A one-drone plan is as short as the exhaustive optimum."""
    optimum = exhaustive_open_path(mission.start_positions[0],
                                   [w.position for w in mission.waypoints])
    if not _close(plan.total_length, optimum, LENGTH_REL_TOL):
        return [f"plan length {plan.total_length!r} differs from the exhaustive "
                f"optimum {optimum!r}"]
    return []


def check_captures(trajectory, drone) -> list[str]:
    """The drone captures every route waypoint in order and ends at the last."""
    failures = []
    indices = [e.payload.get("waypoint_index") for e in trajectory.events
               if e.kind == "waypoint_reached" and e.drone_ids == (drone.id,)]
    if indices != list(range(len(drone.route))):
        failures.append(f"{drone.id}: captured waypoints {indices}, "
                        f"expected 0..{len(drone.route) - 1}")
    final = np.asarray(trajectory.samples[drone.id][-1].position, dtype=float)
    miss = float(np.linalg.norm(final - drone.route[-1].target_position))
    if not miss <= drone.gains.capture_radius:
        failures.append(f"{drone.id}: ends {miss:.3f} m from its last waypoint")
    return failures


def check_pairs(trajectory, pairs: list[tuple[str, str]], min_separation: float,
                starts: dict) -> list[str]:
    """One separation episode per designed pair, none other, mirrored tracks.

    Each pair (a, b) flies mirror images of each other through the plane
    x = (x_a0 + x_b0) / 2, with b held at a fixed lateral (y) offset and
    at a's altitude, to within MIRROR_TOL_M at every sample.
    """
    failures = []
    designed = {tuple(sorted(p)) for p in pairs}
    seen: dict[tuple, int] = {}
    for e in trajectory.events:
        if e.kind != "separation_violation":
            continue
        key = tuple(sorted(e.drone_ids))
        seen[key] = seen.get(key, 0) + 1
        if not e.payload["distance_m"] < min_separation:
            failures.append(f"{key}: episode distance {e.payload['distance_m']} "
                            f"not below {min_separation}")
    for key in sorted(designed):
        if seen.get(key, 0) != 1:
            failures.append(f"{key}: {seen.get(key, 0)} separation episodes, expected 1")
    for key in sorted(set(seen) - designed):
        failures.append(f"{key}: separation episode between undesigned drones")
    for a, b in pairs:
        sa, sb = trajectory.samples[a], trajectory.samples[b]
        if len(sa) != len(sb):
            failures.append(f"{a}/{b}: {len(sa)} vs {len(sb)} samples")
            continue
        pa = np.array([s.position for s in sa], dtype=float)
        pb = np.array([s.position for s in sb], dtype=float)
        center_x = 0.5 * (starts[a][0] + starts[b][0])
        offset_y = starts[b][1] - starts[a][1]
        worst = max(float(np.max(np.abs(pa[:, 0] + pb[:, 0] - 2.0 * center_x))),
                    float(np.max(np.abs(pb[:, 1] - pa[:, 1] - offset_y))),
                    float(np.max(np.abs(pb[:, 2] - pa[:, 2]))))
        if not worst <= MIRROR_TOL_M:
            failures.append(f"{a}/{b}: tracks break mirror symmetry by {worst:.3g} m")
        if [s.t for s in sa] != [s.t for s in sb]:
            failures.append(f"{a}/{b}: sample times differ")
    return failures


def check_only_events(trajectory, allowed: set[str]) -> list[str]:
    kinds = sorted({e.kind for e in trajectory.events} - allowed)
    return [f"unexpected {kind} event" for kind in kinds]


def _two_opt_gain(points: np.ndarray) -> float:
    """Largest saving of one segment reversal on the open path points[0..k]."""
    d = np.sqrt(((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=-1))
    k = len(points) - 1  # route waypoints are points[1..k]
    best = 0.0
    for i in range(1, k):
        for j in range(i + 1, k + 1):
            old = d[i - 1, i]
            new = d[i - 1, j]
            if j < k:
                old += d[j, j + 1]
                new += d[i, j + 1]
            best = max(best, old - new)
    return best


def _nearest_neighbour_length(start: np.ndarray, positions: dict) -> float:
    remaining = dict(positions)
    current = start
    total = 0.0
    while remaining:
        wid = min(remaining, key=lambda w: (float(np.linalg.norm(remaining[w] - current)), w))
        total += float(np.linalg.norm(remaining[wid] - current))
        current = remaining.pop(wid)
    return total


def check_survey_plan(mission, plan) -> list[str]:
    """Coverage, lengths, 2-opt optimality and the nearest-neighbour bound."""
    failures = []
    positions = {w.id: np.asarray(w.position, dtype=float) for w in mission.waypoints}
    visited = [wid for route in plan.routes for wid in route]
    if sorted(visited) != sorted(positions):
        failures.append(f"plan visits {len(visited)} waypoints ({len(set(visited))} distinct) "
                        f"of {len(positions)}")
        return failures
    if not plan.feasible:
        failures.append(f"plan infeasible: {plan.violations}")
    for i, route in enumerate(plan.routes):
        start = np.asarray(mission.start_positions[i], dtype=float)
        points = np.array([start] + [positions[w] for w in route])
        length = _open_path_length(points)
        if not _close(plan.lengths[i], length, LENGTH_REL_TOL):
            failures.append(f"route {i}: reported length {plan.lengths[i]!r}, "
                            f"recomputed {length!r}")
        gain = _two_opt_gain(points)
        if gain > LENGTH_REL_TOL * max(1.0, length):
            failures.append(f"route {i}: a 2-opt reversal saves {gain:.3g} m")
        greedy = _nearest_neighbour_length(start, {w: positions[w] for w in route})
        if length > greedy * (1.0 + LENGTH_REL_TOL):
            failures.append(f"route {i}: {length:.6f} m is longer than the "
                            f"nearest-neighbour tour {greedy:.6f} m")
    if not _close(plan.total_length, sum(plan.lengths), LENGTH_REL_TOL):
        failures.append("total length is not the sum of route lengths")
    return failures


def check_csv(path, trajectory) -> list[str]:
    """The CSV, parsed with the csv module, matches the samples to 9 digits."""
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    if not rows or rows[0][:2] != ["drone_id", "t"] or len(rows[0]) != 15:
        return [f"{path}: unexpected header {rows[:1]}"]
    expected = [(drone_id, _state_row(s)) for drone_id in sorted(trajectory.samples)
                for s in trajectory.samples[drone_id]]
    body = [r for r in rows[1:] if r]
    if len(body) != len(expected):
        return [f"{path}: {len(body)} rows for {len(expected)} samples"]
    failures = []
    for n, (row, (drone_id, values)) in enumerate(zip(body, expected)):
        if row[0] != drone_id or len(row) != 15:
            failures.append(f"{path}: row {n + 1} is {row[:1]}, expected {drone_id}")
        elif not all(math.isclose(float(text), value, rel_tol=CSV_REL_TOL, abs_tol=0.0)
                     for text, value in zip(row[1:], values)):
            failures.append(f"{path}: row {n + 1} does not match its sample")
        if len(failures) >= 3:
            break
    return failures


def parse_csv(path) -> dict[str, np.ndarray]:
    """Positions per drone from a trajectory CSV, read with the csv module."""
    tracks: dict[str, list] = {}
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        next(reader)
        for row in reader:
            if row:
                tracks.setdefault(row[0], []).append([float(x) for x in row[2:5]])
    return {k: np.array(v) for k, v in tracks.items()}


def _haversine_m(lon1, lat1, lon2, lat2) -> np.ndarray:
    p1, p2 = np.radians(lat1), np.radians(lat2)
    dp = p2 - p1
    dl = np.radians(lon2 - lon1)
    a = np.sin(dp / 2) ** 2 + np.cos(p1) * np.cos(p2) * np.sin(dl / 2) ** 2
    return 2.0 * EARTH_RADIUS_M * np.arcsin(np.sqrt(a))


def check_geojson(path, trajectory, altitude_m: float) -> list[str]:
    """Track geometry agrees with the samples it was written from.

    Haversine distances between consecutive coordinates match the ENU
    horizontal distances between the samples, altitudes are the anchor
    altitude plus z, and the times property lists the sample times.
    """
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    if document.get("type") != "FeatureCollection":
        return [f"{path}: not a FeatureCollection"]
    tracks = {f["properties"]["drone_id"]: f for f in document["features"]
              if "drone_id" in f.get("properties", {})}
    failures = []
    if sorted(tracks) != sorted(k for k, v in trajectory.samples.items() if v):
        return [f"{path}: tracks for {sorted(tracks)}"]
    for drone_id, feature in tracks.items():
        states = trajectory.samples[drone_id]
        coords = np.array(feature["geometry"]["coordinates"], dtype=float).reshape(-1, 3)
        enu = np.array([s.position for s in states], dtype=float)
        if len(coords) != len(enu):
            failures.append(f"{drone_id}: {len(coords)} coordinates for {len(enu)} samples")
            continue
        if feature["properties"]["times_s"] != [s.t for s in states]:
            failures.append(f"{drone_id}: times_s differ from the sample times")
        ground = np.sqrt((np.diff(enu[:, :2], axis=0) ** 2).sum(axis=1))
        great_circle = _haversine_m(coords[:-1, 0], coords[:-1, 1], coords[1:, 0], coords[1:, 1])
        error = np.abs(great_circle - ground)
        if np.any(error > HAVERSINE_REL_TOL * ground + HAVERSINE_ABS_TOL_M):
            worst = int(np.argmax(error - HAVERSINE_REL_TOL * ground))
            failures.append(f"{drone_id}: step {worst} is {great_circle[worst]:.9g} m on the "
                            f"sphere but {ground[worst]:.9g} m in ENU")
        if np.any(np.abs(coords[:, 2] - (altitude_m + enu[:, 2])) > ALTITUDE_TOL_M):
            failures.append(f"{drone_id}: altitudes are not anchor altitude plus z")
    return failures


def polyline_rmse(positions: np.ndarray, vertices: np.ndarray) -> float:
    """RMS distance from each position to the nearest point on the polyline."""
    if len(vertices) == 1:
        d = np.linalg.norm(positions - vertices[0], axis=1)
    else:
        a, b = vertices[:-1], vertices[1:]
        ab = b - a
        denom = (ab * ab).sum(axis=1)
        rel = positions[:, None, :] - a[None, :, :]
        with np.errstate(invalid="ignore", divide="ignore"):
            t = np.where(denom > 0.0, (rel * ab[None]).sum(axis=-1) / denom, 0.0)
        t = np.clip(t, 0.0, 1.0)
        nearest = a[None] + t[..., None] * ab[None]
        d = np.linalg.norm(positions[:, None, :] - nearest, axis=-1).min(axis=1)
    return float(np.sqrt(np.mean(d * d))) if len(d) else 0.0


def check_metrics(rmse: dict, flown: dict, tracks: dict[str, np.ndarray],
                  references: dict[str, np.ndarray]) -> list[str]:
    """RMSE and flown length agree with a vectorised recomputation."""
    failures = []
    if sorted(rmse) != sorted(references):
        failures.append(f"rmse reported for {sorted(rmse)}, expected {sorted(references)}")
    for drone_id, positions in tracks.items():
        length = _open_path_length(positions) if len(positions) > 1 else 0.0
        if not _close(flown.get(drone_id, math.nan), length, METRIC_REL_TOL):
            failures.append(f"{drone_id}: flown length {flown.get(drone_id)!r}, "
                            f"recomputed {length!r}")
        if drone_id in references and drone_id in rmse:
            expected = polyline_rmse(positions, references[drone_id])
            if not _close(rmse[drone_id], expected, METRIC_REL_TOL):
                failures.append(f"{drone_id}: rmse {rmse[drone_id]!r}, recomputed {expected!r}")
    return failures
