"""Flight quality metrics against the planned reference routes.

The headline metric is the root mean square error of the flown samples
against the reference polyline: for every recorded position, the
distance to the nearest point anywhere on the polyline (not just its
vertices), squared, averaged, and rooted. Nearest-point matching is used
because planned routes carry no timestamps to align against, and it
makes the metric invariant under densifying the reference with collinear
vertices.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .control import Setpoint
from .swarm import WAYPOINT_REACHED, Trajectory


@dataclass
class MetricsReport:
    """Per-drone flight metrics plus swarm-wide event counts."""

    rmse_m: dict[str, float] = field(default_factory=dict)
    route_length_flown_m: dict[str, float] = field(default_factory=dict)
    waypoint_capture_times_s: dict[str, list[float]] = field(default_factory=dict)
    event_counts: dict[str, int] = field(default_factory=dict)
    skipped_drones: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)


def point_segment_distance(p, a, b) -> float:
    """Distance from point p to the closed segment [a, b]."""
    p = np.asarray(p, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    ab = b - a
    denom = float(ab @ ab)
    if denom == 0.0:
        d = p - a
    else:
        t = min(1.0, max(0.0, float((p - a) @ ab) / denom))
        d = p - (a + t * ab)
    return math.sqrt(float(d @ d))


def point_polyline_distance(p, vertices: list[np.ndarray]) -> float:
    """Distance from p to the nearest point on the polyline through vertices."""
    if not vertices:
        raise ValueError("polyline needs at least one vertex")
    if len(vertices) == 1:
        return point_segment_distance(p, vertices[0], vertices[0])
    return min(point_segment_distance(p, vertices[i], vertices[i + 1])
               for i in range(len(vertices) - 1))


# point-segment pairs per block of polyline_distances, bounding its memory
_PAIRS_PER_BLOCK = 1 << 16


def polyline_distances(points, vertices) -> np.ndarray:
    """Distance from each of the (m, 3) ``points`` to the polyline.

    The vectorised form of :func:`point_polyline_distance`: the same
    clamped projection on every segment, a single vertex counting as a
    zero-length segment, then the minimum over segments.
    """
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    vertices = np.asarray(vertices, dtype=float).reshape(-1, 3)
    if len(vertices) == 0:
        raise ValueError("polyline needs at least one vertex")
    if len(vertices) == 1:
        vertices = np.vstack([vertices, vertices])
    a, ab = vertices[:-1], np.diff(vertices, axis=0)
    denom = np.einsum("ij,ij->i", ab, ab)
    denom[denom == 0.0] = np.inf  # a zero-length segment projects to t = 0
    out = np.empty(len(points))
    block = max(1, _PAIRS_PER_BLOCK // len(a))
    for start in range(0, len(points), block):
        ap = points[start:start + block, None, :] - a        # (b, s, 3)
        t = np.clip(np.einsum("bsk,sk->bs", ap, ab) / denom, 0.0, 1.0)
        d = ap - t[:, :, None] * ab
        out[start:start + block] = np.sqrt(np.einsum("bsk,bsk->bs", d, d).min(axis=1))
    return out


def compute_rmse(trajectory: Trajectory,
                 reference: dict[str, list[Setpoint]]) -> MetricsReport:
    """Build the metrics report for a flown trajectory.

    ``reference`` maps drone id to its ordered setpoint list. Drones
    present in the trajectory but missing (or empty) in the reference are
    listed in ``skipped_drones`` and excluded from the RMSE table.
    """
    report = MetricsReport()
    for event in trajectory.events:
        report.event_counts[event.kind] = report.event_counts.get(event.kind, 0) + 1
        if event.kind == WAYPOINT_REACHED:
            for drone_id in event.drone_ids:
                report.waypoint_capture_times_s.setdefault(drone_id, []).append(event.t)

    for drone_id in trajectory.samples:
        rows = trajectory.rows(drone_id)
        # columns 1-3 of the rows, the positions, as one (m, 3) array
        positions = (np.column_stack(list(itertools.islice(zip(*rows), 1, 4))) if rows
                     else np.empty((0, 3)))
        steps = np.diff(positions, axis=0)
        report.route_length_flown_m[drone_id] = float(
            np.sqrt(np.einsum("ij,ij->i", steps, steps)).sum())

        setpoints = reference.get(drone_id)
        if not setpoints:
            report.skipped_drones.append(drone_id)
            continue
        if len(positions) == 0:
            report.rmse_m[drone_id] = 0.0
            continue
        distances = polyline_distances(positions, [sp.target_position for sp in setpoints])
        report.rmse_m[drone_id] = math.sqrt(float(np.mean(distances * distances)))
    return report
