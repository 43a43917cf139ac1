"""Flight quality metrics against the planned reference routes.

The headline metric is the root mean square error of the flown samples
against the reference polyline: for every recorded position, the
distance to the nearest point anywhere on the polyline (not just its
vertices), squared, averaged, and rooted. Nearest-point matching is used
because planned routes carry no timestamps to align against, and it
makes the metric invariant under densifying the reference with collinear
vertices.

All drones are scored together: the position columns of their float64
tables (:meth:`Trajectory.table`) are stacked once, and the projections
onto the segments, the clamping and the squared distances are computed
for the (sample, segment) pairs of every drone in one pass. Each drone's
mean and flown length are summed over its own samples, as one row of a
2-D array that holds every drone with as many samples: numpy sums a row
as it sums that slice alone, so every figure has the bits that scoring
the drone alone would give. (A flat
``np.add.reduceat`` over all drones would not: it sums in another
order.)
"""

from __future__ import annotations

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


# (position, segment) pairs per block of _polyline_distances, bounding its
# memory to about 1 MiB
_PAIRS_PER_BLOCK = 1 << 13


def _polyline_distances(positions: np.ndarray, starts: np.ndarray, lengths: np.ndarray,
                        polylines: list[list[np.ndarray]]) -> np.ndarray:
    """Distance from each scored position to the nearest point of its polyline.

    Rows ``start:start + length`` of the (m, 3) ``positions``, for each
    start and length, are scored against the matching polyline, a list of
    vertices; the distances of all runs come in one array, run after run.
    Each position is projected onto every segment of its polyline and
    clamped to it, a single vertex counting as a zero-length segment, and
    the minimum is taken over its segments. The (position, segment) pairs
    of all polylines are formed together, at most ``_PAIRS_PER_BLOCK`` at
    a time or a single position's.
    """
    vertices = np.array([v for polyline in polylines
                         for v in (polyline * 2 if len(polyline) == 1 else polyline)],
                        dtype=float).reshape(-1, 3)
    counts = np.array([max(len(polyline), 2) for polyline in polylines])
    first = np.ones(len(vertices), dtype=bool)  # every vertex but a polyline's last
    first[np.cumsum(counts) - 1] = False
    a, ab = vertices[first], np.diff(vertices, axis=0)[first[:-1]]
    denom = np.einsum("ij,ij->i", ab, ab)
    denom[denom == 0.0] = np.inf  # a zero-length segment projects to t = 0
    # per scored position: its coordinates, its number of segments and its first one
    points = positions[np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
                       + np.arange(lengths.sum())]
    segments = np.repeat(counts - 1, lengths)
    firsts = np.repeat(np.cumsum(counts - 1) - (counts - 1), lengths)
    pair_ends = np.cumsum(segments)
    out = np.empty(len(points))
    start = 0
    while start < len(points):
        done = pair_ends[start - 1] if start else 0
        stop = max(start + 1, int(np.searchsorted(pair_ends, done + _PAIRS_PER_BLOCK, "right")))
        block = segments[start:stop]
        block_starts = pair_ends[start:stop] - block - done
        segment = (np.repeat(firsts[start:stop] - block_starts, block)
                   + np.arange(pair_ends[stop - 1] - done))
        # the rows einsum reads are (pairs, 3), as the rows of one drone's
        # (samples, segments, 3) were, so every dot product keeps its bits
        ap = np.repeat(points[start:stop], block, axis=0)
        ap -= a.take(segment, axis=0)
        ab_pairs = ab.take(segment, axis=0)
        t = np.einsum("ij,ij->i", ap, ab_pairs)
        t /= denom.take(segment)
        np.clip(t, 0.0, 1.0, out=t)
        ab_pairs *= t[:, None]
        ap -= ab_pairs
        out[start:stop] = np.sqrt(np.minimum.reduceat(np.einsum("ij,ij->i", ap, ap),
                                                      block_starts))
        start = stop
    return out


def _slice_sums(values: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``values[start:start + length].sum()`` for each start and length, with
    its bits: the slices of one length are gathered into the rows of one
    2-D array, whose row sums numpy forms as it forms each slice's sum."""
    sums = np.zeros(len(starts))
    for length in set(lengths.tolist()) - {0}:
        picked = np.flatnonzero(lengths == length)
        sums[picked] = values[starts[picked, np.newaxis] + np.arange(length)].sum(axis=1)
    return sums


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

    ids = list(trajectory.samples)
    tables = [trajectory.table(drone_id) for drone_id in ids]
    counts = np.array(list(map(len, tables)), dtype=np.int64)
    starts = np.cumsum(counts) - counts
    # columns 1-3 of every drone's table, the positions, as one (m, 3) array
    positions = np.concatenate([table[:, 1:4] for table in tables] or [np.empty((0, 3))])
    steps = np.diff(positions, axis=0)
    legs = np.sqrt(np.einsum("ij,ij->i", steps, steps))
    # the legs between each drone's own samples
    flown = _slice_sums(legs, starts, np.maximum(counts - 1, 0))
    report.route_length_flown_m = dict(zip(ids, flown.tolist()))
    scored, picked, polylines = [], [], []
    for k, drone_id in enumerate(ids):
        setpoints = reference.get(drone_id)
        if not setpoints:
            report.skipped_drones.append(drone_id)
            continue
        scored.append(drone_id)
        picked.append(k)
        polylines.append([sp.target_position for sp in setpoints])
    if scored:
        counts = counts[picked]
        distances = _polyline_distances(positions, starts[picked], counts, polylines)
        # each drone's mean square, as np.mean forms it: its sum over the count
        sums = _slice_sums(distances * distances, np.cumsum(counts) - counts, counts)
        means = sums / np.maximum(counts, 1)  # a drone without samples sums to 0.0
        report.rmse_m = dict(zip(scored, map(math.sqrt, means.tolist())))
    return report
