"""Trajectory export: GeoJSON for mapping tools, CSV for analysis.

GeoJSON output is an RFC 7946 FeatureCollection: one LineString per
drone (coordinates ``[lon, lat, alt]`` through the scenario's geodetic
anchor, with the matching sample times in the feature properties) and
one Point per simulation event. A drone with a single recorded sample
degenerates to a Point feature, keeping the document valid for strict
validators.

CSV rows are grouped by drone id and ordered by time within each drone,
formatted to 9 significant digits; ``load_csv`` reads the format back
for round-tripping into analysis code.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

from .dynamics import DroneState, check_unit_orientation
from .frames import FieldError, InertialFrame, geo_project
from .swarm import SimEvent, Trajectory

CSV_FIELDS = ("drone_id", "t", "px", "py", "pz", "vx", "vy", "vz",
              "qw", "qx", "qy", "qz", "wx", "wy", "wz")


def _require_samples(trajectory: Trajectory) -> None:
    if not trajectory.samples or all(not s for s in trajectory.samples.values()):
        raise ValueError("trajectory has no samples to export")


def export_geojson(trajectory: Trajectory, frame: InertialFrame, path) -> None:
    """Write a FeatureCollection of per-drone tracks and event markers.

    Raises ValueError (before creating the file) on an empty trajectory,
    and OSError if the path is not writable.
    """
    _require_samples(trajectory)
    features = []
    for drone_id in trajectory.samples:
        states = trajectory.samples[drone_id]
        if not states:
            continue
        coordinates = []
        times = []
        for s in states:
            lat, lon, alt = geo_project(frame, s.position)
            coordinates.append([lon, lat, alt])
            times.append(s.t)
        if len(coordinates) >= 2:
            geometry = {"type": "LineString", "coordinates": coordinates}
        else:
            geometry = {"type": "Point", "coordinates": coordinates[0]}
        features.append({
            "type": "Feature",
            "properties": {"drone_id": drone_id, "times_s": times},
            "geometry": geometry,
        })
    for event in trajectory.events:
        features.append(_event_feature(event, frame))
    document = {"type": "FeatureCollection", "features": features}
    Path(path).write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")


def _event_feature(event: SimEvent, frame: InertialFrame) -> dict:
    payload = dict(event.payload)
    position = payload.pop("position", None)
    if position is not None:
        lat, lon, alt = geo_project(frame, position)
        geometry = {"type": "Point", "coordinates": [lon, lat, alt]}
    else:
        geometry = None
    return {
        "type": "Feature",
        "properties": {
            "event": event.kind,
            "t_s": event.t,
            "drone_ids": list(event.drone_ids),
            **payload,
        },
        "geometry": geometry,
    }


def _format(value: float) -> str:
    return f"{value:.9g}"


def export_csv(trajectory: Trajectory, path) -> None:
    """Write one row per sample, grouped by drone id then ordered by time."""
    _require_samples(trajectory)
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_FIELDS)
        for drone_id in sorted(trajectory.samples):
            for s in trajectory.samples[drone_id]:
                writer.writerow(
                    [drone_id]
                    + [_format(v) for v in (s.t, *s.position, *s.velocity,
                                            *s.orientation, *s.angular_velocity)])


def load_csv(path) -> Trajectory:
    """Read a trajectory CSV back into states (events are not stored in CSV).

    Every row must hold the 15 columns of the header, finite numbers and
    a unit quaternion, as :class:`DroneState` requires; otherwise a
    ValueError (a FieldError naming the column for a bad value) gives the
    CSV line number.
    """
    samples: dict[str, list[DroneState]] = {}
    with Path(path).open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != list(CSV_FIELDS):
            raise ValueError(f"CSV line 1: unexpected CSV header: {header}")
        for row in reader:
            if not row:
                continue
            line = reader.line_num
            if len(row) != len(CSV_FIELDS):
                raise ValueError(f"CSV line {line}: expected {len(CSV_FIELDS)} columns, "
                                 f"got {len(row)}")
            try:
                values = [float(v) for v in row[1:]]
            except ValueError as err:
                raise ValueError(f"CSV line {line}: {err}") from None
            if not all(map(math.isfinite, values)):
                name, value = next((n, v) for n, v in zip(CSV_FIELDS[1:], values)
                                   if not math.isfinite(v))
                raise FieldError(f"CSV line {line}: {name} must be finite, got {value}", name)
            try:
                check_unit_orientation(values[7:11])
            except FieldError as err:
                raise FieldError(f"CSV line {line}: {err}", err.field) from None
            samples.setdefault(row[0], []).append(DroneState.from_checked(values[0], values[1:]))
    return Trajectory(samples=samples, events=[])
