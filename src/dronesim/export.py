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

Both exporters and the metrics read a trajectory as rows of floats
through :meth:`Trajectory.rows`, so a trajectory from
:func:`~dronesim.swarm.simulate` or :func:`load_csv` is written without
building a single ``DroneState``; a drone whose states a caller has
read is written from those states. The CSV is formatted one row at a
time with one ``%.9g`` template, and the GeoJSON tracks are projected a
whole column at a time with :func:`geo_project_columns`.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
from pathlib import Path

import numpy as np

from .dynamics import check_unit_orientation
from .frames import FieldError, InertialFrame, geo_project, geo_project_columns
from .swarm import RecordedSamples, SimEvent, Trajectory

CSV_FIELDS = ("drone_id", "t", "px", "py", "pz", "vx", "vy", "vz",
              "qw", "qx", "qy", "qz", "wx", "wy", "wz")


def _require_samples(trajectory: Trajectory) -> None:
    if not any(trajectory.rows(drone_id) for drone_id in trajectory.samples):
        raise ValueError("trajectory has no samples to export")


def export_geojson(trajectory: Trajectory, frame: InertialFrame, path) -> None:
    """Write a FeatureCollection of per-drone tracks and event markers.

    Raises ValueError (before creating the file) on an empty trajectory,
    and OSError if the path is not writable.
    """
    _require_samples(trajectory)
    features = []
    for drone_id in trajectory.samples:
        rows = trajectory.rows(drone_id)
        if not rows:
            continue
        times, *positions = itertools.islice(zip(*rows), 4)  # t, east, north, up
        positions = np.array(positions)
        finite = np.isfinite(positions).all(axis=0)
        if not finite.all():  # raise geo_project's error for the first bad one
            geo_project(frame, positions[:, np.argmin(finite)])
        lat, lon, alt = geo_project_columns(frame, *positions)
        coordinates = np.column_stack((lon, lat, alt)).tolist()
        if len(coordinates) >= 2:
            geometry = {"type": "LineString", "coordinates": coordinates}
        else:
            geometry = {"type": "Point", "coordinates": coordinates[0]}
        features.append({
            "type": "Feature",
            "properties": {"drone_id": drone_id, "times_s": list(times)},
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


# a row's 14 numbers and csv.writer's line terminator; "%.9g" % v prints
# what f"{v:.9g}" prints
_ROW_NUMBERS = ",%.9g" * (len(CSV_FIELDS) - 1) + "\r\n"


def _csv_cell(text: str) -> str:
    # text as csv.writer writes it in the first of several cells, quoted if need be
    buffer = io.StringIO()
    csv.writer(buffer).writerow((text, ""))
    return buffer.getvalue()[:-len(",\r\n")]


def export_csv(trajectory: Trajectory, path) -> None:
    """Write one row per sample, grouped by drone id then ordered by time."""
    _require_samples(trajectory)
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as handle:
        csv.writer(handle).writerow(CSV_FIELDS)
        for drone_id in sorted(trajectory.samples):
            template = _csv_cell(drone_id).replace("%", "%%") + _ROW_NUMBERS
            handle.write("".join([template % tuple(row)
                                  for row in trajectory.rows(drone_id)]))


def load_csv(path) -> Trajectory:
    """Read a trajectory CSV back (events are not stored in CSV).

    Every row must hold the 15 columns of the header, finite numbers and
    a unit quaternion, as :class:`DroneState` requires; otherwise a
    ValueError (a FieldError naming the column for a bad value) gives the
    CSV line number. The samples are kept as rows of floats, in the
    order of the file, and become states when they are read.
    """
    rows: dict[str, list[list[float]]] = {}
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
                values = list(map(float, row[1:]))
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
            rows.setdefault(row[0], []).append(values)
    return Trajectory(samples=RecordedSamples(rows), events=[])
