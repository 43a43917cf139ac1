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
time with one ``%.9g`` template. The GeoJSON tracks are projected a
whole column at a time with :func:`geo_project_columns`, and the file
holds the bytes ``json.dumps(document, indent=2)`` would write: only the
skeleton (features, ids, events) goes through that slow, pure-Python
encoder, and each track's times and coordinates, rendered by json's C
encoder with the separators of their depth, are spliced into it.
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

    The bytes are those of ``json.dumps(document, indent=2)``: the
    skeleton is dumped with a placeholder for each track's ``times_s`` and
    ``coordinates``, which are rendered apart and spliced in.

    Raises ValueError on an empty trajectory or a non-finite position and
    TypeError on a value json cannot serialize, both before creating the
    file, and OSError if the path is not writable.
    """
    _require_samples(trajectory)
    features, tracks = [], []
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
        properties = {"drone_id": drone_id, "times_s": None}
        geometry = {"type": "LineString" if len(coordinates) >= 2 else "Point",
                    "coordinates": None}
        features.append({"type": "Feature", "properties": properties, "geometry": geometry})
        tracks.append((properties, geometry, times, coordinates))
    for event in trajectory.events:
        features.append(_event_feature(event, frame))
    # rendered once every position is checked and every event projected,
    # as the document was encoded after them
    arrays = []
    for _, _, times, coordinates in tracks:
        arrays.append(_numbers_text(times))
        arrays.append(_numbers_text(coordinates[0]) if len(coordinates) == 1
                      else _positions_text(coordinates))
    document = {"type": "FeatureCollection", "features": features}
    # the skeleton holds the placeholder's encoded form once per array
    # unless an id or payload holds it too, which makes the count differ
    for nonce in itertools.count():
        placeholder = f"\0{nonce}"
        for properties, geometry, _, _ in tracks:
            properties["times_s"] = geometry["coordinates"] = placeholder
        parts = json.dumps(document, indent=2).split(json.dumps(placeholder))
        if len(parts) == len(arrays) + 1:
            break
    # piece by piece: a joined document would be two more copies of it in
    # memory (about 0.2 MiB more peak RSS for a 200-drone swarm)
    with Path(path).open("w", encoding="utf-8") as handle:
        handle.write(parts[0])
        for array, part in zip(arrays, parts[1:]):
            handle.write(array)
            handle.write(part)
        handle.write("\n")


# A track's arrays as json.dumps(document, indent=2) writes them: each opens
# at depth 4 (properties' times_s, geometry's coordinates), its items sit at
# depth 5 and a LineString position's numbers at depth 6. The C encoder,
# which json runs when indent is None, writes every number, and raises
# every TypeError, as the indenting encoder does.
_END, _ITEM, _NUMBER = ("\n" + "  " * depth for depth in (4, 5, 6))


def _numbers_text(values) -> str:
    items = json.dumps(values, separators=("," + _ITEM, ": "))[1:-1]
    return "[" + _ITEM + items + _END + "]"


def _positions_text(coordinates: list[list[float]]) -> str:
    # no number holds a bracket, so "],[" occurs only between positions
    items = json.dumps(coordinates, separators=("," + _NUMBER, ": "))[2:-2].replace(
        "]," + _NUMBER + "[", _ITEM + "]," + _ITEM + "[" + _NUMBER)
    return "[" + _ITEM + "[" + _NUMBER + items + _ITEM + "]" + _END + "]"


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
            # a sum with an infinity or a NaN in it is never finite, so only
            # a non-finite sum needs the check of every value
            if not math.isfinite(sum(values)) and not all(map(math.isfinite, values)):
                name, value = next((n, v) for n, v in zip(CSV_FIELDS[1:], values)
                                   if not math.isfinite(v))
                raise FieldError(f"CSV line {line}: {name} must be finite, got {value}", name)
            try:
                check_unit_orientation(values[7:11])
            except FieldError as err:
                raise FieldError(f"CSV line {line}: {err}", err.field) from None
            rows.setdefault(row[0], []).append(values)
    return Trajectory(samples=RecordedSamples(rows), events=[])
