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

Both exporters and the metrics read a trajectory's float64 tables
through :meth:`Trajectory.table`, so a trajectory from
:func:`~dronesim.swarm.simulate` or :func:`load_csv` is written without
building a single ``DroneState``; a drone whose states a caller has
read is written from those states. The CSV is formatted one row at a
time with one ``%.9g`` template, fed the tuples :func:`struct.iter_unpack`
reads from the tables. The GeoJSON file holds the bytes
``json.dumps(document, indent=2)`` would write, without that slow,
pure-Python encoder: the times and positions of all tracks are columns
of the tables, the positions of all tracks and events are projected in
one :func:`geo_project_columns` call, json's C encoder
renders every number, id and event property with the separators of its
depth in a fixed number of calls, and each feature is written from a
template. Only an event value that nests deeper than an array of
scalars goes through the indenting encoder.
"""

from __future__ import annotations

import csv
import io
import json
import math
import struct
from pathlib import Path

import numpy as np

from .dynamics import check_unit_orientation
from .frames import FieldError, InertialFrame, as_vec3, geo_project, geo_project_columns
from .swarm import RecordedSamples, Trajectory

CSV_FIELDS = ("drone_id", "t", "px", "py", "pz", "vx", "vy", "vz",
              "qw", "qx", "qy", "qz", "wx", "wy", "wz")


def _tables(trajectory: Trajectory) -> dict[str, np.ndarray]:
    """Each drone's table; ValueError when no drone has a sample."""
    tables = {drone_id: trajectory.table(drone_id) for drone_id in trajectory.samples}
    if not any(map(len, tables.values())):
        raise ValueError("trajectory has no samples to export")
    return tables


def export_geojson(trajectory: Trajectory, frame: InertialFrame, path) -> None:
    """Write a FeatureCollection of per-drone tracks and event markers.

    The bytes are those of ``json.dumps(document, indent=2)``. Every
    track and event becomes the text of its feature through a template.
    The positions of all tracks and events are projected in one
    :func:`geo_project_columns` call, and json's C encoder renders their
    numbers, the times and the events' properties in a fixed number of
    calls, however many events there are.

    Raises ValueError on an empty trajectory or a non-finite position and
    TypeError on a value json cannot serialize, both before creating the
    file, and OSError if the path is not writable.
    """
    tables = _tables(trajectory)
    samples = np.concatenate([table[:, 0:4] for table in tables.values()])
    times, positions = samples[:, 0].tolist(), samples[:, 1:4].T  # east, north, up
    finite = np.isfinite(positions).all(axis=0)
    if not finite.all():  # raise geo_project's error for the first bad one
        geo_project(frame, positions[:, np.argmin(finite)])
    events, marks = [], []
    for event in trajectory.events:
        payload = dict(event.payload)
        position = payload.pop("position", None)
        if position is not None:
            marks.append(position)
        events.append(({"event": event.kind, "t_s": event.t,
                        "drone_ids": list(event.drone_ids), **payload}, position is not None))
    lat, lon, alt = geo_project_columns(
        frame, *np.concatenate((positions, _marks(frame, positions, marks)), axis=1))
    coordinates = np.column_stack((lon, lat, alt)).tolist()
    # rendered once every position is checked and projected, as the
    # document was encoded after them; no number's text holds a comma or a
    # bracket, so the separators split the items apart
    times = _ITEMS(times)[1:-1].split("," + _ITEM)
    points = _NUMBERS(coordinates)[2:-2].split("]," + _NUMBER + "[")
    features, start = [], 0
    for drone_id, table in tables.items():
        if not len(table):
            continue
        stop = start + len(table)
        if len(table) == 1:
            kind, text = "Point", _point_text(points[start])
        else:
            kind = "LineString"
            text = ("[" + _ITEM + "[" + _NUMBER
                    + (_ITEM + "]," + _ITEM + "[" + _NUMBER).join(points[start:stop])
                    + _ITEM + "]" + _MEMBER + "]")
        times_text = "[" + _ITEM + ("," + _ITEM).join(times[start:stop]) + _MEMBER + "]"
        features.append(_TRACK % (json.dumps(drone_id), times_text, kind, text))
        start = stop
    for text, (_, projected) in zip(_properties_texts([p for p, _ in events]), events):
        geometry = _POINT % _point_text(points[start]) if projected else "null"
        start += projected
        features.append(_EVENT % (text, geometry))
    # piece by piece: a joined document would be two more copies of it in
    # memory (about 0.2 MiB more peak RSS for a 200-drone swarm)
    with Path(path).open("w", encoding="utf-8") as handle:
        handle.write('{\n  "type": "FeatureCollection",\n  "features": [\n')
        for i, feature in enumerate(features):
            handle.write(",\n" if i else "")
            handle.write(feature)
        handle.write("\n  ]\n}\n")


# Features as json.dumps(document, indent=2) writes them: each opens at
# depth 2, its members sit at depth 3 and those of its properties and
# geometry at depth 4, where a track's arrays and an event's values open;
# their items sit at depth 5 and a LineString position's numbers at depth
# 6. The C encoder, which json runs when indent is None, writes every
# scalar, and raises every TypeError, as the indenting encoder does; with
# these separators it writes the members and items of one depth.
_CLOSE, _MEMBER, _ITEM, _NUMBER = ("\n" + "  " * depth for depth in (3, 4, 5, 6))
_MEMBERS, _ITEMS, _NUMBERS = (json.JSONEncoder(separators=("," + indent, ": ")).encode
                              for indent in (_MEMBER, _ITEM, _NUMBER))
_TRACK = ('    {\n      "type": "Feature",\n      "properties": {\n        "drone_id": %s,\n'
          '        "times_s": %s\n      },\n      "geometry": {\n        "type": "%s",\n'
          '        "coordinates": %s\n      }\n    }')
_EVENT = '    {\n      "type": "Feature",\n      "properties": %s,\n      "geometry": %s\n    }'
_POINT = '{\n        "type": "Point",\n        "coordinates": %s\n      }'
_NESTED = (list, tuple, dict)


def _point_text(numbers: str) -> str:
    # one position's numbers, split from the positions' text, at depth 5
    return "[" + _ITEM + numbers.replace(_NUMBER, _ITEM) + _MEMBER + "]"


def _marks(frame: InertialFrame, positions: np.ndarray, marks: list) -> np.ndarray:
    """The events' positions ``marks`` as a (3, k) array of east, north, up.

    The first that is not three finite numbers raises :func:`geo_project`'s
    error, after the error projecting the tracks' ``positions`` would
    raise (a frame at a pole), as when each event was projected in turn.
    """
    try:
        marked = np.array(marks, dtype=float) if marks else np.empty((0, 3))
    except (TypeError, ValueError, OverflowError):  # those as_vec3 turns into its error
        marked = None
    if marked is None or marked.shape != (len(marks), 3) or not np.isfinite(marked).all():
        geo_project_columns(frame, *positions)
        marked = np.array([as_vec3(p, "position") for p in marks])
    return marked.T


def _properties_texts(events: list[dict]) -> list[str]:
    """The text of each event's properties, at depth 3.

    Two C-encoder calls render all events: one with each array of scalars
    standing as None, one of all those arrays, whose texts then take the
    place of their ``null``. JSON text holds no raw newline, so the
    separators, which start with one, split events, members and arrays
    apart. Properties with a value that nests deeper go through the
    indenting encoder. If a call raises, the events are encoded one by one
    to raise the error of the first bad value in document order.
    """
    flat, slots, arrays = [], [], []
    for properties in events:
        skeleton, slot, found = {}, [], []
        for i, (key, value) in enumerate(properties.items()):
            if isinstance(value, _NESTED):
                if isinstance(value, dict) or any(isinstance(v, _NESTED) for v in value):
                    slot = None
                    break
                slot.append(i)
                found.append(value)
                value = None
            skeleton[key] = value
        if slot is not None:
            flat.append(skeleton)
            arrays += found
        slots.append(slot)
    try:
        members = iter(_MEMBERS(flat)[2:-2].split("}," + _MEMBER + "{"))
        items = iter(_ITEMS(arrays)[2:-2].split("]," + _ITEM + "["))
    except (TypeError, ValueError):
        for properties in events:
            json.dumps(properties)
        raise
    texts = []
    for properties, slot in zip(events, slots):
        if slot is None:  # indenting the newlines moves the object to its depth
            texts.append(json.dumps(properties, indent=2).replace("\n", _CLOSE))
            continue
        parts = next(members).split("," + _MEMBER)
        for i in slot:  # an empty array's items are no text
            array = next(items)
            parts[i] = parts[i][:-len("null")] + (
                "[" + _ITEM + array + _MEMBER + "]" if array else "[]")
        texts.append("{" + _MEMBER + ("," + _MEMBER).join(parts) + _CLOSE + "}")
    return texts


# a row's 14 numbers and csv.writer's line terminator; "%.9g" % v prints
# what f"{v:.9g}" prints
_ROW_NUMBERS = ",%.9g" * (len(CSV_FIELDS) - 1) + "\r\n"
_ROW = struct.Struct(f"{len(CSV_FIELDS) - 1}d")


def _csv_cell(text: str) -> str:
    # text as csv.writer writes it in the first of several cells, quoted if need be
    buffer = io.StringIO()
    csv.writer(buffer).writerow((text, ""))
    return buffer.getvalue()[:-len(",\r\n")]


def export_csv(trajectory: Trajectory, path) -> None:
    """Write one row per sample, grouped by drone id then ordered by time."""
    tables = _tables(trajectory)
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as handle:
        csv.writer(handle).writerow(CSV_FIELDS)
        for drone_id in sorted(tables):
            template = _csv_cell(drone_id).replace("%", "%%") + _ROW_NUMBERS
            handle.write("".join([template % row for row in _ROW.iter_unpack(tables[drone_id])]))


def load_csv(path) -> Trajectory:
    """Read a trajectory CSV back (events are not stored in CSV).

    Every row must hold the 15 columns of the header, finite numbers and
    a unit quaternion, as :class:`DroneState` requires; otherwise a
    ValueError (a FieldError naming the column for a bad value) gives the
    CSV line number. The samples are kept as float64 tables, in the
    order of the file, and become states when they are read.
    """
    rows: dict[str, list[float]] = {}  # each drone's numbers, row after row
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
            rows.setdefault(row[0], []).extend(values)
    # packed into bytes, which the read-only tables share
    return Trajectory(samples=RecordedSamples({
        drone_id: np.frombuffer(struct.pack(f"{len(numbers)}d", *numbers)).reshape(-1, 14)
        for drone_id, numbers in rows.items()}), events=[])
