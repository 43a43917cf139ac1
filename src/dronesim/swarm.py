"""Lock-step swarm simulation on one shared clock.

The environment is uniform and constant, so it is sampled once per
run. Every tick of the scenario's reference time step, each drone
computes rotor commands toward its current setpoint and takes one
dynamics step, and setpoints advance when waypoints are captured.
Interaction checks (pairwise separation, obstacle containment) run
once per tick on the post-step snapshot, after every drone's model
update, and are purely observational: violations become events, never
evasive maneuvers. The separation check builds cell lists on a (3, N)
position array: it sorts the drones by the column of a uniform grid in
x and y, a hair wider than ``min_separation``, that holds them, and
measures only pairs in the same or neighbouring columns, so a tick
costs O(N log N) in numpy plus the close neighbours instead of all
N * (N - 1) / 2 pairs; below ``_GRID_MIN`` drones it measures every
pair in Python, which costs less there. It reports the same violations
as testing every pair, computed with the same float expression and in
(i, j) drone-index order, and only the close pairs come back to
Python. Obstacle boxes are turned into plain float bounds once per
run. An event is built only when a violation episode starts. A run in
which no event is possible, one without obstacle boxes whose swarm has
one drone or a ``min_separation`` of 0, skips the check.

Drones that finish their route keep station-holding at their last
setpoint until the whole swarm is done; drones that hit the ground or
diverge are deactivated and keep their last state.

The clock is the tick index: tick k is time k * dt exactly, so every
sample and event time is an exact tick multiple. Drones of one rotor
layout form a group: one rotor count, one allocation rank, and drag on
every drone or on none, which fix the shapes and branches of the update.
A group of at least ``_BLOCK_MIN`` (N0) drones steps as one (13, n)
float64 block, one column per drone, with the drones' airframe constants
and gains as (n,) rows, built once per block from each distinct pair of
constants and gains objects; a smaller group steps drone by drone on 13
plain floats. Both run the one controller and integrator, whose few
branches go through :mod:`dronesim.backend` (``math`` on floats,
``np.where`` on the same comparisons and ``math`` trig mapped over the
row on blocks), so a drone gets the same bits in a block as alone,
whatever the masses or gains of the others. The sines and cosines of each
setpoint's yaw are computed once, when the route is read. A block tests
capture on all its columns at once; only the drones that reached their
setpoint enter the per-drone route bookkeeping. A block's states stay
in the block; a drone's floats are made from it only for that
bookkeeping and when the drone leaves. A block records one copy of its
(13, n) states per record tick, and a drone that steps alone packs its
samples into a buffer of 8 B per number. A drone that diverges or
touches the ground leaves its block with the event it would have alone,
and events of drones leaving in one tick come in drone order.
Airframe constants are built once per airframe object, which keeps them
(:func:`~dronesim.airframe.airframe_constants`).
Rotor speeds pass from the controller to the integrator as values, and
no caller-supplied object is changed. Runs are serial and deterministic:
the same swarm and scenario give a bit-identical trajectory every time.
"""

from __future__ import annotations

import math
import struct
from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import chain
from types import SimpleNamespace

import numpy as np

from .airframe import Airframe, AirframeConstants, airframe_constants
# compute_commands, the public form of command_speeds, stays importable from
# here for code that looks the per-drone controller up in this module
from .control import (ControllerGains, Setpoint, command_speeds,  # noqa: F401
                      compute_commands, heading, within_capture)
from .dynamics import DivergenceError, DroneState, check_unit_orientation, rk4_step
from .frames import FieldError, check_unique_ids, non_negative
from .scenario import (Scenario, box_bounds, check_recording_interval, inside_any,
                       sample_environment)

WAYPOINT_REACHED = "waypoint_reached"
SEPARATION_VIOLATION = "separation_violation"
OBSTACLE_COLLISION = "obstacle_collision"
GROUND_CONTACT = "ground_contact"
MISSION_COMPLETE = "mission_complete"
DIVERGENCE = "divergence"

DEFAULT_MIN_SEPARATION = 2.0


@dataclass
class Drone:
    id: str
    airframe: Airframe
    state: DroneState
    gains: ControllerGains = ControllerGains()  # a value: every drone may share it
    route: list[Setpoint] = field(default_factory=list)

    def __post_init__(self):
        if not self.id:
            raise FieldError("drone id must be non-empty", "id")


@dataclass
class Swarm:
    drones: list[Drone]
    min_separation: float = DEFAULT_MIN_SEPARATION

    def __post_init__(self):
        if not self.drones:
            raise FieldError("a swarm needs at least one drone", "drones")
        check_unique_ids([d.id for d in self.drones], "drone", "drones")
        self.min_separation = non_negative(self.min_separation, "min_separation")


@dataclass
class SimEvent:
    t: float
    kind: str
    drone_ids: tuple[str, ...]
    payload: dict = field(default_factory=dict)


class RecordedSamples(Mapping):
    """Samples per drone, in drone order, stored as float64 tables.

    A drone's table is a read-only, C-contiguous (k, 14) float64 array,
    112 B a sample: each row is ``t`` followed by the 13 components of
    :meth:`DroneState.as_floats`. Reading a drone builds its
    ``list[DroneState]`` the first time, keeps that list and drops the
    table, so a caller's edits to the list are what later readers see.
    """

    def __init__(self, tables: dict[str, np.ndarray]):
        self._tables = tables
        self._states: dict[str, list[DroneState] | None] = dict.fromkeys(tables)

    def __getitem__(self, drone_id: str) -> list[DroneState]:
        states = self._states[drone_id]
        if states is None:
            states = [DroneState.from_checked(row[0], row[1:])
                      for row in self._tables.pop(drone_id).tolist()]
            self._states[drone_id] = states
        return states

    def __contains__(self, drone_id) -> bool:
        return drone_id in self._states

    def __iter__(self):
        return iter(self._states)

    def __len__(self) -> int:
        return len(self._states)


@dataclass
class Trajectory:
    """Recorded states per drone plus everything notable that happened.

    ``samples`` maps each drone id, in drone order, to its states in time
    order. From :func:`simulate` and :func:`~dronesim.export.load_csv`
    it is a :class:`RecordedSamples`, which stores the samples as float64
    tables and builds a drone's states when they are first read; any
    mapping of ids to ``DroneState`` lists works too.
    """

    samples: Mapping[str, list[DroneState]]
    events: list[SimEvent]

    def table(self, drone_id: str) -> np.ndarray:
        """The drone's samples as a (k, 14) float64 array: as stored and
        read-only while no one has read them as states, and otherwise
        made from the drone's current states."""
        samples = self.samples
        if type(samples) is RecordedSamples and drone_id in samples._tables:
            return samples._tables[drone_id]
        return np.array([[s.t, *s.as_floats()] for s in samples[drone_id]],
                        dtype=float).reshape(-1, 14)


# The separation test sorts the drones by the column of a uniform grid in
# x and y that holds them, and measures only pairs in the same or
# neighbouring columns: cell lists built by sorting cell keys (Teschner et
# al., "Optimized Spatial Hashing for Collision Detection of Deformable
# Objects", VMV 2003; S. Green, "Particle Simulation using CUDA", NVIDIA
# 2010). Why no close pair is missed, with u = 2**-53: a computed distance
# below s means |x_i - x_j| < s * (1 + 5u), or else below 2**-499, where
# dx * dx can underflow to zero. The cell side c is at least
# s * (1 + 2**-20) and 2**-490, so such x lie less than 1 - 2**-21 cells
# apart. c is also at least 2**-30 of the largest |x| or |y|, so
# |x / c| <= 2**30 is rounded by at most 2**-23, and the int64 keys below,
# with _RUN_ENDS added, stay under 2**62 + 2**33 in size. The rounded
# quotients thus differ by less than one, and their floors by at most one;
# the same holds for y. Below _GRID_MIN drones every pair is a candidate
# instead: the grid's candidates are a subset of them that holds every
# close pair, and both are measured with the same expression (IEEE sqrt
# is correctly rounded in numpy and in math alike), so the close list is
# the same.
_CELL_WIDENING = 1.0 + 2.0 ** -20
_CELL_PER_EXTENT = 2.0 ** -30
_MIN_CELL = 2.0 ** -490
_ROW = 1 << 32  # key = floor(x / c) * _ROW + floor(y / c)
# A drone's partners are the drones after it in its own column and those
# in the forward columns (0, +1), (+1, -1), (+1, 0) and (+1, +1), so a pair
# of neighbouring columns is met from one side only. Keys are integers,
# so in the sorted keys these are two runs: from the drone's own place to
# key + 2, and from key + _ROW - 1 to key + _ROW + 2, both ends excluded.
_RUN_ENDS = np.array([[2], [_ROW - 1], [_ROW + 2]])
# Measured per call on spread drones (best of 15 on 2 vCPUs), measuring
# every pair costs 16-17 us at 12 drones, 45-48 at 20 and 52-64 at 24; the
# sorted grid costs 42-51, 43-57 and 35-63 there (the high end for lists,
# which it turns into an array first). The two are even at 20 to 24.
_GRID_MIN = 24


def _close_pairs(positions, min_separation: float) -> list[tuple[int, int, float]]:
    # (i, j, distance) for every pair i < j closer than min_separation, in
    # (i, j) order, with the distance computed as the all-pairs test would;
    # positions: a (3, N) array, or one sequence of 3 floats per drone
    n = positions.shape[1] if type(positions) is np.ndarray else len(positions)
    if n < 2 or min_separation == 0.0:  # no distance is below 0
        return []
    if n < _GRID_MIN:
        if type(positions) is np.ndarray:
            positions = positions.T.tolist()
        close = []
        for i in range(n - 1):
            ax, ay, az = positions[i]
            for j in range(i + 1, n):
                bx, by, bz = positions[j]
                dx, dy, dz = ax - bx, ay - by, az - bz
                distance = math.sqrt(dx * dx + dy * dy + dz * dz)
                if distance < min_separation:
                    close.append((i, j, distance))
        return close
    if type(positions) is not np.ndarray:
        positions = np.array(positions, dtype=float).T
    cell = max(min_separation * _CELL_WIDENING,
               float(np.abs(positions[0:2]).max()) * _CELL_PER_EXTENT, _MIN_CELL)
    column = np.floor(positions[0:2] / cell).astype(np.int64)
    keys = column[0] * _ROW + column[1]
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    ends = np.searchsorted(keys, keys + _RUN_ENDS)
    starts = np.concatenate((np.arange(1, n + 1), ends[1]))
    counts = np.concatenate((ends[0], ends[2])) - starts
    total = int(counts.sum())
    if not total:
        return []
    shift = np.repeat(starts - (np.cumsum(counts) - counts), counts)
    owner = np.repeat(np.concatenate((order, order)), counts)
    partner = order.take(shift + np.arange(total))
    # a - b is exactly -(b - a), so the squares do not depend on the order;
    # far apart, they overflow to inf, as on floats
    with np.errstate(all="ignore"):
        d = positions.take(owner, axis=1) - positions.take(partner, axis=1)
        d *= d
        distance = np.sqrt(d[0] + d[1] + d[2])
    close = np.flatnonzero(distance < min_separation)
    if not len(close):
        return []
    owner, partner, distance = owner.take(close), partner.take(close), distance.take(close)
    swap = owner > partner
    i, j = np.where(swap, partner, owner), np.where(swap, owner, partner)
    rank = np.argsort(i * n + j, kind="stable")
    return list(zip(i.take(rank).tolist(), j.take(rank).tolist(), distance.take(rank).tolist()))


def _instant_violations(positions, min_separation: float, boxes: list) -> list[tuple]:
    # (i, j, distance) per pair closer than min_separation, in (i, j) order,
    # then (i,) per drone inside an obstacle, in drone order; positions as
    # for _close_pairs, boxes as scenario.box_bounds tuples
    violations = _close_pairs(positions, min_separation)
    if not boxes:
        return violations
    if type(positions) is np.ndarray:
        # inside_any's inclusive comparisons, on every drone and box at once
        bounds = np.array(boxes)[:, :, np.newaxis]
        inside = ((bounds[:, 0:3] <= positions) & (positions <= bounds[:, 3:6])).all(axis=1)
        violations.extend((i,) for i in np.flatnonzero(inside.any(axis=0)).tolist())
    else:
        violations.extend((i,) for i, (x, y, z) in enumerate(positions)
                          if inside_any(boxes, x, y, z))
    return violations


def _position(positions, i: int) -> list[float]:
    return positions[:, i].tolist() if type(positions) is np.ndarray else list(positions[i])


def _violation_event(violation: tuple, ids: list[str], positions, min_separation: float,
                     t: float) -> SimEvent:
    # the event of one entry of _instant_violations
    a = _position(positions, violation[0])
    if len(violation) == 1:
        return SimEvent(t, OBSTACLE_COLLISION, (ids[violation[0]],), {"position": a})
    i, j, distance = violation
    (ax, ay, az), (bx, by, bz) = a, _position(positions, j)
    return SimEvent(t, SEPARATION_VIOLATION, tuple(sorted((ids[i], ids[j]))), {
        "distance_m": distance,
        "min_separation_m": min_separation,
        "position": [0.5 * (ax + bx), 0.5 * (ay + by), 0.5 * (az + bz)],
    })


# Groups of at least this many drones of one rotor layout step as a
# (13, n) block; smaller groups step drone by drone. The block's numpy
# calls cost a few hundred us a tick whatever n is. On crossing swarms of
# n drones, each of its own mass (12 ticks, median of 11 interleaved runs,
# each the best of 3, 2 vCPUs), a whole run cost 1.33 times as much with
# the drones in a block as on floats at n = 24, 1.05 at 32, 0.98 at 34,
# 0.91 at 40, 0.78 at 48 and 0.63 at 64; over 60 ticks, 1.31, 1.03, 0.98,
# 0.87, 0.74 and 0.58. Drones of one mass gave the same ratios within 0.02.
# The break-even, 33 to 34 drones, lies within one crossing pair of 32.
_BLOCK_MIN = 32

# the environment is uniform and constant, so one sample serves every drone
# and every tick of a run
_ANYWHERE = (0.0, 0.0, 0.0)
_PACK_SAMPLE = struct.Struct("14d").pack  # t and the 13 state floats


@dataclass(slots=True)
class _DroneRun:
    """One drone's run: its state as 13 plain floats and its route as floats."""

    index: int  # in the swarm
    id: str
    constants: AirframeConstants  # at the scenario's (uniform) air density
    gains: ControllerGains
    targets: list[tuple[list[float], tuple]]  # (position, heading) per route setpoint
    x: list[float]
    tick: int = 0  # the state is the drone's state at time tick * dt
    recorded_tick: int = -1
    status: str = "flying"  # flying | complete | deactivated
    route_index: int = 0
    setpoint: tuple[list[float], tuple] | None = None
    # its samples: the tables cut from its block's records, then its own rows
    pieces: list[np.ndarray] = field(default_factory=list)
    buffer: bytearray = field(default_factory=bytearray)  # packed by _PACK_SAMPLE


@dataclass(slots=True, eq=False)
class _Block:
    """Drones of one rotor layout that step together.

    Column k of each array belongs to ``runs[k]``, in drone order; a
    deactivated drone's column is removed. ``constants`` and ``gains``
    hold the drones' airframe constants and gains as the kernels read
    them, with a row per number (:meth:`gather`). The drones' states live
    in ``x`` alone: a run's own ``x`` and ``tick`` are set from the block
    only when the run needs them, that is when it enters route
    bookkeeping (:meth:`due`) or leaves the block.
    """

    index: int  # of its first drone, which orders it among the runs
    runs: list[_DroneRun]
    x: np.ndarray  # (13, n) states
    columns: np.ndarray  # (n,) the drones' indices in the swarm
    constants: AirframeConstants | None = None  # set by gather()
    gains: SimpleNamespace | None = None
    tick: int = 0  # x holds the states at time tick * dt
    target: np.ndarray | None = None  # (3, n) setpoint positions, set by aim()
    heading: np.ndarray | None = None  # (4, n) setpoint headings
    flying: np.ndarray | None = None  # (n,) still on their routes
    records: list[tuple[int, np.ndarray]] = field(default_factory=list)  # (tick, x copy)

    def __post_init__(self):
        self.gather()

    def gather(self) -> None:
        # one table row of numbers per distinct pair of constants and gains
        # objects, taken into one column per drone
        pairs: dict[tuple[int, int], int] = {}
        table, picks = [], []
        for run in self.runs:
            c, g = run.constants, run.gains
            pick = pairs.setdefault((id(c), id(g)), len(table))
            if pick == len(table):
                table.append([c.mass, *c.inertia, c.linear_drag, *c.max_speeds,
                              *chain(*c.rotors, *(c.pinv_rows or ())), *vars(g).values()])
            picks.append(pick)
        rows = np.array(table).T.take(picks, axis=1)
        lead, names = self.runs[0].constants, vars(self.runs[0].gains)
        r = len(lead.rotors)
        # the rotors' 4-tuples, then the pseudo-inverse's, if any
        fours = tuple(map(tuple, rows[5 + r:-len(names)].reshape(-1, 4, len(picks))))
        self.constants = AirframeConstants(lead.air_density, rows[0], tuple(rows[1:4]), rows[4],
                                           fours[:r], rows[5:5 + r], fours[r:] or None, lead.rank)
        self.gains = SimpleNamespace(**dict(zip(names, rows[-len(names):])))

    def due(self) -> list[_DroneRun]:
        # the drones whose setpoint must be set or that reached it, their x
        # and tick set from the block
        if self.target is None:  # tick 0: the runs hold the states x was built from
            return self.runs
        with np.errstate(all="ignore"):  # far off, a squared distance overflows to inf
            hit = within_capture(self.x, self.target, self.gains.capture_radius)
        picked = np.flatnonzero(hit & self.flying).tolist()
        runs = [self.runs[k] for k in picked]
        for run, column in zip(runs, self.x[:, picked].T.tolist()):
            run.x = column
            run.tick = self.tick
        return runs

    def aim(self) -> None:
        runs = self.runs
        self.target = np.array([r.setpoint[0] for r in runs]).T.copy()
        self.heading = np.array([r.setpoint[1] for r in runs]).T.copy()
        self.flying = np.array([r.status == "flying" for r in runs])


def _start_floats(s: DroneState) -> list[float]:
    # the caller's state as 13 floats, checked once as DroneState checks it
    # (the swarm clock starts at t = 0, so s.t is not used); a state changed
    # in place since it was built goes through DroneState, which converts
    # it or raises the same FieldError it raises for the same values
    p, v, q, w = s.position, s.velocity, s.orientation, s.angular_velocity
    if (type(p) is type(v) is type(q) is type(w) is np.ndarray
            and p.dtype == v.dtype == q.dtype == w.dtype == np.float64
            and p.shape == v.shape == w.shape == (3,) and q.shape == (4,)):
        x = p.tolist() + v.tolist() + q.tolist() + w.tolist()
        # a sum with an infinity or a NaN in it is never finite
        if math.isfinite(sum(x)) or all(map(math.isfinite, x)):
            check_unit_orientation(x[6:10])
            return x
    return DroneState(0.0, p, v, q, w).as_floats()


def _start(index: int, drone: Drone, air_density: float) -> _DroneRun:
    return _DroneRun(
        index=index, id=drone.id, constants=airframe_constants(drone.airframe, air_density),
        gains=drone.gains,
        targets=[(sp.target_position.tolist(), heading(sp.target_yaw))
                 for sp in drone.route],
        x=_start_floats(drone.state))


def _units(runs: list[_DroneRun]) -> list:
    # the runs that step alone and the blocks, in order of their first drone;
    # a group has one rotor layout: rotor count, rank, and drag or none
    groups: dict[tuple, list[_DroneRun]] = {}
    for run in runs:
        c = run.constants
        groups.setdefault((len(c.rotors), c.rank, c.linear_drag != 0.0), []).append(run)
    units = []
    for members in groups.values():
        if len(members) < _BLOCK_MIN:
            units.extend(members)
            continue
        units.append(_Block(members[0].index, members, np.array([r.x for r in members]).T.copy(),
                            np.array([r.index for r in members])))
    units.sort(key=lambda unit: unit.index)
    return units


def _cut(block: _Block, dt: float) -> None:
    # hand the block's records to its runs: each keeps its (records, 14)
    # slice of one (n, records, 14) table
    if block.records:
        table = np.empty((len(block.runs), len(block.records), 14))
        for j, (tick, x) in enumerate(block.records):
            table[:, j, 0] = tick * dt
            table[:, j, 1:] = x.T
        for run, rows in zip(block.runs, table):
            run.pieces.append(rows)
            run.recorded_tick = tick
        block.records = []


def _table(run: _DroneRun) -> np.ndarray:
    # the run's samples as one read-only (k, 14) table
    pieces = run.pieces
    if run.buffer:
        pieces = pieces + [np.frombuffer(bytes(run.buffer)).reshape(-1, 14)]
    table = np.concatenate(pieces) if len(pieces) > 1 else pieces[0]
    table.flags.writeable = False
    return table


def _step_block(block: _Block, env, dt: float, dropped: list) -> None:
    # one tick of every column, as simulate steps a drone alone; a failed or
    # grounded column leaves the block with its state before or after the
    # step, as a drone alone would
    tick = block.tick
    t_next = (tick + 1) * dt
    runs = block.runs
    failed: dict[int, str] = {}
    with np.errstate(all="ignore"):
        speeds = command_speeds(block.constants, block.gains, env.gravity, block.x,
                                block.target, block.heading)
        try:
            x = rk4_step(block.constants, env, speeds, block.x, dt, t_next)
        except DivergenceError as err:
            x, failed = err.state, err.columns
        grounded = [k for k in np.flatnonzero(x[2] < 0.0).tolist() if k not in failed]
    block.tick = tick + 1
    if failed or grounded:
        _cut(block, dt)
        for k, detail in failed.items():
            runs[k].x, runs[k].tick = block.x[:, k].tolist(), tick
            _deactivate(runs[k], DIVERGENCE, t_next, dropped, detail=detail)
        for k in grounded:
            runs[k].x, runs[k].tick = x[:, k].tolist(), tick + 1
            _deactivate(runs[k], GROUND_CONTACT, t_next, dropped)
        keep = [k for k, run in enumerate(runs) if run.status != "deactivated"]
        block.runs = [runs[k] for k in keep]
        block.columns = block.columns[keep]
        x = x[:, keep]
    block.x = x
    if (failed or grounded) and block.runs:
        block.gather()
        block.aim()


def _deactivate(run: _DroneRun, kind: str, t: float, dropped: list, **payload) -> None:
    # the event's position is the drone's last state: before a diverged
    # step, after one that touched the ground
    run.status = "deactivated"
    payload["position"] = run.x[0:3]
    dropped.append((run, SimEvent(t, kind, (run.id,), payload)))


def simulate(swarm: Swarm, scenario: Scenario,
             recording_interval: float | None = None) -> Trajectory:
    """Run the swarm until every drone finished or max_duration elapses.

    States are recorded every ``recording_interval``, by default the
    scenario's; it must span at least one and a finite number of
    reference time steps. They are kept as float64 tables and become
    ``DroneState``s only when ``samples`` is read (see
    :class:`RecordedSamples`). Tick k is time ``k * dt`` exactly, so every
    sample and event time is an exact tick multiple; every drone starts
    at t = 0 and the ``t`` of its initial state is not used. The
    environment, uniform and constant, is sampled once per run. Drones
    of one rotor layout (rotor count, allocation rank, and drag or
    none), at least ``_BLOCK_MIN`` of them, step together as the columns
    of one (13, n) numpy block, whatever their masses, inertias, rotors
    and gains; other drones step one after another on plain floats. Both
    run the same
    controller and integrator (see :mod:`dronesim.backend`) and give the
    same bits, so the result is deterministic and independent of the
    grouping: the same swarm and scenario give a bit-identical
    trajectory. The interaction check is skipped in a run where no event
    is possible: without obstacle boxes, when the swarm has one drone or
    ``min_separation`` is 0. The swarm and its drones, airframes, states
    and routes are unchanged.
    """
    dt = scenario.reference_time_step
    if recording_interval is None:
        recording_interval = scenario.recording_interval
    recording_interval = check_recording_interval(recording_interval, dt)
    record_every = max(1, round(recording_interval / dt))
    n_ticks = max(1, round(scenario.max_duration / dt))

    runs = [_start(i, d, scenario.physics.air_density) for i, d in enumerate(swarm.drones)]
    units = _units(runs)
    blocks = [u for u in units if type(u) is _Block]
    # the drones that step alone; those still flying are the ones in alone
    lone = alone = [u for u in units if type(u) is _DroneRun]
    ids = [run.id for run in runs]
    events: list[SimEvent] = []
    # a pair (i, j) or a drone (i,) in violation after the last tick
    active: set[tuple] = set()
    boxes = [box_bounds(b) for b in scenario.conditions.obstacles]
    env = sample_environment(scenario, _ANYWHERE, 0.0)
    gravity = env.gravity
    # without boxes, no event is possible if no pair can be closer than
    # min_separation; finished and deactivated drones still count for it
    check = bool(boxes) or (len(runs) > 1 and swarm.min_separation != 0.0)
    # the interaction check reads the drones' positions, which keep a
    # deactivated drone's last position: with a block, one (3, N) array;
    # without, one list of 3 floats per drone, replaced when the drone steps
    as_array = bool(blocks)
    positions = (np.array([run.x[0:3] for run in runs]).T.copy() if as_array
                 else [run.x[0:3] for run in runs])
    listed = check and not as_array
    flying = len(runs)
    next_record = 0

    for tick in range(n_ticks + 1):
        t = tick * dt

        # capture waypoints and retire finished routes at the tick boundary;
        # a block's drones enter only if they reached their setpoint
        due = alone
        aimed = []
        for block in blocks:
            picked = block.due()
            if picked:
                due = due + picked
                aimed.append(block)
        if aimed:
            due.sort(key=lambda run: run.index)
        done = 0
        for run in due:
            targets, index = run.targets, run.route_index
            x, capture_radius = run.x, run.gains.capture_radius
            while index < len(targets) and within_capture(x, targets[index][0], capture_radius):
                events.append(SimEvent(t, WAYPOINT_REACHED, (run.id,), {
                    "waypoint_index": index,
                    "position": list(targets[index][0]),
                }))
                index += 1
            run.route_index = index
            if index < len(targets):
                run.setpoint = targets[index]
            else:
                run.status = "complete"
                done += 1
                run.setpoint = targets[-1] if targets else (x[0:3], heading(0.0))
                events.append(SimEvent(t, MISSION_COMPLETE, (run.id,), {
                    "position": x[0:3],
                }))
        if done:
            flying -= done
            alone = [run for run in alone if run.status == "flying"]
        for block in aimed:
            block.aim()

        if tick == next_record:
            next_record += record_every
            for block in blocks:
                block.records.append((tick, block.x.copy()))
            for run in lone:
                if run.tick == tick:  # skip drones frozen earlier
                    run.buffer += _PACK_SAMPLE(t, *run.x)
                    run.recorded_tick = tick

        if tick == n_ticks or not flying:
            break

        # model updates: each drone, or block of drones, reads and writes
        # only its own state; drones that leave report in drone order
        t_next = (tick + 1) * dt
        dropped: list[tuple[_DroneRun, SimEvent]] = []
        for unit in units:
            if type(unit) is _Block:
                _step_block(unit, env, dt, dropped)
                continue
            if unit.status == "deactivated":
                continue
            # a drone that steps alone, from time unit.tick * dt to t_next
            x, constants = unit.x, unit.constants
            target, yaw_trig = unit.setpoint
            try:
                speeds = command_speeds(constants, unit.gains, gravity, x, target, yaw_trig)
                x = rk4_step(constants, env, speeds, x, dt, t_next)
            except DivergenceError as err:
                _deactivate(unit, DIVERGENCE, t_next, dropped, detail=str(err))
                continue
            unit.x = x
            unit.tick += 1
            if x[2] < 0.0:
                _deactivate(unit, GROUND_CONTACT, t_next, dropped)
            if listed:
                positions[unit.index] = x[0:3]
        if dropped:
            dropped.sort(key=lambda entry: entry[0].index)
            events.extend(event for _, event in dropped)
            units = [u for u in units if type(u) is _DroneRun or u.runs]
            blocks = [u for u in units if type(u) is _Block]
            alone = [run for run in alone if run.status == "flying"]
            flying = sum(run.status == "flying" for run in runs)

        # interaction checks follow every model update for this tick
        if not check:
            continue
        if as_array:
            for unit in units:
                if type(unit) is _Block:
                    positions[:, unit.columns] = unit.x[0:3]
                else:
                    positions[:, unit.index] = unit.x[0:3]
            for run, _ in dropped:  # a drone that left its block this tick
                positions[:, run.index] = run.x[0:3]
        instant = _instant_violations(positions, swarm.min_separation, boxes)
        if instant or active:
            current = {v[0:2] for v in instant}
            events.extend(_violation_event(v, ids, positions, swarm.min_separation, t_next)
                          for v in instant if v[0:2] not in active)
            active = current

    # flush the last state of drones whose final tick fell between records;
    # a drone that left its block keeps its own x and tick
    for block in blocks:
        if block.tick % record_every:
            block.records.append((block.tick, block.x.copy()))
        _cut(block, dt)
    for run in runs:
        if run.recorded_tick < run.tick:
            run.buffer += _PACK_SAMPLE(run.tick * dt, *run.x)

    return Trajectory(samples=RecordedSamples({run.id: _table(run) for run in runs}),
                      events=events)
