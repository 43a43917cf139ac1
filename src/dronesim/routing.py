"""Waypoint assignment and per-drone visit ordering.

Routes are open paths (start through all assigned waypoints, no return
leg) scored by Euclidean length. The planner is a self-contained
heuristic chosen to be verifiable against exhaustive search at desk
scale:

* assignment: angular sweep around the centroid of the drone start
  positions, contiguous arcs balanced to within one waypoint;
* ordering: one table of pairwise distances per route, built once
  (node 0 the drone start, nodes 1..k the waypoints in id order), on
  which every step below runs. Nearest-neighbor construction from a
  fixed set of ``_STARTS`` starts: one run from the drone start, plus
  runs anchored on the first waypoints in id order (all k of them when
  the route is that short); the lower node wins a distance tie. Each run
  is descended with 2-opt and Or-opt moves restricted to the
  ``_NEIGHBOURS`` nearest nodes of each node and driven by don't-look
  bits (Bentley 1992; Johnson and McGeoch 1997): a node is examined
  again only after a move changed a leg at it. The shortest result wins,
  the lower id sequence breaking length ties, and is finished with the
  full first-improvement scans: a 2-opt pass, then alternating
  relocations of 1-3 waypoint blocks (Or-opt) and 2-opt passes until a
  round changes nothing. A move is taken only if it shortens the route
  by more than 1e-12 m. Every returned route is therefore locally
  optimal: no segment reversal and no relocation of a block of 1-3
  consecutive waypoints shortens it. With the lists a descent examines a
  few candidates per node instead of every leg of the route, and the
  full scans that finish the winner find few moves.
* feasibility: a plan is flagged infeasible (never repaired) when a
  drone's route exceeds its length budget or a leg crosses an obstacle.

All tie-breaks use lexicographic waypoint id order, so the planner is a
pure function of the mission, including list order.

``brute_force_optimize`` enumerates every assignment and permutation
within a small instance guard; it exists as the exact reference the
heuristic is tested against.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .airframe import ConfigurationError
from .frames import FieldError, as_float, as_vec3, first_repeat
from .scenario import Box, segment_hits_box


class InstanceTooLargeError(ValueError):
    """Exhaustive search was asked for an instance outside its guard."""


@dataclass
class Waypoint:
    id: str
    position: np.ndarray
    label: str | None = None

    def __post_init__(self):
        if not self.id:
            raise FieldError("waypoint id must be non-empty", "id")
        self.position = as_vec3(self.position, f"waypoint {self.id!r} position", "position")


@dataclass
class Mission:
    """Waypoints to cover, where each drone starts, and the constraints."""

    waypoints: list[Waypoint]
    start_positions: list[np.ndarray]
    max_route_length: float
    obstacles: list[Box] = field(default_factory=list)

    def __post_init__(self):
        ids = [w.id for w in self.waypoints]
        repeat = first_repeat(ids)
        if repeat is not None:
            dup = sorted({i for i in ids if ids.count(i) > 1})
            raise FieldError(f"waypoint ids must be unique, duplicated: {dup}",
                             f"waypoints[{repeat}].id")
        self.start_positions = [as_vec3(p, "start position", f"start_positions[{i}]")
                                for i, p in enumerate(self.start_positions)]
        # infinite is allowed: no length budget
        self.max_route_length = as_float(self.max_route_length, "max_route_length")
        if not self.max_route_length > 0.0:
            raise FieldError(f"max_route_length must be > 0, got {self.max_route_length}",
                             "max_route_length")


@dataclass
class RoutePlan:
    """Ordered waypoint ids per drone with lengths and feasibility flags."""

    routes: list[list[str]]
    lengths: list[float]
    total_length: float
    feasible: bool
    violations: list[str] = field(default_factory=list)


def route_length(start, ordered: list[Waypoint]) -> float:
    """Length of the open path start -> w1 -> ... -> wn."""
    prev = as_vec3(start, "start")
    total = 0.0
    for w in ordered:
        d = w.position - prev
        total += math.sqrt(d[0] ** 2 + d[1] ** 2 + d[2] ** 2)
        prev = w.position
    return total


def _dist(a, b) -> float:
    return math.sqrt((a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2 + (a[2] - b[2]) ** 2)


def _sweep_partition(mission: Mission) -> list[list[Waypoint]]:
    """Contiguous angular arcs around the start centroid, sizes within one."""
    n = len(mission.start_positions)
    wps = mission.waypoints
    if n == 1:
        return [list(wps)]
    centroid = np.mean(np.array(mission.start_positions), axis=0)
    by_angle = sorted(
        wps, key=lambda w: (math.atan2(w.position[1] - centroid[1],
                                       w.position[0] - centroid[0]), w.id))
    # drones claim arcs in the order of their own bearing from the centroid
    drone_order = sorted(
        range(n), key=lambda i: (math.atan2(mission.start_positions[i][1] - centroid[1],
                                            mission.start_positions[i][0] - centroid[0]), i))
    base, extra = divmod(len(wps), n)
    chunks: list[list[Waypoint]] = []
    cursor = 0
    for j in range(n):
        size = base + (1 if j < extra else 0)
        chunks.append(by_angle[cursor:cursor + size])
        cursor += size
    assigned: list[list[Waypoint]] = [[] for _ in range(n)]
    for j, drone_idx in enumerate(drone_order):
        assigned[drone_idx] = chunks[j]
    return assigned


# Each route is searched from this many starts: the nearest-neighbor run
# from the drone start and runs anchored on the first waypoints in id
# order. Over the 210 pinned missions and the two survey layouts at seed 3
# (2 vCPUs, Python 3.11, 10 neighbours), the total length was 0.25% above
# that of one start per waypoint with 6 starts, 0.15% with 8, 0.14% with
# 10 and 0.10% with 12, and 19, 13, 11 and 10 of the 212 missions planned
# longer. Planning the survey missions at three seeds cost 22, 26, 28 and
# 29 ms (medians of 7 interleaved runs). Each start more costs time and
# saves length, so the middle of the measured range is taken.
_STARTS = 10

# Neighbour-list moves join a node to one of its this many nearest nodes.
# With 10 starts, 8 neighbours left the total length 0.16% above that of
# one start per waypoint and 10 neighbours 0.14%, at equal cost on the
# survey missions. On 1000 uniform waypoints (three seeds) the final full
# scans found 3-15 moves after 8 neighbours and 3-7 after 10, each move
# costing up to one scan of the route (0.5 s).
_NEIGHBOURS = 10


def _distance_table(points) -> list[list[float]]:
    """``_dist`` between every pair of ``points``, as plain floats.

    The points are read as plain floats first, where ``_dist`` runs about
    twice as fast as on numpy vectors, with equal results. ``_dist`` is
    symmetric bit for bit, so one triangle fills the table.
    """
    points = [[float(x) for x in p] for p in points]
    table = [[0.0] * len(points) for _ in points]
    for a in range(len(points)):
        for b in range(a + 1, len(points)):
            table[a][b] = table[b][a] = _dist(points[a], points[b])
    return table


def _neighbour_lists(table: list[list[float]], count: int) -> list[list[int]]:
    """The ``count`` nearest other nodes of each node, nearest first."""
    nodes = range(len(table))
    lists = []
    for a, row in enumerate(table):
        # sorted is stable over ascending nodes, so the lower node wins a tie
        nearest = sorted(nodes, key=row.__getitem__)[:count + 1]
        lists.append([b for b in nearest if b != a][:count])
    return lists


def _nearest_neighbor(table: list[list[float]], first: int | None = None) -> list[int]:
    """Greedy construction from node 0, optionally anchored on a forced first visit."""
    remaining = list(range(1, len(table)))
    route: list[int] = []
    current = 0
    if first is not None:
        remaining.remove(first)
        route.append(first)
        current = first
    while remaining:
        # remaining stays ascending, so min keeps the lowest node on ties
        best = min(remaining, key=table[current].__getitem__)
        remaining.remove(best)
        route.append(best)
        current = best
    return route


def _two_opt(table: list[list[float]], route: list[int]) -> list[int]:
    """Reverse-segment descent on an open path until no move improves it."""
    route = list(route)
    k = len(route)
    if k < 2:
        return route
    improved = True
    while improved:
        improved = False
        for i in range(k - 1):
            # reversing route[i..j] only swaps the two boundary legs: the leg
            # into route[i] and the leg out of route[j]
            from_prev = table[0 if i == 0 else route[i - 1]]
            row, leg = table[route[i]], from_prev[route[i]]
            node = route[i + 1]
            for j in range(i + 1, k - 1):
                after = route[j + 1]
                if from_prev[node] + row[after] < leg + table[node][after] - 1e-12:
                    route[i:j + 1] = reversed(route[i:j + 1])
                    improved = True
                    row, leg = table[route[i]], from_prev[route[i]]
                node = after
            # the path does not close, so the last node has no leg out
            if from_prev[route[-1]] < leg - 1e-12:
                route[i:] = reversed(route[i:])
                improved = True
    return route


def _first_relocation(table: list[list[float]], route: list[int]) -> tuple | None:
    """The first Or-opt move in scan order that shortens the route, or None.

    Blocks of 1, 2 then 3 waypoints, left to right. Each block is tried
    on every leg of the path before it, then on every leg after it, then
    at the end. Returns ``(i, size, node)``: move ``route[i:i + size]``
    to follow ``node`` (0 for the start).
    """
    k = len(route)
    # the legs of the path 0 -> route[0] -> ... as (from, to, length)
    edges = [(a, b, table[a][b]) for a, b in zip([0] + route, route)]
    for size in (1, 2, 3):
        if size >= k:
            break
        for i in range(k - size + 1):
            # the table is symmetric: one row holds the legs to and from a node
            head, tail = table[route[i]], table[route[i + size - 1]]
            prev = 0 if i == 0 else route[i - 1]
            gain = head[prev]
            if i + size < k:
                after = route[i + size]
                gain += tail[after] - table[prev][after]
            limit = gain - 1e-12
            for a, b, leg in edges[:i] + edges[i + size + 1:]:
                if head[a] + (tail[b] - leg) < limit:
                    return i, size, a
            if i + size < k and head[route[-1]] < limit:
                return i, size, route[-1]
    return None


def _or_opt(table: list[list[float]], route: list[int]) -> list[int]:
    """Relocate blocks of 1-3 consecutive waypoints while that shortens."""
    route = list(route)
    while (move := _first_relocation(table, route)) is not None:
        i, size, node = move
        block = route[i:i + size]
        rest = route[:i] + route[i + size:]
        at = rest.index(node) + 1 if node else 0
        route = rest[:at] + block + rest[at:]
    return route


def _neighbour_descent(table: list[list[float]], near: list[list[int]],
                       route: list[int]) -> list[int]:
    """2-opt and Or-opt moves that join a node to one of its listed neighbours.

    Nodes wait in a queue, at first in path order. A node takes the first
    move it finds that shortens the path by more than 1e-12 m, and the
    nodes at every leg that move changed join the queue again; a node
    that finds none leaves the queue (its don't-look bit is set). A
    2-opt move replaces a leg at the node with a shorter one to one of
    its neighbours. An Or-opt move takes the block of 1-3 nodes that the
    node heads and puts it, in the same direction, next to a neighbour
    of its first or last node that is nearer than the block's removal
    saves.
    """
    path = [0] + route
    last = len(route)
    pos = [0] * len(path)
    for p, node in enumerate(path):
        pos[node] = p

    def reverse(lo: int, hi: int) -> None:
        path[lo:hi + 1] = reversed(path[lo:hi + 1])
        for p in range(lo, hi + 1):
            pos[path[p]] = p

    def two_opt(a: int) -> tuple | None:
        pa, row = pos[a], table[a]
        if pa < last:
            # drop a -> s and c -> sc, then join a - c and s - sc
            s = path[pa + 1]
            leg = row[s]
            for c in near[a]:
                if row[c] >= leg:
                    break
                pc = pos[c]
                sc = path[pc + 1] if pc < last else None
                gain = leg - row[c]
                if sc is not None:
                    gain += table[c][sc] - table[s][sc]
                if gain > 1e-12:
                    reverse(min(pa, pc) + 1, max(pa, pc))
                    return a, s, c, sc
        if pa > 0:
            # drop p -> a and q -> c, then join a - c and p - q
            p = path[pa - 1]
            leg = row[p]
            for c in near[a]:
                if row[c] >= leg:
                    break
                pc = pos[c]
                if pc == 0:
                    continue
                q = path[pc - 1]
                if leg - row[c] + table[q][c] - table[p][q] > 1e-12:
                    reverse(min(pa, pc), max(pa, pc) - 1)
                    return a, p, c, q
        return None

    def or_opt(a: int) -> tuple | None:
        pa = pos[a]
        if pa == 0:
            return None
        p, head = path[pa - 1], table[a]
        for pe in range(pa, min(pa + 3, last + 1)):
            # the block is path[pa..pe], from a to e, between p and n
            e, tail = path[pe], table[path[pe]]
            n = path[pe + 1] if pe < last else None
            gain = head[p]
            if n is not None:
                gain += tail[n] - table[p][n]
            limit = gain - 1e-12
            at = None
            for c in near[a]:  # after c, joining c - a
                if head[c] >= limit:
                    break
                pc = pos[c]
                if not pa - 1 <= pc <= pe:
                    sc = path[pc + 1] if pc < last else None
                    if sc is None or head[c] + tail[sc] - table[c][sc] < limit:
                        at = pc + 1
                        break
            if at is None:
                for c in near[e]:  # before c, joining e - c
                    if tail[c] >= limit:
                        break
                    pc = pos[c]
                    if pc and not pa <= pc <= pe + 1:
                        q = path[pc - 1]
                        if head[q] + tail[c] - table[q][c] < limit:
                            at = pc
                            break
            if at is not None:
                block = path[pa:pe + 1]
                del path[pa:pe + 1]
                if at > pa:
                    at -= len(block)
                path[at:at] = block
                end = at + len(block)
                for i in range(min(pa, at), max(pe, end - 1) + 1):
                    pos[path[i]] = i
                return a, e, p, n, path[at - 1], path[end] if end <= last else None
        return None

    queue = deque(path)
    waiting = [True] * len(path)
    while queue:
        a = queue.popleft()
        waiting[a] = False
        for node in two_opt(a) or or_opt(a) or ():
            if node is not None and not waiting[node]:
                waiting[node] = True
                queue.append(node)
    return path[1:]


def _descend(table: list[list[float]], route: list[int]) -> list[int]:
    """Full first-improvement scans: a 2-opt pass, then alternating Or-opt
    and 2-opt until a round moves nothing."""
    route = _two_opt(table, route)
    while True:
        # route is a _two_opt output, which _two_opt leaves unchanged
        relocated = _or_opt(table, route)
        if relocated == route:
            return route
        relocated = _two_opt(table, relocated)
        if relocated == route:  # a round that ends where it began
            return route
        route = relocated


def _order_route(start, wps: list[Waypoint]) -> list[Waypoint]:
    """The shortest neighbour-list descent over the fixed starts, ids
    breaking length ties, finished with the full scans.

    The search runs on node numbers into one distance table: node 0 is
    the start and nodes 1..k are the waypoints in id order, so comparing
    node sequences compares id sequences.
    """
    if len(wps) < 2:
        return list(wps)
    by_id = sorted(wps, key=lambda w: w.id)
    table = _distance_table([start] + [w.position for w in by_id])
    near = _neighbour_lists(table, _NEIGHBOURS)
    unanchored = _nearest_neighbor(table)
    # anchoring on the unanchored route's first node builds that same route
    anchors = [node for node in range(1, len(table)) if node != unanchored[0]]
    best_key: tuple | None = None
    for first in [None, *anchors[:_STARTS - 1]]:
        nearest = unanchored if first is None else _nearest_neighbor(table, first)
        route = _neighbour_descent(table, near, nearest)
        # summed leg by leg from 0.0, as route_length does: the same float
        length = 0.0
        for a, b in zip([0] + route, route):
            length += table[a][b]
        if best_key is None or (length, route) < best_key:
            best_key = (length, route)
    assert best_key is not None
    return [by_id[node - 1] for node in _descend(table, best_key[1])]


def _leg_violations(mission: Mission, drone_idx: int, route: list[Waypoint]) -> list[str]:
    found = []
    prev = mission.start_positions[drone_idx]
    prev_name = "start"
    for w in route:
        for b, box in enumerate(mission.obstacles):
            if segment_hits_box(box, prev, w.position):
                found.append(
                    f"drone {drone_idx}: leg {prev_name} -> {w.id} crosses obstacle {b}")
                break
        prev = w.position
        prev_name = w.id
    return found


def _finish_plan(mission: Mission, routes: list[list[Waypoint]]) -> RoutePlan:
    lengths = [route_length(mission.start_positions[i], r) for i, r in enumerate(routes)]
    violations: list[str] = []
    for i, (r, length) in enumerate(zip(routes, lengths)):
        if length > mission.max_route_length:
            violations.append(
                f"drone {i}: route length {length:.3f} m exceeds budget "
                f"{mission.max_route_length:.3f} m")
        violations.extend(_leg_violations(mission, i, r))
    return RoutePlan(
        routes=[[w.id for w in r] for r in routes],
        lengths=lengths,
        total_length=float(sum(lengths)),
        feasible=not violations,
        violations=violations,
    )


def optimize(mission: Mission) -> RoutePlan:
    """Sweep-partition the waypoints, then locally optimize each route.

    Each route is searched from a fixed number of nearest-neighbor starts
    with neighbour-list descents, and the best is finished with full
    2-opt and Or-opt scans. Deterministic given the mission, whatever the
    order of its lists (ties follow waypoint ids); every route in the
    result is 2-opt and Or-opt locally optimal. Raises ConfigurationError
    for a mission with no drones; an empty waypoint set yields a trivial
    feasible plan.
    """
    n = len(mission.start_positions)
    if n == 0:
        raise ConfigurationError("mission has no drones")
    if not mission.waypoints:
        return RoutePlan(routes=[[] for _ in range(n)], lengths=[0.0] * n,
                         total_length=0.0, feasible=True, violations=[])
    assigned = _sweep_partition(mission)
    routes = [_order_route(mission.start_positions[i], assigned[i]) for i in range(n)]
    return _finish_plan(mission, routes)


# guard bounds for the exhaustive reference solver
_BRUTE_FORCE_LIMITS = {1: 9, 2: 6}


def brute_force_optimize(mission: Mission) -> RoutePlan:
    """Exact minimum-total-length plan by enumerating assignments and orders.

    Guarded to at most 9 waypoints for one drone and 6 for two; larger
    instances raise InstanceTooLargeError. Among feasible plans the
    global optimum is returned; if no plan is feasible, the shortest
    plan is returned flagged infeasible.
    """
    n = len(mission.start_positions)
    if n == 0:
        raise ConfigurationError("mission has no drones")
    wps = sorted(mission.waypoints, key=lambda w: w.id)
    count = len(wps)
    if count == 0:
        return RoutePlan(routes=[[] for _ in range(n)], lengths=[0.0] * n,
                         total_length=0.0, feasible=True, violations=[])
    limit = _BRUTE_FORCE_LIMITS.get(n)
    if limit is None or count > limit:
        raise InstanceTooLargeError(
            f"exhaustive search supports up to "
            f"{', '.join(f'{v} waypoints for {k} drone(s)' for k, v in _BRUTE_FORCE_LIMITS.items())}; "
            f"got {count} waypoints for {n} drone(s)")

    # nodes 0..n-1 are the drone starts, n..n+count-1 the waypoints in id order
    points = list(mission.start_positions) + [w.position for w in wps]
    dist = _distance_table(points)
    obstacles = mission.obstacles
    if obstacles:
        blocked = [[any(segment_hits_box(box, a, b) for box in obstacles) for b in points]
                   for a in points]

    def splits(total: int):
        # all ways to cut a permutation into n consecutive (possibly
        # empty) segments, one per drone
        if n == 1:
            yield (total,)
        else:
            for cut in range(total + 1):
                yield (cut, total - cut)

    best_key: tuple | None = None
    best_pick: tuple | None = None
    for perm in itertools.permutations(range(n, n + count)):
        for sizes in splits(count):
            total = 0.0
            feasible = True
            cursor = 0
            for drone_idx, size in enumerate(sizes):
                if size == 0:
                    continue
                first = perm[cursor]
                length = dist[drone_idx][first]
                if obstacles and blocked[drone_idx][first]:
                    feasible = False
                for k in range(cursor, cursor + size - 1):
                    length += dist[perm[k]][perm[k + 1]]
                    if obstacles and blocked[perm[k]][perm[k + 1]]:
                        feasible = False
                cursor += size
                if length > mission.max_route_length:
                    feasible = False
                total += length
            # prefer feasible plans, then total length; strict < keeps the
            # first plan in enumeration order on ties
            key = (0 if feasible else 1, total)
            if best_key is None or key < best_key:
                best_key = key
                best_pick = (perm, sizes)
    assert best_pick is not None
    perm, sizes = best_pick
    best_routes = []
    cursor = 0
    for size in sizes:
        best_routes.append([wps[perm[k] - n] for k in range(cursor, cursor + size)])
        cursor += size
    return _finish_plan(mission, best_routes)
