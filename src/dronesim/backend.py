"""The branches of the per-drone update, on plain floats or on numpy rows.

The controller, the allocation and the integrator are written once (in
:mod:`control`, :mod:`airframe` and :mod:`dynamics`). Their arithmetic
runs unchanged on one drone's state as 13 plain floats and on a swarm's
states as the rows of a (13, n) float64 block, one column per drone:
``+``, ``-``, ``*``, ``/`` and square roots are correctly rounded on
both, so every column gets the bits its drone would get alone. What
does not carry over, the comparisons and the functions of the ``math``
module, goes through :data:`FLOATS` or :data:`ROWS`: each kernel picks
``ROWS if isinstance(x, ndarray) else FLOATS`` from its input.

:data:`ROWS` reproduces :data:`FLOATS` bit for bit. Every branch is an
``np.where`` on the comparison the float code makes, so NaN and signed
zeros come out as Python's ``max``, ``min`` and ``if`` give them
(``np.maximum`` would propagate a NaN that ``max(0.0, nan)`` drops).
``cos`` and ``sin`` map ``math``'s over the row, so no result depends
on numpy's own trig. Callers on rows silence numpy's floating-point
warnings: a diverging column may overflow or divide by zero.
:class:`DivergenceError`, raised by the integrator's finiteness check,
lives here with that check.
"""

from __future__ import annotations

import math

import numpy as np

# below this demanded acceleration (m/s^2) the controller asks for no tilt
_NO_DIRECTION = 1e-9
# a quaternion whose norm is not above this cannot be renormalized
_COLLAPSED = 1e-12


class DivergenceError(Exception):
    """The integrator produced a non-finite state component.

    From a step of a (13, n) block, ``columns`` maps each failed column
    to its message and ``state`` is the stepped block, whose other
    columns are valid.
    """

    def __init__(self, message: str, t: float, columns: dict[int, str] | None = None,
                 state=None):
        super().__init__(message)
        self.t = t
        self.columns = columns
        self.state = state


def _map(fn):
    def mapped(row):
        return np.fromiter(map(fn, row.tolist()), float, len(row))
    return mapped


class FLOATS:
    """One drone: every value is a Python float.

    ``max(a, b)`` keeps ``a`` unless ``b > a``, and ``min(a, b)`` unless
    ``b < a``; the conditional expressions below spell that out, which
    is what :data:`ROWS` copies and costs less than the builtins.
    """

    sqrt = math.sqrt
    cos = math.cos
    sin = math.sin

    @staticmethod
    def positive(v):
        # max(0.0, v)
        return v if v > 0.0 else 0.0

    @staticmethod
    def clamp(v, limit):
        # max(-limit, min(limit, v))
        low = v if v < limit else limit
        return low if low > -limit else -limit

    @staticmethod
    def direction(ax, ay, norm):
        # (ax, ay) / norm, or zero when the norm is too small to divide by
        if norm < _NO_DIRECTION:
            return 0.0, 0.0
        return ax / norm, ay / norm

    @staticmethod
    def hemisphere(ew, ex, ey, ez):
        # the vector part of the shorter of the two equivalent rotations
        if ew < 0.0:
            return -ex, -ey, -ez
        return ex, ey, ez

    @staticmethod
    def rotor_speeds(s_squared, max_speeds):
        # sqrt(max(s^2, 0)) clamped to the rotor's ceiling; True if any was clamped
        speeds = []
        saturated = False
        for s2, max_speed in zip(s_squared, max_speeds):
            s = 0.0 if s2 < 0.0 else math.sqrt(s2)
            if s > max_speed:
                s = max_speed
                saturated = True
            speeds.append(s)
        return speeds, saturated

    @staticmethod
    def columns(picked, *values):
        # the one drone's values, as one entry per picked drone
        return [values]

    @staticmethod
    def renormalized(new, t):
        # the state with a unit quaternion; raises if it is non-finite or
        # its quaternion collapsed; a sum with an infinity or a NaN in it
        # is never finite, so only a non-finite sum needs the full check
        if not math.isfinite(sum(new)) and not all(map(math.isfinite, new)):
            raise DivergenceError(f"non-finite state at t = {t}", t)
        qw, qx, qy, qz = new[6:10]
        norm = math.sqrt(qw * qw + qx * qx + qy * qy + qz * qz)
        if not (norm > _COLLAPSED and math.isfinite(norm)):
            raise DivergenceError(f"orientation collapsed at t = {t}", t)
        new[6:10] = qw / norm, qx / norm, qy / norm, qz / norm
        return new


class ROWS:
    """Many drones: every value is a float64 row with one entry per drone,
    constants and gains included, where one float may stand in for a row."""

    sqrt = np.sqrt
    cos = _map(math.cos)
    sin = _map(math.sin)

    @staticmethod
    def positive(v):
        return np.where(v > 0.0, v, 0.0)

    @staticmethod
    def clamp(v, limit):
        low = np.where(v < limit, v, limit)
        return np.where(low > -limit, low, -limit)

    @staticmethod
    def direction(ax, ay, norm):
        small = norm < _NO_DIRECTION
        return np.where(small, 0.0, ax / norm), np.where(small, 0.0, ay / norm)

    @staticmethod
    def hemisphere(ew, ex, ey, ez):
        e = np.array((ex, ey, ez))
        return tuple(np.where(ew < 0.0, -e, e))

    @staticmethod
    def rotor_speeds(s_squared, max_speeds):
        # as FLOATS.rotor_speeds per column, with all rotors' rows at once,
        # max_speeds a row or one float per rotor; the clamped columns, in order
        s2 = np.array(s_squared)
        s = np.sqrt(np.where(s2 < 0.0, 0.0, s2))
        max_speeds = np.reshape(max_speeds, (len(s2), -1))
        over = s > max_speeds
        return list(np.where(over, max_speeds, s)), np.flatnonzero(over.any(axis=0)).tolist()

    @staticmethod
    def columns(picked, *values):
        # per picked column, each group of rows as a list of that column's floats
        return [tuple([row[k].item() for row in rows] for rows in values) for k in picked]

    @staticmethod
    def renormalized(new, t):
        # as FLOATS.renormalized per column: the (13, n) block, or a raise
        # that names each failed column and carries the block, in which a
        # failed column holds whatever the arithmetic gave
        new = np.array(new)
        finite = np.isfinite(new).all(axis=0)
        q = new[6:10]
        qw, qx, qy, qz = q
        norm = np.sqrt(qw * qw + qx * qx + qy * qy + qz * qz)
        collapsed = finite & ~((norm > _COLLAPSED) & np.isfinite(norm))
        q /= norm
        if finite.all() and not collapsed.any():
            return new
        failed = dict.fromkeys(np.flatnonzero(~finite).tolist(), f"non-finite state at t = {t}")
        failed.update(dict.fromkeys(np.flatnonzero(collapsed).tolist(),
                                    f"orientation collapsed at t = {t}"))
        raise DivergenceError(next(iter(failed.values())), t, failed, new)
