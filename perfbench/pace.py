"""Paced time: wall time scaled to a fixed pace of the host.

On a shared virtual machine the same code runs up to 1.7 times slower
in spells of a fraction of a second to minutes, with CPU time equal to
wall time: the core itself is slower, not the process descheduled. A
fixed calibration loop slows with it. :class:`Pace` times that loop
every ``PERIOD_S`` seconds from a ``SIGALRM`` handler while the measured
code runs, and once before and after it. Each stretch of wall time
between two calibrations is scaled by ``REFERENCE_S`` over the median
time of the calibrations around it; the calibrations themselves are
left out.
A paced time is the time the code would take on a host that runs the
calibration loop in ``REFERENCE_S``, about the speed of a quiet core of
a 2-vCPU Xeon at 2.1 GHz.

The loop is interpreted float arithmetic and tuple packing, the kind
of work that bounds dronesim's per-tick and routing code, and it needs
no import: the set-up probe paces a fresh interpreter's import with it.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

PERIOD_S = 0.025
REFERENCE_S = 0.00026
_STEPS = 1500
WINDOW = 4


def calibrate() -> float:
    """One pass of the fixed calibration loop, about 0.26 ms on a quiet core."""
    acc = 0.0
    x, y, z = 0.1, 0.2, 0.3
    for _ in range(_STEPS):
        norm = math.sqrt(x * x + y * y + z * z)
        x, y, z = y * 1.0001 + 0.1 / norm, z - x * 1e-3, x + acc * 1e-9
        acc += norm
    return acc


class Pace:
    """Calibrates around and during a timed section; converts its times.

    Use as a context manager around the section, then ask :meth:`paced`
    for any wall interval inside it. The section must run in the main
    thread, where Python runs signal handlers.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, end) of each calibration
        self._previous = None

    def mark(self) -> None:
        start = time.perf_counter()
        calibrate()
        self.samples.append((start, time.perf_counter()))

    def _on_alarm(self, signum, frame) -> None:  # noqa: ARG002 - signal handler signature
        self.mark()

    def __enter__(self) -> "Pace":
        self.samples = []
        self.mark()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.mark()

    def paced(self, start: float, end: float) -> float:
        """Paced seconds of the wall interval [start, end] of the last section.

        The stretch between calibrations k and k + 1 is scaled by the
        median of the 2 * WINDOW calibrations around it, which steadies
        the single 0.26 ms calibrations without blurring the host's
        spells, which last longer than that window.
        """
        durations = [e - s for s, e in self.samples]
        total = 0.0
        for k in range(len(self.samples) - 1):
            low, high = max(start, self.samples[k][1]), min(end, self.samples[k + 1][0])
            if high > low:
                around = durations[max(0, k + 1 - WINDOW):k + 1 + WINDOW]
                total += (high - low) * REFERENCE_S / statistics.median(around)
        return total
