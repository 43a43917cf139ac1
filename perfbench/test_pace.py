"""Paced time scales wall time by the calibrations around it.

Run: python -m pytest -q perfbench
"""

import signal
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import pace  # noqa: E402


def _pace_with(durations: list[float], gap: float) -> pace.Pace:
    """A Pace whose calibrations took ``durations``, ``gap`` seconds apart."""
    p = pace.Pace()
    t = 0.0
    for d in durations:
        p.samples.append((t, t + d))
        t += d + gap
    return p


def test_reference_pace_leaves_time_unscaled_and_drops_calibrations():
    p = _pace_with([pace.REFERENCE_S] * 5, gap=0.1)
    start, end = p.samples[0][0], p.samples[-1][1]
    assert p.paced(start, end) == pytest.approx(0.4)


def test_slow_calibrations_halve_the_time():
    p = _pace_with([2 * pace.REFERENCE_S] * 12, gap=0.05)
    assert p.paced(0.0, 10.0) == pytest.approx(11 * 0.05 / 2)


def test_a_single_slow_calibration_is_outvoted_by_its_neighbours():
    durations = [pace.REFERENCE_S] * 9
    durations[4] = 10 * pace.REFERENCE_S
    p = _pace_with(durations, gap=0.05)
    assert p.paced(0.0, 10.0) == pytest.approx(8 * 0.05)


def test_partial_interval_counts_only_its_share():
    p = _pace_with([pace.REFERENCE_S] * 3, gap=1.0)
    e0 = p.samples[0][1]
    assert p.paced(e0 + 0.25, e0 + 0.75) == pytest.approx(0.5)


def test_section_calibrates_while_it_runs_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with pace.Pace() as p:
        start = time.perf_counter()
        while time.perf_counter() - start < 6 * pace.PERIOD_S:
            pass
        end = time.perf_counter()
    assert len(p.samples) >= 4
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    calibrating = sum(e - s for s, e in p.samples if start < s < end)
    assert 0.0 < p.paced(start, end)
    assert calibrating < end - start
