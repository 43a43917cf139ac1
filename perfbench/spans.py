"""Spans around calls into dronesim's modules, recorded from outside.

A :class:`Recorder` replaces a function with a timing wrapper in every
dronesim module namespace where callers look it up (for example
``dronesim.swarm.compute_commands`` and ``dronesim.control.allocate``),
so no code under ``src/`` changes. Each call leaves a span
``[name, start, end, parent]`` in memory; ``parent`` is the index of the
enclosing span, or -1. Boundaries marked ``keep`` also keep each call's
arguments and result, which the benchmark's counts and checks read.

A boundary whose function no longer exists is reported as missing
instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class Boundary:
    name: str          # span name, "<module>.<function>"
    module: str        # defining module, e.g. "dronesim.swarm"
    function: str      # attribute name in that module
    keep: bool = False  # keep (args, kwargs, result) of each call


# The pipeline: a handful of calls per operation, wrapped in every run.
PIPELINE = (
    Boundary("cli.main", "dronesim.cli", "main"),
    Boundary("scenario_io.load_scenario", "dronesim.scenario_io", "load_scenario", keep=True),
    Boundary("routing.optimize", "dronesim.routing", "optimize", keep=True),
    Boundary("swarm.simulate", "dronesim.swarm", "simulate", keep=True),
    Boundary("export.export_geojson", "dronesim.export", "export_geojson", keep=True),
    Boundary("export.export_csv", "dronesim.export", "export_csv", keep=True),
    Boundary("export.load_csv", "dronesim.export", "load_csv", keep=True),
    Boundary("metrics.compute_rmse", "dronesim.metrics", "compute_rmse", keep=True),
)

# The per-tick and per-sample layers, wrapped only in traced rounds.
LAYERS = (
    Boundary("scenario.sample_environment", "dronesim.scenario", "sample_environment"),
    Boundary("control.compute_commands", "dronesim.control", "compute_commands"),
    Boundary("control.waypoint_reached", "dronesim.control", "waypoint_reached"),
    Boundary("airframe.allocate", "dronesim.airframe", "allocate", keep=True),
    Boundary("airframe.set_rotor_speeds", "dronesim.airframe", "set_rotor_speeds"),
    Boundary("dynamics.step", "dronesim.dynamics", "step"),
    # private: the per-tick interaction check has no public entry point
    Boundary("swarm.interactions", "dronesim.swarm", "_instant_violations", keep=True),
    Boundary("frames.geo_project", "dronesim.frames", "geo_project"),
)


class Recorder:
    """Installs timing wrappers and collects their spans and kept calls."""

    def __init__(self):
        self.spans: list[list] = []
        self.calls: dict[str, list[tuple]] = {}
        self.missing: dict[str, str] = {}
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def install(self, boundaries) -> list[tuple]:
        """Wrap each boundary everywhere it is looked up; returns the patches."""
        patches = []
        for b in boundaries:
            try:
                original = getattr(importlib.import_module(b.module), b.function)
            except (ImportError, AttributeError) as err:
                self.missing[b.name] = f"{b.module}.{b.function} not found ({err})"
                continue
            wrapper = self._wrap(b, original)
            for module_name, module in list(sys.modules.items()):
                if module is None or not (module_name == "dronesim"
                                          or module_name.startswith("dronesim.")):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        patches.append((module, attr, original))
        self._patches.extend(patches)
        return patches

    def uninstall(self, patches=None) -> None:
        """Restore the originals of the given patches (default: all)."""
        patches = list(self._patches) if patches is None else patches
        for module, attr, original in reversed(patches):
            setattr(module, attr, original)
            self._patches.remove((module, attr, original))

    def take(self) -> tuple[list[list], dict[str, list[tuple]]]:
        """Spans and kept calls since the last take; the recorder starts empty."""
        taken = self.spans, self.calls
        self.spans, self.calls = [], {}
        return taken

    def _wrap(self, boundary: Boundary, fn):
        name, keep = boundary.name, boundary.keep
        clock = time.perf_counter
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack = recorder.spans, recorder._stack
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if keep:
                recorder.calls.setdefault(name, []).append((args, kwargs, result))
            return result

        return traced


def busy_and_self(spans: list[list]) -> tuple[dict[str, float], dict[str, float]]:
    """Busy time per span name, and self time: busy minus direct children."""
    busy: dict[str, float] = {}
    children: dict[str, float] = {}
    for name, start, end, parent in spans:
        busy[name] = busy.get(name, 0.0) + (end - start)
        if parent >= 0:
            parent_name = spans[parent][0]
            children[parent_name] = children.get(parent_name, 0.0) + (end - start)
    return busy, {n: t - children.get(n, 0.0) for n, t in busy.items()}


def count(spans: list[list], name: str) -> int:
    return sum(1 for s in spans if s[0] == name)
