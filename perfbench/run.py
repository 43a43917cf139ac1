"""dronesim benchmark: run one workload and print its metrics as JSON.

Usage (from the repository root):

    python3 perfbench/run.py --workload bundled_cli --seed 1 --seconds 35 --trace 0

The package is imported from ``src/`` next to this directory. The run
generates the workload's inputs from ``--seed``, then repeats whole
rounds of its operations for about ``--seconds``, checking every
operation's outputs. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics, measured with only the
pipeline calls wrapped and timed in paced seconds (``pace.py``): wall
time scaled by a calibration loop timed every 25 ms during each
operation, so that the host's slow spells drop out. ``--trace 1``
alternates untraced rounds with rounds in which every per-tick layer is
wrapped too, reports the per-layer metrics of the traced rounds in wall
seconds, and writes the spans of the last traced round to
``.perfbench/<workload>/spans.csv``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import pace
from spans import LAYERS, PIPELINE, Recorder, busy_and_self, count
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_EVERY_S = 3.0

# per-layer metric -> (unit, boundaries it needs, value from one operation)
LAYER_METRICS = {
    "scenario_io.load_s": ("s", ["scenario_io.load_scenario"],
                           lambda op: op["busy"].get("scenario_io.load_scenario", 0.0)),
    "scenario_io.documents": ("count", ["scenario_io.load_scenario"],
                              lambda op: count(op["spans"], "scenario_io.load_scenario")),
    "routing.optimize_s": ("s", ["routing.optimize"],
                           lambda op: op["busy"].get("routing.optimize", 0.0)),
    "routing.waypoints": ("count", ["routing.optimize"],
                          lambda op: sum(len(a[0].waypoints) for a, _, _ in
                                         op["calls"].get("routing.optimize", []))),
    "routing.plan_length_m": ("m", ["routing.optimize"],
                              lambda op: sum((r.total_length for _, _, r in
                                              op["calls"].get("routing.optimize", [])), 0.0)),
    "swarm.simulate_s": ("s", ["swarm.simulate"],
                         lambda op: op["busy"].get("swarm.simulate", 0.0)),
    "swarm.self_s": ("s", ["swarm.simulate", "scenario.sample_environment",
                           "control.compute_commands", "control.waypoint_reached",
                           "airframe.set_rotor_speeds", "dynamics.step", "swarm.interactions"],
                     lambda op: op["self"].get("swarm.simulate", 0.0)),
    "swarm.interactions_s": ("s", ["swarm.interactions"],
                             lambda op: op["busy"].get("swarm.interactions", 0.0)),
    "swarm.ticks": ("count", ["swarm.simulate"], lambda op: op["ticks"]),
    "swarm.drone_ticks": ("count", ["swarm.simulate"], lambda op: op["drone_ticks"]),
    "swarm.instant_violations": ("count", ["swarm.interactions"],
                                 lambda op: sum(len(r) for _, _, r in
                                                op["calls"].get("swarm.interactions", []))),
    "swarm.events": ("count", ["swarm.simulate"],
                     lambda op: sum(len(t.events) for t in op["trajectories"])),
    "swarm.off_tick_times": ("count", ["swarm.simulate"], lambda op: op["off_tick"]),
    "scenario.sample_environment_s": ("s", ["scenario.sample_environment"],
                                      lambda op: op["busy"].get("scenario.sample_environment", 0.0)),
    "control.compute_commands_s": ("s", ["control.compute_commands", "airframe.allocate"],
                                   lambda op: op["self"].get("control.compute_commands", 0.0)),
    "control.waypoint_reached_s": ("s", ["control.waypoint_reached"],
                                   lambda op: op["busy"].get("control.waypoint_reached", 0.0)),
    "control.calls": ("count", ["control.compute_commands"],
                      lambda op: count(op["spans"], "control.compute_commands")),
    "airframe.allocate_s": ("s", ["airframe.allocate"],
                            lambda op: op["busy"].get("airframe.allocate", 0.0)),
    "airframe.allocations": ("count", ["airframe.allocate"],
                             lambda op: count(op["spans"], "airframe.allocate")),
    "airframe.saturated_allocations": ("count", ["airframe.allocate"],
                                       lambda op: _saturated(op["calls"])),
    "airframe.set_rotor_speeds_s": ("s", ["airframe.set_rotor_speeds"],
                                    lambda op: op["busy"].get("airframe.set_rotor_speeds", 0.0)),
    "dynamics.step_s": ("s", ["dynamics.step"],
                        lambda op: op["busy"].get("dynamics.step", 0.0)),
    "dynamics.steps": ("count", ["dynamics.step"],
                       lambda op: count(op["spans"], "dynamics.step")),
    "frames.geo_project_s": ("s", ["frames.geo_project"],
                             lambda op: op["busy"].get("frames.geo_project", 0.0)),
    "export.geojson_s": ("s", ["export.export_geojson"],
                         lambda op: op["busy"].get("export.export_geojson", 0.0)),
    "export.csv_s": ("s", ["export.export_csv"],
                     lambda op: op["busy"].get("export.export_csv", 0.0)),
    "export.load_csv_s": ("s", ["export.load_csv"],
                          lambda op: op["busy"].get("export.load_csv", 0.0)),
    "export.bytes": ("B", ["export.export_geojson", "export.export_csv"],
                     lambda op: op["bytes"]),
    "export.samples": ("count", ["export.export_geojson", "export.export_csv"],
                       lambda op: op["exported"]),
    "metrics.compute_rmse_s": ("s", ["metrics.compute_rmse"],
                               lambda op: op["busy"].get("metrics.compute_rmse", 0.0)),
    "metrics.samples_scored": ("count", ["metrics.compute_rmse"],
                               lambda op: sum(len(a[0].samples[d]) for a, _, r in
                                              op["calls"].get("metrics.compute_rmse", [])
                                              for d in r.rmse_m)),
    "cli.main_s": ("s", ["cli.main"], lambda op: op["busy"].get("cli.main", 0.0)),
}


def _saturated(calls: dict) -> int:
    saturated = 0
    for (airframe, *_), _, speeds in calls.get("airframe.allocate", []):
        limits = np.array([r.max_speed for r in airframe.rotors])
        saturated += bool(np.any(np.asarray(speeds) >= limits))
    return saturated


def summarize(spans: list, calls: dict) -> dict:
    """Everything one operation's metrics are made from."""
    busy, self_time = busy_and_self(spans)
    simulated = calls.get("swarm.simulate", [])
    trajectories = [r for _, _, r in simulated]
    steps = [[round(states[-1].t / a[1].reference_time_step)
              for states in r.samples.values() if states] for a, _, r in simulated]
    geojson = calls.get("export.export_geojson", [])
    csvs = calls.get("export.export_csv", [])
    return {
        "spans": spans, "calls": calls, "busy": busy, "self": self_time,
        "trajectories": trajectories,
        "ticks": sum(max(s) for s in steps),
        "drone_ticks": sum(sum(s) for s in steps),
        "off_tick": sum(checks.off_tick_times(r, a[1].reference_time_step)
                        for a, _, r in simulated),
        "bytes": (sum(os.path.getsize(a[2]) for a, _, _ in geojson)
                  + sum(os.path.getsize(a[1]) for a, _, _ in csvs)),
        "exported": sum(len(s) for a, _, _ in geojson + csvs for s in a[0].samples.values()),
    }


def run_round(workload, recorder: Recorder, digests: dict, traced: bool, log,
              pacer: pace.Pace | None = None) -> dict:
    """Run every operation once; returns the round's walls, failures and layers.

    With a ``pacer`` each operation is paced, and ``wall`` and
    ``simulate`` are paced seconds; without one they are wall seconds.
    """
    result = {"wall": 0.0, "raw_wall": 0.0, "simulate": 0.0, "drone_ticks": 0,
              "failed": 0, "layers": {}, "spans": [], "ops": {}}
    for op in workload.operations:
        gc.collect()
        with pacer or contextlib.nullcontext():
            start = time.perf_counter()
            try:
                ctx = op.run()
                error = None
            except Exception as err:  # noqa: BLE001 - a raising operation counts as failed
                ctx, error = None, f"raised {type(err).__name__}: {err}"
            end = time.perf_counter()
        spans, calls = recorder.take()
        elapsed = pacer.paced if pacer else (lambda a, b: b - a)
        result["ops"][op.name] = elapsed(start, end)
        result["raw_wall"] += end - start
        result["wall"] += result["ops"][op.name]
        failures = [error] if error else []
        if not failures:
            try:
                failures = op.check(ctx, calls)
                trajectory = calls["swarm.simulate"][0][2]
                digest = checks.digest(trajectory)
                if digests.setdefault(op.name, digest) != digest:
                    failures.append(f"digest {digest} differs from the first round's "
                                    f"{digests[op.name]}")
                summary = summarize(spans, calls)
            except Exception as err:  # noqa: BLE001 - a check that cannot run fails the operation
                failures.append(f"check raised {type(err).__name__}: {err}")
        for failure in failures:
            log(f"FAIL {workload.name}/{op.name}: {failure}")
        if failures:
            result["failed"] += 1
            continue
        result["simulate"] += sum(elapsed(a, b) for name, a, b, _ in spans
                                  if name == "swarm.simulate")
        result["drone_ticks"] += summary["drone_ticks"]
        if traced:
            for metric, (_, _, value) in LAYER_METRICS.items():
                result["layers"][metric] = result["layers"].get(metric, 0) + value(summary)
            result["spans"].append((op.name, spans))
    return result


def probe_setup(documents) -> float:
    """Paced set-up seconds in a fresh interpreter: import plus loading the documents."""
    completed = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(ROOT / "src"),
         *map(str, documents)],
        capture_output=True, text=True, timeout=120, cwd=ROOT, check=False)
    if completed.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {completed.stderr.strip()}")
    timing = json.loads(completed.stdout.strip().splitlines()[-1])
    return timing["import_s"] + timing["load_s"]


def _write_spans(path: Path, operations: list) -> None:
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["operation", "name", "start_s", "end_s", "parent"])
        for op_name, spans in operations:
            for name, start, end, parent in spans:
                writer.writerow([op_name, name, repr(start), repr(end), parent])


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    def log(message: str) -> None:
        print(message, file=sys.stderr, flush=True)

    package = ROOT / "src" / "dronesim"
    if not (package / "__init__.py").is_file():
        log(f"perfbench: no dronesim package at {package}")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import dronesim
    import dronesim.cli  # noqa: F401 - the CLI workload calls dronesim.cli.main
    if Path(dronesim.__file__).resolve().parent != package.resolve():
        log(f"perfbench: imported dronesim from {dronesim.__file__}, not {package}")
        return 2

    work = ROOT / ".perfbench" / args.workload
    work.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, work, dronesim)
    setup: list[float] = []

    recorder = Recorder()
    recorder.install(PIPELINE)
    # end-to-end times are paced; the traced run keeps wall times, so that
    # its traced and untraced rounds compare like with like
    pacer = None if args.trace else pace.Pace()
    digests: dict[str, str] = {}
    rounds, durations = [], []
    min_rounds = 2 if args.trace else 1
    start = time.perf_counter()
    last_setup = -SETUP_EVERY_S
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        began = time.perf_counter()
        if not args.trace and began - last_setup >= SETUP_EVERY_S:
            # spread the set-ups over the run, as the rounds are, so that
            # both see the same mix of fast and slow spells of the host
            setup.append(probe_setup(workload.documents))
            last_setup = began
        patches = recorder.install(LAYERS) if traced else []
        try:
            outcome = run_round(workload, recorder, digests, traced, log, pacer)
        finally:
            recorder.uninstall(patches)
        outcome["traced"] = traced
        log(f"round {len(rounds)} traced={int(traced)} wall={outcome['wall']:.4f} "
            f"raw_wall={outcome['raw_wall']:.4f} "
            f"simulate={outcome['simulate']:.4f} " + " ".join(
                f"{k}={v:.4f}" for k, v in outcome["ops"].items()))
        # keep the spans of the last traced round only: a round of
        # bundled_cli leaves about 175k of them
        if traced:
            last_spans = outcome["spans"]
        del outcome["spans"]
        rounds.append(outcome)
        durations.append(time.perf_counter() - began)
        elapsed = time.perf_counter() - start
        if len(rounds) >= min_rounds and elapsed + statistics.median(durations) > args.seconds:
            break
    recorder.uninstall()

    for name, value in digests.items():
        print(f"digest {workload.name}/{name} sha256={value}")
    attempted = len(rounds) * len(workload.operations)
    failed = sum(r["failed"] for r in rounds)
    plain = [r for r in rounds if not r["traced"]]
    if args.trace:
        traced_rounds = [r for r in rounds if r["traced"]]
        metrics = {}
        for metric, (unit, needs, _) in LAYER_METRICS.items():
            gone = [recorder.missing[n] for n in needs if n in recorder.missing]
            values = [r["layers"][metric] for r in traced_rounds if metric in r["layers"]]
            if gone or not values:
                metrics[metric] = dict(_metric(None, unit),
                                       missing="; ".join(gone) or "no passing traced round")
            else:
                # median_low: counts stay whole numbers
                metrics[metric] = _metric(statistics.median_low(values), unit)
        metrics["trace.overhead_s"] = _metric(
            statistics.mean(r["wall"] for r in traced_rounds)
            - statistics.mean(r["wall"] for r in plain), "s")
        _write_spans(work / "spans.csv", last_spans)
    else:
        passed = [r for r in plain if r["drone_ticks"]]
        metrics = {
            "wall_s": _metric(statistics.median(r["wall"] for r in plain), "s"),
            "setup_s": _metric(statistics.median(setup), "s"),
            "drone_tick_us": _metric(
                statistics.median(1e6 * r["simulate"] / r["drone_ticks"] for r in passed)
                if passed else None, "us"),
            "peak_rss_mib": _metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        }
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
