"""Command-line front end.

Subcommands:

* ``validate``   — load a scenario file and report the first problem, if any
* ``plan-route`` — run the waypoint planner, optionally with the
  exhaustive reference solver for comparison, and write the plan as JSON
* ``simulate``   — plan (when a mission is present), fly the swarm, and
  export GeoJSON or CSV plus an optional metrics report

Exit codes: 0 success, 1 invalid input (bad arguments or scenario
files), 2 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .control import Setpoint
from .export import export_csv, export_geojson
from .metrics import compute_rmse
from .routing import InstanceTooLargeError, Mission, RoutePlan, brute_force_optimize, optimize
from .scenario_io import ScenarioError, load_scenario
from .swarm import Swarm, simulate

EXIT_OK = 0
EXIT_INVALID_INPUT = 1
EXIT_RUNTIME_FAILURE = 2


def routes_from_plan(swarm: Swarm, mission: Mission, plan: RoutePlan) -> None:
    """Attach the planned waypoint sequences to the drones as setpoints."""
    by_id = {w.id: w for w in mission.waypoints}
    for drone, waypoint_ids in zip(swarm.drones, plan.routes):
        drone.route = [Setpoint(by_id[wid].position.copy()) for wid in waypoint_ids]


def _plan_payload(plan: RoutePlan, swarm: Swarm) -> dict:
    return {
        "feasible": plan.feasible,
        "violations": plan.violations,
        "total_length_m": plan.total_length,
        "routes": [
            {"drone_id": drone.id, "waypoint_ids": ids, "length_m": length}
            for drone, ids, length in zip(swarm.drones, plan.routes, plan.lengths)
        ],
    }


def _cmd_validate(args) -> int:
    swarm, scenario, mission = load_scenario(args.scenario)
    print(f"OK: {len(swarm.drones)} drone(s), {len(mission.waypoints)} waypoint(s), "
          f"dt={scenario.reference_time_step} s, max_duration={scenario.max_duration} s")
    return EXIT_OK


def _cmd_plan_route(args) -> int:
    swarm, _, mission = load_scenario(args.scenario)
    plan = optimize(mission)
    payload = _plan_payload(plan, swarm)
    print(f"heuristic total length: {plan.total_length:.6f} m "
          f"({'feasible' if plan.feasible else 'INFEASIBLE'})")
    if args.oracle:
        reference = brute_force_optimize(mission)
        payload["oracle"] = _plan_payload(reference, swarm)
        print(f"exhaustive optimum:     {reference.total_length:.6f} m")
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    swarm, scenario, mission = load_scenario(args.scenario)
    reference: dict[str, list[Setpoint]] = {}
    if mission.waypoints:
        plan = optimize(mission)
        if not plan.feasible:
            print("warning: route plan is infeasible, flying it anyway:", file=sys.stderr)
            for violation in plan.violations:
                print(f"  - {violation}", file=sys.stderr)
        routes_from_plan(swarm, mission, plan)
    for drone in swarm.drones:
        if drone.route:
            reference[drone.id] = [Setpoint(drone.state.position.copy())] + drone.route

    trajectory = simulate(swarm, scenario)

    if args.format == "geojson":
        export_geojson(trajectory, scenario.inertial_frame, args.out)
    else:
        export_csv(trajectory, args.out)
    print(f"wrote {args.format} trajectory for {len(trajectory.samples)} drone(s) "
          f"({sum(len(trajectory.table(d)) for d in trajectory.samples)} samples, "
          f"{len(trajectory.events)} events) to {args.out}")

    if args.metrics:
        report = compute_rmse(trajectory, reference)
        Path(args.metrics).write_text(
            json.dumps(report.to_dict(), indent=2) + "\n", encoding="utf-8")
        print(f"wrote metrics to {args.metrics}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dronesim",
        description="Deterministic multi-drone flight simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="plan, fly, and export a scenario")
    p_sim.add_argument("--scenario", required=True, help="scenario JSON file")
    p_sim.add_argument("--out", required=True, help="output trajectory path")
    p_sim.add_argument("--format", choices=("geojson", "csv"), default="geojson")
    p_sim.add_argument("--metrics", help="also write a JSON metrics report here")
    p_sim.set_defaults(func=_cmd_simulate)

    p_plan = sub.add_parser("plan-route", help="run the waypoint planner only")
    p_plan.add_argument("--scenario", required=True, help="scenario JSON file")
    p_plan.add_argument("--out", required=True, help="output plan JSON path")
    p_plan.add_argument("--oracle", action="store_true",
                        help="also run the exhaustive solver (small instances only)")
    p_plan.set_defaults(func=_cmd_plan_route)

    p_val = sub.add_parser("validate", help="check a scenario file and exit")
    p_val.add_argument("--scenario", required=True, help="scenario JSON file")
    p_val.set_defaults(func=_cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_request:  # argparse exits 2 on usage errors
        code = exit_request.code
        return EXIT_OK if code in (0, None) else EXIT_INVALID_INPUT
    try:
        return args.func(args)
    except (ScenarioError, InstanceTooLargeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except Exception as err:  # noqa: BLE001 - surface anything else as runtime failure
        print(f"runtime failure: {err}", file=sys.stderr)
        return EXIT_RUNTIME_FAILURE


if __name__ == "__main__":
    sys.exit(main())
