"""Deterministic multi-drone flight simulation.

A numpy library that models each drone as a rigid body driven by
individually spinning rotors, plans constrained waypoint routes for a
swarm, flies the routes under a PD cascade controller inside a shared
world scenario, and exports geo-referenced results with error metrics.
"""

from .airframe import (Airframe, Body, ConfigurationError, Rotor, allocate,
                       hover_speed, net_wrench, rotor_thrust, set_rotor_speeds)
from .control import ControllerGains, Setpoint, compute_commands, waypoint_reached
from .dynamics import DivergenceError, DroneState, step
from .export import export_csv, export_geojson, load_csv
from .frames import (EARTH_RADIUS_M, FieldError, InertialFrame, geo_project,
                     geo_unproject, integrate_orientation, quat_from_axis_angle,
                     quat_from_euler, quat_identity, quat_multiply,
                     quat_normalize, rotate, vec3)
from .metrics import MetricsReport, compute_rmse
from .routing import (InstanceTooLargeError, Mission, RoutePlan, Waypoint,
                      brute_force_optimize, optimize, route_length)
from .scenario import (Box, EnvironmentSample, FlyingConditions, Physics,
                       Scenario, sample_environment, segment_hits_box)
from .scenario_io import (ScenarioError, ScenarioInvariantError,
                          ScenarioParseError, ScenarioSchemaError,
                          bundled_scenario_path, load_scenario, save_scenario,
                          scenario_from_dict, scenario_to_dict)
from .swarm import SimEvent, Swarm, Trajectory, Drone, simulate

__version__ = "0.1.0"

__all__ = [
    "Airframe", "Body", "Box", "ConfigurationError", "ControllerGains",
    "DivergenceError", "Drone", "DroneState", "EARTH_RADIUS_M",
    "EnvironmentSample", "FieldError", "FlyingConditions", "InertialFrame",
    "InstanceTooLargeError", "MetricsReport", "Mission", "Physics",
    "RoutePlan", "Rotor", "Scenario", "ScenarioError",
    "ScenarioInvariantError", "ScenarioParseError", "ScenarioSchemaError",
    "Setpoint", "SimEvent", "Swarm", "Trajectory", "Waypoint", "allocate",
    "brute_force_optimize", "bundled_scenario_path", "compute_commands",
    "compute_rmse", "export_csv", "export_geojson", "geo_project",
    "geo_unproject", "hover_speed", "integrate_orientation", "load_csv",
    "load_scenario", "net_wrench", "optimize", "quat_from_axis_angle",
    "quat_from_euler", "quat_identity", "quat_multiply", "quat_normalize",
    "rotate", "rotor_thrust", "route_length", "sample_environment",
    "save_scenario", "scenario_from_dict", "scenario_to_dict",
    "segment_hits_box", "set_rotor_speeds", "simulate", "step", "vec3",
    "waypoint_reached",
]
