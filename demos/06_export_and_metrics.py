"""End to end: plan, fly, export for GIS tools, and score the flight.

Runs the bundled square-route scenario through the whole pipeline and
writes everything a downstream analysis would consume: a GeoJSON
FeatureCollection (one LineString track per drone plus event markers,
loadable in QGIS or any web map), the raw state samples as CSV, and a
JSON metrics report with RMSE against the planned route.
"""

import json
from pathlib import Path

import dronesim as ds
from dronesim.cli import routes_from_plan

out_dir = Path("demo_output")
out_dir.mkdir(exist_ok=True)

swarm, scenario, mission = ds.load_scenario(
    ds.bundled_scenario_path("square_route.json"))
plan = ds.optimize(mission)
routes_from_plan(swarm, mission, plan)
print("planned visiting order:", " -> ".join(plan.routes[0]),
      f"({plan.total_length:.2f} m)")

trajectory = ds.simulate(swarm, scenario)
drone = swarm.drones[0]
print(f"flew {trajectory.samples[drone.id][-1].t:.1f} s, "
      f"{len(trajectory.samples[drone.id])} samples, "
      f"{len(trajectory.events)} events")

geojson_path = out_dir / "square_route.geojson"
ds.export_geojson(trajectory, scenario.inertial_frame, geojson_path)
document = json.loads(geojson_path.read_text())
print(f"wrote {geojson_path} ({len(document['features'])} features; "
      f"drop it onto geojson.io or QGIS)")

csv_path = out_dir / "square_route.csv"
ds.export_csv(trajectory, csv_path)
print(f"wrote {csv_path} ({len(csv_path.read_text().splitlines()) - 1} rows)")

reference = {drone.id: [ds.Setpoint(drone.state.position.copy())] + drone.route}
report = ds.compute_rmse(trajectory, reference)
metrics_path = out_dir / "square_route_metrics.json"
metrics_path.write_text(json.dumps(report.to_dict(), indent=2))
print(f"wrote {metrics_path}")
print(f"  RMSE to planned polyline: {report.rmse_m[drone.id]:.3f} m")
print(f"  distance flown:           {report.route_length_flown_m[drone.id]:.2f} m "
      f"(planned {plan.total_length:.2f} m)")
print(f"  waypoint capture times:   "
      f"{[round(t, 2) for t in report.waypoint_capture_times_s[drone.id]]}")
