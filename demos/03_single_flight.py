"""One drone, one waypoint: the control cascade in closed loop.

Steps the full pipeline by hand at the lowest level: sample the
environment, compute rotor commands toward the setpoint, integrate the
rigid-body dynamics, repeat. Prints a flight log and, when matplotlib is
available, saves the altitude and tilt profiles.
"""

import numpy as np

import dronesim as ds

swarm, scenario, _ = ds.load_scenario(ds.bundled_scenario_path("hover.json"))
drone = swarm.drones[0]
craft, gains = drone.airframe, drone.gains
state = drone.state
target = ds.Setpoint(ds.vec3(8.0, 0.0, 6.0))

dt = scenario.reference_time_step
log_t, log_z, log_x, log_tilt = [], [], [], []
print(f"flying from {state.position.tolist()} to {target.target_position.tolist()}")
print(f"{'t [s]':>6} {'x [m]':>8} {'z [m]':>8} {'|v| [m/s]':>10} {'dist [m]':>9}")

t = 0.0
while t < 30.0:
    env = ds.sample_environment(scenario, state.position, t)
    commands = ds.compute_commands(state, target, craft, gains, env.gravity,
                                   env.air_density)
    state = ds.step(state, craft, env, dt, commands)
    t = state.t

    log_t.append(t)
    log_x.append(float(state.position[0]))
    log_z.append(float(state.position[2]))
    qw, qx, qy, qz = state.orientation
    log_tilt.append(float(np.degrees(2.0 * np.arccos(min(1.0, abs(qw))))))

    if round(t / dt) % 500 == 0:
        distance = float(np.linalg.norm(state.position - target.target_position))
        speed = float(np.linalg.norm(state.velocity))
        print(f"{t:6.2f} {state.position[0]:8.3f} {state.position[2]:8.3f} "
              f"{speed:10.3f} {distance:9.3f}")
    if ds.waypoint_reached(state, target, gains):
        print(f"waypoint captured at t = {t:.3f} s "
              f"(within {gains.capture_radius} m)")
        break

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, (ax_pos, ax_tilt) = plt.subplots(2, 1, figsize=(7, 6), sharex=True)
    ax_pos.plot(log_t, log_x, label="x [m]")
    ax_pos.plot(log_t, log_z, label="z [m]")
    ax_pos.axhline(target.target_position[2], ls="--", c="gray", lw=0.8)
    ax_pos.set_ylabel("position [m]")
    ax_pos.legend()
    ax_tilt.plot(log_t, log_tilt, c="tab:red")
    ax_tilt.set_xlabel("t [s]")
    ax_tilt.set_ylabel("tilt [deg]")
    fig.tight_layout()
    fig.savefig("single_flight.png", dpi=120)
    print("saved single_flight.png")
except ImportError:
    print("matplotlib not installed, skipping the plot")
