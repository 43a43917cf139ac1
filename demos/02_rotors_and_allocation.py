"""From rotor speeds to forces and back: the allocation problem.

Loads the reference quadrotor from the bundled hover scenario, shows the
quadratic thrust law, sums rotor contributions into a net body wrench,
and inverts the map to find the speeds for a demanded thrust and torque.
"""

import numpy as np

import dronesim as ds

swarm, scenario, _ = ds.load_scenario(ds.bundled_scenario_path("hover.json"))
craft = swarm.drones[0].airframe
rho = scenario.physics.air_density
g = scenario.physics.gravity

rotor = craft.rotors[0]
print("thrust vs speed (quadratic):")
for speed in (0.0, 250.0, 500.0, 1000.0):
    print(f"  {speed:7.1f} rad/s -> {ds.rotor_thrust(rotor, rho, speed):8.4f} N")

# Equal speeds on a symmetric X layout: pure vertical force, zero torque.
force, torque = ds.net_wrench(craft, rho, [500.0] * 4)
print("\nequal speeds:   force", force.round(6), " torque", torque.round(12))

# Slowing the front pair pitches the craft: thrust differential across
# the arms becomes a torque about the y axis.
speeds = [450.0 if r.position_body[0] > 0 else 550.0 for r in craft.rotors]
force, torque = ds.net_wrench(craft, rho, speeds)
print("front pair slow: force", force.round(4), " torque", torque.round(6))

# The inverse problem: what speeds realize hover? The answer matches the
# closed form sqrt(m g / (4 k)) for this symmetric craft.
hover = ds.allocate(craft, craft.body.mass * g, [0.0, 0.0, 0.0], rho)
print("\nhover allocation:", hover.round(4), "rad/s")
print("closed form:     ", ds.hover_speed(craft, g, rho).__round__(4), "rad/s")

# Demands beyond the rotors' ceiling saturate instead of failing; the
# flight degrades but continues.
absurd = ds.allocate(craft, 1e6, [0.0, 0.0, 0.0], rho)
print("1 MN demand saturates at:", absurd, "rad/s")

# Round trip: allocate the wrench produced by arbitrary speeds and the
# same speeds come back.
target = np.array([480.0, 510.0, 520.0, 470.0])
force, torque = ds.net_wrench(craft, rho, target)
recovered = ds.allocate(craft, float(force[2]), torque, rho)
print("round-trip max error:", float(np.max(np.abs(recovered - target))), "rad/s")
