"""Public functions check their physical arguments as the constructors do.

One table row per (callable, argument, rule): the callable, given good
arguments with one of them replaced by a bad value, must raise a
FieldError whose ``field`` names that argument. Given np.float64 or int
in place of the checked floats, each callable must return the bits it
returns for the floats.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

import dronesim as ds

from conftest import build_reference_craft, level_state

CRAFT = build_reference_craft()
STATE = level_state(z=5.0)
SETPOINT = ds.Setpoint(ds.vec3(1.0, 2.0, 6.0), target_yaw=1.0)
SCENARIO = ds.Scenario(ds.Physics(), ds.FlyingConditions(), ds.InertialFrame(47.0, 8.0, 400.0))

# good arguments for each callable; every checked number is integral, so
# that an int can stand for it
CALLS = {
    ds.rotor_thrust: dict(rotor=CRAFT.rotors[0], air_density=1.0, speed=400.0),
    ds.allocation_matrix: dict(airframe=CRAFT, air_density=1.0),
    ds.net_wrench: dict(airframe=CRAFT, air_density=1.0, speeds=[400.0, 410.0, 420.0, 430.0]),
    ds.allocate: dict(airframe=CRAFT, desired_thrust=10.0, desired_torque=[0.01, 0.0, -0.01],
                      air_density=1.0),
    ds.hover_speed: dict(airframe=CRAFT, gravity=10.0, air_density=1.0),
    ds.thrust_and_attitude: dict(state=STATE, setpoint=SETPOINT, airframe=CRAFT,
                                 gains=ds.ControllerGains(), gravity=10.0),
    ds.compute_commands: dict(state=STATE, setpoint=SETPOINT, airframe=CRAFT,
                              gains=ds.ControllerGains(), gravity=10.0, air_density=1.0),
    ds.step: dict(state=STATE, airframe=CRAFT,
                  env=ds.EnvironmentSample(10.0, 1.0, np.zeros(3)), dt=1.0,
                  speeds=[400.0, 410.0, 420.0, 430.0]),
    ds.integrate_orientation: dict(q=[1.0, 0.0, 0.0, 0.0], omega_body=[0.1, 0.2, 0.3], dt=1.0),
    ds.quat_from_axis_angle: dict(axis=[1.0, 2.0, 3.0], angle=1.0),
    ds.quat_from_euler: dict(roll=1.0, pitch=2.0, yaw=3.0),
    ds.sample_environment: dict(scenario=SCENARIO, position=[0.0, 0.0, 0.0], t=2.0),
    ds.DroneState: dict(t=2.0, position=[0.0, 0.0, 5.0]),
    ds.Setpoint: dict(target_position=[1.0, 2.0, 6.0], target_yaw=1.0),
    ds.InertialFrame: dict(latitude_deg=47.0, longitude_deg=8.0, altitude_m=400.0),
    ds.EnvironmentSample: dict(gravity=10.0, air_density=1.0, wind_velocity=[1.0, 0.0, 0.0]),
}

NAN, INF = math.nan, math.inf
FINITE = [NAN, INF, -INF]
NON_NEGATIVE = FINITE + [-1.0]
POSITIVE = NON_NEGATIVE + [0.0]

# the scalar arguments each callable checks, and the values its rule rejects
CHECKED = [
    (ds.rotor_thrust, "air_density", POSITIVE),
    (ds.allocation_matrix, "air_density", POSITIVE),
    (ds.net_wrench, "air_density", POSITIVE),
    (ds.allocate, "desired_thrust", NON_NEGATIVE),
    (ds.allocate, "air_density", POSITIVE),
    (ds.hover_speed, "gravity", POSITIVE),
    (ds.hover_speed, "air_density", POSITIVE),
    (ds.thrust_and_attitude, "gravity", POSITIVE),
    (ds.compute_commands, "gravity", POSITIVE),
    (ds.compute_commands, "air_density", POSITIVE),
    (ds.step, "dt", POSITIVE),
    (ds.integrate_orientation, "dt", POSITIVE),
    (ds.quat_from_axis_angle, "angle", FINITE),
    (ds.quat_from_euler, "roll", FINITE),
    (ds.quat_from_euler, "pitch", FINITE),
    (ds.quat_from_euler, "yaw", FINITE),
    (ds.sample_environment, "t", NON_NEGATIVE),
    (ds.DroneState, "t", FINITE),
    (ds.Setpoint, "target_yaw", FINITE),
    (ds.InertialFrame, "altitude_m", FINITE),
    (ds.EnvironmentSample, "gravity", POSITIVE),
    (ds.EnvironmentSample, "air_density", POSITIVE),
]
BAD_WIND = [[NAN, 0.0, 0.0], [0.0, INF, 0.0], [0.0, 0.0, -INF]]


@pytest.mark.parametrize("call, argument, bad", [
    *[(call, argument, value) for call, argument, values in CHECKED for value in values],
    *[(ds.EnvironmentSample, "wind_velocity", wind) for wind in BAD_WIND],
], ids=lambda v: getattr(v, "__name__", str(v)))
def test_a_bad_argument_raises_a_field_error_naming_it(call, argument, bad):
    with pytest.raises(ds.FieldError) as raised:
        call(**{**CALLS[call], argument: bad})
    assert raised.value.field == argument


def bits(value):
    """Everything that tells two results apart, down to the float bits."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, (tuple, list)):
        return [bits(v) for v in value]
    if dataclasses.is_dataclass(value):
        return [bits(v) for v in vars(value).values()]
    if isinstance(value, str):
        return value
    return type(value), float(value).hex()


@pytest.mark.parametrize("convert", [np.float64, int])
@pytest.mark.parametrize("call", CALLS, ids=lambda call: call.__name__)
def test_numpy_and_int_arguments_give_the_bits_of_floats(call, convert):
    arguments = CALLS[call]
    checked = {argument: convert(arguments[argument])
               for c, argument, _ in CHECKED if c is call}
    assert checked
    assert bits(call(**{**arguments, **checked})) == bits(call(**arguments))
