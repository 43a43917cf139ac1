import numpy as np
import pytest

import dronesim as ds


def calm_scenario(**overrides):
    defaults = dict(physics=ds.Physics(), conditions=ds.FlyingConditions(),
                    inertial_frame=ds.InertialFrame(41.1, 16.9, 10.0))
    defaults.update(overrides)
    return ds.Scenario(**defaults)


def test_sample_environment_defaults():
    sample = ds.sample_environment(calm_scenario(), ds.vec3(0, 0, 0), 0.0)
    assert sample.gravity == 9.81
    assert sample.air_density == 1.225
    assert np.all(sample.wind_velocity == 0.0)


def test_sample_environment_returns_configured_wind():
    scenario = calm_scenario(conditions=ds.FlyingConditions(wind_velocity=ds.vec3(3, 0, 0)))
    sample = ds.sample_environment(scenario, ds.vec3(100, -50, 20), 7.5)
    assert np.array_equal(sample.wind_velocity, [3.0, 0.0, 0.0])


def test_sample_environment_is_uniform_in_space_and_time():
    scenario = calm_scenario(conditions=ds.FlyingConditions(wind_velocity=ds.vec3(1, 2, 0)))
    a = ds.sample_environment(scenario, ds.vec3(0, 0, 0), 0.0)
    b = ds.sample_environment(scenario, ds.vec3(500, 500, 50), 99.0)
    assert a.gravity == b.gravity and a.air_density == b.air_density
    assert np.array_equal(a.wind_velocity, b.wind_velocity)


def test_sample_environment_rejects_negative_time():
    with pytest.raises(ValueError):
        ds.sample_environment(calm_scenario(), ds.vec3(0, 0, 0), -1.0)


def unit_box():
    return ds.Box(ds.vec3(0, 0, 0), ds.vec3(1, 1, 1))


def hits_obstacle(conditions, a, b):
    # the segment [a, b] touches a box of the conditions
    return any(ds.segment_hits_box(box, a, b) for box in conditions.obstacles)


def test_point_in_obstacle():
    # a degenerate segment is the inclusive point test
    conditions = ds.FlyingConditions(obstacles=[unit_box()])
    for p, inside in [((0.5, 0.5, 0.5), True), ((2.0, 0.0, 0.0), False),
                      ((1.0, 1.0, 1.0), True)]:  # inclusive
        assert hits_obstacle(conditions, ds.vec3(*p), ds.vec3(*p)) == inside


def test_point_in_obstacle_empty_conditions():
    assert not hits_obstacle(ds.FlyingConditions(), ds.vec3(0, 0, 0), ds.vec3(0, 0, 0))


def test_segment_through_box():
    conditions = ds.FlyingConditions(obstacles=[unit_box()])
    assert hits_obstacle(conditions, ds.vec3(-1, 0.5, 0.5), ds.vec3(2, 0.5, 0.5))


def test_segment_disjoint_from_box():
    conditions = ds.FlyingConditions(obstacles=[unit_box()])
    assert not hits_obstacle(conditions, ds.vec3(-1, 5, 5), ds.vec3(2, 5, 5))


def test_degenerate_segment_reduces_to_point_test():
    conditions = ds.FlyingConditions(obstacles=[unit_box()])
    inside = ds.vec3(0.5, 0.5, 0.5)
    assert hits_obstacle(conditions, inside, inside)
    outside = ds.vec3(3.0, 3.0, 3.0)
    assert not hits_obstacle(conditions, outside, outside)


def test_segment_touching_face_counts():
    box = unit_box()
    assert ds.segment_hits_box(box, ds.vec3(1.0, -1.0, 0.5), ds.vec3(1.0, 2.0, 0.5))


def test_segment_endpoint_inside_counts():
    box = unit_box()
    assert ds.segment_hits_box(box, ds.vec3(0.5, 0.5, 0.5), ds.vec3(5.0, 5.0, 5.0))


def test_segment_agrees_with_dense_point_sampling():
    # seeded boxes and segments; 1000-point sampling as the reference
    rng = np.random.default_rng(41)
    for _ in range(300):
        lo = rng.uniform(-5, 5, 3)
        box = ds.Box(lo, lo + rng.uniform(0.5, 4.0, 3))
        a = rng.uniform(-8, 8, 3)
        b = rng.uniform(-8, 8, 3)
        points = a + (b - a) * (np.arange(1000)[:, np.newaxis] / 999.0)
        inside = (box.min_corner <= points) & (points <= box.max_corner)
        sampled = bool(inside.all(axis=1).any())
        slab = ds.segment_hits_box(box, a, b)
        if sampled:
            assert slab  # a sampled interior point is proof of intersection
        else:
            assert slab == sampled


def test_box_validation():
    with pytest.raises(ValueError):
        ds.Box(ds.vec3(1, 0, 0), ds.vec3(0, 1, 1))


def test_scenario_validation():
    with pytest.raises(ValueError):
        calm_scenario(reference_time_step=0.0)
    with pytest.raises(ValueError):
        calm_scenario(max_duration=-1.0)
    with pytest.raises(ValueError):
        ds.Physics(gravity=0.0)
    with pytest.raises(ValueError):
        ds.Physics(air_density=-0.1)
