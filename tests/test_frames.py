import math

import numpy as np
import pytest

import dronesim as ds


def conjugate(q):
    # the inverse rotation of a quaternion, made unit first
    return ds.quat_normalize(q) * np.array([1.0, -1.0, -1.0, -1.0])


def test_rotate_identity_is_noop():
    v = ds.rotate(ds.quat_identity(), ds.vec3(1.0, 2.0, 3.0))
    assert np.allclose(v, [1.0, 2.0, 3.0], atol=1e-15)


def test_rotate_quarter_turn_about_z():
    q = ds.quat_from_axis_angle([0.0, 0.0, 1.0], math.pi / 2.0)
    v = ds.rotate(q, ds.vec3(1.0, 0.0, 0.0))
    assert np.allclose(v, [0.0, 1.0, 0.0], atol=1e-12)


def test_rotate_inverse_round_trip():
    rng = np.random.default_rng(7)
    for _ in range(200):
        q = ds.quat_normalize(rng.normal(size=4))
        v = rng.normal(size=3) * 10.0
        back = ds.rotate(q, ds.rotate(conjugate(q), v))
        assert np.max(np.abs(back - v)) < 1e-12 * max(1.0, float(np.linalg.norm(v)))


def quat_to_matrix(q):
    """3x3 rotation matrix mapping body vectors into the world frame."""
    w, x, y, z = ds.quat_normalize(q)
    xx, yy, zz = x * x, y * y, z * z
    wx, wy, wz = w * x, w * y, w * z
    xy, xz, yz = x * y, x * z, y * z
    return np.array([
        [1.0 - 2.0 * (yy + zz), 2.0 * (xy - wz), 2.0 * (xz + wy)],
        [2.0 * (xy + wz), 1.0 - 2.0 * (xx + zz), 2.0 * (yz - wx)],
        [2.0 * (xz - wy), 2.0 * (yz + wx), 1.0 - 2.0 * (xx + yy)],
    ])


def test_quat_to_matrix_rotates_like_rotate():
    rng = np.random.default_rng(13)
    for _ in range(200):
        q = rng.normal(size=4)  # both normalise their quaternion
        v = rng.normal(size=3) * 10.0
        assert np.max(np.abs(quat_to_matrix(q) @ v - ds.rotate(q, v))) < 1e-12


def test_rotate_preserves_norm():
    rng = np.random.default_rng(11)
    for _ in range(500):
        q = ds.quat_normalize(rng.normal(size=4))
        v = rng.normal(size=3) * rng.uniform(0.1, 100.0)
        n_in = float(np.linalg.norm(v))
        n_out = float(np.linalg.norm(ds.rotate(q, v)))
        assert abs(n_out - n_in) <= 1e-12 * n_in


def test_rotation_composition():
    rng = np.random.default_rng(13)
    for _ in range(500):
        q1 = ds.quat_normalize(rng.normal(size=4))
        q2 = ds.quat_normalize(rng.normal(size=4))
        v = rng.normal(size=3) * 5.0
        lhs = ds.rotate(ds.quat_multiply(q1, q2), v)
        rhs = ds.rotate(q1, ds.rotate(q2, v))
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * max(1.0, float(np.linalg.norm(v)))


def test_rotate_rejects_non_finite():
    with pytest.raises(ValueError):
        ds.rotate(ds.quat_identity(), [1.0, math.nan, 0.0])
    with pytest.raises(ValueError):
        ds.rotate([math.inf, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0])


def test_quat_normalize_rejects_zero():
    with pytest.raises(ValueError):
        ds.quat_normalize([0.0, 0.0, 0.0, 0.0])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("big", [1e308, 1e200])
def test_quaternion_helpers_stay_unit_when_the_squares_overflow(big):
    # the sum of squares overflows, without a warning; the result is that
    # of the unit direction
    q, unit = [big, big, 0.0, 0.0], [math.sqrt(0.5), math.sqrt(0.5), 0.0, 0.0]
    assert np.allclose(ds.quat_normalize(q), unit, rtol=0.0, atol=1e-15)
    assert np.allclose(ds.rotate(q, [1.0, 2.0, 3.0]), ds.rotate(unit, [1.0, 2.0, 3.0]),
                       rtol=0.0, atol=1e-14)
    stepped = ds.integrate_orientation(q, [0.1, 0.2, 0.3], 0.01)
    assert abs(float(np.linalg.norm(stepped)) - 1.0) <= 1e-15
    assert np.allclose(stepped, ds.integrate_orientation(unit, [0.1, 0.2, 0.3], 0.01),
                       rtol=0.0, atol=1e-15)
    half = ds.quat_from_axis_angle([big, 0.0, big], 1.0)
    assert np.allclose(half, ds.quat_from_axis_angle([1.0, 0.0, 1.0], 1.0), rtol=0.0, atol=1e-15)
    assert abs(float(np.linalg.norm(half)) - 1.0) <= 1e-15


def test_integrate_orientation_zero_rate_leaves_quaternion():
    q = ds.quat_from_axis_angle([1.0, 1.0, 0.0], 0.3)
    out = ds.integrate_orientation(q, np.zeros(3), 0.01)
    assert np.max(np.abs(out - q)) < 1e-15


def test_integrate_orientation_half_turn_about_z():
    # one second at pi rad/s in 1e-4 steps lands on the closed-form
    # axis-angle quaternion for a 180 degree rotation
    q = ds.quat_identity()
    omega = np.array([0.0, 0.0, math.pi])
    for _ in range(10_000):
        q = ds.integrate_orientation(q, omega, 1e-4)
    q_ref = ds.quat_from_axis_angle([0.0, 0.0, 1.0], math.pi)
    err = min(float(np.max(np.abs(q - q_ref))), float(np.max(np.abs(q + q_ref))))
    assert err < 1e-6


def test_integrate_orientation_keeps_unit_norm():
    rng = np.random.default_rng(17)
    for _ in range(300):
        q = ds.quat_normalize(rng.normal(size=4))
        out = ds.integrate_orientation(q, rng.normal(size=3) * 5.0, 0.002)
        assert abs(float(np.linalg.norm(out)) - 1.0) <= 1e-9


def test_integrate_orientation_second_order_convergence():
    omega = np.array([0.3, -0.4, 0.5])
    total = 0.5

    def end_error(dt):
        q = ds.quat_identity()
        for _ in range(round(total / dt)):
            q = ds.integrate_orientation(q, omega, dt)
        n = float(np.linalg.norm(omega))
        q_exact = ds.quat_from_axis_angle(omega / n, n * total)
        d = ds.quat_multiply(conjugate(q_exact), q)
        return 2.0 * math.acos(min(1.0, abs(float(d[0]))))

    e1, e2 = end_error(0.01), end_error(0.005)
    ratio = e1 / e2
    assert 3.4 <= ratio <= 6.0  # second order: halving dt quarters the error


def test_integrate_orientation_rejects_non_positive_dt():
    with pytest.raises(ValueError):
        ds.integrate_orientation(ds.quat_identity(), [0.0, 0.0, 1.0], 0.0)
    with pytest.raises(ValueError):
        ds.integrate_orientation(ds.quat_identity(), [0.0, 0.0, 1.0], -0.1)


def test_geo_project_origin_maps_to_origin():
    frame = ds.InertialFrame(41.5, 16.25, 120.0)
    assert ds.geo_project(frame, np.zeros(3)) == (41.5, 16.25, 120.0)


def test_geo_project_one_degree_of_meridian():
    frame = ds.InertialFrame(0.0, 0.0, 0.0)
    meridian_degree = 2.0 * math.pi * ds.EARTH_RADIUS_M / 360.0
    lat, lon, alt = ds.geo_project(frame, ds.vec3(0.0, meridian_degree, 0.0))
    assert lat == pytest.approx(1.0, abs=1e-12)
    assert lon == 0.0
    assert alt == 0.0


def test_geo_round_trip():
    frame = ds.InertialFrame(44.2, 11.7, 35.0)
    rng = np.random.default_rng(19)
    for _ in range(200):
        p = rng.uniform(-5000.0, 5000.0, 3)
        lat, lon, alt = ds.geo_project(frame, p)
        back = ds.geo_unproject(frame, lat, lon, alt)
        assert np.max(np.abs(back - p)) < 1e-6  # meters
        again = ds.geo_project(frame, back)
        assert abs(again[0] - lat) < 1e-9 and abs(again[1] - lon) < 1e-9


def test_geo_project_columns_equal_the_one_position_formula():
    # the reference is the per-position formula with math.degrees
    from dronesim.frames import geo_project_columns

    rng = np.random.default_rng(23)
    for frame in (ds.InertialFrame(41.109, 16.879, 10.0), ds.InertialFrame(-33.9, -151.2, 0.0),
                  ds.InertialFrame(0.0, 0.0, -5.5)):
        positions = rng.uniform(-3000.0, 3000.0, (2000, 3)) * 10.0 ** rng.integers(-9, 3, (2000, 3))
        positions[:4] = [[0.0, -0.0, 0.0], [-0.0, 0.0, -0.0], [5e-324, -5e-324, 1e-310], [1.0, 2.0, 3.0]]
        lat, lon, alt = geo_project_columns(frame, *positions.T)
        cos_lat0 = math.cos(math.radians(frame.latitude_deg))
        for k, (east, north, up) in enumerate(positions.tolist()):
            expected = (frame.latitude_deg + math.degrees(north / ds.EARTH_RADIUS_M),
                        frame.longitude_deg + math.degrees(east / (ds.EARTH_RADIUS_M * cos_lat0)),
                        frame.altitude_m + up)
            assert (lat[k], lon[k], alt[k]) == expected
            assert ds.geo_project(frame, [east, north, up]) == expected

def test_geo_project_rejects_polar_origin():
    with pytest.raises(ValueError):
        ds.geo_project(ds.InertialFrame(90.0, 0.0, 0.0), ds.vec3(1.0, 0.0, 0.0))
    with pytest.raises(ValueError, match="too close to a pole"):
        ds.geo_unproject(ds.InertialFrame(-90.0, 0.0, 0.0), 0.0, 0.0, 0.0)


def test_inertial_frame_validates_ranges():
    with pytest.raises(ValueError):
        ds.InertialFrame(91.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        ds.InertialFrame(0.0, 181.0, 0.0)
    with pytest.raises(ValueError):
        ds.InertialFrame(0.0, 0.0, math.nan)
