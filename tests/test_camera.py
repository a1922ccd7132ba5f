import math

import numpy as np
import pytest

from compdepth import CameraIntrinsics, project, z_global


def test_project_hand_value(simple_cam):
    # u = 700 * 1 / 10 + 600, v = 700 * 0 / 10 + 200
    assert project(1.0, 0.0, 10.0, simple_cam) == (670.0, 200.0)


def test_project_principal_point(simple_cam):
    assert project(0.0, 0.0, 5.0, simple_cam) == (600.0, 200.0)


@pytest.mark.parametrize("z", [0.0, -1.0, -1e-12])
def test_project_rejects_nonpositive_depth(simple_cam, z):
    # a point at or behind the camera has no pixel: NaN, alone or in an array
    assert np.isnan(project(0.0, 0.0, z, simple_cam)).all()
    u, v = project(np.array([0.0, 1.0]), np.array([0.0, 1.0]), np.array([z, 10.0]), simple_cam)
    assert np.isnan([u[0], v[0]]).all() and (u[1], v[1]) == (670.0, 270.0)


def test_project_backproject_round_trip(kitti_cam):
    rng = np.random.default_rng(101)
    x = rng.uniform(-30.0, 30.0, 500)
    y = rng.uniform(-5.0, 5.0, 500)
    z = rng.uniform(0.5, 120.0, 500)
    u, v = project(x, y, z, kitti_cam)
    # back-projection with the known depth
    rx = (u - kitti_cam.c_u) * z / kitti_cam.f_x
    ry = (v - kitti_cam.c_v) * z / kitti_cam.f_y
    assert np.allclose(rx, x, rtol=1e-12, atol=1e-12)
    assert np.allclose(ry, y, rtol=1e-12, atol=1e-12)


# Depth from elevation is the projection solved for z given y: z_global.

def test_depth_from_elevation_hand_value(simple_cam):
    # v_b - c_v = 57.75 px, z = 700 * 1.65 / 57.75 = 20
    assert z_global(1.65, 257.75, simple_cam) == pytest.approx(20.0)


def test_depth_from_elevation_inverts_projection(kitti_cam):
    rng = np.random.default_rng(102)
    y = rng.uniform(0.2, 3.0, 500)
    z = rng.uniform(1.0, 100.0, 500)
    _, v_b = project(0.0, y, z, kitti_cam)
    assert z_global(y, v_b, kitti_cam) == pytest.approx(z, rel=1e-9)


def test_depth_from_elevation_horizon_guard(simple_cam):
    assert math.isnan(z_global(1.65, simple_cam.c_v + 1e-9, simple_cam))
    # just outside the guard: finite but huge
    z = z_global(1.65, simple_cam.c_v + 2e-6, simple_cam)
    assert z > 1e8


def test_depth_from_elevation_negative_elevation(simple_cam):
    # point above the camera seen below the principal row: inconsistent
    assert math.isnan(z_global(-1.0, 250.0, simple_cam))


def test_depth_from_elevation_eps_override(simple_cam):
    assert math.isnan(z_global(1.65, simple_cam.c_v + 0.5, simple_cam, eps=1.0))
    assert z_global(1.65, simple_cam.c_v + 0.5, simple_cam) == pytest.approx(2310.0)


def test_intrinsics_validation():
    with pytest.raises(ValueError):
        CameraIntrinsics(0.0, 700.0, 600.0, 200.0)
    with pytest.raises(ValueError):
        CameraIntrinsics(700.0, -1.0, 600.0, 200.0)
    with pytest.raises(ValueError):
        CameraIntrinsics(700.0, 700.0, math.nan, 200.0)
    with pytest.raises(ValueError):
        CameraIntrinsics(700.0, math.inf, 600.0, 200.0)


def test_intrinsics_frozen(simple_cam):
    with pytest.raises(AttributeError):
        simple_cam.f_x = 1.0
