import math

import numpy as np
import pytest

from compdepth import (
    CameraIntrinsics,
    HorizonSingularity,
    NonPositiveDepth,
    Pixel,
    Point3D,
    project,
    z_global,
)


def test_project_hand_value(simple_cam):
    # u = 700 * 1 / 10 + 600, v = 700 * 0 / 10 + 200
    px = project(Point3D(1.0, 0.0, 10.0), simple_cam)
    assert px == Pixel(670.0, 200.0)


def test_project_principal_point(simple_cam):
    px = project(Point3D(0.0, 0.0, 5.0), simple_cam)
    assert px == Pixel(600.0, 200.0)


@pytest.mark.parametrize("z", [0.0, -1.0, -1e-12])
def test_project_rejects_nonpositive_depth(simple_cam, z):
    with pytest.raises(NonPositiveDepth):
        project(Point3D(0.0, 0.0, z), simple_cam)


def test_project_backproject_round_trip(kitti_cam):
    rng = np.random.default_rng(101)
    for _ in range(500):
        x = rng.uniform(-30.0, 30.0)
        y = rng.uniform(-5.0, 5.0)
        z = rng.uniform(0.5, 120.0)
        px = project(Point3D(x, y, z), kitti_cam)
        # back-projection with the known depth
        rx = (px.u - kitti_cam.c_u) * z / kitti_cam.f_x
        ry = (px.v - kitti_cam.c_v) * z / kitti_cam.f_y
        assert math.isclose(rx, x, rel_tol=1e-12, abs_tol=1e-12)
        assert math.isclose(ry, y, rel_tol=1e-12, abs_tol=1e-12)


# Depth from elevation is the projection solved for z given y: z_global.

def test_depth_from_elevation_hand_value(simple_cam):
    # v_b - c_v = 57.75 px, z = 700 * 1.65 / 57.75 = 20
    assert z_global(1.65, 257.75, simple_cam) == pytest.approx(20.0)


def test_depth_from_elevation_inverts_projection(kitti_cam):
    rng = np.random.default_rng(102)
    for _ in range(500):
        y = rng.uniform(0.2, 3.0)
        z = rng.uniform(1.0, 100.0)
        v_b = project(Point3D(0.0, y, z), kitti_cam).v
        assert z_global(y, v_b, kitti_cam) == pytest.approx(z, rel=1e-9)


def test_depth_from_elevation_horizon_guard(simple_cam):
    with pytest.raises(HorizonSingularity):
        z_global(1.65, simple_cam.c_v + 1e-9, simple_cam)
    # just outside the guard: finite but huge
    z = z_global(1.65, simple_cam.c_v + 2e-6, simple_cam)
    assert z > 1e8


def test_depth_from_elevation_negative_elevation(simple_cam):
    # point above the camera seen below the principal row: inconsistent
    with pytest.raises(NonPositiveDepth):
        z_global(-1.0, 250.0, simple_cam)


def test_depth_from_elevation_eps_override(simple_cam):
    with pytest.raises(HorizonSingularity):
        z_global(1.65, simple_cam.c_v + 0.5, simple_cam, eps=1.0)


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
