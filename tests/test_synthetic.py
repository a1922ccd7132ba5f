import math

import numpy as np
import pytest

from compdepth import (
    DEFAULT_INTRINSICS,
    box_keypoints,
    make_scene,
    random_plane,
    y_global,
)


def test_make_scene_deterministic():
    a = make_scene(30, seed=5)
    b = make_scene(30, seed=5)
    assert a == b
    assert a != make_scene(30, seed=6)


def test_make_scene_counts_and_ranges():
    scene = make_scene(120, seed=1, depth_range=(8.0, 50.0),
                       height_range=(1.2, 1.9))
    assert len(scene.objects) == 120
    for o in scene.objects:
        assert 8.0 <= o.z <= 50.0
        assert 1.2 <= o.h <= 1.9
        assert abs(o.x) <= 0.3 * o.z
        assert -math.pi <= o.theta <= math.pi
        assert -math.pi <= o.alpha <= math.pi


def test_objects_sit_exactly_on_plane():
    scene = make_scene(100, seed=2)
    for o in scene.objects:
        assert o.y == pytest.approx(scene.plane.height_at(o.x, o.z), abs=1e-12)


def test_objects_keep_head_clearance():
    scene = make_scene(200, seed=3, min_clearance=0.15)
    for o in scene.objects:
        assert o.y - o.h >= 0.15 - 1e-12  # top stays below the camera plane


def scene_columns(scene):
    """x, y, z, h arrays of a scene's objects."""
    return np.array([(o.x, o.y, o.z, o.h) for o in scene.objects]).T


def test_scene_supports_ground_queries():
    scene = make_scene(50, seed=4)
    k = scene.intrinsics
    x, y, z, h = scene_columns(scene)
    u_b, v_b, _ = box_keypoints(x, y, z, h, k)
    assert y_global(u_b, v_b, scene.plane, k) == pytest.approx(y, rel=1e-9)


def test_random_plane_slope_bound():
    rng = np.random.default_rng(8)
    for _ in range(50):
        g = random_plane(rng, slope_max_deg=5.0)
        # angle between the plane normal and straight down stays within bound
        tilt = math.degrees(math.acos(min(1.0, -g.b)))
        assert tilt <= 5.0 + 1e-9


def test_make_scene_bbox_covers_keypoints():
    scene = make_scene(60, seed=7)
    u1, v1, u2, v2 = np.array([o.bbox2d for o in scene.objects]).T
    u_b, v_b, v_t = box_keypoints(*scene_columns(scene), scene.intrinsics)
    assert ((u1 <= u_b) & (u_b <= u2)).all()
    assert ((v1 <= v_t) & (v_b <= v2)).all()


def test_make_scene_rejects_corners_behind_camera():
    # boxes 0.5-2 m ahead reach behind the camera: no amodal 2D box exists
    with pytest.raises(ValueError, match="at or behind the camera"):
        make_scene(5, seed=1, depth_range=(0.5, 2.0))


def test_default_intrinsics_are_kitti_like():
    assert DEFAULT_INTRINSICS.f_x == DEFAULT_INTRINSICS.f_y
    assert 300 < DEFAULT_INTRINSICS.c_u < 1242
