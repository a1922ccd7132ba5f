import math

import pytest

from compdepth import (
    DegenerateHeight,
    MidpointSingularity,
    NonPositiveDepth,
    TopSingularity,
    box_keypoints,
    depth_from_elevation,
    make_scene,
    z_alt,
    z_comp,
    z_global,
    z_key,
)
from compdepth.kitti_io import Object3D


def make_object(x=0.0, y=1.65, z=20.0, h=1.5, w=1.6, l=3.6, theta=0.0):
    return Object3D("Car", 0.0, 0, 0.0, (0.0, 0.0, 0.0, 0.0),
                    h, w, l, x, y, z, theta)


# ---------------------------------------------------------------------------
# box corners and keypoints
# ---------------------------------------------------------------------------

def test_box_keypoints_center_pair(simple_cam):
    kp = box_keypoints(make_object(), simple_cam)
    assert kp.bottom_center.v == pytest.approx(257.75)
    assert kp.top_center.v == pytest.approx(205.25)
    assert kp.bottom_center.u == pytest.approx(600.0)


def test_box_keypoints_behind_camera(simple_cam):
    with pytest.raises(NonPositiveDepth):
        box_keypoints(make_object(z=-1.0), simple_cam)
    with pytest.raises(NonPositiveDepth):
        box_keypoints(make_object(z=0.0), simple_cam)
    # long axis along z: the near corners reach behind the camera, but only
    # the center column is projected
    kp = box_keypoints(make_object(z=1.0, theta=math.pi / 2), simple_cam)
    assert kp.bottom_center.v == pytest.approx(200.0 + 700.0 * 1.65)


# ---------------------------------------------------------------------------
# depth estimators: hand values and exact recovery
# ---------------------------------------------------------------------------

def test_z_key_hand_value(simple_cam):
    assert z_key(1.5, 257.75, 205.25, simple_cam) == pytest.approx(20.0)


def test_z_comp_hand_value(simple_cam):
    assert z_comp(1.65, 1.5, 257.75, 205.25, simple_cam) == pytest.approx(20.0)


def test_z_alt_hand_value(simple_cam):
    assert z_alt(1.65, 1.5, 205.25, simple_cam) == pytest.approx(20.0)


def test_z_global_is_elevation_alias(simple_cam):
    assert z_global(1.65, 257.75, simple_cam) == depth_from_elevation(
        1.65, 257.75, simple_cam)


def test_exact_recovery_on_synthetic_scene():
    scene = make_scene(150, seed=9)
    k = scene.intrinsics
    for o in scene.objects:
        kp = box_keypoints(o, k)
        v_b, v_t = kp.bottom_center.v, kp.top_center.v
        assert z_key(o.h, v_b, v_t, k) == pytest.approx(o.z, rel=1e-9)
        assert z_global(o.y, v_b, k) == pytest.approx(o.z, rel=1e-9)
        assert z_comp(o.y, o.h, v_b, v_t, k) == pytest.approx(o.z, rel=1e-9)
        assert z_alt(o.y, o.h, v_t, k) == pytest.approx(o.z, rel=1e-9)


# ---------------------------------------------------------------------------
# singularities and validation
# ---------------------------------------------------------------------------

def test_z_key_degenerate_height(simple_cam):
    with pytest.raises(DegenerateHeight):
        z_key(1.5, 250.0, 250.0, simple_cam)
    with pytest.raises(DegenerateHeight):
        z_key(1.5, 250.0, 260.0, simple_cam)  # inverted box
    with pytest.raises(ValueError):
        z_key(0.0, 250.0, 200.0, simple_cam)


def test_z_comp_singularities(simple_cam):
    with pytest.raises(MidpointSingularity):
        z_comp(1.65, 1.5, 202.0, 198.0, simple_cam)  # midpoint row at c_v
    with pytest.raises(NonPositiveDepth):
        z_comp(1.65, 1.5, 190.0, 180.0, simple_cam)  # signs disagree
    with pytest.raises(ValueError):
        z_comp(1.65, -1.0, 250.0, 200.0, simple_cam)


def test_z_alt_singularity_and_signed_output(simple_cam):
    with pytest.raises(TopSingularity):
        z_alt(1.65, 1.65, 200.0, simple_cam)
    # inconsistent inputs produce a negative depth, returned as-is
    assert z_alt(1.65, 1.8, 205.0, simple_cam) == pytest.approx(-21.0)


# ---------------------------------------------------------------------------
# opposite height sensitivity
# ---------------------------------------------------------------------------

def central_diff(f, x, step=1e-6):
    return (f(x + step) - f(x - step)) / (2 * step)


def test_height_sensitivity_signs(kitti_cam):
    scene = make_scene(200, seed=19)
    k = scene.intrinsics
    for o in scene.objects:
        kp = box_keypoints(o, k)
        v_b, v_t = kp.bottom_center.v, kp.top_center.v
        d_key = central_diff(lambda h: z_key(h, v_b, v_t, k), o.h)
        d_comp = central_diff(lambda h: z_comp(o.y, h, v_b, v_t, k), o.h)
        assert d_key > 0
        assert d_comp < 0


def test_top_row_sensitivity_signs(kitti_cam):
    # moving the top keypoint down shrinks the apparent height (z_key up)
    # and drags the midpoint row down (z_comp down) whenever the midpoint
    # sits below the principal row
    scene = make_scene(200, seed=20)
    k = scene.intrinsics
    checked = 0
    for o in scene.objects:
        kp = box_keypoints(o, k)
        v_b, v_t = kp.bottom_center.v, kp.top_center.v
        if (v_b + v_t) / 2 - k.c_v < 2.0 or o.y - o.h / 2 <= 0:
            continue
        d_key = central_diff(lambda vt: z_key(o.h, v_b, vt, k), v_t)
        d_comp = central_diff(lambda vt: z_comp(o.y, o.h, v_b, vt, k), v_t)
        assert d_key * d_comp < 0
        checked += 1
    assert checked > 100
