import math

import numpy as np
import pytest

from compdepth import box_keypoints, make_scene, z_alt, z_comp, z_global, z_key


def scene_columns(scene):
    """x, y, z, h arrays of a scene's objects."""
    return np.array([(o.x, o.y, o.z, o.h) for o in scene.objects]).T


# ---------------------------------------------------------------------------
# keypoints
# ---------------------------------------------------------------------------

def test_box_keypoints_center_pair(simple_cam):
    u_b, v_b, v_t = box_keypoints(0.0, 1.65, 20.0, 1.5, simple_cam)
    assert v_b == pytest.approx(257.75)
    assert v_t == pytest.approx(205.25)
    assert u_b == pytest.approx(600.0)


def test_box_keypoints_behind_camera(simple_cam):
    # a box center at or behind the camera has no keypoints; the other
    # boxes of the same call keep theirs. Only the center column is
    # projected, so a box 1 m ahead whose near corners reach behind the
    # camera still gets its keypoints.
    keypoints = box_keypoints(0.0, 1.65, np.array([-1.0, 0.0, 1.0]), 1.5, simple_cam)
    assert np.isnan(np.array(keypoints)[:, :2]).all()
    assert keypoints[1][2] == pytest.approx(200.0 + 700.0 * 1.65)


# ---------------------------------------------------------------------------
# depth estimators: hand values and exact recovery
# ---------------------------------------------------------------------------

def test_z_key_hand_value(simple_cam):
    assert z_key(1.5, 257.75, 205.25, simple_cam) == pytest.approx(20.0)


def test_z_comp_hand_value(simple_cam):
    assert z_comp(1.65, 1.5, 257.75, 205.25, simple_cam) == pytest.approx(20.0)


def test_z_alt_hand_value(simple_cam):
    assert z_alt(1.65, 1.5, 205.25, simple_cam) == pytest.approx(20.0)


def test_exact_recovery_on_synthetic_scene():
    scene = make_scene(150, seed=9)
    k = scene.intrinsics
    x, y, z, h = scene_columns(scene)
    _, v_b, v_t = box_keypoints(x, y, z, h, k)
    assert z_key(h, v_b, v_t, k) == pytest.approx(z, rel=1e-9)
    assert z_global(y, v_b, k) == pytest.approx(z, rel=1e-9)
    assert z_comp(y, h, v_b, v_t, k) == pytest.approx(z, rel=1e-9)
    assert z_alt(y, h, v_t, k) == pytest.approx(z, rel=1e-9)


# ---------------------------------------------------------------------------
# singularities and validation: NaN where the geometry is undefined
# ---------------------------------------------------------------------------

def test_z_key_degenerate_height(simple_cam):
    assert math.isnan(z_key(1.5, 250.0, 250.0, simple_cam))
    assert math.isnan(z_key(1.5, 250.0, 260.0, simple_cam))  # inverted box
    assert math.isnan(z_key(0.0, 250.0, 200.0, simple_cam))  # no height
    z = z_key(np.array([1.5, 1.5, 0.0, 1.5]), 250.0, np.array([250.0, 260.0, 200.0, 215.0]),
              simple_cam)
    assert np.isnan(z[:3]).all() and z[3] == pytest.approx(30.0)


def test_z_comp_singularities(simple_cam):
    assert math.isnan(z_comp(1.65, 1.5, 202.0, 198.0, simple_cam))  # midpoint row at c_v
    assert math.isnan(z_comp(1.65, 1.5, 190.0, 180.0, simple_cam))  # signs disagree
    assert math.isnan(z_comp(1.65, -1.0, 250.0, 200.0, simple_cam))  # no height


def test_z_alt_singularity_and_signed_output(simple_cam):
    assert math.isnan(z_alt(1.65, 1.65, 200.0, simple_cam))
    assert math.isnan(z_alt(1.65, 0.0, 205.0, simple_cam))
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
    x, y, z, h = scene_columns(scene)
    _, v_b, v_t = box_keypoints(x, y, z, h, k)
    d_key = central_diff(lambda h: z_key(h, v_b, v_t, k), h)
    d_comp = central_diff(lambda h: z_comp(y, h, v_b, v_t, k), h)
    assert (d_key > 0).all()
    assert (d_comp < 0).all()


def test_top_row_sensitivity_signs(kitti_cam):
    # moving the top keypoint down shrinks the apparent height (z_key up)
    # and drags the midpoint row down (z_comp down) whenever the midpoint
    # sits below the principal row
    scene = make_scene(200, seed=20)
    k = scene.intrinsics
    x, y, z, h = scene_columns(scene)
    _, v_b, v_t = box_keypoints(x, y, z, h, k)
    below = ((v_b + v_t) / 2 - k.c_v >= 2.0) & (y - h / 2 > 0)
    d_key = central_diff(lambda vt: z_key(h, v_b, vt, k), v_t)
    d_comp = central_diff(lambda vt: z_comp(y, h, v_b, vt, k), v_t)
    assert (d_key * d_comp < 0)[below].all()
    assert below.sum() > 100
