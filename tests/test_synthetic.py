import math
import signal

import numpy as np
import pytest

import scene_reference
from compdepth import (
    DEFAULT_CAM_HEIGHT,
    DEFAULT_INTRINSICS,
    GroundPlane,
    box_keypoints,
    format_labels,
    make_scene,
    synthetic,
    y_global,
)

try:
    from hypothesis import assume, given, settings, strategies as st
except ImportError:  # the property test below skips itself
    given = None


def test_make_scene_deterministic():
    a = make_scene(30, seed=5)
    b = make_scene(30, seed=5)
    assert a == b
    assert a != make_scene(30, seed=6)


def test_make_scene_counts_and_ranges():
    scene = make_scene(120, seed=1)
    assert len(scene.objects) == 120
    for o in scene.objects:
        assert 5.0 <= o.z <= 60.0
        assert 1.0 <= o.h <= 2.0
        assert abs(o.x) <= 0.3 * o.z
        assert -math.pi <= o.theta <= math.pi
        assert -math.pi <= o.alpha <= math.pi


def test_objects_sit_exactly_on_plane():
    scene = make_scene(100, seed=2)
    for o in scene.objects:
        assert o.y == pytest.approx(scene.plane.height_at(o.x, o.z), abs=1e-12)


def test_objects_keep_head_clearance():
    scene = make_scene(200, seed=3)
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
        g = synthetic._random_plane(rng)
        # angle between the plane normal and straight down stays within bound
        tilt = math.degrees(math.acos(min(1.0, -g.b)))
        assert tilt <= 5.0 + 1e-9


def test_make_scene_bbox_covers_keypoints():
    scene = make_scene(60, seed=7)
    u1, v1, u2, v2 = np.array([o.bbox2d for o in scene.objects]).T
    u_b, v_b, v_t = box_keypoints(*scene_columns(scene), scene.intrinsics)
    assert ((u1 <= u_b) & (u_b <= u2)).all()
    assert ((v1 <= v_t) & (v_b <= v2)).all()


def test_fixed_scene_always_has_room():
    """make_scene ends and every box corner lies in front of the camera.

    For a tilt direction, the plane height at each corner of the sampled
    region (x = +-0.3 z at either end of the depth range) is linear in the
    gradient, so the best corner's clearance is least at 0 or at the steepest
    tilt; flat ground keeps 0.65 m. A best corner above the minimum clearance
    means a neighbourhood of attempts passes, so some attempts always pass.
    """
    (z_lo, z_hi), h_lo = synthetic._DEPTH_RANGE, synthetic._HEIGHT_RANGE[0]
    corner_z = np.array([z_lo, z_lo, z_hi, z_hi])
    corner_x = 0.3 * corner_z * [-1.0, 1.0, -1.0, 1.0]
    gradient = math.tan(math.radians(synthetic._SLOPE_MAX_DEG))
    for direction in np.radians(np.arange(360)):
        plane = GroundPlane.from_heightfield(gradient * math.cos(direction),
                                             gradient * math.sin(direction), DEFAULT_CAM_HEIGHT)
        assert plane.height_at(corner_x, corner_z).max() - h_lo > synthetic._MIN_CLEARANCE
    # no footprint corner lies farther from its box's centre than the half-diagonal
    w_max, l_max, _ = synthetic._WLT_HI
    assert z_lo > math.hypot(w_max / 2.0, l_max / 2.0)


def test_make_scene_rejects_corners_behind_camera():
    # boxes 0.5-2 m ahead would reach behind the camera: make_scene takes no depth range
    with pytest.raises(TypeError, match="unexpected keyword argument 'depth_range'"):
        make_scene(5, seed=1, depth_range=(0.5, 2.0))
    # so every box of the fixed scene keeps its footprint, and its amodal 2D box, in front
    scene = make_scene(400, seed=1)
    assert all(o.z > math.hypot(o.w / 2.0, o.l / 2.0) for o in scene.objects)
    assert np.isfinite([o.bbox2d for o in scene.objects]).all()


@pytest.mark.parametrize("kw", [
    # the plane's best corner would leave y - h at -0.35 m: no attempt could pass
    pytest.param(dict(slope_max_deg=10.0, depth_range=(8.0, 50.0), height_range=(1.2, 1.9),
                      cam_height=1.8, min_clearance=0.3), id="kw0-no box keeps min_clearance=0.3"),
    pytest.param(dict(min_clearance=5.0), id="kw1-no box keeps"),
    pytest.param(dict(depth_range=(-1e308, 1e308)), id="kw2-finite width"),
    pytest.param(dict(height_range=(1.0, math.inf)), id="kw3-finite width"),
    pytest.param(dict(height_range=(2.0, 1.0)), id="kw4-needs lo <= hi"),
    pytest.param(dict(depth_range=(0.0, -0.0)), id="kw5-needs lo <= hi"),
])
def test_make_scene_rejects_unsatisfiable_ranges(kw):
    """make_scene takes none of the settings that once needed a range check,
    and its fixed ranges are ordered and finite, so it returns."""
    with pytest.raises(TypeError, match="unexpected keyword argument"):
        make_scene(30, seed=5, **kw)
    for lo, hi in (synthetic._DEPTH_RANGE, synthetic._HEIGHT_RANGE):
        assert lo <= hi and math.isfinite(hi - lo)

    # A sampler that cannot end loops forever: fail on a timer instead.
    def hang(signum, frame):
        raise TimeoutError("make_scene did not return")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(10)
    try:
        assert len(make_scene(30, seed=5).objects) == 30
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _pass_rate(seed):
    """Share of 4000 attempts, drawn off the scene's own plane, that keep
    the minimum clearance."""
    plane = synthetic._random_plane(np.random.default_rng(seed))
    (z_lo, z_hi), (h_lo, h_hi) = synthetic._DEPTH_RANGE, synthetic._HEIGHT_RANGE
    u = np.random.default_rng(0).random((3, 4000))
    z = z_lo + (z_hi - z_lo) * u[0]
    h = h_lo + (h_hi - h_lo) * u[2]
    return np.mean(plane.height_at(0.3 * z * (2.0 * u[1] - 1.0), z) - h
                   >= synthetic._MIN_CLEARANCE)


@pytest.mark.parametrize("block", [synthetic._BLOCK, 2])
def test_make_scene_matches_scalar_reference(block):
    """The block-drawn sampler gives the scalar loop's scene bit for bit. A
    block of 2 triples (6 doubles) crosses a block boundary on nearly every
    attempt."""
    if given is None:
        pytest.skip("hypothesis is not installed")

    @settings(max_examples=150)
    @given(n=st.integers(0, 60), seed=st.integers(0, 2**63))
    def check(n, seed):
        assume(_pass_rate(seed) >= 0.01)  # the scalar loop ends soon
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(synthetic, "_BLOCK", block)
            got = make_scene(n, seed)
        want = scene_reference.make_scene(n, seed)
        assert got == want
        assert format_labels(got.objects) == format_labels(want.objects)

    check()


def test_default_intrinsics_are_kitti_like():
    assert DEFAULT_INTRINSICS.f_x == DEFAULT_INTRINSICS.f_y
    assert 300 < DEFAULT_INTRINSICS.c_u < 1242
