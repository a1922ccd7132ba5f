import math
import signal

import numpy as np
import pytest

import scene_reference
from compdepth import (
    DEFAULT_INTRINSICS,
    box_keypoints,
    format_labels,
    make_scene,
    random_plane,
    synthetic,
    y_global,
)

try:
    from hypothesis import assume, example, given, settings, strategies as st
except ImportError:  # the property test below skips itself
    given = None


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


def _pass_rate(seed, slope_max_deg, depth_range, height_range, cam_height,
               min_clearance):
    """Share of 4000 attempts, drawn off the scene's own plane, that keep
    min_clearance."""
    plane = random_plane(np.random.default_rng(seed), slope_max_deg, cam_height)
    u = np.random.default_rng(0).random((3, 4000))
    z = depth_range[0] + (depth_range[1] - depth_range[0]) * u[0]
    h = height_range[0] + (height_range[1] - height_range[0]) * u[2]
    return np.mean(plane.height_at(0.3 * z * (2.0 * u[1] - 1.0), z) - h >= min_clearance)


def _outcome(make, n, seed, **kw):
    """The scene and its label text, or the ValueError make raised."""
    try:
        scene = make(n, seed, **kw)
    except ValueError:
        return ValueError
    return scene, format_labels(scene.objects)


@pytest.mark.parametrize("block", [synthetic._BLOCK, 2])
def test_make_scene_matches_scalar_reference(block):
    """The block-drawn sampler gives the scalar loop's scene bit for bit. A
    block of 2 triples (6 doubles) crosses a block boundary on nearly every
    attempt."""
    if given is None:
        pytest.skip("hypothesis is not installed")

    def ends(start, width):
        """(a, a + b) with a and b both integer or both float."""
        return st.one_of(*(st.builds(lambda a, b: (a, a + b), kind(*start), kind(*width))
                           for kind in (st.integers, st.floats)))

    @settings(max_examples=150)
    @given(n=st.integers(0, 60), seed=st.integers(0, 2**63), slope=st.floats(0.0, 12.0),
           depth=ends((3, 15), (0, 65)), height=ends((1, 2), (0, 1)),
           cam_height=st.floats(1.3, 2.2), clearance=st.floats(0.0, 0.4))
    # a flat plane where every attempt ends exactly at min_clearance: all pass
    @example(n=5, seed=0, slope=0.0, depth=(3, 3), height=(2.0, 2.0), cam_height=2.0,
             clearance=0.0)
    def check(n, seed, slope, depth, height, cam_height, clearance):
        kw = dict(slope_max_deg=slope, depth_range=depth, height_range=height,
                  cam_height=cam_height, min_clearance=clearance)
        assume(_pass_rate(seed, **kw) >= 0.05)  # the scalar loop ends soon
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(synthetic, "_BLOCK", block)
            got = _outcome(make_scene, n, seed, **kw)
        assert got == _outcome(scene_reference.make_scene, n, seed, **kw)

    check()


def test_make_scene_raises_at_the_first_attempt_behind_the_camera():
    # Generator.uniform(-0.3 z, 0.3 z) raises once an attempt draws z < 0, so
    # with depth_range just below 0 some scenes end before one, some do not
    outcomes = [_outcome(make_scene, 20, seed, depth_range=(-0.05, 60.0)) for seed in range(20)]
    assert outcomes == [_outcome(scene_reference.make_scene, 20, seed, depth_range=(-0.05, 60.0))
                        for seed in range(20)]
    assert ValueError in outcomes and any(o is not ValueError for o in outcomes)
    with pytest.raises(ValueError, match="a box at z=-"):
        make_scene(20, outcomes.index(ValueError), depth_range=(-0.05, 60.0))


@pytest.mark.parametrize("seed,kw", [
    (9, dict(min_clearance=math.nan)),  # y - h < nan is False: every attempt passes
    (8, dict(depth_range=(1e308, 1.7e308), slope_max_deg=80.0)),  # heights overflow to inf
])
def test_make_scene_extreme_values_match_the_scalar_loop(seed, kw):
    got = make_scene(40, seed, **kw)
    assert got == scene_reference.make_scene(40, seed, **kw)
    assert got.objects and all(o.y == math.inf for o in got.objects) == ("depth_range" in kw)


@pytest.mark.parametrize("kw,message", [
    # the plane's best corner leaves y - h at -0.35 m: no attempt can pass
    (dict(slope_max_deg=10.0, depth_range=(8.0, 50.0), height_range=(1.2, 1.9),
          cam_height=1.8, min_clearance=0.3), "no box keeps min_clearance=0.3"),
    (dict(min_clearance=5.0), "no box keeps"),
    (dict(depth_range=(-1e308, 1e308)), "finite width"),
    (dict(height_range=(1.0, math.inf)), "finite width"),
    (dict(height_range=(2.0, 1.0)), "needs lo <= hi"),
    (dict(depth_range=(0.0, -0.0)), "needs lo <= hi"),
])
def test_make_scene_rejects_unsatisfiable_ranges(kw, message):
    # A sampler without the check loops forever here: fail on a timer instead.
    def hang(signum, frame):
        raise TimeoutError("make_scene did not return")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(10)
    try:
        with pytest.raises(ValueError, match=message):
            make_scene(30, seed=5, **kw)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert make_scene(0, seed=5, **kw).objects == ()  # no box asked, none drawn


def test_default_intrinsics_are_kitti_like():
    assert DEFAULT_INTRINSICS.f_x == DEFAULT_INTRINSICS.f_y
    assert 300 < DEFAULT_INTRINSICS.c_u < 1242
