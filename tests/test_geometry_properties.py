"""Property tests of the elementwise geometry against the scalar reference
in geometry_reference.py: projection, keypoints, ground elevation and the
four depth kernels give the same bits, and NaN exactly where the reference
raised. The rows include keypoints within DEFAULT_EPS_DEN of the principal
row and non-positive heights, where the guards fire. A plane fit and a
horizon's plane give a plane or NaN (no plane) for any finite input, never
an error, and a frame's plane is the same bits whether fitted alone or
among others. The plane/horizon conversions and height_at over per-frame
arrays give the bits of their scalar calls, frame by frame."""

import dataclasses
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, strategies as st  # noqa: E402

import geometry_reference as ref  # noqa: E402
from compdepth import (  # noqa: E402
    DEFAULT_EPS_DEN,
    CameraIntrinsics,
    GroundPlane,
    HorizonLine,
    box_keypoints,
    fit_planes,
    horizon_to_plane,
    plane_to_horizon,
    project,
    y_global,
    z_alt,
    z_comp,
    z_global,
    z_key,
)

finite = dict(allow_nan=False, allow_infinity=False)
cameras = st.builds(CameraIntrinsics, st.floats(50.0, 5000.0), st.floats(50.0, 5000.0),
                    st.floats(0.0, 2000.0), st.floats(0.0, 1000.0))
planes = st.builds(GroundPlane.from_heightfield, st.floats(-0.2, 0.2), st.floats(-0.2, 0.2),
                   st.floats(0.5, 3.0))
# offsets of an image row from c_v: on, inside, at and just past the guard
row_offsets = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5e-6, -0.5e-6, DEFAULT_EPS_DEN, -DEFAULT_EPS_DEN,
                     2e-6, -2e-6]),
    st.floats(-400.0, 400.0, **finite))
heights = st.one_of(st.sampled_from([0.0, -0.0, -1.0, 1e-300]), st.floats(-3.0, 3.0, **finite))
depths = st.one_of(st.sampled_from([0.0, -0.0, -1e-12, 1e-300]),
                   st.floats(-50.0, 150.0, **finite))
meters = st.floats(-40.0, 40.0, **finite)


def reference(fn, *args) -> float:
    """fn(*args), or NaN where the scalar reference raises."""
    try:
        return fn(*args)
    except (ref.GeometryError, ValueError):
        return np.nan


def assert_same_bits(got, want) -> None:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    nan = np.isnan(want)
    assert (np.isnan(got) == nan).all(), (got, want)
    assert (got[~nan].view(np.uint64) == want[~nan].view(np.uint64)).all(), (got, want)


def check_elementwise(kernel, scalar, columns) -> None:
    """kernel over the columns, and over each row's scalars, matches the
    reference row by row."""
    rows = list(zip(*columns))
    want = [scalar(*row) for row in rows]
    assert_same_bits(kernel(*(np.array(c) for c in columns)), want)
    for row, w in zip(rows, want):
        assert_same_bits(kernel(*row), w)


@given(cameras, st.lists(st.tuples(meters, meters, depths, heights), min_size=1, max_size=20))
def test_project_and_keypoints_match_reference(k, rows):
    x, y, z, h = (list(c) for c in zip(*rows))
    for i in range(2):
        check_elementwise(lambda *a: project(*a, k)[i],
                          lambda *a: reference(lambda *b: ref.project(*b, k)[i], *a),
                          (x, y, z))
    for i in range(3):
        check_elementwise(lambda *a: box_keypoints(*a, k)[i],
                          lambda *a: reference(lambda *b: ref.box_keypoints(*b, k)[i], *a),
                          (x, y, z, h))


@given(cameras, st.lists(st.tuples(meters, heights, row_offsets, row_offsets),
                         min_size=1, max_size=20))
def test_depth_kernels_match_reference(k, rows):
    y_glo, height, d_b, d_t = (list(c) for c in zip(*rows))
    # rows as offsets from c_v, so v_b, v_t and their midpoint land on,
    # inside and just outside each guard
    v_b = [k.c_v + d for d in d_b]
    v_t = [k.c_v + d for d in d_t]
    mid_t = [2.0 * k.c_v - v for v in v_b]  # midpoint of v_b and mid_t ~ c_v
    cases = [
        (z_key, ref.z_key, (height, v_b, v_t)),
        (z_key, ref.z_key, (height, v_b, [v - d for v, d in zip(v_b, d_t)])),
        (z_global, ref.z_global, (y_glo, v_b)),
        (z_comp, ref.z_comp, (y_glo, height, v_b, v_t)),
        (z_comp, ref.z_comp, (y_glo, height, v_b, mid_t)),
        (z_alt, ref.z_alt, (y_glo, height, v_t)),
    ]
    for kernel, scalar, columns in cases:
        check_elementwise(lambda *a: kernel(*a, k),
                          lambda *a: reference(scalar, *a, k), columns)


@given(cameras, planes, st.lists(st.tuples(st.floats(-500.0, 2500.0), row_offsets),
                                 min_size=1, max_size=20))
def test_y_global_matches_reference(k, g, rows):
    u_b, d_b = (list(c) for c in zip(*rows))
    v_b = [k.c_v + d for d in d_b]
    check_elementwise(lambda *a: y_global(*a, g, k),
                      lambda *a: reference(ref.y_global, *a, g, k), (u_b, v_b))


def assert_plane_or_nan(plane) -> None:
    """Each frame of the plane is finite, or NaN in a, b and c (no plane)."""
    assert isinstance(plane, GroundPlane)
    fields = np.broadcast_arrays(plane.a, plane.b, plane.c, plane.cam_height)
    none = np.isnan(fields[:3]).all(axis=0)
    assert (none | np.isfinite(fields).all(axis=0)).all()


# anything finite, and ordinary meters so that many draws fit a plane
coordinates = st.one_of(st.floats(**finite), meters, st.sampled_from([0.0, 1.0, 1e308]))


@given(st.lists(st.tuples(coordinates, coordinates, coordinates), max_size=8))
def test_fit_plane_gives_a_plane_or_none(rows):
    assert_plane_or_nan(fit_planes(np.array(rows, dtype=float).reshape(-1, 3),
                                   [0, len(rows)]))


@given(st.lists(st.lists(st.tuples(*[st.one_of(meters, coordinates)] * 3), max_size=6),
                max_size=6))
def test_fit_planes_per_frame_equals_alone(frames):
    """One call over several frames, empty ones included, gives each frame
    the plane (or NaN) that fitting it alone gives, bit for bit."""
    points = np.array([row for frame in frames for row in frame], dtype=float).reshape(-1, 3)
    bounds = np.cumsum([0] + [len(frame) for frame in frames])
    fitted = fit_planes(points, bounds)
    alone = [fit_planes(np.array(frame, dtype=float).reshape(-1, 3), [0, len(frame)])
             for frame in frames]
    for field in ("a", "b", "c", "cam_height"):
        assert_same_bits(getattr(fitted, field), [getattr(g, field)[0] for g in alone])


extreme_cameras = st.builds(CameraIntrinsics, *[st.floats(5e-324, 1.7e308)] * 2,
                            *[st.floats(**finite)] * 2)


@given(st.one_of(cameras, extreme_cameras), st.builds(HorizonLine, coordinates, coordinates),
       st.floats(0.5, 3.0))
def test_horizon_to_plane_gives_a_plane_or_none(k, h, cam_height):
    assert_plane_or_nan(horizon_to_plane(h, k, cam_height=cam_height))


# one frame's plane: a height field's, a vertical one whose |b| is on,
# inside, at and just past the guard, or no plane (NaN)
frame_planes = st.one_of(
    planes,
    st.sampled_from([0.0, -0.0, 0.5e-6, -0.5e-6, DEFAULT_EPS_DEN, -DEFAULT_EPS_DEN,
                     2e-6, -2e-6]).map(lambda b: GroundPlane(math.sqrt(1.0 - b * b), b, 0.0)),
    st.just(GroundPlane(math.nan, math.nan, math.nan)))
# one frame's horizon: ordinary, anything finite (its plane may overflow), or NaN
frame_horizons = st.one_of(
    st.builds(HorizonLine, st.floats(-0.1, 0.1), st.floats(-500.0, 1500.0)),
    st.builds(HorizonLine, coordinates, coordinates),
    st.just(HorizonLine(math.nan, math.nan)))


def stack(records):
    """One record of per-frame arrays from scalar records of one type."""
    return type(records[0])(*np.array([dataclasses.astuple(r) for r in records]).T)


@given(st.lists(st.tuples(st.one_of(cameras, extreme_cameras), frame_planes, frame_horizons,
                          meters, depths, st.floats(0.5, 3.0)), min_size=1, max_size=8))
def test_plane_conversions_are_elementwise(frames):
    """plane_to_horizon, horizon_to_plane and height_at over per-frame
    arrays (with cameras that overflow a horizon or its plane) give each
    frame the bits of its scalar call, NaN in the same places."""
    ks, gs, hs, xs, zs, cam_heights = (list(c) for c in zip(*frames))
    k, g, h = stack(ks), stack(gs), stack(hs)
    horizon = plane_to_horizon(g, k)
    alone = [plane_to_horizon(*frame) for frame in zip(gs, ks)]
    for field in ("k_h", "b_h"):
        assert_same_bits(getattr(horizon, field), [getattr(one, field) for one in alone])
    plane = horizon_to_plane(h, k, cam_height=np.array(cam_heights))
    alone = [horizon_to_plane(*frame, cam_height=c) for *frame, c in zip(hs, ks, cam_heights)]
    for field in ("a", "b", "c", "cam_height"):
        assert_same_bits(getattr(plane, field), [getattr(one, field) for one in alone])
    assert_same_bits(g.height_at(np.array(xs), np.array(zs)),
                     [one.height_at(x, z) for one, x, z in zip(gs, xs, zs)])
