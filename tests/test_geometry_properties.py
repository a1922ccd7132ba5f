"""Property tests of the elementwise geometry against the scalar reference
in geometry_reference.py: projection, keypoints, ground elevation and the
four depth kernels give the same bits, and NaN exactly where the reference
raised. The rows include keypoints within eps of the principal row and
non-positive heights, where the guards fire."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, strategies as st  # noqa: E402

import geometry_reference as ref  # noqa: E402
from compdepth import (  # noqa: E402
    DEFAULT_EPS_DEN,
    CameraIntrinsics,
    GroundPlane,
    box_keypoints,
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
                                 min_size=1, max_size=20),
       st.sampled_from([DEFAULT_EPS_DEN, 0.5]))
def test_y_global_matches_reference(k, g, rows, eps):
    u_b, d_b = (list(c) for c in zip(*rows))
    v_b = [k.c_v + d for d in d_b]
    check_elementwise(lambda *a: y_global(*a, g, k, eps=eps),
                      lambda *a: reference(ref.y_global, *a, g, k, eps), (u_b, v_b))
