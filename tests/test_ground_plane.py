import math

import numpy as np
import pytest

from compdepth import (
    DEFAULT_CAM_HEIGHT,
    DegeneratePlane,
    EmptyInput,
    GroundPlane,
    HorizonLine,
    InsufficientSupport,
    fit_horizon,
    fit_plane,
    heatmap_from_pgm,
    heatmap_to_pgm,
    horizon_to_plane,
    plane_to_horizon,
    rasterize_horizon,
    y_global,
)


def ray_cast_y(u, v, plane, k):
    """Independent oracle: intersect the viewing ray with the plane directly.

    The ray through pixel (u, v) is t * d with d = ((u-c_u)/f_x,
    (v-c_v)/f_y, 1); substituting into a*x + b*y + c*z + cam_height = 0
    gives t, and the intersection's y is t * d_y.
    """
    d = np.array([(u - k.c_u) / k.f_x, (v - k.c_v) / k.f_y, 1.0])
    normal = np.array([plane.a, plane.b, plane.c])
    t = -plane.cam_height / float(normal @ d)
    return t * d[1]


def heightfield(g):
    """(p, q, r) of the plane's height field y = p*x + q*z + r."""
    return (-g.a / g.b, -g.c / g.b, -g.cam_height / g.b)


# ---------------------------------------------------------------------------
# GroundPlane construction
# ---------------------------------------------------------------------------

def test_plane_requires_unit_norm():
    with pytest.raises(ValueError):
        GroundPlane(0.0, -2.0, 0.0, 1.65)


def test_from_coefficients_normalizes_and_orients():
    g = GroundPlane.from_coefficients(0.0, 2.0, 0.0, -3.3)
    assert g.b == pytest.approx(-1.0)
    assert g.cam_height == pytest.approx(1.65)


def test_from_heightfield_round_trip():
    g = GroundPlane.from_heightfield(0.02, -0.01, 1.6)
    p, q, r = heightfield(g)
    assert p == pytest.approx(0.02, rel=1e-12)
    assert q == pytest.approx(-0.01, rel=1e-12)
    assert r == pytest.approx(1.6, rel=1e-12)


def test_flat_plane_height_field():
    g = GroundPlane(0.0, -1.0, 0.0, 1.65)
    assert g.height_at(12.0, 40.0) == pytest.approx(1.65)
    assert heightfield(g) == pytest.approx((0.0, 0.0, 1.65))


def test_cam_height_is_perpendicular_distance():
    # distance from origin to a*x+b*y+c*z+d=0 with unit normal is |d|
    g = GroundPlane.from_heightfield(0.05, 0.03, 1.65)
    x, y, z = 2.0, g.height_at(2.0, 10.0), 10.0
    residual = g.a * x + g.b * y + g.c * z + g.cam_height
    assert abs(residual) < 1e-12
    assert g.cam_height < 1.65  # tilted plane: constant shrinks under normalization


def test_vertical_plane_has_no_height_field():
    g = GroundPlane(1.0, 0.0, 0.0, 1.0)
    with pytest.raises(DegeneratePlane):
        g.height_at(0.0, 10.0)


# ---------------------------------------------------------------------------
# plane fitting
# ---------------------------------------------------------------------------

def test_fit_plane_exact_recovery():
    true = GroundPlane.from_heightfield(0.01, -0.02, 1.62)
    rng = np.random.default_rng(7)
    pts = []
    for _ in range(40):
        x = rng.uniform(-20, 20)
        z = rng.uniform(5, 70)
        pts.append((x, true.height_at(x, z), z))
    fitted, info = fit_plane(np.array(pts))
    assert not info.used_fallback
    for got, want in zip(heightfield(fitted), heightfield(true)):
        assert got == pytest.approx(want, abs=1e-9)


def test_fit_plane_flat_cloud():
    pts = [(x, 1.65, z) for x, z in [(-3, 10), (4, 25), (0, 50), (7, 8)]]
    fitted, info = fit_plane(pts)
    assert not info.used_fallback
    assert fitted.a == pytest.approx(0.0, abs=1e-12)
    assert fitted.b == pytest.approx(-1.0)
    assert fitted.cam_height == pytest.approx(1.65)


def test_fit_plane_fallback_too_few_points():
    plane, info = fit_plane(np.array([(0.0, 1.7, 10.0), (1.0, 1.7, 20.0)]))
    assert info.used_fallback
    assert heightfield(plane) == pytest.approx((0.0, 0.0, DEFAULT_CAM_HEIGHT))


def test_fit_plane_fallback_collinear():
    # all points share x = 0: the x-slope column is all zero, rank 2
    pts = [(0.0, 1.6 + 0.01 * z, z) for z in (10.0, 20.0, 30.0, 40.0)]
    plane, info = fit_plane(pts)
    assert info.used_fallback
    assert heightfield(plane) == pytest.approx((0.0, 0.0, DEFAULT_CAM_HEIGHT))


def test_fit_plane_empty():
    with pytest.raises(EmptyInput):
        fit_plane(np.empty((0, 3)))


# ---------------------------------------------------------------------------
# plane <-> horizon
# ---------------------------------------------------------------------------

def test_plane_to_horizon_flat(simple_cam):
    h = plane_to_horizon(GroundPlane(0.0, -1.0, 0.0, 1.65), simple_cam)
    assert h.k_h == pytest.approx(0.0)
    assert h.b_h == pytest.approx(simple_cam.c_v)


def test_plane_to_horizon_forward_slope(simple_cam):
    # y = 0.01 * z + 1.65: b_h = c_v + q * f_y = 200 + 7
    g = GroundPlane.from_heightfield(0.0, 0.01, 1.65)
    h = plane_to_horizon(g, simple_cam)
    assert h.k_h == pytest.approx(0.0, abs=1e-15)
    assert h.b_h == pytest.approx(207.0)


def test_plane_to_horizon_lateral_slope(simple_cam):
    g = GroundPlane.from_heightfield(0.02, 0.0, 1.65)
    h = plane_to_horizon(g, simple_cam)
    # k_h = p * f_y / f_x = 0.02, and the line passes below c_v at u < c_u
    assert h.k_h == pytest.approx(0.02, rel=1e-12)
    assert h.k_h * simple_cam.c_u + h.b_h == pytest.approx(simple_cam.c_v)


def test_plane_to_horizon_vertical_plane(simple_cam):
    with pytest.raises(DegeneratePlane):
        plane_to_horizon(GroundPlane(1.0, 0.0, 0.0, 1.0), simple_cam)


def test_horizon_plane_round_trip(kitti_cam):
    rng = np.random.default_rng(31)
    for _ in range(300):
        p = rng.uniform(-0.09, 0.09)
        q = rng.uniform(-0.09, 0.09)
        g = GroundPlane.from_heightfield(p, q, rng.uniform(1.2, 2.2))
        h = plane_to_horizon(g, kitti_cam)
        g2 = horizon_to_plane(h, kitti_cam, cam_height=g.cam_height)
        assert g2.a == pytest.approx(g.a, abs=1e-9)
        assert g2.b == pytest.approx(g.b, abs=1e-9)
        assert g2.c == pytest.approx(g.c, abs=1e-9)
        h2 = plane_to_horizon(g2, kitti_cam)
        assert h2.k_h == pytest.approx(h.k_h, abs=1e-9)
        assert h2.b_h == pytest.approx(h.b_h, abs=1e-9)


def test_horizon_to_plane_flat(kitti_cam):
    g = horizon_to_plane(HorizonLine(0.0, kitti_cam.c_v), kitti_cam, cam_height=1.7)
    assert g.a == pytest.approx(0.0, abs=1e-15)
    assert g.b == pytest.approx(-1.0)
    assert g.c == pytest.approx(0.0, abs=1e-15)
    assert g.cam_height == 1.7


# ---------------------------------------------------------------------------
# y_global
# ---------------------------------------------------------------------------

def test_y_global_flat_plane(simple_cam):
    g = GroundPlane(0.0, -1.0, 0.0, 1.65)
    u, v = np.array([600.0, 100.0, 1100.0]), np.array([260.0, 210.0, 350.0])
    assert y_global(u, v, g, simple_cam) == pytest.approx(1.65, rel=1e-12)


def test_y_global_matches_ray_cast_oracle(kitti_cam):
    rng = np.random.default_rng(41)
    for _ in range(300):
        g = GroundPlane.from_heightfield(
            rng.uniform(-0.09, 0.09), rng.uniform(-0.09, 0.09),
            rng.uniform(1.3, 2.0))
        u = rng.uniform(0.0, 1242.0)
        v = rng.uniform(kitti_cam.c_v + 20.0, 375.0)
        want = ray_cast_y(u, v, g, kitti_cam)
        assert y_global(u, v, g, kitti_cam) == pytest.approx(want, rel=1e-9)


def test_y_global_horizon_guard(simple_cam):
    g = GroundPlane(0.0, -1.0, 0.0, 1.65)
    assert math.isnan(y_global(600.0, simple_cam.c_v, g, simple_cam))
    y = y_global(600.0, np.array([simple_cam.c_v, 260.0]), g, simple_cam)
    assert math.isnan(y[0]) and y[1] == pytest.approx(1.65)


def test_y_global_parallel_ray(simple_cam):
    # plane whose normal is orthogonal to the viewing ray of (c_u, 300):
    # ray direction (0, dy, 1) with dy = 100/700; normal ~ (0, -1, dy)
    dy = 100.0 / 700.0
    g = GroundPlane.from_coefficients(0.0, -1.0, dy, 1.65)
    assert math.isnan(y_global(600.0, 300.0, g, simple_cam))


# ---------------------------------------------------------------------------
# heatmap rasterization and fitting
# ---------------------------------------------------------------------------

def test_rasterize_profile_values():
    hm = rasterize_horizon(HorizonLine(0.0, 100.0), width=4, height=375)
    sigma = 2.0 / 3.0
    col = hm[:, 2]
    assert col[100] == pytest.approx(1.0)
    assert col[101] == pytest.approx(math.exp(-1.0 / (2 * sigma**2)))
    assert col[99] == col[101]
    assert col[102] == pytest.approx(math.exp(-4.0 / (2 * sigma**2)))
    assert col[103] == 0.0  # beyond the truncation radius
    assert hm.max() <= 1.0


def test_rasterize_partial_tail_above_image():
    hm = rasterize_horizon(HorizonLine(0.0, -1.5), width=10, height=375)
    assert hm[0].min() > 0.0  # row 0 keeps the truncated tail
    assert np.all(hm[2:] == 0.0)


# The 2.0 column is HEATMAP_RADIUS; it only keeps these rows' test ids.
@pytest.mark.parametrize("line,radius,message", [
    (HorizonLine(math.nan, 100.0), 2.0, "k_h must be finite"),
    (HorizonLine(math.inf, 100.0), 2.0, "k_h must be finite"),
    (HorizonLine(0.0, math.nan), 2.0, "b_h must be finite"),
    (HorizonLine(0.0, -math.inf), 2.0, "b_h must be finite"),
])
def test_rasterize_rejects_bad_input(line, radius, message):
    with pytest.raises(ValueError, match=message):
        rasterize_horizon(line, width=8, height=6)


def test_rasterize_radius_beyond_image_height():
    # the 2 px window reaches past both image edges: every row of every
    # column lies inside it
    hm = rasterize_horizon(HorizonLine(0.0, 1.0), width=5, height=3)
    sigma = 2.0 / 3.0
    expected = np.exp(-((np.arange(3) - 1.0) ** 2) / (2.0 * sigma * sigma))
    assert np.array_equal(hm, np.repeat(expected[:, None], 5, axis=1))


def test_rasterize_overflowing_rows_stay_empty():
    # k_h * u overflows to inf from column 1 on: those rows are infinitely
    # far from the image, so only column 0 carries the profile
    with np.errstate(over="ignore"):
        hm = rasterize_horizon(HorizonLine(1e308, 1.0), width=4, height=3)
    assert hm[1, 0] == 1.0 and hm[0, 0] > 0.0 and hm[2, 0] > 0.0
    assert np.all(hm[:, 1:] == 0.0)


def test_rasterize_far_line_all_zero():
    hm = rasterize_horizon(HorizonLine(0.0, -10.0), width=10, height=375)
    assert np.all(hm == 0.0)
    with pytest.raises(InsufficientSupport):
        fit_horizon(hm)


def test_fit_horizon_exact_recovery():
    rng = np.random.default_rng(53)
    for _ in range(10):
        true = HorizonLine(rng.uniform(-0.05, 0.05), rng.uniform(80.0, 280.0))
        hm = rasterize_horizon(true, width=1242, height=375)
        fit = fit_horizon(hm)
        assert fit.k_h == pytest.approx(true.k_h, abs=1e-9)
        assert fit.b_h == pytest.approx(true.b_h, abs=1e-9)


def test_fit_horizon_tie_rows():
    # peak exactly between two rows: sub-pixel refinement resolves it
    fit = fit_horizon(rasterize_horizon(HorizonLine(0.0, 100.5), 600, 375))
    assert fit.b_h == pytest.approx(100.5, abs=1e-9)


def test_fit_horizon_degraded_above_image():
    hm = rasterize_horizon(HorizonLine(0.0, -1.5), width=600, height=375)
    line, info = fit_horizon(hm, with_info=True)
    assert info.degraded
    assert info.columns_used == 600
    assert line.b_h == pytest.approx(0.0, abs=1e-9)  # clipped peaks sit on row 0


# ---------------------------------------------------------------------------
# PGM round trip
# ---------------------------------------------------------------------------

def test_pgm_header_and_round_trip():
    hm = rasterize_horizon(HorizonLine(0.005, 180.25), width=200, height=120)
    data = heatmap_to_pgm(hm)
    assert data.startswith(b"P5\n200 120\n255\n")
    assert len(data) == len(b"P5\n200 120\n255\n") + 200 * 120
    back = heatmap_from_pgm(data)
    assert back.shape == (120, 200)
    assert np.abs(back - hm).max() <= 0.5 / 255.0 + 1e-12


def test_pgm_rejects_garbage():
    with pytest.raises(ValueError):
        heatmap_from_pgm(b"P6\n2 2\n255\n" + bytes(12))
    with pytest.raises(ValueError):
        heatmap_from_pgm(b"P5\n2 2\n255\n" + bytes(3))  # truncated body
    for empty in (b"P5\n0 0\n255\n", b"P5\n5 0\n255\n"):
        with pytest.raises(ValueError, match="PGM width and height must be at least 1"):
            heatmap_from_pgm(empty)
