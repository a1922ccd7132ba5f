import math

import numpy as np
import pytest

from compdepth import (
    GroundPlane,
    HorizonLine,
    fit_horizon,
    fit_planes,
    heatmap_from_pgm,
    horizon_pgm,
    horizon_to_plane,
    make_scene,
    plane_to_horizon,
    y_global,
)
from heatmap_reference import fit_reference, gap_px, polyfit_line, rasterize_reference


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
    # |b| below the guard: no height field, NaN like the rest of the geometry
    g = GroundPlane(1.0, 0.0, 0.0, 1.0)
    assert math.isnan(g.height_at(0.0, 10.0))
    g = GroundPlane(np.array([1.0, 0.0]), np.array([0.0, -1.0]), np.zeros(2), 1.0)
    assert np.array_equal(g.height_at(0.0, 10.0), [np.nan, 1.0], equal_nan=True)


def test_plane_is_unit_or_nan_elementwise():
    nan = math.nan
    GroundPlane(np.array([0.0, nan]), np.array([-1.0, nan]), np.array([0.0, nan]))
    for a, b, c in [(nan, -1.0, nan), (0.0, nan, nan), (nan, nan, 0.0), (math.inf, -1.0, 0.0),
                    (0.0, -1.0, 1e-4)]:
        with pytest.raises(ValueError, match="^plane coefficients must be unit-normalized"):
            GroundPlane(np.array([0.0, a]), np.array([-1.0, b]), np.array([0.0, c]))


# ---------------------------------------------------------------------------
# plane fitting
# ---------------------------------------------------------------------------

def fit_one(points) -> GroundPlane:
    """The plane of one frame, as scalars: fit_planes over a single segment."""
    g = fit_planes(points, [0, len(points)])
    return GroundPlane(g.a[0], g.b[0], g.c[0], g.cam_height[0])


def no_plane(g: GroundPlane) -> bool:
    return all(math.isnan(v) for v in (g.a, g.b, g.c))


def lstsq_plane(points) -> GroundPlane | None:
    """Reference fit by np.linalg.lstsq on the design [x, z, 1], with its
    rank, as the package fitted before the closed form; None where the rank
    or the normalization fails."""
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    design = np.column_stack([pts[:, 0], pts[:, 2], np.ones(len(pts))])
    (p, q, r), _, rank, _ = np.linalg.lstsq(design, pts[:, 1], rcond=None)
    if rank < 3 or not (math.isfinite(p * p + q * q) and math.isfinite(r)):
        return None
    return GroundPlane.from_heightfield(p, q, r)


def exact_cloud():
    true = GroundPlane.from_heightfield(0.01, -0.02, 1.62)
    rng = np.random.default_rng(7)
    pts = []
    for _ in range(40):
        x = rng.uniform(-20, 20)
        z = rng.uniform(5, 70)
        pts.append((x, true.height_at(x, z), z))
    return true, np.array(pts)


def test_fit_plane_exact_recovery():
    true, pts = exact_cloud()
    fitted = fit_one(pts)
    for got, want in zip(heightfield(fitted), heightfield(true)):
        assert got == pytest.approx(want, abs=1e-9)


def test_fit_planes_match_lstsq():
    """The closed form stays within 1e-12 of lstsq on every normalized
    coefficient, over 200 make_scene frames of 40 objects fitted in one call
    and over the exact-recovery cloud, and gives NaN where lstsq has no plane."""
    clouds = [np.array([(o.x, o.y, o.z) for o in make_scene(40, seed=seed).objects])
              for seed in range(200)]
    clouds += [exact_cloud()[1], clouds[0][:2], clouds[1][:0]]
    fitted = fit_planes(np.concatenate(clouds), np.cumsum([0] + [len(c) for c in clouds]))
    assert np.isnan(fitted.b).tolist() == [False] * 201 + [True, True]
    assert np.isnan([fitted.a, fitted.c, fitted.cam_height])[:, 201:].all()
    for i, cloud in enumerate(clouds[:201]):
        want = lstsq_plane(cloud)
        got = [fitted.a[i], fitted.b[i], fitted.c[i], fitted.cam_height[i]]
        assert np.abs(np.subtract(got, [want.a, want.b, want.c, want.cam_height])).max() <= 1e-12


def test_fit_plane_flat_cloud():
    pts = [(x, 1.65, z) for x, z in [(-3, 10), (4, 25), (0, 50), (7, 8)]]
    fitted = fit_one(pts)
    assert fitted.a == pytest.approx(0.0, abs=1e-12)
    assert fitted.b == pytest.approx(-1.0)
    assert fitted.cam_height == pytest.approx(1.65)


def test_fit_plane_fallback_too_few_points():
    assert no_plane(fit_one(np.array([(0.0, 1.7, 10.0), (1.0, 1.7, 20.0)])))


def test_fit_plane_fallback_collinear():
    # all points share x = 0: the x-slope column is all zero, rank 2
    pts = [(0.0, 1.6 + 0.01 * z, z) for z in (10.0, 20.0, 30.0, 40.0)]
    assert no_plane(fit_one(pts))


def test_fit_planes_rank_rule_on_a_slanted_line():
    """Points on the x-z line x = 0.3 * z - 1.7: rounding leaves the
    determinant a little above 0 but far below 1e-12 * Sxx * Szz, so the
    fit is NaN, as lstsq's rank of 2 says."""
    z = np.array([10.1, 20.3, 30.7, 41.9, 55.3])
    pts = np.column_stack([0.3 * z - 1.7, 1.6 + 0.01 * z, z])
    assert lstsq_plane(pts) is None
    assert no_plane(fit_one(pts))


@pytest.mark.parametrize("pts", [
    # the height field's intercept overflows to inf, and so do the centred sums
    [(1.0, 1e308, 20.0), (-2.0, -1e308, 30.0), (3.0, 1.6, 25.0)],
    # a finite slope of 1e200, whose square overflows when normalized
    [(0.0, 0.0, 10.0), (1.0, 1e200, 10.0), (0.0, 0.0, 20.0)],
])
def test_fit_plane_fallback_unnormalizable(pts):
    assert no_plane(fit_one(np.array(pts)))


def test_fit_plane_empty():
    assert no_plane(fit_one(np.empty((0, 3))))


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
    # |b| below the guard: no horizon, NaN like the rest of the geometry
    h = plane_to_horizon(GroundPlane(1.0, 0.0, 0.0, 1.0), simple_cam)
    assert math.isnan(h.k_h) and math.isnan(h.b_h)


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


@pytest.mark.parametrize("line", [HorizonLine(1e300, 0.0), HorizonLine(0.0, 1e300)])
def test_horizon_to_plane_too_steep(kitti_cam, line):
    # the unnormalized coefficients square past the float range
    assert no_plane(horizon_to_plane(line, kitti_cam))


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
    g = GroundPlane.from_heightfield(0.0, dy, 1.65)
    assert math.isnan(y_global(600.0, 300.0, g, simple_cam))


# ---------------------------------------------------------------------------
# heatmap rasterization and fitting
# ---------------------------------------------------------------------------

#: Largest gap, in pixels across the image width, that the benchmark allows
#: between a horizon refit from its PGM and the line it was drawn from.
HORIZON_TOL_PX = 0.01


def pixels(line, width, height):
    """The heatmap of a line as the uint8 pixels of its PGM."""
    return heatmap_from_pgm(horizon_pgm(line, width, height))


def test_rasterize_profile_values():
    hm = pixels(HorizonLine(0.0, 100.0), width=4, height=375)
    sigma = 2.0 / 3.0
    col = hm[:, 2]
    assert col[100] == 255
    assert col[101] == round(255 * math.exp(-1.0 / (2 * sigma**2)))
    assert col[99] == col[101]
    assert col[102] == round(255 * math.exp(-4.0 / (2 * sigma**2)))
    assert col[103] == 0  # beyond the truncation radius


def test_rasterize_partial_tail_above_image():
    hm = pixels(HorizonLine(0.0, -1.5), width=10, height=375)
    assert hm[0].min() > 0  # row 0 keeps the truncated tail
    assert np.all(hm[2:] == 0)


# The 2.0 column is HEATMAP_RADIUS; it only keeps these rows' test ids.
@pytest.mark.parametrize("line,radius,message", [
    (HorizonLine(math.nan, 100.0), 2.0, "k_h must be finite"),
    (HorizonLine(math.inf, 100.0), 2.0, "k_h must be finite"),
    (HorizonLine(0.0, math.nan), 2.0, "b_h must be finite"),
    (HorizonLine(0.0, -math.inf), 2.0, "b_h must be finite"),
])
def test_rasterize_rejects_bad_input(line, radius, message):
    with pytest.raises(ValueError, match=message):
        horizon_pgm(line, width=8, height=6)


def test_rasterize_radius_beyond_image_height():
    # the 2 px window reaches past both image edges: every row of every
    # column lies inside it
    hm = pixels(HorizonLine(0.0, 1.0), width=5, height=3)
    sigma = 2.0 / 3.0
    expected = np.rint(255 * np.exp(-((np.arange(3) - 1.0) ** 2) / (2.0 * sigma * sigma)))
    assert np.array_equal(hm, np.repeat(expected[:, None], 5, axis=1))


def test_rasterize_overflowing_rows_stay_empty():
    # k_h * u overflows to inf from column 1 on: those rows are infinitely
    # far from the image, so only column 0 carries the profile
    with np.errstate(over="ignore"):
        hm = pixels(HorizonLine(1e308, 1.0), width=4, height=3)
    assert hm[1, 0] == 255 and hm[0, 0] > 0 and hm[2, 0] > 0
    assert np.all(hm[:, 1:] == 0)


def test_rasterize_far_line_all_zero():
    hm = pixels(HorizonLine(0.0, -10.0), width=10, height=375)
    assert np.all(hm == 0)
    with pytest.raises(ValueError, match="^only 0 usable columns$"):
        fit_horizon(hm)


def recovery_lines():
    rng = np.random.default_rng(53)
    return [HorizonLine(rng.uniform(-0.05, 0.05), rng.uniform(80.0, 280.0))
            for _ in range(10)]


def test_fit_horizon_exact_recovery():
    # 8-bit pixels keep the fit within the benchmark's tolerance, not exact
    for true in recovery_lines():
        fit = fit_horizon(pixels(true, width=1242, height=375))
        assert gap_px(fit, true, 1242) <= HORIZON_TOL_PX


def test_fit_horizon_closed_form_matches_polyfit():
    # the closed-form line against np.polyfit's through the same peaks; the
    # largest gap over these 30 lines was 3.7e-13 px
    scenes = [make_scene(1, seed=seed) for seed in range(20)]
    for true in recovery_lines() + [plane_to_horizon(s.plane, s.intrinsics) for s in scenes]:
        grid = pixels(true, width=1242, height=375)
        old, _ = fit_reference(grid / 255.0, line_fit=polyfit_line)
        assert gap_px(fit_horizon(grid), old, 1242) <= 1e-9


def test_fit_horizon_tie_rows():
    # peak exactly between two rows: sub-pixel refinement resolves it
    fit = fit_horizon(pixels(HorizonLine(0.0, 100.5), 600, 375))
    assert fit.b_h == pytest.approx(100.5, abs=1e-9)


def test_fit_horizon_degraded_above_image():
    hm = pixels(HorizonLine(0.0, -1.5), width=600, height=375)
    line, info = fit_horizon(hm, with_info=True)
    assert info.degraded
    assert info.columns_used == 600
    assert line.b_h == pytest.approx(0.0, abs=1e-9)  # clipped peaks sit on row 0


# ---------------------------------------------------------------------------
# PGM round trip
# ---------------------------------------------------------------------------

def test_pgm_header_and_round_trip():
    line = HorizonLine(0.05, 50.25)
    data = horizon_pgm(line, width=200, height=120)
    header = b"P5\n200 120\n255\n"
    assert data.startswith(header)
    assert len(data) == len(header) + 200 * 120
    back = heatmap_from_pgm(data)
    assert back.shape == (120, 200)
    assert back.dtype == np.uint8
    assert not back.flags.writeable
    assert np.count_nonzero(back) > 200  # the line crosses every column
    hm = rasterize_reference(line, 200, 120, 2.0)
    assert np.abs(back / 255.0 - hm).max() <= 0.5 / 255.0 + 1e-12
    assert back.tobytes() == data[len(header):]


@pytest.mark.parametrize("dtype", [np.int64, np.bool_, np.uint16, np.float64, np.float32])
def test_heatmap_rejects_other_dtypes(dtype):
    grid = np.ones((3, 4), dtype=dtype)
    message = f"^heatmap must be a uint8 array, got dtype {np.dtype(dtype)}$"
    with pytest.raises(ValueError, match=message):
        fit_horizon(grid)


def test_pgm_rejects_garbage():
    with pytest.raises(ValueError):
        heatmap_from_pgm(b"P6\n2 2\n255\n" + bytes(12))
    with pytest.raises(ValueError):
        heatmap_from_pgm(b"P5\n2 2\n255\n" + bytes(3))  # truncated body
    for empty in (b"P5\n0 0\n255\n", b"P5\n5 0\n255\n"):
        with pytest.raises(ValueError, match="PGM width and height must be at least 1"):
            heatmap_from_pgm(empty)
    with pytest.raises(ValueError, match="^expected maxval 255, got 65535$"):
        heatmap_from_pgm(b"P5\n2 2\n65535\n" + bytes(8))
