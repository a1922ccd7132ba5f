"""Ground-plane and horizon-line geometry, plus the horizon heatmap pipeline.

A ground plane is stored as a*x + b*y + c*z + cam_height = 0 with (a, b, c)
unit-normalized; cam_height is then the camera's perpendicular distance above
the plane and doubles as the constant term of the normalized equation. For
ground below a y-down camera, b < 0. The horizon line is the image of the
plane's directions at infinity, written v = k_h * u + b_h; it pins the
plane's orientation but not its offset, which is why conversions from a
horizon take cam_height as an explicit argument.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass

import numpy as np

from .camera import DEFAULT_EPS_DEN, CameraIntrinsics

#: Default camera mounting height above ground, in meters.
DEFAULT_CAM_HEIGHT = 1.65

#: Half-width of a horizon heatmap's vertical Gaussian window, in pixels.
HEATMAP_RADIUS = 2.0


@dataclass(frozen=True)
class GroundPlane:
    """Plane a*x + b*y + c*z + cam_height = 0, (a, b, c) a unit normal or all NaN."""

    a: float
    b: float
    c: float
    cam_height: float = DEFAULT_CAM_HEIGHT

    @np.errstate(over="ignore", invalid="ignore")
    def __post_init__(self):
        a, b, c = np.array((self.a, self.b, self.c), dtype=float)
        unit = np.abs(a * a + b * b + c * c - 1.0) <= 1e-9
        if not (unit | (np.isnan(a) & np.isnan(b) & np.isnan(c))).all():
            raise ValueError(
                "plane coefficients must be unit-normalized; "
                "use from_heightfield() to build a plane from a height field"
            )

    @classmethod
    @np.errstate(over="ignore", invalid="ignore")
    def from_heightfield(cls, p, q, r) -> "GroundPlane":
        """Plane through the height field y = p*x + q*z + r: the triple
        (p, -1, q) and the constant r, rescaled together to a unit normal."""
        norm = np.sqrt(p * p + 1.0 + q * q)
        return cls(p / norm, -1.0 / norm, q / norm, r / norm)

    @np.errstate(divide="ignore", invalid="ignore", over="ignore")
    def height_at(self, x, z):
        """Vertical (y) coordinate of the plane below camera-frame (x, z); NaN
        where |b| < DEFAULT_EPS_DEN (a vertical plane has no height field)."""
        y = np.divide(-(self.a * x + self.c * z + self.cam_height), self.b)
        return np.where(np.abs(self.b) < DEFAULT_EPS_DEN, np.nan, y)[()]


@dataclass(frozen=True)
class HorizonLine:
    """Image line v = k_h * u + b_h (slope in px/px, intercept in px)."""

    k_h: float
    b_h: float


@dataclass(frozen=True)
class HorizonFitInfo:
    columns_used: int
    rms_residual: float
    degraded: bool  # sparse column coverage, or peaks clipped at the border


# ---------------------------------------------------------------------------
# plane fitting
# ---------------------------------------------------------------------------

@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def fit_planes(points, bounds) -> GroundPlane:
    """Least-squares ground plane of each frame through its object bottom
    centers, as one plane of per-frame arrays: points holds (N, 3) camera-frame
    (x, y, z) rows, frame i's being rows bounds[i]:bounds[i + 1]. Fits
    y = p*x + q*z + r from the centred 2x2 normal equations, solved by their
    explicit inverse, and normalizes.

    Elementwise numpy and per-frame sums in row order only: no BLAS kernel
    picks the last bits, and a frame fits the same alone as among others.
    NaN where the points pin no plane: fewer than 3 points, det <= 1e-12 *
    Sxx * Szz (all collinear in the x-z plane), or p*p + q*q or r not finite.
    """
    x, y, z = np.asarray(points, dtype=float).reshape(-1, 3).T
    counts = np.diff(bounds)
    frame = np.repeat(np.arange(counts.size), counts)
    mx, my, mz = (np.bincount(frame, v, counts.size) / counts for v in (x, y, z))
    dx, dy, dz = x - mx[frame], y - my[frame], z - mz[frame]
    sxx, sxz, szz, sxy, szy = (np.bincount(frame, u * v, counts.size) for u, v in
                               ((dx, dx), (dx, dz), (dz, dz), (dx, dy), (dz, dy)))
    det = sxx * szz - sxz * sxz
    p, q = (szz * sxy - sxz * szy) / det, (sxx * szy - sxz * sxy) / det
    r = my - p * mx - q * mz
    ok = (counts >= 3) & (det > 1e-12 * sxx * szz) & np.isfinite(p * p + q * q) & np.isfinite(r)
    return GroundPlane.from_heightfield(*(np.where(ok, v, np.nan) for v in (p, q, r)))


# ---------------------------------------------------------------------------
# plane <-> horizon conversions
# ---------------------------------------------------------------------------

@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def horizon_to_plane(h: HorizonLine, k: CameraIntrinsics,
                     cam_height=DEFAULT_CAM_HEIGHT) -> GroundPlane:
    """Ground plane whose directions at infinity image to the given horizon.

    The horizon fixes the orientation only: up to positive scale the
    coefficients are (k_h * f_x / f_y, -1, (k_h * c_u + b_h - c_v) / f_y).
    The offset comes from cam_height, stored as the constant term of the
    normalized equation.

    NaN in a, b and c where that triple overflows: the plane is too close to
    vertical to normalize.
    """
    a0 = h.k_h * k.f_x / k.f_y
    c0 = (h.k_h * k.c_u + h.b_h - k.c_v) / k.f_y
    norm = np.sqrt(a0 * a0 + 1.0 + c0 * c0)
    norm = np.where(np.isfinite(norm), norm, np.nan)[()]
    return GroundPlane(a0 / norm, -1.0 / norm, c0 / norm, cam_height)


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def plane_to_horizon(g: GroundPlane, k: CameraIntrinsics) -> HorizonLine:
    """Horizon line of a ground plane.

    NaN where |b| < DEFAULT_EPS_DEN: a vertical plane has no horizon in the
    slope-intercept parameterization.
    """
    k_h = np.divide(-g.a * k.f_y, g.b * k.f_x)
    b_h = np.divide(-g.c * k.f_y, g.b) - k_h * k.c_u + k.c_v
    vertical = np.abs(g.b) < DEFAULT_EPS_DEN
    return HorizonLine(np.where(vertical, np.nan, k_h)[()], np.where(vertical, np.nan, b_h)[()])


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def y_global(u_b, v_b, g: GroundPlane, k: CameraIntrinsics):
    """Elevation of the ground point seen at bottom pixel (u_b, v_b),
    elementwise over scalars or arrays.

    Intersects the viewing ray through the pixel with the ground plane and
    returns the y of the hit. Closed form: parameterizing the ray by y gives
    x = n*y and z = m*y with n = f_y*(u_b - c_u) / (f_x*(v_b - c_v)) and
    m = f_y / (v_b - c_v), so y = -cam_height / (a*n + c*m + b).

    NaN where |v_b - c_v| < DEFAULT_EPS_DEN (the pixel is on the principal
    row) or |a*n + c*m + b| < DEFAULT_EPS_DEN (the ray runs parallel to the
    plane).
    """
    row = np.subtract(v_b, k.c_v)
    n = k.f_y * np.subtract(u_b, k.c_u) / (k.f_x * row)
    m = k.f_y / row
    den = g.a * n + g.c * m + g.b
    fail = (np.abs(row) < DEFAULT_EPS_DEN) | (np.abs(den) < DEFAULT_EPS_DEN)
    return np.where(fail, np.nan, -g.cam_height / den)[()]


# ---------------------------------------------------------------------------
# horizon heatmap: binary PGM (P5, maxval 255, row-major), read as uint8 pixels
# ---------------------------------------------------------------------------

def _horizon_band(k_h: float, b_h: float, width: int, height: int):
    """The PGM of the heatmap of the horizon line v = k_h * u + b_h, in four
    parts: (header, top, band, below).

    header is the P5 header; band is the (rows, width) uint8 array of the
    rows the Gaussian window touches, after top all-zero rows and before
    below all-zero rows. A line whose window misses the image has an empty
    band and top == height.

    Raises ValueError for a non-finite line or an empty image.
    """
    if width < 1 or height < 1:
        raise ValueError("heatmap dimensions must be at least 1x1")
    if not math.isfinite(k_h):
        raise ValueError(f"k_h must be finite, got {k_h}")
    if not math.isfinite(b_h):
        raise ValueError(f"b_h must be finite, got {b_h}")
    header = f"P5\n{width} {height}\n255\n".encode("ascii")
    sigma = HEATMAP_RADIUS / 3.0
    v = k_h * np.arange(width) + b_h
    lo = np.maximum(0.0, np.ceil(v - HEATMAP_RADIUS))
    hi = np.minimum(height - 1.0, np.floor(v + HEATMAP_RADIUS))
    cols = np.nonzero(lo <= hi)[0]
    if not cols.size:
        return header, height, np.zeros((0, width), dtype=np.uint8), 0
    v, lo, hi = v[cols], lo[cols].astype(np.intp), hi[cols].astype(np.intp)
    top = int(lo.min())
    band = np.zeros((int(hi.max()) + 1 - top, width), dtype=np.uint8)
    # One (offsets, columns) grid of every column's window rows, at most
    # floor(2 * radius) + 1 of them; the rows past a column's hi are masked.
    rows = lo + np.arange(int((hi - lo).max()) + 1)[:, None]
    inside = rows <= hi
    value = np.exp(-((rows - v) ** 2) / (2.0 * sigma * sigma))
    # exp of a non-positive number lies in [0, 1], so every rounded pixel
    # is a whole number in 0..255
    value *= 255.0
    np.rint(value, out=value)
    band.reshape(-1)[((rows - top) * width + cols)[inside]] = value[inside]
    return header, top, band, height - top - len(band)


def horizon_pgm(h: HorizonLine, width: int, height: int) -> bytes:
    """Render a horizon line as a (height, width) heatmap, written as a
    binary PGM (P5, maxval 255).

    Each column u gets a 1-D Gaussian centered on the line row v(u), with
    sigma = HEATMAP_RADIUS / 3, truncated at +/- HEATMAP_RADIUS and peak
    value 1; a value is stored as the pixel round(255 * value). Columns
    whose line row falls outside the image keep whatever truncated tail
    still intersects the image; columns farther away than the radius stay
    zero. Only the band of rows the window touches is computed; every other
    pixel is a zero byte. write_horizon_pgms writes the same bytes to files.

    Raises ValueError for a non-finite line or an empty image.
    """
    header, top, band, below = _horizon_band(h.k_h, h.b_h, width, height)
    return b"".join((header, bytes(top * width), band, bytes(below * width)))


def write_horizon_pgms(paths, horizon: HorizonLine, width: int, height: int):
    """Write horizon_pgm of each frame's line to its path, in order: horizon
    is a HorizonLine of per-frame arrays, frame i's line going to paths[i].

    Each file is written in place from its parts: the header, a zero run
    sliced from one zero buffer, the band and a closing zero run. An
    existing file is overwritten from its start, without truncating it
    first, and then cut to its length; it keeps its permissions, and a new
    file gets 0o666 less the umask. A write that fails partway leaves the
    new prefix over the old file's tail.

    Raises ValueError for a non-finite line or an empty image, and OSError
    for a path that cannot be written, after every earlier file is written.
    """
    # max: a negative size is left to _horizon_band's error
    zeros = memoryview(bytes(max(height * width, 0)))
    for path, k_h, b_h in zip(paths, horizon.k_h, horizon.b_h):
        header, top, band, below = _horizon_band(k_h, b_h, width, height)
        with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as f:
            f.writelines((header, zeros[:top * width], band, zeros[:below * width]))
            f.truncate()


def fit_horizon(grid: np.ndarray, with_info: bool = False):
    """Recover a horizon line from the (height, width) uint8 pixels of a
    heatmap, such as heatmap_from_pgm returns, read as pixel / 255.

    Takes the per-column peak location, skips columns with no positive
    evidence (an all-zero column is legal), and fits a line by ordinary
    least squares, in closed form from the centred sums (no LAPACK or BLAS
    call).

    Peaks are localized to sub-pixel precision: the vertical profile is
    Gaussian, so its log is quadratic in the row index and a three-point
    parabola through the argmax recovers the true center whenever both
    neighbouring rows carry evidence. Columns whose peak sits on the
    image border keep the integer argmax row (ties resolve to the
    smallest row).

    Raises ValueError for a grid of any other dtype or when fewer than 2
    columns carry evidence.
    """
    if grid.dtype != np.uint8:
        raise ValueError(f"heatmap must be a uint8 array, got dtype {grid.dtype}")
    width = grid.shape[1]
    # pixel / 255 is strictly increasing in the pixel, so the argmax and
    # the evidence test read the pixels as given; only the three rows of
    # the parabola become floats.
    # A positive column peak lies between the first and last nonzero rows,
    # so the search skips the all-zero rows above and below them. A row's
    # max is nonzero where any of its pixels is, and is the faster test;
    # initial=0 keeps a grid without columns to the column count's error.
    nonzero_rows = np.flatnonzero(grid.max(axis=1, initial=0))
    top, bottom = ((nonzero_rows[0], nonzero_rows[-1] + 1) if nonzero_rows.size
                   else (0, grid.shape[0]))
    argmax = top + np.argmax(grid[top:bottom], axis=0)
    cols = np.nonzero(grid[argmax, np.arange(width)] > 0)[0]
    if cols.size < 2:
        raise ValueError(f"only {cols.size} usable columns")
    argmax = argmax[cols]
    rows = argmax.astype(float)

    inner = (argmax > 0) & (argmax < grid.shape[0] - 1)
    ci, ri = cols[inner], argmax[inner]
    lo, mid, hi = (grid[r, ci] / 255.0 for r in (ri - 1, ri, ri + 1))
    ok = (lo > 0.0) & (hi > 0.0)
    l0, l1, l2 = np.log(lo[ok]), np.log(mid[ok]), np.log(hi[ok])
    denom = l0 - 2.0 * l1 + l2
    good = denom < 0.0
    offset = np.zeros_like(denom)
    offset[good] = 0.5 * (l0[good] - l2[good]) / denom[good]
    np.clip(offset, -1.0, 1.0, out=offset)
    rows[np.nonzero(inner)[0][ok]] += offset

    border_frac = float(np.mean((argmax == 0) | (argmax == grid.shape[0] - 1)))

    # slope sum(dx * dy) / sum(dx * dx) over the deviations from the means;
    # elementwise products and sums, where np.dot or @ would call BLAS
    x = cols.astype(float)
    x_mean, y_mean = x.mean(), rows.mean()
    dx = x - x_mean
    k_h = np.sum(dx * (rows - y_mean)) / np.sum(dx * dx)
    line = HorizonLine(float(k_h), float(y_mean - k_h * x_mean))
    if not with_info:
        return line
    residuals = rows - (line.k_h * cols + line.b_h)
    return line, HorizonFitInfo(columns_used=int(cols.size),
                                rms_residual=float(np.sqrt(np.mean(residuals ** 2))),
                                degraded=cols.size < 0.5 * width or border_frac > 0.25)


#: Whitespace or a '#' comment, which runs to the end of its line, between
#: the tokens of a PGM header.
_PGM_SEP = rb"(?:\s|#[^\r\n]*[\r\n])+"


def heatmap_from_pgm(data: bytes) -> np.ndarray:
    """Parse a binary PGM (P5, maxval 255), such as horizon_pgm writes.

    Comments may stand between the header tokens. Returns the pixels as a
    read-only (height, width) uint8 view of `data`, without a copy;
    fit_horizon reads them as pixel / 255.
    """
    match = re.match(rb"P5%s(\d+)%s(\d+)%s(\d+)\s" % ((_PGM_SEP,) * 3), data)
    if match is None:
        raise ValueError("not a binary P5 PGM")
    width, height, maxval = (int(g) for g in match.groups())
    if width < 1 or height < 1:
        raise ValueError("PGM width and height must be at least 1")
    if maxval != 255:
        raise ValueError(f"expected maxval 255, got {maxval}")
    body = memoryview(data).toreadonly()[match.end():]
    if len(body) != width * height:
        raise ValueError(f"expected {width * height} pixel bytes, got {len(body)}")
    return np.frombuffer(body, dtype=np.uint8).reshape(height, width)
