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
import re
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .camera import DEFAULT_EPS_DEN, CameraIntrinsics, Point3D
from .errors import (
    DegeneratePlane,
    EmptyInput,
    HorizonSingularity,
    InsufficientSupport,
    RayParallelToPlane,
)

#: Default camera mounting height above ground, in meters.
DEFAULT_CAM_HEIGHT = 1.65


@dataclass(frozen=True)
class GroundPlane:
    """Plane a*x + b*y + c*z + cam_height = 0, coefficients unit-normalized."""

    a: float
    b: float
    c: float
    cam_height: float = DEFAULT_CAM_HEIGHT

    def __post_init__(self):
        norm2 = self.a * self.a + self.b * self.b + self.c * self.c
        if not math.isfinite(norm2) or abs(norm2 - 1.0) > 1e-9:
            raise ValueError(
                "plane coefficients must be unit-normalized; "
                "use from_coefficients() to normalize arbitrary triples"
            )

    @classmethod
    def from_coefficients(cls, a: float, b: float, c: float,
                          constant: float) -> "GroundPlane":
        """Normalize an arbitrary plane a*x + b*y + c*z + constant = 0.

        The sign is fixed so b <= 0 (ground below the camera); the constant
        is rescaled together with the coefficients.
        """
        norm = math.sqrt(a * a + b * b + c * c)
        if norm == 0 or not math.isfinite(norm):
            raise ValueError("plane coefficients must be finite and not all zero")
        if b > 0:
            a, b, c, constant = -a, -b, -c, -constant
        return cls(a / norm, b / norm, c / norm, constant / norm)

    @classmethod
    def from_heightfield(cls, p: float, q: float, r: float) -> "GroundPlane":
        """Plane through the height field y = p*x + q*z + r."""
        return cls.from_coefficients(p, -1.0, q, r)

    def height_at(self, x: float, z: float) -> float:
        """Vertical (y) coordinate of the plane below camera-frame (x, z)."""
        if abs(self.b) < DEFAULT_EPS_DEN:
            raise DegeneratePlane("vertical plane has no height field")
        return -(self.a * x + self.c * z + self.cam_height) / self.b

    def heightfield(self) -> tuple[float, float, float]:
        """(p, q, r) of the equivalent height field y = p*x + q*z + r."""
        if abs(self.b) < DEFAULT_EPS_DEN:
            raise DegeneratePlane("vertical plane has no height field")
        return (-self.a / self.b, -self.c / self.b, -self.cam_height / self.b)


@dataclass(frozen=True)
class HorizonLine:
    """Image line v = k_h * u + b_h (slope in px/px, intercept in px)."""

    k_h: float
    b_h: float

    def row_at(self, u: float) -> float:
        return self.k_h * u + self.b_h


@dataclass(frozen=True, eq=False)
class HorizonHeatmap:
    """Dense per-pixel horizon evidence, values in [0, 1], shape (height, width).

    Columns of an all-zero heatmap region (line far outside the image) are
    legal; line fitting skips them.
    """

    grid: np.ndarray

    @property
    def height(self) -> int:
        return self.grid.shape[0]

    @property
    def width(self) -> int:
        return self.grid.shape[1]


@dataclass(frozen=True)
class PlaneFitInfo:
    n_points: int
    rank: int
    used_fallback: bool


@dataclass(frozen=True)
class HorizonFitInfo:
    columns_used: int
    width: int
    rms_residual: float
    degraded: bool  # sparse column coverage, or peaks clipped at the border


# ---------------------------------------------------------------------------
# plane fitting
# ---------------------------------------------------------------------------

def fit_plane(bottom_points: Sequence[Point3D],
              fallback_height: float = DEFAULT_CAM_HEIGHT,
              with_info: bool = False):
    """Least-squares ground plane through object bottom-center points.

    Fits the height field y = p*x + q*z + r and normalizes. With fewer than
    3 points, or a rank-deficient system (e.g. all points collinear in the
    x-z plane), falls back to the flat plane y = fallback_height.

    Raises EmptyInput when no points are given.
    """
    pts = list(bottom_points)
    if not pts:
        raise EmptyInput("plane fit needs at least one point")

    n = len(pts)
    plane = None
    rank = 0
    if n >= 3:
        xs = np.array([p.x for p in pts])
        ys = np.array([p.y for p in pts])
        zs = np.array([p.z for p in pts])
        design = np.column_stack([xs, zs, np.ones(n)])
        solution, _, rank, _ = np.linalg.lstsq(design, ys, rcond=None)
        if rank == 3:
            p, q, r = (float(v) for v in solution)
            plane = GroundPlane.from_heightfield(p, q, r)

    used_fallback = plane is None
    if used_fallback:
        plane = GroundPlane(0.0, -1.0, 0.0, fallback_height)

    if with_info:
        return plane, PlaneFitInfo(n_points=n, rank=int(rank), used_fallback=used_fallback)
    return plane


# ---------------------------------------------------------------------------
# plane <-> horizon conversions
# ---------------------------------------------------------------------------

def horizon_to_plane(h: HorizonLine, k: CameraIntrinsics,
                     cam_height: float = DEFAULT_CAM_HEIGHT) -> GroundPlane:
    """Ground plane whose directions at infinity image to the given horizon.

    The horizon fixes the orientation only: up to positive scale the
    coefficients are (k_h * f_x / f_y, -1, (k_h * c_u + b_h - c_v) / f_y).
    The offset comes from cam_height, stored as the constant term of the
    normalized equation.
    """
    a0 = h.k_h * k.f_x / k.f_y
    c0 = (h.k_h * k.c_u + h.b_h - k.c_v) / k.f_y
    norm = math.sqrt(a0 * a0 + 1.0 + c0 * c0)
    return GroundPlane(a0 / norm, -1.0 / norm, c0 / norm, cam_height)


def plane_to_horizon(g: GroundPlane, k: CameraIntrinsics,
                     eps: float = DEFAULT_EPS_DEN) -> HorizonLine:
    """Horizon line of a ground plane.

    Raises DegeneratePlane when |b| < eps: a vertical plane has no horizon
    in the slope-intercept parameterization.
    """
    if abs(g.b) < eps:
        raise DegeneratePlane(f"|b| = {abs(g.b):.3g} is below {eps:.3g}")
    k_h = -g.a * k.f_y / (g.b * k.f_x)
    b_h = -g.c * k.f_y / g.b - k_h * k.c_u + k.c_v
    return HorizonLine(k_h, b_h)


def y_global(u_b: float, v_b: float, g: GroundPlane, k: CameraIntrinsics,
             eps: float = DEFAULT_EPS_DEN) -> float:
    """Elevation of the ground point seen at bottom pixel (u_b, v_b).

    Intersects the viewing ray through the pixel with the ground plane and
    returns the y of the hit. Closed form: parameterizing the ray by y gives
    x = n*y and z = m*y with n = f_y*(u_b - c_u) / (f_x*(v_b - c_v)) and
    m = f_y / (v_b - c_v), so y = -cam_height / (a*n + c*m + b).

    Raises:
        HorizonSingularity: |v_b - c_v| < eps.
        RayParallelToPlane: |a*n + c*m + b| < eps.
    """
    row = v_b - k.c_v
    if abs(row) < eps:
        raise HorizonSingularity(f"|v_b - c_v| = {abs(row):.3g} px is below {eps:.3g}")
    n = k.f_y * (u_b - k.c_u) / (k.f_x * row)
    m = k.f_y / row
    den = g.a * n + g.c * m + g.b
    if abs(den) < eps:
        raise RayParallelToPlane(f"|a*n + c*m + b| = {abs(den):.3g} is below {eps:.3g}")
    return -g.cam_height / den


# ---------------------------------------------------------------------------
# horizon heatmap
# ---------------------------------------------------------------------------

def rasterize_horizon(h: HorizonLine, width: int, height: int,
                      radius: float = 2.0) -> HorizonHeatmap:
    """Render a horizon line as a heatmap with a vertical Gaussian profile.

    Each column u gets a 1-D Gaussian centered on the line row v(u), with
    sigma = radius / 3, truncated at +/- radius and peak value 1. Columns
    whose line row falls outside the image keep whatever truncated tail
    still intersects the image; columns farther away than the radius stay
    zero.

    Raises ValueError for a non-finite line, a radius that is not finite
    and positive, or an empty image.
    """
    if width < 1 or height < 1:
        raise ValueError("heatmap dimensions must be at least 1x1")
    if not math.isfinite(h.k_h):
        raise ValueError(f"k_h must be finite, got {h.k_h}")
    if not math.isfinite(h.b_h):
        raise ValueError(f"b_h must be finite, got {h.b_h}")
    if not (math.isfinite(radius) and radius > 0):
        raise ValueError(f"radius must be finite and positive, got {radius}")
    sigma = radius / 3.0
    grid = np.zeros((height, width), dtype=float)
    v = h.k_h * np.arange(width) + h.b_h
    lo = np.maximum(0.0, np.ceil(v - radius))
    hi = np.minimum(height - 1.0, np.floor(v + radius))
    cols = np.nonzero(lo <= hi)[0]
    v, rows, hi = v[cols], lo[cols].astype(np.intp), hi[cols].astype(np.intp)
    # One pass per row offset inside the window (floor(2 * radius) + 1 at
    # most); each column leaves once its row passes hi <= height - 1, so
    # the loop also ends within height passes.
    while cols.size:
        grid[rows, cols] = np.exp(-((rows - v) ** 2) / (2.0 * sigma * sigma))
        more = rows < hi
        rows, cols, v, hi = rows[more] + 1, cols[more], v[more], hi[more]
    return HorizonHeatmap(grid)


def fit_horizon(m: HorizonHeatmap, trim: float = 0.0, with_info: bool = False):
    """Recover a horizon line from a heatmap.

    Takes the per-column peak location, skips columns with no positive
    evidence, and fits a line by ordinary least squares. With trim > 0,
    refits after dropping that fraction of columns with the worst
    residuals.

    Peaks are localized to sub-pixel precision: the vertical profile is
    Gaussian, so its log is quadratic in the row index and a three-point
    parabola through the argmax recovers the true center whenever both
    neighbouring rows carry evidence. Columns whose peak sits on the
    image border keep the integer argmax row (ties resolve to the
    smallest row).

    Raises InsufficientSupport when fewer than 2 columns carry evidence.
    """
    if not 0.0 <= trim < 1.0:
        raise ValueError("trim must be in [0, 1)")
    grid = m.grid
    argmax = np.argmax(grid, axis=0)
    cols = np.nonzero(grid[argmax, np.arange(m.width)] > 0.0)[0]
    if cols.size < 2:
        raise InsufficientSupport(f"only {cols.size} usable columns")
    argmax = argmax[cols]
    rows = argmax.astype(float)

    inner = (argmax > 0) & (argmax < grid.shape[0] - 1)
    ci, ri = cols[inner], argmax[inner]
    lo, mid, hi = grid[ri - 1, ci], grid[ri, ci], grid[ri + 1, ci]
    ok = (lo > 0.0) & (hi > 0.0)
    l0, l1, l2 = np.log(lo[ok]), np.log(mid[ok]), np.log(hi[ok])
    denom = l0 - 2.0 * l1 + l2
    good = denom < 0.0
    offset = np.zeros_like(denom)
    offset[good] = 0.5 * (l0[good] - l2[good]) / denom[good]
    np.clip(offset, -1.0, 1.0, out=offset)
    rows[np.nonzero(inner)[0][ok]] += offset

    border_frac = float(np.mean((argmax == 0) | (argmax == grid.shape[0] - 1)))

    k_h, b_h = np.polyfit(cols.astype(float), rows, 1)
    if trim > 0.0:
        residuals = np.abs(rows - (k_h * cols + b_h))
        keep = max(2, int(round((1.0 - trim) * cols.size)))
        order = np.argsort(residuals, kind="stable")[:keep]
        k_h, b_h = np.polyfit(cols[order].astype(float), rows[order], 1)
        cols, rows = cols[order], rows[order]

    line = HorizonLine(float(k_h), float(b_h))
    if not with_info:
        return line
    residuals = rows - (line.k_h * cols + line.b_h)
    info = HorizonFitInfo(
        columns_used=int(cols.size),
        width=m.width,
        rms_residual=float(np.sqrt(np.mean(residuals ** 2))),
        degraded=cols.size < 0.5 * m.width or border_frac > 0.25,
    )
    return line, info


# ---------------------------------------------------------------------------
# PGM import/export (binary P5, 8-bit, row-major)
# ---------------------------------------------------------------------------

def heatmap_to_pgm(m: HorizonHeatmap) -> bytes:
    """Serialize a heatmap as binary PGM (P5, maxval 255).

    Values are clipped to [0, 1] and scaled so 1.0 maps to 255.
    """
    header = f"P5\n{m.width} {m.height}\n255\n".encode("ascii")
    scaled = np.clip(m.grid, 0.0, 1.0)
    scaled *= 255.0
    np.rint(scaled, out=scaled)
    return header + scaled.astype(np.uint8).tobytes()


def heatmap_from_pgm(data: bytes) -> HorizonHeatmap:
    """Parse a binary PGM (P5, maxval 255) produced by heatmap_to_pgm."""
    match = re.match(rb"P5\s+(\d+)\s+(\d+)\s+(\d+)\s", data)
    if match is None:
        raise ValueError("not a binary P5 PGM")
    width, height, maxval = (int(g) for g in match.groups())
    if width < 1 or height < 1:
        raise ValueError("PGM width and height must be at least 1")
    if maxval != 255:
        raise ValueError(f"expected maxval 255, got {maxval}")
    body = data[match.end():]
    if len(body) != width * height:
        raise ValueError(f"expected {width * height} pixel bytes, got {len(body)}")
    # dividing the uint8 view makes the one float64 array
    return HorizonHeatmap(np.frombuffer(body, dtype=np.uint8).reshape(height, width) / 255.0)
