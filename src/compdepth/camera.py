"""Ideal pinhole camera math.

Conventions follow the KITTI camera frame: x right, y down, z forward
(optical axis). Pixel u indexes columns, v indexes rows. All geometry here
assumes zero skew and ignores lens distortion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NonPositiveDepth

#: Default guard, in pixels, for divisions by image-row differences.
#: Shared by every singularity check in the package.
DEFAULT_EPS_DEN = 1e-6


@dataclass(frozen=True)
class CameraIntrinsics:
    """Focal lengths and principal point, in pixels."""

    f_x: float
    f_y: float
    c_u: float
    c_v: float

    def __post_init__(self):
        values = (self.f_x, self.f_y, self.c_u, self.c_v)
        if not all(math.isfinite(v) for v in values):
            raise ValueError("intrinsics must be finite")
        if self.f_x <= 0 or self.f_y <= 0:
            raise ValueError("focal lengths must be strictly positive")


@dataclass(frozen=True)
class Point3D:
    """Camera-frame point in meters (y points down)."""

    x: float
    y: float
    z: float


@dataclass(frozen=True)
class Pixel:
    u: float
    v: float


def project(p: Point3D, k: CameraIntrinsics) -> Pixel:
    """Project a camera-frame point onto the image plane.

    Raises NonPositiveDepth when the point is at or behind the camera.
    """
    if p.z <= 0:
        raise NonPositiveDepth(f"cannot project point with z={p.z}")
    return Pixel(k.f_x * p.x / p.z + k.c_u, k.f_y * p.y / p.z + k.c_v)
