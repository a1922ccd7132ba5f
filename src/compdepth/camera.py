"""Ideal pinhole camera math.

Conventions follow the KITTI camera frame: x right, y down, z forward
(optical axis). Pixel u indexes columns, v indexes rows. All geometry here
assumes zero skew and ignores lens distortion.

The geometry functions of this package (project here, the depth kernels
in depth_branches, y_global in ground_plane) are elementwise: each takes
scalars or broadcastable arrays and returns NaN wherever the geometry is
undefined instead of raising, so one call covers a whole frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def project(x, y, z, k: CameraIntrinsics):
    """Pixel (u, v) of the camera-frame point (x, y, z); NaN where z <= 0
    (at or behind the camera)."""
    z = np.asarray(z, dtype=float)
    behind = z <= 0
    return (np.where(behind, np.nan, k.f_x * x / z + k.c_u)[()],
            np.where(behind, np.nan, k.f_y * y / z + k.c_v)[()])
