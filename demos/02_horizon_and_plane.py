"""
Ground planes and horizon lines are the same object
===================================================

A sloped road fixes where the horizon falls in the image, and a fitted
horizon line plus a camera height pins the road plane back down. This
script round-trips the two forms, rasterizes a horizon into a heatmap,
recovers it by least squares, and queries ground elevation per pixel.
"""

import tempfile
from pathlib import Path

import numpy as np

from compdepth import (
    CameraIntrinsics,
    GroundPlane,
    fit_horizon,
    fit_plane,
    heatmap_to_pgm,
    horizon_to_plane,
    plane_to_horizon,
    rasterize_horizon,
    y_global,
)

k = CameraIntrinsics(f_x=721.5377, f_y=721.5377, c_u=609.5593, c_v=172.854)

# a road tilting 1% sideways and 2% away from the camera, 1.62 m below it
plane = GroundPlane.from_heightfield(0.01, -0.02, 1.62)
print(f"plane normal ({plane.a:+.5f}, {plane.b:+.5f}, {plane.c:+.5f}), "
      f"camera height {plane.cam_height:.3f} m")

# the plane seen at infinite depth is a line in the image
h = plane_to_horizon(plane, k)
print(f"horizon row at image center: {h.k_h * k.c_u + h.b_h:.2f} px, "
      f"slope {h.k_h:+.5f}")

# with the camera height, the line converts back to the identical plane
back = horizon_to_plane(h, k, cam_height=plane.cam_height)
print(f"round-trip error {max(abs(back.a - plane.a), abs(back.b - plane.b), abs(back.c - plane.c)):.2e}")

# a detector would predict the horizon as a per-column heatmap; simulate
# one, write it out as a PGM, and fit the line back with sub-pixel peaks
grid = rasterize_horizon(h, width=1242, height=375)
pgm = Path(tempfile.mkdtemp()) / "demo_horizon.pgm"
pgm.write_bytes(heatmap_to_pgm(grid))
print(f"wrote {pgm} ({pgm.stat().st_size} bytes)")
fit, info = fit_horizon(grid, with_info=True)
print(f"fit over {info.columns_used} columns: intercept off by "
      f"{abs(fit.b_h - h.b_h):.2e} px, degraded={info.degraded}")

# ground elevation is then a closed form of the pixel alone, evaluated for
# many pixels in one call (NaN on the principal row, where the ray is level)
rows = np.array([220.0, 260.0, 330.0, k.c_v])
for v, y in zip(rows, y_global(k.c_u, rows, plane, k)):
    print(f"  pixel row {v:.0f} -> ground {y:.3f} m below camera")

# fitting a plane to sampled bottom-face points recovers the heightfield;
# with fewer than three points the fit degrades to a flat fallback
rng = np.random.default_rng(7)
x, z = rng.uniform(-15, 15, 40), rng.uniform(5, 60, 40)
pts = np.column_stack([x, 0.01 * x - 0.02 * z + 1.62, z])
refit, fit_info = fit_plane(pts)
print(f"refit cam_height {refit.cam_height:.4f} m from {len(pts)} points, "
      f"fallback={fit_info.used_fallback}")
