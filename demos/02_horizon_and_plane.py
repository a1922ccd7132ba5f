"""
Ground planes and horizon lines are the same object
===================================================

A sloped road fixes where the horizon falls in the image, and a fitted
horizon line plus a camera height pins the road plane back down. This
script round-trips the two forms, rasterizes a horizon into a heatmap,
writes it as a PGM, recovers the line from the file by least squares,
and queries ground elevation per pixel.
"""

import tempfile
from pathlib import Path

import numpy as np

from compdepth import (
    CameraIntrinsics,
    GroundPlane,
    fit_horizon,
    fit_planes,
    heatmap_from_pgm,
    horizon_pgm,
    horizon_to_plane,
    plane_to_horizon,
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
# one as a PGM, which encodes only the rows near the line, and fit the
# line back from the file with sub-pixel peaks
pgm = Path(tempfile.mkdtemp()) / "demo_horizon.pgm"
pgm.write_bytes(horizon_pgm(h, width=1242, height=375))
print(f"wrote {pgm} ({pgm.stat().st_size} bytes)")
# the PGM reads back as its uint8 pixels, without a copy; their 8-bit
# quantization costs a little precision against the true line
fit, info = fit_horizon(heatmap_from_pgm(pgm.read_bytes()), with_info=True)
print(f"fit over {info.columns_used} columns: intercept off by "
      f"{abs(fit.b_h - h.b_h):.2e} px, slope off by {abs(fit.k_h - h.k_h):.2e}, "
      f"degraded={info.degraded}")

# ground elevation is then a closed form of the pixel alone, evaluated for
# many pixels in one call (NaN on the principal row, where the ray is level)
rows = np.array([220.0, 260.0, 330.0, k.c_v])
for v, y in zip(rows, y_global(k.c_u, rows, plane, k)):
    print(f"  pixel row {v:.0f} -> ground {y:.3f} m below camera")

# fitting a plane to sampled bottom-face points recovers the heightfield.
# One call fits every frame, into one plane of per-frame arrays: here rows
# 0:40 are one frame and rows 40:42 another. Points that pin no plane (fewer
# than three, or all on one line) give NaN coefficients, and the caller
# picks the fallback (the CLI takes a flat plane)
rng = np.random.default_rng(7)
x, z = rng.uniform(-15, 15, 40), rng.uniform(5, 60, 40)
pts = np.column_stack([x, 0.01 * x - 0.02 * z + 1.62, z])
refit = fit_planes(np.concatenate([pts, pts[:2]]), [0, 40, 42])
print(f"refit cam_height {refit.cam_height[0]:.4f} m from {len(pts)} points; "
      f"from 2 points: normal ({refit.a[1]}, {refit.b[1]}, {refit.c[1]})")
