"""Seeded synthetic scenes: labeled boxes resting exactly on a known plane.

Scenes are built so every sampled object is geometrically benign (bottom on
the plane, top safely below the camera's horizontal plane); that makes them
usable as exactness fixtures where every depth estimator must recover the
true depth to within floating-point error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .camera import CameraIntrinsics, project
from .ground_plane import GroundPlane
from .kitti_io import Object3D

#: Intrinsics in the ballpark of a forward road camera (image ~1242x375).
DEFAULT_INTRINSICS = CameraIntrinsics(f_x=721.5377, f_y=721.5377,
                                      c_u=609.5593, c_v=172.854)
_BLOCK = 1 << 15  # most triples of doubles make_scene draws at once


@dataclass(frozen=True)
class Scene:
    intrinsics: CameraIntrinsics
    plane: GroundPlane
    objects: tuple[Object3D, ...]


def random_plane(rng: np.random.Generator, slope_max_deg: float = 5.0,
                 cam_height: float = 1.65) -> GroundPlane:
    """Ground plane with a uniformly random tilt direction, tilt angle up to
    slope_max_deg, passing cam_height meters below the camera at the origin."""
    direction = rng.uniform(0.0, 2.0 * math.pi)
    gradient = math.tan(rng.uniform(0.0, math.radians(slope_max_deg)))
    p = gradient * math.cos(direction)
    q = gradient * math.sin(direction)
    return GroundPlane.from_heightfield(p, q, cam_height)


@np.errstate(over="ignore", invalid="ignore")  # silent, as the scalar loop was
def make_scene(n_objects: int, seed: int, *,
               intrinsics: CameraIntrinsics = DEFAULT_INTRINSICS,
               slope_max_deg: float = 5.0,
               depth_range: tuple[float, float] = (5.0, 60.0),
               height_range: tuple[float, float] = (1.0, 2.0),
               cam_height: float = 1.65,
               min_clearance: float = 0.15) -> Scene:
    """Sample boxes standing on a random sloped plane.

    Rejection sampling keeps every object's top at least min_clearance
    meters below the camera's horizontal plane (ground elevation minus box
    height stays positive), so no estimator hits a singularity guard. Each
    2D box is the amodal image extent of the 3D box's eight corners.

    The stream is read as triples: each attempt reads (z, x, h), an accepted
    one (w, l, theta) from the next triple. Blocks of triples are tested at
    once, then walked, so the boxes equal a draw-by-draw loop's bit for bit.

    Raises ValueError when a range is reversed or has no finite width, when
    even the best corner of the sampled region (x = +-0.3 z at either end of
    depth_range, lowest height) misses min_clearance, or when a box or a box
    corner lies at or behind the camera (depth_range starting too close).
    """
    rng = np.random.default_rng(seed)
    plane = random_plane(rng, slope_max_deg, cam_height)
    (z_lo, z_hi), (h_lo, h_hi) = (map(float, r) for r in (depth_range, height_range))
    if n_objects > 0:
        for name, lo, hi in (("depth_range", z_lo, z_hi), ("height_range", h_lo, h_hi)):
            if not math.isfinite(hi - lo) or math.copysign(1.0, hi - lo) < 0:  # -0.0 too
                raise ValueError(f"{name}=({lo}, {hi}) needs lo <= hi and a finite width")
        corner_z = np.array([z_lo, z_lo, z_hi, z_hi])
        margin = plane.height_at(corner_z * [-0.3, 0.3, -0.3, 0.3], corner_z).max() - h_lo
        if margin < min_clearance:  # equal or NaN passes, as in the sampler
            raise ValueError(f"no box keeps min_clearance={min_clearance}: at best y - h = "
                             f"{margin:.6g} m for depth_range={depth_range}, height_range="
                             f"{height_range}, slope_max_deg={slope_max_deg}, "
                             f"cam_height={cam_height}")

    boxes = []  # x, y, z, h, w, l, theta, alpha, cos(theta), sin(theta)
    tail = np.empty((0, 3))  # drawn triples that the walk has not reached
    while len(boxes) < n_objects:
        # 64 triples per box still missing: most scenes need one block
        t = np.concatenate([tail, rng.random((min(_BLOCK, 64 * (n_objects - len(boxes))), 3))])
        # Generator.uniform(lo, hi) is lo + (hi - lo) * next_double
        z = z_lo + (z_hi - z_lo) * t[:, 0]
        x = -0.3 * z + (0.3 * z - -0.3 * z) * t[:, 1]
        h = h_lo + (h_hi - h_lo) * t[:, 2]
        y = plane.height_at(x, z)
        passed = ~(y - h < min_clearance)  # NaN passes, as `<` fails
        taken, after = [], 0  # rows accepted; row after - 1 holds the last one's w, l, theta
        for r in np.flatnonzero((passed | (z < 0))[:-1]).tolist():
            if r >= after and len(boxes) + len(taken) < n_objects:
                if z[r] < 0:  # where Generator.uniform(-0.3 z, 0.3 z) raises
                    raise ValueError(f"a box at z={z[r]} lies behind the camera; "
                                     "raise depth_range")
                taken.append(r)
                after = r + 2
        tail = t[max(after, len(t) - 1):]  # the last row's w, l, theta are not drawn yet
        rows = np.array(taken, dtype=np.intp)
        lo, hi = np.array([1.4, 3.0, -math.pi]), np.array([2.0, 4.8, math.pi])  # w, l, theta
        for x_, y_, z_, h_, w_, l_, theta_ in np.column_stack(
                [x[rows], y[rows], z[rows], h[rows], lo + (hi - lo) * t[rows + 1]]).tolist():
            alpha = math.remainder(theta_ - math.atan2(x_, z_), 2.0 * math.pi)
            boxes.append((x_, y_, z_, h_, w_, l_, theta_, alpha,
                          math.cos(theta_), math.sin(theta_)))
    objects = tuple(
        Object3D(class_name="Car", truncation=0.0, occlusion=0, alpha=alpha,
                 bbox2d=bbox, h=h, w=w, l=l, x=x, y=y, z=z, theta=theta)
        for (x, y, z, h, w, l, theta, alpha, _, _), bbox
        in zip(boxes, _amodal_bboxes(np.array(boxes).reshape(-1, 10), intrinsics)))
    return Scene(intrinsics=intrinsics, plane=plane, objects=objects)


def _amodal_bboxes(boxes: np.ndarray, k: CameraIntrinsics) -> list[tuple]:
    """(left, top, right, bottom) of each box's projected corners, with all
    corners of all boxes projected in one call."""
    x, y, z, h, w, l, _, _, cos_t, sin_t = (col[:, None] for col in boxes.T)
    # the four footprint corners (+-l/2 along the heading, +-w/2 across)
    dx = l / 2.0 * np.array([1.0, 1.0, -1.0, -1.0])
    dz = w / 2.0 * np.array([1.0, -1.0, -1.0, 1.0])
    cx = x + dx * cos_t + dz * sin_t
    cz = z - dx * sin_t + dz * cos_t
    if not (cz > 0).all():
        raise ValueError("a box corner lies at or behind the camera; raise depth_range")
    # each footprint corner on the bottom face (y) and on the top face (y - h)
    cy = np.broadcast_to(y, cx.shape)
    u, v = project(np.hstack([cx, cx]), np.hstack([cy, cy - h]), np.hstack([cz, cz]), k)
    return list(map(tuple, np.column_stack([u.min(axis=1), v.min(axis=1),
                                            u.max(axis=1), v.max(axis=1)]).tolist()))
