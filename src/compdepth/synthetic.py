"""Seeded synthetic scenes: labeled boxes resting exactly on a known plane.

Every scene is drawn from one fixed distribution. The ground plane tilts up
to 5 degrees in a uniformly random direction and passes DEFAULT_CAM_HEIGHT
below the camera. Boxes stand 5-60 m ahead (|x| <= 0.3 z), 1-2 m tall, and
their tops keep at least 0.15 m below the camera's horizontal plane. So every
object is geometrically benign, and the scenes serve as exactness fixtures
where every depth estimator must recover the true depth to within
floating-point error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .camera import CameraIntrinsics, project
from .ground_plane import DEFAULT_CAM_HEIGHT, GroundPlane
from .kitti_io import Object3D

#: Intrinsics in the ballpark of a forward road camera (image ~1242x375).
DEFAULT_INTRINSICS = CameraIntrinsics(f_x=721.5377, f_y=721.5377,
                                      c_u=609.5593, c_v=172.854)
_SLOPE_MAX_DEG = 5.0  # steepest ground tilt
_DEPTH_RANGE = (5.0, 60.0)  # box depth z, m
_HEIGHT_RANGE = (1.0, 2.0)  # box height h, m
_MIN_CLEARANCE = 0.15  # least y - h: box top below the camera's horizontal plane, m
_WLT_LO, _WLT_HI = np.array([1.4, 3.0, -math.pi]), np.array([2.0, 4.8, math.pi])  # w, l, theta
_BLOCK = 1 << 15  # most triples of doubles make_scene draws at once


@dataclass(frozen=True)
class Scene:
    intrinsics: CameraIntrinsics
    plane: GroundPlane
    objects: tuple[Object3D, ...]


def _random_plane(rng: np.random.Generator) -> GroundPlane:
    """Ground plane with a uniformly random tilt direction, tilt angle up to
    _SLOPE_MAX_DEG, passing DEFAULT_CAM_HEIGHT below the camera at the origin."""
    direction = rng.uniform(0.0, 2.0 * math.pi)
    gradient = math.tan(rng.uniform(0.0, math.radians(_SLOPE_MAX_DEG)))
    p = gradient * math.cos(direction)
    q = gradient * math.sin(direction)
    return GroundPlane.from_heightfield(p, q, DEFAULT_CAM_HEIGHT)


def make_scene(n_objects: int, seed: int) -> Scene:
    """Sample n_objects boxes standing on a random sloped plane.

    Rejection sampling keeps every object's top at least _MIN_CLEARANCE
    meters below the camera's horizontal plane (ground elevation minus box
    height stays positive), so no estimator hits a singularity guard. Each
    2D box is the amodal image extent of the 3D box's eight corners.

    The stream is read as triples: each attempt reads (z, x, h), an accepted
    one (w, l, theta) from the next triple. Blocks of triples are tested at
    once, then walked, so the boxes equal a draw-by-draw loop's bit for bit.
    Even on the steepest plane some attempts pass, so the loop ends.
    """
    rng = np.random.default_rng(seed)
    plane = _random_plane(rng)
    (z_lo, z_hi), (h_lo, h_hi) = _DEPTH_RANGE, _HEIGHT_RANGE

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
        taken, after = [], 0  # rows accepted; row after - 1 holds the last one's w, l, theta
        for r in np.flatnonzero((y - h >= _MIN_CLEARANCE)[:-1]).tolist():
            if r >= after and len(boxes) + len(taken) < n_objects:
                taken.append(r)
                after = r + 2
        tail = t[max(after, len(t) - 1):]  # the last row's w, l, theta are not drawn yet
        rows = np.array(taken, dtype=np.intp)
        for x_, y_, z_, h_, w_, l_, theta_ in np.column_stack(
                [x[rows], y[rows], z[rows], h[rows],
                 _WLT_LO + (_WLT_HI - _WLT_LO) * t[rows + 1]]).tolist():
            alpha = math.remainder(theta_ - math.atan2(x_, z_), 2.0 * math.pi)
            boxes.append((x_, y_, z_, h_, w_, l_, theta_, alpha,
                          math.cos(theta_), math.sin(theta_)))
    objects = tuple(
        Object3D(class_name="Car", truncation=0.0, occlusion=0, alpha=alpha,
                 bbox2d=bbox, h=h, w=w, l=l, x=x, y=y, z=z, theta=theta)
        for (x, y, z, h, w, l, theta, alpha, _, _), bbox
        in zip(boxes, _amodal_bboxes(np.array(boxes).reshape(-1, 10))))
    return Scene(intrinsics=DEFAULT_INTRINSICS, plane=plane, objects=objects)


def _amodal_bboxes(boxes: np.ndarray) -> list[tuple]:
    """(left, top, right, bottom) of each box's projected corners in
    DEFAULT_INTRINSICS, with all corners of all boxes projected in one call."""
    x, y, z, h, w, l, _, _, cos_t, sin_t = (col[:, None] for col in boxes.T)
    # the four footprint corners (+-l/2 along the heading, +-w/2 across)
    dx = l / 2.0 * np.array([1.0, 1.0, -1.0, -1.0])
    dz = w / 2.0 * np.array([1.0, -1.0, -1.0, 1.0])
    cx = x + dx * cos_t + dz * sin_t
    cz = z - dx * sin_t + dz * cos_t
    # each footprint corner on the bottom face (y) and on the top face (y - h)
    cy = np.broadcast_to(y, cx.shape)
    u, v = project(np.hstack([cx, cx]), np.hstack([cy, cy - h]), np.hstack([cz, cz]),
                   DEFAULT_INTRINSICS)
    return list(map(tuple, np.column_stack([u.min(axis=1), v.min(axis=1),
                                            u.max(axis=1), v.max(axis=1)]).tolist()))
