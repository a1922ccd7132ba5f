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

    Raises ValueError when a box corner lies at or behind the camera (a
    depth_range that starts within a box length of it).
    """
    rng = np.random.default_rng(seed)
    plane = random_plane(rng, slope_max_deg, cam_height)

    boxes = []  # x, y, z, h, w, l, theta, alpha, cos(theta), sin(theta)
    while len(boxes) < n_objects:
        z = rng.uniform(*depth_range)
        x = rng.uniform(-0.3 * z, 0.3 * z)
        h = rng.uniform(*height_range)
        y = plane.height_at(x, z)
        if y - h < min_clearance:
            continue
        w = rng.uniform(1.4, 2.0)
        l = rng.uniform(3.0, 4.8)
        theta = rng.uniform(-math.pi, math.pi)
        alpha = math.remainder(theta - math.atan2(x, z), 2.0 * math.pi)
        boxes.append((x, y, z, h, w, l, theta, alpha, math.cos(theta), math.sin(theta)))
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
