"""Test helper: the scalar rejection sampler that make_scene is checked against.

Every attempt draws z, x and h with one scalar rng.uniform call each and
tests one box against the plane; an accepted attempt draws w, l and theta.
Nothing is shared with the code under test but random_plane and the amodal
2D boxes, which both read the same values.
"""

import math

import numpy as np

from compdepth import DEFAULT_INTRINSICS, Scene, random_plane
from compdepth.kitti_io import Object3D
from compdepth.synthetic import _amodal_bboxes


def make_scene(n_objects, seed, *, intrinsics=DEFAULT_INTRINSICS, slope_max_deg=5.0,
               depth_range=(5.0, 60.0), height_range=(1.0, 2.0), cam_height=1.65,
               min_clearance=0.15) -> Scene:
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
