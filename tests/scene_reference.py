"""Test helper: the scalar rejection sampler that make_scene is checked against.

Every attempt draws z, x and h with one scalar rng.uniform call each and
tests one box against the plane; an accepted attempt draws w, l and theta.
Nothing is shared with the code under test but the random plane, the scene
constants and the amodal 2D boxes, which all read the same values.
"""

import math

import numpy as np

from compdepth import DEFAULT_INTRINSICS, Scene
from compdepth.kitti_io import Object3D
from compdepth.synthetic import (_DEPTH_RANGE, _HEIGHT_RANGE, _MIN_CLEARANCE, _amodal_bboxes,
                                 _random_plane)


def make_scene(n_objects, seed) -> Scene:
    rng = np.random.default_rng(seed)
    plane = _random_plane(rng)

    boxes = []  # x, y, z, h, w, l, theta, alpha, cos(theta), sin(theta)
    while len(boxes) < n_objects:
        z = rng.uniform(*_DEPTH_RANGE)
        x = rng.uniform(-0.3 * z, 0.3 * z)
        h = rng.uniform(*_HEIGHT_RANGE)
        y = plane.height_at(x, z)
        if y - h < _MIN_CLEARANCE:
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
        in zip(boxes, _amodal_bboxes(np.array(boxes).reshape(-1, 10))))
    return Scene(intrinsics=DEFAULT_INTRINSICS, plane=plane, objects=objects)
