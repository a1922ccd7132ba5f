"""Per-object depth estimators built from box keypoints and ground elevation.

Two families of cues feed these estimators: local box geometry (apparent
pixel height of the object) and the global ground plane (elevation of the
ground contact point). Their errors respond to input noise with opposite
signs, which is what the fusion and lab modules exploit.
"""

from __future__ import annotations

from dataclasses import dataclass

from .camera import (
    DEFAULT_EPS_DEN,
    CameraIntrinsics,
    Pixel,
    Point3D,
    project,
)
from .errors import (
    DegenerateHeight,
    HorizonSingularity,
    MidpointSingularity,
    NonPositiveDepth,
    TopSingularity,
)
from .kitti_io import Object3D


@dataclass(frozen=True)
class BoxKeypoints:
    """Projected vertical-edge keypoints of a 3D box: the projections of the
    bottom-face and top-face centers."""

    bottom_center: Pixel
    top_center: Pixel


def box_keypoints(o: Object3D, k: CameraIntrinsics) -> BoxKeypoints:
    """Project a labeled box to its bottom- and top-center keypoints.

    Keypoints are amodal: they are not clipped to the image bounds, so
    truncated objects keep geometrically consistent keypoints. Only the
    center column is projected, so a box whose corners reach behind the
    camera still has keypoints as long as its center is in front.

    Raises NonPositiveDepth when the box center is at or behind the image
    plane.
    """
    bottom = project(Point3D(o.x, o.y, o.z), k)
    top = project(Point3D(o.x, o.y - o.h, o.z), k)
    return BoxKeypoints(bottom, top)


def z_key(height: float, v_b: float, v_t: float, k: CameraIntrinsics,
          eps: float = DEFAULT_EPS_DEN) -> float:
    """Depth from the apparent pixel height of an object of known 3D height.

    z = f_y * height / (v_b - v_t). Purely local: no ground plane involved.

    Raises DegenerateHeight when v_b - v_t < eps (flat or inverted box).
    """
    if height <= 0:
        raise ValueError("object height must be positive")
    den = v_b - v_t
    if den < eps:
        raise DegenerateHeight(f"v_b - v_t = {den:.3g} px is below {eps:.3g}")
    return k.f_y * height / den


def z_global(y_glo: float, v_b: float, k: CameraIntrinsics,
             eps: float = DEFAULT_EPS_DEN) -> float:
    """Depth from ground elevation at the bottom keypoint.

    z = f_y * y_glo / (v_b - c_v): the bottom of the box sits on the
    ground, and a point's depth is tied to how far below the principal row
    it appears. Degenerates as v_b approaches c_v, where the same elevation
    is compatible with any depth.

    Raises:
        HorizonSingularity: |v_b - c_v| < eps.
        NonPositiveDepth: the implied depth is zero or negative.
    """
    den = v_b - k.c_v
    if abs(den) < eps:
        raise HorizonSingularity(f"|v_b - c_v| = {abs(den):.3g} px is below {eps:.3g}")
    z = k.f_y * y_glo / den
    if z <= 0:
        raise NonPositiveDepth(f"elevation {y_glo} at row offset {den} implies z={z}")
    return z


def z_comp(y_glo: float, height: float, v_b: float, v_t: float,
           k: CameraIntrinsics, eps: float = DEFAULT_EPS_DEN) -> float:
    """Depth from the box midpoint, combining ground elevation and height.

    z = f_y * (y_glo - height/2) / ((v_b + v_t)/2 - c_v). The midpoint form
    couples the global elevation cue with the local height cue so that
    height errors push this estimate opposite to z_key.

    Raises:
        MidpointSingularity: the keypoint midpoint row is within eps of c_v.
        NonPositiveDepth: numerator and denominator disagree in sign.
    """
    if height <= 0:
        raise ValueError("object height must be positive")
    den = (v_b + v_t) / 2.0 - k.c_v
    if abs(den) < eps:
        raise MidpointSingularity(f"|midpoint - c_v| = {abs(den):.3g} px is below {eps:.3g}")
    z = k.f_y * (y_glo - height / 2.0) / den
    if z <= 0:
        raise NonPositiveDepth(f"midpoint geometry implies z={z}")
    return z


def z_alt(y_glo: float, height: float, v_t: float, k: CameraIntrinsics,
          eps: float = DEFAULT_EPS_DEN) -> float:
    """Depth from the box top edge: z = f_y * (y_glo - height) / (v_t - c_v).

    Numerically unstable whenever the object's top sits near the camera's
    horizontal plane (y_glo close to height puts v_t close to c_v), which is
    common when object height is near the camera mounting height. The signed
    value is returned as-is, including non-positive results, so instability
    studies see the full error rather than an exception.

    Raises TopSingularity when |v_t - c_v| < eps.
    """
    if height <= 0:
        raise ValueError("object height must be positive")
    den = v_t - k.c_v
    if abs(den) < eps:
        raise TopSingularity(f"|v_t - c_v| = {abs(den):.3g} px is below {eps:.3g}")
    return k.f_y * (y_glo - height) / den

