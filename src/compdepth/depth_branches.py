"""Per-object depth estimators built from box keypoints and ground elevation.

Two families of cues feed these estimators: local box geometry (apparent
pixel height of the object) and the global ground plane (elevation of the
ground contact point). Their errors respond to input noise with opposite
signs, which is what the fusion and lab modules exploit.

Every function is elementwise over scalars or broadcastable arrays (a whole
frame in one call) and returns NaN where its guard fires; `[()]` turns a
0-d result back into a scalar.
"""

from __future__ import annotations

import numpy as np

from .camera import DEFAULT_EPS_DEN, CameraIntrinsics, project

_IGNORE = dict(divide="ignore", invalid="ignore", over="ignore")


def box_keypoints(x, y, z, h, k: CameraIntrinsics):
    """Project labeled boxes to their keypoints: the bottom-center column
    u_b and the bottom- and top-center rows v_b and v_t.

    (x, y, z) is the bottom-face center and h the box height. Keypoints are
    amodal: they are not clipped to the image bounds, so truncated objects
    keep geometrically consistent keypoints. Only the center column is
    projected, so a box whose corners reach behind the camera still has
    keypoints as long as its center is in front; all three are NaN where
    z <= 0.
    """
    u_b, v_b = project(x, y, z, k)
    _, v_t = project(x, np.subtract(y, h), z, k)
    return u_b, v_b, v_t


@np.errstate(**_IGNORE)
def z_key(height, v_b, v_t, k: CameraIntrinsics, eps: float = DEFAULT_EPS_DEN):
    """Depth from the apparent pixel height of an object of known 3D height.

    z = f_y * height / (v_b - v_t). Purely local: no ground plane involved.
    NaN where height <= 0 or v_b - v_t < eps (flat or inverted box).
    """
    den = np.subtract(v_b, v_t)
    fail = (height <= 0) | (den < eps)
    return np.where(fail, np.nan, k.f_y * height / den)[()]


@np.errstate(**_IGNORE)
def z_global(y_glo, v_b, k: CameraIntrinsics, eps: float = DEFAULT_EPS_DEN):
    """Depth from ground elevation at the bottom keypoint.

    z = f_y * y_glo / (v_b - c_v): the bottom of the box sits on the
    ground, and a point's depth is tied to how far below the principal row
    it appears. Degenerates as v_b approaches c_v, where the same elevation
    is compatible with any depth. NaN where |v_b - c_v| < eps or the
    implied depth is zero or negative.
    """
    den = np.subtract(v_b, k.c_v)
    z = k.f_y * y_glo / den
    return np.where((np.abs(den) < eps) | (z <= 0), np.nan, z)[()]


@np.errstate(**_IGNORE)
def z_comp(y_glo, height, v_b, v_t, k: CameraIntrinsics, eps: float = DEFAULT_EPS_DEN):
    """Depth from the box midpoint, combining ground elevation and height.

    z = f_y * (y_glo - height/2) / ((v_b + v_t)/2 - c_v). The midpoint form
    couples the global elevation cue with the local height cue so that
    height errors push this estimate opposite to z_key. NaN where
    height <= 0, the keypoint midpoint row is within eps of c_v, or
    numerator and denominator disagree in sign.
    """
    den = np.add(v_b, v_t) / 2.0 - k.c_v
    z = k.f_y * (y_glo - np.divide(height, 2.0)) / den
    fail = (height <= 0) | (np.abs(den) < eps) | (z <= 0)
    return np.where(fail, np.nan, z)[()]


@np.errstate(**_IGNORE)
def z_alt(y_glo, height, v_t, k: CameraIntrinsics, eps: float = DEFAULT_EPS_DEN):
    """Depth from the box top edge: z = f_y * (y_glo - height) / (v_t - c_v).

    Numerically unstable whenever the object's top sits near the camera's
    horizontal plane (y_glo close to height puts v_t close to c_v), which is
    common when object height is near the camera mounting height. The signed
    value is returned as-is, including non-positive results, so instability
    studies see the full error. NaN where height <= 0 or |v_t - c_v| < eps.
    """
    den = np.subtract(v_t, k.c_v)
    fail = (height <= 0) | (np.abs(den) < eps)
    return np.where(fail, np.nan, k.f_y * np.subtract(y_glo, height) / den)[()]
