"""Scalar reference for the elementwise geometry kernels.

One object at a time, as the package computed it before its kernels ran
over whole frames: each function takes floats and raises GeometryError (or
ValueError, for a non-positive object height) where the array kernel
returns NaN instead. The property tests compare the two bit for bit.
"""

from __future__ import annotations

from compdepth import DEFAULT_EPS_DEN, CameraIntrinsics, GroundPlane


class GeometryError(ArithmeticError):
    """The geometry is undefined for this input (a singularity guard fired)."""


def project(x: float, y: float, z: float, k: CameraIntrinsics) -> tuple[float, float]:
    if z <= 0:
        raise GeometryError(f"cannot project point with z={z}")
    return k.f_x * x / z + k.c_u, k.f_y * y / z + k.c_v


def box_keypoints(x: float, y: float, z: float, h: float,
                  k: CameraIntrinsics) -> tuple[float, float, float]:
    u_b, v_b = project(x, y, z, k)
    _, v_t = project(x, y - h, z, k)
    return u_b, v_b, v_t


def z_key(height: float, v_b: float, v_t: float, k: CameraIntrinsics) -> float:
    if height <= 0:
        raise ValueError("object height must be positive")
    den = v_b - v_t
    if den < DEFAULT_EPS_DEN:
        raise GeometryError(f"v_b - v_t = {den:.3g} px is below the guard")
    return k.f_y * height / den


def z_global(y_glo: float, v_b: float, k: CameraIntrinsics) -> float:
    den = v_b - k.c_v
    if abs(den) < DEFAULT_EPS_DEN:
        raise GeometryError(f"|v_b - c_v| = {abs(den):.3g} px is below the guard")
    z = k.f_y * y_glo / den
    if z <= 0:
        raise GeometryError(f"elevation {y_glo} at row offset {den} implies z={z}")
    return z


def z_comp(y_glo: float, height: float, v_b: float, v_t: float,
           k: CameraIntrinsics) -> float:
    if height <= 0:
        raise ValueError("object height must be positive")
    den = (v_b + v_t) / 2.0 - k.c_v
    if abs(den) < DEFAULT_EPS_DEN:
        raise GeometryError(f"|midpoint - c_v| = {abs(den):.3g} px is below the guard")
    z = k.f_y * (y_glo - height / 2.0) / den
    if z <= 0:
        raise GeometryError(f"midpoint geometry implies z={z}")
    return z


def z_alt(y_glo: float, height: float, v_t: float, k: CameraIntrinsics) -> float:
    if height <= 0:
        raise ValueError("object height must be positive")
    den = v_t - k.c_v
    if abs(den) < DEFAULT_EPS_DEN:
        raise GeometryError(f"|v_t - c_v| = {abs(den):.3g} px is below the guard")
    return k.f_y * (y_glo - height) / den


def y_global(u_b: float, v_b: float, g: GroundPlane, k: CameraIntrinsics) -> float:
    row = v_b - k.c_v
    if abs(row) < DEFAULT_EPS_DEN:
        raise GeometryError(f"|v_b - c_v| = {abs(row):.3g} px is below the guard")
    n = k.f_y * (u_b - k.c_u) / (k.f_x * row)
    m = k.f_y / row
    den = g.a * n + g.c * m + g.b
    if abs(den) < DEFAULT_EPS_DEN:
        raise GeometryError(f"|a*n + c*m + b| = {abs(den):.3g} is below the guard")
    return -g.cam_height / den
