"""Complementary-depth geometry, fusion, and error-complementarity analysis.

The package turns the closed-form depth estimators of a monocular 3D
detector (box-height, ground-elevation, and combined midpoint forms) into a
standalone library: pinhole projection math, ground-plane and
horizon-line conversions, uncertainty-weighted depth fusion, the MAE / ESOP
/ CS metric family, and seeded flip experiments that quantify how much a
depth ensemble loses to error-sign coupling.
"""

from .camera import DEFAULT_EPS_DEN, CameraIntrinsics, project
from .depth_branches import (
    box_keypoints,
    z_alt,
    z_comp,
    z_global,
    z_key,
)
from .errors import CompdepthError
from .fusion import fuse, weights
from .ground_plane import (
    DEFAULT_CAM_HEIGHT,
    GroundPlane,
    HorizonFitInfo,
    HorizonLine,
    fit_horizon,
    fit_planes,
    heatmap_from_pgm,
    horizon_pgm,
    horizon_to_plane,
    plane_to_horizon,
    y_global,
)
from .kitti_io import (
    EnsembleTable,
    LabelTable,
    Object3D,
    format_calib,
    format_labels,
    parse_calib,
    parse_labels,
    read_predictions,
    write_curves,
    write_predictions,
    write_report,
)
from .lab import (
    SweepCurve,
    disturb_sweep,
    flip,
    flip_sweep,
    generate_ensembles,
    multi_flip_sweep,
)
from .metrics import (
    DEFAULT_DEPTH_EDGES,
    BinnedMae,
    ComplementarityReport,
    binned_mae,
    complementarity_score,
    esop,
    evaluate_ensembles,
)
from .synthetic import DEFAULT_INTRINSICS, Scene, make_scene

__version__ = "0.1.0"

__all__ = [
    "BinnedMae", "CameraIntrinsics", "CompdepthError", "ComplementarityReport",
    "DEFAULT_CAM_HEIGHT", "DEFAULT_DEPTH_EDGES", "DEFAULT_EPS_DEN",
    "DEFAULT_INTRINSICS", "EnsembleTable", "GroundPlane", "HorizonFitInfo",
    "HorizonLine", "LabelTable", "Object3D", "Scene", "SweepCurve",
    "binned_mae", "box_keypoints", "complementarity_score", "disturb_sweep", "esop",
    "evaluate_ensembles", "fit_horizon", "fit_planes", "flip", "flip_sweep",
    "format_calib", "format_labels", "fuse", "generate_ensembles", "heatmap_from_pgm",
    "horizon_pgm", "horizon_to_plane", "make_scene", "multi_flip_sweep", "parse_calib",
    "parse_labels", "plane_to_horizon", "project", "read_predictions", "weights",
    "write_curves", "write_predictions", "write_report", "y_global", "z_alt", "z_comp",
    "z_global", "z_key"
]
