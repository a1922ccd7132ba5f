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
from .errors import (
    AllBranchesInvalid,
    CompdepthError,
    DegeneratePlane,
    EmptyEnsemble,
    EmptyInput,
    InsufficientSupport,
    JoinError,
    KOutOfRange,
    LengthMismatch,
    MalformedLine,
    MalformedMatrix,
    MissingKey,
    NonMonotoneEdges,
    NonPositiveSigma,
    SchemaError,
    UnknownBranch,
    ZeroMAE,
)
from .fusion import soft_fuse_array
from .ground_plane import (
    DEFAULT_CAM_HEIGHT,
    GroundPlane,
    HorizonFitInfo,
    HorizonLine,
    PlaneFitInfo,
    fit_horizon,
    fit_plane,
    heatmap_from_pgm,
    heatmap_to_pgm,
    horizon_to_plane,
    plane_to_horizon,
    rasterize_horizon,
    y_global,
)
from .kitti_io import (
    EnsembleTable,
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
    ErrorModelConfig,
    SweepCurve,
    disturb_sweep,
    flip,
    flip_sweep,
    generate_ensembles,
    multi_flip,
)
from .metrics import (
    DEFAULT_DEPTH_EDGES,
    DEFAULT_Y_ERROR_EDGES,
    BinnedMae,
    ComplementarityReport,
    binned_mae,
    complementarity_score,
    esop,
    evaluate_ensembles,
    mae,
)
from .synthetic import DEFAULT_INTRINSICS, Scene, make_scene, random_plane

__version__ = "0.1.0"

__all__ = [
    "AllBranchesInvalid", "BinnedMae", "CameraIntrinsics", "CompdepthError",
    "ComplementarityReport", "DEFAULT_CAM_HEIGHT", "DEFAULT_DEPTH_EDGES",
    "DEFAULT_EPS_DEN", "DEFAULT_INTRINSICS", "DEFAULT_Y_ERROR_EDGES",
    "DegeneratePlane", "EmptyEnsemble", "EmptyInput", "EnsembleTable",
    "ErrorModelConfig", "GroundPlane", "HorizonFitInfo", "HorizonLine",
    "InsufficientSupport", "JoinError", "KOutOfRange", "LengthMismatch",
    "MalformedLine", "MalformedMatrix", "MissingKey", "NonMonotoneEdges",
    "NonPositiveSigma", "Object3D", "PlaneFitInfo", "Scene", "SchemaError",
    "SweepCurve", "UnknownBranch", "ZeroMAE", "binned_mae", "box_keypoints",
    "complementarity_score", "disturb_sweep", "esop", "evaluate_ensembles",
    "fit_horizon", "fit_plane", "flip", "flip_sweep", "format_calib",
    "format_labels", "generate_ensembles", "heatmap_from_pgm",
    "heatmap_to_pgm", "horizon_to_plane", "mae", "make_scene", "multi_flip",
    "parse_calib", "parse_labels", "plane_to_horizon", "project",
    "random_plane", "rasterize_horizon", "read_predictions", "soft_fuse_array",
    "write_curves", "write_predictions", "write_report", "y_global", "z_alt",
    "z_comp", "z_global", "z_key"
]
