"""Command line entry point with four subcommands.

* eval:   join prediction ensembles to KITTI labels and report MAE / ESOP /
          CS / binned MAE and fused-depth MAE.
* oracle: turn ground-truth labels into noisy depth ensembles by pushing
          controlled perturbations through the depth estimators.
* lab:    run flip / disturbance / multi-flip sweeps on real or generated
          ensembles and export the curves as CSV.
* plane:  fit per-frame ground planes from label bottoms, report elevation
          accuracy, optionally export horizon heatmaps as PGM.

Each command takes only the options it reads. Every output file starts
with a config echo of those options (JSON "header" object or '#' comment
lines) so a run can be reproduced from its artifacts alone. Exit
codes: 0 success, 1 input error, 2 usage error, 3 success with numerical
degeneracy warnings (some objects or frames fell back or were skipped).
"""

from __future__ import annotations

import argparse
import math
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from .camera import DEFAULT_EPS_DEN, CameraIntrinsics, project
from .depth_branches import box_keypoints, z_alt, z_comp, z_global, z_key
from .errors import CompdepthError, JoinError
from .ground_plane import (
    DEFAULT_CAM_HEIGHT,
    GroundPlane,
    HorizonLine,
    fit_plane,
    heatmap_to_pgm,
    plane_to_horizon,
    horizon_to_plane,
    rasterize_horizon,
    y_global,
)
from .kitti_io import (
    EnsembleTable,
    config_header,
    parse_calib,
    parse_labels,
    read_predictions,
    write_curves,
    write_plane_report,
    write_predictions,
    write_report,
)
from .lab import (
    SIGMA_FLOOR,
    ErrorModelConfig,
    SweepCurve,
    disturb_sweep,
    flip_sweep,
    generate_ensembles,
    multi_flip,
)
from .metrics import DEFAULT_Y_ERROR_EDGES, binned_mae, evaluate_ensembles

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_DEGENERACY = 3


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _float_list(text: str) -> list[float]:
    return [float(t) for t in text.split(",") if t.strip() != ""]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="compdepth",
        description="Complementary-depth geometry, fusion, and flip experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Shared option groups; each command takes only the groups it reads.
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", type=Path, default=None,
                     help="output file (default: stdout)")
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("json", "csv"), default="json")
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=0)
    geometry = argparse.ArgumentParser(add_help=False)
    geometry.add_argument("--cam-height", type=float, default=DEFAULT_CAM_HEIGHT,
                          help="camera height above ground in meters")
    geometry.add_argument("--eps-den", type=float, default=DEFAULT_EPS_DEN,
                          help="singularity guard for row-difference denominators, px")
    dirs = argparse.ArgumentParser(add_help=False)
    dirs.add_argument("--calib-dir", type=Path, required=True)
    dirs.add_argument("--label-dir", type=Path, required=True)

    p_eval = sub.add_parser("eval", parents=[out, fmt, dirs],
                            help="evaluate prediction ensembles against labels")
    p_eval.add_argument("--predictions", type=Path, required=True)
    p_eval.add_argument("--reference", default=None,
                        help="branch used as the CS reference (default: 'dir' or first)")
    p_eval.add_argument("--depth-edges", type=_float_list, default=[0.0, 20.0, 40.0, math.inf],
                        help="comma-separated depth bin edges, e.g. 0,20,40,inf")

    p_oracle = sub.add_parser("oracle", parents=[out, seed, geometry, dirs],
                              help="generate noisy geometric depth ensembles from labels")
    p_oracle.add_argument("--noise-h-rel", type=float, default=0.0,
                          help="relative box-height noise amplitude (uniform in +/- a)")
    p_oracle.add_argument("--noise-px", type=float, default=0.0,
                          help="keypoint row noise amplitude in pixels (uniform in +/- a)")
    p_oracle.add_argument("--noise-horizon-slope", type=float, default=0.0)
    p_oracle.add_argument("--noise-horizon-intercept", type=float, default=0.0)
    p_oracle.add_argument("--sigma-model", choices=("constant", "proportional"),
                          default="constant")
    p_oracle.add_argument("--include-alt", action="store_true",
                          help="also emit the top-edge depth branch")

    p_lab = sub.add_parser("lab", parents=[out, seed],
                           help="flip / disturbance / multi-flip sweeps")
    p_lab.add_argument("--mode", choices=("flip", "disturb", "multiflip"), required=True)
    p_lab.add_argument("--predictions", type=Path, default=None,
                       help="ensembles with z_star; omit to generate synthetic ones")
    p_lab.add_argument("--n-objects", type=int, default=10000)
    p_lab.add_argument("--n-branches", type=int, default=4)
    p_lab.add_argument("--coupling-rate", type=float, default=0.95)
    p_lab.add_argument("--error-scale", type=float, default=1.0)
    p_lab.add_argument("--sigma-model", choices=("constant", "proportional"),
                       default="constant")
    p_lab.add_argument("--depth-range", type=_float_list, default=[5.0, 60.0])
    p_lab.add_argument("--proportions", type=_float_list,
                       default=[0.0, 0.25, 0.5, 0.75, 1.0])
    p_lab.add_argument("--amplitudes", type=_float_list,
                       default=[0.0, 1.0, 2.0, 4.0, 6.0, 8.0, 10.0])
    p_lab.add_argument("--k", default="all",
                       help="comma-separated flip counts for multiflip, or 'all'")
    p_lab.add_argument("--branches", default=None,
                       help="comma-separated branch names to sweep (default: all)")

    p_plane = sub.add_parser("plane", parents=[out, fmt, geometry, dirs],
                             help="fit per-frame ground planes and report elevation accuracy")
    p_plane.add_argument("--heatmap-dir", type=Path, default=None,
                         help="write per-frame horizon heatmaps (PGM) here")
    p_plane.add_argument("--image-size", type=_float_list, default=[1242.0, 375.0],
                         help="width,height for heatmap rasterization")

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if hasattr(args, "cam_height"):
            _require_finite(args, ("--cam-height", "--eps-den"), positive=True)
        if getattr(args, "seed", 0) < 0:
            raise ValueError(f"--seed must be >= 0, got {args.seed}")
        return _COMMANDS[args.command](args)
    except (CompdepthError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def _require_finite(args, flags: tuple[str, ...], *, positive: bool) -> None:
    """ValueError unless each flag's value is finite and > 0 (positive) or >= 0."""
    for flag in flags:
        value = getattr(args, flag[2:].replace("-", "_"))
        if not (math.isfinite(value) and (value > 0 if positive else value >= 0)):
            raise ValueError(f"{flag} must be finite and {'>' if positive else '>='} 0, "
                             f"got {value}")


def _frames(label_dir: Path) -> list[str]:
    if not label_dir.is_dir():
        raise ValueError(f"label directory not found: {label_dir}")
    frames = sorted(p.stem for p in label_dir.glob("*.txt"))
    if not frames:
        raise ValueError(f"no label files (*.txt) in {label_dir}")
    return frames


def _load_frame(calib_dir: Path, label_dir: Path, frame: str):
    """The frame's intrinsics, the label indices of its rows with usable
    geometry (not DontCare, positive height and positive depth), their
    (x, y, z, h) columns, and the number of other non-DontCare rows."""
    intrinsics = parse_calib((calib_dir / f"{frame}.txt").read_text())
    objects = parse_labels((label_dir / f"{frame}.txt").read_text())
    rows = np.array([(o.x, o.y, o.z, o.h, not o.is_dontcare) for o in objects],
                    dtype=float).reshape(-1, 5)
    x, y, z, h, care = rows.T
    usable = (care > 0) & (h > 0) & (z > 0)
    index = np.flatnonzero(usable)
    return intrinsics, index, rows[usable, :4].T, int(care.sum()) - index.size


def _frame_plane(bottoms: np.ndarray, k: CameraIntrinsics,
                 args) -> tuple[GroundPlane, HorizonLine, bool]:
    """The frame's ground plane through the (N, 3) bottoms, its horizon,
    and whether it fell back.

    The fallback is the flat plane at --cam-height, taken when the frame has
    no usable bottoms, too few or collinear ones to pin a plane, or a
    fitted plane too close to vertical to have a horizon (|b| < --eps-den).
    """
    if len(bottoms):
        plane, info = fit_plane(bottoms)
        if not info.used_fallback and abs(plane.b) >= args.eps_den:
            return plane, plane_to_horizon(plane, k, eps=args.eps_den), False
    flat = GroundPlane(0.0, -1.0, 0.0, args.cam_height)
    return flat, plane_to_horizon(flat, k, eps=args.eps_den), True


def _emit(text: str, out: Path | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text)


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def _cmd_eval(args) -> int:
    table = read_predictions(args.predictions.read_text())
    labels_cache: dict[str, list] = {}
    unmatched = []
    kept, truths = [], []
    dontcare_skipped = 0
    for row, (frame, index) in enumerate(zip(table.frame, table.index.tolist())):
        if frame not in labels_cache:
            label_path = args.label_dir / f"{frame}.txt"
            labels_cache[frame] = (
                parse_labels(label_path.read_text()) if label_path.exists() else None
            )
        labels = labels_cache[frame]
        if labels is None or index >= len(labels):
            unmatched.append((frame, index))
            continue
        label = labels[index]
        if label.is_dontcare:
            dontcare_skipped += 1
            continue
        kept.append(row)
        truths.append(label.z)
    if unmatched:
        raise JoinError(unmatched)

    report = evaluate_ensembles(table.take(kept, z_star=truths), reference=args.reference,
                                depth_edges=args.depth_edges)
    if dontcare_skipped:
        report.flags = report.flags + (f"dontcare_skipped:{dontcare_skipped}",)
    _emit(write_report(report, args.format, header=config_header(args)), args.out)
    return EXIT_DEGENERACY if report.flags else EXIT_OK


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

def _cmd_oracle(args) -> int:
    _require_finite(args, ("--noise-h-rel", "--noise-px", "--noise-horizon-slope",
                           "--noise-horizon-intercept"), positive=False)
    rng = np.random.default_rng(args.seed)
    diagnostics: Counter = Counter()
    names = ("key", "glo", "comp", "alt") if args.include_alt else ("key", "glo", "comp")
    amplitudes = np.array([args.noise_h_rel, args.noise_px, args.noise_px])
    eps = args.eps_den
    frames, indices, truths, z_parts, valid_parts = [], [], [], [], []
    for frame in _frames(args.label_dir):
        k, index, (x, y, z, h), skipped = _load_frame(args.calib_dir, args.label_dir, frame)
        if skipped:
            diagnostics["object_invalid_geometry"] += skipped

        plane, horizon, used_fallback = _frame_plane(np.column_stack([x, y, z]), k, args)
        if used_fallback:
            diagnostics["plane_fallback"] += 1

        # Horizon perturbation draws happen for every frame, amplitude 0 or
        # not, so the random stream lines up across noise configurations.
        d_slope = rng.uniform(-args.noise_horizon_slope, args.noise_horizon_slope)
        d_intercept = rng.uniform(-args.noise_horizon_intercept,
                                  args.noise_horizon_intercept)
        plane_used = horizon_to_plane(
            HorizonLine(horizon.k_h + d_slope, horizon.b_h + d_intercept),
            k, cam_height=plane.cam_height)

        # One (d_h, d_vb, d_vt) row per object: the same stream as three
        # scalar draws per object.
        d_h, d_vb, d_vt = rng.uniform(-amplitudes, amplitudes, size=(len(index), 3)).T
        u_b, v_b, v_t = box_keypoints(x, y, z, h, k)
        v_b, v_t, height = v_b + d_vb, v_t + d_vt, h * (1.0 + d_h)

        y_glo = y_global(u_b, v_b, plane_used, k, eps=eps)
        ray = np.isfinite(y_glo)
        diagnostics["ground_ray_failed"] += int(np.count_nonzero(~ray))
        # Columns in names order. A branch holds where its depth is finite.
        # Its failures are counted only where it is computable in principle:
        # key always, the others where the ground ray hit, comp and alt only
        # for a positive height.
        z_branch = np.column_stack([
            z_key(height, v_b, v_t, k, eps=eps), z_global(y_glo, v_b, k, eps=eps),
            z_comp(y_glo, height, v_b, v_t, k, eps=eps),
            *([z_alt(y_glo, height, v_t, k, eps=eps)] if args.include_alt else [])])
        valid = np.isfinite(z_branch)
        tall = ray & (height > 0)
        tried = np.column_stack([np.ones_like(ray), ray, tall, tall][:len(names)])
        for name, failed in zip(names, np.count_nonzero(tried & ~valid, axis=0).tolist()):
            diagnostics[f"branch_failed:{name}"] += failed

        kept = valid.any(axis=1)
        diagnostics["all_branches_failed"] += int(np.count_nonzero(~kept))
        frames += [frame] * int(np.count_nonzero(kept))
        indices.append(index[kept])
        truths.append(z[kept])
        z_parts.append(z_branch[kept])
        valid_parts.append(valid[kept])

    valid = np.concatenate(valid_parts)
    z_branch = np.where(valid, np.concatenate(z_parts), 0.0)
    z_star = np.concatenate(truths)
    sigma = (np.ones_like(z_branch) if args.sigma_model == "constant"
             else np.maximum(np.abs(z_branch - z_star[:, None]), SIGMA_FLOOR))
    table = EnsembleTable(names=names, z=z_branch, sigma=sigma, valid=valid,
                          z_star=z_star, frame=frames, index=np.concatenate(indices))
    _emit(write_predictions(table, header=config_header(args)), args.out)
    diagnostics = +diagnostics  # drop the zero counts
    for name in sorted(diagnostics):
        print(f"warning: {name}: {diagnostics[name]}", file=sys.stderr)
    return EXIT_DEGENERACY if diagnostics else EXIT_OK


# ---------------------------------------------------------------------------
# lab
# ---------------------------------------------------------------------------

def _flip_counts(text: str, n_branches: int) -> list[int]:
    if text == "all":
        return list(range(n_branches + 1))
    try:
        ks = [int(t) for t in text.split(",")]
    except ValueError:
        raise ValueError("--k must be 'all' or comma-separated integers") from None
    if len(set(ks)) != len(ks):
        raise ValueError("--k values must be distinct")
    return sorted(ks)


# Overflow surfaces as SweepCurve's one-line non-finite MAE error, not as
# numpy warnings.
@np.errstate(over="ignore", invalid="ignore")
def _cmd_lab(args) -> int:
    if args.predictions is not None:
        table = read_predictions(args.predictions.read_text())
        if len(table) == 0:
            raise ValueError(f"no ensembles in {args.predictions}")
    else:
        if args.n_objects < 1:
            raise ValueError("--n-objects must be at least 1")
        if (len(args.depth_range) != 2 or not all(map(math.isfinite, args.depth_range))
                or args.depth_range[0] >= args.depth_range[1]):
            raise ValueError("--depth-range needs two finite increasing values")
        cfg = ErrorModelConfig(n_branches=args.n_branches,
                               coupling_rate=args.coupling_rate,
                               error_scale=args.error_scale,
                               sigma_model=args.sigma_model,
                               seed=args.seed)
        # Distinct integer seeds keep the truth, generation, and sweep
        # streams statistically independent but still reproducible.
        truths = np.random.default_rng(args.seed + 2).uniform(
            args.depth_range[0], args.depth_range[1], size=args.n_objects)
        table = generate_ensembles(truths, cfg)
    sweep_seed = args.seed + 1

    branch_names = (args.branches.split(",") if args.branches else list(table.names))

    curves: list[SweepCurve] = []
    if args.mode == "flip":
        for name in branch_names:
            curves.append(flip_sweep(table, name, args.proportions, seed=sweep_seed))
    elif args.mode == "disturb":
        curves.append(disturb_sweep(table, branch_names[0], args.amplitudes,
                                    seed=sweep_seed))
    else:
        ks = _flip_counts(args.k, len(table.names))
        curves.append(SweepCurve(
            x=tuple(float(k) for k in ks),
            mae=tuple(multi_flip(table, k, seed=sweep_seed) for k in ks),
            counts=(len(table),) * len(ks),
            baseline_mae=multi_flip(table, 0, seed=sweep_seed),
            label="multiflip",
        ))

    _emit(write_curves(curves, header=config_header(args)), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# plane
# ---------------------------------------------------------------------------

def _cmd_plane(args) -> int:
    if len(args.image_size) != 2 or not all(
            math.isfinite(v) and v >= 1 for v in args.image_size):
        raise ValueError("--image-size needs two finite values >= 1 (width,height)")
    width, height = (int(v) for v in args.image_size)
    frames = _frames(args.label_dir)
    if args.heatmap_dir is not None:
        args.heatmap_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    y_pred_parts, y_true_parts = [], []
    fallback_frames = 0
    elevation_failed = 0

    for frame in frames:
        k, _, (x, y, z, _), _ = _load_frame(args.calib_dir, args.label_dir, frame)
        plane, horizon, used_fallback = _frame_plane(np.column_stack([x, y, z]), k, args)
        if used_fallback:
            fallback_frames += 1

        y_hat = y_global(*project(x, y, z, k), plane, k, eps=args.eps_den)
        ok = np.isfinite(y_hat)
        elevation_failed += int(np.count_nonzero(~ok))
        y_pred_parts.append(y_hat[ok])
        y_true_parts.append(y[ok])

        rows.append({
            "frame": frame,
            "n_points": len(x),
            "fallback": used_fallback,
            "k_h": horizon.k_h,
            "b_h": horizon.b_h,
            "y_mae": float(np.mean(np.abs(y_hat[ok] - y[ok]))) if ok.any() else None,
        })

        if args.heatmap_dir is not None:
            heatmap = rasterize_horizon(horizon, width, height)
            (args.heatmap_dir / f"{frame}.pgm").write_bytes(heatmap_to_pgm(heatmap))

    y_pred, y_true = np.concatenate(y_pred_parts), np.concatenate(y_true_parts)
    summary: dict = {"fallback_frames": fallback_frames, "n_objects": len(y_pred)}
    if len(y_pred):
        abs_err = np.abs(y_pred - y_true)
        summary["y_mae"] = float(np.mean(abs_err))
        summary["binned_by_y_error"] = binned_mae(y_pred, y_true,
                                                  DEFAULT_Y_ERROR_EDGES, key=abs_err)

    _emit(write_plane_report(rows, summary, args.format, header=config_header(args)),
          args.out)
    if elevation_failed:
        print(f"warning: elevation_failed: {elevation_failed}", file=sys.stderr)
    return EXIT_DEGENERACY if fallback_frames or elevation_failed else EXIT_OK


_COMMANDS = {"eval": _cmd_eval, "oracle": _cmd_oracle, "lab": _cmd_lab, "plane": _cmd_plane}


if __name__ == "__main__":
    sys.exit(main())
