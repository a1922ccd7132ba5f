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
import contextlib
import math
import sys
from collections import Counter
from collections.abc import Sequence
from pathlib import Path

import numpy as np

from .camera import CameraIntrinsics, project
from .depth_branches import box_keypoints, z_alt, z_comp, z_global, z_key
from .errors import JoinError
from .ground_plane import (
    DEFAULT_CAM_HEIGHT,
    GroundPlane,
    HorizonLine,
    fit_plane,
    horizon_pgm,
    horizon_to_plane,
    plane_to_horizon,
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
    DEFAULT_AMPLITUDES,
    DEFAULT_PROPORTIONS,
    MAE_OVERFLOW,
    SIGMA_MODELS,
    branch_sigmas,
    disturb_sweep,
    flip_sweep,
    generate_ensembles,
    multi_flip_sweep,
)
from .metrics import DEFAULT_DEPTH_EDGES, evaluate_ensembles

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_DEGENERACY = 3

#: Most cells (objects x branches) of a table that `lab` generates.
MAX_LAB_CELLS = 2**24
#: Most pixels (width x height) of a `plane --image-size`.
MAX_IMAGE_PIXELS = 2**26
#: Largest `oracle --noise-*` amplitude: half the largest float.
MAX_NOISE = sys.float_info.max / 2
#: Largest magnitude of a `lab --depth-range` end: half the largest float,
#: so that the truths' draw and a flip about them (2 z* - z) stay finite.
MAX_DEPTH = sys.float_info.max / 2
#: Most cells (flip counts x objects x branches) that `lab --mode multiflip`
#: sweeps; its time grows with the square of the branch count.
MAX_SWEEP_CELLS = 2**28


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _float_list(text: str) -> list[float]:
    return [float(t) for t in text.split(",") if t.strip() != ""]


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each command's own parser."""
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
    sigma = argparse.ArgumentParser(add_help=False)
    sigma.add_argument("--sigma-model", choices=SIGMA_MODELS, default="constant")
    geometry = argparse.ArgumentParser(add_help=False)
    geometry.add_argument("--cam-height", type=float, default=DEFAULT_CAM_HEIGHT,
                          help="camera height above ground in meters")
    dirs = argparse.ArgumentParser(add_help=False)
    dirs.add_argument("--calib-dir", type=Path, required=True)
    dirs.add_argument("--label-dir", type=Path, required=True)

    p_eval = sub.add_parser("eval", parents=[out, fmt, dirs],
                            help="evaluate prediction ensembles against labels")
    p_eval.add_argument("--predictions", type=Path, required=True)
    p_eval.add_argument("--reference", default=None,
                        help="branch used as the CS reference (default: 'dir' or first)")
    p_eval.add_argument("--depth-edges", type=_float_list, default=list(DEFAULT_DEPTH_EDGES),
                        help="comma-separated depth bin edges, e.g. 0,20,40,inf")

    p_oracle = sub.add_parser("oracle", parents=[out, seed, sigma, geometry, dirs],
                              help="generate noisy geometric depth ensembles from labels")
    p_oracle.add_argument("--noise-h-rel", type=float, default=0.0,
                          help="relative box-height noise amplitude (uniform in +/- a)")
    p_oracle.add_argument("--noise-px", type=float, default=0.0,
                          help="keypoint row noise amplitude in pixels (uniform in +/- a)")
    p_oracle.add_argument("--noise-horizon-slope", type=float, default=0.0)
    p_oracle.add_argument("--noise-horizon-intercept", type=float, default=0.0)
    p_oracle.add_argument("--include-alt", action="store_true",
                          help="also emit the top-edge depth branch")

    p_lab = sub.add_parser("lab", parents=[out, seed, sigma],
                           help="flip / disturbance / multi-flip sweeps")
    p_lab.add_argument("--mode", choices=("flip", "disturb", "multiflip"), required=True)
    p_lab.add_argument("--predictions", type=Path, default=None,
                       help="ensembles with z_star; omit to generate synthetic ones")
    p_lab.add_argument("--n-objects", type=int, default=10000)
    p_lab.add_argument("--n-branches", type=int, default=4)
    p_lab.add_argument("--coupling-rate", type=float, default=0.95)
    p_lab.add_argument("--error-scale", type=float, default=1.0)
    p_lab.add_argument("--depth-range", type=_float_list, default=[5.0, 60.0])
    p_lab.add_argument("--proportions", type=_float_list, default=list(DEFAULT_PROPORTIONS))
    p_lab.add_argument("--amplitudes", type=_float_list, default=list(DEFAULT_AMPLITUDES))
    p_lab.add_argument("--k", default="all",
                       help="comma-separated flip counts for multiflip, or 'all'")
    p_lab.add_argument("--branches", default=None,
                       help="comma-separated branch names: flip sweeps each (default: all), "
                            "disturb one (default: the first); not for multiflip")

    p_plane = sub.add_parser("plane", parents=[out, fmt, geometry, dirs],
                             help="fit per-frame ground planes and report elevation accuracy")
    p_plane.add_argument("--heatmap-dir", type=Path, default=None,
                         help="write per-frame horizon heatmaps (PGM) here")
    p_plane.add_argument("--image-size", type=_float_list, default=[1242.0, 375.0],
                         help="width,height for heatmap rasterization")

    return parser, sub.choices


def main(argv=None) -> int:
    parser, commands = _build_parser()
    args, unread = parser.parse_known_args(argv)
    if unread:  # the command's own parser reports them, with its usage line
        commands[args.command].error(f"unrecognized arguments: {' '.join(unread)}")
    try:
        if hasattr(args, "cam_height"):
            _require_finite(args, ("--cam-height",), positive=True)
        if getattr(args, "seed", 0) < 0:
            raise ValueError(f"--seed must be >= 0, got {args.seed}")
        # Overflow from extreme inputs ends as NaN geometry, counted failures
        # or one error line (a non-finite report value), not numpy warnings.
        with np.errstate(over="ignore", invalid="ignore"):
            return _COMMANDS[args.command](args)
    except (OSError, ValueError) as exc:
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


@contextlib.contextmanager
def _file_text(path: Path):
    """Yield the text of path to a block that parses it. A ValueError from
    the read (a UnicodeDecodeError) or the block is raised again, led by
    the path."""
    try:
        yield path.read_text()
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _load_frame(calib_dir: Path, label_dir: Path, frame: str):
    """The frame's intrinsics, the label indices of its rows with usable
    geometry (not DontCare, positive height and positive depth), their
    (x, y, z, h) columns, and the number of other non-DontCare rows."""
    with _file_text(calib_dir / f"{frame}.txt") as text:
        intrinsics = parse_calib(text)
    with _file_text(label_dir / f"{frame}.txt") as text:
        labels = parse_labels(text)
    usable = ~labels.dontcare & (labels.h > 0) & (labels.z > 0)
    index = np.flatnonzero(usable)
    columns = (labels.x[usable], labels.y[usable], labels.z[usable], labels.h[usable])
    skipped = len(labels) - int(np.count_nonzero(labels.dontcare)) - index.size
    return intrinsics, index, columns, skipped


def _plane_or_flat(plane: GroundPlane | None, k: CameraIntrinsics,
                   args) -> tuple[GroundPlane, HorizonLine, bool]:
    """The plane and its horizon, and whether they fell back to the flat
    plane at --cam-height: where there is no plane (None) or it is too close
    to vertical to have a finite horizon (NaN where |b| < DEFAULT_EPS_DEN,
    or a slope or intercept that overflows)."""
    if plane is not None:
        horizon = plane_to_horizon(plane, k)
        if math.isfinite(horizon.k_h) and math.isfinite(horizon.b_h):
            return plane, horizon, False
    flat = GroundPlane(0.0, -1.0, 0.0, args.cam_height)
    return flat, plane_to_horizon(flat, k), True


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
    with _file_text(args.predictions) as text:
        table = read_predictions(text)
    rows_of: dict[str, list[int]] = {}
    for row, frame in enumerate(table.frame):
        rows_of.setdefault(frame, []).append(row)
    # Each record's label depth, and which records found their label row
    # and which of those rows are DontCare.
    truth = np.full(len(table), np.nan)
    matched = np.zeros(len(table), dtype=bool)
    dontcare = np.zeros(len(table), dtype=bool)
    for frame, rows in sorted(rows_of.items()):  # frame order: the first bad file is named
        label_path = args.label_dir / f"{frame}.txt"
        if not label_path.exists():
            continue
        with _file_text(label_path) as text:
            labels = parse_labels(text)
        rows = np.array(rows)
        rows = rows[table.index[rows] < len(labels)]
        index = table.index[rows]
        matched[rows] = True
        dontcare[rows] = labels.dontcare[index]
        truth[rows] = labels.z[index]
    if not matched.all():
        raise JoinError([(table.frame[row], int(table.index[row]))
                         for row in np.flatnonzero(~matched)])

    kept = np.flatnonzero(~dontcare)
    dontcare_skipped = int(np.count_nonzero(dontcare))
    report = evaluate_ensembles(table.take(kept, z_star=truth[kept]), reference=args.reference,
                                depth_edges=args.depth_edges)
    if dontcare_skipped:
        report.flags = report.flags + (f"dontcare_skipped:{dontcare_skipped}",)
    _emit(write_report(report, args.format, header=config_header(args)), args.out)
    return EXIT_DEGENERACY if report.flags else EXIT_OK


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

def _cmd_oracle(args) -> int:
    noise_flags = ("--noise-h-rel", "--noise-px", "--noise-horizon-slope",
                   "--noise-horizon-intercept")
    _require_finite(args, noise_flags, positive=False)
    for flag in noise_flags:
        value = getattr(args, flag[2:].replace("-", "_"))
        if value > MAX_NOISE:  # a draw from uniform(-a, a) needs a finite width 2a
            raise ValueError(f"{flag} must be at most {MAX_NOISE:g}, got {value:g}")
    rng = np.random.default_rng(args.seed)
    diagnostics: Counter = Counter()
    names = ("key", "glo", "comp", "alt") if args.include_alt else ("key", "glo", "comp")
    amplitudes = np.array([args.noise_h_rel, args.noise_px, args.noise_px])
    frames, indices, truths, z_parts, valid_parts = [], [], [], [], []
    for frame in _frames(args.label_dir):
        k, index, (x, y, z, h), skipped = _load_frame(args.calib_dir, args.label_dir, frame)
        if skipped:
            diagnostics["object_invalid_geometry"] += skipped

        plane, horizon, used_fallback = _plane_or_flat(
            fit_plane(np.column_stack([x, y, z])), k, args)

        # Horizon perturbation draws happen for every frame, amplitude 0 or
        # not, so the random stream lines up across noise configurations.
        d_slope = rng.uniform(-args.noise_horizon_slope, args.noise_horizon_slope)
        d_intercept = rng.uniform(-args.noise_horizon_intercept,
                                  args.noise_horizon_intercept)
        plane_used = horizon_to_plane(
            HorizonLine(horizon.k_h + d_slope, horizon.b_h + d_intercept),
            k, cam_height=plane.cam_height)
        if plane_used is None:  # the horizon's plane is too close to vertical
            plane_used, _, used_fallback = _plane_or_flat(None, k, args)
        diagnostics["plane_fallback"] += used_fallback

        # One (d_h, d_vb, d_vt) row per object: the same stream as three
        # scalar draws per object.
        d_h, d_vb, d_vt = rng.uniform(-amplitudes, amplitudes, size=(len(index), 3)).T
        u_b, v_b, v_t = box_keypoints(x, y, z, h, k)
        v_b, v_t, height = v_b + d_vb, v_t + d_vt, h * (1.0 + d_h)

        y_glo = y_global(u_b, v_b, plane_used, k)
        ray = np.isfinite(y_glo)
        diagnostics["ground_ray_failed"] += int(np.count_nonzero(~ray))
        # Columns in names order. A branch holds where its depth is finite.
        # Its failures are counted only where it is computable in principle:
        # key always, the others where the ground ray hit, comp and alt only
        # for a positive height.
        z_branch = np.column_stack([
            z_key(height, v_b, v_t, k), z_global(y_glo, v_b, k),
            z_comp(y_glo, height, v_b, v_t, k),
            *([z_alt(y_glo, height, v_t, k)] if args.include_alt else [])])
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
    sigma = branch_sigmas(z_branch - z_star[:, None], args.sigma_model)
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

def _flip_counts(text: str, n_branches: int) -> Sequence[int]:
    if text == "all":
        return range(n_branches + 1)
    try:
        ks = [int(t) for t in text.split(",")]
    except ValueError:
        raise ValueError("--k must be 'all' or comma-separated integers") from None
    if len(set(ks)) != len(ks):
        raise ValueError("--k values must be distinct")
    return sorted(ks)


def _cmd_lab(args) -> int:
    chosen = None if args.branches is None else args.branches.split(",")
    if chosen is not None:
        if args.mode == "multiflip":
            raise ValueError("--branches does not apply to --mode multiflip, which flips "
                             "the first or last k branches")
        if args.mode == "disturb" and len(chosen) > 1:
            raise ValueError("--mode disturb sweeps one branch; give one name in --branches")
        if "" in chosen or len(set(chosen)) < len(chosen):
            raise ValueError("--branches needs distinct, non-empty names")
    if args.predictions is not None:
        with _file_text(args.predictions) as text:
            table = read_predictions(text)
        if len(table) == 0:
            raise ValueError(f"no ensembles in {args.predictions}")
        n_objects, n_branches = table.z.shape
    else:
        n_objects, n_branches = args.n_objects, args.n_branches
        if n_objects < 1:
            raise ValueError("--n-objects must be at least 1")
        if n_branches < 2:
            raise ValueError(f"--n-branches must be at least 2, got {n_branches}")
        cells = n_objects * n_branches
        if cells > MAX_LAB_CELLS:
            raise ValueError(f"--n-objects x --n-branches must be at most {MAX_LAB_CELLS} "
                             f"cells, got {cells}")
        if (len(args.depth_range) != 2 or not all(map(math.isfinite, args.depth_range))
                or args.depth_range[0] >= args.depth_range[1]):
            raise ValueError("--depth-range needs two finite increasing values")
        if max(map(abs, args.depth_range)) > MAX_DEPTH:
            raise ValueError(f"--depth-range values must be at most {MAX_DEPTH:g} in magnitude, "
                             f"got {args.depth_range[0]:g},{args.depth_range[1]:g}")
    if args.mode == "multiflip":
        ks = _flip_counts(args.k, n_branches)
        sweep = len(ks) * n_objects * n_branches
        if sweep > MAX_SWEEP_CELLS:
            raise ValueError(f"a multiflip sweep must cover at most {MAX_SWEEP_CELLS} cells "
                             f"(flip counts x objects x branches), got {len(ks)} x "
                             f"{n_objects} x {n_branches} = {sweep}")
    if args.predictions is None:
        # Distinct integer seeds keep the truth, generation, and sweep
        # streams statistically independent but still reproducible.
        truths = np.random.default_rng(args.seed + 2).uniform(
            args.depth_range[0], args.depth_range[1], size=args.n_objects)
        table = generate_ensembles(truths, n_branches=n_branches,
                                   coupling_rate=args.coupling_rate,
                                   error_scale=args.error_scale,
                                   sigma_model=args.sigma_model, seed=args.seed)
    sweep_seed = args.seed + 1

    branch_names = chosen or list(table.names)
    for name in branch_names:  # an unknown name fails before any sweep runs
        table.column(name)

    try:
        if args.mode == "flip":
            curves = [flip_sweep(table, name, args.proportions, seed=sweep_seed)
                      for name in branch_names]
        elif args.mode == "disturb":
            curves = [disturb_sweep(table, branch_names[0], args.amplitudes, seed=sweep_seed)]
        else:
            curves = [multi_flip_sweep(table, ks, seed=sweep_seed)]
    except ValueError as exc:
        if str(exc) != MAE_OVERFLOW:
            raise
        raise ValueError(_mae_overflow(args, table, branch_names[0], sweep_seed)) from None

    _emit(write_curves(curves, header=config_header(args)), args.out)
    return EXIT_OK


def _mae_overflow(args, table: EnsembleTable, branch: str, sweep_seed: int) -> str:
    """The error for a sweep whose MAE overflowed, naming what scaled the
    depths: the disturb noise if the sweep holds without it, else the
    generated table's --error-scale or the predictions file."""
    source = "" if args.predictions is None else f" in {args.predictions}"
    overflow = f"the MAE of {len(table)} objects{source} overflowed to a non-finite value"
    if args.mode == "disturb":
        with contextlib.suppress(ValueError):  # the undisturbed sweep overflows too
            disturb_sweep(table, branch, [0.0], seed=sweep_seed)
            return f"--amplitudes {max(args.amplitudes):g} is too large: {overflow}"
    if args.predictions is None:
        return f"--error-scale {args.error_scale:g} is too large: {overflow}"
    return overflow


# ---------------------------------------------------------------------------
# plane
# ---------------------------------------------------------------------------

def _cmd_plane(args) -> int:
    if len(args.image_size) != 2 or not all(
            math.isfinite(v) and v >= 1 for v in args.image_size):
        raise ValueError("--image-size needs two finite values >= 1 (width,height)")
    width, height = (int(v) for v in args.image_size)
    if width * height > MAX_IMAGE_PIXELS:
        raise ValueError(f"--image-size must be at most {MAX_IMAGE_PIXELS} pixels "
                         f"(width x height), got {width * height}")
    frames = _frames(args.label_dir)
    if args.heatmap_dir is not None:
        args.heatmap_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    y_pred_parts, y_true_parts = [], []
    fallback_frames = 0
    elevation_failed = 0

    for frame in frames:
        k, _, (x, y, z, _), _ = _load_frame(args.calib_dir, args.label_dir, frame)
        plane, horizon, used_fallback = _plane_or_flat(
            fit_plane(np.column_stack([x, y, z])), k, args)
        fallback_frames += used_fallback

        y_hat = y_global(*project(x, y, z, k), plane, k)
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
            pgm = horizon_pgm(horizon, width, height)
            (args.heatmap_dir / f"{frame}.pgm").write_bytes(pgm)

    y_pred, y_true = np.concatenate(y_pred_parts), np.concatenate(y_true_parts)
    summary: dict = {"fallback_frames": fallback_frames, "n_objects": len(y_pred)}
    if len(y_pred):
        summary["y_mae"] = float(np.mean(np.abs(y_pred - y_true)))

    _emit(write_plane_report(rows, summary, args.format, header=config_header(args)),
          args.out)
    if elevation_failed:
        print(f"warning: elevation_failed: {elevation_failed}", file=sys.stderr)
    return EXIT_DEGENERACY if fallback_frames or elevation_failed else EXIT_OK


_COMMANDS = {"eval": _cmd_eval, "oracle": _cmd_oracle, "lab": _cmd_lab, "plane": _cmd_plane}


if __name__ == "__main__":
    sys.exit(main())
