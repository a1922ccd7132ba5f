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
from itertools import chain
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .camera import CameraIntrinsics, project
from .depth_branches import box_keypoints, z_alt, z_comp, z_global, z_key
from .errors import CompdepthError
from .ground_plane import (
    DEFAULT_CAM_HEIGHT,
    GroundPlane,
    HorizonLine,
    fit_planes,
    horizon_to_plane,
    plane_to_horizon,
    write_horizon_pgms,
    y_global,
)
from .kitti_io import (
    EnsembleTable,
    LabelTable,
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
    check_generator_settings,
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
    except MemoryError as exc:  # numpy's names the array it could not allocate
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
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
    """The frames of a label directory: the name of each *.txt file in it
    without its final '.txt', sorted. A file named '.txt' has no frame
    name, which ends the read with an error that names it."""
    if not label_dir.is_dir():
        raise ValueError(f"label directory not found: {label_dir}")
    frames = sorted(p.name[:-len(".txt")] for p in label_dir.glob("*.txt"))
    if not frames:
        raise ValueError(f"no label files (*.txt) in {label_dir}")
    if not frames[0]:
        raise ValueError(f"{label_dir / '.txt'}: empty frame name")
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


class _Corpus(NamedTuple):
    """Every frame of a label directory, read before the kernels run.

    frames holds the frame names, sorted; k, plane and horizon hold per-frame
    arrays, and fallback one bool per frame: the flat plane at --cam-height
    stands in for the fitted one where its horizon is not finite. The rows
    are the labels with usable geometry (not DontCare, positive height and
    positive depth), frame after frame: frame i's rows are
    bounds[i]:bounds[i + 1]. index is each row's line index in its label
    file, and x, y, z and h are its columns. skipped counts the other
    non-DontCare rows.
    """

    frames: list[str]
    k: CameraIntrinsics
    bounds: np.ndarray
    index: np.ndarray
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    h: np.ndarray
    skipped: int
    plane: GroundPlane
    horizon: HorizonLine
    fallback: np.ndarray

    def per_row(self, record):
        """The per-frame record with each field repeated over its frame's rows."""
        counts = np.diff(self.bounds)
        return type(record)(*(np.repeat(v, counts) for v in vars(record).values()))


def _read_corpus(args, frames: list[str]) -> _Corpus:
    """The calib and label files of the frames, read and parsed in order, so
    that the first failing file is the one named, and the frames' planes.
    A failing file ends the read with nothing returned."""
    intrinsics, tables = [], []
    for frame in frames:
        with _file_text(args.calib_dir / f"{frame}.txt") as text:
            k = parse_calib(text)
            intrinsics.append((k.f_x, k.f_y, k.c_u, k.c_v))
        with _file_text(args.label_dir / f"{frame}.txt") as text:
            tables.append(parse_labels(text))
    # The rest in one pass over every frame's labels: frame i's label rows
    # are starts[i]:starts[i + 1] of the whole corpus.
    labels = LabelTable(tuple(chain.from_iterable(t.class_names for t in tables)),
                        np.concatenate([t.values for t in tables]),
                        np.concatenate([t.dontcare for t in tables]))
    starts = np.cumsum([0] + [len(t) for t in tables])
    rows = np.flatnonzero(~labels.dontcare & (labels.h > 0) & (labels.z > 0))
    bounds = np.searchsorted(rows, starts)
    index = rows - np.repeat(starts[:-1], np.diff(bounds))
    x, y, z, h = labels.x[rows], labels.y[rows], labels.z[rows], labels.h[rows]
    skipped = len(labels) - int(np.count_nonzero(labels.dontcare)) - rows.size
    k = CameraIntrinsics(*np.array(intrinsics).T)
    fit = fit_planes(np.column_stack((x, y, z)), bounds)
    horizon = plane_to_horizon(fit, k)
    fallback = ~(np.isfinite(horizon.k_h) & np.isfinite(horizon.b_h))
    plane = _flat_where(fallback, fit, args.cam_height)
    return _Corpus(frames, k, bounds, index, x, y, z, h, skipped, plane,
                   plane_to_horizon(plane, k), fallback)


def _flat_where(mask: np.ndarray, plane: GroundPlane, cam_height: float) -> GroundPlane:
    """plane, with the flat plane at cam_height in the frames where mask is set."""
    return GroundPlane(*np.where(mask, [[0.0], [-1.0], [0.0], [cam_height]],
                                 [plane.a, plane.b, plane.c, plane.cam_height]))


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
    # Each record's label depth (finite; NaN where no row of a file that _frames
    # lists joins it) and DontCare flag, in frame order: the first bad file is named.
    truth = np.full(len(table), np.nan)
    dontcare = np.zeros(len(table), dtype=bool)
    for frame in sorted(rows_of.keys() & _frames(args.label_dir)):
        with _file_text(args.label_dir / f"{frame}.txt") as text:
            labels = parse_labels(text)
        rows = np.array(rows_of[frame])
        rows = rows[table.index[rows] < len(labels)]
        index = table.index[rows]
        dontcare[rows] = labels.dontcare[index]
        truth[rows] = labels.z[index]
    unmatched = np.flatnonzero(np.isnan(truth))
    if unmatched.size:
        shown = ", ".join(f"({table.frame[row]}, {table.index[row]})" for row in unmatched[:5])
        more = f" and {unmatched.size - 5} more" if unmatched.size > 5 else ""
        raise CompdepthError(f"unmatched prediction keys: {shown}{more}")

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

def _uniform(amplitude, u):
    """Generator.uniform(-amplitude, amplitude) for its unit draws u: the
    generator's own low + (high - low) * u, so the values match its bits."""
    low, high = -amplitude, amplitude
    return low + (high - low) * u


def _cmd_oracle(args) -> int:
    noise_flags = ("--noise-h-rel", "--noise-px", "--noise-horizon-slope",
                   "--noise-horizon-intercept")
    _require_finite(args, noise_flags, positive=False)
    for flag in noise_flags:
        value = getattr(args, flag[2:].replace("-", "_"))
        if value > MAX_NOISE:  # a draw from uniform(-a, a) needs a finite width 2a
            raise ValueError(f"{flag} must be at most {MAX_NOISE:g}, got {value:g}")
    corpus = _read_corpus(args, _frames(args.label_dir))
    names = ("key", "glo", "comp", "alt") if args.include_alt else ("key", "glo", "comp")
    n_frames, n_rows = len(corpus.frames), corpus.index.size

    # One block of uniforms in the order of the per-frame draws: each
    # frame's horizon slope and intercept, then one (d_h, d_vb, d_vt) row
    # per object. The horizon draws happen for every frame, amplitude 0 or
    # not, so the random stream lines up across noise configurations.
    u = np.random.default_rng(args.seed).random(2 * n_frames + 3 * n_rows)
    at = 2 * np.arange(n_frames) + 3 * corpus.bounds[:-1]
    horizon = HorizonLine(corpus.horizon.k_h + _uniform(args.noise_horizon_slope, u[at]),
                          corpus.horizon.b_h + _uniform(args.noise_horizon_intercept, u[at + 1]))
    amplitudes = np.array([args.noise_h_rel, args.noise_px, args.noise_px])
    d_h, d_vb, d_vt = _uniform(amplitudes, np.delete(u, np.concatenate([at, at + 1]))
                               .reshape(n_rows, 3)).T

    plane = horizon_to_plane(horizon, corpus.k, cam_height=corpus.plane.cam_height)
    none = np.isnan(plane.b)  # the horizon's plane is too close to vertical
    plane = _flat_where(none, plane, args.cam_height)
    plane_fallbacks = int(np.count_nonzero(corpus.fallback | none))

    k, g = corpus.per_row(corpus.k), corpus.per_row(plane)
    u_b, v_b, v_t = box_keypoints(corpus.x, corpus.y, corpus.z, corpus.h, k)
    v_b, v_t, height = v_b + d_vb, v_t + d_vt, corpus.h * (1.0 + d_h)

    y_glo = y_global(u_b, v_b, g, k)
    ray = np.isfinite(y_glo)
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
    kept = valid.any(axis=1)
    diagnostics = Counter({
        "object_invalid_geometry": corpus.skipped, "plane_fallback": plane_fallbacks,
        "ground_ray_failed": int(np.count_nonzero(~ray)),
        "all_branches_failed": int(np.count_nonzero(~kept)),
        **{f"branch_failed:{name}": failed for name, failed
           in zip(names, np.count_nonzero(tried & ~valid, axis=0).tolist())}})

    frame_of = np.repeat(np.arange(n_frames), np.diff(corpus.bounds))[kept]
    frames = [corpus.frames[i] for i in frame_of.tolist()]
    valid, z_branch, z_star = valid[kept], z_branch[kept], corpus.z[kept]
    sigma = branch_sigmas(z_branch - z_star[:, None], args.sigma_model)
    table = EnsembleTable(names=names, z=z_branch, sigma=sigma, valid=valid,
                          z_star=z_star, frame=frames, index=corpus.index[kept])
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
        # The generator's settings come first: a negative --n-branches would
        # pass the cell ceiling, and a bad setting costs no draw of truths.
        check_generator_settings(n_branches, args.coupling_rate, args.error_scale,
                                 args.sigma_model)
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
    corpus = _read_corpus(args, _frames(args.label_dir))
    horizons = [*map(HorizonLine, corpus.horizon.k_h.tolist(), corpus.horizon.b_h.tolist())]
    fallbacks = corpus.fallback.tolist()

    k = corpus.per_row(corpus.k)
    y_hat = y_global(*project(corpus.x, corpus.y, corpus.z, k), corpus.per_row(corpus.plane), k)
    ok = np.isfinite(y_hat)
    error = np.abs(y_hat[ok] - corpus.y[ok])
    # Frame i's scored rows are error[scored[i]:scored[i + 1]].
    scored = np.concatenate([[0], np.cumsum(ok)])[corpus.bounds].tolist()

    rows = []
    for i, (frame, horizon) in enumerate(zip(corpus.frames, horizons)):
        frame_error = error[scored[i]:scored[i + 1]]
        rows.append({
            "frame": frame,
            "n_points": int(corpus.bounds[i + 1] - corpus.bounds[i]),
            "fallback": fallbacks[i],
            "k_h": horizon.k_h,
            "b_h": horizon.b_h,
            "y_mae": float(np.mean(frame_error)) if frame_error.size else None,
        })

    fallback_frames = fallbacks.count(True)
    elevation_failed = int(np.count_nonzero(~ok))
    summary: dict = {"fallback_frames": fallback_frames, "n_objects": len(error)}
    if len(error):
        summary["y_mae"] = float(np.mean(error))

    # Every input is read and the report built before the first file is written.
    report = write_plane_report(rows, summary, args.format, header=config_header(args))
    if args.heatmap_dir is not None:
        args.heatmap_dir.mkdir(parents=True, exist_ok=True)
        write_horizon_pgms([args.heatmap_dir / f"{frame}.pgm" for frame in corpus.frames],
                           horizons, width, height)
    _emit(report, args.out)
    if elevation_failed:
        print(f"warning: elevation_failed: {elevation_failed}", file=sys.stderr)
    return EXIT_DEGENERACY if fallback_frames or elevation_failed else EXIT_OK


_COMMANDS = {"eval": _cmd_eval, "oracle": _cmd_oracle, "lab": _cmd_lab, "plane": _cmd_plane}


if __name__ == "__main__":
    sys.exit(main())
