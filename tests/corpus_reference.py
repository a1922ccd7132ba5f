"""Test helper: the per-frame oracle and plane commands that the
corpus-at-once ones are checked against.

Each frame is read, fitted and computed before the next is read: one
parse, one set of kernel calls and one pair of horizon draws plus an
(n, 3) noise block from the generator per frame, and each heatmap is
written with Path.write_bytes. The frame listing and the file reading are
imported from compdepth.cli; the loops and the plane fallback are the
reference. Use them in place of compdepth.cli's commands, through main.
"""

import math
import sys
from collections import Counter

import numpy as np

from compdepth.camera import project
from compdepth.cli import (EXIT_DEGENERACY, EXIT_OK, MAX_IMAGE_PIXELS, MAX_NOISE, _emit,
                           _file_text, _frames, _require_finite)
from compdepth.depth_branches import box_keypoints, z_alt, z_comp, z_global, z_key
from compdepth.ground_plane import (GroundPlane, HorizonLine, fit_planes, horizon_pgm,
                                    horizon_to_plane, plane_to_horizon, y_global)
from compdepth.kitti_io import (EnsembleTable, config_header, parse_calib, parse_labels,
                                write_plane_report, write_predictions)
from compdepth.lab import branch_sigmas


def load_frame(calib_dir, label_dir, frame):
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


def fitted_or_flat(x, y, z, k, cam_height):
    """The plane fitted to one frame's points and its horizon, or the flat
    plane at cam_height and its horizon, and whether it fell back: where no
    plane fits (NaN) or the fitted one has no finite horizon."""
    fit = fit_planes(np.column_stack([x, y, z]), [0, x.size])
    plane = GroundPlane(fit.a[0], fit.b[0], fit.c[0], fit.cam_height[0])
    if not math.isnan(plane.b):
        horizon = plane_to_horizon(plane, k)
        if math.isfinite(horizon.k_h) and math.isfinite(horizon.b_h):
            return plane, horizon, False
    flat = GroundPlane(0.0, -1.0, 0.0, cam_height)
    return flat, plane_to_horizon(flat, k), True


def oracle(args) -> int:
    noise_flags = ("--noise-h-rel", "--noise-px", "--noise-horizon-slope",
                   "--noise-horizon-intercept")
    _require_finite(args, noise_flags, positive=False)
    for flag in noise_flags:
        value = getattr(args, flag[2:].replace("-", "_"))
        if value > MAX_NOISE:
            raise ValueError(f"{flag} must be at most {MAX_NOISE:g}, got {value:g}")
    rng = np.random.default_rng(args.seed)
    diagnostics: Counter = Counter()
    names = ("key", "glo", "comp", "alt") if args.include_alt else ("key", "glo", "comp")
    amplitudes = np.array([args.noise_h_rel, args.noise_px, args.noise_px])
    frames, indices, truths, z_parts, valid_parts = [], [], [], [], []
    for frame in _frames(args.label_dir):
        k, index, (x, y, z, h), skipped = load_frame(args.calib_dir, args.label_dir, frame)
        if skipped:
            diagnostics["object_invalid_geometry"] += skipped

        plane, horizon, used_fallback = fitted_or_flat(x, y, z, k, args.cam_height)

        d_slope = rng.uniform(-args.noise_horizon_slope, args.noise_horizon_slope)
        d_intercept = rng.uniform(-args.noise_horizon_intercept,
                                  args.noise_horizon_intercept)
        plane_used = horizon_to_plane(
            HorizonLine(horizon.k_h + d_slope, horizon.b_h + d_intercept),
            k, cam_height=plane.cam_height)
        if math.isnan(plane_used.b):  # no plane, not merely no finite horizon
            plane_used, used_fallback = GroundPlane(0.0, -1.0, 0.0, args.cam_height), True
        diagnostics["plane_fallback"] += used_fallback

        d_h, d_vb, d_vt = rng.uniform(-amplitudes, amplitudes, size=(len(index), 3)).T
        u_b, v_b, v_t = box_keypoints(x, y, z, h, k)
        v_b, v_t, height = v_b + d_vb, v_t + d_vt, h * (1.0 + d_h)

        y_glo = y_global(u_b, v_b, plane_used, k)
        ray = np.isfinite(y_glo)
        diagnostics["ground_ray_failed"] += int(np.count_nonzero(~ray))
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
    diagnostics = +diagnostics
    for name in sorted(diagnostics):
        print(f"warning: {name}: {diagnostics[name]}", file=sys.stderr)
    return EXIT_DEGENERACY if diagnostics else EXIT_OK


def plane(args) -> int:
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
        k, _, (x, y, z, _), _ = load_frame(args.calib_dir, args.label_dir, frame)
        plane, horizon, used_fallback = fitted_or_flat(x, y, z, k, args.cam_height)
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
