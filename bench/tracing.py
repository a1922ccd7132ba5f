"""Outside-in tracing of the compdepth package for the benchmark's traced run.

The package carries no instrumentation of its own, so the tracer wraps every
public function of every layer module from outside and records one span per
call: name, start, end, parent span, and whether a CompdepthError escaped.
Modules bind each other's functions with `from`-imports (cli, metrics, lab,
depth_branches, synthetic), so a wrapper is installed at every module
binding of the function, not only in the defining module; patching only the
defining module would miss those calls.

A layer's self time is its span's duration minus the durations of its child
spans. Calls run on one thread, so children nest strictly inside their
parent and never overlap each other.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from compdepth import (
    camera,
    cli,
    depth_branches,
    fusion,
    ground_plane,
    kitti_io,
    lab,
    metrics,
    synthetic,
)
from compdepth.errors import CompdepthError

#: The traced layers. compdepth.errors holds only exception types.
LAYERS = (cli, kitti_io, camera, depth_branches, ground_plane, fusion, metrics,
          lab, synthetic)

#: Not wrapped: the benchmark's own op span stands for the CLI entry point,
#: so `cli.<command>` self time is the command's code outside traced calls.
_UNWRAPPED = {"cli.main"}

#: The four depth kernels, reported together as depth_branches.z_kernels.
Z_KERNELS = ("depth_branches.z_key", "depth_branches.z_global",
             "depth_branches.z_comp", "depth_branches.z_alt")
HORIZON_CONV = ("ground_plane.plane_to_horizon", "ground_plane.horizon_to_plane")

# Per-layer metric names and units, in report order. Counts (`calls`,
# `failed`, records, bytes, cells, fallbacks) are deterministic for a seed;
# `self_s` is seconds of self time, summed over the pass.
_CALLS_SELF = (
    "camera.project", "depth_branches.box_keypoints", "depth_branches.box_corners",
    "kitti_io.parse_labels", "kitti_io.parse_calib", "ground_plane.fit_plane",
    "ground_plane.y_global", "ground_plane.rasterize_horizon",
    "ground_plane.heatmap_to_pgm", "ground_plane.heatmap_from_pgm",
    "ground_plane.fit_horizon", "fusion.soft_fuse", "fusion.soft_fuse_array",
    "metrics.evaluate_ensembles", "metrics.binned_mae", "metrics.esop",
    "lab.ensembles_to_arrays", "synthetic.make_scene",
)
_SELF_ONLY = (
    "kitti_io.write_predictions", "kitti_io.read_predictions",
    "lab.generate_ensembles", "lab.multi_flip", "lab.flip_sweep",
    "lab.disturb_sweep", "cli.oracle", "cli.eval", "cli.lab", "cli.plane",
)
_COUNTERS = (
    "kitti_io.jsonl_bytes", "kitti_io.read_predictions.records",
    "ground_plane.fit_plane.fallbacks", "ground_plane.pgm_bytes",
    "ground_plane.fit_horizon.degraded", "fusion.soft_fuse_array.cells",
)


def _metric_units() -> dict[str, str]:
    units: dict[str, str] = {}
    for fn in _CALLS_SELF:
        units[f"{fn}.calls"] = "count"
        units[f"{fn}.self_s"] = "s"
    for fn in _SELF_ONLY:
        units[f"{fn}.self_s"] = "s"
    units["depth_branches.z_kernels.calls"] = "count"
    units["depth_branches.z_kernels.self_s"] = "s"
    units["depth_branches.z_kernels.failed"] = "count"
    units["depth_branches.z_kernels.ok_ratio"] = "ratio"
    units["ground_plane.y_global.failed"] = "count"
    units["ground_plane.horizon_conv.self_s"] = "s"
    for name in _COUNTERS:
        units[name] = "bytes" if name.endswith("_bytes") else "count"
    return units


#: Every per-layer metric the traced run reports, with its unit.
LAYER_UNITS = _metric_units()


def _bytes_out(counts, args, result):
    counts["kitti_io.jsonl_bytes"] += len(result.encode())


def _records(counts, args, result):
    counts["kitti_io.read_predictions.records"] += len(result)


def _pgm_bytes(counts, args, result):
    counts["ground_plane.pgm_bytes"] += len(result)


def _plane_fallback(counts, args, result):
    if isinstance(result, tuple):
        counts["ground_plane.fit_plane.fallbacks"] += int(result[1].used_fallback)


def _horizon_degraded(counts, args, result):
    if isinstance(result, tuple):
        counts["ground_plane.fit_horizon.degraded"] += int(result[1].degraded)


def _cells(counts, args, result):
    if args:
        counts["fusion.soft_fuse_array.cells"] += int(np.size(args[0]))


# Counters read from a wrapped call's arguments or return value.
_OBSERVERS = {
    "kitti_io.write_predictions": _bytes_out,
    "kitti_io.read_predictions": _records,
    "ground_plane.heatmap_to_pgm": _pgm_bytes,
    "ground_plane.fit_plane": _plane_fallback,
    "ground_plane.fit_horizon": _horizon_degraded,
    "fusion.soft_fuse_array": _cells,
}


def public_functions() -> dict[str, object]:
    """`<layer>.<fn>` -> function, for every public function a layer defines."""
    found = {}
    for module in LAYERS:
        layer = module.__name__.rsplit(".", 1)[-1]
        for attr, obj in vars(module).items():
            if (attr.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != module.__name__):
                continue
            name = f"{layer}.{attr}"
            if name not in _UNWRAPPED:
                found[name] = obj
    return found


class Tracer:
    """Records spans of compdepth calls while installed.

    spans holds [name, start, end, parent_index, ok] lists in call order;
    parent_index is -1 for a root span.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans = []
        self.counts = Counter()
        self._stack = []

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, e.g. one op of a pass."""
        rec = self._open(name)
        try:
            yield
        except CompdepthError:
            rec[4] = False
            raise
        finally:
            self._close(rec)

    def _open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, True]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except CompdepthError:
                rec[4] = False
                raise
            finally:
                self._close(rec)
            if observe is not None:
                observe(self.counts, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every public layer function at every compdepth module binding."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        originals = public_functions()
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in originals.items()}
        modules = [m for key, m in sys.modules.items()
                   if key == "compdepth" or key.startswith("compdepth.")]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches = []


def write_spans(spans: list[list], path: Path) -> None:
    """Write spans as one JSON list per line."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        for rec in spans:
            fh.write(json.dumps(rec) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Per span: its duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(spans: list[list], counts: Counter) -> dict[str, float]:
    """Every metric in LAYER_UNITS from one pass's spans and counters."""
    calls: Counter = Counter()
    failed: Counter = Counter()
    own: Counter = Counter()
    for rec, self_s in zip(spans, self_times(spans)):
        name = rec[0]
        calls[name] += 1
        own[name] += self_s
        if not rec[4]:
            failed[name] += 1
    out: dict[str, float] = {}
    for fn in _CALLS_SELF:
        out[f"{fn}.calls"] = calls[fn]
        out[f"{fn}.self_s"] = own[fn]
    for fn in _SELF_ONLY:
        out[f"{fn}.self_s"] = own[fn]
    z_calls = sum(calls[fn] for fn in Z_KERNELS)
    z_failed = sum(failed[fn] for fn in Z_KERNELS)
    out["depth_branches.z_kernels.calls"] = z_calls
    out["depth_branches.z_kernels.self_s"] = sum(own[fn] for fn in Z_KERNELS)
    out["depth_branches.z_kernels.failed"] = z_failed
    out["depth_branches.z_kernels.ok_ratio"] = (
        (z_calls - z_failed) / z_calls if z_calls else 0.0)
    out["ground_plane.y_global.failed"] = failed["ground_plane.y_global"]
    out["ground_plane.horizon_conv.self_s"] = sum(own[fn] for fn in HORIZON_CONV)
    for name in _COUNTERS:
        out[name] = counts[name]
    return out
