"""The benchmark's workloads: seeded inputs, the ops of one pass, and the
checks on every op's output.

A pass runs a workload's ops one at a time in this process (closed loop,
one client, no threads). An op is one CLI command driven through
compdepth.cli.main, or the library read-back of the horizon heatmaps. An op
fails on exit code 1 or 2, an uncaught exception, or a failed output check;
exit code 3 (success with degeneracy warnings) is a success.

The checks read artifacts with json/csv only and never call compdepth, so
they add nothing to the traced run's counts.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from compdepth import cli, ground_plane, kitti_io, synthetic

#: Exit codes an op may end with and still succeed.
_SUCCESS = (cli.EXIT_OK, cli.EXIT_DEGENERACY)

#: Image size the plane command rasterizes heatmaps at (its default).
IMAGE_W, IMAGE_H = 1242, 375

#: Largest allowed gap, in pixels across the image width, between a horizon
#: refit from its PGM and the line the plane report gives.
HORIZON_TOL_PX = 0.01


class CheckFailed(Exception):
    """An op's output does not match what its inputs imply."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Op:
    """One timed operation of a pass.

    name is the metric stem (`oracle` is timed as `oracle_s`); span is the
    name of the op's root span in the traced run. run returns an exit code;
    check gets the op's captured stderr and raises CheckFailed; digest
    hashes the op's artifacts for the byte-identical rerun check.
    """

    name: str
    span: str
    run: Callable[[], int]
    check: Callable[[str], None]
    digest: Callable[[], str]


@dataclass
class OpResult:
    name: str
    seconds: float
    ok: bool
    error: str = ""


def run_op(op: Op, first_digests: dict[str, str], wrap=contextlib.nullcontext) -> OpResult:
    """Run, time and check one op; a failure of any kind fails the op.

    first_digests maps op name to the digest of its first successful run;
    a later run whose artifacts differ fails the rerun check. wrap(span)
    surrounds the timed call (the traced run passes the tracer's span).
    """
    stderr = io.StringIO()
    code = None
    error = ""
    start = time.perf_counter()
    try:
        with contextlib.redirect_stderr(stderr), wrap(op.span):
            code = op.run()
    except SystemExit as exc:  # argparse usage errors exit with code 2
        code = exc.code
    except Exception:
        error = traceback.format_exc(limit=3).strip().splitlines()[-1]
    seconds = time.perf_counter() - start
    if error:
        return OpResult(op.name, seconds, False, f"uncaught {error}")
    if code not in _SUCCESS:
        last = stderr.getvalue().strip().splitlines()
        return OpResult(op.name, seconds, False,
                        f"exit {code}: {last[-1] if last else ''}")
    try:
        op.check(stderr.getvalue())
        digest = op.digest()
        _require(first_digests.setdefault(op.name, digest) == digest,
                 "rerun artifacts differ from the first run's")
    except CheckFailed as exc:
        return OpResult(op.name, seconds, False, f"check: {exc}")
    except Exception as exc:  # an unreadable artifact fails the check too
        return OpResult(op.name, seconds, False, f"check: {type(exc).__name__}: {exc}")
    return OpResult(op.name, seconds, True)


def _hash_files(*paths: Path) -> str:
    h = hashlib.sha256()
    for path in paths:
        files = sorted(path.iterdir()) if path.is_dir() else [path]
        for f in files:
            h.update(f.name.encode())
            h.update(f.read_bytes())
    return h.hexdigest()


def _data_lines(text: str) -> list[str]:
    return [line for line in text.splitlines() if line and not line.startswith("#")]


def _read_curves(path: Path) -> list[dict]:
    return list(csv.DictReader(_data_lines(path.read_text())))


def _warnings(stderr: str) -> Counter:
    """The `warning: <name>: <count>` lines the CLI prints, as a Counter."""
    found: Counter = Counter()
    for line in stderr.splitlines():
        if line.startswith("warning: "):
            name, _, count = line[len("warning: "):].rpartition(": ")
            found[name] = int(count)
    return found


class Workload:
    """Base class: a named set of ops over inputs made from one seed."""

    name = ""

    def __init__(self, workdir: Path, seed: int):
        self.workdir = workdir
        self.seed = seed

    @property
    def objects(self) -> int:
        """Objects one pass processes, the numerator of objects_per_s."""
        raise NotImplementedError

    def setup(self) -> None:
        """Generate and write the workload's inputs (idempotent)."""
        self.workdir.mkdir(parents=True, exist_ok=True)

    def ops(self) -> list[Op]:
        raise NotImplementedError


class CorpusWorkload(Workload):
    """A KITTI-style corpus of make_scene frames, run oracle -> eval -> lab
    flip -> plane, optionally with heatmaps and their read-back."""

    #: CLI flags of the oracle command.
    oracle_flags: tuple[str, ...] = ()
    heatmaps = False

    def __init__(self, workdir: Path, seed: int, frames: int, per_frame: int):
        super().__init__(workdir, seed)
        self.frames = frames
        self.per_frame = per_frame
        self.calib_dir = workdir / "calib"
        self.label_dir = workdir / "label_2"
        self.preds = workdir / "preds.jsonl"
        self.report = workdir / "report.json"
        self.curves = workdir / "flip.csv"
        self.plane_json = workdir / "plane.json"
        self.heatmap_dir = workdir / "heatmaps"
        self.labels: dict[str, tuple] = {}
        self.n_records = 0
        self.fits: list[tuple[str, float, float]] = []

    @property
    def objects(self) -> int:
        return self.frames * self.per_frame

    def setup(self) -> None:
        self.calib_dir.mkdir(parents=True, exist_ok=True)
        self.label_dir.mkdir(parents=True, exist_ok=True)
        self.labels = {}
        for f in range(self.frames):
            frame = f"{f:06d}"
            scene = synthetic.make_scene(self.per_frame, seed=(self.seed << 20) + f)
            (self.calib_dir / f"{frame}.txt").write_text(
                kitti_io.format_calib(scene.intrinsics))
            (self.label_dir / f"{frame}.txt").write_text(
                kitti_io.format_labels(scene.objects))
            self.labels[frame] = scene.objects

    def _dirs(self) -> list[str]:
        return ["--calib-dir", str(self.calib_dir), "--label-dir", str(self.label_dir)]

    def ops(self) -> list[Op]:
        seed = str(self.seed)
        plane_args = ["plane", *self._dirs(), "--out", str(self.plane_json)]
        plane_outputs = [self.plane_json]
        if self.heatmaps:
            plane_args += ["--heatmap-dir", str(self.heatmap_dir)]
            plane_outputs.append(self.heatmap_dir)
        ops = [
            Op("oracle", "cli.oracle",
               lambda: cli.main(["oracle", *self._dirs(), *self.oracle_flags,
                                 "--seed", seed, "--out", str(self.preds)]),
               self.check_oracle, lambda: _hash_files(self.preds)),
            Op("eval", "cli.eval",
               lambda: cli.main(["eval", *self._dirs(), "--predictions", str(self.preds),
                                 "--out", str(self.report)]),
               self.check_eval, lambda: _hash_files(self.report)),
            Op("lab_flip", "cli.lab",
               lambda: cli.main(["lab", "--mode", "flip", "--predictions", str(self.preds),
                                 "--seed", seed, "--out", str(self.curves)]),
               self.check_flip, lambda: _hash_files(self.curves)),
            Op("plane_heatmap" if self.heatmaps else "plane", "cli.plane",
               lambda: cli.main(plane_args),
               self.check_plane, lambda: _hash_files(*plane_outputs)),
        ]
        if self.heatmaps:
            ops.append(Op("horizon_fit", "bench.horizon_fit", self.fit_horizons,
                          self.check_horizons, lambda: hashlib.sha256(
                              repr(self.fits).encode()).hexdigest()))
        return ops

    # -- the library read path ---------------------------------------------

    def fit_horizons(self) -> int:
        """Read back every heatmap and refit its horizon line."""
        fits = []
        for frame in self.labels:
            data = (self.heatmap_dir / f"{frame}.pgm").read_bytes()
            line, _ = ground_plane.fit_horizon(ground_plane.heatmap_from_pgm(data),
                                               with_info=True)
            fits.append((frame, line.k_h, line.b_h))
        self.fits = fits
        return 0

    # -- checks --------------------------------------------------------------

    def _expected_keys(self) -> set[tuple[str, int]]:
        return {(frame, i) for frame, objs in self.labels.items()
                for i, o in enumerate(objs) if not o.is_dontcare}

    def check_oracle(self, stderr: str) -> None:
        records = [json.loads(line) for line in _data_lines(self.preds.read_text())]
        expected = self._expected_keys()
        keys = [(r["frame"], r["index"]) for r in records]
        _require(len(set(keys)) == len(keys), "duplicate (frame, index) records")
        for r in records:
            label = self.labels[r["frame"]][r["index"]]
            _require(r["z_star"] == label.z,
                     f"record ({r['frame']}, {r['index']}) z_star {r['z_star']} "
                     f"!= label z {label.z}")
        self.n_records = len(records)
        self.check_dropped(records, expected - set(keys), _warnings(stderr))

    def check_dropped(self, records: list[dict], omitted: set, warnings: Counter) -> None:
        """Dense corpora drop nothing: one full record per label."""
        _require(not omitted, f"{len(omitted)} labels have no record")
        branches = {"key", "glo", "comp", "alt"}
        _require(all({b["name"] for b in r["branches"]} == branches for r in records),
                 "a record lacks a branch")
        _require(not warnings, f"unexpected warnings {dict(warnings)}")

    def check_eval(self, stderr: str) -> None:
        report = json.loads(self.report.read_text())
        _require(report["n_objects"] == self.n_records,
                 f"n_objects {report['n_objects']} != {self.n_records} records")
        _require(report["fused"]["count"] == self.n_records,
                 f"fused count {report['fused']['count']} != {self.n_records} records")
        self.check_fused(report)

    def check_fused(self, report: dict) -> None:
        # Constant sigmas weight branches equally, so the fused error is the
        # mean branch error and its MAE cannot exceed the mean branch MAE.
        maes = [b["mae"] for b in report["branches"]]
        bound = sum(maes) / len(maes)
        _require(report["fused"]["mae"] <= bound * (1 + 1e-5),
                 f"fused MAE {report['fused']['mae']} > mean branch MAE {bound}")

    def check_flip(self, stderr: str) -> None:
        rows = _read_curves(self.curves)
        _require(len(rows) == 4 * 5, f"{len(rows)} curve rows, expected 20")
        _require(all(int(r["count"]) == self.n_records for r in rows),
                 "a curve count differs from the record count")
        _require(all(r["mae"] == r["baseline_mae"] for r in rows if float(r["x"]) == 0.0),
                 "flipping nothing changed the MAE")

    def check_plane(self, stderr: str) -> None:
        doc = json.loads(self.plane_json.read_text())
        _require([f["frame"] for f in doc["frames"]] == list(self.labels),
                 "plane report frames differ from the corpus")
        summary = doc["summary"]
        _require(summary["n_objects"] == len(self._expected_keys()),
                 f"plane n_objects {summary['n_objects']}")
        _require(summary["fallback_frames"] == 0, "a plane fit fell back")
        # Labels sit exactly on their frame's plane.
        _require(summary["y_mae"] < 1e-6, f"elevation MAE {summary['y_mae']} m")
        if self.heatmaps:
            size = len(f"P5\n{IMAGE_W} {IMAGE_H}\n255\n") + IMAGE_W * IMAGE_H
            pgms = sorted(self.heatmap_dir.iterdir())
            _require([p.stem for p in pgms] == list(self.labels), "missing heatmaps")
            _require(all(p.stat().st_size == size for p in pgms),
                     "a heatmap has the wrong size")

    def check_horizons(self, stderr: str) -> None:
        frames = {f["frame"]: f for f in json.loads(self.plane_json.read_text())["frames"]}
        _require(len(self.fits) == len(frames), "a heatmap was not refit")
        for frame, k_h, b_h in self.fits:
            ref = frames[frame]
            gap = max(abs((k_h - ref["k_h"]) * u + (b_h - ref["b_h"]))
                      for u in (0.0, IMAGE_W - 1.0))
            _require(gap <= HORIZON_TOL_PX,
                     f"frame {frame}: refit horizon off by {gap:.3g} px")


class DensePipeline(CorpusWorkload):
    name = "dense_pipeline"
    oracle_flags = ("--noise-h-rel", "0.1", "--noise-px", "0.5", "--include-alt")

    def __init__(self, workdir: Path, seed: int, frames: int = 100, per_frame: int = 40):
        super().__init__(workdir, seed, frames, per_frame)


class SparseNoisy(CorpusWorkload):
    name = "sparse_noisy"
    oracle_flags = ("--noise-h-rel", "0.5", "--noise-px", "20", "--include-alt")
    heatmaps = True

    def __init__(self, workdir: Path, seed: int, frames: int = 100, per_frame: int = 6):
        super().__init__(workdir, seed, frames, per_frame)

    def check_dropped(self, records: list[dict], omitted: set, warnings: Counter) -> None:
        """The oracle's dropped-branch warnings match the records' gaps.

        An object that lost every branch has no record and counts as missing
        all four. A failed ground ray skips glo, comp and alt together and is
        reported once, as ground_ray_failed.
        """
        missing: Counter = Counter()
        for r in records:
            present = {b["name"] for b in r["branches"]}
            for name in {"key", "glo", "comp", "alt"} - present:
                missing[name] += 1
        _require(warnings["all_branches_failed"] == len(omitted),
                 f"all_branches_failed {warnings['all_branches_failed']} "
                 f"!= {len(omitted)} labels without a record")
        _require(warnings["branch_failed:key"] == missing["key"] + len(omitted),
                 "branch_failed:key does not match the records")
        ground = ("glo", "comp", "alt")
        reported = (sum(warnings[f"branch_failed:{b}"] for b in ground)
                    + 3 * warnings["ground_ray_failed"])
        _require(reported == sum(missing[b] for b in ground) + 3 * len(omitted),
                 "glo/comp/alt drop warnings do not match the records")

    def check_fused(self, report: dict) -> None:
        """Ragged ensembles: branch MAEs cover different objects, so the
        dense bound does not apply."""


class LabSynthetic(Workload):
    """multiflip and disturb sweeps on CLI-generated ensembles: no files
    read, no geometry."""

    name = "lab_synthetic"
    n_branches = 4

    def __init__(self, workdir: Path, seed: int, n_objects: int = 100_000):
        super().__init__(workdir, seed)
        self.n_objects = n_objects
        self.multiflip = workdir / "multiflip.csv"
        self.disturb = workdir / "disturb.csv"

    @property
    def objects(self) -> int:
        return self.n_objects

    def _lab(self, mode: str, out: Path, *extra: str) -> int:
        return cli.main(["lab", "--mode", mode, "--n-objects", str(self.n_objects),
                         "--n-branches", str(self.n_branches), "--seed", str(self.seed),
                         *extra, "--out", str(out)])

    def ops(self) -> list[Op]:
        return [
            Op("lab_multiflip", "cli.lab",
               lambda: self._lab("multiflip", self.multiflip, "--k", "all"),
               self.check_multiflip, lambda: _hash_files(self.multiflip)),
            Op("lab_disturb", "cli.lab",
               lambda: self._lab("disturb", self.disturb),
               self.check_disturb, lambda: _hash_files(self.disturb)),
        ]

    def _check_counts(self, rows: list[dict], expected_rows: int) -> None:
        _require(len(rows) == expected_rows, f"{len(rows)} rows, expected {expected_rows}")
        _require(all(int(r["count"]) == self.n_objects for r in rows),
                 "a curve count differs from the object count")

    def check_multiflip(self, stderr: str) -> None:
        rows = _read_curves(self.multiflip)
        n = self.n_branches
        self._check_counts(rows, n + 1)
        maes = [r["mae"] for r in rows]
        for k in range(n + 1):
            _require(maes[k] == maes[n - k],
                     f"multiflip MAE at k={k} ({maes[k]}) != at k={n - k} ({maes[n - k]})")

    def check_disturb(self, stderr: str) -> None:
        self._check_counts(_read_curves(self.disturb), 7)


WORKLOADS = {w.name: w for w in (DensePipeline, SparseNoisy, LabSynthetic)}
