"""KITTI-format parsing and this package's own serialization formats.

Covers four text formats:

* KITTI calibration files ("P2:" followed by 12 row-major reals).
* KITTI label files (15 whitespace-separated fields plus an optional score).
* Prediction ensembles as JSONL, one object per line; lines starting with
  '#' are comments (used for config headers) and are skipped on read.
* Evaluation reports, sweep curves and ground-plane reports as JSON or CSV,
  headed by the command's config echo, with deterministic
  6-significant-digit float formatting, so identical inputs produce
  byte-identical files.

Parsing is all-or-nothing: the first malformed line raises with its 1-based
line number instead of silently dropping records.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .camera import CameraIntrinsics
from .errors import MalformedLine, MalformedMatrix, MissingKey, SchemaError
from .metrics import ComplementarityReport

# ---------------------------------------------------------------------------
# label objects
# ---------------------------------------------------------------------------

#: KITTI label field order after the class name.
_N_LABEL_FIELDS = 15


@dataclass(frozen=True)
class Object3D:
    """One KITTI label row.

    (x, y, z) is the bottom-face center in the camera frame (y down), so the
    top face sits at y - h. theta is the yaw around the camera y-axis.
    """

    class_name: str
    truncation: float
    occlusion: int
    alpha: float
    bbox2d: tuple[float, float, float, float]  # left, top, right, bottom
    h: float
    w: float
    l: float
    x: float
    y: float
    z: float
    theta: float
    score: float | None = None

    @property
    def is_dontcare(self) -> bool:
        return self.class_name == "DontCare"


def parse_calib(text: str) -> CameraIntrinsics:
    """Intrinsics from the 'P2:' projection matrix of a KITTI calibration file.

    Reads f_x, f_y, c_u, c_v; the translation column is validated but plays
    no role in the ideal-pinhole math here. Other keys are ignored.

    Raises MissingKey when no line starts with 'P2:', MalformedMatrix on
    wrong arity or non-numeric or non-finite entries.
    """
    for raw in text.splitlines():
        line = raw.strip()
        if not line.startswith("P2:"):
            continue
        tokens = line[3:].split()
        if len(tokens) != 12:
            raise MalformedMatrix(f"'P2' needs 12 entries, got {len(tokens)}")
        try:
            p = [float(t) for t in tokens]
        except ValueError as exc:
            raise MalformedMatrix(f"'P2' has a non-numeric entry: {exc}") from None
        if not all(math.isfinite(v) for v in p):
            raise MalformedMatrix("'P2' has a non-finite entry")
        # row-major 3x4: f_x, c_u in row 0 and f_y, c_v in row 1
        return CameraIntrinsics(f_x=p[0], f_y=p[5], c_u=p[2], c_v=p[6])
    raise MissingKey("no 'P2:' line in calibration text")


def format_calib(k: CameraIntrinsics) -> str:
    """Calibration text with the given intrinsics and zero translation."""
    row = [k.f_x, 0.0, k.c_u, 0.0, 0.0, k.f_y, k.c_v, 0.0, 0.0, 0.0, 1.0, 0.0]
    return "P2: " + " ".join(str(v) for v in row) + "\n"


def parse_labels(text: str) -> list[Object3D]:
    """Parse a KITTI label file. Empty lines are skipped; 'DontCare' rows are
    kept (flagged via Object3D.is_dontcare) so indices match the file.

    Raises MalformedLine (with the 1-based line number) on wrong token count
    or unparseable numbers; nothing is returned on failure.
    """
    objects: list[Object3D] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) not in (_N_LABEL_FIELDS, _N_LABEL_FIELDS + 1):
            raise MalformedLine(
                line_no,
                f"expected {_N_LABEL_FIELDS} or {_N_LABEL_FIELDS + 1} fields, "
                f"got {len(tokens)}",
            )
        try:
            values = [float(t) for t in tokens[1:]]
        except ValueError as exc:
            raise MalformedLine(line_no, f"non-numeric field: {exc}") from None
        if not all(math.isfinite(v) for v in values):
            raise MalformedLine(line_no, "non-finite field")
        objects.append(Object3D(
            class_name=tokens[0],
            truncation=values[0],
            occlusion=int(values[1]),
            alpha=values[2],
            bbox2d=(values[3], values[4], values[5], values[6]),
            h=values[7], w=values[8], l=values[9],
            x=values[10], y=values[11], z=values[12],
            theta=values[13],
            score=values[14] if len(values) > 14 else None,
        ))
    return objects


def format_labels(objects: Iterable[Object3D]) -> str:
    """Serialize objects as KITTI label lines at full float precision, so
    parse_labels(format_labels(objs)) reproduces the values exactly."""
    lines = []
    for o in objects:
        tokens = [o.class_name, str(o.truncation), str(o.occlusion), str(o.alpha),
                  *(str(v) for v in o.bbox2d),
                  str(o.h), str(o.w), str(o.l),
                  str(o.x), str(o.y), str(o.z), str(o.theta)]
        if o.score is not None:
            tokens.append(str(o.score))
        lines.append(" ".join(tokens))
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# prediction ensembles (JSONL)
# ---------------------------------------------------------------------------

class EnsembleTable:
    """Columnar depth ensembles: N objects by B branch slots.

    Columns: frame and index (N,), which identify an object by its 0-based
    line index into the frame's label file; names, the branch names; z,
    sigma and valid (N, B); z_star (N,), the ground-truth depth, NaN where
    unknown. valid[i, j] says object i carries branch names[j]. Cells
    outside the mask hold z = 0 and sigma = 1, never NaN, so array code may
    run over the whole grid. The arrays are read-only.

    frame defaults to the zero-padded row number ('000000', '000001', ...),
    formatted on first read; index defaults to 0.

    Raises ValueError on shape mismatches, an object without a valid branch,
    a non-finite z, a sigma that is not finite and positive, an infinite
    z_star, or a negative index.
    """

    def __init__(self, *, names: Sequence[str], z, sigma, z_star, valid=None,
                 frame: Sequence[str] | None = None, index=None):
        names = tuple(names)
        if len(set(names)) != len(names) or not all(
                isinstance(name, str) and name for name in names):
            raise ValueError("branch names must be unique non-empty strings")
        z = np.asarray(z, dtype=float)
        if z.ndim != 2 or z.shape[1] != len(names):
            raise ValueError(f"z must have shape (N, {len(names)}), got {z.shape}")
        n = z.shape[0]
        valid = (np.ones(z.shape, dtype=bool) if valid is None
                 else np.array(valid, dtype=bool))
        sigma = np.asarray(sigma, dtype=float)
        z_star = np.array(z_star, dtype=float)
        index = np.zeros(n, dtype=np.int64) if index is None else np.array(index, dtype=np.int64)
        if (sigma.shape, valid.shape, z_star.shape, index.shape) != (z.shape, z.shape, (n,), (n,)):
            raise ValueError("z, sigma, valid must share one (N, B) shape; "
                             "z_star and index must have shape (N,)")
        if frame is not None:
            frame = tuple(frame)
            if len(frame) != n:
                raise ValueError(f"{len(frame)} frames for {n} ensembles")
        z = np.where(valid, z, 0.0)
        sigma = np.where(valid, sigma, 1.0)
        checks = (
            (valid.any(axis=1), "has no branch"),
            (np.isfinite(z).all(axis=1), "has a non-finite z"),
            ((np.isfinite(sigma) & (sigma > 0)).all(axis=1),
             "has a sigma that is not finite and positive"),
            (~np.isinf(z_star), "has an infinite z_star"),
            (index >= 0, "has a negative index"),
        )
        for ok, problem in checks:
            if not ok.all():
                raise ValueError(f"ensemble row {int(np.argmin(ok))} {problem}")
        for array in (z, sigma, valid, z_star, index):
            array.setflags(write=False)
        self.names = names
        self.z, self.sigma, self.valid, self.z_star, self.index = z, sigma, valid, z_star, index
        self._frame = frame

    @property
    def frame(self) -> tuple[str, ...]:
        if self._frame is None:
            self._frame = tuple(f"{i:06d}" for i in range(len(self)))
        return self._frame

    def __len__(self) -> int:
        return self.z.shape[0]

    def __repr__(self) -> str:
        return f"EnsembleTable(n={len(self)}, names={self.names})"

    def take(self, rows: Sequence[int], z_star=None) -> EnsembleTable:
        """The table of the given rows, in that order, with z_star replaced
        when given.

        Keeps the branch columns that some kept row carries, in column order.
        """
        rows = np.asarray(rows, dtype=np.intp)
        keep = self.valid[rows].any(axis=0)
        cells = np.ix_(rows, keep)
        return EnsembleTable(
            names=[name for name, k in zip(self.names, keep) if k],
            z=self.z[cells], sigma=self.sigma[cells], valid=self.valid[cells],
            z_star=self.z_star[rows] if z_star is None else z_star,
            frame=[self.frame[i] for i in rows], index=self.index[rows])


def _require(condition: bool, line_no: int, fieldpath: str, message: str):
    if not condition:
        raise SchemaError(line_no, fieldpath, message)


def _is_number(x) -> bool:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:  # an integer beyond the float range
        return False


def read_predictions(source) -> EnsembleTable:
    """Read prediction ensembles from JSONL text or an iterable of lines.

    Each line is an object like
    {"frame":"000123","index":0,"z_star":20.0,
     "branches":[{"name":"dir","z":19.2,"sigma":0.8}]}.
    sigma defaults to 1.0; z_star is optional (NaN in the table when
    absent). Branch columns follow first appearance across the file. Blank
    lines and lines starting with '#' are skipped; a file without records
    gives an empty table. Raises SchemaError with the line number and field
    path on the first violation, including a repeated (frame, index) and a
    record whose 1/sigma values sum past the float range, which fusion
    divides by.
    """
    lines = source.splitlines() if isinstance(source, str) else source
    columns: dict[str, int] = {}
    rows, cols, zs, sigmas = [], [], [], []
    frames, indices, z_star = [], [], []
    seen_keys = set()
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            doc = json.loads(line)
        except json.JSONDecodeError as exc:
            raise SchemaError(line_no, "", f"invalid JSON: {exc}") from None
        _require(isinstance(doc, dict), line_no, "", "record must be a JSON object")
        frame = doc.get("frame")
        _require(isinstance(frame, str) and frame != "",
                 line_no, "frame", "required non-empty string")
        index = doc.get("index")
        _require(isinstance(index, int) and not isinstance(index, bool) and index >= 0,
                 line_no, "index", "required non-negative integer")
        _require(index < 2**63, line_no, "index", "must be below 2**63")
        truth = doc.get("z_star")
        if truth is not None:
            _require(_is_number(truth), line_no, "z_star", "must be a finite number")
        raw_branches = doc.get("branches")
        _require(isinstance(raw_branches, list) and len(raw_branches) > 0,
                 line_no, "branches", "required non-empty list")
        row = len(frames)
        inverse_sum = 0.0
        seen = set()
        for j, rb in enumerate(raw_branches):
            path = f"branches[{j}]"
            _require(isinstance(rb, dict), line_no, path, "must be an object")
            name = rb.get("name")
            _require(isinstance(name, str) and name != "",
                     line_no, f"{path}.name", "required non-empty string")
            _require(name not in seen, line_no, f"{path}.name",
                     f"duplicate branch name '{name}'")
            seen.add(name)
            z = rb.get("z")
            _require(_is_number(z), line_no, f"{path}.z", "required finite number")
            sigma = rb.get("sigma", 1.0)
            _require(_is_number(sigma) and sigma > 0, line_no, f"{path}.sigma",
                     "must be a finite positive number")
            inverse = 1.0 / sigma
            _require(math.isfinite(inverse), line_no, f"{path}.sigma",
                     "too small: 1/sigma overflows")
            inverse_sum += inverse
            rows.append(row)
            cols.append(columns.setdefault(name, len(columns)))
            zs.append(z)
            sigmas.append(sigma)
        _require(math.isfinite(inverse_sum), line_no, "branches",
                 "sigmas too small: the sum of 1/sigma overflows")
        _require((frame, index) not in seen_keys, line_no, "index",
                 f"duplicate record ({frame}, {index})")
        seen_keys.add((frame, index))
        frames.append(frame)
        indices.append(index)
        z_star.append(math.nan if truth is None else truth)
    shape = (len(frames), len(columns))
    z, sigma, valid = np.zeros(shape), np.ones(shape), np.zeros(shape, dtype=bool)
    z[rows, cols] = zs
    sigma[rows, cols] = sigmas
    valid[rows, cols] = True
    return EnsembleTable(names=tuple(columns), z=z, sigma=sigma, valid=valid,
                         z_star=z_star, frame=frames, index=indices)


def write_predictions(table: EnsembleTable, header: dict | None = None) -> str:
    """Serialize ensembles as JSONL at full float precision, so
    read_predictions(write_predictions(table)) round-trips exactly.

    Each record lists its valid branches in column order and leaves out a
    NaN z_star. A header dict becomes a leading '# {...}' comment line.
    """
    out = []
    if header is not None:
        out.append("# " + json.dumps(header, sort_keys=True))
    names = table.names
    for frame, index, z_star, zs, sigmas, valid in zip(
            table.frame, table.index.tolist(), table.z_star.tolist(),
            table.z.tolist(), table.sigma.tolist(), table.valid.tolist()):
        doc: dict = {"frame": frame, "index": index}
        if not math.isnan(z_star):
            doc["z_star"] = z_star
        doc["branches"] = [{"name": name, "z": z, "sigma": sigma}
                           for name, z, sigma, v in zip(names, zs, sigmas, valid) if v]
        out.append(json.dumps(doc, separators=(",", ":")))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# reports and sweep curves
# ---------------------------------------------------------------------------

def _fmt6(x: float) -> str:
    """Fixed 6-significant-digit text for floats ('inf' for infinities)."""
    return f"{x:.6g}"


def _round6(x: float | None):
    if x is None:
        return None
    return float(f"{x:.6g}")


def _edge_json(e: float):
    if math.isinf(e):
        return "inf" if e > 0 else "-inf"
    return e


def _header_lines(header: dict | None) -> list[str]:
    if not header:
        return []
    return [f"# {k}: {header[k]}" for k in sorted(header)]


def config_header(args) -> dict:
    """The config echo at the top of every output file: the command and
    every option of its parsed CLI arguments, paths as text and lists joined
    by commas (floats at 6 significant digits). The output destinations
    --out and --heatmap-dir are left out: they do not change what is written."""
    echo = {}
    for key, value in vars(args).items():
        if isinstance(value, Path):
            value = str(value)
        elif isinstance(value, list):
            value = ",".join(_fmt6(v) if isinstance(v, float) else str(v) for v in value)
        if key not in ("out", "heatmap_dir"):
            echo[key.replace("_", "-")] = value
    return echo


def write_report(report: ComplementarityReport, format: str = "json",
                 header: dict | None = None) -> str:
    """Serialize an evaluation report as JSON or CSV.

    Floats are written at 6 significant digits and fields in a fixed order,
    so the same report always produces byte-identical text. The optional
    header dict is echoed at the top (a "header" object in JSON, '# key:
    value' comment lines in CSV).
    """
    if format == "json":
        return _report_json(report, header)
    if format == "csv":
        return _report_csv(report, header)
    raise ValueError(f"unknown format '{format}' (expected 'json' or 'csv')")


def _report_json(report: ComplementarityReport, header: dict | None) -> str:
    doc: dict = {}
    if header is not None:
        doc["header"] = {k: header[k] for k in sorted(header)}
    doc["n_objects"] = report.n_objects
    doc["reference"] = report.reference
    doc["branches"] = [
        {
            "name": name,
            "count": report.branch_counts[name],
            "mae": _round6(report.branch_mae.get(name)),
            "cs": _round6(report.branch_cs.get(name)),
        }
        for name in report.branch_names
    ]
    doc["esop"] = [
        {"a": a, "b": b, "value": _round6(v)}
        for (a, b), v in sorted(report.esop.items())
    ]
    doc["fused"] = {"count": report.fused_count, "mae": _round6(report.fused_mae)}
    doc["binned"] = [
        {
            "name": name,
            "edges": [_edge_json(e) for e in table.edges],
            "mae": [_round6(v) for v in table.maes],
            "counts": list(table.counts),
        }
        for name, table in sorted(report.binned.items())
    ]
    doc["flags"] = list(report.flags)
    return json.dumps(doc, indent=2) + "\n"


def _report_csv(report: ComplementarityReport, header: dict | None) -> str:
    buf = io.StringIO()
    for line in _header_lines(header):
        buf.write(line + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["metric", "branch", "other", "bin_lo", "bin_hi", "value", "count"])

    def row(metric, branch="", other="", bin_lo="", bin_hi="", value="", count=""):
        writer.writerow([metric, branch, other, bin_lo, bin_hi, value, count])

    row("n_objects", count=report.n_objects)
    row("reference", branch=report.reference or "")
    for name in report.branch_names:
        m = report.branch_mae.get(name)
        row("mae", branch=name, value="" if m is None else _fmt6(m),
            count=report.branch_counts[name])
    for name in report.branch_names:
        cs = report.branch_cs.get(name)
        if name == report.reference:
            continue
        row("cs", branch=name, other=report.reference or "",
            value="" if cs is None else _fmt6(cs))
    for (a, b), v in sorted(report.esop.items()):
        row("esop", branch=a, other=b, value=_fmt6(v))
    row("fused_mae", value="" if report.fused_mae is None else _fmt6(report.fused_mae),
        count=report.fused_count)
    for name, table in sorted(report.binned.items()):
        for i in range(len(table.counts)):
            m = table.maes[i]
            row("binned_mae", branch=name,
                bin_lo=_fmt6(table.edges[i]), bin_hi=_fmt6(table.edges[i + 1]),
                value="" if m is None else _fmt6(m), count=table.counts[i])
    for flag in report.flags:
        row("flag", branch=flag)
    return buf.getvalue()


def write_plane_report(frames: Sequence[dict], summary: dict, format: str = "json",
                       header: dict | None = None) -> str:
    """Serialize a ground-plane report as JSON or CSV.

    frames holds one dict per frame with frame, n_points, fallback, k_h, b_h
    and y_mae (None when no elevation was scored). summary holds
    fallback_frames, n_objects and, when any elevation was scored, y_mae and
    binned_by_y_error (a BinnedMae). CSV writes the scalar summary as '#
    key: value' lines under the header and leaves out the binned table.
    Floats are written at 6 significant digits.
    """
    if format == "json":
        doc_summary = {**summary, "y_mae": _round6(summary.get("y_mae"))}
        table = summary.get("binned_by_y_error")
        if table is not None:
            doc_summary["binned_by_y_error"] = {
                "edges": [_edge_json(e) for e in table.edges],
                "mae": [_round6(v) for v in table.maes],
                "counts": list(table.counts),
            }
        doc = {
            "header": None if header is None else dict(sorted(header.items())),
            "frames": [{**r, "k_h": _round6(r["k_h"]), "b_h": _round6(r["b_h"]),
                        "y_mae": _round6(r["y_mae"])} for r in frames],
            "summary": doc_summary,
        }
        return json.dumps(doc, indent=2) + "\n"
    if format != "csv":
        raise ValueError(f"unknown format '{format}' (expected 'json' or 'csv')")
    summary_lines = [f"# {key}: {_fmt6(value) if isinstance(value, float) else value}"
                     for key, value in sorted(summary.items()) if key != "binned_by_y_error"]
    buf = io.StringIO()
    buf.writelines(line + "\n" for line in _header_lines(header) + summary_lines)
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["frame", "n_points", "fallback", "k_h", "b_h", "y_mae"])
    for r in frames:
        writer.writerow([
            r["frame"], r["n_points"], int(r["fallback"]),
            _fmt6(r["k_h"]), _fmt6(r["b_h"]),
            "" if r["y_mae"] is None else _fmt6(r["y_mae"]),
        ])
    return buf.getvalue()


def write_curves(curves, header: dict | None = None) -> str:
    """Serialize sweep curves as CSV with columns label,x,mae,count,baseline_mae.

    baseline_mae repeats per row of its curve (blank when the curve has
    none). Floats use 6 significant digits; the optional header dict is
    echoed as '# key: value' comment lines.
    """
    buf = io.StringIO()
    for line in _header_lines(header):
        buf.write(line + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["label", "x", "mae", "count", "baseline_mae"])
    for curve in curves:
        base = "" if curve.baseline_mae is None else _fmt6(curve.baseline_mae)
        for x, m, c in zip(curve.x, curve.mae, curve.counts):
            writer.writerow([curve.label, _fmt6(x), _fmt6(m), c, base])
    return buf.getvalue()
