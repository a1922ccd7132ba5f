"""KITTI-format parsing and this package's own serialization formats.

Covers four text formats:

* KITTI calibration files ("P2:" followed by 12 row-major reals).
* KITTI label files (15 whitespace-separated fields plus an optional score).
* Prediction ensembles as JSONL, one object per line; lines starting with
  '#' are comments (used for config headers) and are skipped on read.
* Evaluation reports, sweep curves and ground-plane reports as JSON or CSV,
  with deterministic 6-significant-digit float formatting, so identical
  inputs produce byte-identical files. Each writer builds only its
  document or its rows; _json and _csv write them, headed by the config
  echo (a "header" object in JSON, '# key: value' lines in CSV).

Parsing is all-or-nothing: the first malformed line raises with its 1-based
line number instead of silently dropping records.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .camera import CameraIntrinsics
from .errors import CompdepthError
from .metrics import ComplementarityReport

# ---------------------------------------------------------------------------
# label objects
# ---------------------------------------------------------------------------

#: Tokens of a KITTI label row without its optional score; also the width
#: of LabelTable.values, which drops the class name and keeps a score column.
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

    Raises CompdepthError when no line starts with 'P2:', on wrong arity or
    non-numeric or non-finite entries, and on f_x <= 0 or f_y <= 0.
    """
    for raw in text.splitlines():
        line = raw.strip()
        if not line.startswith("P2:"):
            continue
        tokens = line[3:].split()
        if len(tokens) != 12:
            raise CompdepthError(f"'P2' needs 12 entries, got {len(tokens)}")
        try:
            p = [float(t) for t in tokens]
        except ValueError as exc:
            raise CompdepthError(f"'P2' has a non-numeric entry: {exc}") from None
        if not all(math.isfinite(v) for v in p):
            raise CompdepthError("'P2' has a non-finite entry")
        if p[0] <= 0 or p[5] <= 0:
            raise CompdepthError("focal lengths must be strictly positive")
        # row-major 3x4: f_x, c_u in row 0 and f_y, c_v in row 1
        return CameraIntrinsics(f_x=p[0], f_y=p[5], c_u=p[2], c_v=p[6])
    raise CompdepthError("no 'P2:' line in calibration text")


def format_calib(k: CameraIntrinsics) -> str:
    """Calibration text with the given intrinsics and zero translation."""
    row = [k.f_x, 0.0, k.c_u, 0.0, 0.0, k.f_y, k.c_v, 0.0, 0.0, 0.0, 1.0, 0.0]
    return "P2: " + " ".join(str(v) for v in row) + "\n"


@dataclass(frozen=True)
class LabelTable:
    """The rows of a KITTI label file as columns, in file order.

    class_names holds each row's class and dontcare marks its 'DontCare'
    rows, which are kept so that row i is the file's i-th non-blank line.
    values is a read-only (N, 15) float array of the numeric fields in file
    order: truncation, occlusion, alpha, the 2D box (left, top, right,
    bottom), h, w, l, x, y, z, theta and the score, NaN where a row has
    none. h, x, y and z name the columns the commands read; (x, y, z) is
    the bottom-face center, as in Object3D.
    """

    class_names: tuple[str, ...]
    values: np.ndarray
    dontcare: np.ndarray

    def __len__(self) -> int:
        return len(self.class_names)

    h = property(lambda self: self.values[:, 7])
    x = property(lambda self: self.values[:, 10])
    y = property(lambda self: self.values[:, 11])
    z = property(lambda self: self.values[:, 12])


def parse_labels(text: str) -> LabelTable:
    """Parse a KITTI label file into columns. Empty lines are skipped;
    'DontCare' rows are kept (flagged in LabelTable.dontcare) so indices
    match the file.

    Raises CompdepthError ('line N: ...', N 1-based) on a wrong token count
    or unparseable or non-finite numbers; nothing is returned on failure.
    Only a failing file has its lines checked one by one, to name the first.
    """
    rows = [tokens for tokens in map(str.split, text.splitlines()) if tokens]
    try:
        values = _label_values(rows)
    except CompdepthError:
        for line_no, tokens in enumerate(map(str.split, text.splitlines()), start=1):
            try:
                _label_values([tokens] if tokens else [])
            except CompdepthError as exc:
                raise CompdepthError(f"line {line_no}: {exc}") from None
        raise AssertionError("the label columns rejected a file whose every line they accept")
    values.setflags(write=False)
    dontcare = np.array([tokens[0] == "DontCare" for tokens in rows], dtype=bool)
    dontcare.setflags(write=False)
    return LabelTable(tuple(tokens[0] for tokens in rows), values, dontcare)


def _label_values(rows: list[list[str]]) -> np.ndarray:
    """The (N, 15) numeric fields of the token rows, one block per row width.
    Raises CompdepthError, without a line number, for a row with a wrong
    token count or a non-numeric or non-finite field (any one of several)."""
    values = np.full((len(rows), _N_LABEL_FIELDS), np.nan)
    for width in {len(tokens) for tokens in rows}:
        if width not in (_N_LABEL_FIELDS, _N_LABEL_FIELDS + 1):
            raise CompdepthError(f"expected {_N_LABEL_FIELDS} or {_N_LABEL_FIELDS + 1} "
                                 f"fields, got {width}")
        at = [i for i, tokens in enumerate(rows) if len(tokens) == width]
        fields = chain.from_iterable(rows[i][1:] for i in at)
        try:
            block = np.fromiter(map(float, fields), float, len(at) * (width - 1))
        except ValueError as exc:
            raise CompdepthError(f"non-numeric field: {exc}") from None
        if not np.isfinite(block).all():
            raise CompdepthError("non-finite field")
        values[at, :width - 1] = block.reshape(len(at), width - 1)
    return values


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

    Raises ValueError on shape mismatches; on a non-empty index of a
    non-integer dtype (bool too) or holding 2**63 or more; and on an object
    without a valid branch, a non-finite z, a sigma that is not finite and
    positive, an infinite z_star, or a negative index: five per-row verdicts,
    each computed once, whose first failure names its first failing row.
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
        valid = np.ones(z.shape, dtype=bool) if valid is None else np.array(valid, dtype=bool)
        sigma = np.asarray(sigma, dtype=float)
        z_star = np.array(z_star, dtype=float)
        index = np.zeros(n, dtype=np.int64) if index is None else np.asarray(index)
        if index.size and index.dtype.kind not in "iu":  # a bool is no index
            raise ValueError(f"index must hold integers, got {index.dtype}")
        if index.size and index.max() >= 2**63:
            raise ValueError("index must be below 2**63")
        index = index.astype(np.int64)
        if (sigma.shape, valid.shape, z_star.shape, index.shape) != (z.shape, z.shape, (n,), (n,)):
            raise ValueError("z, sigma, valid must share one (N, B) shape; "
                             "z_star and index must have shape (N,)")
        if frame is not None:
            frame = tuple(frame)
            if len(frame) != n:
                raise ValueError(f"{len(frame)} frames for {n} ensembles")
        # New C-order arrays, z = 0 and sigma = 1 outside the mask whatever
        # the caller's cells hold there (NaN too); the caller's stay writable.
        z, sigma = np.where(valid, z, 0.0), np.where(valid, sigma, 1.0)
        verdicts = (
            (valid.any(axis=1), "has no branch"),
            (np.isfinite(z).all(axis=1), "has a non-finite z"),
            ((np.isfinite(sigma) & (sigma > 0)).all(axis=1),
             "has a sigma that is not finite and positive"),
            (~np.isinf(z_star), "has an infinite z_star"),
            (index >= 0, "has a negative index"),
        )
        for row_ok, problem in verdicts:
            if not row_ok.all():
                raise ValueError(f"ensemble row {int(np.argmin(row_ok))} {problem}")
        self._keep(names, z, sigma, valid, z_star, index, frame)

    @classmethod
    def _of_fresh(cls, names: Sequence[str], z: np.ndarray, sigma: np.ndarray,
                  z_star: np.ndarray) -> EnsembleTable:
        """The dense table of float arrays that nothing else holds and whose
        names, shapes and cells pass the constructor's checks, kept without
        its copies and checks."""
        table = cls.__new__(cls)
        table._keep(tuple(names), z, sigma, np.ones(z.shape, dtype=bool), z_star,
                    np.zeros(len(z), dtype=np.int64), None)
        return table

    def _keep(self, names: tuple[str, ...], z, sigma, valid, z_star, index, frame) -> None:
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

    def column(self, name: str) -> int:
        """The column of branch name; ValueError when no column has it."""
        try:
            return self.names.index(name)
        except ValueError:
            raise ValueError(f"branch '{name}' not in {list(self.names)}") from None

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


def _reject(line_no: int, fieldpath: str, message: str):
    """Raise the CompdepthError that names a prediction line and field."""
    raise CompdepthError(f"line {line_no}: field '{fieldpath}': {message}")


def _is_number(x) -> bool:
    try:  # an exact type, so a bool is no number
        return type(x) in (int, float) and math.isfinite(x)
    except OverflowError:  # an integer beyond the float range
        return False


_decode = json.JSONDecoder().raw_decode


def read_predictions(text: str) -> EnsembleTable:
    """Read prediction ensembles from JSONL text.

    Each line is an object like
    {"frame":"000123","index":0,"z_star":20.0,
     "branches":[{"name":"dir","z":19.2,"sigma":0.8}]}.
    sigma defaults to 1.0; z_star is optional (NaN in the table when
    absent). Branch columns follow first appearance across the file. Blank
    lines and lines starting with '#' are skipped; a file without records
    gives an empty table. Raises CompdepthError ("line N: field 'F': ...",
    with the line number and field path) on the first violation, including
    a repeated (frame, index) and a record whose 1/sigma values sum past
    the float range, which fusion divides by.

    One pass checks each record field by field, in file order, and moves
    its fields into the columns; only one parsed record is held at a time.
    """
    columns: dict[str, int] = {}
    frames, indices, truths, counts, cols, zs, sigmas = [], [], [], [], [], [], []
    keys = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line[0] == "#":
            continue
        try:
            doc, end = _decode(line)
        except (ValueError, RecursionError):  # also too deep or too long an int
            end = None
        if end != len(line):  # json.loads names the fault, extra data and a BOM too
            try:
                json.loads(line)
            except (ValueError, RecursionError) as exc:
                _reject(line_no, "", f"invalid JSON: {exc}")
            raise AssertionError(f"line {line_no}: json.loads accepts what raw_decode rejects")
        # exact types: json gives no subclasses, and a bool is no int here
        if type(doc) is not dict:
            _reject(line_no, "", "record must be a JSON object")
        frame = doc.get("frame")
        if type(frame) is not str or not frame:
            _reject(line_no, "frame", "required non-empty string")
        index = doc.get("index")
        if type(index) is not int or index < 0:
            _reject(line_no, "index", "required non-negative integer")
        if index >= 2**63:
            _reject(line_no, "index", "must be below 2**63")
        truth = doc.get("z_star")
        if truth is not None and not _is_number(truth):
            _reject(line_no, "z_star", "must be a finite number")
        branches = doc.get("branches")
        if type(branches) is not list or not branches:
            _reject(line_no, "branches", "required non-empty list")
        inverse_sum = 0.0
        row_cols = []  # the record's columns so far
        for j, branch in enumerate(branches):
            if type(branch) is not dict:
                _reject(line_no, f"branches[{j}]", "must be an object")
            name = branch.get("name")
            if type(name) is not str or not name:
                _reject(line_no, f"branches[{j}].name", "required non-empty string")
            col = columns.setdefault(name, len(columns))
            if col in row_cols:
                _reject(line_no, f"branches[{j}].name", f"duplicate branch name '{name}'")
            z = branch.get("z")
            if not _is_number(z):
                _reject(line_no, f"branches[{j}].z", "required finite number")
            sigma = branch.get("sigma", 1.0)
            if not (_is_number(sigma) and sigma > 0):
                _reject(line_no, f"branches[{j}].sigma", "must be a finite positive number")
            inverse = 1.0 / sigma
            if not math.isfinite(inverse):
                _reject(line_no, f"branches[{j}].sigma", "too small: 1/sigma overflows")
            inverse_sum += inverse
            row_cols.append(col)
            zs.append(z)
            sigmas.append(sigma)
        if not math.isfinite(inverse_sum):
            _reject(line_no, "branches", "sigmas too small: the sum of 1/sigma overflows")
        if (frame, index) in keys:
            _reject(line_no, "index", f"duplicate record ({frame}, {index})")
        keys.add((frame, index))
        frames.append(frame)
        indices.append(index)
        truths.append(math.nan if truth is None else truth)
        counts.append(len(row_cols))
        cols += row_cols
    rows = np.repeat(np.arange(len(frames)), counts)
    shape = (len(frames), len(columns))
    z_grid, sigma_grid, valid = np.zeros(shape), np.ones(shape), np.zeros(shape, dtype=bool)
    z_grid[rows, cols] = zs
    sigma_grid[rows, cols] = sigmas
    valid[rows, cols] = True
    return EnsembleTable(names=tuple(columns), z=z_grid, sigma=sigma_grid, valid=valid,
                         z_star=truths, frame=frames, index=indices)


def write_predictions(table: EnsembleTable, header: dict | None = None) -> str:
    """Serialize ensembles as JSONL at full float precision, so
    read_predictions(write_predictions(table)) round-trips exactly.

    Each record lists its valid branches in column order and leaves out a
    NaN z_star. A header dict becomes a leading '# {...}' comment line.
    Each line is what json.dumps(record, separators=(",", ":")) writes: the
    names and frames escaped by json.dumps, the numbers by repr.
    """
    out = []
    if header is not None:
        out.append("# " + json.dumps(header, sort_keys=True))
    names = [json.dumps(name) for name in table.names]
    frames = {frame: json.dumps(frame) for frame in set(table.frame)}
    for frame, index, z_star, zs, sigmas, valid in zip(
            table.frame, table.index.tolist(), table.z_star.tolist(),
            table.z.tolist(), table.sigma.tolist(), table.valid.tolist()):
        truth = "" if math.isnan(z_star) else f',"z_star":{z_star!r}'
        branches = ",".join([f'{{"name":{name},"z":{z!r},"sigma":{sigma!r}}}'
                             for name, z, sigma, v in zip(names, zs, sigmas, valid) if v])
        out.append(f'{{"frame":{frames[frame]},"index":{index}{truth},'
                   f'"branches":[{branches}]}}')
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# reports and sweep curves
# ---------------------------------------------------------------------------

def _fmt6(x: float | None) -> str:
    """Fixed 6-significant-digit text for floats ('inf' for infinities, ''
    for None)."""
    return "" if x is None else f"{x:.6g}"


def _round6(x: float | None) -> float | None:
    return None if x is None else float(_fmt6(x))


def _check_format(format: str) -> None:
    if format not in ("json", "csv"):
        raise ValueError(f"unknown format '{format}' (expected 'json' or 'csv')")


def _json(doc: dict, header: dict | None) -> str:
    """doc as indented JSON, led by a "header" object of the header's items
    in key order when a header is given."""
    if header is not None:
        doc = {"header": dict(sorted(header.items())), **doc}
    return json.dumps(doc, indent=2) + "\n"


def _csv(columns, rows, header: dict | None, notes=()) -> str:
    """CSV text: a '# key: value' line per header item in key order, then
    the notes lines, the column row and the rows."""
    buf = io.StringIO()
    buf.writelines(f"# {key}: {header[key]}\n" for key in sorted(header or {}))
    buf.writelines(line + "\n" for line in notes)
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    return buf.getvalue()


def config_header(args) -> dict:
    """The config echo at the top of every output file: the command and
    every option of its parsed CLI arguments, paths as text and lists joined
    by commas (floats at 6 significant digits where that reads back as the
    same float, else in full). The output destinations --out and
    --heatmap-dir are left out: they do not change what is written."""
    echo = {}
    for key, value in vars(args).items():
        if isinstance(value, Path):
            value = str(value)
        elif isinstance(value, list):
            value = ",".join(_fmt6(v) if isinstance(v, float) and float(_fmt6(v)) == v
                             else str(v) for v in value)
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
    _check_format(format)
    if format == "json":
        return _json({
            "n_objects": report.n_objects,
            "reference": report.reference,
            "branches": [{"name": name, "count": report.branch_counts[name],
                          "mae": _round6(report.branch_mae.get(name)),
                          "cs": _round6(report.branch_cs.get(name))}
                         for name in report.branch_names],
            "esop": [{"a": a, "b": b, "value": _round6(v)}
                     for (a, b), v in sorted(report.esop.items())],
            "fused": {"count": report.n_objects, "mae": _round6(report.fused_mae)},
            # an unbounded edge is the text "inf"
            "binned": [{"name": name,
                        "edges": [e if math.isfinite(e) else _fmt6(e) for e in table.edges],
                        "mae": [_round6(v) for v in table.maes],
                        "counts": list(table.counts)}
                       for name, table in sorted(report.binned.items())],
            "flags": list(report.flags),
        }, header)
    columns = ("metric", "branch", "other", "bin_lo", "bin_hi", "value", "count")
    reference = report.reference or ""
    rows = [
        ("n_objects", "", "", "", "", "", report.n_objects),
        ("reference", reference, "", "", "", "", ""),
        *(("mae", name, "", "", "", _fmt6(report.branch_mae.get(name)),
           report.branch_counts[name]) for name in report.branch_names),
        *(("cs", name, reference, "", "", _fmt6(report.branch_cs.get(name)), "")
          for name in report.branch_names if name != report.reference),
        *(("esop", a, b, "", "", _fmt6(v), "") for (a, b), v in sorted(report.esop.items())),
        ("fused_mae", "", "", "", "", _fmt6(report.fused_mae), report.n_objects),
        *(("binned_mae", name, "", _fmt6(lo), _fmt6(hi), _fmt6(m), count)
          for name, table in sorted(report.binned.items())
          for lo, hi, m, count in zip(table.edges, table.edges[1:], table.maes,
                                      table.counts)),
        *(("flag", flag, "", "", "", "", "") for flag in report.flags),
    ]
    return _csv(columns, rows, header)


def write_plane_report(frames: Sequence[dict], summary: dict, format: str = "json",
                       header: dict | None = None) -> str:
    """Serialize a ground-plane report as JSON or CSV.

    frames holds one dict per frame with frame, n_points, fallback, k_h, b_h
    and y_mae (None when no elevation was scored). summary holds
    fallback_frames, n_objects and, when any elevation was scored, y_mae.
    CSV writes the summary as '# key: value' lines under the header.
    Floats are written at 6 significant digits. Raises ValueError naming
    the field when a float is not finite.
    """
    for where, record in [*((f"frame {r['frame']}", r) for r in frames), ("summary", summary)]:
        for key, value in record.items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"plane report: {key} of {where} is not finite ({value})")
    _check_format(format)
    if format == "json":
        return _json({
            "frames": [{**r, "k_h": _round6(r["k_h"]), "b_h": _round6(r["b_h"]),
                        "y_mae": _round6(r["y_mae"])} for r in frames],
            "summary": {**summary, "y_mae": _round6(summary.get("y_mae"))},
        }, header)
    notes = [f"# {key}: {_fmt6(value) if isinstance(value, float) else value}"
             for key, value in sorted(summary.items())]
    rows = [(r["frame"], r["n_points"], int(r["fallback"]), _fmt6(r["k_h"]), _fmt6(r["b_h"]),
             _fmt6(r["y_mae"])) for r in frames]
    return _csv(("frame", "n_points", "fallback", "k_h", "b_h", "y_mae"), rows, header, notes)


def write_curves(curves, header: dict | None = None) -> str:
    """Serialize sweep curves as CSV with columns label,x,mae,count,baseline_mae.

    baseline_mae repeats per row of its curve (blank when the curve has
    none). Floats use 6 significant digits; the optional header dict is
    echoed as '# key: value' comment lines.
    """
    rows = ((curve.label, _fmt6(x), _fmt6(m), count, _fmt6(curve.baseline_mae))
            for curve in curves for x, m, count in zip(curve.x, curve.mae, curve.counts))
    return _csv(("label", "x", "mae", "count", "baseline_mae"), rows, header)
