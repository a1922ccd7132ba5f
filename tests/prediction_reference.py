"""The record-by-record prediction JSONL reader, kept as the reference that
compdepth.read_predictions must agree with, table and error alike."""

import json
import math

import numpy as np

from compdepth import CompdepthError, EnsembleTable


def _require(condition: bool, line_no: int, fieldpath: str, message: str):
    if not condition:
        raise CompdepthError(f"line {line_no}: field '{fieldpath}': {message}")


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
    gives an empty table. Raises CompdepthError ("line N: field 'F': ...",
    with the line number and field path) on the first violation, including
    a repeated (frame, index) and a record whose 1/sigma values sum past
    the float range, which fusion divides by.
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
            raise CompdepthError(f"line {line_no}: field '': invalid JSON: {exc}") from None
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
