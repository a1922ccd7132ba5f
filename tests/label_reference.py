"""The line-by-line KITTI label parser, kept as the reference that the
columnar compdepth.parse_labels must agree with."""

import math

from compdepth import CompdepthError, Object3D

_N_LABEL_FIELDS = 15


def parse_labels(text: str) -> list[Object3D]:
    """Parse a KITTI label file. Empty lines are skipped; 'DontCare' rows are
    kept (flagged via Object3D.is_dontcare) so indices match the file.

    Raises CompdepthError ('line N: ...', N 1-based) on a wrong token count
    or unparseable numbers; nothing is returned on failure.
    """
    objects: list[Object3D] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) not in (_N_LABEL_FIELDS, _N_LABEL_FIELDS + 1):
            raise CompdepthError(
                f"line {line_no}: expected {_N_LABEL_FIELDS} or {_N_LABEL_FIELDS + 1} "
                f"fields, got {len(tokens)}"
            )
        try:
            values = [float(t) for t in tokens[1:]]
        except ValueError as exc:
            raise CompdepthError(f"line {line_no}: non-numeric field: {exc}") from None
        if not all(math.isfinite(v) for v in values):
            raise CompdepthError(f"line {line_no}: non-finite field")
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
