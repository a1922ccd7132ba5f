"""Property tests of the horizon heatmap path against the per-column and
per-call references it replaced: rasterization, PGM encode/decode and the
peak search of the line fit must give the same bits."""

import math
import re

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from compdepth import (  # noqa: E402
    HorizonHeatmap,
    HorizonLine,
    fit_horizon,
    heatmap_from_pgm,
    heatmap_to_pgm,
    rasterize_horizon,
)
from compdepth.errors import InsufficientSupport  # noqa: E402


def rasterize_reference(h: HorizonLine, width: int, height: int,
                        radius: float) -> np.ndarray:
    """One column at a time: the Gaussian window around the line row."""
    sigma = radius / 3.0
    grid = np.zeros((height, width), dtype=float)
    for u in range(width):
        v = h.row_at(u)
        lo = max(0, math.ceil(v - radius))
        hi = min(height - 1, math.floor(v + radius))
        if lo > hi:
            continue
        rows = np.arange(lo, hi + 1)
        grid[rows, u] = np.exp(-((rows - v) ** 2) / (2.0 * sigma * sigma))
    return grid


def pgm_encode_reference(m: HorizonHeatmap) -> bytes:
    header = f"P5\n{m.width} {m.height}\n255\n".encode("ascii")
    return header + np.rint(np.clip(m.grid, 0.0, 1.0) * 255.0).astype(np.uint8).tobytes()


def pgm_decode_reference(data: bytes) -> np.ndarray:
    match = re.match(rb"P5\s+(\d+)\s+(\d+)\s+(\d+)\s", data)
    width, height = int(match.group(1)), int(match.group(2))
    body = data[match.end():]
    return (np.frombuffer(body, dtype=np.uint8).reshape(height, width) / 255.0).astype(float)


def fit_reference(m: HorizonHeatmap, trim: float):
    """fit_horizon(m, trim, with_info=True) with the column max and the
    fancy-indexed argmax it used before."""
    grid = m.grid
    usable = grid.max(axis=0) > 0.0
    cols = np.nonzero(usable)[0]
    if cols.size < 2:
        raise InsufficientSupport(f"only {cols.size} usable columns")
    argmax = np.argmax(grid[:, cols], axis=0)
    rows = argmax.astype(float)
    inner = (argmax > 0) & (argmax < grid.shape[0] - 1)
    ci, ri = cols[inner], argmax[inner]
    lo, mid, hi = grid[ri - 1, ci], grid[ri, ci], grid[ri + 1, ci]
    ok = (lo > 0.0) & (hi > 0.0)
    l0, l1, l2 = np.log(lo[ok]), np.log(mid[ok]), np.log(hi[ok])
    denom = l0 - 2.0 * l1 + l2
    good = denom < 0.0
    offset = np.zeros_like(denom)
    offset[good] = 0.5 * (l0[good] - l2[good]) / denom[good]
    np.clip(offset, -1.0, 1.0, out=offset)
    rows[np.nonzero(inner)[0][ok]] += offset
    border_frac = float(np.mean((argmax == 0) | (argmax == grid.shape[0] - 1)))
    k_h, b_h = np.polyfit(cols.astype(float), rows, 1)
    if trim > 0.0:
        residuals = np.abs(rows - (k_h * cols + b_h))
        keep = max(2, int(round((1.0 - trim) * cols.size)))
        order = np.argsort(residuals, kind="stable")[:keep]
        k_h, b_h = np.polyfit(cols[order].astype(float), rows[order], 1)
        cols, rows = cols[order], rows[order]
    line = HorizonLine(float(k_h), float(b_h))
    residuals = rows - (line.k_h * cols + line.b_h)
    return line, (int(cols.size), float(np.sqrt(np.mean(residuals ** 2))),
                  cols.size < 0.5 * m.width or border_frac > 0.25)


finite = dict(allow_nan=False, allow_infinity=False)
lines = st.builds(
    HorizonLine,
    st.one_of(st.floats(-0.1, 0.1, **finite), st.floats(-50.0, 50.0, **finite)),
    st.floats(-50.0, 450.0, **finite),
)


@given(lines, st.integers(1, 400), st.integers(1, 400), st.floats(0.3, 6.0))
def test_rasterize_matches_column_loop(line, width, height, radius):
    grid = rasterize_horizon(line, width, height, radius=radius).grid
    assert grid.dtype == np.float64
    assert grid.tobytes() == rasterize_reference(line, width, height, radius).tobytes()


grids = st.integers(1, 24).flatmap(lambda h: st.integers(1, 24).flatmap(
    lambda w: arrays(float, (h, w), elements=st.one_of(
        st.sampled_from([0.0, 0.5 / 255.0, 1.5 / 255.0, 0.25, 1.0]),
        st.floats(-0.5, 1.5, **finite)))))


@given(grids)
def test_pgm_encode_decode_match_references(grid):
    m = HorizonHeatmap(grid)
    data = heatmap_to_pgm(m)
    assert data == pgm_encode_reference(m)
    back = heatmap_from_pgm(data).grid
    assert back.dtype == np.float64
    assert back.tobytes() == pgm_decode_reference(data).tobytes()


# few distinct values, so columns tie on their peak and have flat tops
tie_grids = st.integers(1, 12).flatmap(lambda h: st.integers(1, 16).flatmap(
    lambda w: arrays(float, (h, w), elements=st.sampled_from([0.0, 0.0, 0.1, 0.5, 1.0]))))


@given(tie_grids, st.sampled_from([0.0, 0.25]))
def test_fit_horizon_matches_reference(grid, trim):
    m = HorizonHeatmap(grid)
    try:
        expected = fit_reference(m, trim)
    except InsufficientSupport as exc:
        with pytest.raises(InsufficientSupport, match=str(exc)):
            fit_horizon(m, trim=trim)
        return
    line, info = fit_horizon(m, trim=trim, with_info=True)
    assert repr(line) == repr(expected[0])
    assert (info.columns_used, info.rms_residual, info.degraded) == expected[1]
    assert info.width == m.width
