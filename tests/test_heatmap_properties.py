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
    HorizonLine,
    fit_horizon,
    heatmap_from_pgm,
    heatmap_to_pgm,
    horizon_pgm,
    rasterize_horizon,
)


def rasterize_reference(h: HorizonLine, width: int, height: int,
                        radius: float) -> np.ndarray:
    """One column at a time: the Gaussian window around the line row."""
    sigma = radius / 3.0
    grid = np.zeros((height, width), dtype=float)
    for u in range(width):
        v = h.k_h * u + h.b_h
        lo = max(0, math.ceil(v - radius))
        hi = min(height - 1, math.floor(v + radius))
        if lo > hi:
            continue
        rows = np.arange(lo, hi + 1)
        grid[rows, u] = np.exp(-((rows - v) ** 2) / (2.0 * sigma * sigma))
    return grid


def pgm_encode_reference(grid: np.ndarray) -> bytes:
    header = f"P5\n{grid.shape[1]} {grid.shape[0]}\n255\n".encode("ascii")
    return header + np.rint(np.clip(grid, 0.0, 1.0) * 255.0).astype(np.uint8).tobytes()


def pgm_decode_reference(data: bytes) -> np.ndarray:
    match = re.match(rb"P5\s+(\d+)\s+(\d+)\s+(\d+)\s", data)
    width, height = int(match.group(1)), int(match.group(2))
    body = data[match.end():]
    return (np.frombuffer(body, dtype=np.uint8).reshape(height, width) / 255.0).astype(float)


def fit_reference(grid: np.ndarray):
    """fit_horizon(grid, with_info=True) with the column max and the
    fancy-indexed argmax it used before."""
    usable = grid.max(axis=0) > 0.0
    cols = np.nonzero(usable)[0]
    if cols.size < 2:
        raise ValueError(f"only {cols.size} usable columns")
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
    line = HorizonLine(float(k_h), float(b_h))
    residuals = rows - (line.k_h * cols + line.b_h)
    return line, (int(cols.size), float(np.sqrt(np.mean(residuals ** 2))),
                  cols.size < 0.5 * grid.shape[1] or border_frac > 0.25)


finite = dict(allow_nan=False, allow_infinity=False)
lines = st.builds(
    HorizonLine,
    st.one_of(st.floats(-0.1, 0.1, **finite), st.floats(-50.0, 50.0, **finite)),
    st.floats(-50.0, 450.0, **finite),
)


@given(lines, st.integers(1, 400), st.integers(1, 400))
def test_rasterize_matches_column_loop(line, width, height):
    grid = rasterize_horizon(line, width, height)
    assert grid.dtype == np.float64
    assert grid.tobytes() == rasterize_reference(line, width, height, 2.0).tobytes()


# steep lines and lines far off the image as well as ordinary ones
any_lines = st.builds(
    HorizonLine,
    st.one_of(st.floats(-0.1, 0.1, **finite), st.floats(-1e4, 1e4, **finite)),
    st.one_of(st.floats(-50.0, 450.0, **finite), st.floats(-1e6, 1e6, **finite)),
)
sizes = st.one_of(st.just(1), st.integers(1, 400))


@given(any_lines, sizes, sizes)
def test_horizon_pgm_matches_rasterized_encoding(line, width, height):
    assert horizon_pgm(line, width, height) == heatmap_to_pgm(
        rasterize_horizon(line, width, height))


@pytest.mark.parametrize("line, width, height", [
    (HorizonLine(math.nan, 1.0), 8, 6),
    (HorizonLine(math.inf, 1.0), 8, 6),
    (HorizonLine(0.0, -math.inf), 8, 6),
    (HorizonLine(0.0, 1.0), 0, 6),
    (HorizonLine(0.0, 1.0), 8, 0),
    (HorizonLine(math.nan, 1.0), 0, 6),
])
def test_horizon_pgm_rejects_what_rasterize_rejects(line, width, height):
    with pytest.raises(ValueError) as expected:
        rasterize_horizon(line, width, height)
    with pytest.raises(ValueError, match=re.escape(str(expected.value))):
        horizon_pgm(line, width, height)


# values near [0, 1], a pixel's rounding tie or step, and the whole finite range
grids = st.integers(1, 24).flatmap(lambda h: st.integers(1, 24).flatmap(
    lambda w: arrays(float, (h, w), elements=st.one_of(
        st.sampled_from([0.0, 0.5 / 255.0, 1.5 / 255.0, 0.25, 1.0]),
        st.floats(-0.5, 1.5, **finite),
        st.integers(-2, 257).flatmap(lambda n: st.sampled_from([n / 255.0,
                                                                (n + 0.5) / 255.0])),
        st.floats(**finite)))))


@given(grids)
def test_pgm_encode_decode_match_references(grid):
    before = grid.tobytes()
    data = heatmap_to_pgm(grid)
    assert grid.tobytes() == before
    assert data == pgm_encode_reference(grid)
    back = heatmap_from_pgm(data)
    assert back.dtype == np.uint8
    assert not back.flags.writeable
    assert (back / 255.0).tobytes() == pgm_decode_reference(data).tobytes()


# few distinct values, so columns tie on their peak and have flat tops
tie_grids = st.integers(1, 12).flatmap(lambda h: st.integers(1, 16).flatmap(
    lambda w: arrays(float, (h, w), elements=st.sampled_from([0.0, 0.0, 0.1, 0.5, 1.0]))))


@given(tie_grids)
def test_fit_horizon_matches_reference(grid):
    try:
        expected = fit_reference(grid)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            fit_horizon(grid)
        return
    line, info = fit_horizon(grid, with_info=True)
    assert repr(line) == repr(expected[0])
    assert (info.columns_used, info.rms_residual, info.degraded) == expected[1]
    assert info.width == grid.shape[1]


@given(st.one_of(
    st.builds(rasterize_horizon, lines, st.integers(1, 60), st.integers(1, 40)),
    tie_grids))
def test_fit_horizon_of_pgm_matches_float_decode(grid):
    """The fit reads the uint8 pixels exactly as the float grid they decode to."""
    data = heatmap_to_pgm(grid)
    try:
        expected = fit_reference(pgm_decode_reference(data))
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            fit_horizon(heatmap_from_pgm(data))
        return
    line, info = fit_horizon(heatmap_from_pgm(data), with_info=True)
    assert repr(line) == repr(expected[0])
    assert repr((info.columns_used, info.rms_residual, info.degraded)) == repr(expected[1])


whitespace = st.text(" \t\n\r\v\f", min_size=1, max_size=3)
# a Netpbm comment runs from '#' to the end of its line
comment = st.tuples(st.sampled_from(["#", "# written by another tool 255"]),
                    st.sampled_from("\n\r")).map("".join)
separator = st.lists(st.one_of(whitespace, comment), min_size=1, max_size=3).map("".join)
number = st.integers(1, 12).flatmap(lambda n: st.tuples(
    st.just(n), st.sampled_from(["{}", "0{}", "00{}"])))


@given(number, number, separator, separator, separator, st.sampled_from(" \t\n\r\v\f"),
       st.randoms(use_true_random=False))
def test_pgm_pixels_write_back_unchanged(width, height, sep1, sep2, sep3, last, rnd):
    """Any valid P5 file, comments between its header tokens included,
    reads back and writes out as the same pixel bytes under the canonical
    header, so a canonical file is written back as is."""
    (w, w_fmt), (h, h_fmt) = width, height
    body = rnd.randbytes(w * h)
    header = f"P5{sep1}{w_fmt.format(w)}{sep2}{h_fmt.format(h)}{sep3}255{last}"
    canonical = f"P5\n{w} {h}\n255\n".encode("ascii") + body
    assert heatmap_to_pgm(heatmap_from_pgm(header.encode("ascii") + body)) == canonical
    assert heatmap_to_pgm(heatmap_from_pgm(canonical)) == canonical
