"""Test helpers: the per-column rasterizer, the float PGM encoder and
decoder, and the line fit that the horizon heatmap path is checked against.
A heatmap here is a (height, width) float grid in [0, 1]; its PGM pixel is
round(255 * value)."""

import math
import re

import numpy as np

from compdepth import HorizonLine


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


def closed_form_line(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """The least-squares line y = k * x + b in closed form from the centred
    sums, in fit_horizon's order of operations."""
    x_mean, y_mean = x.mean(), y.mean()
    dx = x - x_mean
    k = np.sum(dx * (y - y_mean)) / np.sum(dx * dx)
    return float(k), float(y_mean - k * x_mean)


def polyfit_line(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """The same line from np.polyfit, which solves it through LAPACK."""
    k, b = np.polyfit(x, y, 1)
    return float(k), float(b)


def gap_px(a: HorizonLine, b: HorizonLine, width: int) -> float:
    """Largest distance between two lines over the columns of an image."""
    return max(abs((a.k_h - b.k_h) * u + a.b_h - b.b_h) for u in (0, width - 1))


def fit_reference(grid: np.ndarray, line_fit=closed_form_line):
    """fit_horizon(pixels, with_info=True) for the float grid pixels / 255,
    with the column max and the fancy-indexed argmax it used before, and
    line_fit(columns, peak rows) for its line."""
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
    line = HorizonLine(*line_fit(cols.astype(float), rows))
    residuals = rows - (line.k_h * cols + line.b_h)
    return line, (int(cols.size), float(np.sqrt(np.mean(residuals ** 2))),
                  cols.size < 0.5 * grid.shape[1] or border_frac > 0.25)
