"""Uncertainty-weighted soft fusion of depth branches.

Each branch carries an uncertainty sigma; its weight is the normalized
inverse uncertainty w_i = (1/sigma_i) / sum_j (1/sigma_j), and the fused
depth is the weighted sum. Normalized weights make the fusion a convex
combination: the result always lies between the smallest and largest branch
depth, and scaling every sigma by a common factor changes nothing.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:
    from .kitti_io import EnsembleTable

#: numpy adds a row of fewer cells than _UNROLL left to right, and a row of
#: up to _BLOCK cells in _UNROLL interleaved partial sums, then the rest of
#: its cells left to right. A longer row it sums in two parts.
_UNROLL, _BLOCK = 8, 128


def row_sums(columns: Sequence[np.ndarray]) -> np.ndarray:
    """Each row's sum over B columns of N cells: bit for bit what
    .sum(axis=1) gives over the row-major (N, B) grid of them, except which
    NaN a NaN sum is, which numpy's own add loops do not agree on either.

    columns is B vectors: the rows of a branch-major (B, N) array, an
    (N, B) grid's .T, or a list or tuple of them. Up to _BLOCK columns
    they are added whole, one vector op per column, in the order numpy adds
    the cells of each row, without its loop over rows.
    """
    n = len(columns)
    if not 0 < n <= _BLOCK:
        # beyond one block, numpy's own sum runs over a row-major copy
        return np.ascontiguousarray(np.transpose(columns)).sum(axis=1)
    head = n - n % _UNROLL  # the columns that go into the partial sums
    if head:
        r = list(columns[:_UNROLL])
        for i in range(_UNROLL, head, _UNROLL):
            r = [a + b for a, b in zip(r, columns[i:i + _UNROLL])]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    else:
        head, total = 1, columns[0].copy()
    for column in columns[head:]:
        total += column
    total += 0.0  # numpy's sum starts from +0.0, so a row of -0.0 sums to 0.0
    return total


def weights(table: EnsembleTable) -> np.ndarray:
    """Each cell's fusion weight, (N, B): its inverse sigma over the row's sum
    of them, 0 outside table.valid. The table guarantees a valid branch per
    row and finite, positive sigmas, so nothing is checked here.

    The array has the memory layout of table.sigma: for a generated table,
    weights(table).T holds one contiguous vector per branch."""
    w = 1.0 / table.sigma
    if not table.valid.all():
        w *= table.valid  # a masked cell's sigma is 1, and 1.0 * False is +0.0
    w /= row_sums(w.T)[:, None]
    return w


def fuse(table: EnsembleTable) -> np.ndarray:
    """The soft fusion of each object's valid branches, one depth per row.

    The package's one fusion kernel: eval fuses a whole EnsembleTable in
    one call. A cell outside table.valid has weight 0, so the z stored
    there changes nothing.
    """
    w = weights(table)
    w *= table.z
    return row_sums(w.T)
