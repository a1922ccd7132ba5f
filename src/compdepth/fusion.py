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


def row_sums(columns: Sequence[np.ndarray]) -> np.ndarray:
    """Each row's sum over B columns of N cells, added left to right from
    +0.0: ((0.0 + c_0) + c_1) + ... + c_(B-1). So a row of -0.0 sums to 0.0,
    and a row's bits depend on nothing but its own cells.

    columns is B vectors: the rows of a branch-major (B, N) array, an
    (N, B) grid's .T, or a list or tuple of them. Each is added whole, one
    vector op per column; a (0, N) array sums to N zeros.
    """
    total = np.zeros(np.shape(columns[:1])[1:])
    for column in columns:
        total += column
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
