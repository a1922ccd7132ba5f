"""Uncertainty-weighted soft fusion of depth branches.

Each branch carries an uncertainty sigma; its weight is the normalized
inverse uncertainty w_i = (1/sigma_i) / sum_j (1/sigma_j), and the fused
depth is the weighted sum. Normalized weights make the fusion a convex
combination: the result always lies between the smallest and largest branch
depth, and scaling every sigma by a common factor changes nothing.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .kitti_io import EnsembleTable


def fuse(table: EnsembleTable, z: np.ndarray | None = None) -> np.ndarray:
    """The soft fusion of each object's valid branches, one depth per row.

    The package's one fusion kernel: eval and the sweeps fuse a whole
    EnsembleTable in one call. Cells outside table.valid get weight 0
    (inv = where(valid, 1/sigma, 0)), so any finite z there changes
    nothing. z defaults to table.z; a sweep passes its modified copy of the
    same (N, B) shape. The table guarantees at least one valid branch per
    row and finite, positive sigmas, so nothing is checked here.
    """
    inverse = np.where(table.valid, 1.0 / table.sigma, 0.0)
    total = inverse.sum(axis=1, keepdims=True)
    return (inverse / total * (table.z if z is None else z)).sum(axis=1)
