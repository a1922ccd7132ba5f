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


def weights(table: EnsembleTable) -> np.ndarray:
    """Each cell's fusion weight, (N, B): its inverse sigma over the row's sum
    of them, 0 outside table.valid. The table guarantees a valid branch per
    row and finite, positive sigmas, so nothing is checked here."""
    w = np.zeros(table.sigma.shape)
    np.divide(1.0, table.sigma, out=w, where=table.valid)
    w /= w.sum(axis=1, keepdims=True)
    return w


def fuse(table: EnsembleTable) -> np.ndarray:
    """The soft fusion of each object's valid branches, one depth per row.

    The package's one fusion kernel: eval fuses a whole EnsembleTable in
    one call. A cell outside table.valid has weight 0, so the z stored
    there changes nothing.
    """
    return (weights(table) * table.z).sum(axis=1)
