"""Test helpers: the scalar soft fusion that fuse is checked against, the
left-to-right row sums that the whole-grid fusion references use, and the
table that fuse takes built from raw arrays."""

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from compdepth import EnsembleTable


@dataclass(frozen=True)
class FusedDepth:
    """Fusion result: the fused depth and the weights that produced it."""

    z_soft: float
    weights: tuple[float, ...]


def soft_fuse(branches: Sequence[tuple[float, float]]) -> FusedDepth:
    """Fuse (z, sigma) pairs into one depth, one branch at a time.

    Each weight is the normalized inverse sigma. Callers pass at least one
    branch and positive sigmas.
    """
    inverse = [1.0 / sigma for _, sigma in branches]
    total = sum(inverse)
    weights = tuple(w / total for w in inverse)
    z_soft = sum(w * z for w, (z, _) in zip(weights, branches))
    return FusedDepth(z_soft=z_soft, weights=weights)


def left_to_right_sums(grid) -> np.ndarray:
    """Each row of an (N, B) grid summed left to right from +0.0: the last
    of the running sums that np.add.accumulate takes one cell at a time
    along a row that starts with a 0.0 cell."""
    grid = np.asarray(grid, dtype=float)
    return np.add.accumulate(np.column_stack([np.zeros(len(grid)), grid]), axis=1)[:, -1]


def table_of(z, sigma, valid=None) -> EnsembleTable:
    """The EnsembleTable of (N, B) z and sigma columns, branches named b0,
    b1, ..., without z_star."""
    z = np.asarray(z, dtype=float)
    return EnsembleTable(names=[f"b{j}" for j in range(z.shape[1])], z=z, sigma=sigma,
                         valid=valid, z_star=np.full(len(z), np.nan))
