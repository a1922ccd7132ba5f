"""Test helper: the scalar soft fusion that soft_fuse_array is checked against."""

from dataclasses import dataclass
from typing import Sequence


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
