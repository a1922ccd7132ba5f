"""Uncertainty-weighted soft fusion of depth branches.

Each branch carries an uncertainty sigma; its weight is the normalized
inverse uncertainty w_i = (1/sigma_i) / sum_j (1/sigma_j), and the fused
depth is the weighted sum. Normalized weights make the fusion a convex
combination: the result always lies between the smallest and largest branch
depth, and scaling every sigma by a common factor changes nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import AllBranchesInvalid, EmptyEnsemble, LengthMismatch, NonPositiveSigma


@dataclass(frozen=True)
class FusedDepth:
    """Fusion result: the fused depth and the weights that produced it."""

    z_soft: float
    weights: tuple[float, ...]


def soft_fuse(branches: Sequence[tuple[float, float]]) -> FusedDepth:
    """Fuse (z, sigma) pairs into one depth; the scalar reference of soft_fuse_array.

    Raises:
        EmptyEnsemble: no branches given.
        NonPositiveSigma: any sigma <= 0.
    """
    branches = list(branches)
    if not branches:
        raise EmptyEnsemble("fusion needs at least one branch")
    for _, sigma in branches:
        if sigma <= 0:
            raise NonPositiveSigma(f"sigma must be positive, got {sigma}")
    inverse = [1.0 / sigma for _, sigma in branches]
    total = sum(inverse)
    weights = tuple(w / total for w in inverse)
    z_soft = sum(w * z for w, (z, _) in zip(weights, branches))
    return FusedDepth(z_soft=z_soft, weights=weights)


def soft_fuse_array(z: np.ndarray, sigma: np.ndarray, axis: int = -1,
                    valid: np.ndarray | None = None) -> np.ndarray:
    """Vectorized soft fusion along an axis of matching z / sigma arrays.

    The package's one fusion kernel: eval and the sweeps fuse a whole
    EnsembleTable in one call. An optional boolean valid mask of the same
    shape restricts each fusion to its present branches: masked-out cells
    get weight 0 (inv = where(valid, 1/sigma, 0)), so the result is the soft
    fusion of the valid subset. Masked-out cells must still hold finite z
    and positive sigma (EnsembleTable stores z = 0, sigma = 1 there). With
    every cell valid the result equals the unmasked fusion bit for bit.

    Raises:
        LengthMismatch: z, sigma (and valid) shapes differ.
        EmptyEnsemble: the fused axis has length 0.
        NonPositiveSigma: any sigma <= 0.
        AllBranchesInvalid: the mask excludes every branch of some object.
    """
    z = np.asarray(z, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    if z.shape != sigma.shape:
        raise LengthMismatch(f"z shape {z.shape} vs sigma shape {sigma.shape}")
    if z.shape[axis] == 0:
        raise EmptyEnsemble("fusion needs at least one branch")
    if np.any(sigma <= 0):
        raise NonPositiveSigma("all sigmas must be positive")
    inverse = 1.0 / sigma
    if valid is not None:
        valid = np.asarray(valid, dtype=bool)
        if valid.shape != z.shape:
            raise LengthMismatch(f"z shape {z.shape} vs mask shape {valid.shape}")
        inverse = np.where(valid, inverse, 0.0)
    total = inverse.sum(axis=axis, keepdims=True)
    if valid is not None and not np.all(total > 0):
        raise AllBranchesInvalid("mask excludes every branch of an object")
    return (inverse / total * z).sum(axis=axis)
