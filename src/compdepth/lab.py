"""Synthetic error models and flip experiments for depth ensembles.

The central object is the flip transform: reflecting a prediction about the
truth (z -> 2*z_star - z) negates its signed error while preserving its
magnitude. Per-branch accuracy is therefore untouched, but the fused error
changes whenever branch errors share signs, which makes flips a clean probe
of how much an ensemble loses to error-sign coupling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import KOutOfRange, UnknownBranch
from .fusion import soft_fuse_array
from .kitti_io import EnsembleTable

#: Lower bound of proportional sigmas, which keeps them strictly positive.
SIGMA_FLOOR = 1e-3


def flip(z_hat, z_star):
    """Reflect predictions about the truth: error sign negated, magnitude kept.

    Involution: flip(flip(z, t), t) == z. Works elementwise on arrays.
    """
    return 2.0 * z_star - z_hat


@dataclass(frozen=True)
class ErrorModelConfig:
    """Seeded generator settings for synthetic branch errors.

    Per object a reference sign is drawn; each branch keeps it independently
    with a probability calibrated so the expected pairwise same-sign
    proportion equals coupling_rate. That symmetric mechanism can only reach
    same-sign proportions of 0.5 (independent signs) and above, so
    coupling_rate below 0.5 is rejected. Error magnitudes are half-normal
    with scale error_scale.

    sigma_model: 'constant' gives every branch sigma 1.0; 'proportional'
    sets sigma to the branch's own absolute error (floored at 1e-3).
    """

    n_branches: int = 4
    coupling_rate: float = 0.95
    error_scale: float = 1.0
    sigma_model: str = "constant"
    seed: int = 0

    def __post_init__(self):
        if self.n_branches < 2:
            raise ValueError("need at least 2 branches")
        if not 0.5 <= self.coupling_rate <= 1.0:
            raise ValueError(
                "coupling_rate must be in [0.5, 1]: the symmetric sign model "
                "cannot produce same-sign proportions below 0.5"
            )
        if not (math.isfinite(self.error_scale) and self.error_scale > 0):
            raise ValueError(f"error_scale must be finite and positive, got {self.error_scale}")
        if self.sigma_model not in ("constant", "proportional"):
            raise ValueError("sigma_model must be 'constant' or 'proportional'")

    @property
    def branch_names(self) -> tuple[str, ...]:
        return tuple(f"b{i}" for i in range(self.n_branches))


def generate_ensembles(truths: Sequence[float],
                       cfg: ErrorModelConfig) -> EnsembleTable:
    """Synthetic ensembles around the given true depths.

    Deterministic for a fixed (truths, cfg): one root generator seeded from
    cfg.seed drives all draws in a fixed order. Branches are named b0..bN-1;
    frames are the zero-padded object numbers, indices 0.

    Raises ValueError when a draw overflows to a non-finite depth or sigma.
    """
    truths = np.asarray(truths, dtype=float)
    if truths.ndim != 1 or truths.size == 0:
        raise ValueError("truths must be a non-empty 1-D sequence")
    n_obj, n_br = truths.size, cfg.n_branches
    rng = np.random.default_rng(cfg.seed)

    ref_sign = rng.choice([-1.0, 1.0], size=n_obj)
    # Pairwise same-sign probability of independent keep/flip decisions is
    # a^2 + (1-a)^2; solving for the target rate gives the keep probability.
    keep_p = 0.5 * (1.0 + math.sqrt(2.0 * cfg.coupling_rate - 1.0))
    keep = rng.random((n_obj, n_br)) < keep_p
    signs = ref_sign[:, None] * np.where(keep, 1.0, -1.0)
    magnitudes = np.abs(rng.normal(0.0, cfg.error_scale, size=(n_obj, n_br)))
    errors = signs * magnitudes

    if cfg.sigma_model == "constant":
        sigmas = np.ones((n_obj, n_br))
    else:
        sigmas = np.maximum(magnitudes, SIGMA_FLOOR)
    return EnsembleTable(names=cfg.branch_names, z=truths[:, None] + errors,
                         sigma=sigmas, z_star=truths)


@dataclass(frozen=True)
class SweepCurve:
    """One experiment curve: MAE as a function of a swept quantity.

    baseline_mae is the MAE of the untouched ensembles, reported so curves
    that modify every point (e.g. disturbance at 50% flips) remain
    comparable to doing nothing.
    """

    x: tuple[float, ...]
    mae: tuple[float, ...]
    counts: tuple[int, ...]
    baseline_mae: float | None = None
    label: str = ""

    def __post_init__(self):
        if not (len(self.x) == len(self.mae) == len(self.counts)):
            raise ValueError("x, mae, counts must have equal length")
        if any(self.x[i] >= self.x[i + 1] for i in range(len(self.x) - 1)):
            raise ValueError("x must be strictly increasing")
        if not all(math.isfinite(m) for m in (*self.mae, self.baseline_mae or 0.0)):
            raise ValueError("MAE overflowed to a non-finite value")


def _branch_column(names: Sequence[str], branch_name: str) -> int:
    try:
        return list(names).index(branch_name)
    except ValueError:
        raise UnknownBranch(f"branch '{branch_name}' not in {list(names)}") from None


def _require_truth(table: EnsembleTable) -> None:
    if len(table) == 0:
        raise ValueError("need at least one ensemble")
    missing = np.isnan(table.z_star)
    if missing.any():
        i = int(np.argmax(missing))
        raise ValueError(f"ensemble ({table.frame[i]}, {table.index[i]}) has no z_star")


def _fused_mae(table: EnsembleTable, z: np.ndarray) -> float:
    """MAE over all objects of the fusion of z with the table's sigmas,
    each object fused over its present branches."""
    fused = soft_fuse_array(z, table.sigma, valid=table.valid)
    return float(np.mean(np.abs(fused - table.z_star)))


# Ragged ensembles: the sweeps below pick their seeded subsets from all N
# objects and report count N, and fusion uses each object's present
# branches. A flip or disturbance therefore acts only on selected objects
# that carry the branch: one written into a missing cell has weight 0.

def flip_sweep(table: EnsembleTable, branch_name: str,
               proportions: Sequence[float] = (0.0, 0.25, 0.5, 0.75, 1.0),
               seed: int = 0) -> SweepCurve:
    """Fused MAE as a growing share of objects gets one branch flipped.

    A single seeded permutation of the objects makes the flipped subsets
    nested: a higher proportion flips a superset of a lower one, so curves
    are comparable point to point.
    """
    props = sorted(float(p) for p in proportions)
    if not props:
        raise ValueError("proportions must not be empty")
    if len(set(props)) != len(props):
        raise ValueError("proportions must be distinct")
    if not all(0.0 <= p <= 1.0 for p in props):
        raise ValueError("proportions must lie in [0, 1]")
    _require_truth(table)
    z, z_star = table.z, table.z_star
    col = _branch_column(table.names, branch_name)
    n = z.shape[0]
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)

    baseline = _fused_mae(table, z)
    maes = []
    for p in props:
        m = int(round(p * n))
        zz = z.copy()
        rows = perm[:m]
        zz[rows, col] = flip(zz[rows, col], z_star[rows])
        maes.append(_fused_mae(table, zz))
    return SweepCurve(x=tuple(props), mae=tuple(maes), counts=(n,) * len(props),
                      baseline_mae=baseline, label=f"flip:{branch_name}")


def disturb_sweep(table: EnsembleTable, branch_name: str,
                  amplitudes: Sequence[float] = (0.0, 1.0, 2.0, 4.0, 6.0, 8.0, 10.0),
                  seed: int = 0) -> SweepCurve:
    """Fused MAE when half the objects get one branch flipped plus noise.

    The flip proportion is fixed at 0.5 (same seeded subset mechanism as
    flip_sweep, so amplitude 0 matches flip_sweep at p = 0.5 for the same
    seed). Uniform noise in [-a, a] is added to the flipped branch; one
    noise draw per object is scaled by each amplitude, so the sweep shows
    the amplitude effect without resampling jitter. The baseline_mae field
    carries the untouched-ensemble MAE, which the curve crosses once the
    noise outweighs what the flips repaired.
    """
    amps = sorted(float(a) for a in amplitudes)
    if not amps:
        raise ValueError("amplitudes must not be empty")
    if len(set(amps)) != len(amps):
        raise ValueError("amplitudes must be distinct")
    if not all(0.0 <= a < math.inf for a in amps):
        raise ValueError("amplitudes must be finite and non-negative")
    _require_truth(table)
    z, z_star = table.z, table.z_star
    col = _branch_column(table.names, branch_name)
    n = z.shape[0]
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    rows = perm[:int(round(0.5 * n))]
    unit_noise = rng.uniform(-1.0, 1.0, size=n)

    baseline = _fused_mae(table, z)
    flipped = flip(z[rows, col], z_star[rows])
    maes = []
    for a in amps:
        zz = z.copy()
        zz[rows, col] = flipped + a * unit_noise[rows]
        maes.append(_fused_mae(table, zz))
    return SweepCurve(x=tuple(amps), mae=tuple(maes), counts=(n,) * len(amps),
                      baseline_mae=baseline, label=f"disturb:{branch_name}")


def multi_flip(table: EnsembleTable, k: int, seed: int = 0) -> float:
    """Fused MAE over all objects after flipping k branches simultaneously
    on a seeded half of the objects.

    The flip set is chosen by branch order: the first k branches when
    k <= n/2, otherwise the last k. That pairing makes the k and n-k sets
    exact complements, so flipping k branches and flipping the other n-k
    produce identical fused error magnitudes object by object (negating
    every term of a sum flips its sign, not its magnitude).
    """
    _require_truth(table)
    z, z_star = table.z, table.z_star
    n_br = len(table.names)
    if not 0 <= k <= n_br:
        raise KOutOfRange(f"k={k} outside 0..{n_br}")
    cols = range(k) if 2 * k <= n_br else range(n_br - k, n_br)

    n = z.shape[0]
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    rows = perm[:int(round(0.5 * n))]

    zz = z.copy()
    for c in cols:
        zz[rows, c] = flip(zz[rows, c], z_star[rows])
    return _fused_mae(table, zz)
