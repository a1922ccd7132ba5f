"""Synthetic error models and flip experiments for depth ensembles.

The central object is the flip transform: reflecting a prediction about the
truth (z -> 2*z_star - z) negates its signed error while preserving its
magnitude. Per-branch accuracy is therefore untouched, but the fused error
changes whenever branch errors share signs, which makes flips a clean probe
of how much an ensemble loses to error-sign coupling.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fusion import row_sums, weights
from .kitti_io import EnsembleTable

#: The sigma models of branch_sigmas.
SIGMA_MODELS = ("constant", "proportional")
#: Lower bound of proportional sigmas, which keeps them strictly positive.
SIGMA_FLOOR = 1e-3
#: The default levels of flip_sweep and disturb_sweep.
DEFAULT_PROPORTIONS = (0.0, 0.25, 0.5, 0.75, 1.0)
DEFAULT_AMPLITUDES = (0.0, 1.0, 2.0, 4.0, 6.0, 8.0, 10.0)
#: SweepCurve's error text for a curve whose MAE overflowed.
MAE_OVERFLOW = "MAE overflowed to a non-finite value"


def flip(z_hat, z_star):
    """Reflect predictions about the truth: error sign negated, magnitude kept.

    Involution: flip(flip(z, t), t) == z. Works elementwise on arrays.
    """
    return 2.0 * z_star - z_hat


def branch_sigmas(errors, sigma_model: str) -> np.ndarray:
    """Branch sigmas for an array of errors under a model in SIGMA_MODELS:
    1.0 everywhere ('constant'), or each error's magnitude floored at
    SIGMA_FLOOR ('proportional')."""
    if sigma_model == "constant":
        return np.ones(np.shape(errors))
    return np.maximum(np.abs(errors), SIGMA_FLOOR)


def check_generator_settings(n_branches: int, coupling_rate: float, error_scale: float,
                             sigma_model: str) -> None:
    """ValueError for the first bad setting of generate_ensembles, in the
    order of its signature. generate_ensembles runs it first; a caller that
    draws the truths can run it before that draw."""
    if n_branches < 2:
        raise ValueError(f"need at least 2 branches, got {n_branches}")
    if not 0.5 <= coupling_rate <= 1.0:
        raise ValueError(
            "coupling_rate must be in [0.5, 1]: the symmetric sign model "
            "cannot produce same-sign proportions below 0.5"
        )
    if not (math.isfinite(error_scale) and error_scale > 0):
        raise ValueError(f"error_scale must be finite and positive, got {error_scale}")
    if sigma_model not in SIGMA_MODELS:
        raise ValueError("sigma_model must be 'constant' or 'proportional'")


def generate_ensembles(truths: Sequence[float], *, n_branches: int = 4,
                       coupling_rate: float = 0.95, error_scale: float = 1.0,
                       sigma_model: str = "constant", seed: int = 0) -> EnsembleTable:
    """Seeded synthetic ensembles around the given true depths.

    Per object a reference sign is drawn; each branch keeps it independently
    with a probability calibrated so the expected pairwise same-sign
    proportion equals coupling_rate. That symmetric mechanism can only reach
    same-sign proportions of 0.5 (independent signs) and above, so
    coupling_rate below 0.5 is rejected. Error magnitudes are half-normal
    with scale error_scale, and sigmas follow sigma_model (branch_sigmas).

    Deterministic for fixed arguments: one root generator seeded from seed
    drives all draws in a fixed order. Branches are named b0..bN-1; frames
    are the zero-padded object numbers, indices 0. The z and sigma grids
    are stored branch-major: table.z.T holds one contiguous vector per
    branch, which is how the sweeps read them.

    Raises ValueError for a bad setting, checked before any draw, and,
    naming error_scale, when a draw overflows to a non-finite depth.
    """
    check_generator_settings(n_branches, coupling_rate, error_scale, sigma_model)
    truths = np.array(truths, dtype=float)  # a copy: the table makes it read-only
    if truths.ndim != 1 or truths.size == 0:
        raise ValueError("truths must be a non-empty 1-D sequence")
    n_obj = truths.size
    rng = np.random.default_rng(seed)

    ref_sign = rng.choice([-1.0, 1.0], size=n_obj)
    # Pairwise same-sign probability of independent keep/flip decisions is
    # a^2 + (1-a)^2; solving for the target rate gives the keep probability.
    keep_p = 0.5 * (1.0 + math.sqrt(2.0 * coupling_rate - 1.0))
    flipped = rng.random((n_obj, n_branches)) >= keep_p
    # z is built branch-major, (B, N): the error magnitudes, then in place
    # their signs and the truth
    z = np.abs(rng.normal(0.0, error_scale, size=(n_obj, n_branches)).T, order="C")
    sigmas = branch_sigmas(z, sigma_model)
    # A cell's sign is its object's reference sign, negated where flipped.
    # As int8, -1 and 0 give copysign a negative and a positive (+0.0) sign.
    negative = np.not_equal(flipped.T, ref_sign < 0, order="C")
    np.copysign(z, -negative.view(np.int8), out=z)
    z += truths
    # An infinite magnitude (hence sigma) makes its depth infinite too. So
    # finite depths mean finite, positive sigmas and finite truths: the
    # table's checks hold, and it keeps these fresh arrays without them.
    if not np.isfinite(z).all():
        raise ValueError(f"a draw at error_scale {error_scale} overflowed "
                         "to a non-finite depth")
    return EnsembleTable._of_fresh([f"b{i}" for i in range(n_branches)], z.T, sigmas.T,
                                   truths)


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
            raise ValueError(MAE_OVERFLOW)


def _require_truth(table: EnsembleTable) -> None:
    if len(table) == 0:
        raise ValueError("need at least one ensemble")
    missing = np.isnan(table.z_star)
    if missing.any():
        i = int(np.argmax(missing))
        raise ValueError(f"ensemble ({table.frame[i]}, {table.index[i]}) has no z_star")


def _levels(values, name: str, lo: float, hi: float, bounds: str) -> list:
    """A sweep's levels, sorted. ValueError unless they are non-empty,
    distinct and each in [lo, hi] (NaN is not); bounds says so in words."""
    levels = sorted(values)
    if not levels:
        raise ValueError(f"{name} must not be empty")
    if len(set(levels)) != len(levels):
        raise ValueError(f"{name} must be distinct")
    if not all(lo <= v <= hi for v in levels):
        raise ValueError(f"{name} must {bounds}")
    return levels


def _gather(table: EnsembleTable, rows: np.ndarray,
            branches: slice = slice(None)) -> tuple[np.ndarray, ...]:
    """Each object's absolute error under the untouched fusion, and for
    rows, one vector per branch, the fusion weights of the given branches
    and the weighted depths of every branch."""
    w = weights(table).T
    w_rows = np.take(w[branches], rows, axis=1)
    w *= table.z.T
    errors = row_sums(w)
    errors -= table.z_star
    return np.abs(errors, out=errors), w_rows, np.take(w, rows, axis=1)


def _fused_mae(errors: np.ndarray, rows: np.ndarray, fused_rows: np.ndarray,
               z_star_rows: np.ndarray) -> float:
    """MAE over all objects once the absolute errors of rows, in errors,
    are those of the fused depths fused_rows. Writes to both arrays."""
    fused_rows -= z_star_rows
    errors[rows] = np.abs(fused_rows, out=fused_rows)
    return float(np.mean(errors))


def _half(n: int, rng: np.random.Generator) -> np.ndarray:
    """One seeded half of n objects, the first half of a permutation, as
    ascending row numbers."""
    chosen = np.zeros(n, dtype=bool)
    chosen[rng.permutation(n)[:int(round(0.5 * n))]] = True
    return np.flatnonzero(chosen)


# Every sweep computes the fusion weights and the untouched fusion once and
# re-fuses only the rows a level edits. A row's weighted sum does not depend
# on the other rows, so the MAEs are bit for bit those of fusing the whole
# edited grid. Each level writes its rows' errors over the untouched ones,
# which is enough because the levels of a sweep edit the same rows (or, in
# flip_sweep, a growing prefix of them).
#
# Ragged ensembles: the sweeps pick their seeded subsets from all N objects
# and report count N, and fusion uses each object's present branches. A
# flip or disturbance therefore acts only on selected objects that carry
# the branch: one written into a missing cell has weight 0.

def flip_sweep(table: EnsembleTable, branch_name: str,
               proportions: Sequence[float] = DEFAULT_PROPORTIONS,
               seed: int = 0) -> SweepCurve:
    """Fused MAE as a growing share of objects gets one branch flipped.

    A single seeded permutation of the objects makes the flipped subsets
    nested: a higher proportion flips a superset of a lower one, so curves
    are comparable point to point.
    """
    props = _levels((float(p) for p in proportions), "proportions", 0.0, 1.0,
                    "lie in [0, 1]")
    _require_truth(table)
    col = table.column(branch_name)
    n = len(table)
    # the prefixes of one order: fuse the largest flipped set once
    rows = np.random.default_rng(seed).permutation(n)[:int(round(props[-1] * n))]
    errors, (w_col,), terms = _gather(table, rows, slice(col, col + 1))
    baseline = float(np.mean(errors))
    z_star_rows = table.z_star[rows]
    terms[col] = flip(table.z[rows, col], z_star_rows) * w_col
    flipped = row_sums(terms)
    flipped -= z_star_rows
    np.abs(flipped, out=flipped)
    maes = []
    for p in props:
        m = int(round(p * n))
        errors[rows[:m]] = flipped[:m]
        maes.append(float(np.mean(errors)))
    return SweepCurve(x=tuple(props), mae=tuple(maes), counts=(n,) * len(props),
                      baseline_mae=baseline, label=f"flip:{branch_name}")


def disturb_sweep(table: EnsembleTable, branch_name: str,
                  amplitudes: Sequence[float] = DEFAULT_AMPLITUDES,
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
    amps = _levels((float(a) for a in amplitudes), "amplitudes", 0.0, sys.float_info.max,
                   "be finite and non-negative")
    _require_truth(table)
    col = table.column(branch_name)
    n = len(table)
    rng = np.random.default_rng(seed)
    rows = _half(n, rng)
    noise = rng.uniform(-1.0, 1.0, size=n)[rows]

    # every level re-weights only terms[col]
    errors, (w_col,), terms = _gather(table, rows, slice(col, col + 1))
    baseline = float(np.mean(errors))
    z_star_rows = table.z_star[rows]
    flipped = flip(table.z[rows, col], z_star_rows)
    disturbed = np.empty_like(flipped)
    maes = []
    for a in amps:
        np.multiply(noise, a, out=disturbed)
        disturbed += flipped
        np.multiply(disturbed, w_col, out=terms[col])
        maes.append(_fused_mae(errors, rows, row_sums(terms), z_star_rows))
    return SweepCurve(x=tuple(amps), mae=tuple(maes), counts=(n,) * len(amps),
                      baseline_mae=baseline, label=f"disturb:{branch_name}")


def multi_flip_sweep(table: EnsembleTable, ks: Sequence[int], seed: int = 0) -> SweepCurve:
    """Fused MAE over all objects after flipping k branches simultaneously
    on one seeded half of the objects, for each k in ks (distinct, each in
    0..B, else ValueError). baseline_mae is the k = 0 MAE either way.

    The flip set is chosen by branch order: the first k branches when
    k <= n/2, otherwise the last k. That pairing makes the k and n-k sets
    exact complements, so flipping k branches and flipping the other n-k
    produce identical fused error magnitudes object by object (negating
    every term of a sum flips its sign, not its magnitude).
    """
    _require_truth(table)
    n_br = len(table.names)
    ks = sorted(ks)
    for k in ks:
        if not 0 <= k <= n_br:
            raise ValueError(f"k={k} outside 0..{n_br}")
    if not ks or len(set(ks)) != len(ks):
        raise ValueError("ks must be non-empty and distinct")
    n = len(table)
    rows = _half(n, np.random.default_rng(seed))

    errors, w_rows, kept = _gather(table, rows)
    baseline = float(np.mean(errors))
    z_star_rows = table.z_star[rows]
    # each level takes each branch's weighted terms from kept or flipped
    flipped = flip(np.take(table.z.T, rows, axis=1), z_star_rows)
    flipped *= w_rows
    maes = []
    for k in ks:
        terms = ((*flipped[:k], *kept[k:]) if 2 * k <= n_br
                 else (*kept[:n_br - k], *flipped[n_br - k:]))
        maes.append(_fused_mae(errors, rows, row_sums(terms), z_star_rows))
    return SweepCurve(x=tuple(float(k) for k in ks), mae=tuple(maes), counts=(n,) * len(ks),
                      baseline_mae=baseline, label="multiflip")
