"""
Opposite errors cancel under uncertainty weighting
==================================================

When two depth estimates err on the same side, their weighted average
errs with them; when they err on opposite sides, the average lands in
between. This script measures that effect on a synthetic error model and
reproduces the three experiment shapes built on it.
"""

import numpy as np

from compdepth import (
    EnsembleTable,
    complementarity_score,
    disturb_sweep,
    esop,
    flip,
    flip_sweep,
    fuse,
    generate_ensembles,
    multi_flip_sweep,
)
from compdepth.lab import ErrorModelConfig

# the core inequality: for same-sign errors, flipping one strictly helps.
# Two branches err by e1 and e2 and are fused with weights w1 and 1 - w1
# (sigmas 1/w1 and 1/(1 - w1)); flip() mirrors branch 2 about the truth
rng = np.random.default_rng(0)
e1 = np.abs(rng.standard_normal(100000))
e2 = np.abs(rng.standard_normal(100000))
w1 = rng.uniform(0.0, 1.0, 100000)
z_star = np.full(100000, 20.0)
sigma = np.column_stack([1.0 / w1, 1.0 / (1.0 - w1)])
z1, z2 = z_star + e1, z_star + e2
# one object per row, one branch per column
pair = EnsembleTable(names=("b1", "b2"), z=np.column_stack([z1, z2]), sigma=sigma,
                     z_star=z_star)
flipped = EnsembleTable(names=("b1", "b2"), z=np.column_stack([z1, flip(z2, z_star)]),
                        sigma=sigma, z_star=z_star)
same = np.abs(fuse(pair) - z_star)
mixed = np.abs(fuse(flipped) - z_star)
print(f"|fused error|, same-sign branches:      {same.mean():.4f}")
print(f"|fused error|, one branch sign-flipped: {mixed.mean():.4f}")

# a seeded population of 4-branch ensembles whose branch errors share a
# sign 95% of the time, mimicking a detector whose depth cues all lean on
# the same perceived box
cfg = ErrorModelConfig(n_branches=4, coupling_rate=0.95, error_scale=1.0,
                       sigma_model="constant", seed=11)
truths = np.random.default_rng(13).uniform(5.0, 60.0, 10000)
ensembles = generate_ensembles(truths, cfg)

# scoring: how often do two branches disagree in sign, and how much
# complementarity per meter of error does that represent
errs = {name: ensembles.z[:, j] - ensembles.z_star
        for j, name in enumerate(ensembles.names)}
opp = esop(errs["b0"], errs["b1"])
b0_mae = np.mean(np.abs(errs["b0"]))
print(f"\nb0 vs b1: ESOP {opp:.1f}%, MAE {b0_mae:.3f}, "
      f"CS {complementarity_score(opp, b0_mae):.2f}")

# experiment 1: flip a growing share of one branch onto the mirror side
# of the truth; fused MAE falls monotonically
curve = flip_sweep(ensembles, "b0", (0.0, 0.25, 0.5, 0.75, 1.0), seed=17)
print("\nflip share -> fused MAE")
for x, m in zip(curve.x, curve.mae):
    print(f"  {x:>5.0%}  {m:.4f}")

# experiment 2: flipping helps only while the flipped branch stays
# accurate; growing disturbance amplitude eventually costs more than the
# cancellation gains
curve = disturb_sweep(ensembles, "b0", (0.0, 1.0, 2.0, 4.0, 6.0, 8.0), seed=17)
print(f"\ndisturbed 50%-flip MAE vs untouched baseline {curve.baseline_mae:.4f}")
for x, m in zip(curve.x, curve.mae):
    marker = "<- worse than doing nothing" if m > curve.baseline_mae else ""
    print(f"  amplitude {x:>4.1f}  {m:.4f} {marker}")

# experiment 3: flipping k of 4 equally weighted branches mirrors k and
# 4-k exactly, with the sweet spot at half
curve = multi_flip_sweep(ensembles, range(5), seed=17)
print("\nk flipped branches -> fused MAE")
for x, m in zip(curve.x, curve.mae):
    print(f"  k={x:.0f}  {m:.4f}")
