"""Test helpers: the full-table sweeps and the per-row table checks that the
lab sweeps and the EnsembleTable constructor are checked against.

Each sweep level here copies the whole (N, B) grid, edits it and fuses
every row again with its own inverse-sigma kernel, so nothing is shared
with the code under test but flip, SweepCurve and the table's columns.
"""

import math
from typing import Sequence

import numpy as np

from compdepth import EnsembleTable, SweepCurve, flip


def fuse(table: EnsembleTable, z: np.ndarray) -> np.ndarray:
    """Each row's inverse-sigma fusion of z over the table's valid cells."""
    inverse = np.where(table.valid, 1.0 / table.sigma, 0.0)
    total = inverse.sum(axis=1, keepdims=True)
    return (inverse / total * z).sum(axis=1)


def _fused_mae(table: EnsembleTable, z: np.ndarray) -> float:
    return float(np.mean(np.abs(fuse(table, z) - table.z_star)))


def _column(table: EnsembleTable, branch_name: str) -> int:
    return list(table.names).index(branch_name)


def flip_sweep(table: EnsembleTable, branch_name: str, proportions: Sequence[float],
               seed: int) -> SweepCurve:
    props = sorted(float(p) for p in proportions)
    z, z_star = table.z, table.z_star
    col = _column(table, branch_name)
    n = z.shape[0]
    perm = np.random.default_rng(seed).permutation(n)

    maes = []
    for p in props:
        zz = z.copy()
        rows = perm[:int(round(p * n))]
        zz[rows, col] = flip(zz[rows, col], z_star[rows])
        maes.append(_fused_mae(table, zz))
    return SweepCurve(x=tuple(props), mae=tuple(maes), counts=(n,) * len(props),
                      baseline_mae=_fused_mae(table, z), label=f"flip:{branch_name}")


def disturb_sweep(table: EnsembleTable, branch_name: str, amplitudes: Sequence[float],
                  seed: int) -> SweepCurve:
    amps = sorted(float(a) for a in amplitudes)
    z, z_star = table.z, table.z_star
    col = _column(table, branch_name)
    n = z.shape[0]
    rng = np.random.default_rng(seed)
    rows = rng.permutation(n)[:int(round(0.5 * n))]
    unit_noise = rng.uniform(-1.0, 1.0, size=n)

    flipped = flip(z[rows, col], z_star[rows])
    maes = []
    for a in amps:
        zz = z.copy()
        zz[rows, col] = flipped + a * unit_noise[rows]
        maes.append(_fused_mae(table, zz))
    return SweepCurve(x=tuple(amps), mae=tuple(maes), counts=(n,) * len(amps),
                      baseline_mae=_fused_mae(table, z), label=f"disturb:{branch_name}")


def multi_flip(table: EnsembleTable, k: int, seed: int) -> float:
    z, z_star = table.z, table.z_star
    n_br = len(table.names)
    cols = range(k) if 2 * k <= n_br else range(n_br - k, n_br)
    n = z.shape[0]
    rows = np.random.default_rng(seed).permutation(n)[:int(round(0.5 * n))]

    zz = z.copy()
    for c in cols:
        zz[rows, c] = flip(zz[rows, c], z_star[rows])
    return _fused_mae(table, zz)


def table_error(*, names, z, sigma, z_star, valid=None, index=None) -> str | None:
    """The ValueError text the EnsembleTable constructor gives for these
    well-shaped columns, found row by row, or None when they pass."""
    z = np.asarray(z, dtype=float)
    valid = np.ones(z.shape, dtype=bool) if valid is None else np.array(valid, dtype=bool)
    z = np.where(valid, z, 0.0)
    sigma = np.where(valid, np.asarray(sigma, dtype=float), 1.0)
    index = np.zeros(len(z), dtype=np.int64) if index is None else np.asarray(index)
    columns = range(len(names))
    row_checks = (
        ("has no branch", lambda i: not any(valid[i])),
        ("has a non-finite z", lambda i: not all(math.isfinite(z[i, j]) for j in columns)),
        ("has a sigma that is not finite and positive",
         lambda i: not all(math.isfinite(sigma[i, j]) and sigma[i, j] > 0 for j in columns)),
        ("has an infinite z_star", lambda i: math.isinf(z_star[i])),
        ("has a negative index", lambda i: index[i] < 0),
    )
    for problem, bad in row_checks:
        for i in range(len(z)):
            if bad(i):
                return f"ensemble row {i} {problem}"
    return None
