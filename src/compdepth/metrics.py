"""Error metrics: MAE, error-sign opposition, complementarity score, binning.

The error sign opposition proportion (ESOP) between two branches is the
percentage of objects whose signed depth errors disagree in sign; pairs
where either error is exactly zero count as not-opposite. The
complementarity score CS = ESOP / MAE (percent per meter) rewards branch
pairs that disagree often relative to how wrong they are.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .fusion import fuse

if TYPE_CHECKING:
    from .kitti_io import EnsembleTable

#: Depth bins (meters) used for binned MAE tables: 0-20, 20-40, 40+.
DEFAULT_DEPTH_EDGES = (0.0, 20.0, 40.0, math.inf)


def esop(errors_a: Sequence[float], errors_b: Sequence[float]) -> float:
    """Error sign opposition proportion between two branches, in percent.

    Counts pairs with strictly opposite signs; zero errors never count as
    opposite. Invariant under positive rescaling of either error sequence.
    """
    a = np.asarray(errors_a, dtype=float)
    b = np.asarray(errors_b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"{a.shape} vs {b.shape} errors")
    if a.size == 0:
        raise ValueError("ESOP needs at least one pair")
    opposite = np.count_nonzero(np.sign(a) * np.sign(b) < 0)
    return 100.0 * opposite / a.size


def complementarity_score(esop_pct: float, mae_meters: float) -> float:
    """CS = ESOP / MAE, in percent per meter.

    Raises ValueError when the MAE is zero (score undefined).
    """
    if not 0.0 <= esop_pct <= 100.0:
        raise ValueError(f"ESOP is a percentage in [0, 100], got {esop_pct}")
    if mae_meters < 0:
        raise ValueError("MAE cannot be negative")
    if mae_meters == 0:
        raise ValueError("complementarity score is undefined at zero MAE")
    return esop_pct / mae_meters


@dataclass(frozen=True)
class BinnedMae:
    """Per-bin MAE table over half-open bins [edges[i], edges[i+1]).

    Empty bins report count 0 and MAE None.
    """

    edges: tuple[float, ...]
    maes: tuple[float | None, ...]
    counts: tuple[int, ...]


def binned_mae(predictions: Sequence[float], truths: Sequence[float],
               edges: Sequence[float] = DEFAULT_DEPTH_EDGES) -> BinnedMae:
    """MAE per bin, binning each pair by its truth value.

    Pairs whose truth falls outside [edges[0], edges[-1]) are dropped.

    Raises ValueError unless edges are strictly increasing.
    """
    p = np.asarray(predictions, dtype=float)
    t = np.asarray(truths, dtype=float)
    if p.shape != t.shape:
        raise ValueError(f"{p.shape} predictions vs {t.shape} truths")
    if p.size == 0:
        raise ValueError("binned MAE needs at least one pair")
    e = np.asarray(edges, dtype=float)
    if e.size < 2 or not np.all(np.diff(e) > 0):
        raise ValueError(
            f"edges must be at least 2 strictly increasing values, got {list(edges)}")

    abs_err = np.abs(p - t)
    idx = np.searchsorted(e, t, side="right") - 1
    maes: list[float | None] = []
    counts: list[int] = []
    for i in range(e.size - 1):
        mask = (idx == i) & (t < e[-1])
        n = int(np.count_nonzero(mask))
        counts.append(n)
        maes.append(float(np.mean(abs_err[mask])) if n else None)
    return BinnedMae(edges=tuple(float(v) for v in e),
                     maes=tuple(maes), counts=tuple(counts))


@dataclass
class ComplementarityReport:
    """Aggregate evaluation of a set of prediction ensembles.

    esop maps branch-name pairs (ordered by first appearance) to percent
    values; branch_cs holds ESOP-vs-reference divided by the branch's own
    MAE, None for the reference itself or when undefined. Stored values keep
    full precision; rounding happens only at serialization.
    """

    n_objects: int
    reference: str | None
    branch_names: tuple[str, ...]
    branch_mae: dict[str, float]
    branch_counts: dict[str, int]
    esop: dict[tuple[str, str], float]
    branch_cs: dict[str, float | None]
    fused_mae: float
    binned: dict[str, BinnedMae] = field(default_factory=dict)
    flags: tuple[str, ...] = ()


@np.errstate(over="ignore", invalid="ignore")
def evaluate_ensembles(table: "EnsembleTable",
                       reference: str | None = None,
                       depth_edges: Sequence[float] = DEFAULT_DEPTH_EDGES,
                       ) -> ComplementarityReport:
    """Build a ComplementarityReport from ensembles with known truth.

    Rows without z_star (NaN) are skipped and flagged; the branch columns
    the remaining rows carry are scored. Per-branch statistics cover the
    rows that have the branch, ESOP the rows that share both branches, and
    fusion whatever branches each row has.

    The reference branch for CS defaults to 'dir' when present, else the
    first branch column. Raises ValueError when a branch MAE or CS or the
    fused MAE overflows to a non-finite value.
    """
    flags: list[str] = []
    missing = np.isnan(table.z_star)
    if missing.any():
        flags.append(f"skipped_no_truth:{int(missing.sum())}")
        table = table.take(np.flatnonzero(~missing))
    if len(table) == 0:
        raise ValueError("no ensembles with ground truth to evaluate")
    names, valid, z_star = table.names, table.valid, table.z_star
    err = table.z - z_star[:, None]

    counts = valid.sum(axis=0)
    branch_counts = {name: int(n) for name, n in zip(names, counts)}
    branch_mae = {name: float(np.mean(np.abs(err[valid[:, j], j])))
                  for j, name in enumerate(names) if counts[j]}

    esop_table: dict[tuple[str, str], float] = {}
    for a, b in itertools.combinations(range(len(names)), 2):
        shared = valid[:, a] & valid[:, b]
        if shared.any():
            esop_table[(names[a], names[b])] = esop(err[shared, a], err[shared, b])
        else:
            flags.append(f"no_overlap:{names[a]}|{names[b]}")

    if reference is None:
        reference = "dir" if "dir" in names else names[0]
    elif reference not in names:
        raise ValueError(f"reference branch '{reference}' not found")

    branch_cs: dict[str, float | None] = dict.fromkeys(names)
    for name in names:
        pair = esop_table.get((name, reference), esop_table.get((reference, name)))
        if name != reference and pair is not None and name in branch_mae:
            if branch_mae[name] == 0:
                flags.append(f"zero_mae:{name}")
            else:
                branch_cs[name] = complementarity_score(pair, branch_mae[name])

    fused = fuse(table)
    fused_mae = float(np.mean(np.abs(fused - z_star)))
    # Overflow ends as one error, not numpy warnings. ESOP is always finite.
    for metric, value in [*((f"MAE of branch '{n}'", v) for n, v in branch_mae.items()),
                          *((f"CS of branch '{n}'", v) for n, v in branch_cs.items()),
                          ("fused MAE", fused_mae)]:
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{metric} overflowed to a non-finite value")
    binned = {"fused": binned_mae(fused, z_star, depth_edges)}
    for j, name in enumerate(names):
        if counts[j]:
            v = valid[:, j]
            binned[name] = binned_mae(table.z[v, j], z_star[v], depth_edges)

    return ComplementarityReport(
        n_objects=len(table),
        reference=reference,
        branch_names=names,
        branch_mae=branch_mae,
        branch_counts=branch_counts,
        esop=esop_table,
        branch_cs=branch_cs,
        fused_mae=fused_mae,
        binned=binned,
        flags=tuple(flags),
    )
