import math

import numpy as np
import pytest

from compdepth import (
    EmptyInput,
    LengthMismatch,
    NonMonotoneEdges,
    ZeroMAE,
    binned_mae,
    complementarity_score,
    esop,
    evaluate_ensembles,
    mae,
)
from prediction_records import read_records

# published ESOP / MAE / CS triples for depth ensembles on a driving
# benchmark; CS = ESOP(%) / MAE(m) must reproduce to the printed precision
PUBLISHED_CS_ROWS = [
    (38.19, 3.09, 12.36),
    (59.08, 3.23, 18.29),
    (45.40, 8.65, 5.25),
    (25.69, 2.27, 11.32),
    (18.63, 4.03, 4.62),
    (45.72, 8.47, 5.40),
    (36.91, 3.29, 11.22),
    (42.51, 6.72, 6.33),
]


def test_mae_hand_values():
    assert mae([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0
    assert mae([2.0, 0.0], [1.0, 1.0]) == 1.0
    assert mae([21.0], [20.0]) == pytest.approx(1.0)


def test_mae_validation():
    with pytest.raises(EmptyInput):
        mae([], [])
    with pytest.raises(LengthMismatch):
        mae([1.0], [1.0, 2.0])


def test_esop_hand_values():
    assert esop([1.0, -1.0, 2.0, -2.0], [-1.0, 1.0, 1.0, 2.0]) == 75.0
    assert esop([1.0, 1.0], [1.0, 1.0]) == 0.0
    assert esop([-1.0, -2.0], [1.0, 2.0]) == 100.0


def test_esop_zero_errors_not_opposite():
    assert esop([0.0, 1.0], [1.0, -1.0]) == 50.0
    assert esop([0.0], [0.0]) == 0.0


def test_esop_scale_invariant():
    rng = np.random.default_rng(81)
    a = rng.normal(0, 1, 500)
    b = rng.normal(0, 1, 500)
    assert esop(a, b) == esop(7.3 * a, b)
    assert esop(a, b) == esop(a, 0.001 * b)


def test_esop_huge_errors_do_not_overflow():
    # signs are compared, not multiplied: no overflow warning, exact counts
    assert esop([1e308, 1e308, -1e308], [-1e308, 1e308, 1e308]) == pytest.approx(200.0 / 3)


def test_esop_validation():
    with pytest.raises(LengthMismatch):
        esop([1.0], [1.0, 2.0])
    with pytest.raises(EmptyInput):
        esop([], [])


@pytest.mark.parametrize("esop_pct,mae_m,cs", PUBLISHED_CS_ROWS)
def test_complementarity_score_published_rows(esop_pct, mae_m, cs):
    assert complementarity_score(esop_pct, mae_m) == pytest.approx(cs, abs=0.01)


def test_complementarity_score_validation():
    with pytest.raises(ZeroMAE):
        complementarity_score(50.0, 0.0)
    with pytest.raises(ValueError):
        complementarity_score(-1.0, 1.0)
    with pytest.raises(ValueError):
        complementarity_score(101.0, 1.0)
    with pytest.raises(ValueError):
        complementarity_score(50.0, -1.0)


# ---------------------------------------------------------------------------
# binned MAE
# ---------------------------------------------------------------------------

def test_binned_mae_default_edges():
    preds = [11.0, 19.0, 25.0, 45.0, 90.0]
    truths = [10.0, 18.0, 24.0, 44.0, 88.0]
    table = binned_mae(preds, truths)
    assert table.edges == (0.0, 20.0, 40.0, math.inf)
    assert table.counts == (2, 1, 2)
    assert table.maes[0] == pytest.approx(1.0)
    assert table.maes[1] == pytest.approx(1.0)
    assert table.maes[2] == pytest.approx(1.5)


def test_binned_mae_empty_bin():
    table = binned_mae([1.0], [0.5], edges=(0.0, 1.0, 2.0))
    assert table.maes == (0.5, None)
    assert table.counts == (1, 0)


def test_binned_mae_half_open_bins():
    # truth exactly on an inner edge goes to the upper bin
    table = binned_mae([20.5, 40.5], [20.0, 40.0], edges=(0.0, 20.0, 40.0, 60.0))
    assert table.counts == (0, 1, 1)


def test_binned_mae_out_of_range_dropped():
    table = binned_mae([1.0, 99.0], [-5.0, 98.0], edges=(0.0, 50.0, 98.5))
    assert table.counts == (0, 1)


def test_binned_mae_weighted_average_matches_global():
    rng = np.random.default_rng(82)
    truths = rng.uniform(1.0, 79.0, 400)
    preds = truths + rng.normal(0, 2.0, 400)
    table = binned_mae(list(preds), list(truths), edges=(0.0, 20.0, 40.0, 80.0))
    total = sum(c for c in table.counts)
    assert total == 400
    weighted = sum(m * c for m, c in zip(table.maes, table.counts) if c) / total
    assert weighted == pytest.approx(mae(preds, truths), rel=1e-9)


def test_binned_mae_custom_key():
    # bin by an external key (e.g. an error magnitude), not by the truths
    table = binned_mae([1.0, 2.0], [0.0, 0.0], edges=(0.0, 10.0),
                       key=[5.0, 50.0])
    assert table.counts == (1,)
    assert table.maes[0] == pytest.approx(1.0)


def test_binned_mae_validation():
    with pytest.raises(NonMonotoneEdges):
        binned_mae([1.0], [1.0], edges=(0.0, 0.0, 10.0))
    with pytest.raises(NonMonotoneEdges):
        binned_mae([1.0], [1.0], edges=(0.0,))  # a single edge bounds no bin
    with pytest.raises(LengthMismatch):
        binned_mae([1.0], [1.0], key=[1.0, 2.0])


# ---------------------------------------------------------------------------
# ensemble evaluation
# ---------------------------------------------------------------------------

def ensemble(frame, index, z_star, **branch_z):
    return {"frame": frame, "index": index, "z_star": z_star,
            "branches": [{"name": n, "z": z} for n, z in branch_z.items()]}


def test_evaluate_ensembles_basic():
    records = [
        ensemble("000000", 0, 20.0, dir=21.0, key=19.5),
        ensemble("000000", 1, 30.0, dir=29.0, key=30.5),
        ensemble("000001", 0, 10.0, dir=10.5, key=9.0),
    ]
    report = evaluate_ensembles(read_records(records))
    assert report.n_objects == 3
    assert report.reference == "dir"
    assert report.branch_mae["dir"] == pytest.approx(2.5 / 3)
    assert report.branch_mae["key"] == pytest.approx(2.0 / 3)
    assert report.esop[("dir", "key")] == 100.0
    assert report.branch_cs["key"] == pytest.approx(100.0 / (2.0 / 3))
    assert report.branch_cs["dir"] is None  # reference scores no CS
    assert report.fused_count == 3
    # equal sigmas: fusion averages each pair of branch predictions,
    # and every pair here straddles the truth by the same margin
    assert report.fused_mae == pytest.approx(0.25)


def test_evaluate_ensembles_reference_fallback():
    records = [ensemble("0", 0, 20.0, key=21.0, glo=19.0)]
    report = evaluate_ensembles(read_records(records))
    assert report.reference == "key"  # no 'dir' branch: first name wins


def test_evaluate_ensembles_explicit_reference():
    records = [ensemble("0", 0, 20.0, key=21.0, glo=19.0)]
    report = evaluate_ensembles(read_records(records), reference="glo")
    assert report.branch_cs["key"] is not None
    assert report.branch_cs["glo"] is None


def test_evaluate_ensembles_skips_missing_truth():
    records = [
        ensemble("0", 0, 20.0, key=21.0),
        {"frame": "0", "index": 1, "branches": [{"name": "key", "z": 30.0}]},
    ]
    report = evaluate_ensembles(read_records(records))
    assert report.n_objects == 1
    assert any("truth" in f for f in report.flags)


def test_evaluate_ensembles_partial_branches():
    records = [
        ensemble("0", 0, 20.0, key=21.0, glo=19.0),
        ensemble("0", 1, 40.0, key=41.0),
    ]
    report = evaluate_ensembles(read_records(records))
    assert report.branch_counts == {"key": 2, "glo": 1}
    # fusion still covers every record, over whichever branches are present
    assert report.fused_count == 2


def test_evaluate_ensembles_zero_mae_branch_flagged():
    # a branch with zero MAE has an undefined CS: skipped and flagged
    records = [ensemble("0", 0, 20.0, dir=21.0, key=20.0)]
    report = evaluate_ensembles(read_records(records))
    assert report.branch_cs["key"] is None
    assert any("zero" in f.lower() for f in report.flags)


def test_evaluate_ensembles_exact_reference_gives_zero_cs():
    # perfect reference: no branch error can oppose a zero, so CS is 0
    records = [ensemble("0", 0, 20.0, dir=20.0, key=21.0)]
    report = evaluate_ensembles(read_records(records))
    assert report.branch_cs["key"] == 0.0


def test_evaluate_ensembles_binned_tables():
    records = [
        ensemble("0", 0, 10.0, key=11.0),
        ensemble("0", 1, 30.0, key=32.0),
        ensemble("0", 2, 50.0, key=53.0),
    ]
    report = evaluate_ensembles(read_records(records))
    assert set(report.binned) == {"fused", "key"}
    assert report.binned["key"].counts == (1, 1, 1)
    assert report.binned["key"].maes == pytest.approx((1.0, 2.0, 3.0))


@pytest.mark.parametrize("records,message", [
    # branch errors of +-1e308 overflow the MAE sum
    ([ensemble("0", i, 20.0, a=1e308, b=-1e308) for i in range(2)], "MAE of branch 'a'"),
    # a subnormal MAE overflows ESOP / MAE
    ([ensemble("0", 0, 0.0, a=1e-310, b=-1e-310)], "CS of branch 'b'"),
])
def test_evaluate_ensembles_non_finite_metric_raises(records, message):
    with pytest.raises(ValueError, match=f"^{message} overflowed to a non-finite value$"):
        evaluate_ensembles(read_records(records))


def test_evaluate_ensembles_empty():
    with pytest.raises(EmptyInput):
        evaluate_ensembles(read_records([]))
