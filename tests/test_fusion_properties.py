"""Property tests of the masked fusion kernel, and of the ensemble evaluation
built on it, against the scalar references."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from compdepth import (  # noqa: E402
    esop,
    evaluate_ensembles,
    soft_fuse_array,
)
from fusion_reference import soft_fuse  # noqa: E402
from prediction_records import read_records  # noqa: E402


@st.composite
def masked_ensembles(draw):
    """(z, sigma, valid) of shape (n, b) with at least one valid cell per row."""
    n = draw(st.integers(1, 12))
    b = draw(st.integers(1, 8))
    z = draw(arrays(float, (n, b), elements=st.floats(0.5, 200.0)))
    sigma = draw(arrays(float, (n, b), elements=st.floats(1e-3, 50.0)))
    valid = draw(arrays(bool, (n, b)))
    valid[np.arange(n), draw(arrays(np.int64, n, elements=st.integers(0, b - 1)))] = True
    return z, sigma, valid


@given(masked_ensembles())
def test_masked_fusion_matches_scalar_on_valid_subset(case):
    z, sigma, valid = case
    fused = soft_fuse_array(z, sigma, valid=valid)
    for i in range(z.shape[0]):
        kept = [(z[i, j], sigma[i, j]) for j in np.flatnonzero(valid[i])]
        assert fused[i] == pytest.approx(soft_fuse(kept).z_soft, rel=1e-12)


@given(masked_ensembles())
def test_all_valid_mask_is_bit_identical_to_unmasked(case):
    z, sigma, _ = case
    masked = soft_fuse_array(z, sigma, valid=np.ones(z.shape, dtype=bool))
    assert np.array_equal(masked, soft_fuse_array(z, sigma))


@given(masked_ensembles())
def test_masked_fusion_is_convex_in_valid_z(case):
    z, sigma, valid = case
    fused = soft_fuse_array(z, sigma, valid=valid)
    lo = np.where(valid, z, np.inf).min(axis=1)
    hi = np.where(valid, z, -np.inf).max(axis=1)
    span = 1e-12 * np.maximum(np.abs(lo), np.abs(hi))
    assert np.all(fused >= lo - span)
    assert np.all(fused <= hi + span)
    # masked-out cells carry zero weight: their values change nothing
    elsewhere = np.where(valid, z, 1e6)
    assert np.array_equal(soft_fuse_array(elsewhere, sigma, valid=valid), fused)


@given(masked_ensembles(), st.data())
def test_evaluation_matches_scalar_references_on_ragged_ensembles(case, data):
    z, sigma, valid = case
    n = z.shape[0]
    z_star = data.draw(arrays(float, n, elements=st.floats(0.5, 200.0)))
    records = [
        {"frame": f"{i:06d}", "index": i, "z_star": z_star[i],
         "branches": [{"name": f"b{j}", "z": z[i, j], "sigma": sigma[i, j]}
                      for j in np.flatnonzero(valid[i])]}
        for i in range(n)
    ]
    report = evaluate_ensembles(read_records(records))

    fused = [soft_fuse([(z[i, j], sigma[i, j]) for j in np.flatnonzero(valid[i])]).z_soft
             for i in range(n)]
    assert report.fused_mae == pytest.approx(np.mean(np.abs(np.subtract(fused, z_star))),
                                             rel=1e-12)
    names = report.branch_names
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            ja, jb = int(a[1:]), int(b[1:])
            shared = valid[:, ja] & valid[:, jb]
            if not shared.any():
                assert (a, b) not in report.esop and f"no_overlap:{a}|{b}" in report.flags
                continue
            expected = esop(z[shared, ja] - z_star[shared], z[shared, jb] - z_star[shared])
            assert report.esop[(a, b)] == pytest.approx(expected, rel=1e-12)
