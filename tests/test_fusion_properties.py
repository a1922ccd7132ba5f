"""Property tests of the masked fusion kernel against the scalar reference."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from compdepth import soft_fuse, soft_fuse_array  # noqa: E402




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
