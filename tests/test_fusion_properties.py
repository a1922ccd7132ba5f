"""Property tests of the masked fusion kernel, and of the ensemble evaluation
built on it, against the scalar references; and of the row-sum helper, the
weights and the fusion against numpy's own row sums, bit for bit."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from compdepth import (  # noqa: E402
    esop,
    evaluate_ensembles,
    fuse,
    generate_ensembles,
    weights,
)
from compdepth.fusion import row_sums  # noqa: E402
from fusion_reference import soft_fuse, table_of  # noqa: E402
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
    fused = fuse(table_of(z, sigma, valid))
    for i in range(z.shape[0]):
        kept = [(z[i, j], sigma[i, j]) for j in np.flatnonzero(valid[i])]
        assert fused[i] == pytest.approx(soft_fuse(kept).z_soft, rel=1e-12)


@given(masked_ensembles())
def test_all_valid_mask_is_bit_identical_to_unmasked(case):
    z, sigma, _ = case
    masked = fuse(table_of(z, sigma, valid=np.ones(z.shape, dtype=bool)))
    inverse = 1.0 / sigma
    unmasked = (inverse / inverse.sum(axis=1, keepdims=True) * z).sum(axis=1)
    assert np.array_equal(masked, unmasked)


@given(masked_ensembles())
def test_masked_fusion_is_convex_in_valid_z(case):
    z, sigma, valid = case
    table = table_of(z, sigma, valid)
    fused = fuse(table)
    lo = np.where(valid, z, np.inf).min(axis=1)
    hi = np.where(valid, z, -np.inf).max(axis=1)
    span = 1e-12 * np.maximum(np.abs(lo), np.abs(hi))
    assert np.all(fused >= lo - span)
    assert np.all(fused <= hi + span)
    # masked-out cells carry zero weight
    assert np.all(weights(table)[~valid] == 0.0)


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


# Cells at the edges of float arithmetic: signed zeros, infinities, NaN and
# magnitudes whose sums overflow.
EDGES = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e308, -1e308]
FINITE_EDGES = [0.0, -0.0, 1e308, -1e308, 5e-324]


def same_bits(got: np.ndarray, expected: np.ndarray) -> bool:
    """Equal bit for bit, except that any NaN matches any NaN: which input
    NaN an add returns is left open by IEEE 754, and numpy's own add loops
    return different ones for the same operands."""
    nan = np.isnan(expected)
    return (got.shape == expected.shape and np.array_equal(np.isnan(got), nan)
            and got[~nan].tobytes() == expected[~nan].tobytes())


@st.composite
def edge_grids(draw, finite=False):
    """An (n, b) float grid, with edge cells among drawn ones. Most have
    1-20 columns, on both sides of numpy's switch from adding a row left to
    right to 8 interleaved partial sums at 8 cells; some have 120-300, on
    both sides of its split of a row into two parts above 128 cells."""
    b = draw(st.one_of(st.integers(1, 20), st.integers(1, 20), st.integers(120, 300)))
    n = draw(st.integers(0 if not finite else 1, 12))
    edges = FINITE_EDGES if finite else EDGES
    floats = st.floats(-1e300, 1e300) if finite else st.floats()
    return draw(arrays(float, (n, b), elements=st.one_of(st.sampled_from(edges), floats)))


@given(edge_grids())
def test_row_sums_are_numpys_row_sums(grid):
    # an all -0.0 row sums to 0.0: numpy's sum starts from +0.0
    with np.errstate(over="ignore", invalid="ignore"):
        expected = grid.sum(axis=1)
        for columns in (grid.T, list(grid.T), np.ascontiguousarray(grid.T)):
            assert same_bits(row_sums(columns), expected)


def reference_weights(table) -> np.ndarray:
    """The weights as the row-major (N, B) formula with .sum(axis=1) gives them."""
    w = np.zeros(table.sigma.shape)
    np.divide(1.0, np.ascontiguousarray(table.sigma), out=w, where=table.valid)
    w /= w.sum(axis=1, keepdims=True)
    return w


@given(edge_grids(finite=True), st.data())
def test_weights_and_fusion_are_the_row_major_formulas(z, data):
    n, b = z.shape
    sigma = data.draw(arrays(float, (n, b), elements=st.one_of(
        st.sampled_from([5e-324, 1e-308, 1.0, 1e308]), st.floats(1e-300, 1e300))))
    valid = data.draw(st.sampled_from([None, "dense", "ragged"]))
    if valid == "dense":
        valid = np.ones((n, b), dtype=bool)
    elif valid == "ragged":
        valid = data.draw(arrays(bool, (n, b)))
        valid[np.arange(n), data.draw(arrays(np.int64, n, elements=st.integers(0, b - 1)))] = True
    table = table_of(z, sigma, valid)
    with np.errstate(over="ignore", invalid="ignore"):
        expected = reference_weights(table)
        assert same_bits(weights(table), expected)
        assert same_bits(fuse(table), (expected * table.z).sum(axis=1))


@given(st.integers(1, 300), st.integers(2, 12), st.sampled_from(["constant", "proportional"]),
       st.integers(0, 2**32 - 1))
def test_fusion_of_generated_tables_is_the_row_major_formula(n, b, sigma_model, seed):
    # generated tables keep their grids branch-major
    truths = np.random.default_rng(seed).uniform(1.0, 80.0, n)
    table = generate_ensembles(truths, n_branches=b, sigma_model=sigma_model, seed=seed)
    expected = reference_weights(table)
    assert same_bits(weights(table), expected)
    assert same_bits(fuse(table), (expected * np.ascontiguousarray(table.z)).sum(axis=1))
