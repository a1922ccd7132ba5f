"""Property tests of the lab sweeps and the EnsembleTable checks against the
full-table and row-by-row references in sweep_reference.py.

The sweeps re-fuse only the rows a level edits; the reference copies and
fuses the whole grid per level. Their MAEs must agree exactly (float ==),
since a row's fusion does not depend on the other rows.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

import sweep_reference as ref  # noqa: E402
from compdepth import (  # noqa: E402
    EnsembleTable,
    SweepCurve,
    disturb_sweep,
    flip_sweep,
    multi_flip_sweep,
)


@st.composite
def tables(draw, n_max=3000):
    """A seeded EnsembleTable of n objects by b branches with z_star:
    constant, proportional or arbitrary sigmas, and a dense or ragged mask
    (given explicitly or left to the constructor when dense)."""
    n = draw(st.integers(1, n_max))
    b = draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    z_star = rng.uniform(1.0, 80.0, n)
    errors = rng.normal(0.0, draw(st.floats(0.01, 10.0)), (n, b))
    sigma = {"constant": lambda: np.ones((n, b)),
             "proportional": lambda: np.maximum(np.abs(errors), 1e-3),
             "arbitrary": lambda: rng.uniform(1e-3, 50.0, (n, b))}[
        draw(st.sampled_from(["constant", "proportional", "arbitrary"]))]()
    missing = draw(st.sampled_from([0.0, 0.3, 0.8]))
    valid = rng.random((n, b)) >= missing
    valid[np.arange(n), rng.integers(0, b, n)] = True
    z = z_star[:, None] + errors
    z[~valid] = np.nan  # the constructor fills missing cells
    if valid.all() and draw(st.booleans()):
        valid = None
    return EnsembleTable(names=[f"b{j}" for j in range(b)], z=z, sigma=sigma,
                         valid=valid, z_star=z_star)


def levels(values, fixed):
    """Distinct levels: a non-empty subset of fixed plus any drawn values."""
    return st.builds(lambda a, b: sorted(a | b),
                     st.sets(st.sampled_from(fixed), min_size=1), st.sets(values, max_size=3))


@given(tables(), st.data())
def test_sweeps_equal_the_full_table_reference(table, data):
    n, n_br = len(table), len(table.names)
    branch = f"b{data.draw(st.integers(0, n_br - 1))}"
    seed = data.draw(st.integers(0, 2**32 - 1))
    props = data.draw(levels(st.floats(0.0, 1.0), [0.0, 0.25, 0.5, 1.0]))
    amps = data.draw(levels(st.floats(0.0, 20.0), [0.0, 1.0, 10.0]))
    ks = data.draw(st.sets(st.integers(0, n_br), min_size=1))

    assert flip_sweep(table, branch, props, seed) == ref.flip_sweep(table, branch, props, seed)
    assert (disturb_sweep(table, branch, amps, seed)
            == ref.disturb_sweep(table, branch, amps, seed))
    expected = SweepCurve(x=tuple(float(k) for k in sorted(ks)),
                          mae=tuple(ref.multi_flip(table, k, seed) for k in sorted(ks)),
                          counts=(n,) * len(ks), baseline_mae=ref.multi_flip(table, 0, seed),
                          label="multiflip")
    assert multi_flip_sweep(table, ks, seed) == expected
    k = min(ks)
    assert multi_flip_sweep(table, [k], seed).mae[0] == ref.multi_flip(table, k, seed)


BAD_VALUES = {
    "z": [np.nan, np.inf, -np.inf],
    "sigma": [0.0, -0.0, -1e-300, -2.0, np.nan, np.inf, -np.inf],
    "z_star": [np.inf, -np.inf],
    "index": [-1, -(2**40)],
}


@settings(max_examples=300)
@given(st.data())
def test_bad_cells_give_the_reference_error(data):
    # one to three bad cells, so that the order of the checks shows too
    n = data.draw(st.integers(1, 50))
    b = data.draw(st.integers(1, 8))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    z = rng.uniform(1.0, 80.0, (n, b))
    sigma = rng.uniform(1e-3, 50.0, (n, b))
    z_star = np.where(rng.random(n) < 0.2, np.nan, rng.uniform(1.0, 80.0, n))
    index = rng.integers(0, 100, n)
    valid = rng.random((n, b)) < data.draw(st.sampled_from([1.0, 0.7]))
    valid[np.arange(n), rng.integers(0, b, n)] = True

    columns = dict(z=z, sigma=sigma, z_star=z_star, index=index)
    kinds = data.draw(st.lists(st.sampled_from(["empty row", *BAD_VALUES]), min_size=1,
                               max_size=3))
    for kind in kinds:
        row, col = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, b - 1))
        if kind == "empty row":
            valid[row] = False
        else:
            cell = (row, col) if columns[kind].ndim == 2 else row
            columns[kind][cell] = data.draw(st.sampled_from(BAD_VALUES[kind]))
    if valid.all() and data.draw(st.booleans()):
        valid = None

    columns.update(names=[f"b{j}" for j in range(b)], valid=valid)
    expected = ref.table_error(**columns)
    if expected is None:  # every bad value sits in a missing cell
        assert set(kinds) <= {"z", "sigma"}
        EnsembleTable(**columns)
    else:
        with pytest.raises(ValueError) as error:
            EnsembleTable(**columns)
        assert str(error.value) == expected
