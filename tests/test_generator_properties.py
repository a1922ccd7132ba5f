"""Property test of generate_ensembles against the row-major generator in
generator_reference.py: the same tables, bit for bit, and the same errors."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, strategies as st  # noqa: E402

import generator_reference as ref  # noqa: E402
from compdepth import generate_ensembles  # noqa: E402


def outcome(generate, truths, **settings):
    """The table's names, frames, indices and the bytes of its columns, in
    row-major order, or the error generate raised."""
    try:
        table = generate(truths, **settings)
    except ValueError as error:
        return str(error)
    return (table.names, table.frame, table.index.tobytes(),
            *(np.ascontiguousarray(column).tobytes()
              for column in (table.z, table.sigma, table.valid, table.z_star)))


@given(st.integers(1, 3000), st.integers(2, 12), st.floats(0.5, 1.0),
       st.sampled_from(["constant", "proportional"]),
       st.one_of(st.sampled_from([1.0, 1e308]), st.floats(1e-300, 1e300)),
       st.integers(0, 2**64 - 1))
def test_generator_matches_the_reference_bit_for_bit(n, n_branches, coupling_rate,
                                                     sigma_model, error_scale, seed):
    truths = np.random.default_rng(seed).uniform(0.5, 80.0, n)
    settings = dict(n_branches=n_branches, coupling_rate=coupling_rate,
                    error_scale=error_scale, sigma_model=sigma_model, seed=seed)
    with np.errstate(over="ignore"):  # a draw at 1e308 overflows to inf
        expected = outcome(ref.generate_ensembles, truths, **settings)
        assert outcome(generate_ensembles, truths, **settings) == expected
    if error_scale == 1e308 and n * n_branches >= 400:
        assert expected == "a draw at error_scale 1e+308 overflowed to a non-finite depth"


def test_generated_table_ignores_later_writes_to_the_truths():
    truths = np.linspace(5.0, 60.0, 10)
    table = generate_ensembles(truths, seed=3)
    truths[:] = 1.0
    assert table.z_star.tolist() == np.linspace(5.0, 60.0, 10).tolist()
    assert not table.z_star.flags.writeable and not table.z.flags.writeable
