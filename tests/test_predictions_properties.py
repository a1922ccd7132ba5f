"""Property tests of the prediction JSONL reader and writer."""

import json

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, strategies as st  # noqa: E402

from compdepth import read_predictions, write_predictions  # noqa: E402
from prediction_records import columns  # noqa: E402

NAMES = ("key", "glo", "comp", "alt", "dir")
FRAMES = ("000000", "000001", "000002")
finite = st.floats(-1e6, 1e6, allow_nan=False)
positive = st.floats(1e-6, 1e6)


@st.composite
def ragged_records(draw):
    """Records as the reader accepts them: branches in any order per record,
    z_star and sigma sometimes absent, integer and float values."""
    records = []
    for i in range(draw(st.integers(0, 8))):
        branches = []
        for name in draw(st.lists(st.sampled_from(NAMES), min_size=1, unique=True)):
            branch = {"name": name, "z": draw(st.one_of(st.integers(-10**6, 10**6), finite))}
            if draw(st.booleans()):
                branch["sigma"] = draw(st.one_of(st.integers(1, 1000), positive))
            branches.append(branch)
        record = {"frame": draw(st.sampled_from(FRAMES)), "index": i}
        if draw(st.booleans()):
            record["z_star"] = draw(st.one_of(st.integers(-1000, 1000), finite))
        record["branches"] = branches
        records.append(record)
    return records


@st.composite
def column_ordered_records(draw):
    """Records as the writer writes them: float values, every sigma given,
    and each record's branches in column order, that is, the names seen on
    earlier lines in their order of first appearance, then the new ones."""
    seen: list[str] = []
    records = []
    for i in range(draw(st.integers(0, 8))):
        names = draw(st.lists(st.sampled_from(NAMES), min_size=1, unique=True))
        new = [name for name in names if name not in seen]
        record = {"frame": draw(st.sampled_from(FRAMES)), "index": i}
        if draw(st.booleans()):
            record["z_star"] = draw(finite)
        record["branches"] = [{"name": name, "z": draw(finite), "sigma": draw(positive)}
                              for name in [n for n in seen if n in names] + new]
        seen += new
        records.append(record)
    return records


def _jsonl(records, header=None):
    lines = [] if header is None else ["# " + json.dumps(header, sort_keys=True)]
    lines += [json.dumps(r, separators=(",", ":")) for r in records]
    return "".join(line + "\n" for line in lines)


@given(ragged_records())
def test_write_then_read_keeps_every_column(records):
    table = read_predictions(_jsonl(records))
    assert len(table) == len(records)
    assert columns(read_predictions(write_predictions(table))) == columns(table)


@given(column_ordered_records(), st.integers(0, 99))
def test_column_ordered_text_is_a_fixed_point(records, seed):
    text = _jsonl(records, header={"seed": seed})
    assert write_predictions(read_predictions(text), header={"seed": seed}) == text
