"""Property tests of the prediction JSONL reader and writer: the one-pass
reader against the record-by-record reference in prediction_reference.py,
and the writer against one json.dumps per record."""

import copy
import json
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from compdepth import (  # noqa: E402
    CompdepthError,
    EnsembleTable,
    read_predictions,
    write_predictions,
)
from prediction_records import columns  # noqa: E402
from prediction_reference import read_predictions as reference_read  # noqa: E402

NAMES = ("key", "glo", "comp", "alt", "dir")
FRAMES = ("000000", "000001", "000002")
finite = st.floats(-1e6, 1e6, allow_nan=False)
positive = st.floats(1e-6, 1e6)


@st.composite
def ragged_records(draw, min_size=0):
    """Records as the reader accepts them: branches in any order per record,
    z_star and sigma sometimes absent, integer and float values."""
    records = []
    for i in range(draw(st.integers(min_size, 8))):
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


# ---------------------------------------------------------------------------
# the one-pass reader agrees with the record-by-record reference
# ---------------------------------------------------------------------------

#: Values a mutation writes into one field: wrong types, bool, null, NaN,
#: an int beyond the float range, a subnormal, an index past 64 bits, and
#: values that are valid in some fields.
BAD_VALUES = (True, False, None, math.nan, math.inf, "x", "", 10**400, 2**63, -1, 0,
              -1.0, 1e-320, 1e-308, [], {}, [1], {"name": "key", "z": 1.0})
RECORD_FIELDS = ("frame", "index", "z_star", "branches")
BRANCH_FIELDS = ("name", "z", "sigma")


@st.composite
def mutated_records(draw):
    """Valid ragged records, then at most one change: a field set to a bad
    value or removed, a repeated branch name, a repeated (frame, index),
    every sigma of a record subnormal-small, or a record that is not an
    object."""
    records = copy.deepcopy(draw(ragged_records(min_size=1)))
    if draw(st.integers(0, 3)) == 0:
        return records
    i = draw(st.integers(0, len(records) - 1))
    record = records[i]
    branches = record["branches"]
    j = draw(st.integers(0, len(branches) - 1))
    kind = draw(st.sampled_from(("record", "branch", "drop", "name", "key", "tiny",
                                 "not_object")))
    if kind == "record":
        record[draw(st.sampled_from(RECORD_FIELDS))] = draw(st.sampled_from(BAD_VALUES))
    elif kind == "branch":
        branches[j][draw(st.sampled_from(BRANCH_FIELDS))] = draw(st.sampled_from(BAD_VALUES))
    elif kind == "drop":
        target, fields = draw(st.sampled_from(((record, RECORD_FIELDS),
                                               (branches[j], BRANCH_FIELDS))))
        target.pop(draw(st.sampled_from(fields)), None)
    elif kind == "name":
        branches[j]["name"] = branches[draw(st.integers(0, len(branches) - 1))]["name"]
    elif kind == "key":
        other = records[draw(st.integers(0, len(records) - 1))]
        record["frame"], record["index"] = other["frame"], other["index"]
    elif kind == "tiny":  # each 1/sigma is finite, their sum is not
        branches.append({"name": "tiny", "z": 1.0})
        for branch in branches:
            branch["sigma"] = 1e-308
    else:
        records[i] = draw(st.sampled_from(([record], 3, "x", None)))
    return records


def outcome(read, text):
    """The columns read, or the CompdepthError's type and text."""
    try:
        return repr(columns(read(text)))  # repr tells -0.0 from 0.0
    except CompdepthError as exc:
        return type(exc), str(exc)


@settings(max_examples=100)
@given(mutated_records(), st.lists(st.sampled_from(("", "# comment")), max_size=3))
def test_reader_agrees_with_the_reference(records, extra_lines):
    # comments and blank lines ahead of the records shift every line number
    text = "".join(line + "\n" for line in extra_lines) + _jsonl(records)
    assert outcome(read_predictions, text) == outcome(reference_read, text)


def test_each_single_change_agrees_with_the_reference():
    # every field of a record and of a branch set to every value of
    # BAD_VALUES or removed, and each of the other changes, one at a time
    base = [{"frame": "000000", "index": 0, "z_star": 20.0,
             "branches": [{"name": "key", "z": 20.5, "sigma": 0.5},
                          {"name": "glo", "z": 19.0}]},
            {"frame": "000001", "index": 0, "branches": [{"name": "glo", "z": 18.0}]}]
    changes = []
    for i, fields in ((0, RECORD_FIELDS), (1, RECORD_FIELDS)):
        for field in fields:
            changes += [lambda r, i=i, f=field, v=v: r[i].__setitem__(f, v)
                        for v in BAD_VALUES]
            changes.append(lambda r, i=i, f=field: r[i].pop(f, None))
    for j in (0, 1):
        for field in BRANCH_FIELDS:
            changes += [lambda r, j=j, f=field, v=v: r[0]["branches"][j].__setitem__(f, v)
                        for v in BAD_VALUES]
            changes.append(lambda r, j=j, f=field: r[0]["branches"][j].pop(f, None))
    changes += [
        lambda r: r[0]["branches"][1].__setitem__("name", "key"),
        lambda r: r[1].update(frame="000000"),
        lambda r: [b.__setitem__("sigma", 1e-308) for b in r[0]["branches"]],
        *(lambda r, v=v: r.__setitem__(1, v) for v in ([base[1]], 3, "x", None)),
    ]
    errors = 0
    for change in changes:
        records = copy.deepcopy(base)
        change(records)
        text = _jsonl(records)
        expected = outcome(reference_read, text)
        assert outcome(read_predictions, text) == expected, text
        errors += isinstance(expected, tuple)
    assert errors > len(changes) // 2  # most single changes break the schema


# ---------------------------------------------------------------------------
# the writer writes what json.dumps writes
# ---------------------------------------------------------------------------

#: Non-empty text with quotes, backslashes, control characters and
#: non-ASCII letters, which json.dumps escapes.
escaped_text = st.text(st.sampled_from('a"\\\x00\x1f\n\t\u00e9\u4e2d\U0001f600/'),
                       min_size=1, max_size=4)
edge_floats = st.one_of(st.sampled_from((5e-324, -5e-324, 2.2250738585072014e-308,
                                         1e308, -1e308, -0.0, 0.0, 20.0, -3.0, 1e16)),
                        st.floats(allow_nan=False, allow_infinity=False))
edge_sigmas = st.one_of(st.sampled_from((5e-324, 1e-320, 1e308, 1.0, 2.0)),
                        st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))


@st.composite
def edge_tables(draw):
    names = draw(st.lists(escaped_text, min_size=1, max_size=3, unique=True))
    n = draw(st.integers(0, 4))
    shape = (n, len(names))
    valid = np.array(draw(st.lists(st.lists(st.booleans(), min_size=len(names),
                                            max_size=len(names)), min_size=n, max_size=n)),
                     dtype=bool).reshape(shape)
    valid[:, 0] |= ~valid.any(axis=1)  # every object keeps a branch
    cells = st.lists(st.lists(edge_floats, min_size=len(names), max_size=len(names)),
                     min_size=n, max_size=n)
    sigma_cells = st.lists(st.lists(edge_sigmas, min_size=len(names), max_size=len(names)),
                           min_size=n, max_size=n)
    return EnsembleTable(
        names=names, valid=valid,
        z=np.array(draw(cells), dtype=float).reshape(shape),
        sigma=np.array(draw(sigma_cells), dtype=float).reshape(shape),
        z_star=draw(st.lists(st.one_of(st.just(math.nan), edge_floats), min_size=n,
                             max_size=n)),
        frame=draw(st.lists(escaped_text, min_size=n, max_size=n)),
        index=draw(st.lists(st.integers(0, 2**63 - 1), min_size=n, max_size=n)))


@given(edge_tables())
def test_writer_is_json_dumps_per_record(table):
    expected = []
    for i in range(len(table)):
        doc = {"frame": table.frame[i], "index": int(table.index[i])}
        if not math.isnan(table.z_star[i]):
            doc["z_star"] = float(table.z_star[i])
        doc["branches"] = [{"name": name, "z": float(table.z[i, j]),
                            "sigma": float(table.sigma[i, j])}
                           for j, name in enumerate(table.names) if table.valid[i, j]]
        expected.append(json.dumps(doc, separators=(",", ":")))
    assert write_predictions(table) == "\n".join(expected) + "\n"
