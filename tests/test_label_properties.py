"""Property test of the columnar label parser against the line-by-line
reference in label_reference.py: the same values bit for bit, or a
CompdepthError with the same text."""

import math

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from compdepth import CompdepthError, parse_labels  # noqa: E402
from label_reference import parse_labels as reference_parse  # noqa: E402

#: Tokens that float() reads in unusual ways, or rejects.
ODD_TOKENS = ("-0", "+.5", "1e3", "1_0", "1E-400", "1e400", "inf", "-Infinity", "nan",
              "twenty", "0x10", "1e", "٣", "1..0")
number = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                   st.integers(-10**6, 10**6).map(str))


@st.composite
def label_texts(draw):
    """Label files of 15- and 16-token rows, DontCare rows, blank lines,
    tabs and CRLF line ends, then at most one change: a token replaced by
    an odd one, or a row with a token too few or too many."""
    rows = [[draw(st.sampled_from(("Car", "DontCare", "Pedestrian")))]
            + draw(st.lists(number, min_size=14, max_size=15))
            for _ in range(draw(st.integers(0, 6)))]
    if rows and draw(st.booleans()):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        if draw(st.booleans()):
            row[draw(st.integers(1, len(row) - 1))] = draw(st.sampled_from(ODD_TOKENS))
        elif draw(st.booleans()):
            row.pop()
        else:
            row += ["1.0", "2.0"]
    lines = []
    for row in rows:
        lines += [""] * draw(st.integers(0, 1))
        lines.append(draw(st.sampled_from((" ", "\t", "  "))).join(row)
                     + draw(st.sampled_from(("", " ", "\r"))))
    return "\n".join(lines) + draw(st.sampled_from(("", "\n", "\r\n")))


def reference_rows(objects):
    """The reference objects as LabelTable rows, occlusion as the int the
    reference keeps, NaN for a missing score, each float as its repr."""
    return [repr([o.truncation, o.occlusion, o.alpha, *o.bbox2d, o.h, o.w, o.l,
                  o.x, o.y, o.z, o.theta, math.nan if o.score is None else o.score])
            for o in objects]


@settings(max_examples=50)
@given(label_texts())
def test_parser_agrees_with_the_reference(text):
    try:
        objects = reference_parse(text)
    except CompdepthError as expected:
        with pytest.raises(CompdepthError) as exc:
            parse_labels(text)
        assert (type(exc.value), str(exc.value)) == (type(expected), str(expected))
        return
    labels = parse_labels(text)
    assert labels.class_names == tuple(o.class_name for o in objects)
    assert labels.dontcare.tolist() == [o.is_dontcare for o in objects]
    rows = [[int(v) if k == 1 else v for k, v in enumerate(row)]
            for row in labels.values.tolist()]
    assert [repr(row) for row in rows] == reference_rows(objects)
