import json
import math

import numpy as np
import pytest

from compdepth import (
    BinnedMae,
    ComplementarityReport,
    CompdepthError,
    EnsembleTable,
    Object3D,
    format_calib,
    format_labels,
    parse_calib,
    parse_labels,
    read_predictions,
    write_curves,
    write_predictions,
    write_report,
)
from compdepth.kitti_io import write_plane_report
from prediction_records import columns, read_records
from prediction_reference import read_predictions as reference_read

CALIB_TEXT = (
    "P0: 7.215377e+02 0.000000e+00 6.095593e+02 0.000000e+00 "
    "0.000000e+00 7.215377e+02 1.728540e+02 0.000000e+00 "
    "0.000000e+00 0.000000e+00 1.000000e+00 0.000000e+00\n"
    "P2: 7.215377e+02 0.000000e+00 6.095593e+02 4.485728e+01 "
    "0.000000e+00 7.215377e+02 1.728540e+02 2.163791e-01 "
    "0.000000e+00 0.000000e+00 1.000000e+00 2.745884e-03\n"
)

LABEL_LINE = ("Car 0.00 0 -1.58 587.0 173.3 614.1 200.1 "
              "1.50 1.67 3.64 -0.65 1.65 20.00 -1.59")


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------

def test_parse_calib_golden():
    k = parse_calib(CALIB_TEXT)
    assert k.f_x == pytest.approx(721.5377)
    assert k.f_y == pytest.approx(721.5377)
    assert k.c_u == pytest.approx(609.5593)
    assert k.c_v == pytest.approx(172.854)


def test_parse_calib_other_key():
    # only the P2 line counts: other keys, well-formed or not, are ignored
    text = "P0: " + " ".join(["1.0"] * 12) + "\nP1: short\n" + CALIB_TEXT.splitlines()[1]
    assert parse_calib(text) == parse_calib(CALIB_TEXT)
    assert parse_calib(text).c_u == pytest.approx(609.5593)


def test_parse_calib_missing_key():
    with pytest.raises(ValueError, match="^no 'P2:' line in calibration text$"):
        parse_calib("P3: " + " ".join(["1.0"] * 12))


def test_parse_calib_malformed():
    with pytest.raises(ValueError, match="^'P2' needs 12 entries, got 11$"):
        parse_calib("P2: " + " ".join(["1.0"] * 11))
    with pytest.raises(ValueError, match="^'P2' has a non-numeric entry: could not convert "
                                         "string to float: 'potato'$"):
        parse_calib("P2: " + " ".join(["1.0"] * 11 + ["potato"]))
    with pytest.raises(ValueError, match="^'P2' has a non-finite entry$"):
        parse_calib("P2: " + " ".join(["1.0"] * 11 + ["nan"]))


def test_format_calib_round_trip(kitti_cam):
    text = format_calib(kitti_cam)
    assert parse_calib(text) == kitti_cam


# ---------------------------------------------------------------------------
# labels
# ---------------------------------------------------------------------------

def label_row(o):
    """The LabelTable.values row of an Object3D."""
    score = math.nan if o.score is None else o.score
    return [o.truncation, o.occlusion, o.alpha, *o.bbox2d,
            o.h, o.w, o.l, o.x, o.y, o.z, o.theta, score]


def test_parse_labels_golden():
    labels = parse_labels(LABEL_LINE + "\n")
    assert len(labels) == 1
    assert labels.class_names == ("Car",)
    (truncation, occlusion, alpha, *bbox2d, h, w, l, x, y, z, theta,
     score) = labels.values[0].tolist()
    assert truncation == 0.0
    assert occlusion == 0
    assert alpha == pytest.approx(-1.58)
    assert tuple(bbox2d) == (587.0, 173.3, 614.1, 200.1)
    assert (h, w, l) == (1.50, 1.67, 3.64)
    assert (x, y, z) == (-0.65, 1.65, 20.00)
    assert theta == pytest.approx(-1.59)
    assert math.isnan(score)  # no score
    # the named columns the commands read
    assert (labels.h[0], labels.x[0], labels.y[0], labels.z[0]) == (1.50, -0.65, 1.65, 20.00)
    assert labels.dontcare.tolist() == [False]
    assert not labels.values.flags.writeable and not labels.dontcare.flags.writeable


def test_parse_labels_with_score():
    labels = parse_labels(LABEL_LINE + " 0.91\n")
    assert labels.values[0, 14] == pytest.approx(0.91)


def test_parse_labels_blank_lines_and_crlf():
    labels = parse_labels("\n" + LABEL_LINE + "\r\n\n" + LABEL_LINE + "\n")
    assert len(labels) == 2


def test_parse_labels_mixed_rows():
    # 15- and 16-token rows, DontCare and CRLF in one file keep file order
    dontcare = "DontCare -1 -1 -10 500.0 150.0 540.0 180.0 -1 -1 -1 -1000 -1000 -1000 -10"
    labels = parse_labels(LABEL_LINE + " 0.5\r\n" + dontcare + "\n\n" + LABEL_LINE + "\n")
    assert labels.class_names == ("Car", "DontCare", "Car")
    assert labels.dontcare.tolist() == [False, True, False]
    assert labels.values[0, 14] == 0.5 and np.isnan(labels.values[1:, 14]).all()
    assert labels.z.tolist() == [20.0, -1000.0, 20.0]


def test_parse_labels_empty():
    labels = parse_labels("")
    assert len(labels) == 0 and labels.class_names == ()
    assert labels.values.shape == (0, 15) and labels.dontcare.shape == (0,)


def test_parse_labels_wrong_token_count():
    with pytest.raises(CompdepthError) as exc:
        parse_labels(LABEL_LINE + "\n" + "Car 0.0 0\n")
    assert str(exc.value) == "line 2: expected 15 or 16 fields, got 3"


def test_parse_labels_bad_number():
    bad = LABEL_LINE.replace("20.00", "twenty")
    with pytest.raises(CompdepthError) as exc:
        parse_labels(bad)
    assert str(exc.value) == ("line 1: non-numeric field: "
                              "could not convert string to float: 'twenty'")


def test_parse_labels_all_or_nothing():
    text = LABEL_LINE + "\njunk line\n"
    with pytest.raises(CompdepthError, match="^line 2: expected 15 or 16 fields, got 2$"):
        parse_labels(text)


def test_labels_round_trip_exact():
    o = Object3D("Pedestrian", 0.25, 1, 0.123456789012345, (1.5, 2.5, 3.5, 4.5),
                 1.78, 0.55, 0.9, -7.123456789, 1.6500000001, 33.333333333333336,
                 -2.9, score=0.5)
    labels = parse_labels(format_labels([o, o]))
    # full-precision serialization round-trips exactly
    assert labels.class_names == ("Pedestrian", "Pedestrian")
    assert labels.values.tolist() == [label_row(o), label_row(o)]


def test_parse_labels_keeps_dontcare():
    text = ("DontCare -1 -1 -10 500.0 150.0 540.0 180.0 "
            "-1 -1 -1 -1000 -1000 -1000 -10\n")
    labels = parse_labels(text)
    assert len(labels) == 1
    assert labels.dontcare.tolist() == [True]


# ---------------------------------------------------------------------------
# prediction records (JSONL)
# ---------------------------------------------------------------------------

RECORD = {"frame": "000001", "index": 2, "z_star": 20.0,
          "branches": [{"name": "key", "z": 20.25, "sigma": 1.5},
                       {"name": "glo", "z": 19.75}]}


def test_predictions_golden_line():
    text = write_predictions(read_records([RECORD]), header={"seed": 3})
    lines = text.splitlines()
    assert lines[0] == '# {"seed": 3}'
    row = json.loads(lines[1])
    assert row == {"frame": "000001", "index": 2, "z_star": 20.0,
                   "branches": [{"name": "key", "z": 20.25, "sigma": 1.5},
                                {"name": "glo", "z": 19.75, "sigma": 1.0}]}


def test_predictions_round_trip():
    table = read_records([RECORD])
    assert columns(read_predictions(write_predictions(table))) == columns(table)


def test_predictions_full_precision_round_trip():
    table = read_records([{"frame": "000000", "index": 0, "z_star": 1.0 / 3.0,
                           "branches": [{"name": "key", "z": 19.999999999999996,
                                         "sigma": 0.1234567890123}]}])
    back = read_predictions(write_predictions(table))
    assert back.z[0, 0] == 19.999999999999996
    assert back.sigma[0, 0] == 0.1234567890123
    assert back.z_star[0] == 1.0 / 3.0


def test_read_predictions_skips_comments_and_blanks():
    text = "# a comment\n\n" + write_predictions(read_records([RECORD])) + "\n# tail\n"
    assert len(read_predictions(text)) == 1


def test_read_predictions_fills_columns():
    # ragged records: the union of branch names in first-appearance order
    # becomes the columns, and the mask marks which object carries which
    table = read_records([
        {"frame": "000003", "index": 0, "z_star": 1.0, "branches": [{"name": "a", "z": 1}]},
        {"frame": "000003", "index": 1,
         "branches": [{"name": "b", "z": 2.5, "sigma": 0.5}, {"name": "a", "z": 3.0}]},
    ])
    assert table.names == ("a", "b")
    assert table.frame == ("000003", "000003") and table.index.tolist() == [0, 1]
    assert table.valid.tolist() == [[True, False], [True, True]]
    assert table.z.tolist() == [[1.0, 0.0], [3.0, 2.5]]
    assert table.sigma.tolist() == [[1.0, 1.0], [1.0, 0.5]]
    assert table.z_star[0] == 1.0 and np.isnan(table.z_star[1])  # absent z_star
    # written back, each record lists its branches in column order and
    # leaves out the unknown z_star
    assert write_predictions(table).splitlines()[1] == (
        '{"frame":"000003","index":1,"branches":[{"name":"a","z":3.0,"sigma":1.0},'
        '{"name":"b","z":2.5,"sigma":0.5}]}')


def test_read_predictions_without_records():
    for text in ("", "# only a header\n\n"):
        table = read_predictions(text)
        assert len(table) == 0 and table.names == ()
        assert table.z.shape == (0, 0) and table.z_star.shape == (0,)
    assert write_predictions(read_predictions(""), header={"seed": 1}) == '# {"seed": 1}\n'


def test_read_predictions_schema_errors():
    with pytest.raises(CompdepthError) as exc:
        read_predictions('{"frame":"0","index":0,"branches":[{"name":"a","z":1.0}]}\n'
                         '{"frame":"0","index":"one","branches":[{"name":"a","z":1.0}]}\n')
    assert str(exc.value) == "line 2: field 'index': required non-negative integer"

    with pytest.raises(CompdepthError) as exc:
        read_predictions('{"frame":"0","index":0,'
                         '"branches":[{"name":"a","z":1.0,"sigma":0.0}]}\n')
    assert str(exc.value) == "line 1: field 'branches[0].sigma': must be a finite positive number"

    with pytest.raises(CompdepthError) as exc:
        read_predictions("not json\n")
    assert str(exc.value) == ("line 1: field '': invalid JSON: "
                              "Expecting value: line 1 column 1 (char 0)")

    with pytest.raises(CompdepthError) as exc:  # duplicate branch names
        read_predictions('{"frame":"0","index":0,"branches":'
                         '[{"name":"a","z":1.0},{"name":"a","z":2.0}]}\n')
    assert str(exc.value) == "line 1: field 'branches[1].name': duplicate branch name 'a'"

    with pytest.raises(CompdepthError) as exc:  # a record without branches
        read_predictions('{"frame":"0","index":0,"branches":[]}\n')
    assert str(exc.value) == "line 1: field 'branches': required non-empty list"

    for z in ("NaN", "1" + "0" * 400):  # z must be a finite number
        with pytest.raises(CompdepthError) as exc:
            read_predictions('{"frame":"0","index":0,"branches":[{"name":"a","z":%s}]}\n' % z)
        assert str(exc.value) == "line 1: field 'branches[0].z': required finite number"

    with pytest.raises(CompdepthError) as exc:  # the index column is 64-bit
        read_predictions('{"frame":"0","index":%d,"branches":[{"name":"a","z":1}]}\n' % 2**63)
    assert str(exc.value) == "line 1: field 'index': must be below 2**63"
    assert len(read_predictions(
        '{"frame":"0","index":%d,"branches":[{"name":"a","z":1}]}\n' % (2**63 - 1))) == 1

    # a subnormal sigma is finite and positive, but its inverse weight is not
    with pytest.raises(CompdepthError) as exc:
        read_predictions('{"frame":"0","index":0,"branches":'
                         '[{"name":"a","z":1.0},{"name":"b","z":1.0,"sigma":1e-320}]}\n')
    assert str(exc.value) == "line 1: field 'branches[1].sigma': too small: 1/sigma overflows"
    assert len(read_predictions('{"frame":"0","index":0,"branches":'
                                '[{"name":"a","z":1.0,"sigma":1e-308}]}\n')) == 1


def test_read_predictions_extra_data_is_invalid_json():
    line = '{"frame":"0","index":0,"branches":[{"name":"a","z":1.0}]}'
    for extra, column in ((" junk", 59), (line, 58), (",1", 58)):
        with pytest.raises(CompdepthError) as exc:
            read_predictions(line + "\n" + line.replace('"index":0', '"index":1') + extra)
        assert str(exc.value) == (f"line 2: field '': invalid JSON: Extra data: "
                                  f"line 1 column {column} (char {column - 1})")
    with pytest.raises(CompdepthError) as exc:  # json.loads names a leading BOM
        read_predictions(line + "\n\ufeff" + line.replace('"index":0', '"index":1'))
    assert str(exc.value) == ("line 2: field '': invalid JSON: Unexpected UTF-8 BOM "
                              "(decode using utf-8-sig): line 1 column 1 (char 0)")


def test_read_predictions_rejects_duplicate_records():
    line = '{"frame":"000000","index":3,"branches":[{"name":"a","z":1.0}]}\n'
    other = '{"frame":"000001","index":3,"branches":[{"name":"a","z":1.0}]}\n'
    assert len(read_predictions(line + other)) == 2
    with pytest.raises(CompdepthError) as exc:
        read_predictions(line + other + "# comment\n" + line)
    assert str(exc.value) == "line 4: field 'index': duplicate record (000000, 3)"


def test_read_predictions_names_a_late_bad_record():
    # a long file whose one bad record comes near its end, after a header
    lines = [json.dumps({"frame": f"{i % 7:06d}", "index": i,
                         "branches": [{"name": "key", "z": i / 3}]}) for i in range(2100)]
    text = "# header\n" + "\n".join(lines) + "\n"
    assert columns(read_predictions(text)) == columns(reference_read(text))
    lines[2050] = lines[2050].replace('"z"', '"sigma": 0, "z"')
    with pytest.raises(CompdepthError) as exc:
        read_predictions("# header\n" + "\n".join(lines) + "\n")
    assert str(exc.value) == ("line 2052: field 'branches[0].sigma': "
                              "must be a finite positive number")


# ---------------------------------------------------------------------------
# reports and curves
# ---------------------------------------------------------------------------

def make_report():
    return ComplementarityReport(
        n_objects=4, reference="key", branch_names=("key", "comp"),
        branch_mae={"key": 3.09, "comp": 1.51}, branch_counts={"key": 4, "comp": 4},
        esop={("comp", "key"): 38.19}, branch_cs={"key": None, "comp": 12.36},
        fused_mae=1.2345678,
        binned={"fused": BinnedMae((0.0, 20.0, math.inf), (1.5, None), (4, 0))},
        flags=("zero_mae_reference",))


def test_write_report_json_contains_score():
    text = write_report(make_report(), format="json")
    assert "12.36" in text
    data = json.loads("\n".join(l for l in text.splitlines() if not l.startswith("#")))
    assert data["reference"] == "key"
    assert data["esop"] == [{"a": "comp", "b": "key", "value": 38.19}]
    assert data["fused"]["mae"] == pytest.approx(1.2345678, abs=1e-5)  # 6 sig digits
    assert data["fused"]["count"] == 4  # fusion covers every object
    assert data["binned"][0]["edges"] == [0.0, 20.0, "inf"]


def test_write_report_csv_contains_score():
    text = write_report(make_report(), format="csv", header={"cmd": "eval"})
    assert text.splitlines()[0].startswith("#")
    assert "12.36" in text
    assert "metric,branch,other,bin_lo,bin_hi,value,count" in text


def test_report_json_round_trip():
    # the report is plain JSON (no NaN or Infinity tokens) in canonical
    # layout: parsing and re-serializing it gives the same text
    first = write_report(make_report(), format="json")
    doc = json.loads(first, parse_constant=lambda token: pytest.fail(token))
    assert json.dumps(doc, indent=2) + "\n" == first
    assert doc["branches"][1] == {"name": "comp", "count": 4, "mae": 1.51, "cs": 12.36}
    assert doc["binned"][0]["edges"][-1] == "inf"


def test_write_report_deterministic():
    a = write_report(make_report(), format="json", header={"seed": 1})
    b = write_report(make_report(), format="json", header={"seed": 1})
    assert a == b


PLANE_FRAMES = [
    {"frame": "000000", "n_points": 3, "fallback": False, "k_h": -0.05544421,
     "b_h": 166.5973, "y_mae": 0.01234567},
    {"frame": "000001", "n_points": 0, "fallback": True, "k_h": 0.0, "b_h": 172.854,
     "y_mae": None},
]
PLANE_SUMMARY = {"fallback_frames": 1, "n_objects": 3, "y_mae": 0.01234567}


def test_plane_report_json_round_trip():
    # canonical plain JSON, like the eval report, with the header's keys sorted
    first = write_plane_report(PLANE_FRAMES, PLANE_SUMMARY,
                               header={"command": "plane", "cam-height": 1.65})
    doc = json.loads(first, parse_constant=lambda token: pytest.fail(token))
    assert json.dumps(doc, indent=2) + "\n" == first
    assert list(doc["header"]) == ["cam-height", "command"]
    assert doc["frames"][0]["k_h"] == -0.0554442 and doc["frames"][1]["y_mae"] is None
    assert doc["summary"] == {"fallback_frames": 1, "n_objects": 3, "y_mae": 0.0123457}


def test_writers_without_header_echo_nothing():
    from compdepth import SweepCurve
    for text in (write_report(make_report()), write_plane_report(PLANE_FRAMES, PLANE_SUMMARY)):
        assert "header" not in json.loads(text)
    assert write_report(make_report(), "csv").startswith("metric,branch,")
    assert write_curves([SweepCurve((0.0,), (1.0,), (10,), label="flip:key")]) == (
        "label,x,mae,count,baseline_mae\nflip:key,0,1,10,\n")
    # the plane CSV keeps its summary lines, and only those
    assert write_plane_report(PLANE_FRAMES, PLANE_SUMMARY, "csv") == (
        "# fallback_frames: 1\n"
        "# n_objects: 3\n"
        "# y_mae: 0.0123457\n"
        "frame,n_points,fallback,k_h,b_h,y_mae\n"
        "000000,3,0,-0.0554442,166.597,0.0123457\n"
        "000001,0,1,0,172.854,\n")


def test_writers_reject_unknown_format():
    message = r"^unknown format 'xml' \(expected 'json' or 'csv'\)$"
    with pytest.raises(ValueError, match=message):
        write_report(make_report(), format="xml")
    with pytest.raises(ValueError, match=message):
        write_plane_report(PLANE_FRAMES, PLANE_SUMMARY, format="xml")


def test_write_curves_golden():
    from compdepth import SweepCurve
    text = write_curves([SweepCurve((0.0, 0.5), (1.0, 0.75), (10, 10),
                                    baseline_mae=1.0, label="flip:key")])
    assert text == ("label,x,mae,count,baseline_mae\n"
                    "flip:key,0,1,10,1\n"
                    "flip:key,0.5,0.75,10,1\n")


# ---------------------------------------------------------------------------
# columnar ensembles
# ---------------------------------------------------------------------------

def _table(**overrides):
    cols = dict(names=("a", "b"), z=[[21.0, 19.0], [30.0, 0.0]],
                sigma=[[1.0, 2.0], [0.5, 1.0]], valid=[[True, True], [True, False]],
                z_star=[20.0, 31.0])
    cols.update(overrides)
    return EnsembleTable(**cols)


def test_ensemble_table_default_frames():
    table = _table()
    assert len(table) == 2
    assert table.frame == ("000000", "000001")
    assert table.index.tolist() == [0, 0]
    # the generated frames are what write_predictions writes
    back = read_predictions(write_predictions(table))
    assert columns(back) == columns(table)


def test_ensemble_table_empty_and_unknown_truth():
    empty = EnsembleTable(names=(), z=np.empty((0, 0)), sigma=np.empty((0, 0)), z_star=[])
    assert len(empty) == 0 and empty.frame == ()
    table = _table(z_star=[20.0, np.nan])
    assert np.isnan(table.z_star[1])


def test_ensemble_table_take():
    table = _table(frame=["000007", "000008"], index=[2, 5])
    back = table.take([1, 0], z_star=[1.0, 2.0])
    assert back.names == ("a", "b")
    assert back.frame == ("000008", "000007") and back.index.tolist() == [5, 2]
    assert back.z.tolist() == [[30.0, 0.0], [21.0, 19.0]]
    assert back.sigma.tolist() == [[0.5, 1.0], [1.0, 2.0]]
    assert back.valid.tolist() == [[True, False], [True, True]]
    assert back.z_star.tolist() == [1.0, 2.0]
    # only the branch columns some kept row carries stay
    second = table.take([1])
    assert second.names == ("a",) and second.z.tolist() == [[30.0]]
    assert second.z_star.tolist() == [31.0]
    none = table.take([])
    assert len(none) == 0 and none.names == ()


@pytest.mark.parametrize("masked", [False, True])
def test_ensemble_table_ignores_later_writes_to_the_callers_arrays(masked):
    z, sigma = np.array([[21.0, 19.0], [30.0, 29.0]]), np.array([[1.0, 2.0], [0.5, 1.0]])
    valid, z_star = np.ones((2, 2), dtype=bool) if masked else None, np.array([20.0, 31.0])
    table = EnsembleTable(names=("a", "b"), z=z, sigma=sigma, valid=valid, z_star=z_star)
    for array in (z, sigma, z_star, *([valid] if masked else [])):
        array[...] = 0  # the caller's arrays stay writeable
    assert table.z.tolist() == [[21.0, 19.0], [30.0, 29.0]]
    assert table.sigma.tolist() == [[1.0, 2.0], [0.5, 1.0]]
    assert table.valid.all() and table.z_star.tolist() == [20.0, 31.0]


def test_ensemble_table_masked_cells_are_zero_and_one():
    table = _table(z=[[21.0, 19.0], [30.0, np.nan]], sigma=[[1.0, 2.0], [0.5, -1.0]])
    assert table.z.tolist() == [[21.0, 19.0], [30.0, 0.0]]
    assert table.sigma.tolist() == [[1.0, 2.0], [0.5, 1.0]]


def test_ensemble_table_is_read_only():
    table = _table()
    for column in (table.z, table.sigma, table.valid, table.z_star, table.index):
        with pytest.raises(ValueError):
            column[0] = 1
    # with or without a mask, the caller's arrays stay theirs and writable
    for valid in (None, np.ones((2, 2), dtype=bool)):
        z, sigma = np.full((2, 2), 3.0), np.ones((2, 2))
        table = _table(z=z, sigma=sigma, valid=valid)
        z[0, 0] = sigma[0, 0] = 5.0
        assert table.z[0, 0] == 3.0 and table.sigma[0, 0] == 1.0


@pytest.mark.parametrize("index, message", [
    ([0.5, 1.9], "index must hold integers, got float64"),  # not truncated to [0, 1]
    ([True, False], "index must hold integers, got bool"),
    ([2**63, 2**63 + 1], "index must be below 2**63"),  # not an OverflowError
])
def test_ensemble_table_rejects_an_index_the_reader_rejects(index, message):
    with pytest.raises(ValueError) as exc:
        _table(index=index)
    assert str(exc.value) == message


def test_ensemble_table_keeps_integer_indices_below_2_63():
    table = _table(index=np.array([2**63 - 1, 0], dtype=np.uint64))
    assert table.index.dtype == np.int64 and table.index.tolist() == [2**63 - 1, 0]
    # an empty index is an index of no rows, whatever its dtype
    empty = EnsembleTable(names=(), z=np.empty((0, 0)), sigma=np.empty((0, 0)), z_star=[],
                          index=[])
    assert empty.index.dtype == np.int64 and empty.index.size == 0


@pytest.mark.parametrize("overrides", [
    {"z": [[21.0, np.inf], [30.0, 0.0]]},
    {"z": [[21.0, np.nan], [30.0, 0.0]]},
    {"sigma": [[1.0, 0.0], [0.5, 1.0]]},
    {"sigma": [[1.0, np.inf], [0.5, 1.0]]},
    {"z_star": [20.0, np.inf]},
    {"valid": [[True, True], [False, False]]},
    {"index": [0, -1]},
    {"frame": ["000000"]},
    {"names": ("a", "a")},
    {"names": ("a", "")},
    {"names": ("a",)},
    {"z_star": [20.0]},
    {"names": (), "z": np.empty((0, 2)), "sigma": np.empty((0, 2)),
     "valid": np.empty((0, 2)), "z_star": []},
])
def test_ensemble_table_validation(overrides):
    with pytest.raises(ValueError):
        _table(**overrides)
