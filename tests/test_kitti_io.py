import io
import json
import math

import numpy as np
import pytest

from compdepth import (
    BinnedMae,
    ComplementarityReport,
    EnsembleTable,
    MalformedLine,
    MalformedMatrix,
    MissingKey,
    Object3D,
    SchemaError,
    format_calib,
    format_labels,
    parse_calib,
    parse_labels,
    read_predictions,
    write_curves,
    write_predictions,
    write_report,
)
from prediction_records import columns, read_records

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
    with pytest.raises(MissingKey):
        parse_calib("P3: " + " ".join(["1.0"] * 12))


def test_parse_calib_malformed():
    with pytest.raises(MalformedMatrix):
        parse_calib("P2: " + " ".join(["1.0"] * 11))
    with pytest.raises(MalformedMatrix):
        parse_calib("P2: " + " ".join(["1.0"] * 11 + ["potato"]))
    with pytest.raises(MalformedMatrix):
        parse_calib("P2: " + " ".join(["1.0"] * 11 + ["nan"]))


def test_format_calib_round_trip(kitti_cam):
    text = format_calib(kitti_cam)
    assert parse_calib(text) == kitti_cam


# ---------------------------------------------------------------------------
# labels
# ---------------------------------------------------------------------------

def test_parse_labels_golden():
    objs = parse_labels(LABEL_LINE + "\n")
    assert len(objs) == 1
    o = objs[0]
    assert o.class_name == "Car"
    assert o.truncation == 0.0
    assert o.occlusion == 0
    assert o.alpha == pytest.approx(-1.58)
    assert o.bbox2d == (587.0, 173.3, 614.1, 200.1)
    assert (o.h, o.w, o.l) == (1.50, 1.67, 3.64)
    assert (o.x, o.y, o.z) == (-0.65, 1.65, 20.00)
    assert o.theta == pytest.approx(-1.59)
    assert o.score is None


def test_parse_labels_with_score():
    objs = parse_labels(LABEL_LINE + " 0.91\n")
    assert objs[0].score == pytest.approx(0.91)


def test_parse_labels_blank_lines_and_crlf():
    objs = parse_labels("\n" + LABEL_LINE + "\r\n\n" + LABEL_LINE + "\n")
    assert len(objs) == 2


def test_parse_labels_empty():
    assert parse_labels("") == []


def test_parse_labels_wrong_token_count():
    with pytest.raises(MalformedLine) as exc:
        parse_labels(LABEL_LINE + "\n" + "Car 0.0 0\n")
    assert exc.value.line_no == 2


def test_parse_labels_bad_number():
    bad = LABEL_LINE.replace("20.00", "twenty")
    with pytest.raises(MalformedLine) as exc:
        parse_labels(bad)
    assert exc.value.line_no == 1


def test_parse_labels_all_or_nothing():
    text = LABEL_LINE + "\njunk line\n"
    with pytest.raises(MalformedLine):
        parse_labels(text)


def test_labels_round_trip_exact():
    o = Object3D("Pedestrian", 0.25, 1, 0.123456789012345, (1.5, 2.5, 3.5, 4.5),
                 1.78, 0.55, 0.9, -7.123456789, 1.6500000001, 33.333333333333336,
                 -2.9, score=0.5)
    objs = parse_labels(format_labels([o, o]))
    assert objs == [o, o]  # full-precision serialization round-trips exactly


def test_parse_labels_keeps_dontcare():
    text = ("DontCare -1 -1 -10 500.0 150.0 540.0 180.0 "
            "-1 -1 -1 -1000 -1000 -1000 -10\n")
    objs = parse_labels(text)
    assert len(objs) == 1
    assert objs[0].is_dontcare


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


def test_read_predictions_from_stream():
    text = write_predictions(read_records([RECORD]))
    assert columns(read_predictions(io.StringIO(text))) == columns(read_records([RECORD]))


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
    with pytest.raises(SchemaError) as exc:
        read_predictions('{"frame":"0","index":0,"branches":[{"name":"a","z":1.0}]}\n'
                         '{"frame":"0","index":"one","branches":[{"name":"a","z":1.0}]}\n')
    assert exc.value.line_no == 2
    assert "index" in exc.value.field

    with pytest.raises(SchemaError) as exc:
        read_predictions('{"frame":"0","index":0,'
                         '"branches":[{"name":"a","z":1.0,"sigma":0.0}]}\n')
    assert "sigma" in exc.value.field

    with pytest.raises(SchemaError):
        read_predictions("not json\n")

    with pytest.raises(SchemaError):  # duplicate branch names
        read_predictions('{"frame":"0","index":0,"branches":'
                         '[{"name":"a","z":1.0},{"name":"a","z":2.0}]}\n')

    with pytest.raises(SchemaError) as exc:  # a record without branches
        read_predictions('{"frame":"0","index":0,"branches":[]}\n')
    assert exc.value.field == "branches"

    for z in ("NaN", "1" + "0" * 400):  # z must be a finite number
        with pytest.raises(SchemaError) as exc:
            read_predictions('{"frame":"0","index":0,"branches":[{"name":"a","z":%s}]}\n' % z)
        assert exc.value.field == "branches[0].z"

    with pytest.raises(SchemaError) as exc:  # the index column is 64-bit
        read_predictions('{"frame":"0","index":%d,"branches":[{"name":"a","z":1}]}\n' % 2**63)
    assert exc.value.field == "index"
    assert len(read_predictions(
        '{"frame":"0","index":%d,"branches":[{"name":"a","z":1}]}\n' % (2**63 - 1))) == 1

    # a subnormal sigma is finite and positive, but its inverse weight is not
    with pytest.raises(SchemaError) as exc:
        read_predictions('{"frame":"0","index":0,"branches":'
                         '[{"name":"a","z":1.0},{"name":"b","z":1.0,"sigma":1e-320}]}\n')
    assert exc.value.field == "branches[1].sigma"
    assert "1/sigma" in str(exc.value)
    assert len(read_predictions('{"frame":"0","index":0,"branches":'
                                '[{"name":"a","z":1.0,"sigma":1e-308}]}\n')) == 1


def test_read_predictions_rejects_duplicate_records():
    line = '{"frame":"000000","index":3,"branches":[{"name":"a","z":1.0}]}\n'
    other = '{"frame":"000001","index":3,"branches":[{"name":"a","z":1.0}]}\n'
    assert len(read_predictions(line + other)) == 2
    with pytest.raises(SchemaError) as exc:
        read_predictions(line + other + "# comment\n" + line)
    assert exc.value.line_no == 4
    assert exc.value.field == "index"
    assert "duplicate record (000000, 3)" in str(exc.value)


# ---------------------------------------------------------------------------
# reports and curves
# ---------------------------------------------------------------------------

def make_report():
    return ComplementarityReport(
        n_objects=4, reference="key", branch_names=("key", "comp"),
        branch_mae={"key": 3.09, "comp": 1.51}, branch_counts={"key": 4, "comp": 4},
        esop={("comp", "key"): 38.19}, branch_cs={"key": None, "comp": 12.36},
        fused_mae=1.2345678, fused_count=4,
        binned={"fused": BinnedMae((0.0, 20.0, math.inf), (1.5, None), (4, 0))},
        flags=("zero_mae_reference",))


def test_write_report_json_contains_score():
    text = write_report(make_report(), format="json")
    assert "12.36" in text
    data = json.loads("\n".join(l for l in text.splitlines() if not l.startswith("#")))
    assert data["reference"] == "key"
    assert data["esop"] == [{"a": "comp", "b": "key", "value": 38.19}]
    assert data["fused"]["mae"] == pytest.approx(1.2345678, abs=1e-5)  # 6 sig digits
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


def test_ensemble_table_masked_cells_are_zero_and_one():
    table = _table(z=[[21.0, 19.0], [30.0, np.nan]], sigma=[[1.0, 2.0], [0.5, -1.0]])
    assert table.z.tolist() == [[21.0, 19.0], [30.0, 0.0]]
    assert table.sigma.tolist() == [[1.0, 2.0], [0.5, 1.0]]


def test_ensemble_table_is_read_only():
    table = _table()
    for column in (table.z, table.sigma, table.valid, table.z_star, table.index):
        with pytest.raises(ValueError):
            column[0] = 1


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
