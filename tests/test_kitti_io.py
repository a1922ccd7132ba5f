import io
import json
import math

import numpy as np
import pytest

from compdepth import (
    BinnedMae,
    ComplementarityReport,
    DepthBranch,
    DepthEnsemble,
    EnsembleTable,
    MalformedLine,
    MalformedMatrix,
    MissingKey,
    Object3D,
    SchemaError,
    filter_objects,
    format_calib,
    format_labels,
    parse_calib,
    parse_calib_matrix,
    parse_labels,
    read_predictions,
    read_report,
    write_curves,
    write_predictions,
    write_report,
)

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
    m = parse_calib_matrix(CALIB_TEXT, key="P0")
    assert m[0][3] == 0.0
    k = parse_calib(CALIB_TEXT, key="P0")
    assert k.c_u == pytest.approx(609.5593)


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


def test_filter_objects():
    objs = parse_labels(
        LABEL_LINE + "\n"
        + LABEL_LINE.replace("Car", "Pedestrian") + "\n"
        + "DontCare -1 -1 -10 0 0 1 1 -1 -1 -1 -1000 -1000 -1000 -10\n")
    assert len(filter_objects(objs)) == 2
    assert len(filter_objects(objs, include_dontcare=True)) == 3
    only_cars = filter_objects(objs, classes=("Car",))
    assert [o.class_name for o in only_cars] == ["Car"]


# ---------------------------------------------------------------------------
# prediction records (JSONL)
# ---------------------------------------------------------------------------

def make_record():
    return DepthEnsemble(
        "000001", 2,
        (DepthBranch("key", 20.25, 1.5), DepthBranch("glo", 19.75)),
        z_star=20.0)


def test_predictions_golden_line():
    text = write_predictions([make_record()], header={"seed": 3})
    lines = text.splitlines()
    assert lines[0] == '# {"seed": 3}'
    row = json.loads(lines[1])
    assert row == {"frame": "000001", "index": 2, "z_star": 20.0,
                   "branches": [{"name": "key", "z": 20.25, "sigma": 1.5},
                                {"name": "glo", "z": 19.75, "sigma": 1.0}]}


def test_predictions_round_trip():
    rec = make_record()
    assert read_predictions(write_predictions([rec])) == [rec]


def test_predictions_full_precision_round_trip():
    rec = DepthEnsemble("000000", 0,
                        (DepthBranch("key", 19.999999999999996, 0.1234567890123),),
                        z_star=1.0 / 3.0)
    back = read_predictions(write_predictions([rec]))[0]
    assert back.branches[0].z == 19.999999999999996
    assert back.z_star == 1.0 / 3.0


def test_read_predictions_skips_comments_and_blanks():
    text = "# a comment\n\n" + write_predictions([make_record()]) + "\n# tail\n"
    assert len(read_predictions(text)) == 1


def test_read_predictions_from_stream():
    text = write_predictions([make_record()])
    assert read_predictions(io.StringIO(text)) == [make_record()]


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


def test_ensemble_validation():
    with pytest.raises(ValueError):
        DepthEnsemble("0", 0, (DepthBranch("a", 1.0), DepthBranch("a", 2.0)))
    with pytest.raises(ValueError):
        DepthBranch("a", 1.0, sigma=0.0)
    with pytest.raises(ValueError):
        DepthBranch("a", math.nan)


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
    first = write_report(make_report(), format="json")
    back = read_report(first)
    assert write_report(back, format="json") == first  # serialize-parse fixpoint
    assert back.branch_cs["comp"] == pytest.approx(12.36)
    assert back.binned["fused"].edges[-1] == math.inf


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


def test_ensemble_table_rows_are_ensembles():
    table = _table(frame=["000007", "000007"], index=[2, 5])
    assert len(table) == 2
    assert table[1] == DepthEnsemble("000007", 5, (DepthBranch("a", 30.0, 0.5),),
                                     z_star=31.0)
    assert table[-1] == table[1]
    assert [r.index for r in table] == [2, 5]
    with pytest.raises(IndexError):
        table[2]
    # slices and numpy integers index like they do on a list
    assert table[:] == list(table)
    assert table[::-1] == [table[1], table[0]]
    assert table[5:] == []
    assert table[np.int64(1)] == table[1]
    with pytest.raises(TypeError):
        table[1.0]
    # write_predictions takes the table like any list of ensembles
    assert read_predictions(write_predictions(table)) == list(table)


def test_ensemble_table_default_frames_and_equality():
    table = _table()
    assert table.frame == ("000000", "000001")
    assert table[1].frame == "000001" and table[1].index == 0
    assert table == _table()
    assert table == EnsembleTable.from_ensembles(list(table))
    assert table != _table(z_star=[20.0, 30.0])
    assert EnsembleTable.from_ensembles(table) is table


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
    {"z_star": [20.0, np.nan]},
    {"valid": [[True, True], [False, False]]},
    {"index": [0, -1]},
    {"frame": ["000000"]},
    {"names": ("a", "a")},
    {"names": ("a", "")},
    {"names": ("a",)},
    {"z_star": [20.0]},
    {"z": np.empty((0, 2)), "sigma": np.empty((0, 2)), "valid": np.empty((0, 2)),
     "z_star": []},
])
def test_ensemble_table_validation(overrides):
    with pytest.raises(ValueError):
        _table(**overrides)
