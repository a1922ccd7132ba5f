import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import resource
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from compdepth import (
    box_keypoints,
    format_calib,
    format_labels,
    heatmap_from_pgm,
    make_scene,
    read_predictions,
    write_predictions,
)
from compdepth.cli import MAX_DEPTH, MAX_NOISE, _build_parser, _float_list, main

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # the property test below skips itself
    given = None


def write_dataset(root):
    """Two synthetic frames of 25 objects written as calib/label files."""
    calib_dir = root / "calib"
    label_dir = root / "label_2"
    calib_dir.mkdir()
    label_dir.mkdir()
    for frame, seed in (("000000", 7), ("000001", 8)):
        scene = make_scene(25, seed=seed)
        (calib_dir / f"{frame}.txt").write_text(format_calib(scene.intrinsics))
        (label_dir / f"{frame}.txt").write_text(format_labels(scene.objects))
    return root


@pytest.fixture
def dataset(tmp_path):
    """The dataset in the test's own temporary directory."""
    return write_dataset(tmp_path)


@pytest.fixture(scope="module")
def shared_dataset(tmp_path_factory):
    """The dataset, once per module, for property tests that only read it."""
    return write_dataset(tmp_path_factory.mktemp("corpus"))


def run(args):
    return main([str(a) for a in args])


def read_json_report(text):
    """An eval JSON report with its branches and binned tables keyed by name."""
    doc = json.loads(text)
    for key in ("branches", "binned"):
        doc[key] = {row["name"]: row for row in doc[key]}
    return doc


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

def test_oracle_zero_noise_recovers_truth(dataset, capsys):
    code = run(["oracle", "--calib-dir", dataset / "calib",
                "--label-dir", dataset / "label_2"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0].startswith("# ")
    table = read_predictions(out)
    assert len(table) == 50
    assert set(table.names) == {"key", "glo", "comp"} and table.valid.all()
    assert table.z == pytest.approx(np.repeat(table.z_star[:, None], 3, axis=1), rel=1e-9)


def test_oracle_include_alt(dataset, capsys):
    code = run(["oracle", "--calib-dir", dataset / "calib",
                "--label-dir", dataset / "label_2", "--include-alt"])
    assert code == 0
    table = read_predictions(capsys.readouterr().out)
    assert table.valid[:, table.names.index("alt")].all()


def test_oracle_writes_file_and_reruns_identically(dataset):
    out = dataset / "preds.jsonl"
    args = ["oracle", "--calib-dir", dataset / "calib",
            "--label-dir", dataset / "label_2", "--seed", 3,
            "--noise-h-rel", 0.1, "--noise-px", 0.5, "--out", out]
    assert run(args) == 0
    first = out.read_bytes()
    assert run(args) == 0
    assert out.read_bytes() == first


def test_oracle_noise_streams_nested(dataset, capsys):
    # same seed, larger height noise: keypoint draws stay aligned, so the
    # elevation branch (which ignores height) is unchanged
    def grab(h_rel):
        run(["oracle", "--calib-dir", dataset / "calib",
             "--label-dir", dataset / "label_2", "--seed", 5,
             "--noise-h-rel", h_rel])
        return read_predictions(capsys.readouterr().out)

    small, large = grab(0.01), grab(0.2)
    assert small.names == large.names and small.valid.all() and large.valid.all()
    glo, key = small.names.index("glo"), small.names.index("key")
    assert np.array_equal(small.z[:, glo], large.z[:, glo])
    assert np.array_equal(small.sigma[:, glo], large.sigma[:, glo])
    assert (small.z[:, key] != large.z[:, key]).all()


def test_oracle_proportional_sigma(dataset, capsys):
    run(["oracle", "--calib-dir", dataset / "calib",
         "--label-dir", dataset / "label_2", "--seed", 3,
         "--noise-px", 2.0, "--sigma-model", "proportional"])
    table = read_predictions(capsys.readouterr().out)
    sigmas = set(table.sigma[table.valid].tolist())
    assert len(sigmas) > 1


def test_oracle_missing_dir(tmp_path, capsys):
    code = run(["oracle", "--calib-dir", tmp_path / "nope",
                "--label-dir", tmp_path / "nope"])
    assert code == 1
    assert capsys.readouterr().err != ""


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def oracle_then_eval(dataset, capsys, oracle_extra=(), eval_extra=()):
    preds = dataset / "preds.jsonl"
    code = run(["oracle", "--calib-dir", dataset / "calib",
                "--label-dir", dataset / "label_2", "--out", preds,
                *oracle_extra])
    assert code in (0, 3)
    code = run(["eval", "--calib-dir", dataset / "calib",
                "--label-dir", dataset / "label_2",
                "--predictions", preds, *eval_extra])
    return code, capsys.readouterr().out


def test_eval_zero_noise_report(dataset, capsys):
    code, out = oracle_then_eval(dataset, capsys)
    assert code == 0
    report = read_json_report(out)
    assert report["n_objects"] == 50
    assert report["reference"] == "key"  # no 'dir' branch in oracle output
    for name in ("key", "glo", "comp"):
        assert report["branches"][name]["mae"] == pytest.approx(0.0, abs=1e-9)
    assert report["fused"]["mae"] == pytest.approx(0.0, abs=1e-9)


def test_eval_noisy_report_has_binned_tables(dataset, capsys):
    code, out = oracle_then_eval(
        dataset, capsys,
        oracle_extra=["--seed", 2, "--noise-h-rel", 0.1, "--noise-px", 1.0])
    assert code == 0
    report = read_json_report(out)
    assert set(report["binned"]) == {"fused", "key", "glo", "comp"}
    assert sum(report["binned"]["fused"]["counts"]) == report["fused"]["count"]
    assert report["branches"]["comp"]["cs"] is not None


def test_eval_csv_format(dataset, capsys):
    code, out = oracle_then_eval(dataset, capsys, eval_extra=["--format", "csv"])
    assert code == 0
    assert "metric,branch,other,bin_lo,bin_hi,value,count" in out


def test_eval_custom_edges_and_reference(dataset, capsys):
    code, out = oracle_then_eval(
        dataset, capsys,
        oracle_extra=["--seed", 2, "--noise-px", 1.0],
        eval_extra=["--reference", "glo", "--depth-edges", "0,30,inf"])
    assert code == 0
    report = read_json_report(out)
    assert report["reference"] == "glo"
    assert report["binned"]["fused"]["edges"] == [0.0, 30.0, "inf"]


def test_eval_unknown_reference(dataset, capsys):
    preds = dataset / "preds.jsonl"
    assert run(["oracle", "--calib-dir", dataset / "calib",
                "--label-dir", dataset / "label_2", "--out", preds]) == 0
    code = run(["eval", "--calib-dir", dataset / "calib", "--label-dir", dataset / "label_2",
                "--predictions", preds, "--reference", "nope"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err == "error: reference branch 'nope' not found\n"


def esop_of(out, a, b):
    """ESOP(a, b) of an eval JSON report."""
    return next(row["value"] for row in json.loads(out)["esop"]
                if (row["a"], row["b"]) == (a, b))


def test_eval_esop_follows_the_sign_table(dataset, capsys):
    # the horizon moves glo and comp the same way (README, "Complementarity
    # in form"), so no object has them err on opposite sides
    code, out = oracle_then_eval(dataset, capsys, oracle_extra=[
        "--seed", 6, "--noise-horizon-intercept", 5.0])
    assert code == 0 and esop_of(out, "glo", "comp") == 0.0
    # height noise moves key and comp opposite ways: every object, measured
    code, out = oracle_then_eval(dataset, capsys, oracle_extra=[
        "--seed", 6, "--noise-h-rel", 0.1])
    assert code == 0 and esop_of(out, "key", "comp") == 100.0


def test_eval_unmatched_prediction(dataset, tmp_path, capsys):
    # an index past its frame's label rows, and a frame with no label file
    preds = tmp_path / "bad.jsonl"
    for frame, index in (("000000", 999), ("000009", 0)):
        preds.write_text(json.dumps({"frame": frame, "index": index,
                                     "branches": [{"name": "key", "z": 20.0}]}) + "\n")
        code = run(["eval", "--calib-dir", dataset / "calib",
                    "--label-dir", dataset / "label_2", "--predictions", preds])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err == f"error: unmatched prediction keys: ({frame}, {index})\n"


@pytest.mark.parametrize("where", ["../outside/x", "absolute", "sub/y"])
def test_eval_joins_only_listed_label_files(dataset, tmp_path, capsys, where):
    # a frame with a path part names no file that --label-dir lists, even
    # where a valid label file sits at that path: it is unmatched
    frame = str(tmp_path / "abs" / "x") if where == "absolute" else where
    label = dataset / "label_2" / f"{frame}.txt"
    label.parent.mkdir(parents=True, exist_ok=True)
    label.write_text((dataset / "label_2" / "000000.txt").read_text())
    preds = tmp_path / "p.jsonl"
    preds.write_text(json.dumps({"frame": frame, "index": 0,
                                 "branches": [{"name": "key", "z": 20.0}]}) + "\n")
    code = run(["eval", "--calib-dir", dataset / "calib",
                "--label-dir", dataset / "label_2", "--predictions", preds])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err == f"error: unmatched prediction keys: ({frame}, 0)\n"


@pytest.mark.parametrize("label_dir,message", [
    ("missing", "label directory not found: {dir}"),
    ("empty", "no label files (*.txt) in {dir}"),
], ids=["missing", "empty"])
def test_eval_label_dir_without_label_files(dataset, tmp_path, capsys, label_dir, message):
    # eval ends on the same line as oracle and plane, not on unmatched keys
    label_dir = tmp_path / label_dir
    if label_dir.name == "empty":
        label_dir.mkdir()
    preds = tmp_path / "p.jsonl"
    preds.write_text(json.dumps({"frame": "000000", "index": 0,
                                 "branches": [{"name": "key", "z": 20.0}]}) + "\n")
    for command in (["eval", "--predictions", preds], ["oracle"]):
        code = run([*command, "--calib-dir", dataset / "calib", "--label-dir", label_dir])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err == "error: " + message.replace("{dir}", str(label_dir)) + "\n"


@pytest.mark.parametrize("command", ["oracle", "plane", "eval"])
def test_label_file_without_frame_name(dataset, tmp_path, capsys, command):
    # a frame is a file name minus its final '.txt', so the file '.txt'
    # names the empty frame, which no prediction record can carry
    for kind in ("calib", "label_2"):
        shutil.copy(dataset / kind / "000000.txt", dataset / kind / ".txt")
    preds = tmp_path / "p.jsonl"
    preds.write_text(json.dumps({"frame": "000000", "index": 0,
                                 "branches": [{"name": "key", "z": 20.0}]}) + "\n")
    extra = ["--predictions", preds] if command == "eval" else []
    code = run([command, *extra, "--calib-dir", dataset / "calib",
                "--label-dir", dataset / "label_2"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err == f"error: {dataset / 'label_2' / '.txt'}: empty frame name\n"


def test_eval_many_unmatched_predictions(dataset, tmp_path, capsys):
    # seven unmatched records among matched ones: the first five in file
    # order, then the count of the rest
    keys = [("000000", 0), ("000000", 999), ("000000", 1000), ("000009", 0), ("000000", 1),
            ("000009", 1), ("000009", 2), ("000009", 3), ("000009", 4)]
    preds = tmp_path / "bad.jsonl"
    preds.write_text("".join(json.dumps({"frame": frame, "index": index,
                                         "branches": [{"name": "key", "z": 20.0}]}) + "\n"
                             for frame, index in keys))
    code = run(["eval", "--calib-dir", dataset / "calib",
                "--label-dir", dataset / "label_2", "--predictions", preds])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err == ("error: unmatched prediction keys: (000000, 999), (000000, 1000), "
                            "(000009, 0), (000009, 1), (000009, 2) and 2 more\n")


def test_eval_record_on_dontcare_row(dataset, tmp_path, capsys):
    # the record of a DontCare row is skipped and counted: exit 3
    labels = dataset / "label_2" / "000000.txt"
    labels.write_text(labels.read_text().replace("Car", "DontCare", 1))
    preds = tmp_path / "p.jsonl"
    preds.write_text("".join(json.dumps({"frame": "000000", "index": i,
                                         "branches": [{"name": "key", "z": 20.0}]}) + "\n"
                             for i in range(2)))
    code = run(["eval", "--calib-dir", dataset / "calib",
                "--label-dir", dataset / "label_2", "--predictions", preds])
    report = read_json_report(capsys.readouterr().out)
    assert code == 3
    assert report["n_objects"] == 1 and report["flags"] == ["dontcare_skipped:1"]


def test_eval_scores_against_label_depths(dataset, tmp_path, capsys):
    # the truth comes from the labels: a record's own z_star, wrong or
    # absent, plays no part
    from compdepth import parse_labels
    z = parse_labels((dataset / "label_2" / "000000.txt").read_text()).z.tolist()
    preds = tmp_path / "p.jsonl"
    preds.write_text(
        json.dumps({"frame": "000000", "index": 0, "z_star": 999.0,
                    "branches": [{"name": "key", "z": z[0] + 1.0}]}) + "\n"
        + json.dumps({"frame": "000000", "index": 1,
                      "branches": [{"name": "key", "z": z[1] - 3.0}]}) + "\n")
    code = run(["eval", "--calib-dir", dataset / "calib",
                "--label-dir", dataset / "label_2", "--predictions", preds])
    report = read_json_report(capsys.readouterr().out)
    assert code == 0
    assert report["n_objects"] == 2 and report["flags"] == []
    assert report["branches"]["key"]["mae"] == pytest.approx(2.0)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_eval_overflowing_metric_one_line_error(fmt, dataset, tmp_path, capsys):
    # schema-valid depths whose errors overflow: no Infinity in a report
    preds = tmp_path / "huge.jsonl"
    preds.write_text("".join(json.dumps(
        {"frame": "000000", "index": i, "branches": [{"name": "a", "z": 1e308, "sigma": 1.0},
                                                     {"name": "b", "z": -1e308, "sigma": 1.0}]})
        + "\n" for i in range(2)))
    code = run(["eval", "--calib-dir", dataset / "calib", "--label-dir", dataset / "label_2",
                "--predictions", preds, "--format", fmt])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: MAE of branch 'a' overflowed to a non-finite value\n"


def test_eval_duplicate_record(dataset, tmp_path, capsys):
    # a repeated (frame, index) line is rejected, naming its line, not scored twice
    preds = tmp_path / "dup.jsonl"
    line = '{"frame":"000000","index":0,"branches":[{"name":"key","z":20.0}]}\n'
    preds.write_text("# header\n" + line + line)
    code = run(["eval", "--calib-dir", dataset / "calib",
                "--label-dir", dataset / "label_2", "--predictions", preds])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == (f"error: {preds}: line 3: field 'index': "
                            "duplicate record (000000, 0)\n")


def test_subnormal_sigma_is_a_schema_error(dataset, tmp_path, capsys):
    preds = tmp_path / "tiny.jsonl"
    cases = [
        # 1e-320 is finite and positive, but its inverse weight 1/sigma is inf
        ('[{"name":"key","z":20.0},{"name":"glo","z":21.0,"sigma":1e-320}]',
         "field 'branches[1].sigma': too small: 1/sigma overflows"),
        # each 1/sigma is finite, but their sum is not: fusion divided by
        # inf and reported a fused depth of 0 with exit 0
        ('[{"name":"key","z":20.0,"sigma":1e-308},{"name":"glo","z":21.0,"sigma":1e-308}]',
         "field 'branches': sigmas too small: the sum of 1/sigma overflows"),
    ]
    for branches, message in cases:
        preds.write_text('{"frame":"000000","index":0,"z_star":20.0,"branches":'
                         + branches + '}\n')
        for args in (["eval", "--calib-dir", dataset / "calib", "--label-dir",
                      dataset / "label_2", "--predictions", preds],
                     ["lab", "--mode", "flip", "--predictions", preds]):
            code = run(args)
            captured = capsys.readouterr()
            assert (code, captured.out, captured.err) == (1, "",
                                                          f"error: {preds}: line 1: {message}\n")


@pytest.mark.parametrize("command", ["eval", "lab"])
@pytest.mark.parametrize("line, message", [
    ("[" * 200_000,
     "maximum recursion depth exceeded while decoding a JSON array from a unicode string"),
    ('{"frame":"000000","index":1,"branches":[{"name":"key","z":' + "1" * 5001 + "}]}",
     "Exceeds the limit (4300 digits) for integer string conversion"),
], ids=["nested_arrays", "5001_digit_z"])
def test_pathological_json_is_a_schema_error(command, line, message, dataset, tmp_path,
                                             capsys):
    # the JSON parser's own limits end in one error line, not a traceback
    preds = tmp_path / "p.jsonl"
    preds.write_text('{"frame":"000000","index":0,"branches":[{"name":"key","z":20.0}]}\n'
                     + line + "\n")
    args = {"eval": ["eval", "--calib-dir", dataset / "calib", "--label-dir",
                     dataset / "label_2", "--predictions", preds],
            "lab": ["lab", "--mode", "flip", "--predictions", preds]}[command]
    code = run(args)
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err.startswith(f"error: {preds}: line 2: field '': invalid JSON: {message}")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")


@pytest.mark.parametrize("command", ["eval", "lab"])
@pytest.mark.parametrize("content, message", [
    (b"\xff", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    (b'{"frame":"000000","index":0,"z_star":20.0,"branches":[]}\n',
     "line 1: field 'branches': required non-empty list"),
], ids=["byte_0xff", "empty_branches"])
def test_bad_predictions_file_is_named(command, content, message, dataset, tmp_path, capsys):
    # a file that fails to decode or to parse is named; a missing one keeps
    # OSError's own line, which names it too
    preds = tmp_path / "p.jsonl"
    args = {"eval": ["eval", "--calib-dir", dataset / "calib", "--label-dir",
                     dataset / "label_2", "--predictions", preds],
            "lab": ["lab", "--mode", "flip", "--predictions", preds]}[command]
    preds.write_bytes(content)
    code = run(args)
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (1, "", f"error: {preds}: {message}\n")
    preds.unlink()
    code = run(args)
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (
        1, "", f"error: [Errno 2] No such file or directory: '{preds}'\n")


def test_eval_malformed_labels(dataset, tmp_path, capsys):
    # the referenced frame's label file fails to parse
    (dataset / "label_2" / "000000.txt").write_text("garbage\n")
    preds = tmp_path / "p.jsonl"
    preds.write_text('{"frame":"000000","index":0,"branches":[{"name":"key","z":20.0}]}\n')
    code = run(["eval", "--calib-dir", dataset / "calib",
                "--label-dir", dataset / "label_2", "--predictions", preds])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (
        1, "", f"error: {dataset / 'label_2' / '000000.txt'}: line 1: expected 15 or 16 "
               "fields, got 1\n")


BAD_LABEL = ("Car 1 2\n", "line 1: expected 15 or 16 fields, got 3")
BAD_CALIB = ("P2: 700.0 0.0 600.0\n", "'P2' needs 12 entries, got 3")


@pytest.mark.parametrize("command,kind", [
    ("oracle", "label_2"), ("plane", "label_2"), ("eval", "label_2"),
    ("oracle", "calib"), ("plane", "calib"),
])
def test_bad_frame_file_names_the_first_in_frame_order(command, kind, dataset, capsys):
    # frame 000000 parses; 000001 and 000002 do not, and the line names
    # 000001's file, also where the predictions list 000002 first
    dirs = ["--calib-dir", dataset / "calib", "--label-dir", dataset / "label_2"]
    preds = dataset / "preds.jsonl"
    assert run(["oracle", *dirs, "--out", preds]) == 0
    preds.write_text('{"frame":"000002","index":0,"branches":[{"name":"key","z":20.0}]}\n'
                     + preds.read_text())
    for folder in ("calib", "label_2"):
        shutil.copy(dataset / folder / "000000.txt", dataset / folder / "000002.txt")
    text, message = BAD_LABEL if kind == "label_2" else BAD_CALIB
    for frame in ("000001", "000002"):
        (dataset / kind / f"{frame}.txt").write_text(text)
    capsys.readouterr()
    code = run([command, *dirs, *(["--predictions", preds] if command == "eval" else [])])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (
        1, "", f"error: {dataset / kind / '000001.txt'}: {message}\n")


# ---------------------------------------------------------------------------
# lab
# ---------------------------------------------------------------------------

def test_lab_flip_sweep_csv(capsys):
    code = run(["lab", "--mode", "flip", "--n-objects", 500, "--seed", 4])
    out = capsys.readouterr().out
    assert code == 0
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert lines[0] == "label,x,mae,count,baseline_mae"
    labels = {l.split(",")[0] for l in lines[1:]}
    assert labels == {"flip:b0", "flip:b1", "flip:b2", "flip:b3"}


def command_options() -> dict[str, set[str]]:
    """Each command's long options, as its subparser declares them."""
    _, commands = _build_parser()
    return {command: {flag[2:] for action in p._actions for flag in action.option_strings
                      if flag != "--help" and flag.startswith("--")}
            for command, p in commands.items()}


def test_lab_flip_config_header_echoes_settings(dataset, capsys):
    # every command echoes each option it has, output destinations aside
    dirs = ["--calib-dir", dataset / "calib", "--label-dir", dataset / "label_2"]
    preds = dataset / "preds.jsonl"
    assert run(["oracle", *dirs, "--out", preds]) == 0
    echoes = {"oracle": json.loads(preds.read_text().splitlines()[0][2:])}
    run(["eval", *dirs, "--predictions", preds])
    echoes["eval"] = json.loads(capsys.readouterr().out)["header"]
    run(["plane", *dirs, "--heatmap-dir", dataset / "heat"])
    echoes["plane"] = json.loads(capsys.readouterr().out)["header"]
    run(["lab", "--mode", "flip", "--n-objects", 200, "--seed", 4, "--coupling-rate", 0.9])
    comments = [l for l in capsys.readouterr().out.splitlines() if l.startswith("# ")]
    echoes["lab"] = dict(l[2:].split(": ", 1) for l in comments)
    assert "# coupling-rate: 0.9" in comments
    assert "# seed: 4" in comments
    assert "# mode: flip" in comments

    for command, options in command_options().items():
        echo = echoes[command]
        assert echo["command"] == command
        assert set(echo) == options - {"out", "heatmap-dir"} | {"command"}, command
        assert list(echo) == sorted(echo), command


@pytest.mark.parametrize("args,option,given,echoed", [
    (["eval", "--depth-edges", "0,12.3456789,inf"], "depth-edges", "0,12.3456789,inf",
     "0,12.3456789,inf"),
    (["lab", "--mode", "flip", "--proportions", "0,0.1234564,0.1234566"], "proportions",
     "0,0.1234564,0.1234566", "0,0.1234564,0.1234566"),
    (["lab", "--mode", "disturb", "--amplitudes", "0,1e-7,2.50"], "amplitudes",
     "0,1e-7,2.50", "0,1e-07,2.5"),
    (["lab", "--mode", "flip", "--depth-range", "5.000000001,60"], "depth-range",
     "5.000000001,60", "5.000000001,60"),
    (["plane", "--image-size", "1242,375.5"], "image-size", "1242,375.5", "1242,375.5"),
], ids=["depth-edges", "proportions", "amplitudes", "depth-range", "image-size"])
def test_config_echo_round_trips_list_options(args, option, given, echoed, dataset, capsys):
    # a list option's echo reads back as the same floats: 6 significant
    # digits where they do, else the float in full
    command, *rest = args
    dirs = ["--calib-dir", dataset / "calib", "--label-dir", dataset / "label_2"]
    if command == "eval":
        preds = dataset / "preds.jsonl"
        assert run(["oracle", *dirs, "--out", preds]) == 0
        rest += [*dirs, "--predictions", preds, "--format", "csv"]
    elif command == "plane":
        rest += [*dirs, "--format", "csv"]
    else:
        rest += ["--n-objects", "50"]
    capsys.readouterr()
    assert run([command, *rest]) in (0, 3)
    prefix = f"# {option}: "
    echo = [l for l in capsys.readouterr().out.splitlines() if l.startswith(prefix)]
    assert echo == [prefix + echoed]
    assert _float_list(echo[0][len(prefix):]) == _float_list(given)


def test_lab_disturb_first_branch_only(capsys):
    code = run(["lab", "--mode", "disturb", "--n-objects", 400, "--seed", 4,
                "--amplitudes", "0,2,8"])
    out = capsys.readouterr().out
    assert code == 0
    rows = [l for l in out.splitlines() if l.startswith("disturb:")]
    assert len(rows) == 3
    assert all(r.startswith("disturb:b0") for r in rows)


def test_lab_multiflip_all(capsys):
    code = run(["lab", "--mode", "multiflip", "--n-objects", 400, "--seed", 4,
                "--k", "all"])
    out = capsys.readouterr().out
    assert code == 0
    rows = [l.split(",") for l in out.splitlines() if l.startswith("multiflip")]
    assert [r[1] for r in rows] == ["0", "1", "2", "3", "4"]
    maes = [float(r[2]) for r in rows]
    assert maes[0] == pytest.approx(maes[4], abs=1e-9)
    assert min(maes) == maes[2]


def test_lab_multiflip_baseline_without_k0(capsys):
    # the baseline is the untouched MAE whether or not k = 0 is swept
    def rows(k):
        assert run(["lab", "--mode", "multiflip", "--n-objects", 400, "--seed", 4,
                    "--k", k]) == 0
        return {r[1]: r for r in (l.split(",") for l in capsys.readouterr().out.splitlines()
                                  if l.startswith("multiflip"))}
    every, some = rows("all"), rows("3,1")
    assert list(some) == ["1", "3"]
    assert some["1"] == every["1"] and some["3"] == every["3"]
    assert some["1"][4] == every["0"][2] == every["0"][4]


def test_lab_from_predictions_file(tmp_path, capsys):
    import numpy as np
    from compdepth import generate_ensembles
    ens = generate_ensembles(np.linspace(5, 60, 100), seed=1)
    preds = tmp_path / "ens.jsonl"
    preds.write_text(write_predictions(ens))
    code = run(["lab", "--mode", "flip", "--predictions", preds,
                "--branches", "b0", "--proportions", "0,1"])
    out = capsys.readouterr().out
    assert code == 0
    assert sum(1 for l in out.splitlines() if l.startswith("flip:b0")) == 2


def test_lab_multiflip_sweep_ceiling_on_predictions(tmp_path, capsys):
    # one object with 16384 branches: 16385 flip counts x 16384 cells is
    # just above 2**28, refused before the sweep starts
    record = {"frame": "000000", "index": 0, "z_star": 10.0,
              "branches": [{"name": f"b{j}", "z": 10.0, "sigma": 1.0} for j in range(16384)]}
    preds = tmp_path / "wide.jsonl"
    preds.write_text(json.dumps(record) + "\n")
    code = run(["lab", "--mode", "multiflip", "--predictions", preds])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err == ("error: a multiflip sweep must cover at most 268435456 cells "
                            "(flip counts x objects x branches), got 16385 x 1 x 16384 "
                            "= 268451840\n")


def test_lab_empty_predictions(tmp_path, capsys):
    preds = tmp_path / "empty.jsonl"
    preds.write_text("# nothing\n")
    code = run(["lab", "--mode", "flip", "--predictions", preds])
    assert code == 1


def test_lab_rerun_byte_identical(tmp_path):
    out = tmp_path / "curves.csv"
    args = ["lab", "--mode", "flip", "--n-objects", 300, "--seed", 9,
            "--out", out]
    assert run(args) == 0
    first = out.read_bytes()
    assert run(args) == 0
    assert out.read_bytes() == first


def test_lab_ragged_predictions(dataset, capsys):
    # heavy noise makes some objects lose branches; the lab flips and fuses
    # whatever each object has and still reports every object
    preds = dataset / "preds.jsonl"
    code = run(["oracle", "--calib-dir", dataset / "calib",
                "--label-dir", dataset / "label_2", "--noise-px", 40,
                "--noise-h-rel", 0.9, "--include-alt", "--out", preds])
    assert code == 3
    table = read_predictions(preds.read_text())
    assert len({tuple(row) for row in table.valid.tolist()}) > 1  # the file is ragged
    capsys.readouterr()
    code = run(["lab", "--mode", "flip", "--predictions", preds])
    out = capsys.readouterr().out
    assert code == 0
    rows = [l.split(",") for l in out.splitlines()
            if l.startswith("flip:")]
    assert {r[0] for r in rows} == {"flip:key", "flip:glo", "flip:comp", "flip:alt"}
    assert all(int(r[3]) == len(table) for r in rows)
    assert all(r[2] == r[4] for r in rows if r[1] == "0")


# Each case: the arguments, the key of its test id, and the whole stderr line;
# {dataset} and {preds} stand for the dataset root and an oracle file in it.
BAD_INPUT = [
    (["lab", "--mode", "flip", "--depth-range", "0,inf"], "--depth-range",
     "error: --depth-range needs two finite increasing values"),
    (["lab", "--mode", "flip", "--depth-range", "nan,10"], "--depth-range",
     "error: --depth-range needs two finite increasing values"),
    (["lab", "--mode", "disturb", "--amplitudes", "0,inf"], "amplitudes",
     "error: amplitudes must be finite and non-negative"),
    (["lab", "--mode", "flip", "--proportions", "0,nan"], "proportions",
     "error: proportions must lie in [0, 1]"),
    (["lab", "--mode", "multiflip", "--k", "0,0"], "--k values must be distinct",
     "error: --k values must be distinct"),
    (["lab", "--mode", "multiflip", "--k", "1,x"], "--k must be",
     "error: --k must be 'all' or comma-separated integers"),
    (["lab", "--mode", "flip", "--n-objects", "-5"], "--n-objects",
     "error: --n-objects must be at least 1"),
    (["lab", "--mode", "flip", "--n-objects", "0"], "--n-objects",
     "error: --n-objects must be at least 1"),
    (["lab", "--mode", "flip", "--error-scale", "1e308"], "non-finite z",
     "error: a draw at error_scale 1e+308 overflowed to a non-finite depth"),
    (["lab", "--mode", "flip", "--depth-range", "1e300,1e308"], "non-finite",
     "error: --depth-range values must be at most 8.98847e+307 in magnitude, got 1e+300,1e+308"),
    (["eval", "--predictions", "{preds}", "--depth-edges", "0,nan,40"], "edges",
     "error: edges must be at least 2 strictly increasing values, got [0.0, nan, 40.0]"),
    (["oracle", "--noise-px", "nan"], "--noise-px",
     "error: --noise-px must be finite and >= 0, got nan"),
    (["oracle", "--noise-h-rel", "inf"], "--noise-h-rel",
     "error: --noise-h-rel must be finite and >= 0, got inf"),
    (["oracle", "--noise-horizon-slope", "-0.1"], "--noise-horizon-slope",
     "error: --noise-horizon-slope must be finite and >= 0, got -0.1"),
    (["oracle", "--noise-horizon-intercept", "nan"], "--noise-horizon-intercept",
     "error: --noise-horizon-intercept must be finite and >= 0, got nan"),
    (["oracle", "--cam-height", "-1"], "--cam-height",
     "error: --cam-height must be finite and > 0, got -1.0"),
    # the key names the removed --eps-den, which this row used to pass
    (["plane", "--cam-height", "-5"], "--eps-den",
     "error: --cam-height must be finite and > 0, got -5.0"),
    (["plane", "--cam-height", "nan"], "--cam-height",
     "error: --cam-height must be finite and > 0, got nan"),
    (["plane", "--image-size", "10"], "--image-size",
     "error: --image-size needs two finite values >= 1 (width,height)"),
    (["plane", "--image-size", "inf,375"], "--image-size",
     "error: --image-size needs two finite values >= 1 (width,height)"),
    (["lab", "--mode", "flip", "--error-scale", "nan"], "error_scale",
     "error: error_scale must be finite and positive, got nan"),
    (["lab", "--mode", "flip", "--error-scale", "inf"], "error_scale",
     "error: error_scale must be finite and positive, got inf"),
    (["oracle", "--seed", "-1", "--noise-px", "nan"], "--seed",
     "error: --seed must be >= 0, got -1"),
    (["oracle", "--seed", "-1"], "--seed",
     "error: --seed must be >= 0, got -1"),
    (["lab", "--mode", "flip", "--seed", "-1"], "--seed",
     "error: --seed must be >= 0, got -1"),
    (["lab", "--mode", "disturb", "--seed", "-1"], "--seed",
     "error: --seed must be >= 0, got -1"),
    (["lab", "--mode", "flip", "--proportions", ""], "proportions must not be empty",
     "error: proportions must not be empty"),
    (["lab", "--mode", "disturb", "--amplitudes", ""], "amplitudes must not be empty",
     "error: amplitudes must not be empty"),
    (["lab", "--mode", "flip", "--branches", "b0,nope"], "branch 'nope' not in",
     "error: branch 'nope' not in ['b0', 'b1', 'b2', 'b3']"),
    (["lab", "--mode", "disturb", "--branches", "b1,nope"], "disturb sweeps one branch",
     "error: --mode disturb sweeps one branch; give one name in --branches"),
    (["lab", "--mode", "multiflip", "--branches", "nope"], "--branches does not apply",
     "error: --branches does not apply to --mode multiflip, which flips the first or last "
     "k branches"),
    (["lab", "--mode", "flip", "--branches", "b0,b0"], "distinct, non-empty",
     "error: --branches needs distinct, non-empty names"),
    (["lab", "--mode", "flip", "--branches", ""], "distinct, non-empty",
     "error: --branches needs distinct, non-empty names"),
    (["lab", "--mode", "disturb", "--branches", ""], "distinct, non-empty",
     "error: --branches needs distinct, non-empty names"),
    (["oracle", "--label-dir", "{dataset}"], "no label files (*.txt) in",
     "error: no label files (*.txt) in {dataset}"),
    (["lab", "--mode", "multiflip", "--k", "9"], "k=9", "error: k=9 outside 0..4"),
    # Size ceilings: without them these rows ask for terabytes, which the
    # allocator refuses at once, or (plane, no heatmap) succeed; either fails.
    (["lab", "--mode", "multiflip", "--n-objects", "10", "--n-branches", str(2**40)],
     "lab_cells", "error: --n-objects x --n-branches must be at most 16777216 cells, "
     "got 10995116277760"),
    (["lab", "--mode", "flip", "--n-objects", str(2**40)], "lab_cells",
     "error: --n-objects x --n-branches must be at most 16777216 cells, got 4398046511104"),
    (["plane", "--image-size", "8193,8192"], "image_pixels",
     "error: --image-size must be at most 67108864 pixels (width x height), got 67117056"),
    # A multiflip sweep's time grows with the square of --n-branches: the
    # first row would take days, the second (just above 2**28) minutes.
    (["lab", "--mode", "multiflip", "--n-objects", "2", "--n-branches", "8388608"],
     "sweep_cells", "error: a multiflip sweep must cover at most 268435456 cells (flip "
     "counts x objects x branches), got 8388609 x 2 x 8388608 = 140737505132544"),
    (["lab", "--mode", "multiflip", "--n-objects", "2", "--n-branches", "11585"],
     "sweep_cells", "error: a multiflip sweep must cover at most 268435456 cells (flip "
     "counts x objects x branches), got 11586 x 2 x 11585 = 268447620"),
    # uniform(-a, a) overflows its width 2a above half the largest float
    (["oracle", "--noise-h-rel", "1.7e308"], "--noise-h-rel",
     "error: --noise-h-rel must be at most 8.98847e+307, got 1.7e+308"),
    (["oracle", "--noise-px", "1.7e308"], "--noise-px",
     "error: --noise-px must be at most 8.98847e+307, got 1.7e+308"),
    (["oracle", "--noise-horizon-slope", "1.7e308"], "--noise-horizon-slope",
     "error: --noise-horizon-slope must be at most 8.98847e+307, got 1.7e+308"),
    (["oracle", "--noise-horizon-intercept", "1.7e308"], "--noise-horizon-intercept",
     "error: --noise-horizon-intercept must be at most 8.98847e+307, got 1.7e+308"),
    # Finite draws whose MAE, a sum over the objects, overflows: the line
    # names the option that scaled them, not the curve's own check.
    (["lab", "--mode", "flip", "--n-objects", "100000", "--error-scale", "1e306"],
     "mae_overflow", "error: --error-scale 1e+306 is too large: the MAE of 100000 objects "
     "overflowed to a non-finite value"),
    (["lab", "--mode", "multiflip", "--n-objects", "100000", "--error-scale", "1e306"],
     "mae_overflow", "error: --error-scale 1e+306 is too large: the MAE of 100000 objects "
     "overflowed to a non-finite value"),
    (["lab", "--mode", "disturb", "--amplitudes", "1e308"], "mae_overflow",
     "error: --amplitudes 1e+308 is too large: the MAE of 200 objects overflowed to a "
     "non-finite value"),
    (["lab", "--mode", "flip", "--error-scale", "1e307"], "mae_overflow",
     "error: --error-scale 1e+307 is too large: the MAE of 200 objects overflowed to a "
     "non-finite value"),
    # disturb overflows without its noise too: the table's scale is at fault
    (["lab", "--mode", "disturb", "--n-objects", "100000", "--error-scale", "1e306"],
     "mae_overflow", "error: --error-scale 1e+306 is too large: the MAE of 100000 objects "
     "overflowed to a non-finite value"),
    # --n-branches is checked next to --n-objects, before the cell ceiling: a
    # negative cell count passes that ceiling, and the truths' draw would
    # then ask for 8 TiB
    (["lab", "--mode", "flip", "--n-branches", "1"], "--n-branches",
     "error: need at least 2 branches, got 1"),
    (["lab", "--mode", "flip", "--n-objects", "1099511627776", "--n-branches", "-1"],
     "--n-branches", "error: need at least 2 branches, got -1"),
]


@pytest.mark.parametrize("args,line", [(args, line) for args, _, line in BAD_INPUT],
                         ids=[f"args{i}-{key}" for i, (_, key, _) in enumerate(BAD_INPUT)])
def test_lab_bad_input_one_line_error(args, line, dataset, capsys):
    # every command, despite the name: bad input ends in one error line
    command, *rest = args
    if command == "lab":
        rest = ["--n-objects", "200", *rest]
    else:
        rest = ["--calib-dir", dataset / "calib", "--label-dir", dataset / "label_2",
                *(str(dataset) if a == "{dataset}" else a for a in rest)]
        if command == "eval":
            preds = dataset / "preds.jsonl"
            assert run(["oracle", *rest[:4], "--out", preds]) == 0
            rest = [str(preds) if a == "{preds}" else a for a in rest]
    capsys.readouterr()
    code = run([command, *rest])
    captured = capsys.readouterr()
    line = line.replace("{dataset}", str(dataset))
    assert (code, captured.out, captured.err) == (1, "", line + "\n")


@pytest.mark.parametrize("option, value, line", [
    ("--coupling-rate", "0.4", "error: coupling_rate must be in [0.5, 1]: the symmetric sign "
     "model cannot produce same-sign proportions below 0.5"),
    ("--error-scale", "0", "error: error_scale must be finite and positive, got 0.0"),
    ("--error-scale", "nan", "error: error_scale must be finite and positive, got nan"),
], ids=["coupling_rate", "error_scale_0", "error_scale_nan"])
def test_lab_checks_generator_settings_before_the_draw(option, value, line, monkeypatch,
                                                       capsys):
    # A bad setting costs no draw of the --n-objects truths.
    def no_draw(*args, **kwargs):
        raise AssertionError("a generator was made before the settings were checked")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    code = run(["lab", "--mode", "flip", "--n-objects", "200", option, value])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (1, "", line + "\n")


@pytest.mark.parametrize("mode", ["flip", "disturb", "multiflip"])
def test_lab_predictions_mae_overflow_names_the_file(mode, tmp_path, capsys):
    preds = tmp_path / "preds.jsonl"
    preds.write_text(
        '{"frame":"0","index":0,"z_star":-1.7e308,"branches":[{"name":"a","z":1.7e308},'
        '{"name":"b","z":1.0}]}\n'
        '{"frame":"0","index":1,"z_star":1.0,"branches":[{"name":"a","z":2.0},'
        '{"name":"b","z":1.0}]}\n')
    code = run(["lab", "--mode", mode, "--predictions", preds])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err == (f"error: the MAE of 2 objects in {preds} overflowed to a "
                            "non-finite value\n")


@pytest.mark.parametrize("mode", ["flip", "disturb", "multiflip"])
def test_lab_depth_range_at_its_ceiling_ends_cleanly(mode, capsys):
    # truths drawn across +/- MAX_DEPTH: every flip and fused MAE stays finite
    code = run(["lab", "--mode", mode, "--n-objects", "2000",
                f"--depth-range={-MAX_DEPTH!r},{MAX_DEPTH!r}"])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    rows = list(csv.DictReader(l for l in captured.out.splitlines() if not l.startswith("#")))
    assert rows and all(math.isfinite(float(r["mae"])) for r in rows)


# ---------------------------------------------------------------------------
# plane
# ---------------------------------------------------------------------------

def test_plane_report_and_heatmaps(dataset, capsys):
    heat_dir = dataset / "heat"
    code = run(["plane", "--calib-dir", dataset / "calib",
                "--label-dir", dataset / "label_2",
                "--heatmap-dir", heat_dir, "--image-size", "620,188"])
    out = capsys.readouterr().out
    assert code == 0
    data = json.loads("\n".join(l for l in out.splitlines()
                                if not l.startswith("#")))
    assert {row["frame"] for row in data["frames"]} == {"000000", "000001"}
    for row in data["frames"]:
        assert not row["fallback"]
        assert row["y_mae"] < 1e-9  # exact plane recovery from clean labels
    assert data["summary"]["y_mae"] < 1e-9
    hm = heatmap_from_pgm((heat_dir / "000000.pgm").read_bytes())
    assert hm.shape == (188, 620)
    assert hm.dtype == np.uint8


def heatmap_files(dataset, heat_dir, size) -> dict[str, bytes]:
    """plane --heatmap-dir at the given --image-size: each file's bytes."""
    assert run(["plane", "--calib-dir", dataset / "calib", "--label-dir", dataset / "label_2",
                "--heatmap-dir", heat_dir, "--image-size", size]) == 0
    return {p.name: p.read_bytes() for p in sorted(heat_dir.iterdir())}


@pytest.mark.parametrize("stale", ["larger", "smaller", "other", "same-size"])
def test_plane_rewrites_stale_heatmaps(stale, dataset, capsys):
    # Over files of the same names, each file ends as a run into an empty
    # directory writes it: a longer stale file is cut to length, and every
    # byte of a stale file of the same length is written again. An
    # existing file keeps its permissions; a new one gets write_bytes' own.
    fresh = heatmap_files(dataset, dataset / "fresh", "64,20")
    heat_dir = dataset / "stale"
    if stale in ("other", "same-size"):
        heat_dir.mkdir()
        for name, data in fresh.items():
            if stale == "other":
                (heat_dir / name).write_text("not a heatmap\n" * 4000)
            else:
                (heat_dir / name).write_bytes(b"\xff" * len(data))
            (heat_dir / name).chmod(0o600)
    else:
        heatmap_files(dataset, heat_dir, "96,40" if stale == "larger" else "32,10")
    modes = {p.name: p.stat().st_mode for p in heat_dir.iterdir()}
    assert heatmap_files(dataset, heat_dir, "64,20") == fresh
    assert {p.name: p.stat().st_mode for p in heat_dir.iterdir()} == modes
    (dataset / "probe").write_bytes(b"")
    assert {(dataset / "fresh" / name).stat().st_mode for name in fresh} == {
        (dataset / "probe").stat().st_mode}


def test_plane_heatmap_path_is_a_directory(dataset, capsys):
    heat_dir = dataset / "heat"
    (heat_dir / "000001.pgm").mkdir(parents=True)
    code = run(["plane", "--calib-dir", dataset / "calib", "--label-dir", dataset / "label_2",
                "--heatmap-dir", heat_dir, "--image-size", "64,20"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err == f"error: [Errno 21] Is a directory: '{heat_dir / '000001.pgm'}'\n"


def test_plane_fails_in_frame_order(dataset, capsys):
    # Every input is read before any heatmap is written: frame 2's bad
    # label file is named although frame 1's heatmap path is unwritable,
    # and nothing is written. With the label file mended, the heatmaps are
    # written in frame order and frame 1's write fails after frame 0's.
    heat_dir = dataset / "heat"
    (heat_dir / "000001.pgm").mkdir(parents=True)
    label = dataset / "label_2" / "000002.txt"
    (dataset / "calib" / "000002.txt").write_text((dataset / "calib" / "000000.txt").read_text())
    label.write_text("Car 1 2\n")
    args = ["plane", "--calib-dir", dataset / "calib", "--label-dir", dataset / "label_2",
            "--heatmap-dir", heat_dir, "--image-size", "64,20"]
    assert run(args) == 1
    assert capsys.readouterr() == ("", f"error: {label}: line 1: expected 15 or 16 fields, "
                                       "got 3\n")
    assert [p.name for p in heat_dir.iterdir()] == ["000001.pgm"]
    label.write_text((dataset / "label_2" / "000000.txt").read_text())
    assert run(args) == 1
    assert capsys.readouterr() == (
        "", f"error: [Errno 21] Is a directory: '{heat_dir / '000001.pgm'}'\n")
    assert sorted(p.name for p in heat_dir.iterdir()) == ["000000.pgm", "000001.pgm"]
    assert (heat_dir / "000001.pgm").is_dir()


def test_plane_fallback_exit_code(tmp_path, capsys):
    calib_dir = tmp_path / "calib"
    label_dir = tmp_path / "label_2"
    calib_dir.mkdir()
    label_dir.mkdir()
    scene = make_scene(2, seed=3)  # two objects cannot pin a plane
    (calib_dir / "000000.txt").write_text(format_calib(scene.intrinsics))
    (label_dir / "000000.txt").write_text(format_labels(scene.objects))
    code = run(["plane", "--calib-dir", calib_dir, "--label-dir", label_dir])
    out = capsys.readouterr().out
    assert code == 3
    data = json.loads("\n".join(l for l in out.splitlines()
                                if not l.startswith("#")))
    assert data["frames"][0]["fallback"]


@pytest.fixture
def steep_dataset(tmp_path):
    """Label dirs 'both' (a make_scene frame 000000 and a frame 000001 whose
    three bottoms (0, 1, 10), (1e-7, 2, 10), (0, 1, 20) fit a plane with
    |b| ~ 1e-7, too steep to have a horizon) and 'normal' (000000 alone)."""
    scene = make_scene(25, seed=7)
    steep = [dataclasses.replace(scene.objects[0], x=x, y=y, z=z)
             for x, y, z in ((0.0, 1.0, 10.0), (1e-7, 2.0, 10.0), (0.0, 1.0, 20.0))]
    calib_dir = tmp_path / "calib"
    calib_dir.mkdir()
    for frame in ("000000", "000001"):
        (calib_dir / f"{frame}.txt").write_text(format_calib(scene.intrinsics))
    dirs = {}
    for name, frames in (("both", {"000000": scene.objects, "000001": steep}),
                         ("normal", {"000000": scene.objects})):
        label_dir = tmp_path / name
        label_dir.mkdir()
        for frame, objects in frames.items():
            (label_dir / f"{frame}.txt").write_text(format_labels(objects))
        dirs[name] = ["--calib-dir", calib_dir, "--label-dir", label_dir]
    return dirs


def test_oracle_near_vertical_plane_falls_back(steep_dataset, tmp_path, capsys):
    # the whole run exited 1 with "|b| = 1e-07 is below 1e-06"
    flags = ["--noise-px", "1", "--seed", "5"]
    assert run(["oracle", *steep_dataset["normal"], *flags, "--out", tmp_path / "n"]) == 0
    capsys.readouterr()
    assert run(["oracle", *steep_dataset["both"], *flags, "--out", tmp_path / "b"]) == 3
    assert "warning: plane_fallback: 1" in capsys.readouterr().err.splitlines()
    normal = read_predictions((tmp_path / "n").read_text())
    both = read_predictions((tmp_path / "b").read_text())
    first = [i for i, frame in enumerate(both.frame) if frame == "000000"]
    assert write_predictions(both.take(first)) == write_predictions(normal)
    assert [i for f, i in zip(both.frame, both.index.tolist()) if f == "000001"] == [0, 1, 2]


def test_plane_near_vertical_plane_falls_back(steep_dataset, capsys):
    assert run(["plane", *steep_dataset["normal"]]) == 0
    normal = json.loads(capsys.readouterr().out)
    assert run(["plane", *steep_dataset["both"]]) == 3
    both = json.loads(capsys.readouterr().out)
    assert both["frames"][0] == normal["frames"][0]
    steep = both["frames"][1]
    assert (steep["frame"], steep["n_points"], steep["fallback"]) == ("000001", 3, True)
    assert (steep["k_h"], steep["b_h"]) == (0.0, 172.854)  # the flat plane's horizon
    assert both["summary"]["fallback_frames"] == 1


def test_oracle_and_plane_skip_the_same_unusable_rows(tmp_path, capsys):
    # a DontCare row and rows without positive height or depth feed neither
    # the plane fit nor the oracle; only the oracle warns about the latter
    scene = make_scene(6, seed=4)
    objects = [*scene.objects,
               dataclasses.replace(scene.objects[0], class_name="DontCare"),
               dataclasses.replace(scene.objects[1], h=0.0),
               dataclasses.replace(scene.objects[2], z=-3.0)]
    calib_dir, label_dir = tmp_path / "calib", tmp_path / "label_2"
    calib_dir.mkdir()
    label_dir.mkdir()
    (calib_dir / "000000.txt").write_text(format_calib(scene.intrinsics))
    (label_dir / "000000.txt").write_text(format_labels(objects))
    dirs = ["--calib-dir", calib_dir, "--label-dir", label_dir]
    preds = tmp_path / "preds.jsonl"
    assert run(["oracle", *dirs, "--out", preds]) == 3
    assert capsys.readouterr().err == "warning: object_invalid_geometry: 2\n"
    assert read_predictions(preds.read_text()).index.tolist() == list(range(6))
    assert run(["plane", *dirs]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    report = json.loads(captured.out)
    assert report["frames"][0]["n_points"] == 6
    assert report["summary"]["n_objects"] == 6


@pytest.fixture
def huge_focal_dirs(tmp_path):
    """A make_scene frame whose P2 has focal lengths 1e300: finite, but the
    keypoint rows overflow the elevation arithmetic."""
    scene = make_scene(6, seed=4)
    calib_dir, label_dir = tmp_path / "calib", tmp_path / "label_2"
    calib_dir.mkdir()
    label_dir.mkdir()
    k = dataclasses.replace(scene.intrinsics, f_x=1e300, f_y=1e300)
    (calib_dir / "000000.txt").write_text(format_calib(k))
    (label_dir / "000000.txt").write_text(format_labels(scene.objects))
    return ["--calib-dir", calib_dir, "--label-dir", label_dir]


def test_oracle_huge_focal_length_counts_failed_branches(huge_focal_dirs, tmp_path, capsys):
    # exited 1 with the table's internal "ensemble row 0 has a non-finite z"
    preds = tmp_path / "preds.jsonl"
    assert run(["oracle", *huge_focal_dirs, "--include-alt", "--out", preds]) == 3
    assert capsys.readouterr().err == "warning: ground_ray_failed: 6\n"
    table = read_predictions(preds.read_text())
    assert table.names == ("key",) and len(table) == 6
    assert table.z[:, 0] == pytest.approx(table.z_star, rel=1e-9)


def test_plane_huge_focal_length_counts_failed_elevations(huge_focal_dirs, capsys):
    # exited 0 with "y_mae": NaN in the frame row and the summary
    assert run(["plane", *huge_focal_dirs]) == 3
    captured = capsys.readouterr()
    assert captured.err == "warning: elevation_failed: 6\n"
    assert "NaN" not in captured.out and "Infinity" not in captured.out
    report = json.loads(captured.out)
    assert report["frames"][0]["y_mae"] is None
    assert report["summary"] == {"fallback_frames": 0, "n_objects": 0, "y_mae": None}


def label_dirs(tmp_path, label_text, calib_text=None):
    """--calib-dir and --label-dir of one frame with the given label text
    and calib text (default: a normal P2)."""
    calib_dir, label_dir = tmp_path / "calib", tmp_path / "label_2"
    calib_dir.mkdir()
    label_dir.mkdir()
    (calib_dir / "000000.txt").write_text(
        calib_text or format_calib(make_scene(2, seed=3).intrinsics))
    (label_dir / "000000.txt").write_text(label_text)
    return ["--calib-dir", calib_dir, "--label-dir", label_dir]


def car_rows(*xyz):
    return "".join(f"Car 0 0 0 0 0 10 10 1.5 1.6 3.9 {x} {y} {z} 0\n" for x, y, z in xyz)


#: One frame each whose plane used to end the run with a GroundPlane
#: invariant as its error text: (label text, calib text, extra oracle args).
PLANE_LEAKS = {
    # the fitted height field overflows: no unit normal exists
    "unnormalizable fit": (car_rows((1, 1e308, 20), (-2, -1e308, 30), (3, 1.6, 25)),
                           None, []),
    # a subnormal f_x sends the fitted plane's horizon slope to -inf
    "infinite horizon": (car_rows((1, 1.6, 20), (-2, 1.7, 30), (3, 1.65, 25)),
                         "P2: 5e-324 0.0 -1e+300 0.0 0.0 721.5 172.8 0.0 0.0 0.0 1.0 0.0\n",
                         []),
    # a finite horizon whose plane overflows on the way back
    "steep horizon": (car_rows((1, 1.6, 20), (-2, -5, 30), (3, 8, 25)),
                      "P2: 1.7e308 0.0 609.6 0.0 0.0 1.7e308 172.8 0.0 0.0 0.0 1.0 0.0\n",
                      []),
    # the flat plane's horizon, shifted by the intercept noise over f_y = 1e-300
    "perturbed horizon": (car_rows((1, 1.6, 20)),
                          "P2: 1e-300 0.0 0.0 0.0 0.0 1e-300 0.0 0.0 0.0 0.0 1.0 0.0\n",
                          ["--noise-horizon-intercept", "1"]),
}


@pytest.mark.parametrize("command", ["oracle", "plane"])
@pytest.mark.parametrize("calib_text,message", [
    ("P0: 700.0 0.0 600.0 0.0 0.0 700.0 200.0 0.0 0.0 0.0 1.0 0.0\n",
     "error: {calib}: no 'P2:' line in calibration text"),
    ("P2: 700.0 0.0 600.0\n", "error: {calib}: 'P2' needs 12 entries, got 3"),
    ("P2: 0 0 600 0 0 700 170 0 0 0 1 0\n",
     "error: {calib}: focal lengths must be strictly positive"),
], ids=["no_P2", "3_entry_P2", "zero_f_x"])
def test_bad_calib_one_line_error(command, calib_text, message, tmp_path, capsys):
    code = run([command, *label_dirs(tmp_path, car_rows((1, 1.6, 20)), calib_text)])
    captured = capsys.readouterr()
    message = message.replace("{calib}", str(tmp_path / "calib" / "000000.txt"))
    assert (code, captured.out, captured.err) == (1, "", message + "\n")


@pytest.mark.parametrize("case", PLANE_LEAKS)
def test_oracle_unusable_plane_falls_back(tmp_path, capsys, case):
    label_text, calib_text, extra = PLANE_LEAKS[case]
    dirs = label_dirs(tmp_path, label_text, calib_text)
    assert run(["oracle", *dirs, *extra, "--out", tmp_path / "preds.jsonl"]) == 3
    err = capsys.readouterr().err.splitlines()
    assert "warning: plane_fallback: 1" in err
    assert all(line.startswith("warning: ") for line in err)


def test_plane_infinite_horizon_falls_back(tmp_path, capsys):
    label_text, calib_text, _ = PLANE_LEAKS["infinite horizon"]
    dirs = label_dirs(tmp_path, label_text, calib_text)
    heatmap_dir = tmp_path / "hm"
    assert run(["plane", *dirs, "--heatmap-dir", heatmap_dir, "--image-size", "24,8"]) == 3
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out)["summary"]["fallback_frames"] == 1
    assert heatmap_from_pgm((heatmap_dir / "000000.pgm").read_bytes()).shape == (8, 24)


def test_plane_infinite_horizon_intercept_falls_back(tmp_path, capsys):
    # bottoms on y = 0.01 x + 4 z + 1.65 seen with f = 1.7e308: the fitted
    # horizon's slope (0.01) is finite, its intercept (4 f_y + ...) is not
    label_text = car_rows((1, 81.66, 20), (-2, 121.63, 30), (3, 101.68, 25))
    calib_text = "P2: 1.7e308 0.0 609.6 0.0 0.0 1.7e308 172.8 0.0 0.0 0.0 1.0 0.0\n"
    assert run(["plane", *label_dirs(tmp_path, label_text, calib_text)]) == 3
    row = json.loads(capsys.readouterr().out)["frames"][0]
    assert (row["fallback"], row["k_h"], row["b_h"]) == (True, 0.0, 172.8)


@pytest.mark.parametrize("label_text", [
    # a finite slope of 1e200, whose square overflows when normalized; the
    # "unnormalizable fit" frame above ends in plane's one-line y_mae error
    # instead, as its +/-1e308 elevations overflow the MAE
    car_rows((0, 1.6, 10), (1, 1e200, 10), (0, 1.6, 20)),
    # every bottom at x = 0: the x-slope column is all zero, rank 2
    car_rows((0, 1.6, 10), (0, 1.7, 20), (0, 1.8, 30)),
], ids=["unnormalizable fit", "collinear"])
def test_plane_unfittable_bottoms_fall_back(tmp_path, capsys, label_text):
    assert run(["plane", *label_dirs(tmp_path, label_text)]) == 3
    captured = capsys.readouterr()
    assert captured.err == ""
    report = json.loads(captured.out)
    assert report["summary"]["fallback_frames"] == 1
    row = report["frames"][0]
    # the flat plane's horizon
    assert (row["fallback"], row["k_h"], row["b_h"]) == (True, 0.0, 172.854)


def test_oracle_overflowing_label_warns_only_by_count(tmp_path, capsys):
    # printed numpy's "overflow encountered in subtract" before its warnings
    dirs = label_dirs(tmp_path, "Car 0 0 0 0 0 10 10 1e308 1.6 3.9 1 -1e308 20 0\n")
    assert run(["oracle", *dirs, "--out", tmp_path / "preds.jsonl"]) == 3
    err = capsys.readouterr().err.splitlines()
    assert err and all(line.startswith("warning: ") for line in err)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_plane_non_finite_elevation_mae_is_one_error(tmp_path, capsys, fmt):
    # exited 3 with "y_mae": Infinity (invalid JSON) and numpy's "overflow
    # encountered in reduce"
    dirs = label_dirs(tmp_path, "Car 0 0 0 0 0 10 10 1.5 1.6 3.9 1 1.7e308 20 0\n"
                                "Car 0 0 0 0 0 10 10 1.5 1.6 3.9 -2 1.7e308 30 0\n")
    assert run(["plane", *dirs, "--format", fmt]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: plane report: y_mae of frame 000000 is not finite (inf)\n"


def test_plane_csv(dataset, capsys):
    code = run(["plane", "--calib-dir", dataset / "calib",
                "--label-dir", dataset / "label_2", "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    assert any(l.startswith("frame,") for l in out.splitlines())


# ---------------------------------------------------------------------------
# usage errors
# ---------------------------------------------------------------------------

def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval"])  # missing required arguments
    assert exc.value.code == 2


#: (command, flag, value) of options a command used to accept without reading,
#: and of the singularity guard, which is now the constant DEFAULT_EPS_DEN.
REMOVED_FLAGS = [
    ("eval", "--cam-height", "1.5"), ("eval", "--seed", "1"), ("eval", "--eps-den", "1"),
    ("oracle", "--format", "csv"), ("lab", "--format", "json"),
    ("lab", "--cam-height", "9"), ("lab", "--eps-den", "3"), ("plane", "--seed", "1"),
    ("oracle", "--eps-den", "1e-6"), ("plane", "--eps-den", "-5"),
]


@pytest.mark.parametrize("command,flag,value", REMOVED_FLAGS)
def test_unread_flag_is_a_usage_error(command, flag, value, dataset, capsys):
    dirs = ["--calib-dir", dataset / "calib", "--label-dir", dataset / "label_2"]
    required = {"eval": [*dirs, "--predictions", dataset / "preds.jsonl"],
                "oracle": dirs, "lab": ["--mode", "flip"], "plane": dirs}[command]
    assert flag[2:] not in command_options()[command]
    with pytest.raises(SystemExit) as exc:
        run([command, *required, flag, value])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    # the command's own usage line, which lists the options it does take
    assert captured.err.startswith(f"usage: compdepth {command} [-h]")
    error = f"compdepth {command}: error: unrecognized arguments: {flag} {value}\n"
    assert error in captured.err


def test_unknown_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_oracle_box_corner_behind_camera(tmp_path):
    # the box center is in front of the camera but, turned lengthwise, its
    # near corners are behind it; the oracle only projects the center
    # column, so the object still gets its branches instead of aborting the run
    scene = make_scene(6, seed=4)
    x, z = 0.5, 1.5
    close = dataclasses.replace(scene.objects[0], x=x, z=z, l=4.8, theta=math.pi / 2,
                                y=scene.plane.height_at(x, z))
    calib_dir, label_dir = tmp_path / "calib", tmp_path / "label_2"
    calib_dir.mkdir()
    label_dir.mkdir()
    (calib_dir / "000000.txt").write_text(format_calib(scene.intrinsics))
    (label_dir / "000000.txt").write_text(format_labels([*scene.objects, close]))
    preds = tmp_path / "preds.jsonl"
    code = run(["oracle", "--calib-dir", calib_dir, "--label-dir", label_dir,
                "--out", preds])
    assert code == 0
    table = read_predictions(preds.read_text())
    assert table.index.tolist() == list(range(7))
    assert table.valid[6].any()
    assert table.z[6, table.valid[6]] == pytest.approx(z, rel=1e-9)


if given is not None:
    # ordinary values half the time, so that many files get past the schema
    any_float = st.one_of(st.floats(-100.0, 100.0),
                          st.floats(allow_nan=False, allow_infinity=False))
    any_sigma = st.one_of(st.floats(1e-3, 1e3),
                          st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))

    @st.composite
    def valid_prediction_files(draw):
        """Schema-valid records for the dataset's labels: floats over the
        whole range, sigma down to the smallest subnormal."""
        keys = draw(st.lists(st.tuples(st.sampled_from(("000000", "000001")),
                                       st.integers(0, 24)),
                             min_size=1, max_size=6, unique=True))
        lines = []
        for frame, index in keys:
            record = {"frame": frame, "index": index}
            if draw(st.integers(0, 3)):  # lab needs every z_star
                record["z_star"] = draw(any_float)
            names = draw(st.lists(st.sampled_from(("key", "glo", "comp")), min_size=1,
                                  unique=True))
            record["branches"] = [{"name": name, "z": draw(any_float),
                                   "sigma": draw(any_sigma)} for name in names]
            lines.append(json.dumps(record) + "\n")
        return "".join(lines)


def reject_constant(name):
    raise AssertionError(f"report holds {name}")


def test_any_valid_predictions_end_cleanly(shared_dataset):
    """eval and lab --predictions on any schema-valid file: exit 0 or 3 with
    only finite numbers written, or exit 1 with one error line."""
    if given is None:
        pytest.skip("hypothesis is not installed")
    preds = shared_dataset / "any.jsonl"
    commands = {
        "eval": ["eval", "--calib-dir", shared_dataset / "calib", "--label-dir",
                 shared_dataset / "label_2", "--predictions", preds],
        "lab": ["lab", "--mode", "flip", "--predictions", preds],
    }

    @settings(max_examples=40)
    @given(valid_prediction_files())
    def check(text):
        preds.write_text(text)
        for command, args in commands.items():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run(args)
            out, err = out.getvalue(), err.getvalue()
            if code == 1:
                assert out == "" and err.startswith("error: ") and err.count("\n") == 1
                continue
            assert code in (0, 3)
            if command == "eval":
                json.loads(out, parse_constant=reject_constant)
            else:
                rows = csv.DictReader(l for l in out.splitlines() if not l.startswith("#"))
                for row in rows:
                    for key in ("x", "mae", "count", "baseline_mae"):
                        assert row[key] == "" or math.isfinite(float(row[key])), row

    check()


if given is not None:
    # the extremes of the float range, and ordinary values half the time
    extreme_float = st.one_of(
        st.sampled_from((0.0, 1e-300, -1e-300, 5e-324, 1e300, -1e300, 1.7e308, -1.7e308)),
        st.floats(-100.0, 100.0))

    @st.composite
    def extreme_datasets(draw):
        """One or two frames: a P2 matrix and one to four label rows, with
        the fields the geometry reads drawn from extreme_float."""
        frames = {}
        for frame in ("000000", "000001")[:draw(st.integers(1, 2))]:
            f_x, c_u, f_y, c_v = (draw(extreme_float) for _ in range(4))
            calib = f"P2: {f_x!r} 0.0 {c_u!r} 0.0 0.0 {f_y!r} {c_v!r} 0.0 0.0 0.0 1.0 0.0\n"
            rows = []
            for _ in range(draw(st.integers(1, 4))):
                cls = draw(st.sampled_from(("Car", "Car", "DontCare")))
                h, x, y, z = (draw(extreme_float) for _ in range(4))
                rows.append(f"{cls} 0 0 0 0 0 10 10 {h!r} 1.6 3.9 {x!r} {y!r} {z!r} 0\n")
            frames[frame] = (calib, "".join(rows))
        return frames


def finite_float(text):
    value = float(text)
    assert math.isfinite(value), text
    return value


#: The texts of GroundPlane's own invariants: a bug if a command prints them.
PLANE_INVARIANTS = ("plane coefficients must",)


def test_any_extreme_labels_and_calib_end_cleanly(tmp_path):
    """oracle, plane and plane --heatmap-dir on label and calib fields from
    across the float range: exit 0 or 3 with only finite numbers written
    and only warning lines on stderr, or exit 1 with one error line that
    is not a GroundPlane invariant."""
    if given is None:
        pytest.skip("hypothesis is not installed")
    calib_dir, label_dir, heatmap_dir = (tmp_path / d for d in ("calib", "label_2", "hm"))
    dirs = ["--calib-dir", calib_dir, "--label-dir", label_dir]
    commands = {
        "oracle": ["oracle", *dirs],
        "noisy oracle": ["oracle", *dirs, "--noise-px", "1", "--noise-h-rel", "0.05",
                         "--noise-horizon-slope", "0.01", "--noise-horizon-intercept", "1"],
        "plane": ["plane", *dirs],
        "heatmaps": ["plane", *dirs, "--heatmap-dir", heatmap_dir, "--image-size", "24,8"],
    }

    @settings(max_examples=30, deadline=None)
    @given(extreme_datasets())
    def check(frames):
        for d in (calib_dir, label_dir, heatmap_dir):
            shutil.rmtree(d, ignore_errors=True)
        calib_dir.mkdir()
        label_dir.mkdir()
        for frame, (calib, labels) in frames.items():
            (calib_dir / f"{frame}.txt").write_text(calib)
            (label_dir / f"{frame}.txt").write_text(labels)
        for command, args in commands.items():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run(args)
            out, err = out.getvalue(), err.getvalue()
            if code == 1:
                assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err
                assert not any(text in err for text in PLANE_INVARIANTS), err
                continue
            assert code in (0, 3), (code, err)
            assert all(line.startswith("warning: ") for line in err.splitlines()), err
            docs = out.splitlines() if "oracle" in command else [out]
            for doc in docs:
                doc = doc[2:] if doc.startswith("# ") else doc  # the config echo
                json.loads(doc, parse_float=finite_float, parse_constant=reject_constant)
            if command == "heatmaps":
                pgms = sorted(heatmap_dir.iterdir())
                assert [p.stem for p in pgms] == sorted(frames)
                assert all(heatmap_from_pgm(p.read_bytes()).shape == (8, 24) for p in pgms)

    check()


#: Values drawn for every numeric option: the extremes of the float range,
#: zero and ones, non-finite values and an integer far beyond any size.
EXTREME_VALUES = ("0", "1", "-1", "1e-300", "-1e-300", "1e+300", "-1e+300", "1.7e+308",
                  "-1.7e+308", "nan", "inf", "-inf", str(2**40))
#: Ordinary values of each numeric option; the list options take 1-3 of them.
ORDINARY_VALUES = {
    "--seed": ("3",), "--cam-height": ("1.6",),
    "--noise-h-rel": ("0.1",), "--noise-px": ("2",), "--noise-horizon-slope": ("0.01",),
    "--noise-horizon-intercept": ("3",), "--n-objects": ("300",), "--n-branches": ("3",),
    "--coupling-rate": ("0.8",), "--error-scale": ("2",), "--depth-range": ("5", "60"),
    "--proportions": ("0", "0.5"), "--amplitudes": ("0", "2"), "--k": ("all", "2"),
    "--depth-edges": ("0", "20", "inf"), "--image-size": ("60", "20"),
}
#: Values drawn next to EXTREME_VALUES for each option with a float ceiling:
#: the ceiling and the next float beyond it, at both ends for --depth-range.
#: The cell and pixel ceilings are left out: a lab line at 2**24 cells takes
#: about 2 s, and a heatmap at the pixel ceiling is 64 MiB.
CEILING_VALUES = {
    **dict.fromkeys(("--noise-h-rel", "--noise-px", "--noise-horizon-slope",
                     "--noise-horizon-intercept"),
                    (repr(MAX_NOISE), repr(math.nextafter(MAX_NOISE, math.inf)))),
    "--depth-range": tuple(repr(v) for end in (MAX_DEPTH, -MAX_DEPTH)
                           for v in (end, math.nextafter(end, math.copysign(math.inf, end)))),
}
LIST_OPTIONS = {"--depth-range", "--proportions", "--amplitudes", "--k", "--depth-edges",
                "--image-size"}
#: The numeric options of each command, and its other choices (lab's --mode
#: is always drawn).
FUZZED_OPTIONS = {
    "oracle": ("--seed", "--cam-height", "--noise-h-rel", "--noise-px",
               "--noise-horizon-slope", "--noise-horizon-intercept"),
    "eval": ("--depth-edges",),
    "lab": ("--seed", "--n-objects", "--n-branches", "--coupling-rate", "--error-scale",
            "--depth-range", "--proportions", "--amplitudes", "--k"),
    "plane": ("--cam-height", "--image-size"),
}
#: Each command once per numeric option, so that every option is drawn
#: about as often whatever its command.
COMMAND_PER_OPTION = [command for command, flags in sorted(FUZZED_OPTIONS.items())
                      for _ in flags]
CHOICES = {
    "oracle": {"--sigma-model": ("constant", "proportional"), "--include-alt": ("",)},
    "eval": {"--format": ("json", "csv"), "--reference": ("key", "glo", "nope")},
    "lab": {"--sigma-model": ("constant", "proportional")},
    "plane": {"--format": ("json", "csv"), "--heatmap-dir": ("{heatmaps}",)},
}
#: Each child may map this much address space; each of its commands may
#: run this long.
CHILD_MEMORY_BYTES = 2**30
CHILD_TIMEOUT_S = 20
CHILD_ENV = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src"),
             "OPENBLAS_NUM_THREADS": "1"}
#: Command lines per child: the child's start-up, about a quarter second,
#: is paid once for all of them.
MAX_LINES_PER_CHILD = 16


if given is not None:
    @st.composite
    def option_lines(draw):
        """One command's arguments: the command drawn in proportion to its
        numeric options, each of them left at its default or drawn from
        EXTREME_VALUES, its CEILING_VALUES or its ordinary values, each choice
        left out or drawn. A drawn value is joined to its flag by '=', so that
        argparse does not take a value such as -1e-300 for an option."""
        command = draw(st.sampled_from(COMMAND_PER_OPTION))
        args = [command]
        if command == "lab":
            args += ["--mode", draw(st.sampled_from(("flip", "disturb", "multiflip")))]
        for flag, values in CHOICES[command].items():
            value = draw(st.one_of(st.none(), st.sampled_from(values)))
            if value is not None:
                args += [flag, value] if value else [flag]
        for flag in FUZZED_OPTIONS[command]:
            value = st.one_of(st.sampled_from(EXTREME_VALUES + CEILING_VALUES.get(flag, ())),
                              st.sampled_from(ORDINARY_VALUES[flag]))
            if flag in LIST_OPTIONS:
                value = st.lists(value, min_size=1, max_size=3).map(",".join)
            drawn = draw(st.one_of(st.none(), value))
            if drawn is not None:
                args.append(f"{flag}={drawn}")
        return args


def limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_MEMORY_BYTES, CHILD_MEMORY_BYTES))


def assert_finite_output(out):
    """Every number the command wrote, outside its config echo, is finite:
    JSON documents and JSONL records, or the CSV cells that parse as floats
    (a depth bin edge of 'inf' marks an unbounded bin)."""
    doc = out.lstrip()
    if doc.startswith("{"):  # a JSON report
        json.loads(doc, parse_float=finite_float, parse_constant=reject_constant)
        return
    lines = out.splitlines()
    if lines and lines[0].startswith("# {"):  # oracle JSONL under its config echo
        for line in lines:
            json.loads(line.removeprefix("# "), parse_float=finite_float,
                       parse_constant=reject_constant)
        return
    rows = list(csv.DictReader(line for line in lines if not line.startswith("#")))
    for row in rows:
        for key, cell in row.items():
            if key in ("bin_lo", "bin_hi"):
                continue
            try:
                value = float(cell)
            except ValueError:
                continue
            assert math.isfinite(value), row


def test_any_extreme_options_end_cleanly(shared_dataset, tmp_path):
    """Every command with its numeric options drawn from across the float
    range, 1 to MAX_LINES_PER_CHILD command lines at a time in one child
    process (tests/cli_batch.py) whose address space is capped. Each
    command ends with exit 0 or 3 with only finite numbers written and only
    warning lines on stderr, exit 1 with one error line, or exit 2 with
    argparse's usage and one error line. An exception that escapes main,
    or a command that outlives CHILD_TIMEOUT_S, fails."""
    if given is None:
        pytest.skip("hypothesis is not installed")
    dirs = ["--calib-dir", shared_dataset / "calib", "--label-dir", shared_dataset / "label_2"]
    preds = tmp_path / "preds.jsonl"
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert run(["oracle", *dirs, "--out", preds]) == 0
    batch = [sys.executable, str(Path(__file__).with_name("cli_batch.py")),
             str(CHILD_TIMEOUT_S)]

    def full_line(args):
        command = args[0]
        args = [str(tmp_path / "heatmaps") if a == "{heatmaps}" else a for a in args]
        if command != "lab":
            args += [str(a) for a in dirs]
        # lab sweeps the oracle's file unless a table size was drawn
        sized = any(a.startswith(("--n-objects=", "--n-branches=")) for a in args)
        if command == "eval" or (command == "lab" and not sized):
            args += ["--predictions", str(preds)]
        return args

    @settings(max_examples=40, deadline=None)
    @given(st.lists(option_lines(), min_size=1, max_size=MAX_LINES_PER_CHILD))
    def check(lines):
        lines = [full_line(args) for args in lines]
        child = subprocess.run(batch, input=json.dumps(lines), env=CHILD_ENV, capture_output=True,
                               text=True, timeout=CHILD_TIMEOUT_S * (len(lines) + 1),
                               preexec_fn=limit_memory)
        assert (child.returncode, child.stderr) == (0, ""), child.stderr
        results = json.loads(child.stdout)
        assert len(results) == len(lines)
        for args, result in zip(lines, results):
            code, out, err = result["code"], result["out"], result["err"]
            assert result["escaped"] is None, (args, result["escaped"])
            if code == 1:
                assert out == "" and err.startswith("error: ") and err.count("\n") == 1, (
                    args, err)
            elif code == 2:
                assert out == "" and err.startswith("usage: compdepth "), (args, err)
                assert [line for line in err.splitlines() if "error: " in line] == [
                    err.splitlines()[-1]], (args, err)
            else:
                assert code in (0, 3), (args, code, err)
                assert all(line.startswith("warning: ") for line in err.splitlines()), (
                    args, err)
                assert_finite_output(out)

    check()


def test_fuzzed_tables_cover_every_numeric_and_choice_option():
    # A new numeric option, or one with choices, must be drawn by the test above.
    for command, p in _build_parser()[1].items():
        for action in p._actions:
            flag = max(action.option_strings, key=len, default=None)
            if action.type in (int, float, _float_list):
                assert flag in FUZZED_OPTIONS[command], (command, flag)
            if action.choices is not None and (command, flag) != ("lab", "--mode"):
                assert flag in CHOICES[command], (command, flag)


def test_lab_out_of_memory_is_one_error_line():
    # Within the cell ceiling, the flip sweep's per-object vectors push this
    # table past the fuzzer's address-space cap; numpy's MemoryError names
    # the allocation that failed.
    child = subprocess.run([sys.executable, "-m", "compdepth.cli", "lab", "--mode", "flip",
                            "--n-objects", "8388608", "--n-branches", "2"],
                           env=CHILD_ENV, capture_output=True, text=True, timeout=60,
                           preexec_fn=limit_memory)
    assert (child.returncode, child.stdout, child.stderr) == (
        1, "", "error: Unable to allocate 64.0 MiB for an array with shape (8388608,) and "
               "data type float64\n")
