import argparse
import dataclasses
import json
import math

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
from compdepth.cli import _build_parser, main


@pytest.fixture
def dataset(tmp_path):
    """Two synthetic frames written as calib/label files."""
    calib_dir = tmp_path / "calib"
    label_dir = tmp_path / "label_2"
    calib_dir.mkdir()
    label_dir.mkdir()
    for frame, seed in (("000000", 7), ("000001", 8)):
        scene = make_scene(25, seed=seed)
        (calib_dir / f"{frame}.txt").write_text(format_calib(scene.intrinsics))
        (label_dir / f"{frame}.txt").write_text(format_labels(scene.objects))
    return tmp_path


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


def test_eval_unmatched_prediction(dataset, tmp_path, capsys):
    preds = tmp_path / "bad.jsonl"
    preds.write_text('{"frame":"000000","index":999,"branches":[{"name":"key","z":20.0}]}\n')
    code = run(["eval", "--calib-dir", dataset / "calib",
                "--label-dir", dataset / "label_2", "--predictions", preds])
    assert code == 1
    assert "unmatched" in capsys.readouterr().err.lower()


def test_eval_scores_against_label_depths(dataset, tmp_path, capsys):
    # the truth comes from the labels: a record's own z_star, wrong or
    # absent, plays no part
    from compdepth import parse_labels
    labels = parse_labels((dataset / "label_2" / "000000.txt").read_text())
    preds = tmp_path / "p.jsonl"
    preds.write_text(
        json.dumps({"frame": "000000", "index": 0, "z_star": 999.0,
                    "branches": [{"name": "key", "z": labels[0].z + 1.0}]}) + "\n"
        + json.dumps({"frame": "000000", "index": 1,
                      "branches": [{"name": "key", "z": labels[1].z - 3.0}]}) + "\n")
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
    # a repeated (frame, index) line was scored twice: exit 0, n_objects 2
    preds = tmp_path / "dup.jsonl"
    line = '{"frame":"000000","index":0,"branches":[{"name":"key","z":20.0}]}\n'
    preds.write_text("# header\n" + line + line)
    code = run(["eval", "--calib-dir", dataset / "calib",
                "--label-dir", dataset / "label_2", "--predictions", preds])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == ("error: line 3: field 'index': "
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
            assert (code, captured.out, captured.err) == (1, "", f"error: line 1: {message}\n")


def test_eval_malformed_labels(dataset, tmp_path, capsys):
    # the referenced frame's label file fails to parse
    (dataset / "label_2" / "000000.txt").write_text("garbage\n")
    preds = tmp_path / "p.jsonl"
    preds.write_text('{"frame":"000000","index":0,"branches":[{"name":"key","z":20.0}]}\n')
    code = run(["eval", "--calib-dir", dataset / "calib",
                "--label-dir", dataset / "label_2", "--predictions", preds])
    assert code == 1
    assert "error" in capsys.readouterr().err


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
    parser = _build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {command: {flag[2:] for action in p._actions for flag in action.option_strings
                      if flag != "--help" and flag.startswith("--")}
            for command, p in sub.choices.items()}


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


def test_lab_from_predictions_file(tmp_path, capsys):
    import numpy as np
    from compdepth import ErrorModelConfig, generate_ensembles
    ens = generate_ensembles(np.linspace(5, 60, 100), ErrorModelConfig(seed=1))
    preds = tmp_path / "ens.jsonl"
    preds.write_text(write_predictions(ens))
    code = run(["lab", "--mode", "flip", "--predictions", preds,
                "--branches", "b0", "--proportions", "0,1"])
    out = capsys.readouterr().out
    assert code == 0
    assert sum(1 for l in out.splitlines() if l.startswith("flip:b0")) == 2


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


@pytest.mark.parametrize("args,message", [
    (["lab", "--mode", "flip", "--depth-range", "0,inf"], "--depth-range"),
    (["lab", "--mode", "flip", "--depth-range", "nan,10"], "--depth-range"),
    (["lab", "--mode", "disturb", "--amplitudes", "0,inf"], "amplitudes"),
    (["lab", "--mode", "flip", "--proportions", "0,nan"], "proportions"),
    (["lab", "--mode", "multiflip", "--k", "0,0"], "--k values must be distinct"),
    (["lab", "--mode", "multiflip", "--k", "1,x"], "--k must be"),
    (["lab", "--mode", "flip", "--n-objects", "-5"], "--n-objects"),
    (["lab", "--mode", "flip", "--n-objects", "0"], "--n-objects"),
    (["lab", "--mode", "flip", "--error-scale", "1e308"], "non-finite z"),
    (["lab", "--mode", "flip", "--depth-range", "1e300,1e308"], "non-finite"),
    (["eval", "--predictions", "{preds}", "--depth-edges", "0,nan,40"], "edges"),
    (["oracle", "--noise-px", "nan"], "--noise-px"),
    (["oracle", "--noise-h-rel", "inf"], "--noise-h-rel"),
    (["oracle", "--noise-horizon-slope", "-0.1"], "--noise-horizon-slope"),
    (["oracle", "--noise-horizon-intercept", "nan"], "--noise-horizon-intercept"),
    (["oracle", "--cam-height", "-1", "--eps-den", "-5"], "--cam-height"),
    (["plane", "--eps-den", "-5"], "--eps-den"),
    (["plane", "--cam-height", "nan"], "--cam-height"),
    (["plane", "--image-size", "10"], "--image-size"),
    (["plane", "--image-size", "inf,375"], "--image-size"),
    (["lab", "--mode", "flip", "--error-scale", "nan"], "error_scale"),
    (["lab", "--mode", "flip", "--error-scale", "inf"], "error_scale"),
    (["oracle", "--seed", "-1", "--noise-px", "nan"], "--seed"),
    (["oracle", "--seed", "-1"], "--seed"),
    (["lab", "--mode", "flip", "--seed", "-1"], "--seed"),
    (["lab", "--mode", "disturb", "--seed", "-1"], "--seed"),
    (["lab", "--mode", "flip", "--proportions", ""], "proportions must not be empty"),
    (["lab", "--mode", "disturb", "--amplitudes", ""], "amplitudes must not be empty"),
])
def test_lab_bad_input_one_line_error(args, message, dataset, capsys):
    # every command, despite the name: bad input ends in one error line
    command, *rest = args
    if command == "lab":
        rest = ["--n-objects", "200", *rest]
    else:
        rest = ["--calib-dir", dataset / "calib", "--label-dir", dataset / "label_2", *rest]
        if command == "eval":
            preds = dataset / "preds.jsonl"
            assert run(["oracle", *rest[:4], "--out", preds]) == 0
            rest = [str(preds) if a == "{preds}" else a for a in rest]
    capsys.readouterr()
    code = run([command, *rest])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and message in lines[0]


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


#: (command, flag, value) of options a command used to accept without reading.
REMOVED_FLAGS = [
    ("eval", "--cam-height", "1.5"), ("eval", "--seed", "1"), ("eval", "--eps-den", "1"),
    ("oracle", "--format", "csv"), ("lab", "--format", "json"),
    ("lab", "--cam-height", "9"), ("lab", "--eps-den", "3"), ("plane", "--seed", "1"),
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
    assert f"unrecognized arguments: {flag} {value}" in captured.err


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
