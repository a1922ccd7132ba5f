"""Byte-for-byte goldens of the eval, oracle and plane outputs.

The files under tests/data/ pin what these commands wrote before eval scored
ensembles on the columnar table: any change to the oracle's random stream,
the fusion or metric arithmetic, or the report formatting shows up as a
diff here. The oracle's stderr warning lines are pinned too, and so is the
label text of the make_scene frames the corpus is built from. Every case runs on one seeded make_scene corpus (two 25-object
frames and a 2-object frame whose plane fit falls back). The temporary
directory in the config echo is replaced by '<tmp>'.

The horizon heatmaps of `plane --heatmap-dir` are pinned too: small ones
(HEATMAP_SMALL, tall enough that every frame's horizon crosses the image)
byte for byte, and the full-size default ones by their sha256 digests.

Regenerate (only when a change to the numbers is intended) with
    PYTHONPATH=src python tests/test_cli_goldens.py
"""

import hashlib
from pathlib import Path

import pytest

from compdepth import format_calib, format_labels, make_scene
from compdepth.cli import main

DATA = Path(__file__).parent / "data"

#: oracle flags per corpus variant (all with --seed 3).
ORACLE_FLAGS = {
    "dense": ["--noise-h-rel", "0.1", "--noise-px", "0.5"],
    "ragged": ["--noise-px", "40", "--noise-h-rel", "0.9", "--include-alt"],
    "proportional": ["--noise-h-rel", "0.1", "--noise-px", "2",
                     "--sigma-model", "proportional"],
    # noise far past every singularity guard: each failure counter fires,
    # all_branches_failed included; the later --seed wins (seed 3 leaves
    # no object without a branch here)
    "extreme": ["--noise-px", "300", "--noise-h-rel", "1.5", "--include-alt",
                "--noise-horizon-slope", "0.3", "--noise-horizon-intercept", "200",
                "--seed", "0"],
}

#: (golden file stem, oracle variant, extra eval flags).
EVAL_CASES = [
    ("eval_dense", "dense", []),
    ("eval_ragged", "ragged", []),
    ("eval_proportional", "proportional", []),
    ("eval_custom", "dense", ["--depth-edges", "0,10,25,45,inf", "--reference", "glo"]),
]

#: --image-size of the byte-for-byte heatmap goldens; in these 64 columns the
#: corpus's horizons run through rows 163-253, so a shorter image would pin
#: all-zero files.
HEATMAP_SMALL = "64,260"
FRAMES = ("000000", "000001", "000002")

#: (n_objects, seed) of the corpus frames, then of other fixtures: the
#: test_cli ones, the acceptance suite's and a benchmark frame.
SCENES = ((25, 7), (25, 8), (2, 9), (2, 3), (6, 4), (200, 21), (1000, 2024), (40, 1 << 20))


def write_corpus(tmp: Path) -> list[str]:
    """Write the calib/label dirs; return the shared directory flags."""
    calib_dir, label_dir = tmp / "calib", tmp / "label_2"
    calib_dir.mkdir()
    label_dir.mkdir()
    for frame, (n, seed) in zip(FRAMES, SCENES):
        scene = make_scene(n, seed=seed)
        (calib_dir / f"{frame}.txt").write_text(format_calib(scene.intrinsics))
        (label_dir / f"{frame}.txt").write_text(format_labels(scene.objects))
    return ["--calib-dir", str(calib_dir), "--label-dir", str(label_dir)]


def run(args: list[str], out: Path, tmp: Path) -> tuple[int, str]:
    code = main([*args, "--out", str(out)])
    return code, out.read_text().replace(str(tmp), "<tmp>")


def render_oracle(variant: str, tmp: Path) -> tuple[int, str]:
    dirs = write_corpus(tmp)
    return run(["oracle", *dirs, "--seed", "3", *ORACLE_FLAGS[variant]],
               tmp / "preds.jsonl", tmp)


def render_eval(variant: str, extra: list[str], fmt: str, tmp: Path) -> tuple[int, str]:
    code, _ = render_oracle(variant, tmp)
    assert code in (0, 3)
    dirs = ["--calib-dir", str(tmp / "calib"), "--label-dir", str(tmp / "label_2")]
    return run(["eval", *dirs, "--predictions", str(tmp / "preds.jsonl"),
                "--format", fmt, *extra], tmp / f"report.{fmt}", tmp)


def render_plane(fmt: str, tmp: Path) -> tuple[int, str]:
    return run(["plane", *write_corpus(tmp), "--format", fmt], tmp / f"plane.{fmt}", tmp)


def render_heatmaps(size: str | None, tmp: Path) -> tuple[int, str, dict[str, bytes]]:
    """plane --heatmap-dir at the given --image-size (None: the default)."""
    heat_dir = tmp / "heat"
    size_flags = [] if size is None else ["--image-size", size]
    code, text = run(["plane", *write_corpus(tmp), "--heatmap-dir", str(heat_dir),
                      *size_flags], tmp / "plane.json", tmp)
    return code, text, {p.stem: p.read_bytes() for p in sorted(heat_dir.iterdir())}


def _digests(pgms: dict[str, bytes]) -> str:
    return "".join(f"{hashlib.sha256(data).hexdigest()}  {frame}.pgm\n"
                   for frame, data in pgms.items())


def _scene_digests() -> str:
    return "".join(
        f"{hashlib.sha256(format_labels(make_scene(n, seed=seed).objects).encode()).hexdigest()}"
        f"  n={n} seed={seed}\n" for n, seed in SCENES)


def _split(golden: Path) -> tuple[int, str]:
    """A golden file is '<exit code>\\n' followed by the command's output."""
    code, text = golden.read_text().split("\n", 1)
    return int(code), text


def _join(code: int, text: str) -> str:
    return f"{code}\n{text}"


@pytest.mark.parametrize("variant", sorted(ORACLE_FLAGS))
def test_oracle_golden(variant, tmp_path, capsys):
    capsys.readouterr()
    assert render_oracle(variant, tmp_path) == _split(DATA / f"oracle_{variant}.jsonl")
    assert capsys.readouterr().err == (DATA / f"oracle_{variant}.stderr").read_text()


def test_make_scene_golden():
    assert _scene_digests() == (DATA / "make_scene.sha256").read_text()


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("stem,variant,extra", EVAL_CASES, ids=[c[0] for c in EVAL_CASES])
def test_eval_golden(stem, variant, extra, fmt, tmp_path):
    assert render_eval(variant, extra, fmt, tmp_path) == _split(DATA / f"{stem}.{fmt}")


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_plane_golden(fmt, tmp_path):
    assert render_plane(fmt, tmp_path) == _split(DATA / f"plane.{fmt}")


def test_plane_heatmap_golden_small(tmp_path):
    code, _, pgms = render_heatmaps(HEATMAP_SMALL, tmp_path)
    assert code == 3  # the 2-object frame falls back
    assert list(pgms) == list(FRAMES)
    for frame, data in pgms.items():
        assert data == (DATA / f"heatmap_{frame}.pgm").read_bytes(), frame


def test_plane_heatmap_golden_full_size(tmp_path):
    code, text, pgms = render_heatmaps(None, tmp_path)
    # writing heatmaps leaves the report as it is without them
    assert (code, text) == _split(DATA / "plane.json")
    assert _digests(pgms) == (DATA / "heatmaps_full.sha256").read_text()


if __name__ == "__main__":
    import contextlib
    import io
    import tempfile

    DATA.mkdir(exist_ok=True)

    def save(name: str, render, *args) -> None:
        with tempfile.TemporaryDirectory() as tmp:
            (DATA / name).write_text(_join(*render(*args, Path(tmp))))

    for variant in ORACLE_FLAGS:
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            save(f"oracle_{variant}.jsonl", render_oracle, variant)
        (DATA / f"oracle_{variant}.stderr").write_text(err.getvalue())
    (DATA / "make_scene.sha256").write_text(_scene_digests())
    for fmt in ("json", "csv"):
        for stem, variant, extra in EVAL_CASES:
            save(f"{stem}.{fmt}", render_eval, variant, extra, fmt)
        save(f"plane.{fmt}", render_plane, fmt)
    with tempfile.TemporaryDirectory() as tmp:
        for frame, data in render_heatmaps(HEATMAP_SMALL, Path(tmp))[2].items():
            (DATA / f"heatmap_{frame}.pgm").write_bytes(data)
    with tempfile.TemporaryDirectory() as tmp:
        (DATA / "heatmaps_full.sha256").write_text(_digests(render_heatmaps(None, Path(tmp))[2]))
