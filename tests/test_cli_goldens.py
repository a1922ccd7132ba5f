"""Byte-for-byte goldens of the eval, oracle and plane outputs.

The files under tests/data/ pin what these commands wrote before eval scored
ensembles on the columnar table: any change to the oracle's random stream,
the fusion or metric arithmetic, or the report formatting shows up as a
diff here. Every case runs on one seeded make_scene corpus (two 25-object
frames and a 2-object frame whose plane fit falls back). The temporary
directory in the config echo is replaced by '<tmp>'.

Regenerate (only when a change to the numbers is intended) with
    PYTHONPATH=src python tests/test_cli_goldens.py
"""

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
}

#: (golden file stem, oracle variant, extra eval flags).
EVAL_CASES = [
    ("eval_dense", "dense", []),
    ("eval_ragged", "ragged", []),
    ("eval_proportional", "proportional", []),
    ("eval_custom", "dense", ["--depth-edges", "0,10,25,45,inf", "--reference", "glo"]),
]


def write_corpus(tmp: Path) -> list[str]:
    """Write the calib/label dirs; return the shared directory flags."""
    calib_dir, label_dir = tmp / "calib", tmp / "label_2"
    calib_dir.mkdir()
    label_dir.mkdir()
    for frame, n, seed in (("000000", 25, 7), ("000001", 25, 8), ("000002", 2, 9)):
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


def _split(golden: Path) -> tuple[int, str]:
    """A golden file is '<exit code>\\n' followed by the command's output."""
    code, text = golden.read_text().split("\n", 1)
    return int(code), text


def _join(code: int, text: str) -> str:
    return f"{code}\n{text}"


@pytest.mark.parametrize("variant", sorted(ORACLE_FLAGS))
def test_oracle_golden(variant, tmp_path):
    assert render_oracle(variant, tmp_path) == _split(DATA / f"oracle_{variant}.jsonl")


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("stem,variant,extra", EVAL_CASES, ids=[c[0] for c in EVAL_CASES])
def test_eval_golden(stem, variant, extra, fmt, tmp_path):
    assert render_eval(variant, extra, fmt, tmp_path) == _split(DATA / f"{stem}.{fmt}")


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_plane_golden(fmt, tmp_path):
    assert render_plane(fmt, tmp_path) == _split(DATA / f"plane.{fmt}")


if __name__ == "__main__":
    import tempfile

    DATA.mkdir(exist_ok=True)

    def save(name: str, render, *args) -> None:
        with tempfile.TemporaryDirectory() as tmp:
            (DATA / name).write_text(_join(*render(*args, Path(tmp))))

    for variant in ORACLE_FLAGS:
        save(f"oracle_{variant}.jsonl", render_oracle, variant)
    for fmt in ("json", "csv"):
        for stem, variant, extra in EVAL_CASES:
            save(f"{stem}.{fmt}", render_eval, variant, extra, fmt)
        save(f"plane.{fmt}", render_plane, fmt)
