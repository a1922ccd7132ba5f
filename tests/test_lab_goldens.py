"""Byte-for-byte goldens of the lab command's CSV output.

The files under tests/data/ pin the curves the lab wrote before its
ensembles became columnar; any change to the generator's random stream, the
sweep subsets, or the fusion arithmetic shows up as a diff here.

Regenerate (only when a change to the numbers is intended) with
    PYTHONPATH=src python tests/test_lab_goldens.py
"""

from pathlib import Path

import pytest

from compdepth import format_calib, format_labels, make_scene
from compdepth.cli import main

DATA = Path(__file__).parent / "data"

#: (golden file stem, lab arguments) on CLI-generated ensembles.
SYNTHETIC_CASES = [
    (f"lab_{mode}_{sigma}_b{n}",
     ["lab", "--mode", mode, "--n-objects", "2000", "--n-branches", str(n),
      "--sigma-model", sigma, "--seed", "13", *extra])
    for mode, extra in (("flip", []), ("disturb", []), ("multiflip", ["--k", "all"]))
    for sigma in ("constant", "proportional")
    for n in (4, 6)
]

#: (golden file stem, oracle flags) for lab --mode flip --predictions.
ORACLE_CASES = [
    ("lab_flip_predictions_constant",
     ["--noise-h-rel", "0.1", "--noise-px", "0.5", "--include-alt"]),
    ("lab_flip_predictions_proportional",
     ["--noise-h-rel", "0.1", "--noise-px", "0.5", "--sigma-model", "proportional"]),
]


def _strip_path_line(text: str) -> str:
    """Drop the '# predictions: <path>' header line, which names a temp file."""
    return "".join(line for line in text.splitlines(keepends=True)
                   if not line.startswith("# predictions: "))


def render_synthetic(args: list[str], tmp: Path) -> str:
    out = tmp / "curves.csv"
    assert main([*args, "--out", str(out)]) == 0
    return out.read_text()


def render_oracle(oracle_flags: list[str], tmp: Path) -> str:
    calib_dir, label_dir = tmp / "calib", tmp / "label_2"
    calib_dir.mkdir()
    label_dir.mkdir()
    for frame, seed in (("000000", 7), ("000001", 8)):
        scene = make_scene(25, seed=seed)
        (calib_dir / f"{frame}.txt").write_text(format_calib(scene.intrinsics))
        (label_dir / f"{frame}.txt").write_text(format_labels(scene.objects))
    preds, out = tmp / "preds.jsonl", tmp / "curves.csv"
    assert main(["oracle", "--calib-dir", str(calib_dir), "--label-dir", str(label_dir),
                 "--seed", "3", *oracle_flags, "--out", str(preds)]) == 0
    assert main(["lab", "--mode", "flip", "--predictions", str(preds),
                 "--seed", "5", "--out", str(out)]) == 0
    return _strip_path_line(out.read_text())


@pytest.mark.parametrize("stem,args", SYNTHETIC_CASES, ids=[c[0] for c in SYNTHETIC_CASES])
def test_lab_synthetic_golden(stem, args, tmp_path):
    assert render_synthetic(args, tmp_path) == (DATA / f"{stem}.csv").read_text()


@pytest.mark.parametrize("stem,flags", ORACLE_CASES, ids=[c[0] for c in ORACLE_CASES])
def test_lab_predictions_golden(stem, flags, tmp_path):
    assert render_oracle(flags, tmp_path) == (DATA / f"{stem}.csv").read_text()


if __name__ == "__main__":
    import tempfile

    DATA.mkdir(exist_ok=True)
    for stem, args in SYNTHETIC_CASES:
        with tempfile.TemporaryDirectory() as tmp:
            (DATA / f"{stem}.csv").write_text(render_synthetic(args, Path(tmp)))
    for stem, flags in ORACLE_CASES:
        with tempfile.TemporaryDirectory() as tmp:
            (DATA / f"{stem}.csv").write_text(render_oracle(flags, Path(tmp)))
