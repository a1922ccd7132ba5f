"""Smoke tests: every script in demos/, every python block of the README
and the README's command lines run."""

import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from compdepth import format_calib, format_labels, make_scene
from compdepth.cli import main

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_exist():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    # the demos write their files under the temp directory; point it here
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "TMPDIR": str(tmp_path)}
    result = subprocess.run([sys.executable, str(demo)], env=env, cwd=tmp_path,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr


PYTHON_BLOCKS = [block.split("```", 1)[0]
                 for block in (ROOT / "README.md").read_text().split("```python\n")[1:]]
# A value each block computes, and the range it must fall in, one per block
# in order: the quickstart fuses a car 20 m ahead; the scoring block's
# branches share an error sign for 80% of pairs, so about 20% are opposite.
BLOCK_RESULTS = [(lambda ns: float(ns["fused"][0]), 19.0, 21.0),
                 (lambda ns: ns["opposition"], 15.0, 25.0)]


@pytest.mark.parametrize("i", range(len(PYTHON_BLOCKS)),
                         ids=[f"block{i}" for i in range(len(PYTHON_BLOCKS))])
def test_readme_python_blocks_run(i):
    # each block runs on its own, in a fresh namespace
    namespace: dict = {}
    exec(compile(PYTHON_BLOCKS[i], f"README.md python block {i}", "exec"), namespace)
    result, lo, hi = BLOCK_RESULTS[i]
    assert lo < result(namespace) < hi


def readme_commands() -> list[list[str]]:
    """The arguments of every `compdepth ...` line in the README's sh blocks,
    continuation lines joined."""
    readme = (ROOT / "README.md").read_text()
    commands = []
    for block in readme.split("```sh\n")[1:]:
        text = block.split("```", 1)[0].replace("\\\n", " ")
        commands += [shlex.split(line)[1:] for line in text.splitlines()
                     if line.startswith("compdepth ")]
    return commands


def test_readme_commands_run(tmp_path, monkeypatch):
    # in order, on a make_scene corpus under calib/ and label_2/
    for name in ("calib", "label_2"):
        (tmp_path / name).mkdir()
    for frame, seed in (("000000", 7), ("000001", 8)):
        scene = make_scene(25, seed=seed)
        (tmp_path / "calib" / f"{frame}.txt").write_text(format_calib(scene.intrinsics))
        (tmp_path / "label_2" / f"{frame}.txt").write_text(format_labels(scene.objects))
    monkeypatch.chdir(tmp_path)
    commands = readme_commands()
    assert {c[0] for c in commands} == {"oracle", "eval", "lab", "plane"}
    for args in commands:
        assert main(args) in (0, 3), args
