"""oracle and plane, which read every frame before they compute any, write
the same bytes, stderr and exit code as the per-frame loops of
corpus_reference on small random corpora, and plane does on a corpus of
the sparse_noisy benchmark's shape. Only where a file fails do the
heatmaps differ: the loops have written those of the frames before it,
plane none."""

import contextlib
import io
import shutil
from unittest import mock

import pytest

from compdepth import cli, format_calib, format_labels, make_scene

import corpus_reference

try:
    from hypothesis import example, given, settings, strategies as st
except ImportError:  # the property test below skips itself
    given = None


if given is not None:
    @st.composite
    def label_rows(draw, clean):
        """One label row: a usable Car on or near y = 1.65 or, unless clean,
        a DontCare row, a row with h <= 0 or z <= 0, or a Car on the
        principal row (y = 0), whose ground ray fails."""
        kind = "car" if clean else draw(st.sampled_from(
            ("car", "car", "car", "dontcare", "flat", "behind", "principal")))
        h = draw(st.floats(0.5, 3.0))
        x = draw(st.floats(-15.0, 15.0))
        y = draw(st.floats(1.2, 2.1))
        z = draw(st.floats(3.0, 60.0))
        if kind == "flat":
            h = draw(st.sampled_from((0.0, -1.5)))
        elif kind == "behind":
            z = draw(st.sampled_from((0.0, -4.0)))
        elif kind == "principal":
            y = 0.0
        name = "DontCare" if kind == "dontcare" else "Car"
        return f"{name} 0 0 0 0 0 10 10 {h!r} 1.6 3.9 {x!r} {y!r} {z!r} 0\n"

    @st.composite
    def corpora(draw):
        """1-4 frames, each a P2 matrix and label rows. A clean corpus has
        only usable Cars, 3-8 a frame. Otherwise a frame has 0-8 rows of
        any kind, its plane falls back with fewer than 3 usable rows or
        with them all at one x, and one file may fail to parse."""
        clean = draw(st.booleans())
        frames = {}
        for i in range(draw(st.integers(1, 4))):
            f_x, f_y = draw(st.floats(300.0, 1500.0)), draw(st.floats(300.0, 1500.0))
            c_u, c_v = draw(st.floats(0.0, 1300.0)), draw(st.floats(50.0, 400.0))
            calib = f"P2: {f_x!r} 0.0 {c_u!r} 0.0 0.0 {f_y!r} {c_v!r} 0.0 0.0 0.0 1.0 0.0\n"
            rows = draw(st.lists(label_rows(clean), min_size=3 if clean else 0, max_size=8))
            if not clean and draw(st.booleans()):  # one x: a rank-deficient fit
                rows = [" ".join(r.split()[:11] + ["2.5"] + r.split()[12:]) + "\n"
                        for r in rows]
            frames[f"{i:06d}"] = [calib, "".join(rows)]
        if not clean and draw(st.booleans()):
            # The last frame shrinks first, so a failing run has read frames
            # before the bad file.
            frame = draw(st.sampled_from(sorted(frames, reverse=True)))
            broken = draw(st.sampled_from((0, 1)))  # the calib or the label file
            frames[frame][broken] = ("P1: 1 2 3\n", "Car 1 2\n")[broken]
        return frames

    options = st.fixed_dictionaries({
        "--seed": st.sampled_from(("0", "5")),
        "--noise-h-rel": st.sampled_from(("0", "0.1")),
        "--noise-px": st.sampled_from(("0", "2.5")),
        # 1e7 gives finite planes with |b| about 1e-7, which have no finite
        # horizon, and 1e200 gives no plane: both fall back to the flat one
        "--noise-horizon-slope": st.sampled_from(("0", "0.01", "0.3", "1e7", "1e200")),
        "--noise-horizon-intercept": st.sampled_from(("0", "4", "40")),
        "--sigma-model": st.sampled_from(("constant", "proportional")),
        "--cam-height": st.sampled_from(("1.65", "2")),
    })

# Two frames whose four Cars fit a plane, as run with each horizon slope
# noise that pins oracle's fallback rule, which is plane's: a plane
# without a finite horizon falls back to the flat plane, whether it is
# finite and nearly vertical (1e7) or no plane at all (1e200).
CAMERA = "P2: 721.5377 0.0 609.5593 0.0 0.0 721.5377 172.854 0.0 0.0 0.0 1.0 0.0\n"
CLEAN = {f"{i:06d}": [CAMERA, "".join(
    f"Car 0 0 0 0 0 10 10 1.5 1.6 3.9 {x} {1.6 + 0.01 * z} {z} 0\n"
    for x, z in ((-3.0, 12.0), (2.0, 20.0), (5.0, 35.0), (-1.0, 50.0 + i)))] for i in range(2)}
STEEP_SLOPES = [{"--seed": "0", "--noise-h-rel": "0", "--noise-px": "0",
                 "--noise-horizon-slope": slope, "--noise-horizon-intercept": "0",
                 "--sigma-model": "constant", "--cam-height": "1.65"}
                for slope in ("1e7", "1e200")]


def outcome(args) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in args])
    return code, out.getvalue(), err.getvalue()


def test_corpus_at_once_matches_per_frame_loops(tmp_path):
    if given is None:
        pytest.skip("hypothesis is not installed")
    calib_dir, label_dir = tmp_path / "calib", tmp_path / "label_2"
    dirs = ["--calib-dir", calib_dir, "--label-dir", label_dir]
    reference = {"oracle": corpus_reference.oracle, "plane": corpus_reference.plane}

    @settings(max_examples=60, deadline=None)
    @given(corpora(), options, st.booleans(), st.sampled_from(("json", "csv")))
    @example(CLEAN, STEEP_SLOPES[0], False, "json")
    @example(CLEAN, STEEP_SLOPES[1], False, "json")
    def check(frames, opts, include_alt, fmt):
        for d in tmp_path.iterdir():
            shutil.rmtree(d)
        calib_dir.mkdir()
        label_dir.mkdir()
        for frame, (calib, labels) in frames.items():
            (calib_dir / f"{frame}.txt").write_text(calib)
            (label_dir / f"{frame}.txt").write_text(labels)
        oracle = ["oracle", *dirs, *(a for item in opts.items() for a in item),
                  *(["--include-alt"] if include_alt else [])]
        plane = ["plane", *dirs, "--cam-height", opts["--cam-height"], "--format", fmt,
                 "--image-size", "40,12", "--heatmap-dir"]
        runs = {"oracle": (oracle, oracle),
                "plane": (plane + [tmp_path / "ref"], plane + [tmp_path / "new"])}
        for command, (reference_args, args) in runs.items():
            with mock.patch.dict(cli._COMMANDS, reference):
                expected = outcome(reference_args)
            assert outcome(args) == expected, command
        # The reference writes the heatmaps of the frames before a failing
        # file; plane reads every file first and writes none.
        if expected[0] == 1:
            assert not (tmp_path / "new").exists()
            return
        heatmaps = [{p.name: p.read_bytes() for p in sorted((tmp_path / d).iterdir())}
                    for d in ("ref", "new")]
        assert heatmaps[0] == heatmaps[1]

    check()


@pytest.fixture(scope="module")
def bench_corpus(tmp_path_factory):
    """100 make_scene frames of 6 objects, seeded as the sparse_noisy
    benchmark workload seeds its frames at --seed 1."""
    root = tmp_path_factory.mktemp("bench_corpus")
    (root / "calib").mkdir()
    (root / "label_2").mkdir()
    for f in range(100):
        scene = make_scene(6, seed=(1 << 20) + f)
        (root / "calib" / f"{f:06d}.txt").write_text(format_calib(scene.intrinsics))
        (root / "label_2" / f"{f:06d}.txt").write_text(format_labels(scene.objects))
    return root


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_plane_at_bench_scale_matches_per_frame_loop(bench_corpus, tmp_path, fmt):
    """plane over the 100 frames, at the default --image-size, writes the
    report, stderr, exit code and heatmaps of the per-frame loop."""
    plane = ["plane", "--calib-dir", bench_corpus / "calib", "--label-dir",
             bench_corpus / "label_2", "--format", fmt, "--heatmap-dir"]
    with mock.patch.dict(cli._COMMANDS, {"plane": corpus_reference.plane}):
        expected = outcome(plane + [tmp_path / "ref"])
    assert outcome(plane + [tmp_path / "new"]) == expected
    heatmaps = [{p.name: p.read_bytes() for p in sorted((tmp_path / d).iterdir())}
                for d in ("ref", "new")]
    assert len(heatmaps[0]) == 100 and heatmaps[0] == heatmaps[1]
