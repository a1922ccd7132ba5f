"""Property tests of the horizon heatmap path against the per-column and
per-call references it replaced: rasterization, PGM encode/decode and the
peak search of the line fit must give the same bits, and the closed-form
line must stay within 1e-9 px of np.polyfit's through the same peaks."""

import math
import re

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from compdepth import HorizonLine, fit_horizon, heatmap_from_pgm, horizon_pgm  # noqa: E402
from compdepth.ground_plane import write_horizon_pgms  # noqa: E402
from heatmap_reference import (  # noqa: E402
    fit_reference,
    gap_px,
    pgm_decode_reference,
    pgm_encode_reference,
    polyfit_line,
    rasterize_reference,
)

finite = dict(allow_nan=False, allow_infinity=False)
lines = st.builds(
    HorizonLine,
    st.one_of(st.floats(-0.1, 0.1, **finite), st.floats(-50.0, 50.0, **finite)),
    st.floats(-50.0, 450.0, **finite),
)


@given(lines, st.integers(1, 400), st.integers(1, 400))
def test_rasterize_matches_column_loop(line, width, height):
    """Lines that cross the image or pass near it."""
    assert horizon_pgm(line, width, height) == pgm_encode_reference(
        rasterize_reference(line, width, height, 2.0))


# steep lines and lines far off the image as well as ordinary ones
any_lines = st.builds(
    HorizonLine,
    st.one_of(st.floats(-0.1, 0.1, **finite), st.floats(-1e4, 1e4, **finite)),
    st.one_of(st.floats(-50.0, 450.0, **finite), st.floats(-1e6, 1e6, **finite)),
)
sizes = st.one_of(st.just(1), st.integers(1, 400))


@given(any_lines, sizes, sizes)
def test_horizon_pgm_matches_rasterized_encoding(line, width, height):
    assert horizon_pgm(line, width, height) == pgm_encode_reference(
        rasterize_reference(line, width, height, 2.0))


@pytest.fixture(scope="module")
def heat_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("heat")


# a pre-existing file: its length and the bytes it repeats
stale_files = st.tuples(st.integers(0, 200_000), st.binary(min_size=1, max_size=8))
FF = b"\xff"


@given(st.lists(st.tuples(any_lines, stale_files), min_size=1, max_size=3), sizes, sizes)
# a line wholly outside the image: an all-zero file over a longer, a
# same-size and a shorter one (a 20x10 PGM is 13 header bytes + 200)
@example([(HorizonLine(0.0, -100.0), (10**4, FF)), (HorizonLine(0.5, 500.0), (20 * 10 + 13, FF)),
          (HorizonLine(0.0, 30.0), (3, FF))], 20, 10)
# bands touching row 0, the last row, and both
@example([(HorizonLine(0.0, 0.0), (10**4, FF)), (HorizonLine(0.0, 9.0), (20 * 10 + 13, FF)),
          (HorizonLine(0.1, -1.5), (0, FF))], 20, 10)
@example([(HorizonLine(0.0, 1.0), (100, FF))], 7, 3)
# a 1x1 image, lit and dark
@example([(HorizonLine(0.0, 0.0), (100, FF)), (HorizonLine(0.0, 3.0), (0, FF))], 1, 1)
def test_write_horizon_pgms_gives_horizon_pgm_over_any_file(heat_dir, frames, width, height):
    """Over pre-existing files of any length and content, each written
    file is exactly horizon_pgm's bytes."""
    paths = [heat_dir / f"{i}.pgm" for i in range(len(frames))]
    for path, (_, (length, pattern)) in zip(paths, frames):
        path.write_bytes((pattern * length)[:length])
    horizon = HorizonLine(*np.array([(line.k_h, line.b_h) for line, _ in frames]).T)
    write_horizon_pgms(paths, horizon, width, height)
    assert [path.read_bytes() for path in paths] == [
        horizon_pgm(line, width, height) for line, _ in frames]


REJECTED = [
    (HorizonLine(math.nan, 1.0), 8, 6, "k_h must be finite, got nan"),
    (HorizonLine(math.inf, 1.0), 8, 6, "k_h must be finite, got inf"),
    (HorizonLine(0.0, -math.inf), 8, 6, "b_h must be finite, got -inf"),
    (HorizonLine(0.0, 1.0), 0, 6, "heatmap dimensions must be at least 1x1"),
    (HorizonLine(0.0, 1.0), 8, 0, "heatmap dimensions must be at least 1x1"),
    (HorizonLine(math.nan, 1.0), 0, 6, "heatmap dimensions must be at least 1x1"),
    (HorizonLine(0.0, 1.0), -8, 6, "heatmap dimensions must be at least 1x1"),
]


@pytest.mark.parametrize("line, width, height, message", REJECTED,
                         ids=[f"line{i}-{w}-{h}" for i, (_, w, h, _) in enumerate(REJECTED)])
def test_horizon_pgm_rejects_what_rasterize_rejects(line, width, height, message, tmp_path):
    """A non-finite line or an empty image, the size checked first; the
    writer raises the same error before it opens the file."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        horizon_pgm(line, width, height)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        write_horizon_pgms([tmp_path / "x.pgm"], HorizonLine([line.k_h], [line.b_h]), width,
                           height)
    assert not (tmp_path / "x.pgm").exists()


# values near [0, 1], a pixel's rounding tie or step, and the whole finite range
grids = st.integers(1, 24).flatmap(lambda h: st.integers(1, 24).flatmap(
    lambda w: arrays(float, (h, w), elements=st.one_of(
        st.sampled_from([0.0, 0.5 / 255.0, 1.5 / 255.0, 0.25, 1.0]),
        st.floats(-0.5, 1.5, **finite),
        st.integers(-2, 257).flatmap(lambda n: st.sampled_from([n / 255.0,
                                                                (n + 0.5) / 255.0])),
        st.floats(**finite)))))


@given(grids)
def test_pgm_encode_decode_match_references(grid):
    """Any 8-bit P5 file reads back as a read-only view of its pixel bytes."""
    data = pgm_encode_reference(grid)
    back = heatmap_from_pgm(data)
    assert back.dtype == np.uint8
    assert not back.flags.writeable
    assert (back / 255.0).tobytes() == pgm_decode_reference(data).tobytes()


def assert_near_polyfit(line, grid):
    """line within 1e-9 px, over the grid's columns, of np.polyfit's line
    through the peaks of the float grid."""
    old, _ = fit_reference(grid, line_fit=polyfit_line)
    assert gap_px(line, old, grid.shape[1]) <= 1e-9


# few distinct pixels, so columns tie on their peak and have flat tops
tie_grids = st.integers(1, 12).flatmap(lambda h: st.integers(1, 16).flatmap(
    lambda w: arrays(np.uint8, (h, w), elements=st.sampled_from([0, 0, 26, 128, 255]))))


@given(tie_grids)
def test_fit_horizon_matches_reference(grid):
    try:
        expected = fit_reference(grid / 255.0)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            fit_horizon(grid)
        return
    line, info = fit_horizon(grid, with_info=True)
    assert repr(line) == repr(expected[0])
    assert (info.columns_used, info.rms_residual, info.degraded) == expected[1]
    assert_near_polyfit(line, grid / 255.0)


@given(st.one_of(
    st.builds(rasterize_reference, lines, st.integers(1, 60), st.integers(1, 40),
              st.just(2.0)),
    tie_grids.map(lambda pixels: pixels / 255.0)).map(pgm_encode_reference))
def test_fit_horizon_of_pgm_matches_float_decode(data):
    """The fit reads the uint8 pixels exactly as the float grid they decode to."""
    try:
        expected = fit_reference(pgm_decode_reference(data))
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            fit_horizon(heatmap_from_pgm(data))
        return
    line, info = fit_horizon(heatmap_from_pgm(data), with_info=True)
    assert repr(line) == repr(expected[0])
    assert repr((info.columns_used, info.rms_residual, info.degraded)) == repr(expected[1])
    assert_near_polyfit(line, pgm_decode_reference(data))


whitespace = st.text(" \t\n\r\v\f", min_size=1, max_size=3)
# a Netpbm comment runs from '#' to the end of its line
comment = st.tuples(st.sampled_from(["#", "# written by another tool 255"]),
                    st.sampled_from("\n\r")).map("".join)
separator = st.lists(st.one_of(whitespace, comment), min_size=1, max_size=3).map("".join)
number = st.integers(1, 12).flatmap(lambda n: st.tuples(
    st.just(n), st.sampled_from(["{}", "0{}", "00{}"])))


@given(number, number, separator, separator, separator, st.sampled_from(" \t\n\r\v\f"),
       st.randoms(use_true_random=False))
def test_pgm_pixels_write_back_unchanged(width, height, sep1, sep2, sep3, last, rnd):
    """Any valid P5 file, comments between its header tokens included,
    reads back and encodes as the same pixel bytes under the canonical
    header, so a canonical file is written back as is."""
    (w, w_fmt), (h, h_fmt) = width, height
    body = rnd.randbytes(w * h)
    header = f"P5{sep1}{w_fmt.format(w)}{sep2}{h_fmt.format(h)}{sep3}255{last}"
    canonical = f"P5\n{w} {h}\n255\n".encode("ascii") + body
    for data in (header.encode("ascii") + body, canonical):
        pixels = heatmap_from_pgm(data)
        assert pixels.shape == (h, w)
        assert pgm_encode_reference(pixels / 255.0) == canonical
