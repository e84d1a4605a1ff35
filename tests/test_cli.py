"""Command line behavior: outputs, determinism, config handling."""

import builtins
import math
import os
import re
import subprocess
import sys
import tempfile
import threading
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import adsr_level, envelope_strip
from timbrecolor import cli, gesture, synth
from timbrecolor.cli import (
    SQUARE_SIZE,
    SQUARES_PER_ROW,
    _adjacent_distances,
    _fm_path_rows,
    _full_span_distance,
    _squares_image,
    build_index_grid,
    main,
)
from timbrecolor.color import (
    OctaveMap,
    spectrum_to_xyz,
    standard_observer,
    xyz_to_srgb,
)
from timbrecolor.gesture import parse_gesture
from timbrecolor.ppm import read_ppm
from timbrecolor.spectrum import fm_sidebands, fold_spectrum
from timbrecolor.synth import (
    FMParams,
    SampledWave,
    analyze_harmonics,
    render_fm_path,
    render_fm_wave,
)
from timbrecolor.wavefile import read_wav, write_wav


@pytest.fixture(scope="module")
def tone(tmp_path_factory):
    """0.05 s of a 440 Hz tone, the wav2color input of TestEdgeValues and TestFaultTable."""
    path = tmp_path_factory.mktemp("edge") / "tone.wav"
    t = np.arange(2205) / 44100
    write_wav(SampledWave(44100, 0.5 * np.sin(2.0 * math.pi * 440.0 * t)), path)
    return path


def run_fm_path(tmp_path, *extra):
    tmp_path.mkdir(parents=True, exist_ok=True)
    args = [
        "fm-path",
        "--i-end", "1.0",
        "--i-step", "0.25",
        "--seg-dur", "0.02",
        "--out-wav", str(tmp_path / "p.wav"),
        "--out-img", str(tmp_path / "p.ppm"),
        "--out-csv", str(tmp_path / "p.csv"),
        *extra,
    ]
    assert main(args) == 0
    return tmp_path


class TestIndexGrid:
    def test_default_grid_has_201_points(self):
        grid = build_index_grid(0.0, 20.0, 0.1)
        assert len(grid) == 201
        assert grid[0] == 0.0
        assert grid[-1] == pytest.approx(20.0, abs=1e-12)

    def test_single_point_grid(self):
        assert build_index_grid(2.0, 2.0, 0.1) == [2.0]

    def test_validation(self):
        with pytest.raises(ValueError):
            build_index_grid(0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            build_index_grid(1.0, 0.0, 0.1)

    def test_grid_stops_at_the_end(self):
        assert build_index_grid(0.0, 1.0, 0.6) == [0.0, 0.6]
        assert build_index_grid(0.0, 1.0, 0.25) == [0.0, 0.25, 0.5, 0.75, 1.0]

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(min_value=0.0, max_value=100.0),
        st.floats(min_value=0.0, max_value=100.0),
        st.floats(min_value=1e-3, max_value=10.0),
    )
    def test_last_point_is_the_last_one_within_the_end(self, start, span, step):
        end = start + span
        last = build_index_grid(start, end, step)[-1]
        assert last <= end + 1e-9 * step
        assert last + step > end


RGB_LISTS = st.lists(
    st.tuples(*[st.integers(min_value=0, max_value=255)] * 3), min_size=1, max_size=40
)


class TestFullSpanDistance:
    @settings(max_examples=100, deadline=None)
    @given(RGB_LISTS)
    def test_matches_bruteforce_pairwise_distance(self, triples):
        brute = max(
            math.sqrt(sum((u - v) ** 2 for u, v in zip(a, b)))
            for a in triples
            for b in triples
        )
        assert _full_span_distance(np.array(triples, dtype=np.int64)) == brute


def unique_span(rgb):
    """The full-span metric over np.unique(axis=0) rows: the reference."""
    points = np.unique(np.asarray(rgb, dtype=np.int64).reshape(-1, 3), axis=0)
    widest = 0
    for i in range(len(points) - 1):
        widest = max(widest, int(np.sum((points[i + 1 :] - points[i]) ** 2, axis=1).max()))
    return math.sqrt(widest)


class TestFullSpanTiles:
    """The tiled span equals the reference across tile edges."""

    @pytest.mark.parametrize("block", [7, cli._BLOCK_INDICES])
    def test_off_diagonal_tiles(self, monkeypatch, block):
        monkeypatch.setattr(cli, "_BLOCK_INDICES", block)
        rng = np.random.default_rng(17)
        rgb = rng.integers(0, 256, (4 * cli._BLOCK_INDICES, 3))
        assert len({tuple(row) for row in rgb.tolist()}) > 2 * cli._BLOCK_INDICES
        assert _full_span_distance(rgb) == unique_span(rgb)

    def test_the_widest_pair_in_two_tiles(self, monkeypatch):
        monkeypatch.setattr(cli, "_BLOCK_INDICES", 7)  # black in the first tile, white in the second
        grays = [[v, v, v] for v in range(100, 140, 4)]
        rgb = np.array([[255, 255, 255], *grays, [0, 0, 0], *grays])
        assert _full_span_distance(rgb) == unique_span(rgb) == math.sqrt(3 * 255**2)

    def test_one_repeated_color(self):
        rgb = np.array([[12, 34, 56]] * (3 * cli._BLOCK_INDICES))
        assert _full_span_distance(rgb) == unique_span(rgb) == 0.0


class TestFullSpanWithoutUnique:
    @pytest.mark.parametrize("seed", range(6))
    def test_equals_the_unique_reference_on_sets_with_repeats(self, seed):
        rng = np.random.default_rng(seed)
        palette = rng.integers(0, 256, (rng.integers(1, 30), 3))
        rgb = palette[rng.integers(0, len(palette), 500)]
        assert _full_span_distance(rgb) == unique_span(rgb)

    @pytest.mark.parametrize(
        "rgb",
        [[[7, 7, 7]] * 5, [[0, 0, 0]], [[0, 0, 0], [255, 255, 255]], [[1, 2, 3], [3, 2, 1]] * 3],
        ids=["one-color-repeated", "one-row", "two-colors", "two-colors-repeated"],
    )
    def test_equals_the_unique_reference_on_one_or_two_colors(self, rgb):
        assert _full_span_distance(np.array(rgb, dtype=np.int64)) == unique_span(rgb)

    def test_fm_path_does_not_import_numpy_ma(self, tmp_path):
        src = Path(cli.__file__).resolve().parents[1]
        code = (
            "import sys\n"
            "from timbrecolor.cli import main\n"
            "assert main(['fm-path', '--i-end', '1', '--i-step', '0.5', '--seg-dur', '0.01',"
            " '--out-wav', 'p.wav', '--out-img', 'p.ppm', '--out-csv', 'p.csv']) == 0\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(src)}
        done = subprocess.run(
            [sys.executable, "-c", code], cwd=tmp_path, env=env,
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "False"
        assert (tmp_path / "p.wav").stat().st_size == 44 + 2 * 3 * 441

    def test_importing_the_cli_loads_no_thread_pool_or_logging(self):
        # fm-path imports its render pool when it renders: importing stays cheap
        src = Path(cli.__file__).resolve().parents[1]
        code = "import sys, timbrecolor.cli\nprint(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))\n"
        done = subprocess.run(
            [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "[]"


class TestAdjacentDistances:
    @settings(max_examples=100, deadline=None)
    @given(RGB_LISTS)
    def test_matches_bruteforce_consecutive_pairs(self, triples):
        brute = [
            math.sqrt(sum((u - v) ** 2 for u, v in zip(a, b)))
            for a, b in zip(triples, triples[1:])
        ]
        got = _adjacent_distances(np.array(triples, dtype=np.int64))
        assert got.tolist() == brute
        assert float(np.max(got, initial=0.0)) == max(brute, default=0.0)

    def test_single_color_has_no_steps(self):
        got = _adjacent_distances(np.array([[10, 20, 30]], dtype=np.int64))
        assert got.shape == (0,)
        assert float(np.max(got, initial=0.0)) == 0.0


class TestSquaresImage:
    @pytest.mark.parametrize("count", [1, 5, 16, 17, 40])
    def test_matches_square_by_square_painting(self, count):
        rgb = np.random.default_rng(count).integers(0, 256, (count, 3))
        cols = min(SQUARES_PER_ROW, count)
        rows = -(-count // SQUARES_PER_ROW)
        want = np.zeros((rows * SQUARE_SIZE, cols * SQUARE_SIZE, 3), dtype=np.uint8)
        for n, color in enumerate(rgb):
            r, c = divmod(n, SQUARES_PER_ROW)
            rows_px = slice(r * SQUARE_SIZE, (r + 1) * SQUARE_SIZE)
            want[rows_px, c * SQUARE_SIZE : (c + 1) * SQUARE_SIZE] = color
        got = _squares_image(rgb)
        assert got.dtype == np.uint8
        assert np.array_equal(got, want)


class TestFMPathCommand:
    def test_csv_matches_library_pipeline(self, tmp_path):
        run_fm_path(tmp_path)
        rows = (tmp_path / "p.csv").read_text().splitlines()
        assert rows[0] == "I,X,Y,Z,R,G,B"
        grid = build_index_grid(0.0, 1.0, 0.25)
        assert len(rows) == 1 + len(grid)
        octave = OctaveMap()
        cmf = standard_observer()
        for row, index in zip(rows[1:], grid):
            folded = fold_spectrum(fm_sidebands(440.0, 880.0, index))
            xyz = spectrum_to_xyz(folded, octave, cmf)
            srgb = xyz_to_srgb(xyz)
            want = (
                f"{index:.6f},{xyz.x:.6f},{xyz.y:.6f},{xyz.z:.6f},"
                f"{srgb.r},{srgb.g},{srgb.b}"
            )
            assert row == want

    def test_wav_holds_the_rendered_sweep(self, tmp_path):
        run_fm_path(tmp_path)
        wave = read_wav(tmp_path / "p.wav")
        assert wave.sample_rate == 44100
        assert len(wave.samples) == 5 * 882

    def test_image_layout(self, tmp_path):
        run_fm_path(tmp_path)
        image = read_ppm(tmp_path / "p.ppm")
        assert image.shape == (32, 5 * 32, 3)
        rows = (tmp_path / "p.csv").read_text().splitlines()[1:]
        for n, row in enumerate(rows):
            r, g, b = (int(v) for v in row.split(",")[4:])
            square = image[:, n * 32 : (n + 1) * 32]
            assert np.all(square == (r, g, b))

    def test_image_pads_incomplete_rows_with_black(self, tmp_path):
        run_fm_path(
            tmp_path, "--i-end", "4.25", "--i-step", "0.25", "--seg-dur", "0.005"
        )
        image = read_ppm(tmp_path / "p.ppm")
        # 18 squares: 16 across, 2 on a second row, 14 black pads
        assert image.shape == (64, 512, 3)
        assert np.all(image[32:, 2 * 32 :] == 0)

    def test_log_contents(self, tmp_path):
        run_fm_path(tmp_path)
        log = (tmp_path / "p.log").read_text().splitlines()
        assert log[0] == "command: fm-path"
        joined = "\n".join(log)
        assert "grid_rows: 5" in joined
        assert "segment_samples: 882" in joined
        assert "total_samples: 4410" in joined
        assert sum(1 for line in log if line.startswith("I=")) == 5
        assert any(line.startswith("max_adjacent_srgb_distance:") for line in log)
        assert any(line.startswith("full_span_srgb_distance:") for line in log)

    def test_log_path_override(self, tmp_path):
        run_fm_path(tmp_path, "--out-log", str(tmp_path / "custom.txt"))
        assert (tmp_path / "custom.txt").exists()
        assert not (tmp_path / "p.log").exists()

    def test_byte_identical_reruns(self, tmp_path):
        a = run_fm_path(tmp_path / "a")
        b = run_fm_path(tmp_path / "b")
        for name in ("p.wav", "p.csv", "p.ppm", "p.log"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_flip_orientation_changes_colors(self, tmp_path):
        plain = run_fm_path(tmp_path / "plain")
        flipped = run_fm_path(tmp_path / "flip", "--flip-orientation")
        assert (plain / "p.csv").read_text() != (flipped / "p.csv").read_text()

    @pytest.mark.parametrize(
        "step, message",
        [
            ("0.0005", "size guard: 176404410 samples exceeds cap 100000000"),
            ("1e-9", "size guard: "),
            ("1e-320", "has too many points"),
        ],
    )
    def test_oversized_sweep_fails_before_any_color_work(
        self, tmp_path, monkeypatch, capsys, step, message
    ):
        def never(*args, **kwargs):
            raise AssertionError("grid or color rows built for an oversized sweep")

        # a guard that runs late would build 2e10 grid points for 1e-9
        monkeypatch.setattr(cli, "_fm_path_rows", never)
        monkeypatch.setattr(cli, "build_index_grid", never)
        args = [
            "fm-path",
            "--i-step", step,
            "--out-wav", str(tmp_path / "p.wav"),
            "--out-img", str(tmp_path / "p.ppm"),
            "--out-csv", str(tmp_path / "p.csv"),
        ]
        assert main(args) == 2
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_index_past_1000_fails_before_any_color_row(self, tmp_path, monkeypatch, capsys):
        def never(*args, **kwargs):
            raise AssertionError("color rows built for a sweep past the Bessel domain")

        monkeypatch.setattr(cli, "_fm_path_rows", never)
        args = [
            "fm-path",
            "--i-end", "2000",
            "--i-step", "1",
            "--seg-dur", "0.001",
            "--out-wav", str(tmp_path / "p.wav"),
            "--out-img", str(tmp_path / "p.ppm"),
            "--out-csv", str(tmp_path / "p.csv"),
        ]
        assert main(args) == 2
        assert capsys.readouterr().err == "error: Bessel argument 1001.0 exceeds supported maximum 1000.0\n"
        assert list(tmp_path.iterdir()) == []


class TestStreamedWav:
    @pytest.mark.parametrize(
        "i_start, i_end, seg_dur, rate",
        [
            (0.0, 1.0, 0.02, 44100),  # 4410 samples, less than one block
            (0.0, 1.75, 24576 / 44100, 44100),  # exactly 3 blocks
            (0.0, 1.0, 1.5, 44100),  # 66150-sample segments, longer than a block
            (3.0, 3.0, 2.0, 44100),  # a single index
            (0.0, 1.0, 3.0, 8000),
        ],
    )
    def test_streamed_file_equals_the_one_buffer_write(self, tmp_path, i_start, i_end, seg_dur, rate):
        run_fm_path(
            tmp_path, "--i-start", repr(i_start), "--i-end", repr(i_end),
            "--seg-dur", repr(seg_dur), "--rate", str(rate),
        )
        wave = render_fm_path(440.0, 880.0, build_index_grid(i_start, i_end, 0.25), seg_dur, rate)
        write_wav(wave, tmp_path / "one.wav")
        assert (tmp_path / "p.wav").read_bytes() == (tmp_path / "one.wav").read_bytes()
        log = (tmp_path / "p.log").read_text().splitlines()
        assert f"total_samples: {len(wave.samples)}" in log
        assert f"duration_sec: {wave.duration_sec:.6f}" in log

    def test_peak_memory_stays_far_below_the_whole_sweep(self, tmp_path):
        # 41 segments of 44100 samples: the whole sweep in float64 is 14.4 MB
        whole = 41 * 44100 * 8
        tracemalloc.start()
        try:
            run_fm_path(tmp_path, "--i-end", "20", "--i-step", "0.5", "--seg-dur", "1.0")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert read_wav(tmp_path / "p.wav").samples.size == 41 * 44100
        assert peak < whole / 4

    def test_carrier_above_nyquist_writes_no_wav(self, tmp_path, capsys):
        args = [
            "fm-path", "--fc", "30000",
            "--out-wav", str(tmp_path / "p.wav"),
            "--out-img", str(tmp_path / "p.ppm"),
            "--out-csv", str(tmp_path / "p.csv"),
        ]
        assert main(args) == 2
        assert capsys.readouterr().err == "error: carrier must lie in (0, Nyquist), got 30000.0\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--fc", "30000", "carrier must lie in (0, Nyquist), got 30000.0"),
            ("--fm", "30000", "modulator must lie in (0, Nyquist), got 30000.0"),
            ("--fm", "1e308", "modulator must lie in (0, Nyquist), got 1e+308"),
            ("--fc", "-1", "carrier must lie in (0, Nyquist), got -1.0"),
            ("--i-start", "-1", "modulation indices must be >= 0, got -1.0"),
        ],
        ids=["fc-30000", "fm-30000", "fm-1e308", "fc-negative", "i-start-negative"],
    )
    def test_the_sweep_is_checked_before_any_color_row(
        self, tmp_path, capsys, monkeypatch, flag, value, message
    ):
        calls = []
        rows = cli._fm_path_rows
        monkeypatch.setattr(cli, "_fm_path_rows", lambda *args: calls.append(args) or rows(*args))
        args = [
            "fm-path", flag, value, "--i-step", "0.01",
            "--out-wav", str(tmp_path / "p.wav"),
            "--out-img", str(tmp_path / "p.ppm"),
            "--out-csv", str(tmp_path / "p.csv"),
        ]
        assert main(args) == 2
        assert calls == []
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    def test_a_refused_color_row_starts_no_render_thread(self, tmp_path, capsys, monkeypatch):
        def refuse(*_args):
            raise ValueError("no colors")

        monkeypatch.setattr(cli, "_fm_path_rows", refuse)
        before = threading.enumerate()
        assert main(["fm-path", "--out-wav", str(tmp_path / "p.wav")]) == 2
        assert threading.enumerate() == before
        assert capsys.readouterr().err == "error: no colors\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("rate", [2**31, 2**32])
    def test_a_rate_past_the_wav_limit_writes_no_file(self, tmp_path, capsys, rate):
        args = [
            "fm-path", "--rate", str(rate), "--seg-dur", "1e-9",
            "--out-wav", str(tmp_path / "p.wav"),
            "--out-img", str(tmp_path / "p.ppm"),
            "--out-csv", str(tmp_path / "p.csv"),
        ]
        assert main(args) == 2
        assert capsys.readouterr().err == (
            f"error: sample rate {rate} exceeds the WAV limit of 2147483647\n"
        )
        assert list(tmp_path.iterdir()) == []

    def test_a_rate_past_the_wav_limit_builds_no_color_row(self, tmp_path, capsys, monkeypatch):
        # 20 001 color rows would be built, and thrown away, by a late check
        calls = []
        monkeypatch.setattr(cli, "_fm_path_rows", lambda *args: calls.append(args))
        args = [
            "fm-path", "--rate", "2147483648", "--seg-dur", "1e-9", "--i-step", "0.001",
            "--out-wav", str(tmp_path / "p.wav"),
            "--out-img", str(tmp_path / "p.ppm"),
            "--out-csv", str(tmp_path / "p.csv"),
        ]
        assert main(args) == 2
        assert calls == []
        assert capsys.readouterr().err == (
            "error: sample rate 2147483648 exceeds the WAV limit of 2147483647\n"
        )
        assert list(tmp_path.iterdir()) == []


def chain_rows(fc, fm, grid, octave, cmf):
    """_fm_path_rows's four arrays, one index at a time through the public
    fm_sidebands, fold_spectrum, spectrum_to_xyz and xyz_to_srgb."""
    xyz, rgb, orders, weights = [], [], [], []
    for index in grid:
        raw = fm_sidebands(fc, fm, index)
        folded = fold_spectrum(raw)
        color = spectrum_to_xyz(folded, octave, cmf)
        srgb = xyz_to_srgb(color)
        xyz.append([color.x, color.y, color.z])
        rgb.append([srgb.r, srgb.g, srgb.b])
        orders.append((len(raw) - 1) // 2)
        weight = 0.0  # in line order, as the color's normalizer adds it
        for amplitude in folded.amplitudes.tolist():
            weight += abs(amplitude)
        weights.append(weight)
    return np.array(xyz), np.array(rgb), np.array(orders), np.array(weights)


# (fc, fm, start, end, step, base, flip): the fm-path settings whose outputs
# are compared byte for byte across changes, some grids made coarser
SWEEPS = [
    (440.0, 880.0, 0.0, 20.0, 0.1, 440.0, False),
    (440.0, 880.0, 0.0, 20.0, 0.1, 261.63, True),
    (1000.0, 250.0, 0.003, 12.003, 0.07, 440.0, False),
    (100.0, 137.3, 0.0, 100.0, 0.5, 440.0, False),
    (523.25, 1e-10, 0.0, 2.0, 0.5, 440.0, False),
    (20.0, 19999.0, 0.0, 5.0, 0.25, 20000.0, False),
    (440.0, 880.0, 3.0, 3.0, 0.1, 440.0, False),
    (300.0, 300.0, 0.0, 30.0, 0.15, 440.0, False),
    (440.0, 3e-13, 0.0, 40.0, 0.37, 440.0, False),
]


class TestFMPathRows:
    @pytest.mark.parametrize("block", [7, cli._BLOCK_INDICES])
    @pytest.mark.parametrize("sweep", SWEEPS, ids=lambda s: f"fc{s[0]}-fm{s[1]}-step{s[4]}")
    def test_rows_equal_the_one_index_chain(self, monkeypatch, sweep, block):
        fc, fm, start, end, step, base, flip = sweep
        monkeypatch.setattr(cli, "_BLOCK_INDICES", block)
        grid = build_index_grid(start, end, step)
        octave, cmf = OctaveMap(base_hz=base, flip=flip), standard_observer()
        got = _fm_path_rows(fc, fm, grid, octave, cmf)
        for have, want in zip(got, chain_rows(fc, fm, grid, octave, cmf)):
            assert have.dtype == want.dtype and np.array_equal(have, want)

    def test_grid_longer_than_a_block_and_not_a_multiple(self):
        grid = build_index_grid(0.003, 16.003, 0.05)
        assert len(grid) > cli._BLOCK_INDICES and len(grid) % cli._BLOCK_INDICES
        octave, cmf = OctaveMap(), standard_observer()
        got = _fm_path_rows(440.0, 880.0, grid, octave, cmf)
        for have, want in zip(got, chain_rows(440.0, 880.0, grid, octave, cmf)):
            assert np.array_equal(have, want)


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# sweep settings\n"
            "i-end = 0.5\n"
            "i_step = 0.25\n"
            "seg-dur = 0.02\n"
        )
        args = [
            "fm-path",
            "--config", str(cfg),
            "--out-wav", str(tmp_path / "q.wav"),
            "--out-img", str(tmp_path / "q.ppm"),
            "--out-csv", str(tmp_path / "q.csv"),
        ]
        assert main(args) == 0
        rows = (tmp_path / "q.csv").read_text().splitlines()
        assert len(rows) == 1 + 3

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("i-end = 0.5\ni-step = 0.25\nseg-dur = 0.02\n")
        args = [
            "fm-path",
            "--config", str(cfg),
            "--i-end", "0.25",
            "--out-wav", str(tmp_path / "q.wav"),
            "--out-img", str(tmp_path / "q.ppm"),
            "--out-csv", str(tmp_path / "q.csv"),
        ]
        assert main(args) == 0
        rows = (tmp_path / "q.csv").read_text().splitlines()
        assert len(rows) == 1 + 2

    def test_unknown_key_fails(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("i-end = 0.5\nvolume = 11\n")
        assert main(["fm-path", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "volume" in err

    def test_malformed_line_fails(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("i-end 0.5\n")
        assert main(["fm-path", "--config", str(cfg)]) == 2
        assert "key=value" in capsys.readouterr().err

    def test_bad_value_type_fails(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("rate = fast\n")
        assert main(["fm-path", "--config", str(cfg)]) == 2
        assert "rate" in capsys.readouterr().err

    def test_boolean_values(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("flip-orientation = true\ni-end=0.25\ni-step=0.25\nseg-dur=0.02\n")
        out = tmp_path / "with_cfg"
        out.mkdir()
        args = [
            "fm-path", "--config", str(cfg),
            "--out-wav", str(out / "p.wav"),
            "--out-img", str(out / "p.ppm"),
            "--out-csv", str(out / "p.csv"),
        ]
        assert main(args) == 0
        flag_dir = run_fm_path(
            tmp_path / "with_flag", "--i-end", "0.25", "--flip-orientation"
        )
        assert (out / "p.csv").read_text() == (flag_dir / "p.csv").read_text()

    @pytest.mark.parametrize("value", ["false", "False", "0", "no", "off"])
    def test_a_false_boolean_gives_the_bytes_of_no_flag(self, tmp_path, value):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"flip-orientation={value}\n")
        with_cfg = run_fm_path(tmp_path / "with_cfg", "--config", str(cfg))
        without = run_fm_path(tmp_path / "without")
        flipped = run_fm_path(tmp_path / "flipped", "--flip-orientation")
        for name in ("p.wav", "p.ppm", "p.csv", "p.log"):
            assert (with_cfg / name).read_bytes() == (without / name).read_bytes()
        assert (flipped / "p.csv").read_bytes() != (without / "p.csv").read_bytes()

    def test_a_boolean_that_is_neither_is_refused(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("i-end=0.5\nflip-orientation=maybe\n")
        assert main(["fm-path", "--config", str(cfg), "--out-wav", str(tmp_path / "p.wav")]) == 2
        assert capsys.readouterr().err == (
            "error: config line 2: boolean key 'flip-orientation' got 'maybe'\n"
        )
        assert sorted(path.name for path in tmp_path.iterdir()) == ["run.cfg"]


class TestWav2ColorCommand:
    def make_wave(self, tmp_path, index=2.0):
        wave = render_fm_wave(FMParams(440.0, 880.0, index), 0.25, 44100)
        path = tmp_path / "in.wav"
        write_wav(wave, path)
        return path, wave

    def test_csv_blocks_match_library_route(self, tmp_path, capsys):
        path, wave = self.make_wave(tmp_path)
        out_csv = tmp_path / "c.csv"
        out_img = tmp_path / "c.ppm"
        args = [
            "wav2color",
            "--in", str(path),
            "--fundamental", "440",
            "--max-harmonic", "27",
            "--out-csv", str(out_csv),
            "--out-img", str(out_img),
        ]
        assert main(args) == 0
        blocks = out_csv.read_text().split("\n\n")
        assert len(blocks) == 2
        line_rows = blocks[0].splitlines()
        assert line_rows[0] == "frequency,amplitude,phase"

        decoded = read_wav(path)
        spectrum = analyze_harmonics(decoded, 440.0, 27)
        assert len(line_rows) == 1 + len(spectrum.lines)
        for row, line in zip(line_rows[1:], spectrum.lines):
            assert row == (
                f"{line.frequency:.6f},{line.amplitude:.6f},{line.phase:.6f}"
            )

        xyz = spectrum_to_xyz(spectrum, OctaveMap(), standard_observer())
        srgb = xyz_to_srgb(xyz)
        color_rows = blocks[1].splitlines()
        assert color_rows[0] == "X,Y,Z,R,G,B"
        assert color_rows[1] == (
            f"{xyz.x:.6f},{xyz.y:.6f},{xyz.z:.6f},{srgb.r},{srgb.g},{srgb.b}"
        )

        swatch = read_ppm(out_img)
        assert swatch.shape == (64, 64, 3)
        assert np.all(swatch == (srgb.r, srgb.g, srgb.b))
        assert capsys.readouterr().out == (
            f"wav2color: {len(spectrum.lines)} lines -> "
            f"#{srgb.r:02X}{srgb.g:02X}{srgb.b:02X} ({out_csv}, {out_img})\n"
        )

    def test_silence_exits_with_an_error(self, tmp_path, capsys):
        silent = SampledWave(sample_rate=44100, samples=np.zeros(22050))
        path = tmp_path / "silence.wav"
        write_wav(silent, path)
        # the degeneracy is detected before any output file is opened
        args = ["wav2color", "--in", str(path), "--fundamental", "440"]
        assert main(args) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_required_flag(self, tmp_path, capsys):
        path, _ = self.make_wave(tmp_path)
        assert main(["wav2color", "--in", str(path)]) == 2
        assert "--fundamental" in capsys.readouterr().err

    def test_missing_file_reports_cleanly(self, capsys):
        args = ["wav2color", "--in", "nope.wav", "--fundamental", "440"]
        assert main(args) == 2
        assert "error:" in capsys.readouterr().err

    def test_peak_memory_does_not_grow_with_the_input(self, tmp_path):
        # 10 s and 60 s at 440 Hz: the fold keeps 2205 samples, the reader one block
        peaks = []
        for seconds in (10, 60):
            t = np.arange(seconds * 44100, dtype=np.float64) / 44100
            write_wav(SampledWave(sample_rate=44100, samples=0.8 * np.sin(2 * math.pi * 440.0 * t)), tmp_path / "in.wav")
            del t
            args = ["wav2color", "--in", str(tmp_path / "in.wav"), "--fundamental", "440",
                    "--out-csv", str(tmp_path / "c.csv"), "--out-img", str(tmp_path / "c.ppm")]
            tracemalloc.start()
            try:
                assert main(args) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) < 2**20


class TestOverflowingDurations:
    def test_fm_path_refuses_a_segment_past_the_float_range(self, tmp_path, capsys):
        args = [
            "fm-path", "--seg-dur", "1e308",
            "--out-wav", str(tmp_path / "p.wav"),
            "--out-img", str(tmp_path / "p.ppm"),
            "--out-csv", str(tmp_path / "p.csv"),
        ]
        assert main(args) == 2
        assert capsys.readouterr().err == "error: segment duration 1e+308 s overflows at 44100 Hz\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("stage", ["attack", "decay", "sustain", "release"])
    def test_envelope_transfer_refuses_a_strip_past_the_float_range(self, tmp_path, capsys, stage):
        args = [
            "envelope-transfer", "--color", "808080", f"--{stage}", "1e308",
            "--out-gesture", str(tmp_path / "g.txt"), "--out-img", str(tmp_path / "s.ppm"),
        ]
        assert main(args) == 2
        assert capsys.readouterr().err.startswith("error: envelope of 1e+308 s is too long")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.filterwarnings("error")
    def test_envelope_transfer_draws_the_longest_strip_that_fits(self, tmp_path):
        # 1e305 s: every sample time, up to 511.5 / 512 of the total, stays finite
        args = [
            "envelope-transfer", "--color", "808080", "--attack", "1e305",
            "--out-gesture", str(tmp_path / "g.txt"), "--out-img", str(tmp_path / "s.ppm"),
        ]
        assert main(args) == 0
        strip = read_ppm(tmp_path / "s.ppm")
        assert strip[0, 0].tolist() == [0, 0, 0] and strip[0, 511].tolist() == [128, 128, 128]


EDGE_VALUES = ["0", "-0.0", "-1", "5e-324", "1e-300", "1e308", "inf", "-inf", "nan"]
# every numeric flag of each subcommand, at the small value it keeps while another is at an edge
EDGE_SETTINGS = {
    "fm-path": {
        "fc": "440", "fm": "880", "i-start": "0", "i-end": "1", "i-step": "0.1",
        "base": "440", "rate": "8000", "seg-dur": "0.01",
    },
    "wav2color": {"fundamental": "440", "max-harmonic": "32", "base": "440"},
    "envelope-transfer": {
        "attack": "0.05", "decay": "0.15", "sustain-level": "0.7", "sustain": "0.4",
        "release": "0.3", "samples-per-segment": "2",
    },
}
EDGE_CASES = [
    (command, flag, value, via)
    for command, flags in EDGE_SETTINGS.items()
    for flag in flags
    for value in EDGE_VALUES
    for via in ("flag", "config")
]


class TestEdgeValues:
    """Each numeric flag at the edges of the float range, given as a flag and
    through --config, with warnings as errors: exit 0 with nothing on stderr,
    or exit 2 with an error line."""

    def test_the_table_names_every_numeric_flag(self):
        options = {
            "fm-path": cli._FM_PATH_OPTIONS,
            "wav2color": cli._WAV2COLOR_OPTIONS,
            "envelope-transfer": cli._ENVELOPE_OPTIONS,
        }
        for command, specs in options.items():
            numeric = [opt.name for opt in specs if opt.kind in (int, float)]
            assert sorted(numeric) == sorted(EDGE_SETTINGS[command])
        assert len(EDGE_CASES) == 306

    def argv(self, command, tmp_path, tone, settings):
        """command with small outputs in tmp_path, then --name=value per setting."""
        out = {name: str(tmp_path / name) for name in ("p.wav", "p.ppm", "p.csv", "g.txt", "s.ppm")}
        fixed = {
            "fm-path": ["--out-wav", out["p.wav"], "--out-img", out["p.ppm"], "--out-csv", out["p.csv"]],
            "wav2color": ["--in", str(tone), "--out-img", out["p.ppm"], "--out-csv", out["p.csv"]],
            "envelope-transfer": [
                "--color", "808080", "--out-gesture", out["g.txt"], "--out-img", out["s.ppm"]
            ],
        }[command]
        return [command, *fixed, *(f"--{name}={value}" for name, value in settings.items())]

    @pytest.mark.parametrize("command", EDGE_SETTINGS)
    def test_the_small_settings_run(self, tmp_path, capsys, tone, command):
        assert main(self.argv(command, tmp_path, tone, EDGE_SETTINGS[command])) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("command,flag,value,via", EDGE_CASES)
    def test_exit_0_or_an_error_line(self, tmp_path, capsys, tone, command, flag, value, via):
        small = {name: v for name, v in EDGE_SETTINGS[command].items() if name != flag}
        argv = self.argv(command, tmp_path, tone, small)
        if via == "flag":
            argv.append(f"--{flag}={value}")
        else:
            (tmp_path / "edge.cfg").write_text(f"{flag}={value}\n", encoding="ascii")
            argv += ["--config", str(tmp_path / "edge.cfg")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse refuses a value its type cannot convert
                code = exc.code
        err = capsys.readouterr().err
        if code == 0:
            assert err == ""
        else:
            assert code == 2
            assert re.search(r"(^|: )error: \S", err.splitlines()[-1]), err


# one fault of the FM voice per case: the carrier and the modulator at -1, 0,
# nan and inf, the index at -1, nan and inf, the other two values sound
VOICE_FAULTS = [
    (field, value)
    for field, values in (
        ("carrier", [-1.0, 0.0, math.nan, math.inf]),
        ("modulator", [-1.0, 0.0, math.nan, math.inf]),
        ("index", [-1.0, math.nan, math.inf]),
    )
    for value in values
]
VOICE_ENTRIES = ["FMParams", "fm_sidebands", "render_fm_path", "render_fm_wave", "fm-path"]


class TestVoiceFaults:
    """Every entry point refuses each fault of the FM voice with the one message
    of the shared check, before any sample is computed and without a numpy warning."""

    @staticmethod
    def expected(entry, field, value):
        if field == "index":
            if entry == "fm-path" and not math.isfinite(value):
                return "grid bounds and step must be finite"  # the grid is checked first
            return f"modulation indices must be >= 0, got {value!r}"
        if entry in ("FMParams", "fm_sidebands"):  # no sample rate is known
            return f"{field} must be positive, got {value!r}"
        return f"{field} must lie in (0, Nyquist), got {value!r}"

    @pytest.mark.parametrize("field, value", VOICE_FAULTS)
    @pytest.mark.parametrize("entry", VOICE_ENTRIES)
    def test_one_message_per_fault_before_any_sample(
        self, tmp_path, capsys, monkeypatch, entry, field, value
    ):
        voice = {"carrier": 440.0, "modulator": 880.0, "index": 1.0, field: value}
        fc, fm, index = voice["carrier"], voice["modulator"], voice["index"]
        samples = []
        monkeypatch.setattr(synth, "_fm_wave", lambda *args: samples.append(args))
        message = self.expected(entry, field, value)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if entry == "fm-path":
                args = [
                    "fm-path", f"--fc={fc!r}", f"--fm={fm!r}",
                    f"--i-start={index!r}", "--i-end=2", "--i-step=0.5", "--seg-dur=0.01",
                    "--out-wav", str(tmp_path / "p.wav"),
                    "--out-img", str(tmp_path / "p.ppm"),
                    "--out-csv", str(tmp_path / "p.csv"),
                ]
                assert main(args) == 2
                assert capsys.readouterr() == ("", f"error: {message}\n")
                assert list(tmp_path.iterdir()) == []
            else:
                # a params object that skipped FMParams' check reaches the render's own
                params = SimpleNamespace(carrier_hz=fc, modulator_hz=fm, modulation_index=index)
                call = {
                    "FMParams": lambda: FMParams(fc, fm, index),
                    "fm_sidebands": lambda: fm_sidebands(fc, fm, index),
                    "render_fm_path": lambda: render_fm_path(fc, fm, [index], 0.01, 44100),
                    "render_fm_wave": lambda: render_fm_wave(params, 0.01, 44100),
                }[entry]
                with pytest.raises(ValueError) as info:
                    call()
                assert str(info.value) == message
        assert caught == []
        assert samples == []

    def test_an_overflowing_top_sideband_is_refused(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match=r"^top sideband 440\.0 \+ 19 \* 1e\+308 Hz is not finite$"):
                fm_sidebands(440.0, 1e308, 5.0)
        assert caught == []

    def test_a_voice_at_index_zero_keeps_its_one_line(self):
        # the top sideband of index 0 is the carrier itself, whatever the modulator
        assert fm_sidebands(440.0, 1e308, 0.0) == [(440.0, 1.0)]


class TestEnvelopeTransferCommand:
    DEFAULTS = dict(attack=0.05, decay=0.15, sustain_level=0.7, sustain=0.4, release=0.3)

    def run(self, tmp_path, *extra):
        tmp_path.mkdir(parents=True, exist_ok=True)
        args = [
            "envelope-transfer",
            "--color", "20A0FF",
            "--out-gesture", str(tmp_path / "g.txt"),
            "--out-img", str(tmp_path / "strip.ppm"),
            *extra,
        ]
        assert main(args) == 0
        return tmp_path

    def test_gesture_file_parses_and_is_scaled_color(self, tmp_path):
        self.run(tmp_path)
        g = parse_gesture((tmp_path / "g.txt").read_text())
        assert g.digraph.vertex_count == 5
        assert g.dimension == 3
        d = self.DEFAULTS
        levels = [0.0, 1.0, d["sustain_level"], d["sustain_level"], 0.0]
        for point, level in zip(g.vertex_points, levels):
            want = np.array([0x20, 0xA0, 0xFF], dtype=float) * level
            assert np.allclose(point, want, atol=1e-12)

    def test_strip_matches_the_piecewise_envelope(self, tmp_path):
        self.run(tmp_path)
        strip = read_ppm(tmp_path / "strip.ppm")
        assert strip.shape == (32, 512, 3)
        d = self.DEFAULTS
        total = d["attack"] + d["decay"] + d["sustain"] + d["release"]
        base = (0x20, 0xA0, 0xFF)
        mismatches = 0
        for x in range(512):
            t = total * (x + 0.5) / 512.0
            level = adsr_level(
                t, d["attack"], d["decay"], d["sustain_level"],
                d["sustain"], d["release"],
            )
            want = [math.floor(level * c + 0.5) for c in base]
            got = strip[0, x].astype(int).tolist()
            assert np.all(strip[:, x] == strip[0, x])
            if got != want:
                mismatches += 1
                assert max(abs(a - b) for a, b in zip(got, want)) <= 1
        assert mismatches <= 2

    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"samples_per_segment": 2},
            {"attack": 1e-6, "decay": 3.0, "sustain": 0.001, "release": 7.5},
            {"sustain_level": 0.0},
            {"color": "000000"},
            {"color": "FFFFFF"},
        ],
    )
    def test_strip_equals_the_column_oracle(self, tmp_path, overrides):
        d = {**self.DEFAULTS, "color": "20A0FF", **overrides}
        self.run(tmp_path, *(
            arg for key, value in overrides.items()
            for arg in ("--" + key.replace("_", "-"), str(value))
        ))
        times = np.cumsum([0.0, d["attack"], d["decay"], d["sustain"], d["release"]])
        levels = [0.0, 1.0, d["sustain_level"], d["sustain_level"], 0.0]
        rgb = [int(d["color"][i:i + 2], 16) for i in (0, 2, 4)]
        want = envelope_strip(times, levels, rgb)
        assert (tmp_path / "strip.ppm").read_bytes() == b"P6\n512 32\n255\n" + want.tobytes()

    def test_hex_color_accepts_leading_hash(self, tmp_path):
        self.run(tmp_path, "--color", "#20A0FF")

    def test_bad_color_fails(self, tmp_path, capsys):
        args = ["envelope-transfer", "--color", "redish"]
        assert main(args) == 2
        assert "hex" in capsys.readouterr().err

    def test_deterministic_output(self, tmp_path):
        a = self.run(tmp_path / "a")
        b = self.run(tmp_path / "b")
        assert (a / "g.txt").read_bytes() == (b / "g.txt").read_bytes()
        assert (a / "strip.ppm").read_bytes() == (b / "strip.ppm").read_bytes()

    def test_samples_per_segment_flag(self, tmp_path):
        self.run(tmp_path, "--samples-per-segment", "4")
        g = parse_gesture((tmp_path / "g.txt").read_text())
        assert all(path.sample_count == 4 for path in g.arrow_paths)

    def test_peak_memory_is_a_small_multiple_of_the_path_arrays(self, tmp_path):
        samples = 50_000
        # four arrows, (time, amplitude) paths in and RGB paths out, float64
        path_bytes = 4 * samples * (2 + 3) * 8
        tracemalloc.start()
        try:
            self.run(tmp_path, "--samples-per-segment", str(samples))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (tmp_path / "g.txt").stat().st_size > path_bytes  # more text than paths
        assert peak < 1.5 * path_bytes

    def test_oversized_envelope_fails_before_any_path_is_built(self, tmp_path, monkeypatch, capsys):
        def never(*args, **kwargs):
            raise AssertionError("path samples built for an oversized envelope")

        monkeypatch.setattr(gesture.np, "linspace", never)
        args = [
            "envelope-transfer", "--color", "20A0FF", "--samples-per-segment", "10000000",
            "--out-gesture", str(tmp_path / "g.txt"), "--out-img", str(tmp_path / "s.ppm"),
        ]
        assert main(args) == 2
        assert "size guard: 40000000 path points exceeds cap 1000000" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestGestureWriter:
    """envelope-transfer writes its gesture text in two processes once the text's
    total weight passes cli._FORK_WEIGHT (3 * 4096): a forked child formats the
    pieces past half the total weight, this process the rest."""

    @staticmethod
    def run(tmp_path, samples, sustain_level="0.37", color="3b7fc2"):
        out = tmp_path / "g.txt"
        argv = [
            "envelope-transfer", "--color", color, "--sustain-level", sustain_level,
            "--samples-per-segment", str(samples),
            "--out-gesture", str(out), "--out-img", str(tmp_path / "s.ppm"),
        ]
        return main(argv), out

    @staticmethod
    def expected(samples, sustain_level="0.37", color="3b7fc2"):
        scale = np.array([int(color[i : i + 2], 16) for i in (0, 2, 4)], dtype=np.float64)
        envelope = gesture.adsr_gesture(1.0, float(sustain_level), [0.05, 0.15, 0.4, 0.3], samples)
        colorized = gesture._map_rows(lambda pts, _label: pts[:, 1:2] * scale, envelope)
        return gesture.serialize_gesture(colorized).encode("ascii")

    @pytest.fixture
    def forks(self, monkeypatch, tmp_path):
        """The os.fork calls, made with the temporary directory in tmp_path/tmp."""
        calls, fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: calls.append(1) or fork())
        (tmp_path / "tmp").mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
        return calls

    @staticmethod
    def assert_no_child_and_no_temporary_file(tmp_path):
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert list((tmp_path / "tmp").iterdir()) == []

    @pytest.mark.parametrize(
        "samples, sustain_level, color, forked",
        [
            (16, "0.37", "3b7fc2", []),  # the default size: weight 54, one process
            (4096, "0.37", "3b7fc2", [1]),  # one whole block per path: weight 12 294
            (4097, "0.37", "3b7fc2", [1]),  # a one-line block after each whole one
            (100_000, "0.37", "3b7fc2", [1]),  # the cut inside the decay, 25 blocks a path
            (3 * 4096 + 1, "1.0", "3b7fc2", [1]),  # the cut inside the constant decay
            (5000, "0.37", "000000", []),  # every piece a constant run of weight 1: 9 in all
        ],
    )
    def test_file_equals_serialize_gesture_at_the_split_edges(
        self, tmp_path, forks, samples, sustain_level, color, forked
    ):
        code, out = self.run(tmp_path, samples, sustain_level, color)
        assert code == 0
        assert forks == forked
        assert out.read_bytes() == self.expected(samples, sustain_level, color)
        self.assert_no_child_and_no_temporary_file(tmp_path)

    @pytest.mark.parametrize("samples", [16, 4097])
    def test_without_fork_one_process_writes_the_same_bytes(self, tmp_path, monkeypatch, samples):
        monkeypatch.delattr(os, "fork")
        code, out = self.run(tmp_path, samples)
        assert code == 0
        assert out.read_bytes() == self.expected(samples)

    def test_a_failing_child_is_one_error_line(self, tmp_path, forks, monkeypatch, capsys):
        def with_a_failing_last_piece(g):
            yield from gesture._gesture_text(g)
            yield 1, lambda: "%r" % (1 / 0,)

        monkeypatch.setattr(cli, "_gesture_text", with_a_failing_last_piece)
        code, out = self.run(tmp_path, 4097)
        assert (code, forks) == (2, [1])
        assert capsys.readouterr().err == (
            f"error: {out}: the process formatting its second half exited with 1\n"
        )
        assert not out.exists()  # the half this process wrote is removed
        self.assert_no_child_and_no_temporary_file(tmp_path)

    def test_a_failing_parent_still_reaps_the_child(self, tmp_path, forks, monkeypatch, capsys):
        def with_a_failing_first_piece(g):
            def fail():
                raise ValueError("boom")

            yield 1, fail
            yield from gesture._gesture_text(g)

        monkeypatch.setattr(cli, "_gesture_text", with_a_failing_first_piece)
        assert self.run(tmp_path, 4097)[0] == 2
        assert forks == [1]
        assert capsys.readouterr().err == "error: boom\n"
        self.assert_no_child_and_no_temporary_file(tmp_path)


# each command's small settings and its outputs as (flag, file name), in the order it writes them
WRITERS = {
    "fm-path": (
        ["--i-end", "1.0", "--i-step", "0.25", "--seg-dur", "0.02"],
        [("--out-wav", "p.wav"), ("--out-csv", "p.csv"), ("--out-img", "p.ppm"), ("--out-log", "p.log")],
    ),
    "wav2color": (["--fundamental", "440"], [("--out-csv", "w.csv"), ("--out-img", "w.ppm")]),
    "envelope-transfer": (  # past cli._FORK_WEIGHT, so the gesture text is written by two processes
        ["--color", "3b7fc2", "--samples-per-segment", "4097"],
        [("--out-gesture", "g.txt"), ("--out-img", "s.ppm")],
    ),
}
FAULTS = ["missing-directory", "mid-write", "close", "interrupt"]
FAULT_ROWS = [
    (command, name, fault)
    for command, (_settings, outputs) in WRITERS.items()
    for _flag, name in outputs
    for fault in FAULTS + (["child"] if name == "g.txt" else [])
]


class FaultyFile:
    """A file opened for writing that fails at its second write ("mid-write": a
    full disk, "interrupt": Ctrl-C) or after the real close ("close": a full disk
    on the last flush)."""

    def __init__(self, fh, fault):
        self.fh, self.fault, self.writes = fh, fault, 0

    def write(self, piece):
        if self.writes and self.fault == "mid-write":
            raise OSError(28, "No space left on device")
        if self.writes and self.fault == "interrupt":
            raise KeyboardInterrupt
        self.writes += 1
        return self.fh.write(piece)

    def writelines(self, pieces):
        for piece in pieces:  # each piece written before the next is made
            self.write(piece)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.fh.close()
        if self.fault == "close":
            raise OSError(28, "No space left on device")


class TestFaultTable:
    """Each command, each of its outputs, each fault: the command exits 2 with one
    error line (or the interrupt propagates), and leaves no file it created, no
    child process and no temporary file.  A file at an output path that the
    command never opened, the outputs after the failing one, stays untouched."""

    @pytest.mark.parametrize("command, name, fault", FAULT_ROWS, ids=["-".join(row) for row in FAULT_ROWS])
    def test_a_failed_command_leaves_nothing_it_wrote(
        self, tmp_path, monkeypatch, capsys, tone, command, name, fault
    ):
        settings, outputs = WRITERS[command]
        names = [n for _flag, n in outputs]
        out = tmp_path / "out"
        out.mkdir()
        (tmp_path / "tmp").mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
        paths = {n: out / n for n in names}
        if fault == "missing-directory":
            paths[name] = tmp_path / "missing" / name
        never_opened = names[names.index(name) + 1 :]
        for n in never_opened:
            paths[n].write_bytes(b"before the run: " + n.encode())
        if fault in ("mid-write", "close", "interrupt"):
            real_open = open

            def faulty_open(path, *args, **kwargs):
                fh = real_open(path, *args, **kwargs)
                return FaultyFile(fh, fault) if Path(path) == paths[name] else fh

            monkeypatch.setattr(builtins, "open", faulty_open)
        if fault == "child":

            def with_a_failing_last_piece(g):
                yield from gesture._gesture_text(g)
                yield 1, lambda: "%r" % (1 / 0,)

            monkeypatch.setattr(cli, "_gesture_text", with_a_failing_last_piece)
        argv = [command, *settings, *(arg for flag, n in outputs for arg in (flag, str(paths[n])))]
        if command == "wav2color":
            argv += ["--in", str(tone)]

        if fault == "interrupt":
            with pytest.raises(KeyboardInterrupt):
                main(argv)
            assert capsys.readouterr() == ("", "")
        else:
            assert main(argv) == 2
            stdout, stderr = capsys.readouterr()
            assert stdout == ""
            assert re.fullmatch(r"error: [^\n]+\n", stderr), stderr
        assert sorted(p.name for p in out.iterdir()) == sorted(never_opened)
        for n in never_opened:
            assert paths[n].read_bytes() == b"before the run: " + n.encode()
        assert not (tmp_path / "missing").exists()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert list((tmp_path / "tmp").iterdir()) == []

    def test_the_table_covers_every_output_of_every_command(self):
        options = {name: specs for name, _help, specs, _run in cli._COMMANDS}
        for command, (_settings, outputs) in WRITERS.items():
            flags = sorted(f"--{opt.name}" for opt in options[command] if opt.name.startswith("out-"))
            assert sorted(flag for flag, _name in outputs) == flags
        assert len(FAULT_ROWS) == 8 * 4 + 1


class TestOutputsAtOnePath:
    """Two outputs that name one path are refused before any file is opened."""

    @pytest.mark.parametrize(
        "argv, shared",
        [
            (["fm-path", "--out-csv", "o/a.log"], "o/a.log"),  # the default log path is the CSV's
            (["fm-path", "--out-wav", "o/x", "--out-img", "o/x", "--out-csv", "o/a.csv"], "o/x"),
            (["envelope-transfer", "--color", "20A0FF", "--out-gesture", "o/x", "--out-img", "o/./x"], "o/x"),
        ],
        ids=["fm-path-csv-and-default-log", "fm-path-wav-and-img", "envelope-transfer-gesture-and-img"],
    )
    def test_exit_2_naming_the_path_and_no_file_written(self, tmp_path, monkeypatch, capsys, argv, shared):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "o").mkdir()
        (tmp_path / shared).write_bytes(b"before the run")
        assert main(argv) == 2
        assert capsys.readouterr() == (
            "", f"error: two outputs name the same path {tmp_path / shared}\n"
        )
        assert list((tmp_path / "o").iterdir()) == [tmp_path / shared]
        assert (tmp_path / shared).read_bytes() == b"before the run"


class TestParserBehavior:
    def test_unknown_flag_exits_via_argparse(self):
        with pytest.raises(SystemExit):
            main(["fm-path", "--frequency", "440"])

    def test_missing_subcommand_exits(self):
        with pytest.raises(SystemExit):
            main([])


class TestEntryPoint:
    def test_python_dash_m_runs_envelope_transfer(self, tmp_path):
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        done = subprocess.run(
            [
                sys.executable, "-m", "timbrecolor", "envelope-transfer",
                "--color", "20A0FF", "--samples-per-segment", "4",
            ],
            cwd=tmp_path,
            capture_output=True,
            text=True,
            env=env,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("envelope-transfer:")
        g = parse_gesture((tmp_path / "envelope_gesture.txt").read_text())
        assert all(path.sample_count == 4 for path in g.arrow_paths)
        assert read_ppm(tmp_path / "envelope_strip.ppm").shape == (32, 512, 3)


    def test_python_dash_m_runs_fm_path(self, tmp_path):
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        done = subprocess.run(
            [
                sys.executable, "-m", "timbrecolor", "fm-path",
                "--i-end", "1", "--i-step", "0.25", "--seg-dur", "0.01",
            ],
            cwd=tmp_path,
            capture_output=True,
            text=True,
            env=env,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("fm-path: 5 colors, 2205 samples")
        rows = (tmp_path / "fm_path.csv").read_text().splitlines()
        assert rows[0] == "I,X,Y,Z,R,G,B" and len(rows) == 6
        assert read_wav(tmp_path / "fm_path.wav").samples.size == 5 * 441
        assert read_ppm(tmp_path / "fm_path.ppm").shape == (32, 5 * 32, 3)
        assert "grid_rows: 5" in (tmp_path / "fm_path.log").read_text()


class TestSweepScript:
    def test_writes_strips_and_csv(self, tmp_path):
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        subprocess.run(
            [
                sys.executable,
                str(root / "scripts" / "fm_color_sweep.py"),
                "--steps", "5",
                "--out-dir", str(tmp_path),
            ],
            check=True,
            capture_output=True,
            env=env,
        )
        assert len(list(tmp_path.glob("ratio_*.ppm"))) == 5
        rows = (tmp_path / "sweep_colors.csv").read_text().splitlines()
        assert len(rows) == 1 + 5 * 5
