"""Time-domain FM rendering and harmonic analysis."""

import cmath
import math
import re
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from oracles import analysis_window, harmonic_coefficients
from timbrecolor import synth
from timbrecolor.cli import main
from timbrecolor.spectrum import fm_sidebands, fold_spectrum, synthesize
from timbrecolor.synth import (
    AMPLITUDE_FLOOR,
    FMParams,
    SampledWave,
    analyze_harmonics,
    fm_sample,
    render_fm_path,
    render_fm_wave,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
import check_fm_pcm  # noqa: E402

TWO_PI = 2.0 * math.pi
RATE = 44100


def count_rfft_calls(monkeypatch) -> list:
    calls = []
    real = np.fft.rfft

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", counting)
    return calls


def window_dc(samples, f0, rate):
    """dc_term's one definition: the window's g whole-period pieces summed into
    one cycle, as in _analyze_blocks (g = 1 when the window does not fold), and
    that cycle's sum over the window's length."""
    length, periods = synth._analysis_window(len(samples), f0, rate)
    g = math.gcd(periods, length) if periods * rate / f0 == length else 1
    return samples[:length].reshape(-1, length // g).sum(axis=0).sum() / length


def fm_formula(fc, fm, index, t):
    """The FM formula as one numpy expression: the reference for the in-place kernel."""
    return np.sin(TWO_PI * fc * t + index * np.sin(TWO_PI * fm * t))


class TestFMSample:
    @pytest.mark.parametrize("index", [0.0, 0.37, 2.0, 19.99])
    def test_equals_the_formula_bit_for_bit(self, index):
        params = FMParams(440.0, 880.0, index)
        t = np.arange(70001, dtype=np.float64) / RATE
        assert fm_sample(params, t).tobytes() == fm_formula(440.0, 880.0, index, t).tobytes()
        for ti in (0.0, 1.0 / RATE, 0.3, 1.5873):
            assert fm_sample(params, ti) == float(fm_formula(440.0, 880.0, index, np.float64(ti)))

    def test_the_caller_times_are_not_overwritten(self):
        t = np.linspace(0.0, 0.01, 17)
        fm_sample(FMParams(440.0, 880.0, 2.0), t)
        assert t.tobytes() == np.linspace(0.0, 0.01, 17).tobytes()

    def test_scalar_and_array_agree(self):
        params = FMParams(440.0, 880.0, 2.0)
        t = np.linspace(0.0, 0.01, 17)
        values = fm_sample(params, t)
        for i, ti in enumerate(t):
            assert fm_sample(params, float(ti)) == values[i]

    @pytest.mark.parametrize("sequence", [list, tuple])
    def test_a_list_or_tuple_of_times_gives_the_array_result(self, sequence):
        params = FMParams(440.0, 880.0, 1.0)
        times = [0.1, 0.25, 0.0, 1.5873]
        got = fm_sample(params, sequence(times))
        assert isinstance(got, np.ndarray)
        assert got.tobytes() == fm_sample(params, np.array(times)).tobytes()

    @pytest.mark.parametrize(
        "t", [0.25, np.float64(0.25), np.array(0.25)], ids=["float", "float64", "0-d"]
    )
    def test_a_scalar_time_gives_a_python_float(self, t):
        params = FMParams(440.0, 880.0, 1.0)
        got = fm_sample(params, t)
        assert type(got) is float
        assert got == float(fm_sample(params, np.array([0.25]))[0])

    def test_zero_index_is_a_pure_carrier(self):
        params = FMParams(440.0, 880.0, 0.0)
        t = np.linspace(0.0, 0.01, 101)
        assert np.allclose(fm_sample(params, t), np.sin(TWO_PI * 440.0 * t), atol=1e-15)

    def test_matches_truncated_sideband_series(self):
        params = FMParams(440.0, 880.0, 2.0)
        folded = fold_spectrum(fm_sidebands(440.0, 880.0, 2.0))
        t = np.linspace(0.0, 0.01, 101)
        direct = fm_sample(params, t)
        series = synthesize(folded, t, include_dc=False)
        assert np.max(np.abs(direct - series)) <= 1e-9

    def test_rejects_negative_time(self):
        params = FMParams(440.0, 880.0, 1.0)
        with pytest.raises(ValueError):
            fm_sample(params, -0.001)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            FMParams(0.0, 880.0, 1.0)
        with pytest.raises(ValueError):
            FMParams(440.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            FMParams(440.0, 880.0, -0.5)


class TestRenderFMWave:
    def test_sample_count(self):
        wave = render_fm_wave(FMParams(440.0, 880.0, 2.0), 0.01, RATE)
        assert len(wave.samples) == 441
        assert wave.sample_rate == RATE
        assert wave.duration_sec == pytest.approx(0.01)

    @pytest.mark.parametrize("index", [0.5, 2.0, 10.0])
    def test_rendering_matches_folded_resynthesis(self, index):
        wave = render_fm_wave(FMParams(440.0, 880.0, index), 0.1, RATE)
        t = np.arange(len(wave.samples), dtype=np.float64) / RATE
        folded = fold_spectrum(fm_sidebands(440.0, 880.0, index))
        resynth = synthesize(folded, t, include_dc=False)
        assert np.max(np.abs(wave.samples - resynth)) <= 1e-6

    def test_aliasing_guard_trips_at_high_index(self):
        with pytest.raises(ValueError, match="aliasing"):
            render_fm_wave(FMParams(440.0, 880.0, 20.0), 0.1, RATE)

    def test_high_index_fits_at_a_higher_rate(self):
        wave = render_fm_wave(FMParams(440.0, 880.0, 20.0), 0.01, 96000)
        assert len(wave.samples) == 960

    def test_size_guard(self):
        with pytest.raises(ValueError, match="size guard"):
            render_fm_wave(FMParams(440.0, 880.0, 1.0), 3000.0, RATE)

    def test_duration_validation(self):
        with pytest.raises(ValueError):
            render_fm_wave(FMParams(440.0, 880.0, 1.0), 0.0, RATE)
        with pytest.raises(ValueError):
            render_fm_wave(FMParams(440.0, 880.0, 1.0), -1.0, RATE)

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            render_fm_wave(FMParams(440.0, 880.0, 1.0), 0.1, 0)

    def test_amplitude_bounded(self):
        wave = render_fm_wave(FMParams(440.0, 880.0, 5.0), 0.25, RATE)
        assert np.max(np.abs(wave.samples)) <= 1.0

    def test_equals_the_formula_bit_for_bit_past_one_block(self):
        wave = render_fm_wave(FMParams(440.0, 880.0, 3.0), 70001 / RATE, RATE)
        t = np.arange(70001, dtype=np.float64) / RATE
        assert wave.samples.tobytes() == fm_formula(440.0, 880.0, 3.0, t).tobytes()

    def test_an_overflowing_duration_is_a_value_error(self):
        with pytest.raises(ValueError, match=r"^segment duration 1e\+308 s overflows at 44100 Hz$"):
            render_fm_wave(FMParams(440.0, 880.0, 1.0), 1e308, RATE)

    def test_a_modulator_past_nyquist_is_refused(self):
        # energy_order(1e-5) == 0, so the aliasing guard alone let it through
        with pytest.raises(ValueError, match=r"^modulator must lie in \(0, Nyquist\), got 30000\.0$"):
            render_fm_wave(FMParams(440.0, 30000.0, 1e-5), 0.01, RATE)

    def test_a_carrier_at_nyquist_is_refused_as_a_sweep_is(self):
        with pytest.raises(ValueError, match=r"^carrier must lie in \(0, Nyquist\), got 22050\.0$"):
            render_fm_wave(FMParams(22050.0, 880.0, 0.0), 0.01, RATE)

    def test_a_duration_under_one_sample_is_refused_as_a_sweep_is(self):
        with pytest.raises(ValueError, match=r"^segment duration shorter than one sample$"):
            render_fm_wave(FMParams(440.0, 880.0, 1.0), 1e-6, RATE)

    @pytest.mark.parametrize("duration", [0.0, -1.0, math.nan, math.inf])
    def test_a_duration_that_is_not_positive_is_refused_as_a_sweep_is(self, duration):
        with pytest.raises(ValueError, match=r"^segment duration must be positive, got "):
            render_fm_wave(FMParams(440.0, 880.0, 1.0), duration, RATE)


class TestRenderFMPath:
    def test_total_sample_count(self):
        wave = render_fm_path(440.0, 880.0, [0.0, 0.5, 1.0], 0.05, RATE)
        assert len(wave.samples) == 3 * 2205

    def test_segments_follow_the_global_clock(self):
        grid = [0.0, 0.5, 1.0, 1.5]
        wave = render_fm_path(440.0, 880.0, grid, 0.05, RATE)
        seg = 2205
        for j, index in enumerate(grid):
            t = np.arange(j * seg, (j + 1) * seg, dtype=np.float64) / RATE
            expected = fm_sample(FMParams(440.0, 880.0, index), t)
            got = wave.samples[j * seg : (j + 1) * seg]
            assert np.array_equal(got, expected)

    def test_boundary_discontinuity_is_negligible(self):
        # segment edges land on whole carrier and modulator cycles, so the
        # parameter switch changes the sample value by almost nothing
        grid = [k * 0.1 for k in range(21)]
        seg_dur = 0.05
        worst = 0.0
        for j in range(len(grid) - 1):
            t_boundary = (j + 1) * seg_dur
            before = fm_sample(FMParams(440.0, 880.0, grid[j]), t_boundary)
            after = fm_sample(FMParams(440.0, 880.0, grid[j + 1]), t_boundary)
            worst = max(worst, abs(after - before))
        assert worst < 0.05

    def test_high_indices_render_without_a_guard(self):
        wave = render_fm_path(440.0, 880.0, [19.0, 20.0], 0.01, RATE)
        assert len(wave.samples) == 2 * 441

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            render_fm_path(440.0, 880.0, [], 0.05, RATE)
        with pytest.raises(ValueError):
            render_fm_path(440.0, 880.0, [1.0, 0.5], 0.05, RATE)
        with pytest.raises(ValueError):
            render_fm_path(440.0, 880.0, [1.0, 1.0], 0.05, RATE)
        with pytest.raises(ValueError):
            render_fm_path(440.0, 880.0, [-0.5, 1.0], 0.05, RATE)

    def test_frequency_validation(self):
        with pytest.raises(ValueError):
            render_fm_path(RATE / 2.0, 880.0, [0.0, 1.0], 0.05, RATE)
        with pytest.raises(ValueError):
            render_fm_path(440.0, RATE / 2.0, [0.0, 1.0], 0.05, RATE)

    def test_segment_duration_validation(self):
        with pytest.raises(ValueError):
            render_fm_path(440.0, 880.0, [0.0, 1.0], 1e-9, RATE)


def segment_loop(fc, fm, grid, seg, rate):
    """The one-buffer render: the FM formula once per whole segment."""
    out = np.empty(seg * len(grid))
    for j, index in enumerate(grid):
        t = np.arange(j * seg, (j + 1) * seg, dtype=np.float64) / rate
        out[j * seg : (j + 1) * seg] = fm_formula(fc, fm, index, t)
    return out


class TestFMPathBlocks:
    BLOCK = synth._BLOCK_SAMPLES

    @pytest.mark.parametrize(
        "grid, seg_dur, rate",
        [
            ([0.0, 0.5, 1.0], 0.05, RATE),  # smaller than one block
            ([0.25 * k for k in range(8)], 24576 / RATE, RATE),  # exactly 3 blocks
            ([0.0, 0.5, 1.0], 1.5, RATE),  # segments longer than a block
            ([3.0], 2.0, RATE),  # one index
            ([0.0, 0.5, 1.0, 1.5, 2.0], 3.0, 8000),
            # index 0.0 first; segments 4 and 8 start exactly on block edges
            ([0.25 * k for k in range(10)], 16384 / RATE, RATE),
            ([1e-4 * k for k in range(65540)], 1 / 8000, 8000),  # one-sample segments
            ([0.0], 1 / 8000, 8000),  # a one-sample sweep
        ],
    )
    def test_blocks_end_to_end_equal_the_segment_loop(self, grid, seg_dur, rate):
        sweep = synth._check_sweep(440.0, 880.0, grid, seg_dur, rate)
        blocks = list(synth._sweep_codes(*sweep))
        seg = int(round(seg_dur * rate))
        assert sweep[3] == seg
        assert [len(b) for b in blocks[:-1]] == [self.BLOCK] * (len(blocks) - 1)
        assert 0 < len(blocks[-1]) <= self.BLOCK
        assert all(b.dtype == np.dtype("<i2") for b in blocks)
        want = segment_loop(440.0, 880.0, grid, seg, rate)
        assert np.concatenate(blocks).tobytes() == pcm_codes(want).tobytes()
        assert render_fm_path(440.0, 880.0, grid, seg_dur, rate).samples.tobytes() == want.tobytes()

    def test_blocks_lie_in_the_unit_interval_at_the_top_index_near_nyquist(self):
        """The WAV encoder does not check fm-path's codes: the render is np.sin of finite values."""
        fc, fm = np.nextafter(RATE / 2.0, 0.0), RATE / 2.0 - 1.0  # fc = fm = RATE / 2 would give sin(pi k) = 0
        samples = render_fm_path(fc, fm, [999.5, 1000.0], 2.0, RATE).samples
        assert len(samples) == 4 * RATE
        assert samples.min() >= -1.0 and samples.max() <= 1.0  # a NaN fails too
        assert samples.min() < -0.999 and samples.max() > 0.999
        codes = synth._sweep_codes(*synth._check_sweep(fc, fm, [999.5, 1000.0], 2.0, RATE))
        assert np.concatenate(list(codes)).tobytes() == pcm_codes(samples).tobytes()

    @pytest.mark.parametrize(
        "args, message",
        [
            ((30000.0, 880.0, [0.0], 0.1, RATE), "carrier must lie in"),
            ((440.0, 880.0, [1.0, 0.5], 0.1, RATE), "must ascend"),
            ((440.0, 880.0, [0.0, 1.0, 2.0], 1000.0, RATE), "size guard"),
        ],
    )
    def test_checks_run_before_the_iterator_is_returned(self, args, message):
        with pytest.raises(ValueError, match=message):
            synth._check_sweep(*args)

    @pytest.mark.parametrize(
        "grid, a, b",
        [
            ([1.0, 0.5], "1.0", "0.5"),
            ([0.0, 0.5, 0.5, 2.0], "0.5", "0.5"),  # equal neighbours do not ascend
            ([0.0, 3.0, 1.0, 0.5], "3.0", "1.0"),  # the first pair that fails is named
            ([0.0, 1e-300, 0.1, 0.30000000000000004, 0.3], "0.30000000000000004", "0.3"),
            ([-0.0, 0.0], "-0.0", "0.0"),
        ],
    )
    def test_a_grid_that_does_not_ascend_names_its_first_pair(self, grid, a, b):
        with pytest.raises(ValueError, match=f"^index grid must ascend, got {re.escape(a)} then {re.escape(b)}$"):
            synth._check_sweep(440.0, 880.0, grid, 0.01, RATE)

    def test_the_ascent_check_names_the_pair_a_loop_finds(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            grid = np.cumsum(rng.choice([-0.5, 0.0, 0.25, 0.5], size=rng.integers(2, 40), p=[0.02, 0.02, 0.48, 0.48]))
            grid = (grid - grid.min()).tolist()
            bad = [(a, b) for a, b in zip(grid, grid[1:]) if not b > a]
            if not bad:
                synth._check_sweep(440.0, 880.0, grid, 0.001, RATE)
                continue
            with pytest.raises(ValueError) as raised:
                synth._check_sweep(440.0, 880.0, grid, 0.001, RATE)
            assert str(raised.value) == f"index grid must ascend, got {bad[0][0]} then {bad[0][1]}"

    def test_the_render_cap_is_unchanged(self):
        assert synth.MAX_RENDER_SAMPLES == 100_000_000

    def test_blocks_are_unchanged_under_fast_thread_switching(self):
        grid = [0.25 * k for k in range(9)]  # 9 segments of 20000 samples: 3 blocks
        want = segment_loop(440.0, 880.0, grid, 20000, RATE)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = render_fm_path(440.0, 880.0, grid, 20000 / RATE, RATE).samples
        finally:
            sys.setswitchinterval(interval)
        assert got.tobytes() == want.tobytes()

    def test_an_error_in_the_second_block_reaches_the_consumer_there(self, monkeypatch):
        real = synth._fm_wave

        def failing(t, *args):
            if t[0] * RATE > self.BLOCK - 0.5:  # a chunk of the second block or later
                raise RuntimeError("second block")
            return real(t, *args)

        monkeypatch.setattr(synth, "_fm_wave", failing)
        blocks = synth._sweep_codes(440.5, 880.0, np.array([0.0, 1.0]), 2 * RATE, RATE)  # no period table
        assert len(next(blocks)) == self.BLOCK
        with pytest.raises(RuntimeError, match="second block"):
            next(blocks)
        assert next(blocks, None) is None

    def test_closing_after_the_first_block_stops_the_threads(self):
        blocks = synth._sweep_codes(*synth._check_sweep(440.0, 880.0, [0.0, 1.0], 2.0, RATE))
        next(blocks)
        blocks.close()
        assert next(blocks, None) is None

    def test_fm_path_leaves_no_thread_behind(self, tmp_path):
        before = threading.enumerate()
        args = [
            "fm-path", "--i-end", "2", "--i-step", "0.5", "--seg-dur", "1.0",  # 4 blocks
            "--out-wav", str(tmp_path / "p.wav"), "--out-img", str(tmp_path / "p.ppm"),
            "--out-csv", str(tmp_path / "p.csv"),
        ]
        assert main(args) == 0
        assert threading.enumerate() == before


def pcm_codes(values):
    """floor(v * 32767 + 0.5): the WAV's codes of reference floats."""
    return np.floor(values * 32767.0 + 0.5).astype("<i2")


class TestSweepCodes:
    """fm-path's WAV codes equal the reference's, sample by sample, at samples
    where the period table without its guard quantizes differently."""

    BLOCK = synth._BLOCK_SAMPLES

    @staticmethod
    def check(fc, fm, grid, seg, rate, start=0):
        """(boundary samples, samples recomputed) of the render from start; every code is the reference's."""
        grid, period = np.asarray(grid, dtype=np.float64), rate // math.gcd(int(fc), int(fm), rate)
        recomputed, real = [], synth._fm_wave
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(synth, "_fm_wave", lambda t, *args: recomputed.append(len(t)) or real(t, *args))
            blocks = list(synth._sweep_codes(fc, fm, grid, seg, rate, start))
        boundaries = []
        for block, begin in zip(blocks, range(start, seg * len(grid), TestSweepCodes.BLOCK)):
            k = np.arange(begin, begin + len(block))
            want = pcm_codes(fm_formula(fc, fm, grid[k // seg], k / rate))
            assert block.tobytes() == want.tobytes(), begin
            unguarded = pcm_codes(fm_formula(fc, fm, grid[k // seg], (k % period) / rate))
            boundaries.extend(k[unguarded != want].tolist())
        return boundaries, sum(recomputed)

    def test_sweep_fine_boundary_samples_take_the_reference_code(self):
        grid = 0.01 * np.arange(2001)  # fm-path --i-end 20 --i-step 0.01, 4410-sample segments: two periods
        boundaries, recomputed = self.check(440.0, 880.0, grid, 4410, RATE)
        assert 0 < len(boundaries) <= recomputed < 10**4, (len(boundaries), recomputed)

    def test_a_block_at_index_1000_takes_the_reference_at_its_boundaries(self):
        seg = 100 * RATE  # its last block ends 100 s in
        boundaries, recomputed = self.check(440.0, 880.0, [1000.0], seg, RATE, seg - self.BLOCK)
        assert 0 < len(boundaries) <= recomputed < self.BLOCK, (len(boundaries), recomputed)

    def test_the_last_block_of_the_longest_render_takes_the_reference(self):
        # at 2267 s with I = 1000 and fm = 1760 Hz the window passes half a code
        seg = synth.MAX_RENDER_SAMPLES // 2
        boundaries, recomputed = self.check(440.0, 1760.0, [999.0, 1000.0], seg, RATE, 2 * seg - self.BLOCK)
        assert len(boundaries) > 0
        assert recomputed == self.BLOCK

    def test_the_last_block_of_the_longest_render_builds_no_table(self, monkeypatch):
        # its window passes half a code, so the reference's call is the one quantization
        sizes, real = [], synth._quantizer_input
        monkeypatch.setattr(synth, "_quantizer_input", lambda block, *out: sizes.append(block.size) or real(block, *out))
        seg = synth.MAX_RENDER_SAMPLES // 2
        blocks = list(synth._sweep_codes(440.0, 1760.0, np.array([999.0, 1000.0]), seg, RATE, 2 * seg - self.BLOCK))
        assert [len(block) for block in blocks] == [self.BLOCK]
        assert sizes == [self.BLOCK]  # a table of one 2205-sample period would add a call

    def test_other_voices_take_the_reference(self):
        for fc, fm, seg, rate, table in [
            (440.5, 880.0, 4410, RATE, False),  # no whole-hertz period
            (440.0, 880.0, 2204, RATE, False),  # a period of 2205 samples, longer than the segment
            (1.0, 3.0, 32770, 32770, False),  # P = 32770: more than half a block
            (440.0, 441.0, 96000, 96000, False),  # P = 96000: more than a block
            (1.0, 3.0, 32768, 32768, True),  # P = 32768, half a block: the longest period with a table
        ]:
            _boundaries, recomputed = self.check(fc, fm, [0.0, 7.0], seg, rate)
            assert (recomputed < 2 * seg) == table, (fc, fm, rate, recomputed)

    def test_a_long_period_adds_no_memory_to_a_block(self):
        seg = rate = 4_000_000  # fc 1 Hz and fm 3 Hz repeat every 4 000 000 samples, 32 MB of float64
        blocks = synth._sweep_codes(1.0, 3.0, np.array([0.0, 1.0]), seg, rate, 2 * seg - self.BLOCK)
        tracemalloc.start()
        try:
            assert len(next(blocks)) == self.BLOCK
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * self.BLOCK, peak  # a few float64 arrays of one block

    def test_the_checker_script_passes_a_few_sweeps(self, capsys):
        assert check_fm_pcm.main(["12", "3"]) == 0
        assert capsys.readouterr().out.startswith("all ")


BAD_RATES = [math.inf, -math.inf, math.nan, 0, 8000.5]
RATE_MESSAGE = r"^sample rate must be a positive integer, got "


class TestSampledWave:
    @pytest.mark.parametrize("rate", BAD_RATES)
    def test_bad_rates_raise_the_rate_error_everywhere(self, rate):
        with pytest.raises(ValueError, match=RATE_MESSAGE):
            SampledWave(sample_rate=rate, samples=np.zeros(4))
        with pytest.raises(ValueError, match=RATE_MESSAGE):
            render_fm_wave(FMParams(440.0, 880.0, 1.0), 0.1, rate)
        with pytest.raises(ValueError, match=RATE_MESSAGE):
            render_fm_path(440.0, 880.0, [0.0, 1.0], 0.1, rate)

    def test_validation(self):
        with pytest.raises(ValueError):
            SampledWave(sample_rate=0, samples=np.zeros(4))
        with pytest.raises(ValueError):
            SampledWave(sample_rate=RATE, samples=np.zeros((2, 2)))
        with pytest.raises(ValueError):
            SampledWave(sample_rate=RATE, samples=np.array([0.0, math.nan]))

    def test_duration(self):
        wave = SampledWave(sample_rate=100, samples=np.zeros(250))
        assert wave.duration_sec == 2.5


class TestAnalyzeHarmonics:
    def test_pure_sine(self):
        t = np.arange(int(RATE * 0.5), dtype=np.float64) / RATE
        wave = SampledWave(sample_rate=RATE, samples=0.8 * np.sin(TWO_PI * 440.0 * t))
        spec = analyze_harmonics(wave, 440.0, 8)
        assert len(spec.lines) == 1
        line = spec.lines[0]
        assert line.frequency == 440.0
        assert line.amplitude == pytest.approx(0.8, abs=1e-9)
        assert min(line.phase, TWO_PI - line.phase) < 1e-9
        assert abs(spec.dc_term) < 1e-12

    def test_two_sines_with_offset_and_phases(self):
        t = np.arange(int(RATE * 0.5), dtype=np.float64) / RATE
        samples = (
            0.3
            + 0.8 * np.sin(TWO_PI * 440.0 * t + 0.7)
            + 0.25 * np.sin(TWO_PI * 1320.0 * t + 4.0)
        )
        spec = analyze_harmonics(SampledWave(sample_rate=RATE, samples=samples), 440.0, 6)
        assert spec.dc_term == pytest.approx(0.3, abs=1e-9)
        by_freq = {line.frequency: line for line in spec.lines}
        assert set(by_freq) == {440.0, 1320.0}
        assert by_freq[440.0].amplitude == pytest.approx(0.8, abs=1e-9)
        assert by_freq[440.0].phase == pytest.approx(0.7, abs=1e-9)
        assert by_freq[1320.0].amplitude == pytest.approx(0.25, abs=1e-9)
        assert by_freq[1320.0].phase == pytest.approx(4.0, abs=1e-9)

    def test_colliding_components_add_as_phasors(self):
        # two generators share the 440 Hz slot; the analyzer must report
        # their complex sum, not either term
        t = np.arange(int(RATE * 0.5), dtype=np.float64) / RATE
        a1, p1 = 0.6, 0.9
        a2, p2 = 0.5, 2.5
        samples = a1 * np.sin(TWO_PI * 440.0 * t + p1) + a2 * np.sin(
            TWO_PI * 440.0 * t + p2
        )
        spec = analyze_harmonics(SampledWave(sample_rate=RATE, samples=samples), 440.0, 3)
        z = a1 * cmath.exp(1j * p1) + a2 * cmath.exp(1j * p2)
        assert len(spec.lines) == 1
        assert spec.lines[0].amplitude == pytest.approx(abs(z), abs=1e-6)
        assert spec.lines[0].phase == pytest.approx(cmath.phase(z) % TWO_PI, abs=1e-6)

    def test_roundtrip_through_synthesize(self):
        rng = np.random.default_rng(7)
        freqs = [220.0, 440.0, 660.0, 1100.0]
        amps = rng.uniform(0.05, 0.4, size=len(freqs))
        phases = rng.uniform(0.0, TWO_PI - 1e-6, size=len(freqs))
        t = np.arange(int(RATE * 0.5), dtype=np.float64) / RATE
        samples = np.zeros_like(t)
        for f, a, p in zip(freqs, amps, phases):
            samples += a * np.sin(TWO_PI * f * t + p)
        spec = analyze_harmonics(SampledWave(sample_rate=RATE, samples=samples), 220.0, 8)
        resynth = synthesize(spec, t)
        assert np.max(np.abs(resynth - samples)) <= 1e-3

    @pytest.mark.parametrize("index", [0.5, 2.0, 10.0])
    def test_recovers_folded_fm_spectrum(self, index):
        wave = render_fm_wave(FMParams(440.0, 880.0, index), 0.5, RATE)
        folded = fold_spectrum(fm_sidebands(440.0, 880.0, index))
        # the faintest retained sidebands can exceed Nyquist; everything
        # significant sits well below it
        top = min(folded.lines[-1].frequency, RATE / 2.0 - 440.0)
        max_harmonic = int(top / 440.0)
        spec = analyze_harmonics(wave, 440.0, max_harmonic)
        measured = {line.frequency: line for line in spec.lines}
        for line in folded.lines:
            if abs(line.amplitude) < 1e-3 or line.frequency > top:
                continue
            got = measured[line.frequency]
            assert got.amplitude == pytest.approx(abs(line.amplitude), rel=1e-3)
            want_phase = 0.0 if line.amplitude > 0.0 else math.pi
            distance = abs(got.phase - want_phase)
            assert min(distance, TWO_PI - distance) < 1e-3

    def test_whole_window_matches_the_projection_oracle(self, monkeypatch):
        # 1 s holds exactly 440 periods of 440 Hz at 44.1 kHz: the FFT route
        rng = np.random.default_rng(5)
        freqs = [440.0 * n for n in range(1, 33)]
        t = np.arange(RATE, dtype=np.float64) / RATE
        samples = 0.2 + 1e-4 * rng.standard_normal(RATE)
        for f in freqs:
            amp, phase = rng.uniform(0.01, 0.1), rng.uniform(0.0, TWO_PI)
            samples += amp * np.sin(TWO_PI * f * t + phase)
        calls = count_rfft_calls(monkeypatch)
        spec = analyze_harmonics(SampledWave(sample_rate=RATE, samples=samples), 440.0, 32)
        assert len(calls) == 1
        assert spec.dc_term == window_dc(samples, 440.0, RATE)
        assert abs(spec.dc_term - np.mean(samples)) <= 1e-15
        assert [line.frequency for line in spec.lines] == freqs
        want = harmonic_coefficients(samples, RATE, freqs)
        for line, z in zip(spec.lines, want):
            assert abs(cmath.rect(line.amplitude, line.phase) - z) <= 1e-11

    def test_one_short_rfft_at_440_hz(self, monkeypatch):
        # 2205 samples hold 22 periods of 440 Hz at 44.1 kHz: the window folds onto them
        t = np.arange(2 * RATE, dtype=np.float64) / RATE
        samples = 0.5 * np.sin(TWO_PI * 440.0 * t + 1.0) + 0.2 * np.sin(TWO_PI * 1320.0 * t)
        calls = count_rfft_calls(monkeypatch)
        spec = analyze_harmonics(SampledWave(sample_rate=RATE, samples=samples), 440.0, 32)
        assert [len(args[0]) for args in calls] == [2205]
        assert list(spec.frequencies) == [440.0, 1320.0]
        assert spec.amplitudes == pytest.approx([0.5, 0.2], abs=1e-12)

    def test_folded_bins_equal_the_whole_window_rfft(self):
        # 60 s of a noisy 440 Hz FM tone: 26 400 periods in 2 646 000 samples
        rng = np.random.default_rng(11)
        t = np.arange(60 * RATE, dtype=np.float64) / RATE
        samples = 0.8 * np.sin(TWO_PI * 440.0 * t + 0.4 + 2.0 * np.sin(TWO_PI * 880.0 * t))
        samples += 1e-4 * rng.standard_normal(len(t))
        spec = analyze_harmonics(SampledWave(sample_rate=RATE, samples=samples), 440.0, 32)
        periods, length = 26400, len(samples)
        # sine and cosine projections (-2 Im X, 2 Re X) / L, as one complex number 2iX / L
        want = 2j * np.fft.rfft(samples)[periods::periods][:32] / length
        got = np.zeros(32, dtype=complex)
        for line in spec.lines:
            got[round(line.frequency / 440.0) - 1] = cmath.rect(line.amplitude, line.phase)
        kept = np.abs(want) >= AMPLITUDE_FLOOR
        assert list(spec.frequencies) == [440.0 * n for n in np.flatnonzero(kept) + 1]
        assert np.max(np.abs(got[kept] - want[kept])) <= 1e-12 * np.max(np.abs(want))
        assert spec.dc_term == window_dc(samples, 440.0, RATE)
        assert abs(spec.dc_term - np.mean(samples)) <= 1e-15

    def test_an_unfoldable_window_matches_the_oracle(self, monkeypatch):
        # 64 samples at 8 kHz hold 11 periods of 1375 Hz and gcd(11, 64) = 1: no fold
        rng = np.random.default_rng(2)
        t = np.arange(100, dtype=np.float64) / 8000
        samples = 0.1 + 0.6 * np.sin(TWO_PI * 1375.0 * t + 0.5) + 1e-3 * rng.standard_normal(100)
        samples += 0.3 * np.sin(TWO_PI * 2750.0 * t + 2.0)
        calls = count_rfft_calls(monkeypatch)
        spec = analyze_harmonics(SampledWave(sample_rate=8000, samples=samples), 1375.0, 2)
        assert [len(args[0]) for args in calls] == [64]
        assert spec.dc_term == window_dc(samples, 1375.0, 8000)
        assert abs(spec.dc_term - np.mean(samples[:64])) <= 1e-15
        want = harmonic_coefficients(samples[:64], 8000, [1375.0, 2750.0])
        assert list(spec.frequencies) == [1375.0, 2750.0]
        for line, z in zip(spec.lines, want):
            assert abs(cmath.rect(line.amplitude, line.phase) - z) <= 1e-11

    def test_the_window_is_chosen_once(self, monkeypatch):
        calls = []
        choose = synth._analysis_window
        monkeypatch.setattr(synth, "_analysis_window", lambda *args: calls.append(args) or choose(*args))
        samples = np.sin(TWO_PI * 440.0 * np.arange(RATE, dtype=np.float64) / RATE)
        analyze_harmonics(SampledWave(sample_rate=RATE, samples=samples), 440.0, 4)
        assert calls == [(RATE, 440.0, RATE)]

    def test_peak_memory_per_sample_on_60_s(self):
        t = np.arange(60 * RATE, dtype=np.float64) / RATE
        wave = SampledWave(sample_rate=RATE, samples=0.8 * np.sin(TWO_PI * 440.0 * t))
        tracemalloc.start()
        try:
            analyze_harmonics(wave, 440.0, 32)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / len(wave.samples) < 1.0

    @pytest.mark.parametrize("f0", [261.63, 440.0000001])
    def test_incommensurate_fundamental_is_projected(self, monkeypatch, f0):
        # no window spans a whole number of periods in whole samples
        t = np.arange(RATE, dtype=np.float64) / RATE
        samples = 0.8 * np.sin(TWO_PI * f0 * t + 0.3) + 0.1 * np.sin(
            TWO_PI * 3.0 * f0 * t + 2.0
        )
        calls = count_rfft_calls(monkeypatch)
        spec = analyze_harmonics(SampledWave(sample_rate=RATE, samples=samples), f0, 4)
        assert calls == []
        by_harmonic = {round(line.frequency / f0): line for line in spec.lines}
        assert by_harmonic[1].amplitude == pytest.approx(0.8, abs=1e-6)
        assert by_harmonic[1].phase == pytest.approx(0.3, abs=1e-6)
        assert by_harmonic[3].amplitude == pytest.approx(0.1, abs=1e-6)
        assert by_harmonic[3].phase == pytest.approx(2.0, abs=1e-6)

    def test_floor_suppresses_silence(self):
        t = np.arange(int(RATE * 0.25), dtype=np.float64) / RATE
        quiet = AMPLITUDE_FLOOR / 10.0
        samples = 0.5 * np.sin(TWO_PI * 440.0 * t) + quiet * np.sin(
            TWO_PI * 880.0 * t
        )
        spec = analyze_harmonics(SampledWave(sample_rate=RATE, samples=samples), 440.0, 4)
        assert [line.frequency for line in spec.lines] == [440.0]

    def test_rejects_short_waves(self):
        t = np.arange(400, dtype=np.float64) / RATE
        wave = SampledWave(sample_rate=RATE, samples=np.sin(TWO_PI * 440.0 * t))
        with pytest.raises(ValueError, match="too short"):
            analyze_harmonics(wave, 440.0, 4)

    def test_rejects_fundamental_at_nyquist(self):
        wave = SampledWave(sample_rate=RATE, samples=np.zeros(RATE))
        with pytest.raises(ValueError):
            analyze_harmonics(wave, RATE / 2.0, 2)

    def test_rejects_harmonics_beyond_nyquist(self):
        wave = SampledWave(sample_rate=RATE, samples=np.zeros(RATE))
        with pytest.raises(ValueError, match="Nyquist"):
            analyze_harmonics(wave, 440.0, 51)

    def test_rejects_bad_max_harmonic(self):
        wave = SampledWave(sample_rate=RATE, samples=np.zeros(RATE))
        with pytest.raises(ValueError):
            analyze_harmonics(wave, 440.0, 0)


def split(samples, sizes):
    """samples cut into consecutive blocks of the given sizes, the last one
    repeated until the samples run out."""
    blocks, start = [], 0
    while start < len(samples):
        size = sizes[min(len(blocks), len(sizes) - 1)]
        blocks.append(samples[start : start + size])
        start += size
    return blocks


def only_up_to(blocks, length):
    """The blocks, failing if any block is asked for after length samples."""
    seen = 0
    for block in blocks:
        if seen >= length:
            raise AssertionError(f"block asked for after {seen} of {length} window samples")
        yield block
        seen += len(block)


def noisy_tone(rate, f0, count, seed):
    rng = np.random.default_rng(seed)
    t = np.arange(count, dtype=np.float64) / rate
    samples = 0.1 + 0.5 * np.sin(TWO_PI * f0 * t + 1.0) + 0.2 * np.sin(TWO_PI * 2.0 * f0 * t + 2.5)
    return samples + 1e-4 * rng.standard_normal(count)


def window_inputs(seed: int, count: int) -> list[tuple[int, float, int]]:
    """Seeded (sample count, fundamental, rate) triples: the named fundamentals
    at counts exactly at and one sample past whole numbers of periods, then
    random fundamentals, rates and counts, some of them commensurable."""
    named = [(440.0, RATE), (261.63, RATE), (440.0000001, RATE), (1375.0, 8000), (220.0, RATE), (261.63, 48000)]
    inputs = [(round(periods * rate / f0) + extra, f0, rate)
              for f0, rate in named for periods in (10, 11, 22, 441, 4400) for extra in (0, 1)]
    inputs += [(rate, f0, rate) for f0, rate in named] + [(60 * RATE, 440.0, RATE), (RATE, 440.0000001, RATE)]
    rng = np.random.default_rng(seed)
    for _ in range(count):
        rate = int(rng.choice([8000, 22050, 44100, 48000, int(rng.integers(100, 200_000))]))
        if rng.random() < 0.5:  # a period of a whole or a halved, thirded... number of samples
            f0 = rate / (int(rng.integers(3, 400)) + int(rng.integers(0, 6)) / int(rng.integers(1, 7)))
        else:
            f0 = float(rng.uniform(1.0, rate / 2.0))
        periods = int(rng.integers(10, 3000))
        inputs.append((max(1, round(periods * rate / f0) + int(rng.integers(-2, 3))), f0, rate))
    return inputs


class TestAnalysisWindow:
    """_analysis_window states the policy that oracles.analysis_window searches for."""

    @pytest.mark.parametrize("seed", [11, 12])
    def test_equals_the_explicit_search(self, seed):
        taken = {"next": 0, "min": 0}
        for count, f0, rate in window_inputs(seed, 2000):
            try:
                want = analysis_window(count, f0, rate)
            except ValueError:
                with pytest.raises(ValueError, match="wave too short"):
                    synth._analysis_window(count, f0, rate)
                continue
            got = synth._analysis_window(count, f0, rate)
            assert got == want and [type(v) for v in got] == [int, int], (count, f0, rate)
            span = got[1] * rate / f0
            taken["next" if abs(span - got[0]) < 1e-6 else "min"] += 1
        assert min(taken.values()) > 200  # both halves of the policy are exercised

    @pytest.mark.parametrize(
        "count, f0, rate, window",
        [(RATE, 440.0, RATE, (44100, 440)), (RATE + 1, 440.0, RATE, (44100, 440)),
         (RATE, 440.0000001, RATE, (4410, 44)), (100, 1375.0, 8000, (64, 11)), (RATE, 220.0, RATE, (44100, 220)),
         (45601, 512.0, 51201, (45601, 456))],  # a tie: 456 and 56 periods both miss by 56/512, the larger wins
    )
    def test_named_fundamentals(self, count, f0, rate, window):
        assert synth._analysis_window(count, f0, rate) == analysis_window(count, f0, rate) == window


class TestStreamedFold:
    @pytest.mark.parametrize(
        "sizes",
        [[1000], [2205], [5000], [2**16], [1, 2204, 2206, 4410, 7, 2**16], [3 * 2**16]],
        ids=str,
    )
    @pytest.mark.parametrize("f0, count", [(440.0, 3 * RATE + 17), (220.0, 2 * RATE + 333)])
    def test_equals_the_reshape_sum_bit_for_bit(self, sizes, f0, count):
        # both fundamentals fold onto 2205 samples, which divides no block size above
        length, periods = synth._analysis_window(count, f0, RATE)
        g = math.gcd(periods, length)
        cycle = length // g
        assert cycle == 2205 and count > length
        samples = noisy_tone(RATE, f0, count, seed=len(sizes)) * 10.0 ** np.random.default_rng(1).integers(-6, 6, count)
        samples[length:] = np.nan  # a tail that must not be read
        samples[::cycle] = -0.0  # the sign of a zero sum depends on where the sum starts
        folded = synth._fold(only_up_to(split(samples, sizes), length), length, cycle)
        assert folded.tobytes() == samples[:length].reshape(g, cycle).sum(axis=0).tobytes()

    @pytest.mark.parametrize("sizes", [[1], [10], [64], [100]], ids=str)
    def test_one_cycle_is_the_window(self, sizes):
        # 64 samples at 8 kHz hold 11 periods of 1375 Hz: g == 1
        samples = noisy_tone(8000, 1375.0, 100, seed=4)
        assert synth._analysis_window(100, 1375.0, 8000) == (64, 11)
        folded = synth._fold(only_up_to(split(samples, sizes), 64), 64, 64)
        assert folded.tobytes() == samples[:64].reshape(1, 64).sum(axis=0).tobytes()
        assert folded.tobytes() == samples[:64].tobytes()

    @pytest.mark.parametrize(
        "rate, f0, count, max_harmonic",
        [
            (RATE, 440.0, 3 * RATE + 17, 32),
            (RATE, 220.0, 2 * RATE + 333, 32),
            (8000, 1375.0, 100, 2),
            (RATE, 261.63, RATE, 16),  # the per-harmonic route
        ],
    )
    @pytest.mark.parametrize("sizes", [None, [2**16], [1000, 3]], ids=str)
    def test_streamed_lines_equal_analyze_harmonics(self, rate, f0, count, max_harmonic, sizes):
        samples = noisy_tone(rate, f0, count, seed=count)
        blocks = [samples] if sizes is None else split(samples, sizes)
        length = synth._analysis_window(count, f0, rate)[0]
        streamed = synth._analyze_blocks(rate, count, only_up_to(blocks, length), f0, max_harmonic)
        whole = analyze_harmonics(SampledWave(sample_rate=rate, samples=samples), f0, max_harmonic)
        for name in ("frequencies", "amplitudes", "phases"):
            assert getattr(streamed, name).tobytes() == getattr(whole, name).tobytes()
        assert len(whole.frequencies) >= 2  # the two tones, and noise lines above the floor
        assert whole.dc_term == window_dc(samples, f0, rate)
        assert abs(whole.dc_term - np.mean(samples[:length])) <= 1e-15
        assert streamed.dc_term == whole.dc_term

    @pytest.mark.parametrize(
        "f0, max_harmonic, message",
        [(0.0, 4, "fundamental must be positive"),
         (RATE / 2.0, 1, rf"^fundamental {RATE / 2.0} Hz is at or above Nyquist {RATE / 2.0} Hz$"),
         (440.0, 51, "Nyquist"), (440.0, 0, "max harmonic"), (440.0, 4, "too short"),
         (440.0, math.inf, r"^max harmonic must be a positive integer, got inf$"),
         (440.0, math.nan, r"^max harmonic must be a positive integer, got nan$")],
    )
    def test_argument_errors_come_before_any_block_is_read(self, f0, max_harmonic, message):
        def never():
            raise AssertionError("block read before the arguments were checked")
            yield

        count = 400 if message == "too short" else RATE
        with pytest.raises(ValueError, match=message):
            synth._analyze_blocks(RATE, count, never(), f0, max_harmonic)
