"""Time-domain FM rendering and harmonic analysis."""

import cmath
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from oracles import harmonic_coefficients
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
        total, blocks = synth._fm_path_blocks(440.0, 880.0, grid, seg_dur, rate)
        blocks = list(blocks)
        seg = int(round(seg_dur * rate))
        assert total == seg * len(grid)
        assert [len(b) for b in blocks[:-1]] == [self.BLOCK] * (len(blocks) - 1)
        assert 0 < len(blocks[-1]) <= self.BLOCK
        assert all(b.dtype == np.float64 for b in blocks)
        want = segment_loop(440.0, 880.0, grid, seg, rate)
        assert np.concatenate(blocks).tobytes() == want.tobytes()
        assert render_fm_path(440.0, 880.0, grid, seg_dur, rate).samples.tobytes() == want.tobytes()

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
            synth._fm_path_blocks(*args)

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
        before = threading.active_count()
        total, blocks = synth._fm_path_blocks(440.0, 880.0, [0.0, 1.0], 2.0, RATE)
        assert total > 2 * self.BLOCK
        assert len(next(blocks)) == self.BLOCK
        with pytest.raises(RuntimeError, match="second block"):
            next(blocks)
        assert threading.active_count() == before
        assert next(blocks, None) is None

    def test_closing_after_the_first_block_stops_the_threads(self):
        before = threading.active_count()
        total, blocks = synth._fm_path_blocks(440.0, 880.0, [0.0, 1.0], 2.0, RATE)
        assert threading.active_count() == before  # the checks start no thread
        next(blocks)
        assert threading.active_count() > before
        blocks.close()
        assert threading.active_count() == before

    def test_fm_path_leaves_no_thread_behind(self, tmp_path):
        before = threading.enumerate()
        args = [
            "fm-path", "--i-end", "2", "--i-step", "0.5", "--seg-dur", "1.0",  # 4 blocks
            "--out-wav", str(tmp_path / "p.wav"), "--out-img", str(tmp_path / "p.ppm"),
            "--out-csv", str(tmp_path / "p.csv"),
        ]
        assert main(args) == 0
        assert threading.enumerate() == before


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
        assert spec.dc_term == np.mean(samples)
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
        assert spec.dc_term == np.mean(samples)

    def test_an_unfoldable_window_matches_the_oracle(self, monkeypatch):
        # 64 samples at 8 kHz hold 11 periods of 1375 Hz and gcd(11, 64) = 1: no fold
        rng = np.random.default_rng(2)
        t = np.arange(100, dtype=np.float64) / 8000
        samples = 0.1 + 0.6 * np.sin(TWO_PI * 1375.0 * t + 0.5) + 1e-3 * rng.standard_normal(100)
        samples += 0.3 * np.sin(TWO_PI * 2750.0 * t + 2.0)
        calls = count_rfft_calls(monkeypatch)
        spec = analyze_harmonics(SampledWave(sample_rate=8000, samples=samples), 1375.0, 2)
        assert [len(args[0]) for args in calls] == [64]
        assert spec.dc_term == np.mean(samples[:64])
        want = harmonic_coefficients(samples[:64], 8000, [1375.0, 2750.0])
        assert list(spec.frequencies) == [1375.0, 2750.0]
        for line, z in zip(spec.lines, want):
            assert abs(cmath.rect(line.amplitude, line.phase) - z) <= 1e-11

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
        assert whole.dc_term == np.mean(samples[:length])
        assert streamed.dc_term == pytest.approx(whole.dc_term, abs=1e-15)

    @pytest.mark.parametrize(
        "f0, max_harmonic, message",
        [(0.0, 4, "fundamental must be positive"), (RATE / 2.0, 1, "Nyquist"),
         (440.0, 51, "Nyquist"), (440.0, 0, "max harmonic"), (440.0, 4, "too short")],
    )
    def test_argument_errors_come_before_any_block_is_read(self, f0, max_harmonic, message):
        def never():
            raise AssertionError("block read before the arguments were checked")
            yield

        count = 400 if message == "too short" else RATE
        with pytest.raises(ValueError, match=message):
            synth._analyze_blocks(RATE, count, never(), f0, max_harmonic)
