"""Sideband generation, folding, and resynthesis of line spectra."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import bessel_reference, fold_by_dict, two_sided_lines
from timbrecolor.bessel import bessel_row
from timbrecolor.spectrum import (
    MERGE_TOLERANCE_HZ,
    LineSpectrum,
    SpectralLine,
    _fold,
    _sideband_orders,
    fm_sidebands,
    fold_spectrum,
    synthesize,
)

TWO_PI = 2.0 * math.pi


class TestSpectralLine:
    def test_accepts_negative_amplitude(self):
        line = SpectralLine(frequency=100.0, amplitude=-0.5)
        assert line.amplitude == -0.5

    def test_rejects_negative_frequency(self):
        with pytest.raises(ValueError):
            SpectralLine(frequency=-1.0, amplitude=1.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            SpectralLine(frequency=math.inf, amplitude=1.0)
        with pytest.raises(ValueError):
            SpectralLine(frequency=1.0, amplitude=math.nan)

    def test_rejects_phase_outside_turn(self):
        with pytest.raises(ValueError):
            SpectralLine(frequency=1.0, amplitude=1.0, phase=-0.1)
        with pytest.raises(ValueError):
            SpectralLine(frequency=1.0, amplitude=1.0, phase=TWO_PI)


class TestLineSpectrum:
    def test_rejects_unsorted_lines(self):
        with pytest.raises(ValueError):
            LineSpectrum([200.0, 100.0], [1.0, 1.0])

    def test_rejects_duplicate_frequencies(self):
        with pytest.raises(ValueError):
            LineSpectrum([100.0, 100.0], [1.0, 0.5])

    def test_rejects_zero_frequency_line(self):
        with pytest.raises(ValueError):
            LineSpectrum([0.0], [1.0])

    def test_rejects_nonfinite_dc(self):
        with pytest.raises(ValueError):
            LineSpectrum([], [], dc_term=math.nan)

    @pytest.mark.parametrize(
        "freqs, amps, phases, message",
        [
            ([100.0, 200.0], [1.0], None, "line array lengths differ: 2, 1, 2"),
            ([100.0], [1.0], [0.0, 0.0], "line array lengths differ: 1, 1, 2"),
            ([[100.0, 200.0]], [[1.0, 1.0]], None, "frequencies must be 1-D, got shape (1, 2)"),
            ([100.0], [math.nan], None, "line amplitude must be finite, got nan"),
            ([100.0], [1.0], [TWO_PI], f"line phase must lie in [0, 2*pi), got {TWO_PI!r}"),
            ([-100.0], [1.0], None, "line frequency must be finite and >= 0, got -100.0"),
        ],
    )
    def test_rejects_malformed_arrays(self, freqs, amps, phases, message):
        with pytest.raises(ValueError) as info:
            LineSpectrum(freqs, amps, phases)
        assert str(info.value) == message

    def test_phases_default_to_zero_and_arrays_are_read_only(self):
        spec = LineSpectrum([100.0, 300.0], [0.25, -0.5])
        assert spec.phases.dtype == np.float64
        assert np.array_equal(spec.phases, [0.0, 0.0])
        with pytest.raises(ValueError):
            spec.amplitudes[0] = 1.0

    def test_lines_are_views_of_the_arrays(self):
        spec = LineSpectrum([100.0, 300.0], [0.25, -0.5], [1.0, 0.0])
        assert spec.lines == (
            SpectralLine(frequency=100.0, amplitude=0.25, phase=1.0),
            SpectralLine(frequency=300.0, amplitude=-0.5, phase=0.0),
        )
        assert all(type(line.frequency) is float for line in spec.lines)

    def test_array_views(self):
        spec = LineSpectrum([100.0, 300.0], [0.25, -0.5], [1.0, 0.0], dc_term=0.1)
        assert np.array_equal(spec.frequencies, [100.0, 300.0])
        assert np.array_equal(spec.amplitudes, [0.25, -0.5])
        assert np.array_equal(spec.phases, [1.0, 0.0])


class TestFMSidebands:
    def test_zero_index_is_the_bare_carrier(self):
        assert fm_sidebands(440.0, 880.0, 0.0) == [(440.0, 1.0)]

    @pytest.mark.parametrize("index", [0.5, 2.0, 5.0])
    def test_count_and_values_match_reference(self, index):
        raw = fm_sidebands(440.0, 880.0, index)
        order = bessel_row(index).max_order
        assert len(raw) == 2 * order + 1
        reference = two_sided_lines(440.0, 880.0, index, order)
        for (got_f, got_a), (want_f, want_a) in zip(raw, reference):
            assert got_f == want_f
            assert abs(got_a - want_a) <= 1e-12

    def test_parity_signs(self):
        raw = dict(fm_sidebands(100.0, 7.0, 1.5))
        order = bessel_row(1.5).max_order
        for n in range(1, order + 1):
            upper = raw[100.0 + n * 7.0]
            lower = raw[100.0 - n * 7.0]
            if n % 2 == 0:
                assert lower == upper
            else:
                assert lower == -upper

    def test_rejects_bad_frequencies(self):
        with pytest.raises(ValueError):
            fm_sidebands(0.0, 880.0, 1.0)
        with pytest.raises(ValueError):
            fm_sidebands(440.0, -880.0, 1.0)


class TestFoldSpectrum:
    def test_collision_formula_at_harmonic_ratio(self):
        # carrier 440, modulator 880: sidebands collide at odd multiples
        # of 440 and the merged amplitude is J_k + (-1)^k J_{k+1}
        index = 2.0
        folded = fold_spectrum(fm_sidebands(440.0, 880.0, index))
        order = bessel_row(index).max_order
        assert folded.dc_term == 0.0
        for line in folded.lines:
            ratio = line.frequency / 440.0
            assert abs(ratio - round(ratio)) < 1e-12
            assert round(ratio) % 2 == 1
        by_freq = {line.frequency: line.amplitude for line in folded.lines}
        for k in range(order):
            jk = bessel_reference(k, index)
            jk1 = bessel_reference(k + 1, index)
            want = jk + (-1.0) ** k * jk1
            got = by_freq[(2 * k + 1) * 440.0]
            assert abs(got - want) <= 1e-12

    @pytest.mark.parametrize("index", [0.5, 2.0, 5.0, 10.0])
    def test_matches_dictionary_fold(self, index):
        raw = fm_sidebands(440.0, 880.0, index)
        folded = fold_spectrum(raw)
        want_lines, want_dc = fold_by_dict(raw)
        assert folded.dc_term == want_dc
        assert [line.frequency for line in folded.lines] == list(want_lines)
        for line in folded.lines:
            assert abs(line.amplitude - want_lines[line.frequency]) <= 1e-15

    def test_equal_carrier_and_modulator_routes_dc(self):
        # n = -1 lands exactly on frequency zero
        index = 1.5
        raw = fm_sidebands(440.0, 440.0, index)
        folded = fold_spectrum(raw)
        assert folded.dc_term == pytest.approx(-bessel_reference(1, index), abs=1e-12)
        assert all(line.frequency > 0.0 for line in folded.lines)

    def test_merge_within_tolerance(self):
        folded = fold_spectrum([(1000.0, 0.25), (1000.0 + 0.5e-9, 0.5)])
        assert len(folded.lines) == 1
        assert folded.lines[0].amplitude == 0.75

    def test_merge_groups_keep_their_first_frequency(self):
        # the third line is within tolerance of the second but not of the
        # group's first, so the chain stops there
        folded = fold_spectrum(
            [(1000.0, 0.25), (1000.0 + 0.6e-9, 0.5), (1000.0 + 1.2e-9, 0.125)]
        )
        assert folded.frequencies.tolist() == [1000.0, 1000.0 + 1.2e-9]
        assert folded.amplitudes.tolist() == [0.75, 0.125]

    def test_equal_frequencies_add_in_input_order(self):
        # 0.1 + 0.2 + 0.3 != 0.3 + 0.2 + 0.1 in floating point
        folded = fold_spectrum([(500.0, 0.1), (-500.0, -0.2), (500.0, 0.3)])
        assert folded.amplitudes.tolist() == [0.1 + 0.2 + 0.3]

    def test_all_negative_raw_list_folds(self):
        folded = fold_spectrum([(-300.0, 0.5), (-100.0, -0.25)])
        assert folded.frequencies.tolist() == [100.0, 300.0]
        assert folded.amplitudes.tolist() == [0.25, -0.5]
        assert folded.dc_term == 0.0

    def test_negative_zero_routes_to_dc_unflipped(self):
        folded = fold_spectrum([(-0.0, 0.4), (200.0, 1.0)])
        assert folded.dc_term == 0.4
        assert folded.frequencies.tolist() == [200.0]

    @pytest.mark.parametrize(
        "raw",
        [[(100.0, -0.0)], [(-300.0, 0.0)], [(100.0, -0.0), (100.0, -0.0)], [(100.0, 0.5), (-100.0, 0.5)]],
    )
    def test_exact_keys_equal_the_dictionary_fold_sign_of_zero_included(self, raw):
        # each group sums from +0.0 in input order, as the dictionary does
        folded = fold_spectrum(raw)
        want_lines, want_dc = fold_by_dict(raw)
        assert folded.frequencies.tolist() == list(want_lines)
        assert np.array_equal(bits(folded.amplitudes), bits(list(want_lines.values())))
        assert bits(folded.dc_term) == bits(want_dc)

    @pytest.mark.parametrize("raw", [[(100.0, 1.0)], [(0.0, 0.5), (-0.0, 0.25)], []])
    def test_dc_term_is_a_python_float(self, raw):
        # with no DC line, or no line above DC, as well as with both
        assert type(fold_spectrum(raw).dc_term) is float

    def test_empty_raw_list_is_an_empty_spectrum(self):
        folded = fold_spectrum([])
        assert len(folded.lines) == 0 and folded.dc_term == 0.0

    def test_rejects_entries_that_are_not_pairs(self):
        with pytest.raises(ValueError):
            fold_spectrum([(1.0, 2.0, 3.0)])
        with pytest.raises(ValueError):
            fold_spectrum([1.0, 2.0])

    def test_nearby_lines_stay_separate(self):
        folded = fold_spectrum([(1000.0, 0.25), (1000.1, 0.5)])
        assert len(folded.lines) == 2

    def test_tiny_frequency_routes_to_dc(self):
        folded = fold_spectrum([(MERGE_TOLERANCE_HZ / 2, 0.3), (500.0, 1.0)])
        assert folded.dc_term == 0.3
        assert len(folded.lines) == 1

    def test_rejects_nonfinite_entries(self):
        with pytest.raises(ValueError):
            fold_spectrum([(math.nan, 1.0)])
        with pytest.raises(ValueError):
            fold_spectrum([(100.0, math.inf)])

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=-5000.0, max_value=5000.0, allow_nan=False),
                st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
            ),
            min_size=1,
            max_size=20,
        )
    )
    def test_folding_preserves_the_waveform(self, raw):
        t = np.linspace(0.0, 0.01, 64)
        direct = np.zeros_like(t)
        for freq, amp in raw:
            direct += amp * np.sin(TWO_PI * freq * t)
        folded = fold_spectrum(raw)
        resynth = synthesize(folded, t, include_dc=False)
        # merged lines may sit up to the merge tolerance away from the
        # originals, so allow for that frequency drift over the window
        assert np.max(np.abs(direct - resynth)) <= 1e-7


def bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.uint64)


class TestArrayRows:
    """Many rows at once equal one row at a time, bit for bit."""

    def test_sideband_orders_are_fm_sidebands(self):
        indices = [0.0, 5e-324, 0.37, 2.0, 13.7, 40.0, 13.7, 0.0]
        seen, orders = np.zeros(len(indices), dtype=np.int64), []
        for rows, freqs, amps in _sideband_orders(300.0, 137.3, indices):
            orders.append(len(freqs) // 2)
            assert amps.shape == (np.count_nonzero(rows), 2 * orders[-1] + 1)
            seen += rows
            for j, row in zip(np.flatnonzero(rows).tolist(), amps):
                raw = fm_sidebands(300.0, 137.3, indices[j])
                assert np.array_equal(bits(np.column_stack((freqs, row))), bits(raw))
                assert all(type(v) is float for pair in raw for v in pair)
        assert seen.tolist() == [1] * len(indices)  # each index in one order
        assert orders == sorted(set(orders)) and len(orders) < len(indices)

    def test_fold_equals_fold_spectrum_row_by_row(self):
        lines = [
            [(1000.0, 0.25), (1000.0 + 0.6e-9, 0.5), (1000.0 + 1.2e-9, 0.125)],
            [],
            [(-0.0, 0.4), (0.5e-9, -0.0), (1.6e-9, 0.3), (200.0, 1.0)],
            [(500.0, 0.1), (-500.0, -0.2), (500.0, 0.3), (-700.0, -0.0)],
            [(0.0, 0.0)],
            [(-1e-9, 0.5), (1e-9, 0.25), (1.5e-9, -0.0)],
            [(440.0 + n * 3e-13, 1.0 / (n + 9)) for n in range(-8, 9)],
            [(440.0 + n * 1e-10, 1.0 / (n + 30)) for n in range(-20, 21)],
        ]
        for k, pairs in enumerate(lines):
            freqs, amps = np.reshape(pairs, (-1, 2)).T
            rows = np.vstack((amps, amps[::-1], -0.0 * amps, np.arange(len(amps)) - 1.5))
            f, a, dc = _fold(freqs, rows)
            assert a.shape == (len(rows), len(f)) and dc.shape == (len(rows),)
            for j, row in enumerate(rows):
                want = fold_spectrum(zip(freqs, row))
                assert np.array_equal(bits(f), bits(want.frequencies)), (k, j)
                assert np.array_equal(bits(a[j]), bits(want.amplitudes)), (k, j)
                assert bits(dc[j]) == bits(want.dc_term), (k, j)

    @pytest.mark.parametrize("freqs", [[0.0], [1e-9, -0.0], []])
    def test_fold_is_float64_with_no_line_above_dc(self, freqs):
        got = _fold(np.array(freqs), np.ones((2, len(freqs))))
        assert [(part.dtype, part.shape) for part in got] == [
            (np.float64, (0,)), (np.float64, (2, 0)), (np.float64, (2,))
        ]

    def test_fold_reports_the_first_bad_line_in_row_order(self):
        freqs = np.array([1.0, 2.0, np.inf])
        amps = np.array([[1.0, np.nan, 1.0], [np.nan, 1.0, 1.0]])
        with pytest.raises(ValueError, match=r"^raw line \(2.0, nan\) is not finite$"):
            _fold(freqs, amps)
        with pytest.raises(ValueError, match=r"^raw line \(1.0, nan\) is not finite$"):
            _fold(freqs, amps[::-1])
        with pytest.raises(ValueError, match=r"^raw line \(inf, 1.0\) is not finite$"):
            _fold(freqs, np.ones((2, 3)))


class TestSynthesize:
    def test_single_line_formula(self):
        spec = LineSpectrum([100.0], [0.5], [1.25], dc_term=0.2)
        t = np.linspace(0.0, 0.05, 33)
        want = 0.2 + 0.5 * np.sin(TWO_PI * 100.0 * t + 1.25)
        assert np.allclose(synthesize(spec, t), want, atol=1e-15)
        want_ac = want - 0.2
        assert np.allclose(synthesize(spec, t, include_dc=False), want_ac, atol=1e-15)

    @pytest.mark.parametrize("index", [2.0, 5.0])
    def test_fft_peaks_match_folded_amplitudes(self, index):
        # independent route: render the FM formula directly, then read line
        # magnitudes off an exact-bin FFT (1 second at 44100, integer lines)
        rate = 44100
        t = np.arange(rate, dtype=np.float64) / rate
        wave = np.sin(TWO_PI * 440.0 * t + index * np.sin(TWO_PI * 880.0 * t))
        magnitudes = np.abs(np.fft.rfft(wave)) * 2.0 / rate
        folded = fold_spectrum(fm_sidebands(440.0, 880.0, index))
        checked = 0
        for line in folded.lines:
            if abs(line.amplitude) < 1e-3:
                continue
            bin_index = int(round(line.frequency))
            assert abs(line.frequency - bin_index) < 1e-9
            measured = magnitudes[bin_index]
            assert abs(measured - abs(line.amplitude)) <= 1e-3 * abs(line.amplitude)
            checked += 1
        assert checked >= 5
