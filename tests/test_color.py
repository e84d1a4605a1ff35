"""Frequency-to-wavelength mapping and colorimetry."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import octave_loop, weighted_spectrum_xyz
from timbrecolor.color import (
    _XYZ_TO_RGB,
    OCTAVE_TOP_NM,
    VISIBLE_MAX_NM,
    VISIBLE_MIN_NM,
    CMFFormatError,
    ColorMatchingTable,
    DegenerateSpectrumError,
    OctaveMap,
    SRGBColor,
    XYZColor,
    _cube_rows,
    _srgb_rows,
    _xyz_rows,
    chromaticity,
    freq_to_wavelength,
    load_cmf,
    octave_reduce,
    project_to_cube,
    spectrum_to_xyz,
    spectrum_xyz_raw,
    standard_observer,
    wavelength_to_xyz,
    xyz_to_srgb,
)
from timbrecolor.spectrum import LineSpectrum, _fold, _sideband_orders, fm_sidebands, fold_spectrum


ARRAY_BASES = [20.0, 261.63, 440.0, 333.3333, 20000.0]


@pytest.fixture(scope="module")
def octave_inputs() -> np.ndarray:
    """Sweep lines, octave edges, extremes and random magnitudes."""
    values = [5e-324, 2.2250738585072014e-308, 1.7e308, np.finfo(float).max]
    # every folded line of the 2001-index fine sweep (fc 440, fm 880) and of
    # an incommensurate one, each sideband order folded once (bit for bit the
    # fold_spectrum(fm_sidebands(...)) chain per index, see test_spectrum)
    for fc, fm, indices in ((440.0, 880.0, 0.0037 + 0.01 * np.arange(2001)),
                            (100.0, 137.3, np.arange(0.0, 100.0, 0.5))):
        for _rows, freqs, amps in _sideband_orders(fc, fm, indices):
            values.extend(_fold(freqs, amps)[0])
    for base in ARRAY_BASES:
        for edge in (base, 2.0 * base, 4.0 * base, 0.5 * base):
            values += [edge, np.nextafter(edge, 0.0), np.nextafter(edge, np.inf)]
    rng = np.random.default_rng(2024)
    values.extend(10.0 ** rng.uniform(-3.0, 6.0, 3000))
    values.extend(10.0 ** rng.uniform(-300.0, 300.0, 300))
    return np.unique(np.array(values, dtype=np.float64))


def synthetic_table_text(rows=81) -> str:
    lines = ["# synthetic table"]
    for i in range(rows):
        lam = 380 + 5 * i
        lines.append(f"{lam} {(100 + i) / 1000:.3f} 0.200 0.300")
    return "\n".join(lines) + "\n"


def spectrum_of(pairs, dc=0.0) -> LineSpectrum:
    ordered = sorted(pairs, key=lambda fa: fa[0])
    return LineSpectrum(
        [f for f, _ in ordered], [a for _, a in ordered], dc_term=dc
    )


class TestLoadCMF:
    def test_parses_synthetic_table(self):
        table = load_cmf(synthetic_table_text())
        assert len(table.wavelengths) == 81
        assert table.wavelengths[0] == 380.0
        assert table.wavelengths[-1] == 780.0

    def test_reports_column_count_with_line_number(self):
        text = synthetic_table_text().replace(
            "385 0.101 0.200 0.300", "385 0.101 0.200"
        )
        with pytest.raises(CMFFormatError, match="line 3"):
            load_cmf(text)

    def test_reports_bad_float_with_line_number(self):
        text = synthetic_table_text().replace("0.102", "zebra")
        with pytest.raises(CMFFormatError, match="line 4"):
            load_cmf(text)

    def test_rejects_empty_table(self):
        with pytest.raises(CMFFormatError, match="no data rows"):
            load_cmf("# only comments\n\n")

    def test_rejects_wrong_row_count(self):
        with pytest.raises(CMFFormatError, match="81"):
            load_cmf(synthetic_table_text(rows=80))

    def test_rejects_wrong_step(self):
        text = synthetic_table_text().replace("385 ", "386 ")
        with pytest.raises(CMFFormatError, match="5 nm"):
            load_cmf(text)

    def test_rejects_negative_values(self):
        text = synthetic_table_text().replace("380 0.100 ", "380 -0.100 ")
        with pytest.raises(CMFFormatError, match="xbar"):
            load_cmf(text)

    def test_comments_and_blanks_ignored(self):
        text = "\n# header\n" + synthetic_table_text() + "\n# trailer\n"
        assert len(load_cmf(text).wavelengths) == 81


class TestColorMatchingTable:
    GRID = 380.0 + 5.0 * np.arange(81)

    def test_a_shifted_grid_is_refused_by_its_bounds(self):
        text = "".join(f"{w + 5.0} 0.1 0.2 0.3\n" for w in self.GRID)  # 385 to 785 nm
        with pytest.raises(CMFFormatError) as info:
            load_cmf(text)
        assert str(info.value) == "grid must cover [380.0, 780.0] nm, got [385.0, 785.0]"

    @pytest.mark.parametrize("name", ["xbar", "ybar", "zbar"])
    def test_a_short_column_is_refused_by_name(self, name):
        columns = {column: np.ones(81) for column in ("xbar", "ybar", "zbar")}
        columns[name] = np.ones(80)
        with pytest.raises(CMFFormatError) as info:
            ColorMatchingTable(self.GRID, **columns)
        assert str(info.value) == f"column {name} length differs from grid"


class TestStandardObserver:
    def test_shape_and_grid(self):
        table = standard_observer()
        assert len(table.wavelengths) == 81
        assert table.wavelengths[0] == VISIBLE_MIN_NM
        assert table.wavelengths[-1] == VISIBLE_MAX_NM

    def test_luminosity_peaks_at_555(self):
        table = standard_observer()
        peak = table.wavelengths[np.argmax(table.ybar)]
        assert peak == 555.0
        assert np.max(table.ybar) == 1.0

    def test_cached_instance(self):
        assert standard_observer() is standard_observer()


class TestWavelengthToXYZ:
    def test_node_lookup_is_exact(self):
        table = standard_observer()
        i = 20
        lam = float(table.wavelengths[i])
        xyz = wavelength_to_xyz(lam, table)
        assert xyz.x == table.xbar[i]
        assert xyz.y == table.ybar[i]
        assert xyz.z == table.zbar[i]

    def test_midpoint_is_the_average(self):
        table = standard_observer()
        xyz = wavelength_to_xyz(582.5, table)
        i = int((582.5 - 380.0) // 5.0)
        assert xyz.x == pytest.approx((table.xbar[i] + table.xbar[i + 1]) / 2, abs=1e-15)
        assert xyz.y == pytest.approx((table.ybar[i] + table.ybar[i + 1]) / 2, abs=1e-15)
        assert xyz.z == pytest.approx((table.zbar[i] + table.zbar[i + 1]) / 2, abs=1e-15)

    def test_rejects_out_of_range(self):
        table = standard_observer()
        with pytest.raises(ValueError):
            wavelength_to_xyz(379.9, table)
        with pytest.raises(ValueError):
            wavelength_to_xyz(780.1, table)


class TestOctaveReduce:
    def test_inside_stays_fixed(self):
        octave = OctaveMap()
        assert octave_reduce(660.0, octave) == 660.0
        assert octave_reduce(440.0, octave) == 440.0

    def test_top_of_octave_wraps_to_base(self):
        # the interval is half open: exactly one octave up is the base again
        assert octave_reduce(880.0, OctaveMap()) == 440.0

    def test_reduction_examples(self):
        octave = OctaveMap()
        assert octave_reduce(330.0, octave) == 660.0
        assert octave_reduce(1760.0, octave) == 440.0
        assert octave_reduce(27.5, octave) == 440.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            octave_reduce(0.0, OctaveMap())
        with pytest.raises(ValueError):
            octave_reduce(-440.0, OctaveMap())

    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=1e-6, max_value=1e12, allow_nan=False))
    def test_doubling_invariance_is_exact(self, g):
        octave = OctaveMap()
        assert octave_reduce(2.0 * g, octave) == octave_reduce(g, octave)

    @pytest.mark.parametrize("base", ARRAY_BASES)
    def test_array_matches_the_halving_loop_bit_for_bit(self, base, octave_inputs):
        inputs = octave_inputs
        got = octave_reduce(inputs, OctaveMap(base_hz=base))
        want = np.array([octave_loop(g, base) for g in inputs.tolist()])
        assert got.shape == inputs.shape
        assert got.tobytes() == want.tobytes()

    def test_scalar_gives_a_python_float(self):
        octave = OctaveMap()
        assert type(octave_reduce(330.0, octave)) is float
        assert type(octave_reduce(np.float64(330.0), octave)) is float
        assert type(octave_reduce(3, octave)) is float

    @pytest.mark.parametrize("bad", [0.0, -440.0, math.nan, math.inf])
    def test_a_bad_element_in_an_array_raises(self, bad):
        with pytest.raises(ValueError, match="positive"):
            octave_reduce(np.array([440.0, bad, 660.0]), OctaveMap())


class TestFreqToWavelength:
    def test_exact_endpoints(self):
        octave = OctaveMap()
        assert freq_to_wavelength(440.0, octave) == 760.0
        assert freq_to_wavelength(880.0, octave) == 380.0

    def test_is_decreasing(self):
        octave = OctaveMap()
        values = [freq_to_wavelength(g, octave) for g in np.linspace(440.0, 880.0, 32)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_midpoint_value(self):
        assert freq_to_wavelength(660.0, OctaveMap()) == pytest.approx(
            OCTAVE_TOP_NM * 440.0 / 660.0, rel=1e-15
        )

    def test_flip_reverses_endpoints(self):
        flipped = OctaveMap(flip=True)
        assert freq_to_wavelength(440.0, flipped) == 380.0
        assert freq_to_wavelength(880.0, flipped) == 760.0

    def test_rejects_outside_octave(self):
        octave = OctaveMap()
        with pytest.raises(ValueError):
            freq_to_wavelength(439.0, octave)
        with pytest.raises(ValueError):
            freq_to_wavelength(881.0, octave)

    @pytest.mark.parametrize("flip", [False, True])
    @pytest.mark.parametrize("base", ARRAY_BASES)
    def test_array_equals_the_scalar_results(self, base, flip, octave_inputs):
        octave = OctaveMap(base_hz=base, flip=flip)
        reduced = octave_reduce(octave_inputs, octave)
        got = freq_to_wavelength(reduced, octave)
        want = np.array([freq_to_wavelength(g, octave) for g in reduced.tolist()])
        assert got.tobytes() == want.tobytes()

    def test_scalar_gives_a_python_float(self):
        assert type(freq_to_wavelength(660.0, OctaveMap())) is float
        assert type(freq_to_wavelength(np.float64(660.0), OctaveMap())) is float

    def test_a_bad_element_in_an_array_raises(self):
        with pytest.raises(ValueError, match="outside the octave"):
            freq_to_wavelength(np.array([440.0, 881.0]), OctaveMap())
        with pytest.raises(ValueError, match="outside the octave"):
            freq_to_wavelength(np.array([math.nan]), OctaveMap())

    def test_base_validation(self):
        with pytest.raises(ValueError):
            OctaveMap(base_hz=10.0)
        with pytest.raises(ValueError):
            OctaveMap(base_hz=30000.0)


class TestSpectrumColor:
    def test_single_line_hits_the_octave_base_color(self):
        table = standard_observer()
        xyz = spectrum_xyz_raw(spectrum_of([(440.0, 1.0)]), OctaveMap(), table)
        want = wavelength_to_xyz(760.0, table)
        assert xyz == want

    def test_two_lines_average_by_weight(self):
        table = standard_observer()
        octave = OctaveMap()
        xyz = spectrum_xyz_raw(spectrum_of([(440.0, 1.0), (660.0, 3.0)]), octave, table)
        a = wavelength_to_xyz(freq_to_wavelength(440.0, octave), table).as_array()
        b = wavelength_to_xyz(freq_to_wavelength(660.0, octave), table).as_array()
        want = (1.0 * a + 3.0 * b) / 4.0
        assert np.allclose(xyz.as_array(), want, atol=1e-15)

    def test_octave_apart_lines_share_one_color(self):
        # 880 Hz reduces onto 440 Hz, so any mix of the two is the base color
        table = standard_observer()
        xyz = spectrum_xyz_raw(
            spectrum_of([(440.0, 0.7), (880.0, 0.3)]), OctaveMap(), table
        )
        want = wavelength_to_xyz(760.0, table)
        assert np.allclose(xyz.as_array(), want.as_array(), rtol=1e-14, atol=1e-18)

    def test_sign_is_a_phase_flip_not_a_weight_flip(self):
        table = standard_observer()
        octave = OctaveMap()
        plus = spectrum_xyz_raw(spectrum_of([(440.0, 1.0), (660.0, 0.5)]), octave, table)
        minus = spectrum_xyz_raw(
            spectrum_of([(440.0, 1.0), (660.0, -0.5)]), octave, table
        )
        assert plus == minus

    def test_matches_bruteforce_average(self):
        table = standard_observer()
        pairs = [(100.0, 0.2), (440.0, 1.0), (970.0, 0.5), (5000.0, 0.25)]
        xyz = spectrum_xyz_raw(spectrum_of(pairs), OctaveMap(), table)
        want = weighted_spectrum_xyz(
            pairs, 440.0, False, table.wavelengths, table.xbar, table.ybar, table.zbar
        )
        assert np.allclose(xyz.as_array(), want, atol=1e-9)

    def test_flip_changes_the_average(self):
        table = standard_observer()
        pairs = [(440.0, 1.0), (660.0, 1.0)]
        plain = spectrum_xyz_raw(spectrum_of(pairs), OctaveMap(), table)
        flipped = spectrum_xyz_raw(spectrum_of(pairs), OctaveMap(flip=True), table)
        want = weighted_spectrum_xyz(
            pairs, 440.0, True, table.wavelengths, table.xbar, table.ybar, table.zbar
        )
        assert np.allclose(flipped.as_array(), want, atol=1e-9)
        assert not np.allclose(flipped.as_array(), plain.as_array(), atol=1e-3)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(min_value=1e-3, max_value=1e3, allow_nan=False))
    def test_amplitude_scale_invariance(self, scale):
        table = standard_observer()
        octave = OctaveMap()
        pairs = [(440.0, 0.8), (550.0, 0.4), (660.0, 0.2)]
        scaled = [(f, a * scale) for f, a in pairs]
        one = spectrum_xyz_raw(spectrum_of(pairs), octave, table)
        other = spectrum_xyz_raw(spectrum_of(scaled), octave, table)
        assert np.allclose(one.as_array(), other.as_array(), rtol=1e-12, atol=1e-14)

    def test_flat_comb_is_nearly_white(self):
        # one equal-weight line aimed at every grid wavelength: the average
        # of the whole table, whose chromaticity sits at the white point
        table = standard_observer()
        octave = OctaveMap()
        freqs = sorted(760.0 * 440.0 / lam for lam in table.wavelengths)
        spec = spectrum_of([(f, 1.0) for f in freqs])
        x, y = chromaticity(spectrum_xyz_raw(spec, octave, table))
        assert abs(x - 1.0 / 3.0) < 0.02
        assert abs(y - 1.0 / 3.0) < 0.02

    def test_degenerate_spectra_raise(self):
        table = standard_observer()
        octave = OctaveMap()
        with pytest.raises(DegenerateSpectrumError):
            spectrum_xyz_raw(LineSpectrum([], []), octave, table)
        with pytest.raises(DegenerateSpectrumError):
            spectrum_xyz_raw(LineSpectrum([], [], dc_term=0.5), octave, table)
        with pytest.raises(DegenerateSpectrumError):
            spectrum_xyz_raw(spectrum_of([(440.0, 0.0)]), octave, table)

    @pytest.mark.parametrize(
        "fc, fm, base, flip",
        [
            (440.0, 880.0, 440.0, False),
            (100.0, 137.3, 261.63, True),
            (1000.0, 250.0, 20.0, False),
        ],
    )
    def test_equals_the_per_line_loop_exactly(self, fc, fm, base, flip):
        # the one-pass sums run in line order, so they match a loop over
        # the lines built from the scalar functions bit for bit
        table = standard_observer()
        octave = OctaveMap(base_hz=base, flip=flip)
        for index in np.arange(0.0, 20.0, 0.37):
            spec = fold_spectrum(fm_sidebands(fc, fm, index))
            total, acc = 0.0, np.zeros(3)
            for line in spec.lines:
                if line.amplitude == 0.0:
                    continue
                lam = freq_to_wavelength(octave_reduce(line.frequency, octave), octave)
                acc += abs(line.amplitude) * wavelength_to_xyz(lam, table).as_array()
                total += abs(line.amplitude)
            assert spectrum_xyz_raw(spec, octave, table) == XYZColor(*(acc / total))

    def test_spectrum_to_xyz_projects(self):
        table = standard_observer()
        xyz = spectrum_to_xyz(spectrum_of([(521.0, 1.0)]), OctaveMap(), table)
        arr = xyz.as_array()
        assert np.all(arr >= 0.0) and np.all(arr <= 1.0)


class TestProjectToCube:
    def test_interior_point_is_fixed(self):
        xyz = XYZColor(x=0.2, y=0.5, z=0.9)
        assert project_to_cube(xyz) == xyz

    def test_boundary_point_is_fixed(self):
        xyz = XYZColor(x=0.0, y=1.0, z=0.3)
        assert project_to_cube(xyz) == xyz

    def test_large_point_scales_by_max(self):
        got = project_to_cube(XYZColor(x=2.0, y=1.0, z=0.5))
        assert got.x == 1.0
        assert got.y == 0.5
        assert got.z == 0.25

    def test_scaling_preserves_chromaticity(self):
        xyz = XYZColor(x=3.0, y=1.5, z=1.5)
        assert chromaticity(project_to_cube(xyz)) == pytest.approx(
            chromaticity(xyz), abs=1e-15
        )

    def test_negative_components_clamp(self):
        got = project_to_cube(XYZColor(x=-0.5, y=2.0, z=1.0))
        assert got.x == 0.0
        assert got.y == 1.0
        assert got.z == 0.5

    def test_zero_stays_zero(self):
        assert project_to_cube(XYZColor(0.0, 0.0, 0.0)) == XYZColor(0.0, 0.0, 0.0)


class TestXYZToSRGB:
    def test_unit_tristimulus(self):
        assert xyz_to_srgb(XYZColor(1.0, 1.0, 1.0)) == SRGBColor(255, 249, 244)

    def test_d65_white_is_full_scale(self):
        got = xyz_to_srgb(XYZColor(0.95047, 1.0, 1.08883))
        assert got.r >= 254 and got.g >= 254 and got.b >= 254

    def test_black(self):
        assert xyz_to_srgb(XYZColor(0.0, 0.0, 0.0)) == SRGBColor(0, 0, 0)

    def test_linear_segment_of_the_transfer(self):
        # a very small luminance stays on the 12.92x linear branch
        xyz = XYZColor(0.002, 0.002, 0.002)
        got = xyz_to_srgb(xyz)
        linear = np.array(
            [
                3.2404542 - 1.5371385 - 0.4985314,
                -0.9692660 + 1.8760108 + 0.0415560,
                0.0556434 - 0.2040259 + 1.0572252,
            ]
        ) * 0.002
        assert np.all(linear < 0.0031308)
        want = [math.floor(255.0 * 12.92 * float(c) + 0.5) for c in linear]
        assert (got.r, got.g, got.b) == tuple(want)
        assert got.r > 0

    def test_out_of_gamut_clamps_cleanly(self):
        # strongly blue tristimulus drives red negative before the clamp
        got = xyz_to_srgb(XYZColor(0.1, 0.1, 1.0))
        assert got.r == 0
        assert 0 <= got.g <= 255 and 0 < got.b <= 255

    def test_channel_range_enforced(self):
        with pytest.raises(ValueError):
            SRGBColor(r=-1, g=0, b=0)
        with pytest.raises(ValueError):
            SRGBColor(r=0, g=256, b=0)


def parent_srgb(v) -> tuple[int, int, int]:
    """8-bit sRGB of one cube XYZ as a 3x3 matrix-vector product and Python's
    pow per channel, the way a single color has always been converted."""
    out = []
    for c in np.clip(_XYZ_TO_RGB @ np.asarray(v, dtype=np.float64), 0.0, 1.0).tolist():
        curve = 12.92 * c if c <= 0.0031308 else 1.055 * c ** (1.0 / 2.4) - 0.055
        out.append(math.floor(255.0 * curve + 0.5))
    return tuple(out)


class TestRowForms:
    """(n, 3) forms equal the one-color functions row by row, for any n."""

    @pytest.fixture(scope="class")
    def points(self) -> np.ndarray:
        rng = np.random.default_rng(7)
        special = [[0, 0, 0], [1, 1, 1], [0.95047, 1.0, 1.08883], [2, 1, 0.5],
                   [-0.5, 2, 1], [-1, -2, -3], [0.002, 0.002, 0.002], [0, 1, 0.3]]
        return np.vstack([special, rng.random((3000, 3)), 3 * rng.random((500, 3)) - 1])

    def test_cube_rows_equal_project_to_cube(self, points):
        got = _cube_rows(points)
        want = [project_to_cube(XYZColor(*p)).as_array() for p in points.tolist()]
        assert np.array_equal(got, want)
        assert np.array_equal(_cube_rows(points[:1]), got[:1])

    def test_srgb_rows_equal_a_per_color_product(self, points):
        cube = _cube_rows(points)
        got = _srgb_rows(cube)
        assert got.dtype == np.int64
        assert got.tolist() == [list(parent_srgb(p)) for p in cube]
        one_by_one = [xyz_to_srgb(XYZColor(*p)) for p in cube[:50].tolist()]
        assert [[c.r, c.g, c.b] for c in one_by_one] == got[:50].tolist()
        for k in (1, 2, 7, 33):
            assert np.array_equal(_srgb_rows(cube[:k]), got[:k])

    def test_xyz_rows_equal_spectrum_xyz_raw(self):
        octave, cmf = OctaveMap(base_hz=261.63, flip=True), standard_observer()
        spectra = [fold_spectrum(fm_sidebands(300.0, 137.3, i)) for i in (0.0, 0.5, 3.0, 17.2)]
        spectra.append(LineSpectrum([100.0, 200.0, 300.0], [0.0, -0.5, 0.0]))
        for spectrum in spectra:
            a = spectrum.amplitudes
            amps = np.vstack((a, a[::-1], -3.0 * a))
            rows = [LineSpectrum(spectrum.frequencies, row) for row in amps]
            got, totals = _xyz_rows(spectrum.frequencies, amps, octave, cmf)
            want = [spectrum_xyz_raw(sp, octave, cmf).as_array() for sp in rows]
            assert np.array_equal(got, want)
            sums = []  # each row's |amplitude| added in line order
            for sp in rows:
                total = 0.0
                for amplitude in sp.amplitudes.tolist():
                    total += abs(amplitude)
                sums.append(total)
            assert totals.tolist() == sums

    def test_xyz_rows_reject_any_degenerate_row(self):
        with pytest.raises(DegenerateSpectrumError):
            _xyz_rows(np.array([100.0, 200.0]), np.array([[1.0, 0.0], [0.0, -0.0]]),
                      OctaveMap(), standard_observer())
        with pytest.raises(DegenerateSpectrumError):
            _xyz_rows(np.empty(0), np.empty((2, 0)), OctaveMap(), standard_observer())

    def test_zero_amplitude_lines_change_no_bit(self):
        # every row's sums start at +0.0 and add only values >= +0.0, so a zero line's +0.0 changes nothing
        octave, cmf = OctaveMap(), standard_observer()
        folded = fold_spectrum(fm_sidebands(440.0, 880.0, 7.3))
        f, a = folded.frequencies, folded.amplitudes
        zero = np.arange(len(f)) % 3 == 0  # the first line among them
        amps = np.vstack((a, -a[::-1], 0.37 * a))
        amps[:, zero] = [[0.0], [-0.0], [0.0]]
        got = _xyz_rows(f, amps, octave, cmf)
        want = _xyz_rows(f[~zero], amps[:, ~zero], octave, cmf)
        assert [part.tobytes() for part in got] == [part.tobytes() for part in want]


class TestChromaticity:
    def test_known_value(self):
        assert chromaticity(XYZColor(1.0, 1.0, 2.0)) == (0.25, 0.25)

    def test_zero_raises(self):
        with pytest.raises(ValueError):
            chromaticity(XYZColor(0.0, 0.0, 0.0))
