"""The public names of the package: a guard against silent removal."""

import importlib

import pytest

import timbrecolor

PUBLIC_NAMES = [
    "AMPLITUDE_FLOOR",
    "Band",
    "BesselCoefficients",
    "CMFFormatError",
    "ColorMatchingTable",
    "DEFAULT_TAIL_TOLERANCE",
    "DegenerateSpectrumError",
    "Digraph",
    "ENDPOINT_TOLERANCE",
    "EndpointError",
    "FMParams",
    "Gesture",
    "GestureFormatError",
    "LineSpectrum",
    "MERGE_TOLERANCE_HZ",
    "OCTAVE_TOP_NM",
    "OctaveMap",
    "SRGBColor",
    "SampledPath",
    "SampledWave",
    "SpectralLine",
    "VISIBLE_MAX_NM",
    "VISIBLE_MIN_NM",
    "WavFormatError",
    "XYZColor",
    "adsr_gesture",
    "analyze_harmonics",
    "bessel_j",
    "bessel_row",
    "chromaticity",
    "concatenate",
    "constant_path",
    "energy_order",
    "fm_sample",
    "fm_sidebands",
    "fold_spectrum",
    "freq_to_wavelength",
    "linear_band",
    "load_cmf",
    "make_gesture",
    "map_gesture",
    "map_path",
    "octave_reduce",
    "parse_gesture",
    "project_to_cube",
    "read_ppm",
    "read_wav",
    "render_fm_path",
    "render_fm_wave",
    "reverse",
    "serialize_gesture",
    "spectrum_to_xyz",
    "spectrum_xyz_raw",
    "standard_observer",
    "synthesize",
    "wavelength_to_xyz",
    "write_ppm",
    "write_wav",
    "xyz_to_srgb",
]


def test_all_lists_exactly_the_pinned_names():
    assert sorted(timbrecolor.__all__) == PUBLIC_NAMES
    assert len(set(timbrecolor.__all__)) == len(timbrecolor.__all__) == 59


@pytest.mark.parametrize("name", PUBLIC_NAMES)
def test_name_resolves_to_its_defining_module(name):
    obj = getattr(timbrecolor, name)
    module = getattr(obj, "__module__", None)
    if module is not None and module.startswith("timbrecolor."):
        assert getattr(importlib.import_module(module), name) is obj
