"""End-to-end acceptance gates for the whole toolkit.

Each test prints one verdict line; run `pytest tests/test_acceptance.py -v -s`
to read the results as a checklist.  Tolerances here are the contract the
rest of the suite refines.
"""

import math
import time
from types import SimpleNamespace

import numpy as np
import pytest

from oracles import bessel_reference
from timbrecolor.bessel import DEFAULT_TAIL_TOLERANCE, bessel_j, bessel_row
from timbrecolor.cli import main as cli_main
from timbrecolor.color import (
    OctaveMap,
    chromaticity,
    freq_to_wavelength,
    octave_reduce,
    spectrum_xyz_raw,
    standard_observer,
)
from timbrecolor.gesture import (
    ENDPOINT_TOLERANCE,
    SampledPath,
    adsr_gesture,
    map_gesture,
    map_path,
)
from timbrecolor.ppm import read_ppm
from timbrecolor.spectrum import (
    LineSpectrum,
    SpectralLine,
    fm_sidebands,
    fold_spectrum,
    synthesize,
)
from timbrecolor.synth import FMParams, analyze_harmonics, render_fm_wave
from timbrecolor.wavefile import read_wav

RATE = 44100


def verdict(number: int, description: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    line = f"[criterion {number}] {status}: {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert passed, line


@pytest.fixture(scope="module")
def default_sweep(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep")
    args = [
        "fm-path",
        "--out-wav", str(out / "sweep.wav"),
        "--out-img", str(out / "sweep.ppm"),
        "--out-csv", str(out / "sweep.csv"),
    ]
    started = time.perf_counter()
    code = cli_main(args)
    elapsed = time.perf_counter() - started
    return SimpleNamespace(code=code, elapsed=elapsed, out=out)


def test_c1_default_sweep_covers_the_full_grid(default_sweep):
    ok = default_sweep.code == 0
    rows = (default_sweep.out / "sweep.csv").read_text().splitlines()
    wave = read_wav(default_sweep.out / "sweep.wav")
    image = read_ppm(default_sweep.out / "sweep.ppm")
    ok = ok and len(rows) == 1 + 201
    ok = ok and len(wave.samples) == 201 * 4410
    ok = ok and image.shape == (13 * 32, 16 * 32, 3)
    ok = ok and default_sweep.elapsed < 30.0
    verdict(
        1,
        "default sweep renders 201 colors and 886410 samples in under 30 s",
        ok,
        f"rows={len(rows) - 1} samples={len(wave.samples)} "
        f"image={image.shape} elapsed={default_sweep.elapsed:.1f}s",
    )


def test_c2_bessel_rows_meet_tolerance_and_reference():
    worst_value = 0.0
    worst_tail = 0.0
    for index in (0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0):
        row = bessel_row(index)
        worst_tail = max(worst_tail, 1.0 - row.two_sided_energy())
        for order in range(row.max_order + 2):
            got = bessel_j(order, index)
            want = bessel_reference(order, index)
            worst_value = max(worst_value, abs(got - want))
    ok = worst_value <= 1e-12 and worst_tail < DEFAULT_TAIL_TOLERANCE
    verdict(
        2,
        "sideband rows match an independent reference to 1e-12 with "
        "energy tails under 1e-10",
        ok,
        f"max value error={worst_value:.2e} max tail={worst_tail:.2e}",
    )


def test_c3_truncated_resynthesis_tracks_the_rendered_wave():
    worst = 0.0
    for index in (0.5, 2.0, 10.0):
        wave = render_fm_wave(FMParams(440.0, 880.0, index), 0.1, RATE)
        t = np.arange(len(wave.samples), dtype=np.float64) / RATE
        folded = fold_spectrum(fm_sidebands(440.0, 880.0, index))
        resynth = synthesize(folded, t, include_dc=False)
        worst = max(worst, float(np.max(np.abs(wave.samples - resynth))))
    ok = worst <= 1e-6
    verdict(
        3,
        "folded-spectrum resynthesis stays within 1e-6 of the rendered wave "
        "for indices up to 10",
        ok,
        f"max pointwise error={worst:.2e}",
    )


def test_c4_analysis_recovers_the_folded_spectrum():
    index = 2.0
    wave = render_fm_wave(FMParams(440.0, 880.0, index), 0.5, RATE)
    folded = fold_spectrum(fm_sidebands(440.0, 880.0, index))
    max_harmonic = int(folded.lines[-1].frequency / 440.0)
    spec = analyze_harmonics(wave, 440.0, max_harmonic)
    measured = {line.frequency: line for line in spec.lines}
    worst_rel = 0.0
    checked = 0
    ok = True
    for line in folded.lines:
        if abs(line.amplitude) < 1e-3:
            continue
        checked += 1
        got = measured.get(line.frequency)
        if got is None:
            ok = False
            continue
        worst_rel = max(
            worst_rel, abs(got.amplitude - abs(line.amplitude)) / abs(line.amplitude)
        )
    ok = ok and checked >= 5 and worst_rel <= 1e-3
    verdict(
        4,
        "harmonic analysis recovers every significant sideband to 0.1%",
        ok,
        f"lines checked={checked} max relative error={worst_rel:.2e}",
    )


def test_c5_flat_comb_sits_at_the_white_point():
    table = standard_observer()
    freqs = sorted(760.0 * 440.0 / lam for lam in table.wavelengths)
    spec = LineSpectrum(freqs, np.ones(len(freqs)))
    x, y = chromaticity(spectrum_xyz_raw(spec, OctaveMap(), table))
    deviation = max(abs(x - 1.0 / 3.0), abs(y - 1.0 / 3.0))
    ok = deviation < 0.02
    verdict(
        5,
        "an equal-weight comb across the octave lands at the white point "
        "within 0.02",
        ok,
        f"chromaticity=({x:.5f}, {y:.5f}) deviation={deviation:.5f}",
    )


def test_c6_point_maps_respect_identity_and_composition():
    rng = np.random.default_rng(20260815)
    failures = 0
    trials = 1000
    for _ in range(trials):
        n = int(rng.integers(2, 12))
        d = int(rng.integers(1, 4))
        path = SampledPath(points=rng.uniform(-10.0, 10.0, size=(n, d)))
        matrix_a = rng.uniform(-2.0, 2.0, size=(d + 1, d))
        offset_a = rng.uniform(-1.0, 1.0, size=d + 1)
        matrix_b = rng.uniform(-2.0, 2.0, size=(2, d + 1))
        offset_b = rng.uniform(-1.0, 1.0, size=2)

        def f(q):
            return matrix_a @ q + offset_a

        def h(q):
            return matrix_b @ q + offset_b

        identity = map_path(lambda q: q, path)
        once = map_path(lambda q: h(f(q)), path)
        twice = map_path(h, map_path(f, path))
        if not np.array_equal(identity.points, path.points):
            failures += 1
        elif not np.array_equal(once.points, twice.points):
            failures += 1
    ok = failures == 0
    verdict(
        6,
        "identity and composition laws hold exactly on 1000 random paths",
        ok,
        f"failures={failures}/{trials}",
    )


def test_c7_envelope_gestures_keep_the_endpoint_law():
    rng = np.random.default_rng(7152026)
    worst = 0.0
    trials = 200
    for _ in range(trials):
        attack_level = float(rng.uniform(0.2, 1.0))
        sustain_level = float(rng.uniform(0.0, 1.0))
        durations = rng.uniform(0.01, 2.0, size=4)
        samples = int(rng.integers(2, 24))
        envelope = adsr_gesture(attack_level, sustain_level, durations, samples)
        scale = rng.uniform(0.1, 255.0, size=3)

        def to_color(q):
            return q[1] * scale

        colored = map_gesture(to_color, envelope)
        for gesture in (envelope, colored):
            for (src, dst), path in zip(
                gesture.digraph.arrows, gesture.arrow_paths
            ):
                worst = max(
                    worst,
                    float(np.max(np.abs(path.start - gesture.vertex_points[src]))),
                    float(np.max(np.abs(path.end - gesture.vertex_points[dst]))),
                )
    ok = worst <= ENDPOINT_TOLERANCE
    verdict(
        7,
        "arrow paths meet their vertices within 1e-9 across 200 random "
        "envelope transfers",
        ok,
        f"worst endpoint gap={worst:.2e}",
    )


def test_c8_octave_mapping_is_exact_at_the_edges_and_under_doubling():
    octave = OctaveMap()
    ok = freq_to_wavelength(440.0, octave) == 760.0
    ok = ok and freq_to_wavelength(880.0, octave) == 380.0
    rng = np.random.default_rng(88)
    mismatches = 0
    trials = 1000
    for _ in range(trials):
        g = float(rng.uniform(1.0, 40000.0))
        if octave_reduce(2.0 * g, octave) != octave_reduce(g, octave):
            mismatches += 1
    ok = ok and mismatches == 0
    verdict(
        8,
        "octave endpoints map to exactly 760 and 380 nm and doubling "
        "invariance is exact on 1000 random frequencies",
        ok,
        f"doubling mismatches={mismatches}/{trials}",
    )


def test_c9_the_two_command_line_routes_agree(tmp_path):
    fm_dir = tmp_path / "fm"
    fm_dir.mkdir()
    args = [
        "fm-path",
        "--i-start", "2", "--i-end", "2",
        "--out-wav", str(fm_dir / "one.wav"),
        "--out-img", str(fm_dir / "one.ppm"),
        "--out-csv", str(fm_dir / "one.csv"),
    ]
    assert cli_main(args) == 0
    fm_rgb = [
        int(v)
        for v in (fm_dir / "one.csv").read_text().splitlines()[1].split(",")[4:]
    ]
    args = [
        "wav2color",
        "--in", str(fm_dir / "one.wav"),
        "--fundamental", "440",
        "--max-harmonic", "27",
        "--out-csv", str(fm_dir / "two.csv"),
        "--out-img", str(fm_dir / "two.ppm"),
    ]
    assert cli_main(args) == 0
    wav_rgb = [
        int(v)
        for v in (fm_dir / "two.csv").read_text().split("\n\n")[1]
        .splitlines()[1]
        .split(",")[3:]
    ]
    gap = max(abs(a - b) for a, b in zip(fm_rgb, wav_rgb))
    ok = gap <= 2
    verdict(
        9,
        "analyzing the rendered sweep audio reproduces the sweep color "
        "within 2 codes per channel",
        ok,
        f"direct={tuple(fm_rgb)} from audio={tuple(wav_rgb)} gap={gap}",
    )
