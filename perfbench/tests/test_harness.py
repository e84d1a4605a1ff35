"""Self-tests for the benchmark harness.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

import run
import spans
import timbrecolor
import timbrecolor.cli  # noqa: F401  (binds the public functions in cli)
from workloads import Case, CheckFailed, bessel_j_at_2, encode_pcm16

ROOT = Path(__file__).resolve().parents[2]


def test_self_times_on_a_nested_span_tree():
    # cli.main [0,10] > bessel [1,4] > color [2,3];  cli.main > spectrum [5,9]
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0])
    tracer = spans.Tracer(clock=lambda: next(ticks))
    with tracer.span("cli.main"):
        with tracer.span("bessel.bessel_row"):
            with tracer.span("color.wavelength_to_xyz"):
                pass
        with tracer.span("spectrum.fold_spectrum"):
            pass
    assert [s[3] for s in tracer.spans] == [-1, 0, 1, 0]
    assert spans.self_times(tracer.spans) == [3.0, 2.0, 1.0, 4.0]
    m = spans.layer_metrics(tracer)
    assert (m["cli.self_s"], m["bessel.self_s"], m["color.self_s"], m["spectrum.self_s"]) == (
        3.0, 2.0, 1.0, 4.0)
    assert m["trace.wall_s"] == 10.0
    assert m["trace.other_s"] == 0.0
    assert m["bessel.calls"] == 1


def _bindings() -> list[tuple[str, str]]:
    public = spans.public_functions(timbrecolor)
    return sorted(
        (name, attr)
        for name, module in sys.modules.items()
        if name == "timbrecolor" or name.startswith("timbrecolor.")
        for attr, value in vars(module).items()
        if public.get(id(value)) is value
    )


def test_install_wraps_every_module_binding_of_a_public_function():
    before = _bindings()
    assert ("timbrecolor.cli", "bessel_row") in before
    assert ("timbrecolor.spectrum", "bessel_row") in before
    assert ("timbrecolor", "bessel_row") in before
    originals = {b: getattr(sys.modules[b[0]], b[1]) for b in before}
    tracer = spans.Tracer()
    try:
        assert tracer.install() == len(before)
        for (module, attr), original in originals.items():
            wrapped = getattr(sys.modules[module], attr)
            assert wrapped is not original and wrapped.__wrapped__ is original
        assert timbrecolor.bessel_row is timbrecolor.spectrum.bessel_row
        timbrecolor.spectrum.fm_sidebands(440.0, 880.0, 1.5)
        timbrecolor.cli.bessel_row(1.5)
    finally:
        tracer.uninstall()
    assert _bindings() == before
    names = [(s[0], s[3]) for s in tracer.spans]
    assert names == [("spectrum.fm_sidebands", -1), ("bessel.bessel_row", 0),
                     ("bessel.bessel_row", -1)]
    m = spans.layer_metrics(tracer)
    assert m["bessel.calls"] == 2 and m["bessel.rows"] == 1
    # one row of N + 1 values, fetched twice; 2N + 1 two-sided lines
    assert m["spectrum.raw_lines"] == m["bessel.coeffs"] - 1


def _envelope_case(tmp_path: Path, check) -> Case:
    text, img = tmp_path / "g.txt", tmp_path / "s.ppm"
    argv = ["envelope-transfer", "--color", "336699", "--samples-per-segment", "16",
            "--out-gesture", str(text), "--out-img", str(img)]
    return Case(argv=argv, media_seconds=0.9, outputs=[text, img], check=check)


def test_a_failed_check_counts_in_fail_frac_instead_of_crashing(tmp_path):
    def failing_check():
        raise CheckFailed("deliberately wrong reference")

    good = run.run_rep(ROOT, _envelope_case(tmp_path, lambda: None), "run", 60, set())
    bad = run.run_rep(ROOT, _envelope_case(tmp_path, failing_check), "run", 60, set())
    assert good.error is None
    assert bad.wall_s is not None and "deliberately wrong reference" in bad.error
    line = run.result_line([good, bad], {"wall_s": 1.0}, {"wall_s": "s"})
    assert '"correct": false, "attempted": 2, "failed": 1' in line


def test_a_failing_cli_call_or_missing_output_counts_as_failed(tmp_path):
    case = _envelope_case(tmp_path, lambda: None)
    bad_color = Case(argv=[*case.argv[:2], "zz", *case.argv[3:]], media_seconds=0.9,
                     outputs=case.outputs, check=case.check)
    assert "returned 2" in run.run_rep(ROOT, bad_color, "run", 60, set()).error

    def reads_missing_file():
        (tmp_path / "absent").read_text()

    rep = run.run_rep(ROOT, _envelope_case(tmp_path, reads_missing_file), "run", 60, set())
    assert rep.error.startswith("output check: FileNotFoundError")


def test_traced_rep_reports_layer_counts(tmp_path):
    rep = run.run_rep(ROOT, _envelope_case(tmp_path, lambda: None), "trace", 60, set())
    assert rep.error is None
    assert rep.layers["gesture.points_mapped"] == 5 + 4 * 16
    assert rep.layers["bessel.calls"] == 0
    assert rep.layers["trace.counter_errors"] == 0


def test_run_refuses_a_directory_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "sweep-fine", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("order", [-3, 0, 1, 5, 16])
def test_reference_bessel_matches_the_library(order):
    expected = timbrecolor.bessel_j(abs(order), 2.0) * (-1) ** (abs(order) if order < 0 else 0)
    assert abs(bessel_j_at_2(order) - expected) < 1e-15


def test_own_pcm16_encoder_round_trips_through_the_library_reader(tmp_path):
    samples = np.sin(np.linspace(0.0, 20.0, 1001)) * 0.9
    path = tmp_path / "x.wav"
    path.write_bytes(encode_pcm16(samples, 8000))
    wave = timbrecolor.read_wav(path)
    assert wave.sample_rate == 8000
    assert np.max(np.abs(wave.samples - samples)) <= 0.5 / 32767 + 1e-12
