"""The benchmark's workloads: seeded inputs, CLI arguments, output checks.

Every check compares against an independent reference (closed-form FM
samples, the documented index grid, a rational Bessel series, the ADSR
levels), never against digests of earlier outputs, so a deliberate fix
to a log or CSV format is not counted as a failure.  A failed check
raises `CheckFailed`.
"""

from __future__ import annotations

import cmath
import math
import struct
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

RATE = 44100
PCM_SCALE = 32767.0


class CheckFailed(Exception):
    """An output of the program disagrees with its reference."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Case:
    """One workload instance: CLI arguments plus what its checks need."""

    argv: list[str]
    media_seconds: float  # seconds of audio (or envelope) the run handles
    outputs: list[Path]  # files the run writes, compared between repetitions
    check: Callable[[], None]


# --- fm-path -----------------------------------------------------------------


def _read_pcm16(path: Path) -> tuple[int, np.ndarray]:
    blob = path.read_bytes()
    expect(len(blob) >= 44 and blob[:4] == b"RIFF" and blob[8:12] == b"WAVE",
           f"{path.name}: not a RIFF/WAVE file")
    fmt, channels, rate, _br, _ba, bits = struct.unpack_from("<HHIIHH", blob, 20)
    expect((fmt, channels, bits) == (1, 1, 16), f"{path.name}: not PCM16 mono")
    expect(blob[36:40] == b"data", f"{path.name}: data chunk not at byte 36")
    (size,) = struct.unpack_from("<I", blob, 40)
    expect(size == len(blob) - 44, f"{path.name}: data size {size} != {len(blob) - 44}")
    return rate, np.frombuffer(blob, dtype="<i2", offset=44)


def _check_fm_path(
    fc: float, fm: float, grid: np.ndarray, seg_dur: float, out: dict[str, Path],
    spot_rng: np.random.Generator,
) -> None:
    seg = int(round(seg_dur * RATE))
    rate, pcm = _read_pcm16(out["wav"])
    expect(rate == RATE, f"WAV rate {rate} != {RATE}")
    expect(len(pcm) == seg * len(grid), f"WAV holds {len(pcm)} samples, want {seg * len(grid)}")
    # spot samples against the closed form, within one LSB
    k = np.concatenate([[0, len(pcm) - 1], spot_rng.integers(0, len(pcm), 254)])
    t = k / RATE
    ref = np.sin(2 * math.pi * fc * t + grid[k // seg] * np.sin(2 * math.pi * fm * t))
    worst = int(np.max(np.abs(pcm[k].astype(np.int64) - np.floor(ref * PCM_SCALE + 0.5))))
    expect(worst <= 1, f"WAV spot samples off the closed form by {worst} LSB")

    lines = out["csv"].read_text(encoding="ascii").splitlines()
    expect(lines[:1] == ["I,X,Y,Z,R,G,B"], "CSV header is not I,X,Y,Z,R,G,B")
    expect(len(lines) == len(grid) + 1, f"CSV has {len(lines) - 1} rows, want {len(grid)}")
    table = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    expect(table.shape[1] == 7, "CSV rows do not have 7 fields")
    worst_i = float(np.max(np.abs(table[:, 0] - grid)))
    expect(worst_i <= 1e-6, f"CSV I column off the grid by {worst_i}")
    expect(bool(np.all((table[:, 1:4] >= 0) & (table[:, 1:4] <= 1))), "CSV XYZ outside [0, 1]")
    expect(bool(np.all((table[:, 4:] >= 0) & (table[:, 4:] <= 255))), "CSV RGB outside 0..255")

    header = out["ppm"].read_bytes()[:32].split(b"\n")
    cols, rows = min(16, len(grid)), -(-len(grid) // 16)
    expect(header[:3] == [b"P6", f"{cols * 32} {rows * 32}".encode(), b"255"],
           f"PPM header {header[:3]} does not fit {len(grid)} squares")


def sweep_fine(work: Path, seed: int) -> Case:
    """2001 indices from a sub-step offset: Bessel, spectrum and color bound."""
    fc, fm, step, count, seg_dur = 440.0, 880.0, 0.01, 2001, 0.1
    start = float(np.random.default_rng(seed).uniform(0.0, step))
    grid = start + step * np.arange(count)
    out = {kind: work / f"fm_path.{kind}" for kind in ("wav", "ppm", "csv", "log")}
    argv = [
        "fm-path", "--fc", repr(fc), "--fm", repr(fm),
        "--i-start", repr(start), "--i-end", repr(float(grid[-1])),
        "--i-step", repr(step), "--seg-dur", repr(seg_dur),
        "--out-wav", str(out["wav"]), "--out-img", str(out["ppm"]),
        "--out-csv", str(out["csv"]), "--out-log", str(out["log"]),
    ]
    return Case(
        argv=argv,
        media_seconds=count * int(round(seg_dur * RATE)) / RATE,
        outputs=list(out.values()),
        check=lambda: _check_fm_path(fc, fm, grid, seg_dur, out, np.random.default_rng(seed)),
    )


# --- wav2color ---------------------------------------------------------------

TONE_AMPLITUDE = 0.8
TONE_INDEX = 2  # the series below is exact for this argument
TONE_SECONDS = 60
MAX_HARMONIC = 32


def bessel_j_at_2(order: int) -> float:
    """J_order(2) from its power series, summed in exact rationals."""
    n = abs(order)
    total = sum(
        Fraction((-1) ** k, math.factorial(k) * math.factorial(n + k)) for k in range(40)
    )
    return float(total) * (-1) ** (n if order < 0 else 0)


def tone_spectrum(phase: float) -> dict[int, float]:
    """Harmonic -> amplitude of 0.8 sin(2 pi 440 t + phase + 2 sin(2 pi 880 t)).

    Sideband n sits at 440 (1 + 2n) Hz.  Harmonic h = 2m + 1 collects
    n = m directly and n = -(m + 1) folded from negative frequency, where
    sin(-w t + phase) = -sin(w t - phase); amplitudes add as phasors.
    """
    out = {}
    for h in range(1, MAX_HARMONIC + 1):
        if h % 2 == 0:
            out[h] = 0.0
            continue
        m = (h - 1) // 2
        turn = cmath.exp(1j * phase)
        phasor = bessel_j_at_2(m) * turn - bessel_j_at_2(-(m + 1)) * turn.conjugate()
        out[h] = TONE_AMPLITUDE * abs(phasor)
    return out


def encode_pcm16(samples: np.ndarray, rate: int) -> bytes:
    """A minimal PCM16 mono WAV, independent of the library's writer."""
    data = np.clip(np.round(samples * PCM_SCALE), -32768, 32767).astype("<i2").tobytes()
    header = struct.pack("<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + len(data), b"WAVE", b"fmt ",
                         16, 1, 1, rate, 2 * rate, 2, 16, b"data", len(data))
    return header + data


def _check_wav2color(phase: float, csv: Path, img: Path) -> None:
    lines = csv.read_text(encoding="ascii").splitlines()
    expect(lines[:1] == ["frequency,amplitude,phase"], "CSV does not start with the line table")
    got: dict[int, float] = {}
    for line in lines[1:]:
        if not line:
            break
        freq, amp, _ph = (float(v) for v in line.split(","))
        h = round(freq / 440.0)
        expect(abs(freq - 440.0 * h) < 1e-6, f"line at {freq} Hz is not a harmonic of 440")
        got[h] = amp
    checked = 0
    for h, ref in tone_spectrum(phase).items():
        if ref >= 1e-3:
            checked += 1
            expect(h in got, f"harmonic {h} (reference {ref:.6f}) missing")
            expect(abs(got[h] - ref) <= 1e-3 * ref,
                   f"harmonic {h}: {got[h]:.6f} vs reference {ref:.6f}")
        else:
            expect(got.get(h, 0.0) < 1e-3, f"harmonic {h}: spurious amplitude {got.get(h)}")
    expect(checked >= 4, f"only {checked} reference harmonics checked")
    expect(img.read_bytes()[:12] == b"P6\n64 64\n255", "swatch is not a 64x64 P6 image")


def analyze_long(work: Path, seed: int) -> Case:
    """60 s of a seeded-phase FM tone with -80 dB noise, written by our own encoder."""
    rng = np.random.default_rng(seed)
    phase = float(rng.uniform(0.0, 2.0 * math.pi))
    t = np.arange(TONE_SECONDS * RATE) / RATE
    tone = TONE_AMPLITUDE * np.sin(
        2 * math.pi * 440.0 * t + phase + TONE_INDEX * np.sin(2 * math.pi * 880.0 * t)
    )
    noise = rng.standard_normal(len(t)) * (TONE_AMPLITUDE / math.sqrt(2.0)) * 1e-4
    wav = work / "tone.wav"
    wav.write_bytes(encode_pcm16(tone + noise, RATE))
    csv, img = work / "wav_color.csv", work / "wav_color.ppm"
    argv = ["wav2color", "--in", str(wav), "--fundamental", "440",
            "--max-harmonic", str(MAX_HARMONIC), "--out-csv", str(csv), "--out-img", str(img)]
    return Case(argv=argv, media_seconds=float(TONE_SECONDS), outputs=[csv, img],
                check=lambda: _check_wav2color(phase, csv, img))


# --- envelope-transfer -------------------------------------------------------

ENVELOPE_SAMPLES = 100_000
ENVELOPE_STAGES = (0.05, 0.15, 0.4, 0.3)  # attack, decay, sustain, release seconds


def _check_envelope(rgb: tuple[int, ...], sustain: float, text_path: Path, img: Path) -> None:
    from timbrecolor import parse_gesture

    gesture = parse_gesture(text_path.read_text(encoding="ascii"))
    levels = np.array([0.0, 1.0, sustain, sustain, 0.0])
    base = np.array(rgb, dtype=np.float64)
    expect(gesture.digraph.arrows == ((0, 1), (1, 2), (2, 3), (3, 4)), "not the ADSR digraph")
    expect(bool(np.array_equal(gesture.vertex_points, levels[:, None] * base)),
           "vertex colors differ from level x base color")
    for a, path in enumerate(gesture.arrow_paths):
        expect(path.sample_count == ENVELOPE_SAMPLES,
               f"arrow {a} has {path.sample_count} samples, want {ENVELOPE_SAMPLES}")
        ref = np.linspace(levels[a], levels[a + 1], ENVELOPE_SAMPLES)[:, None] * base
        worst = float(np.max(np.abs(path.points - ref)))
        expect(worst <= 1e-9, f"arrow {a} strays {worst} from the scaled envelope")
    expect(img.read_bytes()[:13] == b"P6\n512 32\n255", "strip is not a 512x32 P6 image")


def envelope_dense(work: Path, seed: int) -> Case:
    """A 100 000-sample-per-stage ADSR pushed into a seeded color."""
    rng = np.random.default_rng(seed)
    rgb = tuple(int(v) for v in rng.integers(32, 256, 3))
    sustain = float(rng.uniform(0.2, 0.9))
    text, img = work / "envelope_gesture.txt", work / "envelope_strip.ppm"
    argv = ["envelope-transfer", "--color", "".join(f"{c:02x}" for c in rgb),
            "--sustain-level", repr(sustain), "--samples-per-segment", str(ENVELOPE_SAMPLES),
            *(arg for flag, d in zip(("--attack", "--decay", "--sustain", "--release"),
                                     ENVELOPE_STAGES) for arg in (flag, repr(d))),
            "--out-gesture", str(text), "--out-img", str(img)]
    return Case(argv=argv, media_seconds=sum(ENVELOPE_STAGES), outputs=[text, img],
                check=lambda: _check_envelope(rgb, sustain, text, img))


WORKLOADS: dict[str, Callable[[Path, int], Case]] = {
    "sweep-fine": sweep_fine,
    "analyze-long": analyze_long,
    "envelope-dense": envelope_dense,
}
