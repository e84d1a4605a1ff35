#!/usr/bin/env python3
"""Check fm-path's PCM16 codes against the reference formula, sample by sample.

Usage:
    python scripts/check_fm_pcm.py COUNT SEED

Renders COUNT seeded sweeps with `synth._sweep_codes`, one or two blocks each,
and compares every PCM16 code with floor(v * 32767 + 0.5) of the reference
float v = sin(2*pi*fc*t + I*sin(2*pi*fm*t)), computed here with numpy in the
render's order of operations.  The sweeps draw:

* whole-hertz voices: a rate from 8 kHz to 96 kHz, a period P that divides
  it (up to the rate itself, so a few P exceed half a block and take the
  reference), and fc and fm as multiples of rate / P below Nyquist;
* grids of one to six ascending indices up to 1000, 1000 itself among them;
* segment lengths around P (P - 1, P, P + 1, 2P - 1, 2P, up to 20P), and
  long segments whose sweep ends near `MAX_RENDER_SAMPLES`;
* the first block at 0, or one of the last blocks of a long sweep.

For each sweep it also counts the boundary samples: those where a copy of
the segment's period without the guard would give another code.  Exit
status 0 when every code matches.  At the first mismatch the sweep and the
sample are printed, and the exit status is 1.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
from timbrecolor import synth  # noqa: E402

TWO_PI = 2.0 * math.pi
RATES = (8000, 11025, 22050, 32000, 44100, 48000, 96000)
BLOCK = synth._BLOCK_SAMPLES
DIVISORS = {rate: [p for p in range(3, rate + 1) if rate % p == 0] for rate in RATES}


def codes(values: np.ndarray) -> np.ndarray:
    return np.floor(values * 32767.0 + 0.5).astype("<i2")


def formula(fc: float, fm: float, index: np.ndarray, t: np.ndarray) -> np.ndarray:
    return np.sin(TWO_PI * fc * t + index * np.sin(TWO_PI * fm * t))


def sweeps(count: int, seed: int):
    """(fc, fm, grid, seg, rate, start) of each seeded sweep."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        rate = int(rng.choice(RATES))
        period = int(rng.choice(DIVISORS[rate]))
        step = rate // period  # fc and fm are multiples of it, below Nyquist: gcd(fc, fm, rate) >= step
        fc, fm = (float(step * rng.integers(1, (rate - 1) // 2 // step + 1)) for _ in range(2))
        n = int(rng.integers(1, 7))
        grid = np.sort(rng.choice(np.linspace(0.0, 1000.0, 400001), n, replace=False))
        if rng.random() < 0.5:
            grid[-1] = 1000.0
        if rng.random() < 0.5:
            seg = int(rng.choice([period - 1, period, period + 1, 2 * period - 1, 2 * period,
                                  int(rng.integers(period, 20 * period + 1))]))
            start = 0
        else:  # a long sweep: one of its last blocks
            seg = int(rng.integers(synth.MAX_RENDER_SAMPLES // (2 * n), synth.MAX_RENDER_SAMPLES // n + 1))
            start = max(0, seg * n - int(rng.integers(1, 3 * BLOCK)))
        yield fc, fm, grid, seg, rate, start


def check(fc, fm, grid, seg, rate, start) -> tuple[int, int, int | None]:
    """(samples checked, boundary samples, first mismatching sample or None) of one sweep."""
    blocks = synth._sweep_codes(fc, fm, grid, seg, rate, start)
    got = np.concatenate([next(blocks), *[b for b in [next(blocks, None)] if b is not None]])
    k = np.arange(start, start + len(got))
    index = grid[k // seg]
    want = codes(formula(fc, fm, index, k / rate))
    bad = np.flatnonzero(got != want)
    period = rate // math.gcd(int(fc), int(fm), rate)
    boundaries = 0
    if period <= seg:
        unguarded = codes(formula(fc, fm, index, (k % period) / rate))
        boundaries = int(np.count_nonzero(unguarded != want))
    return len(got), boundaries, (int(k[bad[0]]) if len(bad) else None)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python scripts/check_fm_pcm.py COUNT SEED", file=sys.stderr)
        return 2
    count, seed = int(argv[0]), int(argv[1])
    samples = boundaries = 0
    for fc, fm, grid, seg, rate, start in sweeps(count, seed):
        checked, near, bad = check(fc, fm, grid, seg, rate, start)
        if bad is not None:
            print(f"fc {fc} fm {fm} rate {rate} seg {seg} grid {grid.tolist()} start {start}: "
                  f"sample {bad} differs from the reference")
            return 1
        samples += checked
        boundaries += near
    print(f"all {samples} codes of {count} sweeps match the reference; "
          f"{boundaries} of them are boundary samples an unguarded copy would change")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
