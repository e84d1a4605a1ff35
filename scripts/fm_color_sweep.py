#!/usr/bin/env python3
"""Map how carrier:modulator ratio shapes the color path of an FM sweep.

For each frequency ratio, sweep the modulation index over a fixed grid,
convert every folded sideband spectrum to sRGB, and write the resulting
color strip as a PPM plus a combined CSV for later analysis.  A short
table summarizing path length and color span lands on stdout.

Usage:
    python scripts/fm_color_sweep.py [--out-dir sweeps] [--i-max 8.0]
        [--steps 81] [--base 440]
"""

from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np

from timbrecolor.cli import _adjacent_distances, _fm_path_rows, _full_span_distance
from timbrecolor.color import OctaveMap, standard_observer
from timbrecolor.ppm import write_ppm

RATIOS = [(1, 1), (1, 2), (2, 3), (1, 3), (3, 2)]
STRIP_HEIGHT = 24
CELL_WIDTH = 4


def strip_image(rgb):
    cells = rgb.astype(np.uint8).repeat(CELL_WIDTH, axis=0)
    return np.repeat(cells[np.newaxis], STRIP_HEIGHT, axis=0)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", default="sweeps", help="output directory")
    parser.add_argument("--i-max", type=float, default=8.0, help="top of the index grid")
    parser.add_argument("--steps", type=int, default=81, help="grid points")
    parser.add_argument("--base", type=float, default=440.0, help="octave base in Hz")
    args = parser.parse_args()

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    grid = [args.i_max * k / (args.steps - 1) for k in range(args.steps)]
    octave = OctaveMap(base_hz=args.base)
    cmf = standard_observer()

    csv_lines = ["ratio,I,R,G,B"]
    print(f"{'ratio':>8} {'path length':>12} {'max step':>10} {'span':>8}")
    for num, den in RATIOS:
        carrier = args.base
        modulator = args.base * den / num
        _xyz, rgb, _orders, _weights = _fm_path_rows(carrier, modulator, grid, octave, cmf)
        steps = _adjacent_distances(rgb).tolist()
        total, biggest = sum(steps), max(steps, default=0.0)
        span = _full_span_distance(rgb)
        label = f"{num}:{den}"
        print(f"{label:>8} {total:12.1f} {biggest:10.2f} {span:8.1f}")
        write_ppm(out_dir / f"ratio_{num}_{den}.ppm", strip_image(rgb))
        for index, (r, g, b) in zip(grid, rgb.tolist()):
            csv_lines.append(f"{label},{index:.6f},{r},{g},{b}")

    (out_dir / "sweep_colors.csv").write_text("\n".join(csv_lines) + "\n")
    print(f"wrote {len(RATIOS)} strips and sweep_colors.csv to {out_dir}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
