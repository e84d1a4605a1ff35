"""Command line front end: timbre-to-color experiments from a shell.

Three subcommands:

* fm-path: sweep an FM voice over a grid of modulation indices, render
  the sweep as audio, and map each index's folded sideband spectrum to
  one color square; writes WAV, PPM, CSV, and a reproducibility log.
* wav2color: read a mono PCM WAV, extract its harmonic lines at a known
  fundamental, and map them to a single color swatch plus a CSV.
* envelope-transfer: build an attack-decay-sustain-release gesture,
  push it through an amplitude-scaled color map, and write the color
  gesture as text plus a strip image of the envelope in that color.

Every flag can also come from a key=value config file (--config); flags
given on the command line override file values.  Identical settings
produce byte-identical CSV and image outputs.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator, Sequence

import numpy as np

from .bessel import _validate_arguments
from .color import ColorMatchingTable, OctaveMap, _cube_rows, _srgb_rows, _xyz_rows
from .color import spectrum_to_xyz, standard_observer, xyz_to_srgb
from .gesture import _gesture_text, _map_rows, adsr_gesture
from .ppm import _ppm_pieces, _write
from .spectrum import _fold_rows, _sideband_rows
from .synth import _analyze_blocks, _check_size, _fm_path_blocks, _segment_samples
from .wavefile import _check_wav_rate, _read_pcm16, _wav_pieces

__all__ = ["main"]

SQUARE_SIZE = 32
SQUARES_PER_ROW = 16
SWATCH_SIZE = 64
STRIP_WIDTH = 512
STRIP_HEIGHT = 32
_ENVELOPE_PEAK = 1.0
_BLOCK_INDICES = 256  # grid values per _fm_path_rows pass, colors per _full_span_distance tile


@dataclass(frozen=True)
class OptionSpec:
    name: str  # long flag name, dashes
    kind: type  # float, int, str, or bool (store_true)
    default: Any
    help: str


_FLIP_HELP = "map the octave base to violet instead of red"
_FLIP_OPTION = OptionSpec("flip-orientation", bool, False, _FLIP_HELP)  # fm-path and wav2color

_FM_PATH_OPTIONS = (
    OptionSpec("fc", float, 440.0, "carrier frequency in Hz"),
    OptionSpec("fm", float, 880.0, "modulator frequency in Hz"),
    OptionSpec("i-start", float, 0.0, "first modulation index"),
    OptionSpec("i-end", float, 20.0, "last modulation index"),
    OptionSpec("i-step", float, 0.1, "modulation index step"),
    OptionSpec("base", float, 440.0, "octave base frequency in Hz"),
    OptionSpec("rate", int, 44100, "sample rate in Hz"),
    OptionSpec("seg-dur", float, 0.1, "seconds of audio per grid value"),
    _FLIP_OPTION,
    OptionSpec("out-wav", str, "fm_path.wav", "output WAV path"),
    OptionSpec("out-img", str, "fm_path.ppm", "output PPM image path"),
    OptionSpec("out-csv", str, "fm_path.csv", "output CSV path"),
    OptionSpec(
        "out-log", str, "", "output log path (default: CSV path with .log suffix)"
    ),
)

_WAV2COLOR_OPTIONS = (
    OptionSpec("in", str, None, "input WAV path (required)"),
    OptionSpec("fundamental", float, None, "fundamental frequency in Hz (required)"),
    OptionSpec("max-harmonic", int, 32, "highest harmonic to extract"),
    OptionSpec("base", float, 440.0, "octave base frequency in Hz"),
    _FLIP_OPTION,
    OptionSpec("out-img", str, "wav_color.ppm", "output swatch PPM path"),
    OptionSpec("out-csv", str, "wav_color.csv", "output CSV path"),
)

_ENVELOPE_OPTIONS = (
    OptionSpec("color", str, None, "base color as RRGGBB hex (required)"),
    OptionSpec("attack", float, 0.05, "attack seconds"),
    OptionSpec("decay", float, 0.15, "decay seconds"),
    OptionSpec("sustain-level", float, 0.7, "sustain amplitude in [0, 1]"),
    OptionSpec("sustain", float, 0.4, "sustain seconds"),
    OptionSpec("release", float, 0.3, "release seconds"),
    OptionSpec("samples-per-segment", int, 16, "path samples per envelope stage"),
    OptionSpec("out-gesture", str, "envelope_gesture.txt", "output gesture text path"),
    OptionSpec("out-img", str, "envelope_strip.ppm", "output strip PPM path"),
)


def _dest(name: str) -> str:
    return name.replace("-", "_")


def _add_options(parser: argparse.ArgumentParser, options: Sequence[OptionSpec]) -> None:
    parser.add_argument("--config", default=None, metavar="PATH",
                        help="key=value file supplying defaults for any flag below")
    for opt in options:
        if opt.kind is bool:
            kind = {"action": "store_true"}
        else:
            kind = {"type": opt.kind, "metavar": opt.name.upper().replace("-", "_")}
        parser.add_argument(f"--{opt.name}", dest=_dest(opt.name), default=argparse.SUPPRESS,
                            help=opt.help, **kind)


def _parse_config_value(opt: OptionSpec, raw: str, lineno: int) -> Any:
    if opt.kind is bool:
        lowered = raw.strip().lower()
        if lowered in ("1", "true", "yes", "on"):
            return True
        if lowered in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"config line {lineno}: boolean key '{opt.name}' got {raw!r}")
    try:
        return opt.kind(raw.strip())
    except ValueError:
        raise ValueError(
            f"config line {lineno}: key '{opt.name}' expects {opt.kind.__name__}, got {raw!r}") from None


def _load_config(path: str, options: Sequence[OptionSpec]) -> dict[str, Any]:
    by_name = {opt.name: opt for opt in options}
    loaded: dict[str, Any] = {}
    text = Path(path).read_text(encoding="utf-8")
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key=value, got {line!r}")
        key, raw = line.split("=", 1)
        name = key.strip().replace("_", "-")
        if name not in by_name:
            raise ValueError(f"config line {lineno}: unknown key '{key.strip()}'")
        loaded[_dest(name)] = _parse_config_value(by_name[name], raw, lineno)
    return loaded


def _merge_settings(args: argparse.Namespace, options: Sequence[OptionSpec]) -> dict[str, Any]:
    settings = {_dest(opt.name): opt.default for opt in options}
    if args.config is not None:
        settings.update(_load_config(args.config, options))
    for opt in options:
        dest = _dest(opt.name)
        if hasattr(args, dest):
            settings[dest] = getattr(args, dest)
        if settings[dest] is None:
            raise ValueError(f"missing required flag --{opt.name}")
    return settings


def _grid_count(start: float, end: float, step: float) -> int:
    """Number of points build_index_grid returns, without building them."""
    if not (math.isfinite(start) and math.isfinite(end) and math.isfinite(step)):
        raise ValueError("grid bounds and step must be finite")
    if step <= 0.0:
        raise ValueError(f"grid step must be positive, got {step}")
    if end < start:
        raise ValueError(f"grid end {end} below start {start}")
    steps = (end - start) / step
    if not math.isfinite(steps):
        raise ValueError(f"grid from {start} to {end} by {step} has too many points")
    # the tolerance keeps a last point that lands on end up to rounding
    return math.floor(steps + 1e-9) + 1


def build_index_grid(start: float, end: float, step: float) -> np.ndarray:
    """Uniform grid start, start+step, ..., the last point at most end."""
    return start + np.arange(_grid_count(start, end, step)) * step


def _ascii(*texts) -> Iterator[bytes]:
    """The strings of each iterable of texts in turn, as ASCII bytes."""
    return (text.encode("ascii") for strings in texts for text in strings)


def _fm_path_rows(
    fc: float, fm: float, grid: Sequence[float], octave: OctaveMap, cmf: ColorMatchingTable
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(xyz, rgb, orders, weights) of a sweep, one row per grid value: cube
    XYZ as (n, 3) floats, 8-bit sRGB as (n, 3) int64, the sideband order N,
    and the total folded |amplitude| that _xyz_rows divides each color by.

    Each block of _BLOCK_INDICES values takes one set of array passes, and
    each row equals the chain fm_sidebands, fold_spectrum, spectrum_to_xyz,
    xyz_to_srgb on its own index bit for bit.
    """
    blocks = []
    for k in range(0, len(grid), _BLOCK_INDICES):
        freqs, amps, orders = _sideband_rows(fc, fm, grid[k : k + _BLOCK_INDICES])
        lines, amplitudes, counts, _dc = _fold_rows(freqs, amps, 2 * orders + 1)
        raw, weights = _xyz_rows(lines, amplitudes, counts, octave, cmf)
        xyz = _cube_rows(raw)
        blocks.append((xyz, _srgb_rows(xyz), orders, weights))
    return tuple(np.concatenate(parts) for parts in zip(*blocks))


def _squares_ppm(rgb: np.ndarray):
    """PPM pieces of one SQUARE_SIZE square per color, SQUARES_PER_ROW to a row, black fill."""
    cols = min(SQUARES_PER_ROW, len(rgb))
    cells = np.zeros((-(-len(rgb) // cols), cols, 3), dtype=np.uint8)
    cells.reshape(-1, 3)[: len(rgb)] = rgb
    bands = (row.repeat(SQUARE_SIZE, 0)[None].repeat(SQUARE_SIZE, 0) for row in cells)  # a band per row
    return _ppm_pieces(bands, cols * SQUARE_SIZE, len(cells) * SQUARE_SIZE)


def _adjacent_distances(rgb: np.ndarray) -> np.ndarray:
    """sRGB distance from each color to the next, in path order."""
    return np.sqrt(np.sum(np.diff(rgb, axis=0) ** 2, axis=1))


def _full_span_distance(rgb: np.ndarray) -> float:
    """Largest sRGB distance between any two of the colors, exactly.

    The distinct 8-bit colors come from sorting the keys r << 16 | g << 8 | b
    (np.unique would import numpy.ma).  The largest |a|**2 + |b|**2 - 2 a.b
    is taken over upper-triangle tiles of at most _BLOCK_INDICES colors a
    side, so memory stays one tile.  Every term is an integer below 2**53,
    so float64 is exact in any summation order; sqrt is monotone, so one
    sqrt of the largest squared distance is the largest distance.
    """
    keys = np.sort(np.asarray(rgb, dtype=np.int64).reshape(-1, 3) @ [1 << 16, 1 << 8, 1])
    keys = keys[np.diff(keys, prepend=-1) != 0]
    points = ((keys[:, None] >> [16, 8, 0]) & 0xFF).astype(np.float64)
    norms = np.sum(points * points, axis=1)
    widest = 0.0
    for i in range(0, len(points), _BLOCK_INDICES):
        for j in range(i, len(points), _BLOCK_INDICES):
            a, b = slice(i, i + _BLOCK_INDICES), slice(j, j + _BLOCK_INDICES)
            squares = norms[a, None] + norms[b] - 2.0 * points[a] @ points[b].T
            widest = max(widest, float(squares.max()))
    return math.sqrt(widest)


def _run_fm_path(s: dict[str, Any]) -> int:
    # refuse an oversized render before any grid point or color row exists
    seg = _segment_samples(s["seg_dur"], s["rate"])
    _check_size(seg * _grid_count(s["i_start"], s["i_end"], s["i_step"]))
    grid = build_index_grid(s["i_start"], s["i_end"], s["i_step"])
    octave = OctaveMap(base_hz=s["base"], flip=s["flip_orientation"])
    # sweep, WAV rate and Bessel checks run before any color row; the threads start at the first block
    total, blocks = _fm_path_blocks(s["fc"], s["fm"], grid, s["seg_dur"], s["rate"])
    _check_wav_rate(s["rate"])
    _validate_arguments(grid)
    xyz, rgb, orders, weights = _fm_path_rows(s["fc"], s["fm"], grid, octave, standard_observer())
    log_path = s["out_log"] or s["out_csv"].removesuffix(Path(s["out_csv"]).suffix) + ".log"
    settings = "".join(f"{key}: {value}\n" for key, value in s.items() if not key.startswith("out_"))
    head = (f"command: fm-path\n{settings}grid_rows: {len(grid)}\nsegment_samples: {seg}\n"
            f"total_samples: {total}\nduration_sec: {total / s['rate']:.6f}\n")  # settings in option order
    tail = (f"max_adjacent_srgb_distance: {np.max(_adjacent_distances(rgb), initial=0.0):.6f}\n"
            f"full_span_srgb_distance: {_full_span_distance(rgb):.6f}\n")
    indices = grid.tolist()  # one list for both texts: a generator builds its first iterable at once
    csv = (f"{index:.6f},{x:.6f},{y:.6f},{z:.6f},{r},{g},{b}\n"
           for index, (x, y, z), (r, g, b) in zip(indices, xyz.tolist(), rgb.tolist()))
    log = (f"I={index:.6f} N={order} weight_sum={weight:.9f}\n"
           for index, order, weight in zip(indices, orders.tolist(), weights.tolist()))
    _write(
        (s["out_wav"], _wav_pieces(s["rate"], total, blocks)),
        (s["out_csv"], _ascii(["I,X,Y,Z,R,G,B\n"], csv)),
        (s["out_img"], _squares_ppm(rgb)),
        (log_path, _ascii([head], log, [tail])),
    )
    print(f"fm-path: {len(grid)} colors, {total} samples ({total / s['rate']:.3f} s) -> "
          f"{s['out_wav']}, {s['out_csv']}, {s['out_img']}, {log_path}")
    return 0


def _run_wav2color(s: dict[str, Any]) -> int:
    with _read_pcm16(s["in"]) as (rate, count, blocks):  # format errors first
        spectrum = _analyze_blocks(rate, count, blocks, s["fundamental"], s["max_harmonic"])
    octave = OctaveMap(base_hz=s["base"], flip=s["flip_orientation"])
    xyz = spectrum_to_xyz(spectrum, octave, standard_observer())
    srgb = xyz_to_srgb(xyz)
    columns = (spectrum.frequencies, spectrum.amplitudes, spectrum.phases)
    lines = (f"{frequency:.6f},{amplitude:.6f},{phase:.6f}\n"
             for frequency, amplitude, phase in zip(*(column.tolist() for column in columns)))
    color = f"\nX,Y,Z,R,G,B\n{xyz.x:.6f},{xyz.y:.6f},{xyz.z:.6f},{srgb.r},{srgb.g},{srgb.b}\n"
    swatch = np.full((SWATCH_SIZE, SWATCH_SIZE, 3), (srgb.r, srgb.g, srgb.b), dtype=np.uint8)
    _write(
        (s["out_csv"], _ascii(["frequency,amplitude,phase\n"], lines, [color])),
        (s["out_img"], _ppm_pieces([swatch], SWATCH_SIZE, SWATCH_SIZE)),
    )
    print(
        f"wav2color: {len(spectrum.frequencies)} lines -> "
        f"#{srgb.r:02X}{srgb.g:02X}{srgb.b:02X} ({s['out_csv']}, {s['out_img']})"
    )
    return 0


def _parse_hex_color(text: str) -> tuple[int, int, int]:
    raw = text.strip().lstrip("#")
    if len(raw) != 6 or any(c not in "0123456789abcdefABCDEF" for c in raw):
        raise ValueError(f"color must be 6 hex digits (RRGGBB), got {text!r}")
    return int(raw[0:2], 16), int(raw[2:4], 16), int(raw[4:6], 16)


def _run_envelope_transfer(s: dict[str, Any]) -> int:
    base_rgb = _parse_hex_color(s["color"])
    envelope = adsr_gesture(
        attack_level=_ENVELOPE_PEAK,
        sustain_level=s["sustain_level"],
        durations=[s["attack"], s["decay"], s["sustain"], s["release"]],
        samples_per_segment=s["samples_per_segment"],
    )

    # strip column x shows the envelope at the centre of its time slot
    times, levels = envelope.vertex_points.T
    total = float(times[-1])
    if not math.isfinite(total * STRIP_WIDTH):  # the strip's sample times would overflow
        raise ValueError(f"envelope of {total!r} s is too long for a {STRIP_WIDTH}-column strip")
    scale = np.array(base_rgb, dtype=np.float64)
    # (time, amplitude) rows -> amplitude-scaled base color, black at zero
    colorized = _map_rows(lambda pts, _label: pts[:, 1:2] * scale, envelope)
    amps = np.interp(total * (np.arange(STRIP_WIDTH) + 0.5) / STRIP_WIDTH, times, levels)
    row = np.floor(amps[:, None] * scale + 0.5).astype(np.uint8)
    _write(
        (s["out_gesture"], _gesture_text(colorized)),
        (s["out_img"], _ppm_pieces([row] * STRIP_HEIGHT, STRIP_WIDTH, STRIP_HEIGHT)),
    )
    print(
        f"envelope-transfer: {total:.3f} s envelope in "
        f"#{base_rgb[0]:02X}{base_rgb[1]:02X}{base_rgb[2]:02X} -> "
        f"{s['out_gesture']}, {s['out_img']}"
    )
    return 0


_COMMANDS = (  # name, help, options, handler of each subcommand
    ("fm-path", "render a modulation-index sweep and its color path", _FM_PATH_OPTIONS, _run_fm_path),
    ("wav2color", "map a WAV's harmonic spectrum to one color", _WAV2COLOR_OPTIONS, _run_wav2color),
    (
        "envelope-transfer",
        "push an ADSR envelope gesture into color space",
        _ENVELOPE_OPTIONS,
        _run_envelope_transfer,
    ),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="timbrecolor",
        description="FM timbre sweeps, sound-to-color mapping, envelope gestures",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, options, handler in _COMMANDS:
        command = sub.add_parser(name, help=help_text)
        _add_options(command, options)
        command.set_defaults(handler=handler, options=options)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(_merge_settings(args, args.options))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
