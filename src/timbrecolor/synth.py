"""FM synthesis in the time domain, plus harmonic analysis of samples.

The voice is sin(2*pi*fc*t + I*sin(2*pi*fm*t)), rendered a block at a time;
fm-path's WAV copies PCM16 codes from one period per segment where a derived
guard allows.  Analysis (analyze_harmonics) projects a window of whole periods
onto the harmonics of a known fundamental.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bessel import energy_order
from .spectrum import _TWO_PI, LineSpectrum, _check_voice

__all__ = [
    "AMPLITUDE_FLOOR",
    "FMParams",
    "SampledWave",
    "fm_sample",
    "render_fm_wave",
    "render_fm_path",
    "analyze_harmonics",
]

AMPLITUDE_FLOOR = 1e-6
# caps fm-path's time and disk; its audio and its image stream in blocks
MAX_RENDER_SAMPLES = 100_000_000
_BLOCK_SAMPLES = 2**16  # samples per block: fm-path audio, the WAV reader, the fold
_SCALE = 32767.0  # PCM16 full scale
_UNSET = -32768  # the PCM16 code no sample in [-1, 1] quantizes to: marks one for the reference
_MIN_ANALYSIS_PERIODS = 10


@dataclass(frozen=True)
class FMParams:
    carrier_hz: float
    modulator_hz: float
    modulation_index: float

    def __post_init__(self) -> None:
        _check_voice(self.carrier_hz, self.modulator_hz, self.modulation_index)


@dataclass(frozen=True, eq=False)
class SampledWave:
    """Uniform samples at a fixed rate; amplitudes nominally in [-1, 1]."""

    sample_rate: int
    samples: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "sample_rate", _validate_rate(self.sample_rate))  # 8000.0 -> 8000
        arr = np.asarray(self.samples, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError(f"samples must be one dimensional, got shape {arr.shape}")
        if arr.size and not np.all(np.isfinite(arr)):
            raise ValueError("samples must be finite")
        object.__setattr__(self, "samples", arr)

    @property
    def duration_sec(self) -> float:
        return len(self.samples) / self.sample_rate


def fm_sample(params: FMParams, t: float | np.ndarray) -> float | np.ndarray:
    """Instantaneous value sin(2*pi*fc*t + I*sin(2*pi*fm*t)) at time t >= 0."""
    times = np.array(t, dtype=np.float64)  # a copy: _fm_wave overwrites it
    if np.any(times < 0.0):
        raise ValueError("time must be nonnegative")
    fc, fm, index = params.carrier_hz, params.modulator_hz, params.modulation_index
    value = _fm_wave(times, fc, fm, index)
    if times.ndim == 0:
        return float(value)
    return value


def _fm_wave(t: np.ndarray, fc: float, fm: float, index) -> np.ndarray:
    """sin((2*pi*fc)*t + index*sin((2*pi*fm)*t)) into t."""
    scratch = np.multiply(t, _TWO_PI * fm, out=np.empty_like(t))  # with out=, a 0-d t gives an array, not a scalar
    np.sin(scratch, out=scratch)
    scratch *= index
    t *= _TWO_PI * fc
    t += scratch
    return np.sin(t, out=t)


def _validate_rate(sample_rate: int) -> int:
    if not 1 <= sample_rate < math.inf or int(sample_rate) != sample_rate:  # int() needs finite
        raise ValueError(f"sample rate must be a positive integer, got {sample_rate!r}")
    return int(sample_rate)


def _check_size(total_samples: int) -> None:
    if total_samples > MAX_RENDER_SAMPLES:
        raise ValueError(
            f"size guard: {total_samples} samples exceeds cap {MAX_RENDER_SAMPLES}"
        )


def _segment_samples(segment_duration_sec: float, sample_rate: int) -> int:
    rate = _validate_rate(sample_rate)
    if not (math.isfinite(segment_duration_sec) and segment_duration_sec > 0.0):
        raise ValueError(
            f"segment duration must be positive, got {segment_duration_sec!r}"
        )
    span = segment_duration_sec * rate
    if not math.isfinite(span):  # round(inf) has no int
        raise ValueError(f"segment duration {segment_duration_sec!r} s overflows at {rate} Hz")
    seg = int(round(span))
    if seg < 1:
        raise ValueError("segment duration shorter than one sample")
    return seg


def _check_sweep(carrier_hz, modulator_hz, index_grid, segment_duration_sec, sample_rate) -> tuple:
    """A sweep checked as render_fm_path checks it: (fc, fm, grid, seg, rate), seg samples per index."""
    rate = _validate_rate(sample_rate)
    fc, fm, grid = _check_voice(carrier_hz, modulator_hz, index_grid, rate)
    if not len(grid):
        raise ValueError("index grid must be nonempty")
    if not (ascends := grid[1:] > grid[:-1]).all():
        a, b = grid[np.argmin(ascends) :][:2].tolist()  # the first pair that does not
        raise ValueError(f"index grid must ascend, got {a} then {b}")
    seg = _segment_samples(segment_duration_sec, rate)
    _check_size(seg * len(grid))
    return fc, fm, grid, seg, rate


def _quantizer_input(block: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """block * 32767 + 0.5 into out, or in place: its floor is each sample's PCM16 code."""
    out = block if out is None else out
    return np.add(np.multiply(block, _SCALE, out=out), 0.5, out=out)


def _sweep_codes(fc: float, fm: float, grid: np.ndarray, seg: int, rate: int, start: int = 0):
    """The PCM16 codes of sweep samples start, start + 1, ..., in '<i2' blocks of _BLOCK_SAMPLES."""
    period = rate // math.gcd(int(fc), int(fm), rate) if fc.is_integer() and fm.is_integer() else seg + 1
    q = np.arange(period if period <= min(seg, _BLOCK_SAMPLES // 2) else 0) / rate  # sample k reads q = k mod P
    mod, car = np.sin(q * (_TWO_PI * fm)), q * (_TWO_PI * fc)  # the modulator's sine, once per sweep
    for begin in range(start, seg * len(grid), _BLOCK_SAMPLES):
        end = min(begin + _BLOCK_SAMPLES, seg * len(grid))
        first, index = begin // seg, grid[begin // seg : (end - 1) // seg + 1]  # the block's segments
        t, top = max(end - 1, period) / rate, index.max()  # the block's last time t and largest index I
        # The guard (u = 2**-53; np.sin within 4 ulp, 8 u on [-1, 1]; |sin a - sin b| <= |a - b|): the reference
        # (time k / rate) and the table (q / rate, whole turns (k - q) f / rate before it) round the time, 2*pi,
        # 2*pi*f and their product: each phase 2 pi f t is within 4.01 u 2 pi f t of exact, turns included.  I sin
        # is off by at most I (4.01 u 2 pi fm t + 8 u) + u I, the sum adds u (2 pi fc t + I), the outer sine 8 u:
        # each value is within E = u (5.02 * 2 pi fc t + 4.01 I 2 pi fm t + 10.01 I + 8) of exact.  v * 32767 + 0.5
        # rounds twice within u 32768: beyond 32767 (2 E + 4.01 u) of an integer both quantizer inputs floor alike.
        window = 2.0**-52 * _SCALE * (_TWO_PI * t * (5.02 * fc + 4.01 * top * fm) + 10.01 * top + 10.005)
        codes = np.full(end - begin, _UNSET, dtype="<i2")
        if len(q) and window < 0.5:  # each segment copies its table, unless a window of half a code marks every sample
            phases = np.add(np.multiply.outer(index, mod), car)
            tables = np.floor(_quantizer_input(np.sin(phases, out=phases))).astype("<i2")
            tables[np.abs(phases - np.rint(phases)) <= window] = _UNSET  # phases now holds the quantizer inputs
            for s, table in enumerate(tables, first):
                a, b = max(begin, s * seg), min(end, s * seg + seg)
                copies = np.concatenate((table,) * -(-(b - a + a % period) // period))
                codes[a - begin : b - begin] = copies[a % period :][: b - a]
        k = begin + np.flatnonzero(codes == _UNSET)  # these take the reference's code, quantized as write_wav's
        codes[k - begin] = np.floor(_quantizer_input(_fm_wave(k / rate, fc, fm, grid[k // seg])))
        yield codes


def render_fm_path(
    carrier_hz: float, modulator_hz: float, index_grid: list[float] | np.ndarray,
    segment_duration_sec: float, sample_rate: int,
) -> SampledWave:
    """Render one segment per modulation index, phase continuous throughout.

    Each segment covers its half-open time slice on the global clock, so
    carrier and modulator phases accumulate exactly across boundaries and a
    boundary adds only the index step, inaudible for small steps.
    High indices are rendered as given, so sidebands at or above Nyquist
    alias in the samples (on the default sweep, 117 of 201 rows, from
    I = 8.4), while fm-path's colors keep them at their true frequencies.
    """
    fc, fm, grid, seg, rate = _check_sweep(carrier_hz, modulator_hz, index_grid, segment_duration_sec, sample_rate)
    out = np.empty(seg * len(grid))
    for begin, block in zip(range(0, len(out), _BLOCK_SAMPLES), _views(out)):  # computed in place
        k = np.arange(begin, begin + len(block))  # sample k plays grid[k // seg] at k / rate
        _fm_wave(np.divide(k, rate, out=block), fc, fm, grid[k // seg])
    return SampledWave(sample_rate=rate, samples=out)


def render_fm_wave(
    params: FMParams, duration_sec: float, sample_rate: int
) -> SampledWave:
    """Render a single FM voice at fixed parameters: a one-segment sweep.

    render_fm_path's checks apply, and then the aliasing guard: the
    highest energy-significant sideband, carrier + N*modulator with N
    from the energy tail bound at the given index, must sit below the
    Nyquist frequency.
    """
    fc, fm, index = params.carrier_hz, params.modulator_hz, params.modulation_index
    _check_sweep(fc, fm, [index], duration_sec, sample_rate)  # render_fm_path's checks, before the guard
    n_side = energy_order(index)
    top = fc + n_side * fm
    if top >= sample_rate / 2.0:
        raise ValueError(
            f"aliasing guard: sideband at {top} Hz (order {n_side}) reaches "
            f"Nyquist {sample_rate / 2.0} Hz"
        )
    return render_fm_path(fc, fm, [index], duration_sec, sample_rate)


def _views(samples: np.ndarray):
    """samples as views of _BLOCK_SAMPLES (the last may be shorter)."""
    return (samples[k : k + _BLOCK_SAMPLES] for k in range(0, len(samples), _BLOCK_SAMPLES))


def _analysis_window(
    sample_count: int, fundamental_hz: float, rate: int
) -> tuple[int, int]:
    # Of the period counts that fit, down at most 400 from the largest, take the largest
    # whose span is within 1e-6 samples of a whole number, else the largest closest to
    # one: a whole span restores discrete orthogonality of the projection basis whenever
    # the rate and the fundamental are commensurable.  Returns (length, periods).
    periods_max = int(math.floor(sample_count * fundamental_hz / rate))
    if periods_max < _MIN_ANALYSIS_PERIODS:
        raise ValueError(
            f"wave too short: covers {periods_max} fundamental periods, "
            f"need at least {_MIN_ANALYSIS_PERIODS}"
        )
    candidates = range(periods_max, max(_MIN_ANALYSIS_PERIODS, periods_max - 400) - 1, -1)
    mismatch = lambda periods: abs(math.remainder(periods * rate / fundamental_hz, 1.0))  # to the nearest whole
    periods = next((p for p in candidates if mismatch(p) < 1e-6), None) or min(candidates, key=mismatch)
    return round(periods * rate / fundamental_hz), periods


def analyze_harmonics(
    wave: SampledWave, fundamental_hz: float, max_harmonic: int
) -> LineSpectrum:
    """Project a wave onto harmonics n*fundamental, n = 1..max_harmonic.

    Returns a line spectrum in the form a0 + sum a_n sin(2 pi n f t + phi_n)
    with nonnegative amplitudes, phases in [0, 2*pi), and lines below the
    amplitude floor suppressed; a0 (the window's sum over its length) lands in dc_term.

    The window holds P whole periods.  When it spans exactly P * rate / f
    samples (equal as floats, as for 440 Hz or 220 Hz at 44.1 kHz),
    harmonic n is bin n*P of the window's DFT X, with sine and cosine
    projections -2 Im X / L and 2 Re X / L.  With g = gcd(P, L), that
    bin is bin n*P/g of one real FFT of one folded cycle: the window cut
    into g pieces of L/g samples and summed (2205 samples holding 22
    periods at 440 Hz and 44.1 kHz, whatever L is).  The fold is streamed,
    a block at a time, so for g > 1 its memory does not grow with L.  Otherwise
    (261.63 Hz, or 440.0000001 Hz, at 44.1 kHz) the window is projected
    onto a sampled sine and cosine per harmonic: a bin only near n*P
    would bias the phase of the top harmonics.
    """
    samples = wave.samples
    return _analyze_blocks(wave.sample_rate, len(samples), _views(samples), fundamental_hz, max_harmonic)


def _fold(blocks, length: int, cycle: int) -> np.ndarray:
    """window.reshape(-1, cycle).sum(axis=0) bit for bit, window being the first
    length samples of blocks: numpy's sum starts from +0.0 and adds rows in
    order, so each block's whole rows go through it stacked under the running
    sum, and blocks of at most _BLOCK_SAMPLES keep that stack small."""
    acc, pos = np.zeros(cycle), 0
    for block in blocks:
        block = block[: length - pos]
        at = pos % cycle
        head = min(-at % cycle, len(block))  # finish the row in progress first
        acc[at : at + head] += block[:head]
        whole = (len(block) - head) // cycle * cycle
        rows = block[head : head + whole].reshape(-1, cycle)
        np.sum(np.vstack((acc, rows)), axis=0, out=acc)
        tail = block[head + whole :]
        acc[: len(tail)] += tail
        pos += len(block)
        if pos == length:
            break
    return acc


def _analyze_blocks(
    rate: int, count: int, blocks, fundamental_hz: float, max_harmonic: int
) -> LineSpectrum:
    """analyze_harmonics on count samples given as blocks, read no further than
    the window; dc_term is the folded cycle's sum over the window's length."""
    f0 = float(fundamental_hz)
    if not (math.isfinite(f0) and f0 > 0.0):
        raise ValueError(f"fundamental must be positive, got {fundamental_hz!r}")
    if f0 >= rate / 2.0:
        raise ValueError(
            f"fundamental {f0} Hz is at or above Nyquist {rate / 2.0} Hz"
        )
    if not 1 <= max_harmonic < math.inf or int(max_harmonic) != max_harmonic:
        raise ValueError(f"max harmonic must be a positive integer, got {max_harmonic!r}")
    max_harmonic = int(max_harmonic)
    if max_harmonic * f0 >= rate / 2.0:
        raise ValueError(
            f"harmonic {max_harmonic} at {max_harmonic * f0} Hz reaches "
            f"Nyquist {rate / 2.0} Hz; lower max_harmonic or raise the rate"
        )
    length, periods = _analysis_window(count, f0, rate)
    exact = periods * rate / f0 == length
    g = math.gcd(periods, length) if exact else 1  # the window is g pieces of cycle samples
    folded = _fold(blocks, length, length // g)  # g == 1: the window itself
    if exact:
        turns = periods // g  # the fold's bin n*turns = the window's bin n*periods
        bins = np.fft.rfft(folded)[turns : max_harmonic * turns + 1 : turns]
        in_phases = (-2.0 * bins.imag / length).tolist()
        quadratures = (2.0 * bins.real / length).tolist()
    else:
        t = np.arange(length, dtype=np.float64) / rate
        in_phases, quadratures = [], []
        for n in range(1, max_harmonic + 1):
            angle = _TWO_PI * n * f0 * t
            in_phases.append(2.0 * float(folded @ np.sin(angle)) / length)
            quadratures.append(2.0 * float(folded @ np.cos(angle)) / length)
    lines = []  # math.hypot/atan2 per harmonic: numpy's differ in the last ulp
    for n, (in_phase, quadrature) in enumerate(zip(in_phases, quadratures), start=1):
        amplitude = math.hypot(in_phase, quadrature)
        if amplitude < AMPLITUDE_FLOOR:
            continue
        phase = math.atan2(quadrature, in_phase) % _TWO_PI
        if phase > _TWO_PI - 1e-6:  # tiny negative angles wrap to just below 2*pi
            phase = 0.0
        lines.append((n * f0, amplitude, phase))
    freqs, amplitudes, phases = np.array(lines, dtype=np.float64).reshape(-1, 3).T
    return LineSpectrum(freqs, amplitudes, phases, dc_term=float(folded.sum() / length))
