"""FM synthesis in the time domain, plus harmonic analysis of samples.

The voice is sin(2*pi*fc*t + I*sin(2*pi*fm*t)).  Rendering a sweep of
modulation indices keeps carrier and modulator phase continuous across
segment boundaries by evaluating every segment on the shared global
time axis; with fixed fc and fm that is exactly the accumulated phase,
so the only discontinuity a boundary can introduce is the index step
itself, and that stays inaudible for small steps.  A sweep comes out in
fixed-size blocks, evaluated in place with a per-sample index by two
threads, half a block each, one block ahead of the consumer, with the
float operations of one thread.  At most three blocks and four chunk
buffers are alive, so fm-path's memory does not grow with its length.

Analysis inverts synthesis for periodic signals: project onto sine and
cosine at integer multiples of a known fundamental over a window holding
a whole number of periods.  The window length is chosen so the sampled
sinusoids are as close to discretely orthogonal as the rate allows,
which keeps leakage between harmonics near float precision whenever
rate/fundamental is rational with a modest denominator.  When the window
spans exactly P periods in whole samples, harmonic n is DFT bin n*P, so
one real FFT of one folded cycle (the window's whole-period pieces summed)
yields every projection at once; any other window (a fundamental
incommensurate with the rate) is projected one harmonic at a time.  The
fold takes the samples block by block, as the WAV reader yields them, so
the analysis of a file never holds the whole file.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .bessel import DEFAULT_TAIL_TOLERANCE, energy_order
from .spectrum import LineSpectrum, _check_voice

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
# fm-path streams in blocks: this caps its time and disk, not its memory
MAX_RENDER_SAMPLES = 100_000_000
_BLOCK_SAMPLES = 2**16  # samples per block: fm-path audio, the WAV reader, the fold
_CHUNK_SAMPLES = 2**14  # per FM evaluation in fm-path's threads; 2**12 lost their gain to the GIL
_RENDER_THREADS = 2  # they overlap inside np.sin, which releases the GIL
_MIN_ANALYSIS_PERIODS = 10
_TWO_PI = 2.0 * math.pi


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
    value = _fm_wave(times, fc, fm, index, np.empty_like(times))
    if np.isscalar(t) or getattr(t, "ndim", 0) == 0:
        return float(value)
    return value


def _fm_wave(t: np.ndarray, fc: float, fm: float, index, scratch: np.ndarray) -> np.ndarray:
    """sin((2*pi*fc)*t + index*sin((2*pi*fm)*t)) into t, the modulator into scratch."""
    np.sin(np.multiply(t, _TWO_PI * fm, out=scratch), out=scratch)
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


def _fm_path_blocks(carrier_hz, modulator_hz, index_grid, segment_duration_sec, sample_rate) -> tuple:
    """Check a sweep as render_fm_path does, then return its sample count and its
    samples as float64 blocks of _BLOCK_SAMPLES (the last may be shorter),
    computed by _RENDER_THREADS threads a block ahead of the consumer."""
    rate = _validate_rate(sample_rate)
    fc, fm, grid = _check_voice(carrier_hz, modulator_hz, index_grid, rate)
    if not len(grid):
        raise ValueError("index grid must be nonempty")
    for a, b in zip(grid.tolist(), grid[1:].tolist()):
        if not b > a:
            raise ValueError(f"index grid must ascend, got {a} then {b}")
    seg = _segment_samples(segment_duration_sec, rate)
    total = seg * len(grid)
    _check_size(total)

    def fill(out: np.ndarray, start: int) -> None:
        """Samples start, start + 1, ... of the sweep into out, _CHUNK_SAMPLES at a time."""
        for i in range(0, len(out), _CHUNK_SAMPLES):
            t = out[i : i + _CHUNK_SAMPLES]
            lo, hi = start + i, start + i + len(t)
            first, last = lo // seg, (hi - 1) // seg + 1  # segments [first, last) meet it
            edges = np.clip(np.arange(first, last + 1) * seg, lo, hi)
            index = np.repeat(grid[first:last], np.diff(edges))
            np.divide(np.arange(lo, hi, dtype=np.float64), rate, out=t)
            _fm_wave(t, fc, fm, index, np.empty_like(t))

    def blocks():
        from concurrent.futures import ThreadPoolExecutor  # here, so importing the package stays cheap

        def submit(pool, start: int) -> tuple:
            out = np.empty(min(_BLOCK_SAMPLES, total - start))
            share = -(-len(out) // _RENDER_THREADS)  # one task per thread
            tasks = [pool.submit(fill, out[i : i + share], start + i) for i in range(0, len(out), share)]
            return out, tasks

        with ThreadPoolExecutor(_RENDER_THREADS) as pool:  # its exit, on close too, joins them
            ahead = submit(pool, 0)
            for start in range(_BLOCK_SAMPLES, total + _BLOCK_SAMPLES, _BLOCK_SAMPLES):
                out, tasks = ahead
                if start < total:
                    ahead = submit(pool, start)
                for task in tasks:
                    task.result()  # a task's exception is raised here, at its block
                yield out

    return total, blocks()


def render_fm_path(
    carrier_hz: float, modulator_hz: float, index_grid: list[float] | np.ndarray,
    segment_duration_sec: float, sample_rate: int,
) -> SampledWave:
    """Render one segment per modulation index, phase continuous throughout.

    Each segment covers its half-open time slice on the global clock, so
    carrier and modulator phases accumulate exactly across boundaries.
    High indices are rendered as given even when their faintest sidebands
    pass Nyquist; the energy-significant content of the sweep range stays
    in band at ordinary rates and the sweep is the product being studied.
    """
    total, blocks = _fm_path_blocks(
        carrier_hz, modulator_hz, index_grid, segment_duration_sec, sample_rate
    )
    return SampledWave(sample_rate=sample_rate, samples=_gather(total, blocks))


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
    total, blocks = _fm_path_blocks(fc, fm, [index], duration_sec, sample_rate)
    n_side = energy_order(index, DEFAULT_TAIL_TOLERANCE)
    top = fc + n_side * fm
    if top >= sample_rate / 2.0:
        raise ValueError(
            f"aliasing guard: sideband at {top} Hz (order {n_side}) reaches "
            f"Nyquist {sample_rate / 2.0} Hz"
        )
    return SampledWave(sample_rate=sample_rate, samples=_gather(total, blocks))


def _gather(count: int, blocks) -> np.ndarray:
    """count samples, given as blocks of _BLOCK_SAMPLES (the last may be shorter), in one array."""
    out = np.empty(count, dtype=np.float64)
    for k, block in enumerate(blocks):
        out[k * _BLOCK_SAMPLES :][: len(block)] = block
    return out


def _analysis_window(
    sample_count: int, fundamental_hz: float, rate: int
) -> tuple[int, int]:
    # Largest whole number of periods that fits, preferring a period count
    # whose span in samples is closest to integral: that restores discrete
    # orthogonality of the projection basis whenever the rate and the
    # fundamental are commensurable.  Returns (length, periods).
    periods_max = int(math.floor(sample_count * fundamental_hz / rate))
    if periods_max < _MIN_ANALYSIS_PERIODS:
        raise ValueError(
            f"wave too short: covers {periods_max} fundamental periods, "
            f"need at least {_MIN_ANALYSIS_PERIODS}"
        )
    best = None
    best_mismatch = math.inf
    lowest = max(_MIN_ANALYSIS_PERIODS, periods_max - 400)
    for periods in range(periods_max, lowest - 1, -1):
        span = periods * rate / fundamental_hz
        length = int(round(span))
        if length > sample_count:
            continue
        mismatch = abs(span - length)
        if mismatch < best_mismatch:
            best_mismatch = mismatch
            best = (length, periods)
            if mismatch < 1e-6:
                break
    assert best is not None
    return best


def analyze_harmonics(
    wave: SampledWave, fundamental_hz: float, max_harmonic: int
) -> LineSpectrum:
    """Project a wave onto harmonics n*fundamental, n = 1..max_harmonic.

    Returns a line spectrum in the form a0 + sum a_n sin(2 pi n f t + phi_n)
    with nonnegative amplitudes, phases in [0, 2*pi), and lines below the
    amplitude floor suppressed; a0 (the window mean) lands in dc_term.

    The window holds P whole periods.  When it spans exactly P * rate / f
    samples (equal as floats, as for 440 Hz or 220 Hz at 44.1 kHz),
    harmonic n is bin n*P of the window's DFT X, with sine and cosine
    projections -2 Im X / L and 2 Re X / L.  With g = gcd(P, L), that
    bin is bin n*P/g of one real FFT of one folded cycle: the window cut
    into g pieces of L/g samples and summed (2205 samples holding 22
    periods at 440 Hz and 44.1 kHz, whatever L is).  The fold is streamed,
    a few rows at a time, so its memory does not grow with L.  Otherwise
    (261.63 Hz, or 440.0000001 Hz, at 44.1 kHz) the window is projected
    onto a sampled sine and cosine per harmonic: a bin only near n*P
    would bias the phase of the top harmonics.
    """
    samples = wave.samples
    spectrum = _analyze_blocks(wave.sample_rate, len(samples), [samples], fundamental_hz, max_harmonic)
    length = _analysis_window(len(samples), float(fundamental_hz), wave.sample_rate)[0]
    return dataclasses.replace(spectrum, dc_term=float(np.mean(samples[:length])))


def _fold(blocks, length: int, cycle: int) -> np.ndarray:
    """window.reshape(-1, cycle).sum(axis=0) bit for bit, window being the first
    length samples of blocks: numpy's sum starts from +0.0 and adds rows in
    order, so whole rows go through it _BLOCK_SAMPLES at most at a time,
    stacked under the running sum."""
    acc, pos = np.zeros(cycle), 0
    step = max(1, _BLOCK_SAMPLES // cycle)
    for block in blocks:
        block = block[: length - pos]
        at = pos % cycle
        head = min(-at % cycle, len(block))  # finish the row in progress first
        acc[at : at + head] += block[:head]
        whole = (len(block) - head) // cycle * cycle
        rows = block[head : head + whole].reshape(-1, cycle)
        for k in range(0, len(rows), step):
            np.sum(np.vstack((acc, rows[k : k + step])), axis=0, out=acc)
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
    the window; dc_term is the window's sum over its length, not np.mean."""
    f0 = float(fundamental_hz)
    if not (math.isfinite(f0) and f0 > 0.0):
        raise ValueError(f"fundamental must be positive, got {fundamental_hz!r}")
    if f0 >= rate / 2.0:
        raise ValueError(
            f"fundamental {f0} Hz is at or above Nyquist {rate / 2.0} Hz"
        )
    if int(max_harmonic) != max_harmonic or max_harmonic < 1:
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
    dc = float(folded.sum() / length)
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
    return LineSpectrum(freqs, amplitudes, phases, dc_term=dc)
