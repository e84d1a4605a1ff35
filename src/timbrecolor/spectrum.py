"""Line spectra: FM sidebands and folding onto nonnegative frequencies.

An FM voice sin(w_c t + I sin(w_m t)) expands into the two-sided series
sum_n J_n(I) sin((w_c + n w_m) t).  Entries with negative frequency are
mathematically redundant: sin(-w t) = -sin(w t), so a line at -g with
amplitude a equals a line at g with amplitude -a.  Folding rewrites the
raw two-sided list into that canonical nonnegative form, merging lines
that collide and routing frequency zero into a DC bookkeeping slot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .bessel import DEFAULT_TAIL_TOLERANCE, _bessel_rows, _validate_arguments, _validate_tolerance

__all__ = [
    "MERGE_TOLERANCE_HZ",
    "SpectralLine",
    "LineSpectrum",
    "fm_sidebands",
    "fold_spectrum",
    "synthesize",
]

MERGE_TOLERANCE_HZ = 1e-9
_TWO_PI = 2.0 * math.pi


def _check_lines(f: np.ndarray, a: np.ndarray, p: np.ndarray) -> None:
    """Line frequencies, amplitudes and phases: the first bad value raises."""
    for what, values, ok in (
        ("frequency must be finite and >= 0", f, np.isfinite(f) & (f >= 0.0)),
        ("amplitude must be finite", a, np.isfinite(a)),
        ("phase must lie in [0, 2*pi)", p, (p >= 0.0) & (p < _TWO_PI)),
    ):
        if not ok.all():
            raise ValueError(f"line {what}, got {values[~ok][0].item()!r}")


@dataclass(frozen=True)
class SpectralLine:
    """One sinusoidal component: amplitude * sin(2*pi*frequency*t + phase)."""

    frequency: float
    amplitude: float
    phase: float = 0.0

    def __post_init__(self) -> None:
        _check_lines(*np.array([[self.frequency], [self.amplitude], [self.phase]], dtype=np.float64))


@dataclass(frozen=True, eq=False)
class LineSpectrum:
    """Folded spectrum as parallel read-only float64 arrays, one entry per
    line amplitudes[k] * sin(2*pi*frequencies[k]*t + phases[k]), at strictly
    increasing positive frequencies; phases default to zeros.

    dc_term records any amplitude that folded onto frequency zero.  In the
    sine convention that component contributes nothing to the waveform,
    but analysis (where it is the signal mean) and resynthesis need it.
    """

    frequencies: np.ndarray
    amplitudes: np.ndarray
    phases: np.ndarray | None = None
    dc_term: float = 0.0

    def __post_init__(self) -> None:
        if self.phases is None:
            object.__setattr__(self, "phases", np.zeros(np.shape(self.frequencies)))
        for name in ("frequencies", "amplitudes", "phases"):
            arr = np.array(getattr(self, name), dtype=np.float64)
            if arr.ndim != 1:
                raise ValueError(f"{name} must be 1-D, got shape {arr.shape}")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        f, a, p = self.frequencies, self.amplitudes, self.phases
        if not len(f) == len(a) == len(p):
            raise ValueError(f"line array lengths differ: {len(f)}, {len(a)}, {len(p)}")
        _check_lines(f, a, p)
        rising = f[1:] > f[:-1]
        if not rising.all():
            k = int(np.argmin(rising))
            raise ValueError(
                "line frequencies must be strictly increasing, "
                f"got {f[k]} then {f[k + 1]}"
            )
        if len(f) and f[0] <= 0.0:
            raise ValueError("folded lines must have positive frequency")
        if not math.isfinite(self.dc_term):
            raise ValueError(f"dc term must be finite, got {self.dc_term!r}")

    @property
    def lines(self) -> tuple[SpectralLine, ...]:
        """SpectralLine views of the arrays, in frequency order."""
        rows = np.column_stack((self.frequencies, self.amplitudes, self.phases)).tolist()
        return tuple(SpectralLine(*row) for row in rows)


def _check_voice(carrier_hz, modulator_hz, indices, rate=math.inf) -> tuple:
    """An FM voice as (carrier, modulator, indices): two floats in (0, rate / 2),
    then a 1-D float64 array of finite values >= 0.  The first bad value raises."""
    fc, fm = float(carrier_hz), float(modulator_hz)
    bound = "lie in (0, Nyquist)" if rate < math.inf else "be positive"
    for name, value, given in (("carrier", fc, carrier_hz), ("modulator", fm, modulator_hz)):
        if not 0.0 < value < rate / 2.0:  # nan fails, and inf, as inf < inf is false
            raise ValueError(f"{name} must {bound}, got {given!r}")
    x = np.array(indices, dtype=np.float64).reshape(-1)  # a copy: a sweep reads it later
    ok = (x >= 0.0) & (x < math.inf)
    if not ok.all():
        raise ValueError(f"modulation indices must be >= 0, got {x[np.argmin(ok)].item()!r}")
    return fc, fm, x


def _sideband_rows(fc_hz: float, fm_hz: float, indices, tail_tolerance=DEFAULT_TAIL_TOLERANCE):
    """(frequencies, amplitudes, N) of many indices: row j holds fm_sidebands
    of index j in its first 2 N_j + 1 entries, then padding."""
    fc, fm, x = _check_voice(fc_hz, fm_hz, indices)
    block, _energy, orders = _bessel_rows(_validate_arguments(x), _validate_tolerance(tail_tolerance))
    top = int(orders.max())
    if not math.isfinite(fc + top * fm):  # the same float operations as below
        raise ValueError(f"top sideband {fc!r} + {top} * {fm!r} Hz is not finite")
    n = np.arange(2 * top + 1) - orders[:, None]
    amps = np.take_along_axis(block.T, np.minimum(np.abs(n), len(block) - 1), axis=1)
    return fc + n * fm, np.where((n < 0) & (n % 2 != 0), -amps, amps), orders


def fm_sidebands(
    carrier_hz: float,
    modulator_hz: float,
    modulation_index: float,
    tail_tolerance: float = DEFAULT_TAIL_TOLERANCE,
) -> list[tuple[float, float]]:
    """Raw two-sided sideband list [(carrier + n*modulator, J_n(I))].

    One row of _sideband_rows: n runs from -N to N, N from bessel_row's
    truncation rule, and J_{-n} = (-1)^n J_n.  Frequencies may be
    negative or zero here; fold_spectrum canonicalizes.
    """
    rows = _sideband_rows(carrier_hz, modulator_hz, float(modulation_index), tail_tolerance)
    return list(zip(rows[0][0].tolist(), rows[1][0].tolist()))


def _fold_rows(freqs: np.ndarray, amps: np.ndarray, counts: np.ndarray) -> tuple:
    """fold_spectrum of the first counts[j] lines of each row j: the folded
    lines of all rows end to end, and each row's line count and dc_term."""
    valid = np.arange(freqs.shape[1]) < counts[:, None]
    bad = valid & ~(np.isfinite(freqs) & np.isfinite(amps))
    if bad.any():
        raise ValueError(f"raw line {(freqs[bad][0].item(), amps[bad][0].item())} is not finite")
    order = np.argsort(np.where(valid, np.abs(freqs), np.inf), axis=1, kind="stable")
    f = np.abs(np.take_along_axis(freqs, order, axis=1)[valid])
    a = np.take_along_axis(np.where(freqs < 0.0, -amps, amps), order, axis=1)[valid]
    row = np.repeat(np.arange(len(counts)), counts)
    dc = f <= MERGE_TOLERANCE_HZ
    dc_counts = np.bincount(row[dc], minlength=len(counts))
    # groups open at each row's first line above DC, after each gap above the
    # tolerance and, in order, at each line too far above its group's first
    opens = ~dc & (np.diff(f, prepend=-np.inf) > MERGE_TOLERANCE_HZ)
    opens[(np.cumsum(counts) - counts + dc_counts)[dc_counts < counts]] = True
    head, last = np.maximum.accumulate(np.where(opens, np.arange(len(f)), 0)), -1
    for i in np.flatnonzero(~dc & (f - f[head] > MERGE_TOLERANCE_HZ)).tolist():
        if f[i] - f[max(head[i], last)] > MERGE_TOLERANCE_HZ:
            opens[i], last = True, i
    # bincount adds each group's amplitudes in order from 0.0, as a loop would;
    # on empty input it returns int64 whatever the weights, hence 0.0 +
    sums = 0.0 + np.bincount(np.cumsum(opens[~dc]) - 1, a[~dc])
    lines = np.bincount(row[opens], minlength=len(counts))
    return f[opens], sums, lines, 0.0 + np.bincount(row[dc], a[dc], len(counts))


def fold_spectrum(raw: Iterable[tuple[float, float]]) -> LineSpectrum:
    """Fold a raw two-sided line list onto nonnegative frequencies.

    A line at negative frequency -g with amplitude a becomes (g, -a).
    The flipped lines are stably sorted by frequency, so equal
    frequencies keep their input order and amplitudes add in that order.
    Anything within MERGE_TOLERANCE_HZ of zero (-0.0 included)
    accumulates into dc_term.  A line joins the open group when it lies
    within MERGE_TOLERANCE_HZ of the group's first frequency; the group
    keeps that frequency and the sum of its amplitudes.  The waveform is
    unchanged: this is an identity on the signal.  One row of _fold_rows.
    """
    pairs = np.array(list(raw), dtype=np.float64)
    if pairs.size and (pairs.ndim != 2 or pairs.shape[1] != 2):
        raise ValueError(f"expected (frequency, amplitude) pairs, got shape {pairs.shape}")
    freqs, amps = pairs.reshape(-1, 2).T
    f, a, _counts, dc = _fold_rows(freqs[None], amps[None], np.array([len(freqs)]))
    return LineSpectrum(f, a, dc_term=dc.item())


def synthesize(
    spectrum: LineSpectrum,
    t: Sequence[float] | np.ndarray,
    include_dc: bool = True,
) -> np.ndarray:
    """Evaluate dc + sum_n a_n sin(2*pi*f_n*t + phi_n) at the given times.

    include_dc=False drops the constant term; useful when comparing the
    oscillatory content of two spectra whose DC slots differ only by
    bookkeeping (a zero-frequency sine contributes nothing).
    """
    times = np.asarray(t, dtype=np.float64)
    out = np.zeros_like(times)
    for f, a, p in zip(spectrum.frequencies, spectrum.amplitudes, spectrum.phases):
        out += a * np.sin(_TWO_PI * f * times + p)
    if include_dc:
        out += spectrum.dc_term
    return out
