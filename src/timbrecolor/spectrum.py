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

from .bessel import DEFAULT_TAIL_TOLERANCE, bessel_row

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


@dataclass(frozen=True)
class SpectralLine:
    """One sinusoidal component: amplitude * sin(2*pi*frequency*t + phase)."""

    frequency: float
    amplitude: float
    phase: float = 0.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.frequency) or self.frequency < 0.0:
            raise ValueError(
                f"line frequency must be finite and >= 0, got {self.frequency!r}"
            )
        if not math.isfinite(self.amplitude):
            raise ValueError(f"line amplitude must be finite, got {self.amplitude!r}")
        if not (0.0 <= self.phase < _TWO_PI):
            raise ValueError(
                f"line phase must lie in [0, 2*pi), got {self.phase!r}"
            )


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
        for what, values, ok in (
            ("frequency must be finite and >= 0", f, np.isfinite(f) & (f >= 0.0)),
            ("amplitude must be finite", a, np.isfinite(a)),
            ("phase must lie in [0, 2*pi)", p, (p >= 0.0) & (p < _TWO_PI)),
        ):
            if not ok.all():
                raise ValueError(f"line {what}, got {values[~ok][0].item()!r}")
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


def fm_sidebands(
    carrier_hz: float,
    modulator_hz: float,
    modulation_index: float,
    tail_tolerance: float = DEFAULT_TAIL_TOLERANCE,
) -> list[tuple[float, float]]:
    """Raw two-sided sideband list [(carrier + n*modulator, J_n(I))].

    Runs n from -N to N with N from the truncation rule in bessel_row;
    negative orders come from the parity identity J_{-n} = (-1)^n J_n.
    Frequencies may be negative or zero here; fold_spectrum canonicalizes.
    """
    fc = float(carrier_hz)
    fm = float(modulator_hz)
    if not (math.isfinite(fc) and fc > 0.0):
        raise ValueError(f"carrier frequency must be positive, got {carrier_hz!r}")
    if not (math.isfinite(fm) and fm > 0.0):
        raise ValueError(f"modulator frequency must be positive, got {modulator_hz!r}")
    row = bessel_row(modulation_index, tail_tolerance)
    out: list[tuple[float, float]] = []
    for n in range(-row.max_order, row.max_order + 1):
        amplitude = row.values[abs(n)]
        if n < 0 and n % 2 != 0:
            amplitude = -amplitude
        out.append((fc + n * fm, amplitude))
    return out


def fold_spectrum(raw: Iterable[tuple[float, float]]) -> LineSpectrum:
    """Fold a raw two-sided line list onto nonnegative frequencies.

    A line at negative frequency -g with amplitude a becomes (g, -a).
    The flipped lines are stably sorted by frequency, so equal
    frequencies keep their input order and amplitudes add in that order.
    Anything within MERGE_TOLERANCE_HZ of zero (-0.0 included)
    accumulates into dc_term.  A line joins the open group when it lies
    within MERGE_TOLERANCE_HZ of the group's first frequency; the group
    keeps that frequency and the sum of its amplitudes.  The waveform is
    unchanged: this is an identity on the signal.
    """
    pairs = np.array(list(raw), dtype=np.float64)
    if pairs.size and (pairs.ndim != 2 or pairs.shape[1] != 2):
        raise ValueError(f"expected (frequency, amplitude) pairs, got shape {pairs.shape}")
    bad = ~np.isfinite(pairs).all(axis=-1)
    if bad.any():
        raise ValueError(f"raw line {tuple(pairs[bad][0].tolist())} is not finite")
    freqs, amps = pairs.reshape(-1, 2).T
    amps = np.where(freqs < 0.0, -amps, amps)
    freqs = np.abs(freqs)
    order = np.argsort(freqs, kind="stable")

    dc = 0.0
    merged: list[tuple[float, float]] = []
    for f, a in zip(freqs[order].tolist(), amps[order].tolist()):
        if f <= MERGE_TOLERANCE_HZ:
            dc += a
        elif merged and f - merged[-1][0] <= MERGE_TOLERANCE_HZ:
            merged[-1] = (merged[-1][0], merged[-1][1] + a)
        else:
            merged.append((f, a))
    return LineSpectrum(*np.array(merged).reshape(-1, 2).T, dc_term=dc)


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
