"""Octave-based frequency-to-color mapping over the CIE 1931 observer.

Audible frequencies and visible wavelengths both span about an octave,
which suggests the mapping used here: reduce a frequency g by powers of
two into [f, 2f) for a chosen base f, then send it to the wavelength
760 * f / g nanometers.  The base lands on 760 nm (red), the top of the
octave approaches 380 nm (violet), so rising pitch runs red to violet.
A whole spectrum becomes a color by averaging the color-matching values
of its lines, weighted by absolute amplitude.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

import numpy as np
from numpy.typing import ArrayLike

from .spectrum import LineSpectrum

__all__ = [
    "VISIBLE_MIN_NM",
    "VISIBLE_MAX_NM",
    "OCTAVE_TOP_NM",
    "CMFFormatError",
    "DegenerateSpectrumError",
    "ColorMatchingTable",
    "XYZColor",
    "SRGBColor",
    "OctaveMap",
    "load_cmf",
    "standard_observer",
    "wavelength_to_xyz",
    "octave_reduce",
    "freq_to_wavelength",
    "spectrum_xyz_raw",
    "spectrum_to_xyz",
    "project_to_cube",
    "xyz_to_srgb",
    "chromaticity",
]

VISIBLE_MIN_NM = 380.0
VISIBLE_MAX_NM = 780.0
OCTAVE_TOP_NM = 760.0  # wavelength assigned to the octave base frequency

_GRID_STEP_NM = 5.0
_GRID_ROWS = 81

# Linear sRGB from XYZ, D65 white point, as standardized.
_XYZ_TO_RGB = np.array(
    [
        [3.2404542, -1.5371385, -0.4985314],
        [-0.9692660, 1.8760108, 0.0415560],
        [0.0556434, -0.2040259, 1.0572252],
    ]
)

_LINEAR_THRESHOLD = 0.0031308
_AUDIBLE_MIN_HZ = 20.0
_AUDIBLE_MAX_HZ = 20000.0


class CMFFormatError(ValueError):
    """Raised when a color-matching-function table fails to parse."""


class DegenerateSpectrumError(ValueError):
    """Raised when a spectrum carries no weighable line content."""


@dataclass(frozen=True)
class XYZColor:
    x: float
    y: float
    z: float

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=np.float64)


@dataclass(frozen=True)
class SRGBColor:
    r: int
    g: int
    b: int

    def __post_init__(self) -> None:
        for name, value in (("r", self.r), ("g", self.g), ("b", self.b)):
            if not (0 <= value <= 255):
                raise ValueError(f"sRGB channel {name} out of range: {value}")


@dataclass(frozen=True)
class OctaveMap:
    """Frequency octave [base_hz, 2*base_hz) mapped onto [380, 760] nm.

    flip reverses the orientation so the base maps to 380 nm instead of
    760 nm; the image interval is the same either way.
    """

    base_hz: float = 440.0
    flip: bool = False

    def __post_init__(self) -> None:
        if not (_AUDIBLE_MIN_HZ <= self.base_hz <= _AUDIBLE_MAX_HZ):
            raise ValueError(
                f"octave base must lie in [{_AUDIBLE_MIN_HZ}, {_AUDIBLE_MAX_HZ}] Hz, "
                f"got {self.base_hz!r}"
            )


@dataclass(frozen=True, eq=False)
class ColorMatchingTable:
    """CIE observer samples on the uniform 5 nm grid from 380 to 780 nm."""

    wavelengths: np.ndarray
    xbar: np.ndarray
    ybar: np.ndarray
    zbar: np.ndarray

    def __post_init__(self) -> None:
        w = self.wavelengths
        if len(w) != _GRID_ROWS:
            raise CMFFormatError(
                f"expected {_GRID_ROWS} grid rows covering "
                f"[{VISIBLE_MIN_NM}, {VISIBLE_MAX_NM}] nm, got {len(w)}"
            )
        if w[0] != VISIBLE_MIN_NM or w[-1] != VISIBLE_MAX_NM:
            raise CMFFormatError(
                f"grid must cover [{VISIBLE_MIN_NM}, {VISIBLE_MAX_NM}] nm, "
                f"got [{w[0]}, {w[-1]}]"
            )
        steps = np.diff(w)
        if not np.all(steps == _GRID_STEP_NM):
            raise CMFFormatError("grid wavelengths must increase in 5 nm steps")
        for name, col in (("xbar", self.xbar), ("ybar", self.ybar), ("zbar", self.zbar)):
            if len(col) != len(w):
                raise CMFFormatError(f"column {name} length differs from grid")
            if np.any(~np.isfinite(col)) or np.any(col < 0.0):
                raise CMFFormatError(f"column {name} must be finite and nonnegative")


def load_cmf(text: str) -> ColorMatchingTable:
    """Parse a plain-text table: wavelength xbar ybar zbar per line.

    Blank lines are skipped and '#' starts a comment.  Errors carry the
    offending line number.
    """
    rows: list[tuple[float, float, float, float]] = []
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 4:
            raise CMFFormatError(
                f"line {lineno}: expected 4 columns, got {len(fields)}"
            )
        try:
            values = tuple(float(f) for f in fields)
        except ValueError as exc:
            raise CMFFormatError(f"line {lineno}: {exc}") from None
        rows.append(values)  # type: ignore[arg-type]
    if not rows:
        raise CMFFormatError("table contains no data rows")
    data = np.array(rows, dtype=np.float64)
    return ColorMatchingTable(
        wavelengths=data[:, 0], xbar=data[:, 1], ybar=data[:, 2], zbar=data[:, 3]
    )


@lru_cache(maxsize=1)
def standard_observer() -> ColorMatchingTable:
    """The packaged CIE 1931 2-degree observer table."""
    text = (
        resources.files("timbrecolor.data")
        .joinpath("cie1931_observer_5nm.txt")
        .read_text(encoding="utf-8")
    )
    return load_cmf(text)


def _cmf_rows(wavelengths_nm: np.ndarray, cmf: ColorMatchingTable) -> np.ndarray:
    """(n, 3) linearly interpolated (xbar, ybar, zbar), one row per wavelength."""
    columns = (cmf.xbar, cmf.ybar, cmf.zbar)
    return np.stack(
        [np.interp(wavelengths_nm, cmf.wavelengths, col) for col in columns], axis=1
    )


def wavelength_to_xyz(wavelength_nm: float, cmf: ColorMatchingTable) -> XYZColor:
    """Linearly interpolated (xbar, ybar, zbar) at the given wavelength."""
    lam = float(wavelength_nm)
    if not (VISIBLE_MIN_NM <= lam <= VISIBLE_MAX_NM):
        raise ValueError(
            f"wavelength {lam} nm outside table range "
            f"[{VISIBLE_MIN_NM}, {VISIBLE_MAX_NM}]"
        )
    return XYZColor(*_cmf_rows(np.array([lam]), cmf)[0].tolist())


def octave_reduce(frequency_hz: ArrayLike, octave: OctaveMap) -> float | np.ndarray:
    """Scale by powers of two into [base, 2*base), elementwise.

    A scalar gives a float, an array an array of the same shape.  Each
    input is rescaled to the binary exponent of the base with ldexp,
    which is exact, then doubled once if it fell below the base; the
    result equals repeated halving or doubling bit for bit, so
    octave_reduce(2*g) == octave_reduce(g) holds exactly.  The interval
    is half open: an input at exactly 2*base reduces to the base.
    """
    g = np.asarray(frequency_hz, dtype=np.float64)
    bad = ~(np.isfinite(g) & (g > 0.0))
    if bad.any():
        raise ValueError(f"frequency must be positive, got {g[bad][0].item()!r}")
    base = octave.base_hz
    # g * 2**k shares base's exponent, so it lies in [base/2, 2*base)
    scaled = np.ldexp(g, math.frexp(base)[1] - np.frexp(g)[1])
    reduced = np.where(scaled < base, 2.0 * scaled, scaled)
    return float(reduced) if np.ndim(frequency_hz) == 0 else reduced


def freq_to_wavelength(frequency_hz: ArrayLike, octave: OctaveMap) -> float | np.ndarray:
    """Map frequencies already inside [base, 2*base] to nanometers.

    The base maps to 760 nm and twice the base to 380 nm, both exactly;
    in between the map is 760 * base / g, decreasing, so rising pitch
    moves red to violet.  With flip set the assignment reverses.  Works
    elementwise; a scalar gives a float.
    """
    g = np.asarray(frequency_hz, dtype=np.float64)
    base = octave.base_hz
    inside = (base <= g) & (g <= 2.0 * base)
    if not inside.all():
        raise ValueError(
            f"frequency {g[~inside][0].item()} Hz outside the octave "
            f"[{base}, {2.0 * base}]"
        )
    lam = OCTAVE_TOP_NM * (base / g)
    if octave.flip:
        lam = (VISIBLE_MIN_NM + OCTAVE_TOP_NM) - lam
    return float(lam) if np.ndim(frequency_hz) == 0 else lam


def _xyz_rows(freqs, amps, counts, octave: OctaveMap, cmf: ColorMatchingTable) -> np.ndarray:
    """spectrum_xyz_raw of many spectra as (n, 3), from their lines end to
    end with counts[j] lines in spectrum j: one array pass over all lines,
    each spectrum's sums in its line order (np.bincount adds from 0.0 in order)."""
    nonzero = amps != 0.0
    spectra = np.repeat(np.arange(len(counts)), counts)[nonzero]
    weights = np.abs(amps[nonzero])
    totals = np.bincount(spectra, weights, len(counts))
    if not totals.all():
        raise DegenerateSpectrumError("spectrum has no nonzero-amplitude lines to color")
    rows = _cmf_rows(freq_to_wavelength(octave_reduce(freqs[nonzero], octave), octave), cmf)
    sums = [np.bincount(spectra, weights * column, len(counts)) for column in rows.T]
    return np.stack(sums, axis=1) / totals[:, None]


def spectrum_xyz_raw(
    spectrum: LineSpectrum, octave: OctaveMap, cmf: ColorMatchingTable
) -> XYZColor:
    """Amplitude-weighted average of line colors, before cube projection.

    Weights are absolute amplitudes: a line's sign is a phase flip and
    phase carries no color.  The DC term is excluded; it is silent.  As
    one row of _xyz_rows, all lines are reduced, mapped and interpolated
    in one array pass and the weights and weighted rows are summed in
    line order, exactly as a loop over the lines would add them.
    Raises DegenerateSpectrumError when the total weight is zero, which
    covers empty spectra, all-zero amplitudes, and pure-DC content.
    """
    f, a = spectrum.frequencies, spectrum.amplitudes
    return XYZColor(*_xyz_rows(f, a, np.array([len(a)]), octave, cmf)[0].tolist())


def spectrum_to_xyz(
    spectrum: LineSpectrum,
    octave: OctaveMap,
    cmf: ColorMatchingTable,
) -> XYZColor:
    """Weighted-average color of a folded spectrum, projected to the cube."""
    return project_to_cube(spectrum_xyz_raw(spectrum, octave, cmf))


def _cube_rows(v: np.ndarray) -> np.ndarray:
    top = v.max(axis=1, keepdims=True)
    inside = (v.min(axis=1, keepdims=True) >= 0.0) & (top <= 1.0)
    scaled = np.divide(v, top, out=v.copy(), where=top > 0.0)
    return np.where(inside, v, np.clip(scaled, 0.0, 1.0))


def project_to_cube(xyz: XYZColor) -> XYZColor:
    """Bring a tristimulus triple into [0, 1]^3.

    Points already inside are fixed.  Otherwise divide by the largest
    component, which preserves chromaticity, and clamp any negatives.
    _cube_rows does this for each row of an (n, 3) array.
    """
    return XYZColor(*_cube_rows(xyz.as_array()[None])[0].tolist())


def _srgb_rows(xyz: np.ndarray) -> np.ndarray:
    # a matrix-vector product per row, and Python's pow: numpy's can differ in the last bit
    linear = np.clip(np.matmul(_XYZ_TO_RGB, xyz[:, :, None])[:, :, 0], 0.0, 1.0)
    curve = [1.055 * c ** (1.0 / 2.4) - 0.055 for c in linear.ravel().tolist()]
    curve = np.where(linear <= _LINEAR_THRESHOLD, 12.92 * linear, np.reshape(curve, linear.shape))
    return np.floor(255.0 * curve + 0.5).astype(np.int64)


def xyz_to_srgb(xyz: XYZColor) -> SRGBColor:
    """Convert cube XYZ to 8-bit sRGB (D65, standard transfer curve).

    Linear channels are clamped to [0, 1] before the transfer curve;
    quantization rounds half up so results are platform independent.
    _srgb_rows does this for each row of an (n, 3) array.
    """
    return SRGBColor(*_srgb_rows(xyz.as_array()[None])[0].tolist())


def chromaticity(xyz: XYZColor) -> tuple[float, float]:
    """(x, y) = (X, Y) / (X + Y + Z); scale free."""
    total = xyz.x + xyz.y + xyz.z
    if total == 0.0:
        raise ValueError("chromaticity undefined for the zero tristimulus")
    return xyz.x / total, xyz.y / total
