"""Reference implementations used to cross-check the package.

Everything here is written independently of the library modules: exact
rational power series for Bessel values, a scalar Miller recurrence
and truncation loop, dictionary-based spectrum
folding, a sine/cosine projection for harmonic analysis, by-hand linear
interpolation for color lookups, an explicit piecewise envelope
formula, the gesture text written one coordinate at a time and the
envelope strip painted one column at a time.  Tests compare library
outputs against these slower but transparent routes.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath
import numpy as np

mpmath.mp.dps = 30


def bessel_series(order: int, argument: float, terms: int = 60) -> float:
    """Truncated J_order power series in exact rational arithmetic.

    Adequate for arguments up to 12, where 60 terms leave a truncation
    error far below double precision; the only rounding is the final
    conversion to float.

    With half the argument written a/b and K = terms - 1, every term
    (-1)^k (a/b)^(order+2k) / (k! (order+k)!) is an integer over the
    common denominator b^(order+2K) K! (order+K)!, so the sum is taken
    in integers.  Reducing fractions term by term would cost seconds per
    value at tiny arguments, where b alone has over a thousand bits.
    """
    half = Fraction(argument) / 2
    if half == 0:
        return 1.0 if order == 0 else 0.0
    a, b = half.numerator, half.denominator
    top = terms - 1
    f_top, f_order_top = math.factorial(top), math.factorial(order + top)
    numerator = 0
    for k in range(terms):
        term = (
            a ** (order + 2 * k)
            * b ** (2 * (top - k))
            * (f_top // math.factorial(k))
            * (f_order_top // math.factorial(order + k))
        )
        numerator += -term if k % 2 else term
    # int / int is correctly rounded, like float(Fraction)
    return numerator / (b ** (order + 2 * top) * f_top * f_order_top)


def bessel_reference(order: int, argument: float) -> float:
    """Independent J_order(argument): rational series small, mpmath large."""
    if argument <= 12.0:
        return bessel_series(order, argument)
    return float(mpmath.besselj(order, argument))


def two_sided_lines(
    carrier: float, modulator: float, index: float, order_count: int
) -> list[tuple[float, float]]:
    """Raw sideband list (carrier + n*modulator, J_n) from the reference route."""
    out = []
    for n in range(-order_count, order_count + 1):
        amp = bessel_reference(abs(n), index)
        if n < 0 and n % 2 != 0:
            amp = -amp
        out.append((carrier + n * modulator, amp))
    return out


def fold_by_dict(
    raw: list[tuple[float, float]],
) -> tuple[dict[float, float], float]:
    """Exact-key folding: valid when colliding frequencies are exact floats."""
    acc: dict[float, float] = {}
    dc = 0.0
    for f, a in raw:
        if f < 0:
            f, a = -f, -a
        if f == 0.0:
            dc += a
        else:
            acc[f] = acc.get(f, 0.0) + a
    return dict(sorted(acc.items())), dc


def harmonic_coefficients(samples, rate: int, frequencies) -> list[complex]:
    """a*exp(i*phi) of the a*sin(2 pi f t + phi) content of samples, per f.

    Twice the mean of the samples times sin and times cos of 2 pi f j/rate
    is a*cos(phi) and a*sin(phi) when the samples span whole periods of
    every f.  The phase in turns, f*j mod rate over rate, is exact for
    integral f, and math.fsum rounds each sum once.
    """
    x = np.asarray(samples, dtype=np.float64)
    j = np.arange(len(x), dtype=np.float64)
    out = []
    for f in frequencies:
        angle = 2.0 * math.pi * (np.mod(f * j, rate) / rate)
        sine = 2.0 * math.fsum(x * np.sin(angle)) / len(x)
        cosine = 2.0 * math.fsum(x * np.cos(angle)) / len(x)
        out.append(complex(sine, cosine))
    return out


def analysis_window(sample_count: int, fundamental_hz: float, rate: int) -> tuple[int, int]:
    """(length, periods) of the harmonic analysis window, by an explicit search.

    Walk the period counts down from the most that fit, at most 400 below
    it and never below 10, keeping the first count whose span in samples
    is strictly closer to a whole number than every count before it; stop
    at the first whose span is within 1e-6 samples of one.
    """
    periods_max = math.floor(sample_count * fundamental_hz / rate)
    if periods_max < 10:
        raise ValueError("wave too short")
    best, best_mismatch = None, math.inf
    for periods in range(periods_max, max(10, periods_max - 400) - 1, -1):
        span = periods * rate / fundamental_hz
        length = int(round(span))
        mismatch = abs(span - length)
        if mismatch < best_mismatch:
            best, best_mismatch = (length, periods), mismatch
            if mismatch < 1e-6:
                break
    return best


def interp_column(lam: float, wavelengths, column) -> float:
    """By-hand linear interpolation on the uniform 5 nm grid."""
    if lam <= wavelengths[0]:
        return float(column[0])
    if lam >= wavelengths[-1]:
        return float(column[-1])
    i = int((lam - wavelengths[0]) // 5.0)
    lo = wavelengths[0] + 5.0 * i
    frac = (lam - lo) / 5.0
    return float(column[i] * (1.0 - frac) + column[i + 1] * frac)


def miller_row(x: float, n_max: int) -> list[float]:
    """J_0(x)..J_{n_max}(x) from one scalar downward Miller recurrence.

    Seeded at order top + 40 + 2 ceil(sqrt(top)) with top = max(n_max,
    ceil(x)), rescaled by exact powers of two near 2**-500 and normalized
    by math.fsum of J_0 + 2 sum J_2k: the float64 method the package
    uses, written one column at a time with Python floats.
    """
    if x == 0.0:
        return [1.0] + [0.0] * n_max
    top = max(n_max, math.ceil(x))
    start = top + 40 + 2 * math.ceil(math.sqrt(top))
    mantissas = [0.0] * (start + 1)
    exponents = [0] * (start + 1)
    mantissas[start] = current = math.ldexp(1.0, -500)
    above, exponent = 0.0, 0
    for k in range(start, 0, -1):
        below = 2 * k * current / x - above
        if abs(below) >= math.ldexp(1.0, -500):
            shift = math.frexp(below)[1] + 500
            below = math.ldexp(below, -shift)
            current = math.ldexp(current, -shift)
            exponent += shift
        mantissas[k - 1] = below
        exponents[k - 1] = exponent
        above, current = current, below
    norm = math.fsum(
        [mantissas[0]]
        + [
            2.0 * math.ldexp(mantissas[k], exponents[k] - exponent)
            for k in range(2, start + 1, 2)
        ]
    )
    return [
        math.ldexp(mantissas[k] / norm, exponents[k] - exponent)
        for k in range(n_max + 1)
    ]


def truncation_orders(x: float, tol: float) -> tuple[int, int]:
    """(energy order, row order) of the sideband truncation rule, by loops.

    The energy order is the smallest N whose two-sided tail
    2 * sum_{n > N} J_n^2, summed from the top of miller_row(x, int(x) + 80)
    down, is below tol; the row order extends it while the next value
    still reaches tol in magnitude.
    """
    block = miller_row(x, int(x) + 80)
    tails = [0.0] * len(block)
    running = 0.0
    for n in range(len(block) - 1, 0, -1):
        running += 2.0 * block[n] * block[n]
        tails[n - 1] = running
    energy = next(n for n in range(len(block) - 1) if tails[n] < tol)
    n = energy
    while n + 1 < len(block) and abs(block[n + 1]) >= tol:
        n += 1
    return energy, n


def octave_loop(g: float, base: float) -> float:
    """Reduce g into [base, 2*base) one exact halving or doubling at a time."""
    while g >= 2.0 * base:
        g *= 0.5
    while g < base:
        g *= 2.0
    return g


def reduce_frequency(g: float, base: float) -> float:
    """Power-of-two reduction into [base, 2*base), via a log2 first guess."""
    k = math.floor(math.log2(g / base))
    r = g * 2.0 ** (-k)
    while r >= 2.0 * base:
        r *= 0.5
    while r < base:
        r *= 2.0
    return r


def line_wavelength(freq: float, base: float, flip: bool) -> float:
    """Octave-reduced wavelength of one frequency, in nanometers."""
    lam = 760.0 * base / reduce_frequency(freq, base)
    if flip:
        lam = 1140.0 - lam
    return lam


def weighted_spectrum_xyz(
    lines: list[tuple[float, float]],
    base: float,
    flip: bool,
    wavelengths,
    xbar,
    ybar,
    zbar,
) -> tuple[float, float, float]:
    """Brute-force amplitude-weighted average color of (freq, amp) lines."""
    total = 0.0
    acc = [0.0, 0.0, 0.0]
    for freq, amp in lines:
        w = abs(amp)
        if w == 0.0:
            continue
        lam = line_wavelength(freq, base, flip)
        for i, column in enumerate((xbar, ybar, zbar)):
            acc[i] += w * interp_column(lam, wavelengths, column)
        total += w
    if total == 0.0:
        raise ZeroDivisionError("no weight")
    return (acc[0] / total, acc[1] / total, acc[2] / total)


def adsr_level(
    t: float,
    attack: float,
    decay: float,
    sustain_level: float,
    sustain: float,
    release: float,
    peak: float = 1.0,
) -> float:
    """Explicit piecewise-linear envelope value at time t."""
    t1 = attack
    t2 = t1 + decay
    t3 = t2 + sustain
    t4 = t3 + release
    if t <= 0.0:
        return 0.0
    if t < t1:
        return peak * t / attack
    if t < t2:
        return peak + (sustain_level - peak) * (t - t1) / decay
    if t < t3:
        return sustain_level
    if t < t4:
        return sustain_level * (1.0 - (t - t3) / release)
    return 0.0


def gesture_text(vertex_count: int, arrows, vertex_points, paths) -> str:
    """The gesture text format written one coordinate at a time.

    arrows are (source, target) pairs, vertex_points one row per vertex
    and paths one 2-D array of samples per arrow; every coordinate is
    repr(float(c)).
    """
    out = [f"digraph {vertex_count} {len(arrows)}"]
    for src, dst in arrows:
        out.append(f"a {src} {dst}")
    for row in vertex_points:
        out.append("v " + " ".join(repr(float(c)) for c in row))
    for idx, points in enumerate(paths):
        out.append(f"p {idx} {len(points)}")
        for row in points:
            out.append(" ".join(repr(float(c)) for c in row))
    return "\n".join(out) + "\n"


def envelope_gesture_text(rgb, sustain_level: float, samples: int) -> str:
    """envelope-transfer's gesture text, one repr per coordinate: the ADSR
    levels 0, 1, s, s, 0 times the base color at the five vertices, and each
    stage the straight line between its levels, sampled at samples points."""
    levels = [0.0, 1.0, sustain_level, sustain_level, 0.0]
    base = np.array(rgb, dtype=np.float64)
    paths = [np.linspace(levels[i], levels[i + 1], samples)[:, None] * base for i in range(4)]
    return gesture_text(5, [(0, 1), (1, 2), (2, 3), (3, 4)], np.array(levels)[:, None] * base, paths)


def envelope_strip(
    times, levels, rgb, width: int = 512, height: int = 32
) -> np.ndarray:
    """The envelope strip painted column by column.

    Column x shows the breakpoint envelope interpolated at the centre of
    its time slot, total * (x + 0.5) / width, times each base channel,
    rounded half up.
    """
    total = float(times[-1])
    strip = np.zeros((height, width, 3), dtype=np.uint8)
    for x in range(width):
        amp = float(np.interp(total * (x + 0.5) / width, times, levels))
        strip[:, x] = [int(math.floor(amp * c + 0.5)) for c in rgb]
    return strip
