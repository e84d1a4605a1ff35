"""Bessel functions of the first kind, tuned for FM sideband work.

Frequency modulation with index I spreads a carrier into sidebands whose
amplitudes are J_n(I).  Everything downstream (spectra, colors) depends on
these values.  One method computes them for every argument in
[0, 1000]: Miller's downward recurrence J_{k-1} = 2k J_k / x - J_{k+1},
run in float64 from a seed order high above both the wanted orders and x,
then normalized with the identity J_0(x) + 2*sum(J_2k(x)) = 1
(Abramowitz & Stegun 9.12; Numerical Recipes section 6.5).  Downward, the
recurrence is stable where the upward one is not, and its absolute error
stays within a few units of 1e-16.

The ratio 2k/x exceeds 2**1074 at the smallest subnormal argument, so
the running values are rescaled by exact powers of two to stay near
2**-500; each kept value carries its own binary exponent until the final
normalization.  Many arguments share one recurrence as the columns of an
array, each column started at its own seed order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DEFAULT_TAIL_TOLERANCE",
    "BesselCoefficients",
    "bessel_j",
    "bessel_row",
    "energy_order",
]

DEFAULT_TAIL_TOLERANCE = 1e-10

_MAX_ARGUMENT = 1000.0
_SCALE_EXPONENT = -500
_SCALE = math.ldexp(1.0, _SCALE_EXPONENT)


def _validate_arguments(arguments) -> np.ndarray:
    """Arguments as a 1-D float64 array; the first bad one raises."""
    x = np.asarray(arguments, dtype=np.float64).reshape(-1)
    ok = (x >= 0.0) & (x <= _MAX_ARGUMENT)
    if not ok.all():
        bad = x[np.argmin(ok)].item()
        if not math.isfinite(bad):
            raise ValueError(f"Bessel argument must be finite, got {bad!r}")
        if bad < 0.0:
            raise ValueError(f"Bessel argument must be nonnegative, got {bad}")
        raise ValueError(f"Bessel argument {bad} exceeds supported maximum {_MAX_ARGUMENT}")
    return x


def _miller_rows(x: np.ndarray, n_max: np.ndarray) -> np.ndarray:
    """Column j holds J_0..J_{n_max[j]}(x[j]), from one recurrence for all
    columns; each starts at its own seed order and rescales by its own
    powers of two, so it equals a recurrence for x[j] alone bit for bit.
    """
    top = np.maximum(n_max, np.ceil(x).astype(np.int64))
    start = top + 40 + 2 * np.ceil(np.sqrt(top)).astype(np.int64)
    size = int(start.max()) + 1
    # J_k(x[j]) is proportional to ldexp(mantissas[k, j], exponents[k, j])
    mantissas = np.zeros((size, len(x)))
    exponents = np.zeros((size, len(x)), dtype=np.int64)
    current, above, exponent = np.zeros(len(x)), np.zeros(len(x)), exponents[0].copy()
    safe = np.where(x == 0.0, 1.0, x)  # x = 0 columns are set at the end
    for k in range(size - 1, 0, -1):
        current[start == k] = _SCALE  # columns whose recurrence starts here
        below = 2 * k * current / safe - above
        big = np.abs(below) >= _SCALE
        if big.any():
            shift = (np.frexp(below)[1] - _SCALE_EXPONENT) * big
            below = np.ldexp(below, -shift)
            current = np.ldexp(current, -shift)
            exponent += shift
        mantissas[k - 1] = below
        exponents[k - 1] = exponent
        above, current = current, below
    mantissas[start, np.arange(len(x))] = _SCALE
    # exponents never decrease toward k = 0, so no term below overflows
    shifts = exponents - exponent
    terms = np.vstack([mantissas[:1], 2.0 * np.ldexp(mantissas[2::2], shifts[2::2])])
    norm = [math.fsum(column) for column in terms.T.tolist()]
    values = np.ldexp(mantissas / norm, shifts)[: n_max.max() + 1]
    values[:, x == 0.0] = np.arange(len(values))[:, None] == 0
    return values


def bessel_j(order: int, argument: float) -> float:
    """J_order(argument) for integer order >= 0 and 0 <= argument <= 1000.

    Absolute error is far below 1e-12 over the supported range; negative
    orders are not accepted here because callers fold them in via the
    parity identity J_{-n}(x) = (-1)^n J_n(x).  One column of _miller_rows.
    """
    if order != int(order) or isinstance(order, float):
        raise ValueError(f"Bessel order must be an integer, got {order!r}")
    order = int(order)
    if order < 0:
        raise ValueError(f"Bessel order must be nonnegative, got {order}")
    x = _validate_arguments(float(argument))
    return float(_miller_rows(x, np.array([order]))[order, 0])


@dataclass(frozen=True)
class BesselCoefficients:
    """One row of sideband amplitudes J_0..J_N at a fixed modulation index.

    max_order is chosen so that the two-sided energy left out of
    {-N..N} stays below the requested tail tolerance, and so that every
    omitted coefficient is individually below that tolerance in magnitude.
    The second condition keeps truncated resynthesis pointwise-close to
    the exact waveform, which the energy bound alone does not guarantee.
    """

    modulation_index: float
    max_order: int
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.values) != self.max_order + 1:
            raise ValueError(
                f"expected {self.max_order + 1} values, got {len(self.values)}"
            )

    def two_sided_energy(self) -> float:
        """sum over n in {-N..N} of J_n(I)^2, via the parity identity."""
        squares = [v * v for v in self.values]
        return math.fsum(squares) + math.fsum(squares[1:])


def _validate_tolerance(tail_tolerance: float) -> float:
    tol = float(tail_tolerance)
    if not (0.0 < tol < 1.0):
        raise ValueError(
            f"tail tolerance must lie in (0, 1), got {tail_tolerance!r}"
        )
    return tol


def _bessel_rows(x: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Columns J_0..J_{int(x)+80}, energy_order and bessel_row's max_order
    of every index in x, in one pass."""
    n_max = x.astype(np.int64) + 80
    block = _miller_rows(x, n_max)
    order = np.arange(len(block))[:, None]
    squares = np.where((order > 0) & (order <= n_max), 2.0 * block * block, 0.0)
    # tails[N] = 2 * sum_{n > N} J_n^2, summed from the top down as a loop adds it
    tails = np.cumsum(squares[::-1], axis=0)[::-1][1:]
    cut = (tails < tol) & (order[:-1] < n_max)
    if not cut.any(axis=0).all():
        bad = x[np.argmin(cut.any(axis=0))].item()
        raise ValueError(f"could not satisfy tail tolerance {tol} at index {bad}")
    energy = np.argmax(cut, axis=0)
    # extend while the next value still reaches tol, up to row n_max
    stop = order >= n_max
    stop[:-1] |= np.abs(block[1:]) < tol
    return block, energy, np.argmax(stop & (order >= energy), axis=0)


def bessel_row(
    modulation_index: float, tail_tolerance: float = DEFAULT_TAIL_TOLERANCE
) -> BesselCoefficients:
    """Sideband amplitude row for one modulation index (one column of _bessel_rows).

    Returns J_0..J_N where N satisfies the two-sided energy bound
    1 - sum_{|n|<=N} J_n(I)^2 < tail_tolerance and additionally
    |J_{N+1}(I)| < tail_tolerance, so both the energy and the amplitude
    of everything dropped are negligible at the requested scale.
    """
    x = _validate_arguments(float(modulation_index))
    block, _energy, orders = _bessel_rows(x, _validate_tolerance(tail_tolerance))
    n = int(orders[0])
    return BesselCoefficients(x.item(), n, tuple(block[: n + 1, 0].tolist()))


def energy_order(
    modulation_index: float, tail_tolerance: float = DEFAULT_TAIL_TOLERANCE
) -> int:
    """Smallest N with two-sided energy tail below tail_tolerance (via _bessel_rows).

    This is the truncation order that matters for aliasing checks: beyond
    it the residual sideband energy is inaudible by construction, even
    though individual coefficients may still exceed the tolerance.
    """
    x = _validate_arguments(float(modulation_index))
    return int(_bessel_rows(x, _validate_tolerance(tail_tolerance))[1][0])
