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
normalization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def _validate_argument(argument: float) -> float:
    x = float(argument)
    if not math.isfinite(x):
        raise ValueError(f"Bessel argument must be finite, got {argument!r}")
    if x < 0.0:
        raise ValueError(f"Bessel argument must be nonnegative, got {x}")
    if x > _MAX_ARGUMENT:
        raise ValueError(
            f"Bessel argument {x} exceeds supported maximum {_MAX_ARGUMENT}"
        )
    return x


def _miller_row(x: float, n_max: int) -> list[float]:
    """J_0(x)..J_{n_max}(x) from one downward recurrence."""
    if x == 0.0:
        return [1.0] + [0.0] * n_max
    top = max(n_max, math.ceil(x))
    start = top + 40 + 2 * math.ceil(math.sqrt(top))
    # J_k is proportional to ldexp(mantissas[k], exponents[k])
    mantissas = [0.0] * (start + 1)
    exponents = [0] * (start + 1)
    mantissas[start] = current = _SCALE
    above, exponent = 0.0, 0
    for k in range(start, 0, -1):
        below = 2 * k * current / x - above
        if abs(below) >= _SCALE:
            shift = math.frexp(below)[1] - _SCALE_EXPONENT
            below = math.ldexp(below, -shift)
            current = math.ldexp(current, -shift)
            exponent += shift
        mantissas[k - 1] = below
        exponents[k - 1] = exponent
        above, current = current, below
    # exponents never decrease toward k = 0, so no term below overflows
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


def bessel_j(order: int, argument: float) -> float:
    """J_order(argument) for integer order >= 0 and 0 <= argument <= 1000.

    Absolute error is far below 1e-12 over the supported range; negative
    orders are not accepted here because callers fold them in via the
    parity identity J_{-n}(x) = (-1)^n J_n(x).
    """
    if order != int(order) or isinstance(order, float):
        raise ValueError(f"Bessel order must be an integer, got {order!r}")
    order = int(order)
    if order < 0:
        raise ValueError(f"Bessel order must be nonnegative, got {order}")
    return _miller_row(_validate_argument(argument), order)[order]


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


def _energy_cut(x: float, tol: float) -> tuple[list[float], int]:
    """Row J_0..J_{int(x)+80} and the smallest N with its tail below tol.

    The tail is the two-sided energy left out, 2 * sum_{n > N} J_n^2.
    """
    block = _miller_row(x, int(x) + 80)
    # tails[N], summed upward from the top to avoid cancellation
    tails = [0.0] * len(block)
    running = 0.0
    for n in range(len(block) - 1, 0, -1):
        running += 2.0 * block[n] * block[n]
        tails[n - 1] = running
    n = 0
    while tails[n] >= tol:
        n += 1
        if n >= len(block) - 1:
            raise ValueError(
                f"could not satisfy tail tolerance {tol} at index {x}"
            )
    return block, n


def bessel_row(
    modulation_index: float, tail_tolerance: float = DEFAULT_TAIL_TOLERANCE
) -> BesselCoefficients:
    """Sideband amplitude row for one modulation index.

    Returns J_0..J_N where N satisfies the two-sided energy bound
    1 - sum_{|n|<=N} J_n(I)^2 < tail_tolerance and additionally
    |J_{N+1}(I)| < tail_tolerance, so both the energy and the amplitude
    of everything dropped are negligible at the requested scale.
    """
    x = _validate_argument(modulation_index)
    tol = _validate_tolerance(tail_tolerance)
    block, n = _energy_cut(x, tol)
    while n + 1 < len(block) and abs(block[n + 1]) >= tol:
        n += 1
    return BesselCoefficients(
        modulation_index=x, max_order=n, values=tuple(block[: n + 1])
    )


def energy_order(
    modulation_index: float, tail_tolerance: float = DEFAULT_TAIL_TOLERANCE
) -> int:
    """Smallest N with two-sided energy tail below tail_tolerance.

    This is the truncation order that matters for aliasing checks: beyond
    it the residual sideband energy is inaudible by construction, even
    though individual coefficients may still exceed the tolerance.
    """
    x = _validate_argument(modulation_index)
    return _energy_cut(x, _validate_tolerance(tail_tolerance))[1]
