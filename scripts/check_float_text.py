#!/usr/bin/env python3
"""Check the gesture text's float formatter against repr, value by value.

Usage:
    python scripts/check_float_text.py COUNT SEED

Formats seeded float64 values with `gesture._float_text`, in blocks, and
compares each with repr(v).  COUNT values are drawn in equal shares from
six random families:

* random bit patterns (NaN and infinity left out);
* log-uniform magnitudes from 1e-320 to 1e308, and from 1e-4 to 1e15,
  the range the formatter takes on whole arrays;
* short decimals, n / 10**d, and integers up to 2**53;
* binary fractions: floats in the array range whose mantissa ends in
  1 to 12 zero bits, many of them halfway between two shortest
  decimals, where repr rounds to the even one.

Two fixed families are always checked in full: every power of two and of
ten, and 0.0 with the range edges 1e-4 and 1e15, each with both
neighbours.  Every family holds both signs.

Exit status 0 when every value matches.  At the first mismatch, the
value's float.hex() and both texts are printed, and the exit status is 1.
"""

from __future__ import annotations

import itertools
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
from timbrecolor.gesture import _float_text  # noqa: E402

BLOCK = 6144  # values per _float_text call, as in one block of gesture text


def _neighbours(values: np.ndarray) -> np.ndarray:
    return np.concatenate([values, np.nextafter(values, -np.inf), np.nextafter(values, np.inf)])


def families(count: int, seed: int) -> dict[str, np.ndarray]:
    """Each family's values, count / 6 of each random one, signs mixed; all finite."""
    rng = np.random.default_rng(seed)
    share = max(count // 6, 1)
    zeros = rng.integers(1, 13, share)
    mantissas = (rng.integers(2**52, 2**53, share) >> zeros << zeros) * rng.choice([-1.0, 1.0], share)
    bits = rng.integers(-(2**63), 2**63, share, dtype=np.int64).view(np.float64)
    powers = np.concatenate([np.ldexp(1.0, np.arange(-1074, 1024)), 10.0 ** np.arange(-323.0, 309.0)])
    edges = np.array([0.0, 1e-4, 1e15])
    return {
        "bit patterns": bits[np.isfinite(bits)],
        "log-uniform 1e-320 to 1e308": 10.0 ** rng.uniform(-320, 308, share) * rng.choice([-1.0, 1.0], share),
        "log-uniform 1e-4 to 1e15": 10.0 ** rng.uniform(-4, 15, share) * rng.choice([-1.0, 1.0], share),
        "powers of two and ten": _neighbours(np.concatenate([powers, -powers])),
        "short decimals": rng.integers(-(10**9), 10**9, share) / 10.0 ** rng.integers(0, 10, share),
        "integers up to 2**53": rng.integers(-(2**53), 2**53, share, endpoint=True).astype(np.float64),
        "binary fractions": np.ldexp(mantissas, rng.integers(-65, -2, share, dtype=np.intc)),
        "zeros and range edges": _neighbours(np.concatenate([edges, -edges])),
    }


def first_mismatch(values: np.ndarray) -> tuple[float, str, str] | None:
    """(value, got, repr) of the first value _float_text does not print as repr, or None."""
    for start in range(0, len(values), BLOCK):
        block = values[start : start + BLOCK]
        got = _float_text(block, np.full(len(block), ord("\n"), np.uint8)).tobytes().decode("ascii")
        want = "".join(repr(v) + "\n" for v in block.tolist())
        if got != want:
            lines = itertools.zip_longest(block.tolist(), got.splitlines(), want.splitlines())
            return next((value, a, b) for value, a, b in lines if a != b)
    return None


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python scripts/check_float_text.py COUNT SEED", file=sys.stderr)
        return 2
    count, seed = int(argv[0]), int(argv[1])
    total = 0
    for name, values in families(count, seed).items():
        found = first_mismatch(values)
        if found is not None:
            value, got, want = found
            print(f"{name}: {float(value).hex()} prints {got!r}, repr gives {want!r}")
            return 1
        print(f"{name}: {len(values)} values match repr")
        total += len(values)
    print(f"all {total} values match repr")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
