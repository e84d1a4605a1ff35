"""The gesture text's float formatter: exactly repr(v) + sep, value by value."""

import sys
from pathlib import Path

import numpy as np
import pytest

from timbrecolor.gesture import _float_text

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
import check_float_text  # noqa: E402

FAMILIES = check_float_text.families(100_000, seed=2203)


def text(values, seps: bytes) -> bytes:
    return _float_text(np.asarray(values, dtype=np.float64), np.frombuffer(seps, np.uint8)).tobytes()


@pytest.mark.parametrize("family", list(FAMILIES))
def test_every_value_prints_as_its_repr(family):
    assert check_float_text.first_mismatch(FAMILIES[family]) is None


@pytest.mark.parametrize(
    "value",
    [
        0.0, -0.0, 1e-4, 1e15, 999999999999999.9, 1e-4 * (1 - 2**-53), 0.1, 0.5, 63.0,
        2.0**-13, 2.0**49, 9007199254740993.0, 5e-324, 1e16, 1e-5, 1e308,
    ],
)
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_edge_values_print_as_their_repr(value, sign):
    v = sign * value
    assert text([v, np.nextafter(v, -np.inf), np.nextafter(v, np.inf)], b"\n\n\n").decode() == (
        f"{v!r}\n{float(np.nextafter(v, -np.inf))!r}\n{float(np.nextafter(v, np.inf))!r}\n"
    )


@pytest.mark.parametrize(
    "value, even",
    [
        (70368744177664.125, "70368744177664.12"),  # halfway between ...664.12 and ...664.13
        (70368744177664.375, "70368744177664.38"),
        (1e14 + 0.625, "100000000000000.62"),
        (1e14 + 0.875, "100000000000000.88"),
    ],
)
def test_a_value_halfway_between_two_shortest_decimals_goes_to_the_even_one(value, even):
    assert repr(value) == even
    assert text([value, -value], b"  ").decode() == f"{even} -{even} "


def test_short_and_exact_values_print_as_their_repr():
    values = [0.3, 2.5, 0.125, 1.0000000000000002, 0.30000000000000004, 123456.78125]
    assert text(values, b"      ").decode() == "".join(f"{v!r} " for v in values)


def test_separators_follow_each_value_in_row_major_order():
    block = np.array([[1.5, -0.0, 1e300], [2.0**-1074, 7.25, -3e-7], [-1.7976931348623157e308, 0.0, 2.0]])
    seps = np.array([ord(" "), ord(","), ord("\n")], dtype=np.uint8)
    got = _float_text(block, seps).tobytes().decode()
    assert got == "1.5 -0.0,1e+300\n5e-324 7.25,-3e-07\n-1.7976931348623157e+308 0.0,2.0\n"


def test_an_empty_block_is_no_bytes():
    assert text([], b"") == b""
