"""Bessel coefficient values and the sideband truncation rule."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import bessel_reference, bessel_series, miller_row, truncation_orders
from timbrecolor.bessel import (
    DEFAULT_TAIL_TOLERANCE,
    BesselCoefficients,
    _bessel_rows,
    _miller_rows,
    bessel_j,
    bessel_row,
    energy_order,
)

SMALL_ARGUMENTS = [
    0.0, 0.1, 0.5, 1.0, 2.0, 2.404825, 5.0, 8.5, 11.0, 12.0,
    1e-8, 4.3e-139, 1e-300, 5e-324,
]
LARGE_ARGUMENTS = [12.5, 15.0, 20.0, 30.0, 50.0, 100.0, 300.0, 999.99, 1000.0]


class TestBesselJ:
    @pytest.mark.parametrize("argument", SMALL_ARGUMENTS)
    def test_matches_rational_series(self, argument):
        for order in range(41):
            got = bessel_j(order, argument)
            want = bessel_series(order, argument)
            assert abs(got - want) <= 1e-12, (order, argument, got, want)

    @pytest.mark.parametrize("argument", LARGE_ARGUMENTS)
    def test_matches_mpmath(self, argument):
        for order in range(61):
            got = bessel_j(order, argument)
            want = bessel_reference(order, argument)
            assert abs(got - want) <= 1e-12, (order, argument, got, want)

    def test_at_zero(self):
        assert bessel_j(0, 0.0) == 1.0
        for order in range(1, 10):
            assert bessel_j(order, 0.0) == 0.0

    def test_rejects_bad_orders(self):
        with pytest.raises(ValueError):
            bessel_j(-1, 1.0)
        with pytest.raises(ValueError):
            bessel_j(2.0, 1.0)
        with pytest.raises(ValueError):
            bessel_j(1.5, 1.0)

    @pytest.mark.parametrize("order", [2001, 10**6])  # 10**6 took two minutes before the bound
    def test_rejects_orders_past_2000(self, order):
        with pytest.raises(ValueError) as info:
            bessel_j(order, 1.0)
        assert str(info.value) == f"Bessel order {order} exceeds supported maximum 2000"

    def test_order_2000_is_past_underflow_at_the_largest_argument(self):
        assert bessel_j(1873, 1000.0) > 0.0
        assert bessel_j(1874, 1000.0) == 0.0
        assert bessel_j(2000, 1000.0) == 0.0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            bessel_j(0, -0.5)
        with pytest.raises(ValueError):
            bessel_j(0, 1000.5)
        with pytest.raises(ValueError):
            bessel_j(0, math.nan)
        with pytest.raises(ValueError):
            bessel_j(0, math.inf)


class TestBesselRow:
    @pytest.mark.parametrize(
        "index", [0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 1e-8, 4.3e-139, 1e-300, 5e-324]
    )
    def test_energy_identity(self, index):
        row = bessel_row(index)
        energy = row.two_sided_energy()
        assert energy <= 1.0 + 1e-15
        assert 1.0 - energy < DEFAULT_TAIL_TOLERANCE

    @pytest.mark.parametrize("index", [0.5, 2.0, 5.0, 10.0, 20.0])
    def test_all_dropped_coefficients_are_small(self, index):
        row = bessel_row(index)
        # every coefficient beyond max_order is individually negligible
        for beyond in range(row.max_order + 1, row.max_order + 30):
            assert abs(bessel_reference(beyond, index)) < DEFAULT_TAIL_TOLERANCE

    @pytest.mark.parametrize("index", [0.5, 2.0, 5.0, 10.0, 20.0])
    def test_order_is_not_padded(self, index):
        row = bessel_row(index)
        n_energy = energy_order(index)
        assert row.max_order >= n_energy
        if row.max_order > n_energy:
            # the extension only ran because the last kept value was large
            assert abs(row.values[row.max_order]) >= DEFAULT_TAIL_TOLERANCE
        assert row.max_order <= n_energy + 20

    def test_values_match_pointwise_evaluation(self):
        for index in (0.5, 2.0, 7.0, 20.0):
            row = bessel_row(index)
            for order, value in enumerate(row.values):
                assert abs(value - bessel_j(order, index)) <= 1e-14

    def test_zero_index_row(self):
        row = bessel_row(0.0)
        assert row.max_order == 0
        assert row.values == (1.0,)

    def test_custom_tolerance_widens_order(self):
        loose = bessel_row(5.0, 1e-4)
        tight = bessel_row(5.0, 1e-12)
        assert tight.max_order > loose.max_order

    def test_rejects_bad_tolerance(self):
        for bad in (0.0, 1.0, -1e-3, 2.0):
            with pytest.raises(ValueError):
                bessel_row(1.0, bad)

    def test_value_count_enforced(self):
        with pytest.raises(ValueError):
            BesselCoefficients(modulation_index=1.0, max_order=2, values=(1.0,))

    @settings(max_examples=30, deadline=None)
    @given(st.floats(min_value=0.0, max_value=30.0, allow_nan=False))
    def test_truncation_rule_holds_everywhere(self, index):
        row = bessel_row(index)
        assert 1.0 - row.two_sided_energy() < DEFAULT_TAIL_TOLERANCE
        assert abs(bessel_j(row.max_order + 1, index)) < DEFAULT_TAIL_TOLERANCE


class TestEnergyOrder:
    @pytest.mark.parametrize("index", [0.0, 1.0, 2.0, 10.0, 20.0])
    def test_is_minimal_for_the_energy_bound(self, index):
        n = energy_order(index)
        # reference tail energy: 1 - (J_0^2 + 2 sum_{1..N} J_n^2)
        def tail(order_count: int) -> float:
            j0 = bessel_reference(0, index)
            total = j0 * j0
            for k in range(1, order_count + 1):
                jk = bessel_reference(k, index)
                total += 2.0 * jk * jk
            return 1.0 - total

        assert tail(n) < DEFAULT_TAIL_TOLERANCE
        if n > 0:
            assert tail(n - 1) >= DEFAULT_TAIL_TOLERANCE * 0.5

    def test_sits_at_or_below_row_order(self):
        for index in (0.5, 2.0, 10.0, 20.0):
            assert energy_order(index) <= bessel_row(index).max_order


# the sweep-fine grid of seed 1: 2001 indices from a sub-step offset
SWEEP = 0.01 * np.arange(2001) + float(np.random.default_rng(1).uniform(0.0, 0.01))
MIXED = [0.0, 5e-324, 4.3e-139, 1e-8, 11.999999, 12.0, 12.000001, 999.99, 1000.0]
# the recurrence rescales every step below 2**-600 and only near overflow from there up;
# at 2**-800 a limit of 2**400 would overflow
RESCALE_SWITCH = [
    2.0**-600, math.nextafter(2.0**-600, 0.0), 2.0**-601, 2.0**-599, 2.0**-800, 5e-324,
]


def bits(values) -> np.ndarray:
    """The float64 bit patterns, so -0.0 and 0.0 compare unequal."""
    return np.asarray(values, dtype=np.float64).view(np.uint64)


class TestBatchedRecurrence:
    """One recurrence over many arguments equals the scalar one per column."""

    @pytest.mark.parametrize("xs", [SWEEP, np.array(MIXED)], ids=["sweep", "mixed"])
    def test_columns_equal_the_scalar_recurrence(self, xs):
        n_max = xs.astype(np.int64) + 80
        block = _miller_rows(xs, n_max)
        for j, x in enumerate(xs.tolist()):
            want = miller_row(x, int(n_max[j]))
            assert np.array_equal(bits(block[: len(want), j]), bits(want)), x

    def test_columns_with_their_own_order_limits(self):
        xs = np.array(MIXED)
        n_max = np.array([0, 3, 40, 1, 60, 12, 7, 5, 1200])
        block = _miller_rows(xs, n_max)
        assert block.shape == (1201, len(xs))
        for j, x in enumerate(MIXED):
            want = miller_row(x, int(n_max[j]))
            assert np.array_equal(bits(block[: len(want), j]), bits(want)), x

    @pytest.mark.parametrize(
        "xs", [[x] for x in RESCALE_SWITCH] + [RESCALE_SWITCH],
        ids=["2**-600", "below 2**-600", "2**-601", "2**-599", "2**-800", "5e-324", "together"],
    )
    @pytest.mark.parametrize("n_max", [0, 80, 2100])  # 2100: a seed order past 2**11
    def test_columns_on_both_sides_of_the_rescale_switch(self, xs, n_max):
        xs = np.array(xs)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an overflow in the recurrence fails here
            block = _miller_rows(xs, np.full(len(xs), n_max))
        for j, x in enumerate(xs.tolist()):
            assert np.array_equal(bits(block[:, j]), bits(miller_row(x, n_max))), x

    @pytest.mark.parametrize("xs", [SWEEP, np.array(MIXED)], ids=["sweep", "mixed"])
    def test_orders_equal_the_truncation_loops(self, xs):
        _block, energy, orders = _bessel_rows(xs, DEFAULT_TAIL_TOLERANCE)
        got = list(zip(energy.tolist(), orders.tolist()))
        assert got == [truncation_orders(x, DEFAULT_TAIL_TOLERANCE) for x in xs.tolist()]

    @pytest.mark.parametrize("x", MIXED + SWEEP[::250].tolist())
    def test_public_functions_are_single_columns(self, x):
        energy, order = truncation_orders(x, DEFAULT_TAIL_TOLERANCE)
        row = bessel_row(x)
        assert (energy_order(x), row.max_order) == (energy, order)
        assert np.array_equal(bits(row.values), bits(miller_row(x, int(x) + 80)[: order + 1]))
        assert bessel_j(7, x) == miller_row(x, 7)[7]

    def test_first_bad_argument_of_a_batch_raises(self):
        from timbrecolor.bessel import _validate_arguments

        with pytest.raises(ValueError, match="must be nonnegative, got -1.0"):
            _validate_arguments([0.5, -1.0, math.nan])
        with pytest.raises(ValueError, match="must be finite, got nan"):
            _validate_arguments([0.5, math.nan, -1.0])
        with pytest.raises(ValueError, match="1000.5 exceeds supported maximum"):
            _validate_arguments([1000.5, -1.0])

    def test_unreachable_tolerance_names_its_index(self):
        with pytest.raises(ValueError, match="at index 1000.0"):
            _bessel_rows(np.array([1.0, 1000.0]), 1e-40)
