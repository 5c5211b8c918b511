import math
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

from liqlab.cpmm import (PoolState, add_liquidity, exact_relative_impact,
                         linearized_relative_impact, remove_liquidity,
                         spot_price, swap_x_for_y, swap_y_for_x)
from liqlab.errors import DomainError, RatioMismatchError
from liqlab.impact import GrowthModel, optimal_impact_fou

reserves = st.floats(min_value=1e-3, max_value=1e9, allow_nan=False)
fractions = st.floats(min_value=1e-6, max_value=0.9)


class TestSpotPrice:
    def test_symmetric_pool(self):
        assert spot_price(PoolState(100.0, 100.0)) == 1.0

    def test_ratio(self):
        assert spot_price(PoolState(50.0, 100.0)) == 2.0
        assert spot_price(PoolState(1.0, sys.float_info.min)) == sys.float_info.min

    def test_unchanged_by_ratio_add(self):
        pool = PoolState(90.0, 111.0)
        grown = add_liquidity(pool, 9.0, 11.1)
        assert spot_price(grown) == pytest.approx(spot_price(pool), rel=1e-12)

    def test_infinite_price_is_named(self):
        with pytest.raises(OverflowError, match="spot price reserve_y / reserve_x is inf "):
            spot_price(PoolState(1e-300, 1e300))


class TestSwaps:
    def test_worked_example(self):
        pool, dy = swap_x_for_y(PoolState(100.0, 100.0), 10.0)
        assert dy == 100.0 - 10000.0 / 110.0
        assert dy == pytest.approx(100.0 / 11.0, rel=1e-14)
        assert (pool.reserve_x, pool.reserve_y) == (110.0, 10000.0 / 110.0)

    def test_small_trade_small_output(self):
        _, dy = swap_x_for_y(PoolState(100.0, 100.0), 1e-9)
        assert 0.0 < dy < 2e-9

    def test_round_trip_recovers_input(self):
        pool0 = PoolState(100.0, 100.0)
        pool1, dy = swap_x_for_y(pool0, 10.0)
        pool2, dx_back = swap_y_for_x(pool1, dy)
        assert dx_back == pytest.approx(10.0, rel=1e-13)
        assert pool2.reserve_x == pytest.approx(100.0, rel=1e-13)
        assert pool2.reserve_y == pytest.approx(100.0, rel=1e-13)

    def test_mirror_worked_example(self):
        pool, dx = swap_y_for_x(PoolState(110.0, 10000.0 / 110.0), 100.0 - 10000.0 / 110.0)
        assert dx == pytest.approx(10.0, rel=1e-13)
        assert pool.reserve_y == pytest.approx(100.0, rel=1e-14)

    def test_deposit_cannot_reach_reserve(self):
        with pytest.raises(DomainError):
            swap_y_for_x(PoolState(100.0, 100.0), 100.0)
        with pytest.raises(DomainError):
            swap_x_for_y(PoolState(100.0, 100.0), 150.0)
        with pytest.raises(DomainError, match="would exceed the X reserve 100.0"):
            swap_x_for_y(PoolState(100.0, 100.0), 100.0)

    def test_non_positive_amounts(self):
        with pytest.raises(DomainError):
            swap_x_for_y(PoolState(1.0, 1.0), 0.0)
        with pytest.raises(DomainError):
            swap_y_for_x(PoolState(1.0, 1.0), -1.0)
        with pytest.raises(DomainError, match="dy must be positive, got 0.0"):
            swap_y_for_x(PoolState(1.0, 1.0), 0.0)

    @pytest.mark.parametrize("swap", [swap_x_for_y, swap_y_for_x])
    def test_smallest_normal_invariant_is_accepted(self, swap):
        pool = PoolState(1.0, sys.float_info.min)
        new_pool, _ = swap(pool, 0.5 * pool.reserve_y)
        assert new_pool.invariant_k > 0.0

    @pytest.mark.parametrize("swap", [swap_x_for_y, swap_y_for_x])
    @pytest.mark.parametrize("x, y, k", [(1e-300, 1e-30, "0.0"), (1e300, 1e10, "inf"),
                                         (1e-160, 1e-160, "1e-320")],
                             ids=["zero", "inf", "subnormal"])
    def test_invariant_outside_the_normal_range_is_named(self, swap, x, y, k):
        # formerly "reserves must be positive and finite" from the new state
        with pytest.raises(OverflowError) as raised:
            swap(PoolState(x, y), 0.5 * min(x, y))
        assert str(raised.value) == (
            f"{swap.__name__}: the invariant reserve_x * reserve_y is {k} at "
            f"reserves ({x}, {y}), outside the normal float range")

    @given(x=reserves, y=reserves, u=fractions)
    def test_invariant_preserved(self, x, y, u):
        pool = PoolState(x, y)
        after, dy = swap_x_for_y(pool, u * x)
        assert dy > 0.0
        assert abs(after.invariant_k - pool.invariant_k) <= 1e-15 * pool.invariant_k

    @given(x=reserves, y=reserves, u=fractions)
    def test_price_strictly_decreases(self, x, y, u):
        pool = PoolState(x, y)
        after, _ = swap_x_for_y(pool, u * x)
        assert spot_price(after) < spot_price(pool)

    @given(x=reserves, y=reserves, u=fractions)
    def test_path_independence(self, x, y, u):
        # one swap of dx equals two consecutive swaps of dx/2; the second
        # route re-derives the invariant once more, costing up to ~5 ulp
        pool = PoolState(x, y)
        dx = u * x
        one, _ = swap_x_for_y(pool, dx)
        half, _ = swap_x_for_y(pool, dx / 2.0)
        two, _ = swap_x_for_y(half, dx / 2.0)
        assert abs(two.reserve_x - one.reserve_x) <= 2.0 * math.ulp(one.reserve_x)
        assert abs(two.reserve_y - one.reserve_y) <= 5.0 * math.ulp(one.reserve_y)


class TestLiquidity:
    def test_symmetric_add(self):
        pool = add_liquidity(PoolState(100.0, 100.0), 10.0, 10.0)
        assert (pool.reserve_x, pool.reserve_y) == (110.0, 110.0)

    def test_ratio_add_preserves_price(self):
        pool = PoolState(90.0, 1000.0 / 9.0)
        grown = add_liquidity(pool, 9.0, 100.0 / 9.0)
        assert spot_price(grown) == pytest.approx(spot_price(pool), rel=1e-12)

    def test_ratio_mismatch_reports_both_ratios(self):
        with pytest.raises(RatioMismatchError, match="ratio"):
            add_liquidity(PoolState(100.0, 100.0), 10.0, 11.0)

    def test_remove_mirrors_add(self):
        pool = remove_liquidity(PoolState(110.0, 110.0), 10.0, 10.0)
        assert (pool.reserve_x, pool.reserve_y) == (100.0, 100.0)

    def test_remove_underflow(self):
        with pytest.raises(DomainError):
            remove_liquidity(PoolState(10.0, 10.0), 10.0, 10.0)
        # one reserve taken whole, the other short of it within the ratio tolerance
        for g, h in ((10.0, 10.0 - 1e-11), (10.0 - 1e-11, 10.0)):
            with pytest.raises(DomainError, match="would drain reserves"):
                remove_liquidity(PoolState(10.0, 10.0), g, h)

    def test_remove_ratio_mismatch(self):
        with pytest.raises(RatioMismatchError):
            remove_liquidity(PoolState(100.0, 100.0), 5.0, 6.0)

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_zero_amounts_leave_the_pool(self, zero):
        pool = PoolState(3.0, 7.0)
        assert add_liquidity(pool, zero, zero) == pool
        assert remove_liquidity(pool, zero, zero) == pool

    @pytest.mark.parametrize("a, b", [(-1.0, -1.0), (-1.0, 0.0), (0.0, -1e-300),
                                      (math.nan, math.nan)])
    def test_non_negative_amounts_required(self, a, b):
        for change in (add_liquidity, remove_liquidity):
            with pytest.raises(DomainError, match="must be non-negative"):
                change(PoolState(1.0, 1.0), a, b)


class TestImpacts:
    def test_exact_worked_value(self):
        got = exact_relative_impact(PoolState(100.0, 100.0), 10.0)
        assert got == pytest.approx(-21.0 / 121.0, abs=1e-16)

    def test_exact_zero_trade(self):
        assert exact_relative_impact(PoolState(100.0, 100.0), 0.0) == 0.0

    def test_exact_half_price_point(self):
        x = 100.0
        got = exact_relative_impact(PoolState(x, 50.0), x * (math.sqrt(2.0) - 1.0))
        assert got == pytest.approx(-0.5, rel=1e-14)

    def test_exact_domain(self):
        with pytest.raises(DomainError):
            exact_relative_impact(PoolState(100.0, 100.0), -100.0)
        with pytest.raises(DomainError, match=r"^dx must exceed -X = -2\.0$"):
            exact_relative_impact(PoolState(2.0, 1.0), -3.0)

    def test_linear_worked_value(self):
        assert linearized_relative_impact(PoolState(100.0, 100.0), 10.0) == -0.2

    def test_linear_zero_trade(self):
        assert linearized_relative_impact(PoolState(100.0, 100.0), 0.0) == 0.0

    @pytest.mark.parametrize("u", [0.001, 0.01, 0.02, 0.05, 0.1])
    def test_linearization_gap_is_quadratic(self, u):
        # exact - linear = 3u^2 - 4u^3 + ... so the gap sits under 3.5 u^2
        pool = PoolState(250.0, 40.0)
        dx = u * pool.reserve_x
        gap = abs(exact_relative_impact(pool, dx) - linearized_relative_impact(pool, dx))
        assert gap <= 3.5 * u * u
        assert gap >= 2.5 * u * u

    @pytest.mark.parametrize("hurst,increasing", [(0.3, True), (0.5, True),
                                                  (0.7, True), (0.9, False)])
    def test_divergence_from_growth_optimal_curve(self, hurst, increasing):
        # ratio linear/optimal scales like q^(3/2 - 2H): monotone on a log
        # grid spanning six decades, diverging at one end for hurst != 3/4
        pool = PoolState(1.0, 1.0)
        m = GrowthModel(1.0, 1.0, 1.0, hurst)
        qs = np.logspace(-3, 3, 13)
        ratios = [abs(linearized_relative_impact(pool, q)) / optimal_impact_fou(q, m)
                  for q in qs]
        diffs = np.diff(ratios)
        assert np.all(diffs > 0.0) if increasing else np.all(diffs < 0.0)


class TestPoolState:
    def test_requires_positive_reserves(self):
        with pytest.raises(DomainError):
            PoolState(0.0, 1.0)
        with pytest.raises(DomainError):
            PoolState(1.0, -2.0)
        with pytest.raises(DomainError):
            PoolState(1.0, 0.0)

    @pytest.mark.parametrize("x, y", [(math.inf, 1.0), (1.0, math.inf),
                                      (math.nan, 1.0), (1.0, math.nan)])
    def test_requires_finite_reserves(self, x, y):
        with pytest.raises(DomainError, match="positive and finite"):
            PoolState(x, y)

    @pytest.mark.parametrize("operation, pool, amounts", [
        (add_liquidity, (1e10, 1e10), (1e308, 1e300)),
        (remove_liquidity, (1e200, 1e200), (1e199, 1e150)),
        (add_liquidity, (3.0, 1.0), (sys.float_info.max, 5.992310449541054e+307)),
    ])
    def test_overflowing_ratio_check_raises(self, operation, pool, amounts):
        # both cross products overflow to inf, and inf - inf is nan; or only
        # one does, and their gap, inf, is not above RATIO_TOL * inf
        with pytest.raises(DomainError, match="ratio check overflowed"):
            operation(PoolState(*pool), *amounts)

    def test_add_liquidity_cannot_reach_infinite_reserves(self):
        # inf - inf is nan, which the ratio check lets through
        with pytest.raises(DomainError, match="positive and finite"):
            add_liquidity(PoolState(1.0, 1.0), math.inf, math.inf)

    def test_invariant_property(self):
        assert PoolState(3.0, 4.0).invariant_k == 12.0
