"""Exact rational oracles for the constant-product pool and the cycle.

``cpmm`` and ``cycle`` use only +, -, * and /, so ``fractions.Fraction``
gives each formula's exact value from the same float inputs.  Each test
replays the library's arithmetic exactly and states how far the float
result may be from it, in ulps.  The inputs are seeded hypothesis draws:
reserves log-uniform in [1e-3, 1e6] and trade shares u = dx / x
log-uniform in [1e-12, 1).

Measured over 60,000 such inputs before the budgets were set: a swap's
new reserve was within 2.3 ulp of exact, its output within 2.1 ulp of the
reserve it leaves, and ``exact_relative_impact`` within 1.6 ulp of 1.0.
With alpha, M, sigma and G drawn as shares of x0 (M and sigma up to
1e3 x0), every cycle quantity was within 5.5 ulp of the cycle's largest
ledger term (:func:`ledger_ulps`), and a closure's work analogue within 2.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, reject, settings, strategies as st

from liqlab.cpmm import (PoolState, add_liquidity, exact_relative_impact,
                         remove_liquidity, swap_x_for_y, swap_y_for_x)
from liqlab.cycle import STAGE3_RULES, CycleConfig, run_cycle
from liqlab.errors import DomainError

# budgets in ulps: a swap's new reserve and dy (of the reserve it leaves),
# exact_relative_impact (of 1.0, its largest operand), and every cycle
# quantity (of the cycle's largest ledger term)
SWAP_ULPS = 3
IMPACT_ULPS = 3
CYCLE_ULPS = 8


def _log_uniform(lo: float, hi: float) -> st.SearchStrategy[float]:
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


reserves = _log_uniform(1e-3, 1e6)
shares = _log_uniform(1e-12, 1.0).filter(lambda u: u < 1.0)
seeded = settings(derandomize=True, deadline=None, max_examples=300)


def ulps(value: float, exact: Fraction, unit: float) -> Fraction:
    """How far ``value`` is from ``exact``, in units of ``math.ulp(unit)``."""
    return abs(Fraction(value) - exact) / Fraction(math.ulp(unit))


def exact_ulps(value: float, exact: Fraction) -> Fraction:
    """How far ``value`` is from ``exact``, in ulps of ``exact`` rounded."""
    return ulps(value, exact, float(exact))


class TestSwaps:
    @seeded
    @given(x=reserves, y=reserves, u=shares)
    @example(x=1.0, y=3.0, u=0.9999999999999999)
    def test_swap_x_for_y(self, x, y, u):
        dx = u * x
        if not dx < x:
            reject()
        pool, dy = swap_x_for_y(PoolState(x, y), dx)
        x_, y_, dx_ = Fraction(x), Fraction(y), Fraction(dx)
        assert exact_ulps(pool.reserve_x, x_ + dx_) <= Fraction(1, 2)
        assert exact_ulps(pool.reserve_y, x_ * y_ / (x_ + dx_)) <= SWAP_ULPS
        # the difference of two floats, exact (Sterbenz), so a ledger conserves
        assert Fraction(dy) == y_ - Fraction(pool.reserve_y)
        assert ulps(dy, y_ * dx_ / (x_ + dx_), y) <= SWAP_ULPS

    @seeded
    @given(x=reserves, y=reserves, u=shares)
    @example(x=3.0, y=7.0, u=0.3)
    def test_swap_y_for_x(self, x, y, u):
        dy = u * y
        if not dy < y:
            reject()
        pool, dx = swap_y_for_x(PoolState(x, y), dy)
        x_, y_, dy_ = Fraction(x), Fraction(y), Fraction(dy)
        assert exact_ulps(pool.reserve_y, y_ + dy_) <= Fraction(1, 2)
        assert exact_ulps(pool.reserve_x, x_ * y_ / (y_ + dy_)) <= SWAP_ULPS
        assert Fraction(dx) == x_ - Fraction(pool.reserve_x)
        assert ulps(dx, x_ * dy_ / (y_ + dy_), x) <= SWAP_ULPS

    @seeded
    @given(x=reserves, y=reserves, u=shares)
    @example(x=1.0, y=1.0, u=0.9999999999999999)
    def test_exact_relative_impact(self, x, y, u):
        dx = u * x
        ratio = Fraction(x) / (Fraction(x) + Fraction(dx))
        assert ulps(exact_relative_impact(PoolState(x, y), dx),
                    ratio * ratio - 1, 1.0) <= IMPACT_ULPS


class TestLiquidity:
    # the ratio-matching amounts are rounded, so each reserve is one
    # correctly rounded sum or difference: within half an ulp

    @seeded
    @given(x=reserves, y=reserves, u=_log_uniform(1e-12, 1e3))
    def test_add_liquidity(self, x, y, u):
        m = u * x
        n = m * y / x
        pool = add_liquidity(PoolState(x, y), m, n)
        assert exact_ulps(pool.reserve_x, Fraction(x) + Fraction(m)) <= Fraction(1, 2)
        assert exact_ulps(pool.reserve_y, Fraction(y) + Fraction(n)) <= Fraction(1, 2)

    @seeded
    @given(x=reserves, y=reserves, u=shares)
    @example(x=7.0, y=1.0, u=0.999)  # x * (1 - g / x) would be 384 ulp off
    def test_remove_liquidity(self, x, y, u):
        g = u * x
        h = g * y / x
        if not (g < x and h < y):
            reject()
        pool = remove_liquidity(PoolState(x, y), g, h)
        assert exact_ulps(pool.reserve_x, Fraction(x) - Fraction(g)) <= Fraction(1, 2)
        assert exact_ulps(pool.reserve_y, Fraction(y) - Fraction(h)) <= Fraction(1, 2)


def exact_cycle(config: CycleConfig) -> dict:
    """``run_cycle``'s stages in exact arithmetic from the same float inputs.

    Returns beta, n, delta, G, H and the work analogue, and ``ledgers``,
    the five snapshots as (pool X, pool Y, inside X, inside Y, outside X,
    outside Y).
    """
    x0, y0, alpha, m, sigma = map(Fraction, (config.x0, config.y0, config.alpha,
                                             config.m, config.sigma_amt))
    x1, y1 = x0 - alpha, x0 * y0 / (x0 - alpha)
    beta = y1 - y0
    n = m * y1 / x1
    x2, y2 = x1 + m, y1 + n
    if config.stage3_rule == "exact":
        delta = y2 * sigma / (x2 + sigma)
    else:
        delta = sigma * y2 / (x2 + alpha)
    x3, y3 = x2 + sigma, y2 - delta
    if config.removal is None:
        g, h = m - alpha + sigma, y3 - y0
    else:
        g, h = map(Fraction, config.removal)
    ledgers = [(x0, y0, 0, 0, 0, 0),
               (x1, y1, 0, 0, alpha, -beta),
               (x2, y2, m, n, alpha - m, -beta - n),
               (x3, y3, m, n, alpha - m - sigma, -beta - n + delta),
               (x3 - g, y3 - h, m - g, n - h, alpha - m - sigma + g, -beta - n + delta + h)]
    work = ledgers[-1][4] * y0 / x0 + ledgers[-1][5]
    return {"beta": beta, "n": n, "delta": delta, "G": g, "H": h, "work": work,
            "ledgers": ledgers}


def ledger_ulps(config: CycleConfig, exact: dict) -> tuple[float, float, float]:
    """The units of the cycle's budget: the largest exact ledger term of X,
    of Y, and of both valued in Y at the starting price y0 / x0."""
    largest_x = max(abs(term) for ledger in exact["ledgers"] for term in ledger[0::2])
    largest_y = max(abs(term) for ledger in exact["ledgers"] for term in ledger[1::2])
    p0 = Fraction(config.y0) / Fraction(config.x0)
    return float(largest_x), float(largest_y), float(max(largest_y, largest_x * p0))


@pytest.mark.parametrize("closure", [True, False], ids=["closure", "removal"])
@pytest.mark.parametrize("rule", STAGE3_RULES)
@seeded
@given(x0=reserves, y0=reserves, a=shares, m=_log_uniform(1e-12, 1e3), s=shares,
       g=shares)
@example(x0=1.0, y0=1.0, a=0.9999999, m=3.0, s=0.5, g=0.5)
def test_cycle_replay(rule, closure, x0, y0, a, m, s, g):
    alpha, m_amt, sigma = a * x0, m * x0, s * x0
    try:
        removal = None
        if not closure:
            # G of the stage-3 X reserve, with H at the pool ratio
            stage3 = run_cycle(CycleConfig(x0, y0, alpha, m_amt, sigma, (0.0, 0.0),
                                           rule)).snapshots[3].pool
            g_amt = g * stage3.reserve_x
            removal = (g_amt, g_amt * stage3.reserve_y / stage3.reserve_x)
        config = CycleConfig(x0, y0, alpha, m_amt, sigma, removal, rule)
        report = run_cycle(config)
    except DomainError:
        reject()  # alpha rounds to x0, or an infeasible closure or payout
    exact = exact_cycle(config)
    unit_x, unit_y, unit_work = ledger_ulps(config, exact)
    snapshots = report.snapshots
    # beta and n are booked as they are; delta is what stage 3 took from the
    # pool's Y reserve
    assert ulps(-snapshots[1].outside_y, exact["beta"], unit_y) <= CYCLE_ULPS
    assert ulps(snapshots[2].inside_y, exact["n"], unit_y) <= CYCLE_ULPS
    taken = Fraction(snapshots[2].pool.reserve_y) - Fraction(snapshots[3].pool.reserve_y)
    assert abs(taken - exact["delta"]) / Fraction(math.ulp(unit_y)) <= CYCLE_ULPS
    assert ulps(report.g_amt, exact["G"], unit_x) <= CYCLE_ULPS
    assert ulps(report.h_amt, exact["H"], unit_y) <= CYCLE_ULPS
    assert ulps(report.work_analogue, exact["work"], unit_work) <= CYCLE_ULPS
    for snapshot, ledger in zip(snapshots, exact["ledgers"], strict=True):
        floats = (snapshot.pool.reserve_x, snapshot.pool.reserve_y, snapshot.inside_x,
                  snapshot.inside_y, snapshot.outside_x, snapshot.outside_y)
        for i, (value, term) in enumerate(zip(floats, ledger)):
            assert ulps(value, term, unit_y if i % 2 else unit_x) <= CYCLE_ULPS
