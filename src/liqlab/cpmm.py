"""Exact constant-product pool mechanics plus the linearized price impact.

Swaps are fee-free and preserve the product of the reserves, and raise
:class:`OverflowError` naming the swap when that product is not a normal
finite float.  Liquidity changes must match the current reserve ratio, or
raise :class:`RatioMismatchError`.  They are the cycle's stage 2 and
explicit stage 4 (:func:`~liqlab.cycle.run_cycle`).  ``PoolState`` is an
immutable value, every operation returns a new state.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import DomainError, RatioMismatchError

RATIO_TOL = 1e-9


@dataclass(frozen=True)
class PoolState:
    reserve_x: float
    reserve_y: float

    def __post_init__(self) -> None:
        if not (0.0 < self.reserve_x < math.inf and 0.0 < self.reserve_y < math.inf):
            raise DomainError(f"reserves must be positive and finite, "
                              f"got ({self.reserve_x}, {self.reserve_y})")

    @property
    def invariant_k(self) -> float:
        return self.reserve_x * self.reserve_y


def spot_price(pool: PoolState) -> float:
    """Marginal exchange rate Y/X.

    Raises :class:`OverflowError` naming both reserves when the ratio
    overflows to inf or underflows below the smallest normal float.
    """
    price = pool.reserve_y / pool.reserve_x
    if not sys.float_info.min <= price < math.inf:
        raise OverflowError(f"spot price reserve_y / reserve_x is {price} at "
                            f"reserves ({pool.reserve_x}, {pool.reserve_y}), "
                            f"outside the normal float range")
    return price


def _swap_invariant(pool: PoolState, swap: str) -> float:
    """The product a swap keeps; :class:`OverflowError` if it is not normal."""
    k = pool.invariant_k
    if not sys.float_info.min <= k < math.inf:
        raise OverflowError(f"{swap}: the invariant reserve_x * reserve_y is {k} at "
                            f"reserves ({pool.reserve_x}, {pool.reserve_y}), "
                            f"outside the normal float range")
    return k


def swap_x_for_y(pool: PoolState, dx: float) -> tuple[PoolState, float]:
    """Deposit ``dx`` of X, withdraw Y keeping the product constant.

    The ``dy`` withdrawn is the float difference ``reserve_y - new_y``,
    which is exact (Sterbenz), so a ledger that books it conserves Y.
    """
    if not dx > 0.0:
        raise DomainError(f"dx must be positive, got {dx}")
    if dx >= pool.reserve_x:
        raise DomainError(
            f"single swap of {dx} would exceed the X reserve {pool.reserve_x}")
    new_x = pool.reserve_x + dx
    new_y = _swap_invariant(pool, "swap_x_for_y") / new_x
    dy = pool.reserve_y - new_y
    return PoolState(new_x, new_y), dy


def swap_y_for_x(pool: PoolState, dy: float) -> tuple[PoolState, float]:
    """Deposit ``dy`` of Y, withdraw X keeping the product constant."""
    if not dy > 0.0:
        raise DomainError(f"dy must be positive, got {dy}")
    if dy >= pool.reserve_y:
        raise DomainError(
            f"single swap of {dy} would exceed the Y reserve {pool.reserve_y}")
    new_y = pool.reserve_y + dy
    new_x = _swap_invariant(pool, "swap_y_for_x") / new_y
    dx = pool.reserve_x - new_x
    return PoolState(new_x, new_y), dx


def _check_ratio(a: float, b: float, ref_a: float, ref_b: float) -> None:
    # compare a/b against ref_a/ref_b without dividing; finite amounts whose
    # cross products overflow cannot be compared (inf - inf is nan, which
    # would pass), while an infinite amount is left to PoolState to reject
    cross, other = a * ref_b, b * ref_a
    if (math.isfinite(a) and math.isfinite(b)
            and not (math.isfinite(cross) and math.isfinite(other))):
        raise DomainError(
            f"ratio check overflowed: amounts {a}:{b} against pool ratio "
            f"{ref_a}:{ref_b} give cross products {cross} and {other}")
    if abs(cross - other) > RATIO_TOL * abs(other):
        raise RatioMismatchError(
            f"amount ratio {a}:{b} does not match pool ratio {ref_a}:{ref_b}")


def add_liquidity(pool: PoolState, m: float, n: float) -> PoolState:
    """Add ``m >= 0`` of X and ``n >= 0`` of Y at the pool ratio."""
    if not m >= 0.0 or not n >= 0.0:
        raise DomainError(f"added amounts must be non-negative, got ({m}, {n})")
    _check_ratio(m, n, pool.reserve_x, pool.reserve_y)
    return PoolState(pool.reserve_x + m, pool.reserve_y + n)


def remove_liquidity(pool: PoolState, g: float, h: float) -> PoolState:
    """Remove ``g >= 0`` of X and ``h >= 0`` of Y at the pool ratio."""
    if not g >= 0.0 or not h >= 0.0:
        raise DomainError(f"removed amounts must be non-negative, got ({g}, {h})")
    if g >= pool.reserve_x or h >= pool.reserve_y:
        raise DomainError(
            f"removal ({g}, {h}) would drain reserves "
            f"({pool.reserve_x}, {pool.reserve_y})")
    _check_ratio(g, h, pool.reserve_x, pool.reserve_y)
    return PoolState(pool.reserve_x - g, pool.reserve_y - h)


def exact_relative_impact(pool: PoolState, dx: float) -> float:
    """Exact relative price move of a swap: (X/(X+dx))^2 - 1."""
    if dx <= -pool.reserve_x:
        raise DomainError(f"dx must exceed -X = {-pool.reserve_x}")
    ratio = pool.reserve_x / (pool.reserve_x + dx)
    return ratio * ratio - 1.0


def linearized_relative_impact(pool: PoolState, dx: float) -> float:
    """First-order Taylor term of the exact impact: -2 * dx / X."""
    return -2.0 * dx / pool.reserve_x
