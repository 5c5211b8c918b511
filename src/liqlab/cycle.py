"""Four-stage pool trading cycle as a double-entry token ledger.

The investor alternates between taking liquidity (stages 1 and 3) and
changing the pool size (stages 2 and 4); :func:`run_cycle` keeps the
ledger at the start and after each stage, one snapshot per label of
:data:`STAGES`.  Each stage pays an amount of each token from the
investor's outside wallet into the pool: a taker phase moves the wallet,
and a provider phase moves the wallet and the in-pool position alike.  So

    pool + outside == starting pool reserves        (componentwise)

holds at every snapshot (:meth:`CycleReport.conservation_errors` gives the
residuals), and the position is what stage 2 added less what stage 4
removed.  The position and the outside balances may go negative
(temporary shorts).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .cpmm import PoolState, add_liquidity, remove_liquidity
from .errors import DomainError


# the label of each snapshot: snapshot i is the ledger after stage i
STAGES = ("Start", "AfterStage1", "AfterStage2", "AfterStage3", "AfterStage4")
# the stage-3 price rules, described at run_cycle
STAGE3_RULES = ("exact", "original-x")


@dataclass(frozen=True)
class CycleLedger:
    """Snapshot of pool reserves and investor positions after a stage."""

    pool: PoolState
    inside_x: float = 0.0
    inside_y: float = 0.0
    outside_x: float = 0.0
    outside_y: float = 0.0


@dataclass(frozen=True)
class CycleConfig:
    """Inputs of a full cycle run.

    Stage 4 either closes the pool back to its starting reserves
    (``removal=None``) or removes the explicit amounts ``removal = (G, H)``.
    ``stage3_rule`` is one of :data:`STAGE3_RULES`.
    """

    x0: float
    y0: float
    alpha: float
    m: float
    sigma_amt: float
    removal: tuple[float, float] | None = None
    stage3_rule: str = "exact"

    def __post_init__(self) -> None:
        if not self.x0 > 0.0 or not self.y0 > 0.0:
            raise DomainError("starting reserves must be positive")
        if not 0.0 < self.alpha < self.x0:
            raise DomainError(f"alpha must be in (0, x0), got {self.alpha}")
        if self.m < 0.0 or self.sigma_amt < 0.0:
            raise DomainError("m and sigma_amt must be non-negative")
        if self.stage3_rule not in STAGE3_RULES:
            raise DomainError(f"unknown stage-3 rule {self.stage3_rule!r}")


@dataclass(frozen=True)
class CycleReport:
    """Per-stage ledgers plus the investor's bottom line.

    ``snapshots[i]`` is the ledger after stage i (0 is the start, labelled
    by :data:`STAGES`); ``g_amt``/``h_amt`` are what stage 4 removed.  ``work_analogue`` values
    the final outside position at the starting spot price y0/x0 (in units
    of token Y); the gross shorts are the largest negative outside balance
    reached per token over the cycle.
    """

    snapshots: list[CycleLedger]
    g_amt: float
    h_amt: float
    work_analogue: float
    gross_short_x: float
    gross_short_y: float

    def conservation_errors(self) -> list[tuple[float, float]]:
        """Componentwise residual of pool + outside - starting pool, per snapshot."""
        start = self.snapshots[0].pool
        return [(s.pool.reserve_x + s.outside_x - start.reserve_x,
                 s.pool.reserve_y + s.outside_y - start.reserve_y)
                for s in self.snapshots]


def _check_reserve(value: float, stage: int, name: str, formula: str) -> None:
    if not math.isfinite(value):
        raise DomainError(
            f"stage {stage} overflows the {name} reserve: {formula} = {value}")


def _book(ledger: CycleLedger, pool: PoolState, dx: float, dy: float,
          provider: bool = False) -> CycleLedger:
    """Pay ``(dx, dy)`` from the outside wallet into the pool, which becomes
    ``pool``; a provider phase books them to the in-pool position too."""
    inside = ((ledger.inside_x + dx, ledger.inside_y + dy) if provider
              else (ledger.inside_x, ledger.inside_y))
    return CycleLedger(pool, *inside, ledger.outside_x - dx, ledger.outside_y - dy)


def run_cycle(config: CycleConfig) -> CycleReport:
    """Run stages 1 through 4 and summarize the investor's outcome.

    Stages 1 to 4 pay (-alpha, beta), (M, n), (sigma, -delta) and (-G, -H)
    into the pool, each booked as the module docstring says.
    :class:`CycleConfig` has already checked its inputs, so only the checks
    that depend on the pool state are made here.

    Stage 3 pays out delta of Y for sigma of X.  The rule ``"exact"`` sets
    delta = Y * sigma / (X + sigma), the unique amount preserving the
    reserve product.  ``"original-x"`` sets delta = sigma * Y / (X0 + M),
    keying the payout off the pre-cycle X reserve (reconstructed as the
    current X reserve plus alpha); it does not preserve the product, so the
    two rules can be compared side by side.

    A closure run removes the stage-4 amounts (G, H) that restore the
    starting pool reserves: G = M - alpha + sigma balances the X side; H is
    whatever Y excess the first three stages left in the pool.  Only the
    pool is guaranteed to close; the investor's positions generally stay
    open.  A closure that needs a negative G or H raises :class:`DomainError`.
    Stage 2 and an explicit ``removal`` go through
    :func:`~liqlab.cpmm.add_liquidity` and :func:`~liqlab.cpmm.remove_liquidity`,
    which reject amounts off the pool ratio with :class:`RatioMismatchError`.
    A reserve that overflows the float range in stage 1, 2 or 3 raises
    :class:`DomainError` naming the stage and the reserve.
    """
    alpha, m, sigma_amt = config.alpha, config.m, config.sigma_amt
    ledger = CycleLedger(pool=PoolState(config.x0, config.y0))
    snapshots = [ledger]

    # Stage 1: take alpha of X out of the pool against beta = XY/(X-alpha) - Y.
    x, y = ledger.pool.reserve_x, ledger.pool.reserve_y
    new_y = x * y / (x - alpha)
    _check_reserve(new_y, 1, "Y", "X*Y/(X - alpha)")
    ledger = _book(ledger, PoolState(x - alpha, new_y), -alpha, new_y - y)
    snapshots.append(ledger)

    # Stage 2: contribute M of X plus the ratio-matching n of Y to the pool.
    x, y = ledger.pool.reserve_x, ledger.pool.reserve_y
    n = m * y / x
    _check_reserve(x + m, 2, "X", "X + M")
    _check_reserve(y + n, 2, "Y", "Y + M*Y/X")
    ledger = _book(ledger, add_liquidity(ledger.pool, m, n), m, n, provider=True)
    snapshots.append(ledger)

    # Stage 3: give sigma of X back to the pool against delta of Y.
    x, y = ledger.pool.reserve_x, ledger.pool.reserve_y
    _check_reserve(x + sigma_amt, 3, "X", "X + sigma")
    if config.stage3_rule == "exact":
        delta = y * sigma_amt / (x + sigma_amt)
    else:
        delta = sigma_amt * y / (x + alpha)
    if delta >= y:
        raise DomainError(f"stage-3 payout {delta} would drain the Y reserve {y}")
    ledger = _book(ledger, PoolState(x + sigma_amt, y - delta), sigma_amt, -delta)
    snapshots.append(ledger)

    # Stage 4: withdraw G of X and H of Y; a closure is off the pool ratio.
    x, y = ledger.pool.reserve_x, ledger.pool.reserve_y
    if config.removal is None:
        g_amt = m - alpha + sigma_amt
        h_amt = y - config.y0
        if g_amt < 0.0 or h_amt < 0.0:
            raise DomainError(
                f"infeasible closure: G = {g_amt}, H = {h_amt} (both must be >= 0)")
        if g_amt >= x or h_amt >= y:
            raise DomainError(f"removal ({g_amt}, {h_amt}) would drain reserves ({x}, {y})")
        pool = PoolState(x - g_amt, y - h_amt)
    else:
        g_amt, h_amt = config.removal
        pool = remove_liquidity(ledger.pool, g_amt, h_amt)
    ledger = _book(ledger, pool, -g_amt, -h_amt, provider=True)
    snapshots.append(ledger)

    p0 = config.y0 / config.x0
    work = ledger.outside_x * p0 + ledger.outside_y
    short_x = max(max(0.0, -s.outside_x) for s in snapshots)
    short_y = max(max(0.0, -s.outside_y) for s in snapshots)
    return CycleReport(snapshots=snapshots, g_amt=g_amt, h_amt=h_amt,
                       work_analogue=work, gross_short_x=short_x,
                       gross_short_y=short_y)
