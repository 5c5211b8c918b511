"""Kelly sizing for catastrophe bonds with all-or-nothing payouts.

A bond pays return ``r`` with probability ``p = 1 - q`` and loses the
whole stake with probability ``q`` (zero recovery).  The log-growth of a
single-bond portfolio is maximized at ``f = 1 - q - q/r``; the symmetric
two-bond portfolio with independent defaults has a four-outcome growth and
a printed small-``q/r`` series for its optimum.  Golden-section optimizers
over the enumerated outcome distributions serve as independent oracles for
every closed form.  Each sizing function returns the fraction as a plain
float; a closed form outside its domain is clamped to the nearest end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError
from .golden import golden_section_max

TWO_BOND_UPPER = 0.5 - 1e-12
SINGLE_UPPER = 1.0 - 1e-12


@dataclass(frozen=True)
class BondSpec:
    """Default probability and non-default return; recovery is zero."""

    default_prob_q: float
    return_r: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.default_prob_q < 1.0:
            raise DomainError(f"default probability must be in [0, 1), got {self.default_prob_q}")
        if not self.return_r > 0.0:
            raise DomainError(f"return must be positive, got {self.return_r}")


@dataclass(frozen=True)
class IsoFractionShift:
    """Default-probability adjustments that keep the optimal fraction fixed.

    ``delta_exact`` solves the invariance exactly; ``first_order`` and
    ``geometric_series`` are the two printed approximations, reported for
    comparison only.
    """

    delta_exact: float
    first_order: float
    geometric_series: float


def single_bond_growth(f: float, bond: BondSpec) -> float:
    """Expected log-growth q*log(1-f) + p*log(1+f*r)."""
    if not 0.0 <= f < 1.0:
        raise DomainError(f"fraction must be in [0, 1), got {f}")
    q = bond.default_prob_q
    p = 1.0 - q
    out = p * math.log1p(f * bond.return_r)
    if q > 0.0:
        out += q * math.log1p(-f)
    return out


def _single_fraction(q: float, r: float) -> float:
    """1 - q - q/r clamped to [0, SINGLE_UPPER]; any q >= 0 with r > 0."""
    return min(max(1.0 - (q + q / r), 0.0), SINGLE_UPPER)


def single_bond_fraction(bond: BondSpec) -> float:
    """Closed-form optimal fraction 1 - q - q/r.

    Negative edges clamp to zero; the riskless boundary q = 0 clamps just
    below the full stake.
    """
    return _single_fraction(bond.default_prob_q, bond.return_r)


def single_bond_fraction_numeric(bond: BondSpec) -> float:
    """Golden-section argmax of the single-bond growth, as an oracle."""
    return golden_section_max(lambda x: single_bond_growth(x, bond),
                              0.0, SINGLE_UPPER, rel_tol=1e-10)


def single_bond_growth_deriv(f: float, bond: BondSpec) -> float:
    """d/df of the single-bond growth."""
    if not 0.0 <= f < 1.0:
        raise DomainError(f"fraction must be in [0, 1), got {f}")
    q, r = bond.default_prob_q, bond.return_r
    return (1.0 - q) * r / (1.0 + f * r) - q / (1.0 - f)


def iso_fraction_shift(bond: BondSpec, delta_r: float) -> IsoFractionShift:
    """Probability shift matching a return shift at constant optimal fraction.

    Replacing (q, r) by (q + delta, r + delta_r) leaves 1 - q - q/r
    unchanged exactly when delta = q * delta_r / (r * (1 + r + delta_r)).
    A delta that is not finite (delta_r / r overflows) raises
    :class:`OverflowError`.
    """
    q, r = bond.default_prob_q, bond.return_r
    if not r + delta_r > 0.0:
        raise DomainError(f"shifted return must stay positive, got {r + delta_r}")
    exact = q * delta_r / (r * (1.0 + r + delta_r))
    first = delta_r / r * (q / (1.0 + r))
    geometric = delta_r / r * (q / (1.0 + r - q))
    if not all(map(math.isfinite, (exact, first, geometric))):
        raise OverflowError(f"iso-fraction shift is not finite at q = {q}, r = {r}, "
                            f"delta_r = {delta_r}")
    return IsoFractionShift(delta_exact=exact, first_order=first,
                            geometric_series=geometric)


def two_bond_growth(f: float, bond: BondSpec) -> float:
    """Four-outcome growth of two independent identical bonds, fraction f each.

    p^2 * log(1 + 2 f r)  +  2 p q * log(1 + f (r - 1))  +  q^2 * log(1 - 2 f).
    """
    if not 0.0 <= f < 0.5:
        raise DomainError(f"fraction must be in [0, 0.5), got {f}")
    q, r = bond.default_prob_q, bond.return_r
    p = 1.0 - q
    out = p * p * math.log1p(2.0 * f * r)
    if q > 0.0:
        out += 2.0 * p * q * math.log1p(f * (r - 1.0)) + q * q * math.log1p(-2.0 * f)
    return out


def two_bond_fraction_series(bond: BondSpec) -> float:
    """Printed series 1/2 - q/r - q^2/(2 r^2) - (q/(3 r)) (q/r)^2.

    Results falling outside [0, 1/2) are clamped (q = 0 lands exactly on
    the 1/2 boundary).  A q/r whose cube overflows raises
    :class:`OverflowError` naming q and r.
    """
    x = bond.default_prob_q / bond.return_r
    try:
        cube = x ** 3
    except OverflowError:
        raise OverflowError(f"two-bond series overflows: (q/r)**3 at q = "
                            f"{bond.default_prob_q}, r = {bond.return_r}") from None
    raw = 0.5 - x - x * x / 2.0 - cube / 3.0
    return min(max(raw, 0.0), TWO_BOND_UPPER)


def two_bond_fraction_numeric(bond: BondSpec) -> float:
    """Golden-section argmax of the enumerated two-bond growth."""
    return golden_section_max(lambda x: two_bond_growth(x, bond),
                              0.0, TWO_BOND_UPPER, rel_tol=1e-10)

