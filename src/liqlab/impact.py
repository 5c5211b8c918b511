"""Growth rates and optimal market-impact curves for liquidity providers.

The central objects are the log-growth of a position of size q facing a
price concession delta_p, and the impact curves that make such positions
growth-optimal under the diversified-capital constraint W = k * sqrt(q)
and the time-budget assumption T = khat * q:

* standard random-walk prices (hurst = 1/2) give
  ``delta_p = sigma^2 / k * sqrt(q)``;
* fractional drivers give
  ``delta_p = 2 H khat^(2H-1) sigma^2 / k * q^(2H - 1/2)``.

Numerical inverses and log-log exponent fits are provided so each closed
form can be checked against an independent optimizer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import BracketError, DomainError
from .golden import bracket_decreasing, golden_section_max
from .paths import FouParams, SamplePath


@dataclass(frozen=True)
class GrowthModel:
    """Structural constants of a diversified liquidity provider.

    ``capital_scale_k`` is the k in W = k * sqrt(q); ``time_per_size_khat``
    is the khat in T = khat * q.  Both are exogenous inputs, not calibrated.
    """

    capital_scale_k: float
    time_per_size_khat: float
    sigma: float
    hurst: float = 0.5

    def __post_init__(self) -> None:
        if not self.capital_scale_k > 0.0:
            raise DomainError("capital_scale_k must be positive")
        if not self.time_per_size_khat > 0.0:
            raise DomainError("time_per_size_khat must be positive")
        if not self.sigma > 0.0:
            raise DomainError("sigma must be positive")
        if not 0.0 < self.hurst < 1.0:
            raise DomainError(f"hurst must be in (0, 1), got {self.hurst}")


@dataclass(frozen=True)
class ImpactPoint:
    """A (size, price concession) sample of an impact curve."""

    size_q: float
    delta_p: float

    def __post_init__(self) -> None:
        if not self.size_q > 0.0:
            raise DomainError("size_q must be positive")
        if self.delta_p < 0.0:
            raise DomainError("delta_p must be non-negative")


def growth_rate(q: float, delta_p: float, wealth: float, sigma: float) -> float:
    """Log-growth of a position: q*delta_p/W - q^2*sigma^2 / (2 W^2)."""
    if not wealth > 0.0:
        raise DomainError("wealth must be positive")
    if not sigma > 0.0:
        raise DomainError("sigma must be positive")
    if q < 0.0:
        raise DomainError("q must be non-negative")
    return q * delta_p / wealth - q * q * sigma * sigma / (2.0 * wealth * wealth)


def growth_rate_constrained(q: float, delta_p: float, model: GrowthModel) -> float:
    """Growth with capital posted as W = k*sqrt(q):
    (delta_p/k)*sqrt(q) - sigma^2*q/(2k^2)."""
    if not q > 0.0:
        raise DomainError("q must be positive")
    k = model.capital_scale_k
    return delta_p / k * math.sqrt(q) - model.sigma ** 2 * q / (2.0 * k * k)


def optimal_impact_sqrt(q: float, model: GrowthModel) -> float:
    """Square-root impact (sigma^2 / k) * sqrt(q)."""
    if not q > 0.0:
        raise DomainError("q must be positive")
    return model.sigma ** 2 / model.capital_scale_k * math.sqrt(q)


def growth_per_time_fou(q: float, delta_p: float, model: GrowthModel) -> float:
    """Growth per unit of time under T = khat*q and variance ~ T^(2H):
    (delta_p/k)*sqrt(q) - sigma^2/(2k^2) * khat^(2H-1) * q^(2H)."""
    if not q > 0.0:
        raise DomainError("q must be positive")
    k = model.capital_scale_k
    h2 = 2.0 * model.hurst
    carry = model.sigma ** 2 / (2.0 * k * k) * model.time_per_size_khat ** (h2 - 1.0)
    return delta_p / k * math.sqrt(q) - carry * q ** h2


def _growth_per_time_deriv(q: float, delta_p: float, model: GrowthModel) -> float:
    k = model.capital_scale_k
    h = model.hurst
    h2 = 2.0 * h
    carry = model.sigma ** 2 / (k * k) * model.time_per_size_khat ** (h2 - 1.0)
    return delta_p / (2.0 * k * math.sqrt(q)) - h * carry * q ** (h2 - 1.0)


def optimal_impact_fou(q: float, model: GrowthModel) -> float:
    """Impact that makes q optimal per unit of time:
    2 H khat^(2H-1) sigma^2 / k * q^(2H - 1/2).

    Raises :class:`OverflowError` when the impact is not a finite float.
    """
    if not q > 0.0:
        raise DomainError("q must be positive")
    h = model.hurst
    pre = 2.0 * h * model.time_per_size_khat ** (2.0 * h - 1.0)
    delta_p = pre * model.sigma ** 2 / model.capital_scale_k * float(q) ** (2.0 * h - 0.5)
    if not math.isfinite(delta_p):
        raise OverflowError(f"optimal impact is not finite at q={q}")
    return delta_p


def optimal_size_numeric(delta_p: float, model: GrowthModel,
                         rel_tol: float = 1e-10) -> float:
    """Argmax of :func:`growth_per_time_fou` over q, by golden-section search.

    The bracket is found by doubling/halving until the analytic derivative
    changes sign; :class:`BracketError` is raised when no interior maximum
    exists (hurst <= 1/4 makes the objective monotone).
    """
    if not delta_p > 0.0:
        raise DomainError("delta_p must be positive")
    lo, hi = bracket_decreasing(lambda q: _growth_per_time_deriv(q, delta_p, model))
    return golden_section_max(lambda q: growth_per_time_fou(q, delta_p, model),
                              lo, hi, rel_tol=rel_tol)


def impact_exponent(points: list[ImpactPoint]) -> float:
    """Least-squares slope of log(delta_p) on log(q)."""
    if len(points) < 3:
        raise DomainError("need at least 3 points to fit an exponent")
    qs = np.array([p.size_q for p in points])
    dps = np.array([p.delta_p for p in points])
    if np.any(dps <= 0.0):
        raise DomainError("all delta_p must be positive for a log-log fit")
    if np.ptp(qs) == 0.0:
        raise DomainError("degenerate input: all sizes equal")
    slope, _ = np.polyfit(np.log(qs), np.log(dps), 1)
    return float(slope)


def kelly_fraction_ou(p: float, params: FouParams) -> float:
    """Optimal fraction kappa * (p - level) / sigma^2 for the OU edge."""
    return params.kappa * (p - params.level) / params.sigma ** 2


def growth_at_fraction(f: float, delta_p: float, sigma: float) -> float:
    """Instantaneous growth f*delta_p - f^2*sigma^2/2 of a leveraged bet."""
    if not sigma > 0.0:
        raise DomainError("sigma must be positive")
    return f * delta_p - 0.5 * f * f * sigma * sigma


def wealth_closed_form(p_t: float, p0: float, params: FouParams, w0: float) -> float:
    """Terminal wealth w0 * exp(kappa/sigma^2 * (p_t - p0)).

    Only valid for a reversion level of zero, where the optimal position
    is proportional to wealth alone.
    """
    if params.level != 0.0:
        raise DomainError("closed form requires level == 0")
    if not w0 > 0.0:
        raise DomainError("w0 must be positive")
    return w0 * math.exp(params.kappa / params.sigma ** 2 * (p_t - p0))


def simulate_self_financing(path: SamplePath, params: FouParams, w0: float) -> SamplePath:
    """Wealth path of the self-financing strategy along a given price path.

    Discrete update W[i+1] = W[i] + Q[i] * (P[i+1] - P[i]) with
    Q[i] = W[i] * kappa * (P[i] - level) / (P[i] * sigma^2).
    """
    if not w0 > 0.0:
        raise DomainError("w0 must be positive")
    nonpos = np.nonzero(path.values <= 0.0)[0]
    if nonpos.size:
        raise DomainError(
            f"price path must be strictly positive; first violation at index {nonpos[0]}")
    sigma2 = params.sigma ** 2
    if not path.values.min() * sigma2 > 0.0:
        raise DomainError("price * sigma^2 underflows to zero; the position is undefined")
    wealth = kernels.self_financing(path.values.reshape(1, -1), params.kappa,
                                    params.level, sigma2, float(w0))[0]
    return SamplePath(times=path.times, values=wealth, seed=path.seed,
                      meta=f"self-financing;{path.meta}")


def optimal_impact_leverage_form(q: float, price_level: float,
                                 model: GrowthModel) -> float:
    """Impact recovered by optimizing leverage instead of size.

    For the leverage growth g(f) = (dp/P) f - sigma^2/(2 P^2) f^2 the
    optimal f is located numerically (sign bisection of the derivative of
    g), and dp is solved so that this optimum equals the fraction implied
    by the capital constraint, f = P sqrt(q) / k.  The result agrees with
    :func:`optimal_impact_sqrt` and is independent of ``price_level``.
    """
    if model.hurst != 0.5:
        raise DomainError("leverage form is defined for hurst == 0.5")
    if not q > 0.0:
        raise DomainError("q must be positive")
    if not price_level > 0.0:
        raise DomainError("price_level must be positive")
    p = price_level
    sigma2 = model.sigma ** 2
    f_target = p * math.sqrt(q) / model.capital_scale_k

    def argmax_f(dp: float) -> float:
        # d/df of the leverage growth; root located by sign bisection
        dgdf = lambda f: dp / p - sigma2 / (p * p) * f
        hi = 1.0
        while dgdf(hi) > 0.0:
            hi *= 2.0
            if hi > 1e60:
                raise BracketError("leverage optimum did not bracket")
        lo = 0.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if dgdf(mid) > 0.0:
                lo = mid
            else:
                hi = mid
            if hi - lo <= 1e-15 * hi:
                break
        return 0.5 * (lo + hi)

    hi = 1.0
    while argmax_f(hi) < f_target:
        hi *= 2.0
        if hi > 1e60:
            raise BracketError("impact level did not bracket")
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if argmax_f(mid) < f_target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-14 * hi:
            break
    return 0.5 * (lo + hi)
