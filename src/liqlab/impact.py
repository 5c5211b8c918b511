"""Growth rates and optimal market-impact curves for liquidity providers.

The central objects are the log-growth of a position of size q facing a
price concession delta_p, and the impact curves that make such positions
growth-optimal under the diversified-capital constraint W = k * sqrt(q)
and the time-budget assumption T = khat * q:

* standard random-walk prices (hurst = 1/2) give
  ``delta_p = sigma^2 / k * sqrt(q)``;
* fractional drivers give
  ``delta_p = 2 H khat^(2H-1) sigma^2 / k * q^(2H - 1/2)``.

Numerical inverses and a log-log exponent fit over paired sizes and
deltas are provided so each closed form can be checked against an
independent optimizer.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import DomainError
from .golden import bisect_decreasing, bracket_decreasing, golden_section_max
from .paths import FouParams, SamplePath, _check_hurst, _check_sigma


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
        if not 0.0 < self.capital_scale_k < math.inf:
            raise DomainError(f"capital_scale_k must be positive and finite, "
                              f"got {self.capital_scale_k}")
        if not 0.0 < self.time_per_size_khat < math.inf:
            raise DomainError(f"time_per_size_khat must be positive and finite, "
                              f"got {self.time_per_size_khat}")
        _check_sigma(self.sigma)
        _check_hurst(self.hurst)


def optimal_impact_sqrt(q: float, model: GrowthModel) -> float:
    """Square-root impact (sigma^2 / k) * sqrt(q)."""
    if not q > 0.0:
        raise DomainError("q must be positive")
    return model.sigma ** 2 / model.capital_scale_k * math.sqrt(q)


def growth_per_time_fou(q: float, delta_p: float, model: GrowthModel) -> float:
    """Growth per unit of time under T = khat*q and variance ~ T^(2H):
    (delta_p/k)*sqrt(q) - sigma^2/(2k^2) * khat^(2H-1) * q^(2H).

    Raises :class:`DomainError` when k * k underflows to 0."""
    if not q > 0.0:
        raise DomainError("q must be positive")
    k = _capital_scale(model)
    h2 = 2.0 * model.hurst
    carry = model.sigma ** 2 / (2.0 * k * k) * model.time_per_size_khat ** (h2 - 1.0)
    return delta_p / k * math.sqrt(q) - carry * q ** h2


def _growth_per_time_deriv(q: float, delta_p: float, model: GrowthModel) -> float:
    k = _capital_scale(model)
    h = model.hurst
    h2 = 2.0 * h
    carry = model.sigma ** 2 / (k * k) * model.time_per_size_khat ** (h2 - 1.0)
    return delta_p / (2.0 * k * math.sqrt(q)) - h * carry * q ** (h2 - 1.0)


def _capital_scale(model: GrowthModel) -> float:
    # k, once k * k is known not to underflow to 0: the growth functions divide by it
    k = model.capital_scale_k
    if k * k == 0.0:
        raise DomainError(f"capital_scale_k={k!r} squares to zero; the growth rate "
                          f"divides by k^2")
    return k


def optimal_impact_fou(q: float, model: GrowthModel) -> float:
    """Impact that makes q optimal per unit of time:
    2 H khat^(2H-1) sigma^2 / k * q^(2H - 1/2).

    Raises :class:`ArithmeticError` when the impact falls below the normal
    float range, and :class:`OverflowError` when it is not a finite float.
    """
    if not q > 0.0:
        raise DomainError("q must be positive")
    h = model.hurst
    try:
        pre = 2.0 * h * model.time_per_size_khat ** (2.0 * h - 1.0)
        q_power = float(q) ** (2.0 * h - 0.5)
    except OverflowError:  # then delta_p is inf or nan, and raises below
        pre = q_power = math.inf
    delta_p = pre * model.sigma ** 2 / model.capital_scale_k * q_power
    if not math.isfinite(delta_p):
        raise OverflowError(f"optimal impact is not finite at q={q}")
    if delta_p < sys.float_info.min:
        raise ArithmeticError(f"optimal impact {delta_p!r} is below the normal "
                              f"float range at q={q}")
    return delta_p


def optimal_size_numeric(delta_p: float, model: GrowthModel) -> float:
    """Argmax of :func:`growth_per_time_fou` over q, by golden-section search.

    The bracket is found by doubling/halving until the analytic derivative
    changes sign; :class:`BracketError` is raised when no interior maximum
    exists (hurst <= 1/4 makes the objective monotone).  The search on that
    bracket ``[lo, hi]`` stops at the fixed width ``1e-10 * max(1, hi)``.
    """
    if not delta_p > 0.0:
        raise DomainError("delta_p must be positive")
    lo, hi = bracket_decreasing(lambda q: _growth_per_time_deriv(q, delta_p, model))
    return golden_section_max(lambda q: growth_per_time_fou(q, delta_p, model),
                              lo, hi, rel_tol=1e-10)


def impact_exponent(sizes: Sequence[float], deltas: Sequence[float]) -> float:
    """Least-squares slope of log(delta_p) on log(q) over the pairs of
    ``sizes`` and ``deltas``: at least 3, finite and positive, not all one q."""
    qs, dps = np.asarray(sizes, dtype=float), np.asarray(deltas, dtype=float)
    if len(qs) != len(dps):
        raise DomainError(f"got {len(qs)} sizes and {len(dps)} deltas")
    if len(qs) < 3:
        raise DomainError("need at least 3 points to fit an exponent")
    if not np.all((qs > 0.0) & (qs < np.inf) & (dps > 0.0) & (dps < np.inf)):
        raise DomainError("all q and delta_p must be finite and positive for a log-log fit")
    if np.ptp(qs) == 0.0:
        raise DomainError("degenerate input: all sizes equal")
    slope, _ = np.polyfit(np.log(qs), np.log(dps), 1)
    return float(slope)


def wealth_closed_form(p_t: float, p0: float, params: FouParams, w0: float) -> float:
    """Terminal wealth of :func:`simulate_self_financing`'s strategy along a
    price path from p0 to p_t that keeps one sign:
    w0 * exp(kappa/sigma^2 * ((p_t - p0) - level * log(p_t / p0))).

    At level 0 the log term is left out, so p0 may be 0 there.  At any
    other level, a p_t / p0 that is not positive and finite raises
    :class:`DomainError`.
    """
    if not w0 > 0.0:
        raise DomainError("w0 must be positive")
    move = p_t - p0
    if params.level != 0.0:
        if not (p0 != 0.0 and 0.0 < p_t / p0 < math.inf):
            raise DomainError(f"the log term needs a positive, finite p_t / p0, "
                              f"got p_t={p_t}, p0={p0}")
        move -= params.level * math.log(p_t / p0)
    return w0 * math.exp(params.kappa / params.sigma ** 2 * move)


def simulate_self_financing(path: SamplePath, params: FouParams, w0: float) -> SamplePath:
    """Wealth path of the self-financing strategy along a given price path.

    Discrete update W[i+1] = W[i] + Q[i] * (P[i+1] - P[i]) with
    Q[i] = W[i] * kappa * (P[i] - level) / (P[i] * sigma^2).  The wealth
    path has the price path's ``dt`` and its ``meta`` behind
    ``"self-financing;"``.
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
    return SamplePath(dt=path.dt, values=wealth, meta=f"self-financing;{path.meta}")


def optimal_impact_leverage_form(q: float, price_level: float,
                                 model: GrowthModel) -> float:
    """Impact recovered by optimizing leverage instead of size.

    For the leverage growth g(f) = (dp/P) f - sigma^2/(2 P^2) f^2 the
    optimal f is the root of dg/df; a bisection by
    :func:`~liqlab.golden.bisect_decreasing` solves for the dp at which
    this optimum equals the fraction implied by the capital constraint,
    f = P sqrt(q) / k.  That bisection reads only the sign of the shortfall
    f - f*(dp).  A nested bisection of dg/df (rel 1e-15) returns f*(dp)
    within about 1.25e-15 of the quotient (dp/P) / (sigma^2/P^2), so where
    f and the quotient differ by more than 4e-15 of the larger, the
    quotient gives the same sign and the nested solve is skipped.  It still
    runs inside that band, and for a quotient outside (1e-199, 1e199),
    which holds every root its bracket cannot reach, so each result and
    error is that of nested plain halving.  The result agrees with
    :func:`optimal_impact_sqrt` and is independent of ``price_level``.
    Subnormal sigma^2/P^2 or dp/P raise :class:`DomainError`; an optimal f
    or dp outside (2**-664, 2**664] (1.306e-200 to 7.655e199), the reach of
    :func:`~liqlab.golden.bracket_decreasing`, raises :class:`BracketError`.
    """
    if model.hurst != 0.5:
        raise DomainError("leverage form is defined for hurst == 0.5")
    if not q > 0.0:
        raise DomainError("q must be positive")
    if not price_level > 0.0:
        raise DomainError("price_level must be positive")
    p = price_level
    curvature = model.sigma ** 2 / (p * p)
    f_target = p * math.sqrt(q) / model.capital_scale_k
    # near the root both terms of dg/df are about dp/P = curvature * f_target;
    # subnormal terms would cost the root its precision without any error
    if not (curvature >= sys.float_info.min
            and curvature * f_target >= sys.float_info.min):
        raise DomainError("sigma^2/P^2 or dp/P falls below the normal float range")

    def shortfall(dp: float) -> float:
        # f_target minus the root of dg/df; positive while dp is too small
        root = dp / p / curvature
        if 1e-199 < root < 1e199 and abs(f_target - root) > 4e-15 * max(f_target, root):
            return f_target - root
        return f_target - bisect_decreasing(lambda f: dp / p - curvature * f, 1e-15)

    return bisect_decreasing(shortfall, 1e-14)
