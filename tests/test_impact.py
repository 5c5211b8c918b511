import math
import sys

import numpy as np
import pytest

from liqlab.errors import BracketError, DomainError
from liqlab.golden import golden_section_max
from liqlab.impact import (GrowthModel, growth_per_time_fou, impact_exponent,
                           optimal_impact_fou, optimal_impact_leverage_form,
                           optimal_impact_sqrt, optimal_size_numeric,
                           simulate_self_financing, wealth_closed_form)
from liqlab.paths import FouParams, SamplePath, refine_linear, simulate_fou


def model(k=1.0, khat=1.0, sigma=1.0, hurst=0.5) -> GrowthModel:
    return GrowthModel(capital_scale_k=k, time_per_size_khat=khat,
                       sigma=sigma, hurst=hurst)


# Oracles written straight from the paper's formulas; the library computes
# the same quantities inline, in another operation order.

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
    k = model.capital_scale_k
    return delta_p / k * math.sqrt(q) - model.sigma ** 2 * q / (2.0 * k * k)


def kelly_fraction_ou(p: float, params: FouParams) -> float:
    """Optimal fraction kappa * (p - level) / sigma^2 for the OU edge."""
    return params.kappa * (p - params.level) / params.sigma ** 2


def growth_at_fraction(f: float, delta_p: float, sigma: float) -> float:
    """Instantaneous growth f*delta_p - f^2*sigma^2/2 of a leveraged bet."""
    return f * delta_p - 0.5 * f * f * sigma * sigma


class TestGrowthRate:
    def test_empty_position(self):
        assert growth_rate(0.0, 3.0, 2.0, 1.0) == 0.0

    def test_unit_case(self):
        assert growth_rate(1.0, 1.0, 1.0, 1.0) == 0.5

    def test_argmax_is_dp_w_over_sigma2(self):
        dp, w, sigma = 0.7, 3.0, 1.3
        got = golden_section_max(lambda q: growth_rate(q, dp, w, sigma),
                                 0.0, 100.0, rel_tol=1e-12)
        assert got == pytest.approx(dp * w / sigma ** 2, rel=1e-6)

    def test_domain(self):
        with pytest.raises(DomainError):
            growth_rate(1.0, 1.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            growth_rate(1.0, 1.0, 1.0, -1.0)
        with pytest.raises(DomainError):
            growth_rate(-1.0, 1.0, 1.0, 1.0)


class TestGrowthRateConstrained:
    # growth_per_time_fou at hurst 1/2 is the constrained growth
    def test_breakeven_impact_point(self):
        # delta_p = sigma^2/k at q=1 leaves half the edge: sigma^2/(2 k^2)
        sigma, k = 1.3, 0.7
        m = model(k=k, sigma=sigma)
        got = growth_per_time_fou(1.0, sigma ** 2 / k, m)
        assert got == pytest.approx(sigma ** 2 / (2.0 * k * k), rel=1e-14)

    def test_vanishes_at_origin(self):
        assert growth_per_time_fou(1e-30, 2.0, model()) == pytest.approx(0.0, abs=1e-14)

    def test_derivative_zero_on_impact_curve(self):
        m = model(k=0.9, sigma=1.1)
        q = 2.7
        dp = optimal_impact_sqrt(q, m)
        h = 1e-6 * q
        deriv = (growth_per_time_fou(q + h, dp, m)
                 - growth_per_time_fou(q - h, dp, m)) / (2 * h)
        assert deriv == pytest.approx(0.0, abs=1e-9)


class TestOptimalImpactSqrt:
    def test_worked_values(self):
        assert optimal_impact_sqrt(4.0, model()) == 2.0
        assert optimal_impact_sqrt(1.0, model()) == 1.0

    def test_sqrt_scaling(self):
        m = model(k=0.8, sigma=1.7)
        q = 3.3
        assert optimal_impact_sqrt(4.0 * q, m) == pytest.approx(
            2.0 * optimal_impact_sqrt(q, m), rel=1e-14)


class TestGrowthPerTimeFou:
    def test_collapses_to_constrained_at_half(self):
        m = model(k=1.4, sigma=0.8, hurst=0.5, khat=1.0)
        for q in (0.2, 1.0, 7.0):
            assert growth_per_time_fou(q, 0.9, m) == pytest.approx(
                growth_rate_constrained(q, 0.9, m), rel=1e-15)

    def test_vanishes_at_origin(self):
        assert growth_per_time_fou(1e-30, 1.0, model(hurst=0.7)) == pytest.approx(0.0, abs=1e-14)

    def test_stationary_at_optimal_impact(self):
        m = model(k=1.2, khat=0.6, sigma=0.9, hurst=0.65)
        q = 1.8
        dp = optimal_impact_fou(q, m)
        got = golden_section_max(lambda x: growth_per_time_fou(x, dp, m),
                                 0.25 * q, 4.0 * q, rel_tol=1e-12)
        assert got == pytest.approx(q, rel=1e-7)


class TestOptimalImpactFou:
    def test_reduces_to_sqrt_law_at_half(self):
        m = model(k=0.6, sigma=1.2, hurst=0.5, khat=1.0)
        for q in (0.1, 1.0, 25.0):
            assert optimal_impact_fou(q, m) == pytest.approx(
                optimal_impact_sqrt(q, m), rel=1e-14)

    def test_linear_at_three_quarters(self):
        m = model(hurst=0.75)
        assert optimal_impact_fou(2.0, m) == pytest.approx(
            2.0 * optimal_impact_fou(1.0, m), rel=1e-14)

    def test_flat_curve_at_quarter_hurst(self):
        m = model(hurst=0.25)
        assert optimal_impact_fou(16.0, m) == pytest.approx(0.5, rel=1e-14)
        assert optimal_impact_fou(0.01, m) == pytest.approx(0.5, rel=1e-14)

    def test_non_finite_impact_overflows(self):
        # formerly numpy's overflow warning, then delta_p = inf
        m = model(khat=1e308, hurst=0.7)
        with pytest.raises(OverflowError, match="not finite"):
            optimal_impact_fou(np.float64(1e308), m)

    def test_impact_below_the_normal_range_is_named(self):
        # at H = 3/4 and k = 3/2 the impact is q itself, to the bit;
        # formerly a subnormal q came back as its own impact
        m = model(k=1.5, hurst=0.75)
        assert optimal_impact_fou(sys.float_info.min, m) == sys.float_info.min
        subnormal = math.nextafter(sys.float_info.min, 0.0)
        with pytest.raises(ArithmeticError, match=f"below the normal float range "
                                                  f"at q={subnormal}"):
            optimal_impact_fou(subnormal, m)


class TestOptimalSizeNumeric:
    @pytest.mark.parametrize("hurst", [0.3, 0.5, 0.7])
    @pytest.mark.parametrize("q", [0.1, 1.0, 10.0])
    def test_inverts_impact_curve(self, hurst, q):
        m = model(k=0.9, khat=1.3, sigma=1.1, hurst=hurst)
        got = optimal_size_numeric(optimal_impact_fou(q, m), m)
        assert got == pytest.approx(q, rel=1e-6)

    def test_closed_form_inverse(self):
        assert optimal_size_numeric(2.0, model()) == pytest.approx(4.0, rel=1e-8)

    def test_monotone_in_impact(self):
        m = model(hurst=0.6)
        sizes = [optimal_size_numeric(dp, m) for dp in (0.5, 1.0, 2.0, 4.0)]
        assert sizes == sorted(sizes)
        assert sizes[0] < sizes[-1]

    def test_no_interior_maximum_below_quarter(self):
        with pytest.raises(BracketError):
            optimal_size_numeric(1.0, model(hurst=0.2))
        with pytest.raises(BracketError):
            optimal_size_numeric(1.0, model(hurst=0.25))

    def test_domain(self):
        with pytest.raises(DomainError):
            optimal_size_numeric(0.0, model())


class TestImpactExponent:
    def grid_points(self, m):
        grid = np.logspace(-2, 4, 25)
        return grid, [optimal_impact_fou(q, m) for q in grid]

    def test_sqrt_law_slope(self):
        assert impact_exponent(*self.grid_points(model(hurst=0.5))) == pytest.approx(0.5, abs=1e-6)

    def test_linear_threshold_slope(self):
        assert impact_exponent(*self.grid_points(model(hurst=0.75))) == pytest.approx(1.0, abs=1e-6)

    def test_constant_curve_has_zero_slope(self):
        assert impact_exponent((1.0, 2.0, 4.0), (3.0, 3.0, 3.0)) == pytest.approx(0.0, abs=1e-12)

    def test_super_linearity_threshold(self):
        assert impact_exponent(*self.grid_points(model(hurst=0.6))) < 1.0
        assert impact_exponent(*self.grid_points(model(hurst=0.9))) > 1.0

    def test_degenerate_inputs(self):
        with pytest.raises(DomainError):
            impact_exponent([1.0] * 2, [1.0] * 2)
        with pytest.raises(DomainError):
            impact_exponent([1.0] * 3, (1.0, 2.0, 3.0))

    @pytest.mark.parametrize("sizes, deltas, message", [
        ((1.0, 2.0, 4.0), (1.0, math.nan, 3.0), "finite and positive"),
        ((1.0, 2.0, 4.0), (1.0, math.inf, 3.0), "finite and positive"),
        ((0.0, 2.0, 4.0), (1.0, 2.0, 3.0), "finite and positive"),
        ((1.0, math.nan, 4.0), (1.0, 2.0, 3.0), "finite and positive"),
        ((1.0, 2.0, 4.0), (1.0, 2.0), "got 3 sizes and 2 deltas"),
        ((1.0, 2.0), (1.0, 2.0), "at least 3 points"),
        ((1.0, math.inf, 4.0), (1.0, 2.0, 3.0), "finite and positive"),
        ((1.0, 2.0, 4.0), (1.0, 0.0, 3.0), "finite and positive"),
    ], ids=["nan-delta", "inf-delta", "zero-q", "nan-q", "unequal-lengths",
            "two-samples", "inf-q", "zero-delta"])
    def test_rejects_samples_it_cannot_fit(self, sizes, deltas, message):
        with pytest.raises(DomainError, match=message):
            impact_exponent(sizes, deltas)


class TestKellyFractionOu:
    def test_no_edge_at_level(self):
        params = FouParams(kappa=2.0, level=1.5, sigma=0.7)
        assert kelly_fraction_ou(1.5, params) == 0.0

    def test_direct_value(self):
        params = FouParams(kappa=1.0, level=0.0, sigma=1.0)
        assert kelly_fraction_ou(0.5, params) == 0.5

    @pytest.mark.parametrize("p", [-2.0, 0.0, 0.3, 1.5, 10.0])
    def test_growth_at_optimum_nonnegative(self, p):
        params = FouParams(kappa=-1.3, level=0.8, sigma=0.9)
        edge = params.kappa * (p - params.level)
        f = kelly_fraction_ou(p, params)
        g = growth_at_fraction(f, edge, params.sigma)
        assert g == pytest.approx(0.5 * (edge / params.sigma) ** 2, rel=1e-12, abs=1e-15)
        assert g >= 0.0


class TestWealthClosedForm:
    def test_flat_move(self):
        params = FouParams(kappa=0.3, level=0.0, sigma=1.0)
        assert wealth_closed_form(2.0, 2.0, params, 7.0) == 7.0

    def test_log_two_doubles(self):
        params = FouParams(kappa=1.0, level=0.0, sigma=1.0)
        assert wealth_closed_form(math.log(2.0), 0.0, params, 3.0) == pytest.approx(6.0, rel=1e-15)

    def test_worked_value_at_a_nonzero_level(self):
        # 2 * exp((2 - 1) - 1 * log(2 / 1)) = e
        params = FouParams(kappa=1.0, level=1.0, sigma=1.0)
        assert wealth_closed_form(2.0, 1.0, params, 2.0) == pytest.approx(math.e, rel=1e-15)

    @pytest.mark.parametrize("p_t, p0", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0),
                                         (math.nan, 1.0), (1e300, 1e-300)])
    def test_log_term_needs_a_positive_finite_ratio(self, p_t, p0):
        params = FouParams(kappa=1.0, level=0.5, sigma=1.0)
        with pytest.raises(DomainError, match="positive, finite p_t / p0"):
            wealth_closed_form(p_t, p0, params, 1.0)


class TestSimulateSelfFinancing:
    def test_zero_kappa_keeps_wealth_constant(self):
        params = FouParams(kappa=0.0, level=0.0, sigma=1.0)
        path = simulate_fou(FouParams(kappa=-0.1, level=0.0, sigma=0.1), 5.0, 64, 0.01, 3)
        wealth = simulate_self_financing(path, params, 2.0)
        assert np.all(wealth.values == 2.0)

    def test_constant_price_keeps_wealth_constant(self):
        path = SamplePath(dt=0.1, values=np.full(10, 4.0))
        params = FouParams(kappa=-0.5, level=0.0, sigma=0.4)
        wealth = simulate_self_financing(path, params, 1.5)
        assert np.all(wealth.values == 1.5)

    def test_positivity_violation_names_index(self):
        values = np.array([1.0, 0.5, -0.25, 1.0])
        path = SamplePath(dt=1.0, values=values)
        params = FouParams(kappa=-0.5, level=0.0, sigma=0.4)
        with pytest.raises(DomainError, match="index 2"):
            simulate_self_financing(path, params, 1.0)

    @pytest.mark.parametrize("sigma, price", [(1e-170, 4.0), (1e-160, 1e-10)])
    def test_zero_denominator_is_a_domain_error(self, sigma, price):
        # sigma^2 (first case) or price * sigma^2 (second) underflows to 0
        path = SamplePath(dt=1.0, values=[price, 2.0 * price, price])
        params = FouParams(kappa=-0.5, level=0.0, sigma=sigma)
        with pytest.raises(DomainError, match="underflows"):
            simulate_self_financing(path, params, 1.0)

    @pytest.mark.parametrize("hurst", [0.5, 0.7, 0.3])
    @pytest.mark.parametrize("level", [0.0, 5.0, -3.0])
    def test_refinement_converges_to_closed_form(self, level, hurst):
        # fixed driver function, sampled at dt, dt/2, dt/4, dt/8
        params = FouParams(kappa=-0.05, level=level, sigma=0.5, hurst=hurst)
        driver = simulate_fou(params, 10.0, 100, 1e-2, seed=2024)
        target = wealth_closed_form(driver.values[-1], driver.values[0], params, 1.0)
        errs = []
        for factor in (1, 2, 4, 8):
            fine = refine_linear(driver, factor)
            wealth = simulate_self_financing(fine, params, 1.0)
            errs.append(abs(wealth.values[-1] - target) / target)
        # first order in 1/factor: each doubling about halves the error
        assert all(1.9 < a / b < 2.2 for a, b in zip(errs, errs[1:]))
        assert errs[-1] < 0.01


class TestLeverageForm:
    def test_worked_value(self):
        assert optimal_impact_leverage_form(4.0, 1.0, model()) == pytest.approx(2.0, rel=1e-9)

    def test_independent_of_price_level(self):
        m = model(k=0.7, sigma=1.3)
        got = [optimal_impact_leverage_form(2.0, p, m) for p in (0.1, 1.0, 10.0)]
        ref = optimal_impact_sqrt(2.0, m)
        for value in got:
            assert value == pytest.approx(ref, rel=1e-9)

    def test_sigma_scaling(self):
        assert optimal_impact_leverage_form(1.0, 3.0, model(sigma=2.0)) == pytest.approx(
            4.0, rel=1e-9)

    def test_requires_half_hurst(self):
        with pytest.raises(DomainError):
            optimal_impact_leverage_form(1.0, 1.0, model(hurst=0.6))

    def test_small_impact_is_resolved(self):
        # formerly a silent midpoint: 200 halvings of [0, 1] stopped at 2**-201
        assert optimal_impact_leverage_form(1e-130, 1.0, model()) == pytest.approx(
            1e-65, rel=1e-12)

    @pytest.mark.parametrize("q, price, k", [(1.0, 1e160, 1.0), (1e-300, 1e150, 1e20)])
    def test_subnormal_terms_rejected(self, q, price, k):
        # sigma^2/P^2 (first case) or dp/P (second) below the normal range
        with pytest.raises(DomainError, match="normal float range"):
            optimal_impact_leverage_form(q, price, model(k=k))


class TestModelValidation:
    def test_growth_model_domain(self):
        with pytest.raises(DomainError):
            GrowthModel(0.0, 1.0, 1.0, 0.5)
        with pytest.raises(DomainError):
            GrowthModel(1.0, -1.0, 1.0, 0.5)
        with pytest.raises(DomainError, match="time_per_size_khat must be positive"):
            GrowthModel(1.0, 0.0, 1.0, 0.5)
        with pytest.raises(DomainError):
            GrowthModel(1.0, 1.0, 1.0, 1.2)

    @pytest.mark.parametrize("sigma, hurst", [
        (0.0, 0.5), (-1.0, 0.5), (math.nan, 0.5), (math.inf, 0.5), (1e200, 0.5),
        (1.0, 0.0), (1.0, 1.0), (1.0, -0.2), (1.0, 1.2), (1.0, math.nan),
    ])
    def test_growth_model_and_fou_params_share_their_checks(self, sigma, hurst):
        with pytest.raises(DomainError) as fou:
            FouParams(kappa=1.0, level=0.0, sigma=sigma, hurst=hurst)
        with pytest.raises(DomainError) as growth:
            GrowthModel(1.0, 1.0, sigma, hurst)
        assert str(growth.value) == str(fou.value)
        assert str(fou.value).startswith("sigma must" if hurst == 0.5 else "hurst must")

    @pytest.mark.parametrize("k, khat, sigma", [
        (math.inf, 1.0, 1.0), (1.0, math.inf, 1.0), (1.0, 1.0, math.inf),
        (math.nan, 1.0, 1.0), (1.0, math.nan, 1.0), (1.0, 1.0, math.nan),
    ])
    def test_growth_model_rejects_non_finite_scales(self, k, khat, sigma):
        # formerly accepted: an infinite sigma gave optimal impact inf, an
        # infinite k gave 0.0, with no error
        with pytest.raises(DomainError, match="positive and finite"):
            GrowthModel(k, khat, sigma, 0.5)

    def test_growth_model_rejects_an_infinite_square_of_sigma(self):
        with pytest.raises(DomainError, match="sigma must have a finite square"):
            GrowthModel(1.0, 1.0, 1e200, 0.5)

    def test_growth_rejects_a_capital_scale_whose_square_is_zero(self):
        # formerly ZeroDivisionError; the impact curve itself needs no k * k
        m = model(k=1e-170)
        assert optimal_impact_fou(1.0, m) == 1e170
        with pytest.raises(DomainError, match="capital_scale_k=1e-170 squares to zero"):
            growth_per_time_fou(1.0, 1.0, m)
        with pytest.raises(DomainError, match="capital_scale_k=1e-170 squares to zero"):
            optimal_size_numeric(1.0, m)

    @pytest.mark.parametrize("call, message", [
        (lambda: optimal_impact_sqrt(0.0, model()), "q must be positive"),
        (lambda: growth_per_time_fou(-1.0, 1.0, model()), "q must be positive"),
        (lambda: optimal_impact_fou(0.0, model()), "q must be positive"),
        (lambda: optimal_impact_leverage_form(0.0, 1.0, model()), "q must be positive"),
        (lambda: optimal_impact_leverage_form(1.0, 0.0, model()),
         "price_level must be positive"),
        (lambda: wealth_closed_form(1.0, 0.0, FouParams(1.0, 0.0, 1.0), 0.0),
         "w0 must be positive"),
        (lambda: simulate_self_financing(SamplePath(dt=1.0, values=[1.0, 2.0]),
                                         FouParams(-0.5, 0.0, 0.4), -1.0),
         "w0 must be positive"),
        # each check at its edge
        (lambda: growth_per_time_fou(0.0, 1.0, model()), "q must be positive"),
        (lambda: simulate_self_financing(SamplePath(dt=1.0, values=[1.0, 2.0]),
                                         FouParams(-0.5, 0.0, 0.4), 0.0),
         "w0 must be positive"),
        (lambda: simulate_self_financing(SamplePath(dt=1.0, values=[1.0, 0.0]),
                                         FouParams(-0.5, 0.0, 0.4), 1.0),
         "price path must be strictly positive; first violation at index 1"),
    ], ids=["sqrt-q", "growth-per-time-q", "fou-q", "leverage-q", "leverage-price-level",
            "closed-form-w0", "self-financing-w0", "growth-per-time-zero-q",
            "self-financing-zero-w0", "self-financing-zero-price"])
    def test_inputs_outside_the_domain_are_named(self, call, message):
        with pytest.raises(DomainError, match=message):
            call()

    def test_impact_point_domain(self):
        with pytest.raises(DomainError):
            impact_exponent((0.0, 2.0, 4.0), (1.0, 1.0, 1.0))
        with pytest.raises(DomainError):
            impact_exponent((1.0, 2.0, 4.0), (-0.1, 1.0, 1.0))
