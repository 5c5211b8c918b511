import math

import pytest
from hypothesis import given, strategies as st

from liqlab.catbond import (SINGLE_UPPER, TWO_BOND_UPPER, BondSpec,
                            iso_fraction_shift, single_bond_fraction,
                            single_bond_fraction_numeric, single_bond_growth,
                            single_bond_growth_deriv, two_bond_fraction_numeric,
                            two_bond_fraction_series, two_bond_growth)
from liqlab.errors import DomainError

probs = st.floats(min_value=0.001, max_value=0.95)
returns = st.floats(min_value=0.01, max_value=10.0)


class TestSingleBondGrowth:
    def test_zero_bet(self):
        assert single_bond_growth(0.0, BondSpec(0.3, 2.0)) == 0.0

    def test_fair_coin_peaks_at_zero(self):
        bond = BondSpec(0.5, 1.0)
        assert single_bond_growth(0.0, bond) == 0.0
        for f in (0.1, 0.3, 0.6):
            assert single_bond_growth(f, bond) < 0.0

    def test_direct_evaluation(self):
        got = single_bond_growth(0.6, BondSpec(0.2, 1.0))
        assert got == pytest.approx(0.2 * math.log(0.4) + 0.8 * math.log(1.6), rel=1e-15)

    def test_domain(self):
        with pytest.raises(DomainError):
            single_bond_growth(1.0, BondSpec(0.2, 1.0))
        with pytest.raises(DomainError):
            single_bond_growth(-0.1, BondSpec(0.2, 1.0))


class TestSingleBondFraction:
    def test_worked_example_exact(self):
        assert single_bond_fraction(BondSpec(0.2, 1.0)) == 0.6

    def test_zero_edge(self):
        assert single_bond_fraction(BondSpec(0.5, 1.0)) == 0.0

    def test_riskless_limit_clamps_at_full_stake(self):
        assert single_bond_fraction(BondSpec(0.0, 1.0)) == SINGLE_UPPER

    def test_negative_edge_clamped_and_flagged(self):
        assert single_bond_fraction(BondSpec(0.9, 0.1)) == 0.0

    @given(q=probs, r=returns)
    def test_clamping_soundness(self, q, r):
        # whenever the analytic fraction clamps to zero the growth must be
        # non-increasing at the origin
        if single_bond_fraction(BondSpec(q, r)) == 0.0:
            assert single_bond_growth_deriv(0.0, BondSpec(q, r)) <= 1e-12

    @given(q=probs, r=returns)
    def test_first_order_optimality(self, q, r):
        f = single_bond_fraction(BondSpec(q, r))
        if 0.0 < f < SINGLE_UPPER:
            assert single_bond_growth_deriv(f, BondSpec(q, r)) == \
                pytest.approx(0.0, abs=1e-10)


class TestSingleBondNumeric:
    @pytest.mark.parametrize("q", [0.01, 0.1, 0.3])
    @pytest.mark.parametrize("r", [0.1, 0.5, 1.0, 2.0])
    def test_agrees_with_analytic(self, q, r):
        bond = BondSpec(q, r)
        analytic = single_bond_fraction(bond)
        numeric = single_bond_fraction_numeric(bond)
        assert abs(analytic - numeric) <= 1e-8

    def test_zero_edge(self):
        assert abs(single_bond_fraction_numeric(BondSpec(0.5, 1.0))) <= 1e-8

    def test_negative_edge_lands_at_zero(self):
        assert abs(single_bond_fraction_numeric(BondSpec(0.9, 0.1))) <= 1e-8


class TestIsoFractionShift:
    def test_zero_shift(self):
        shift = iso_fraction_shift(BondSpec(0.3, 1.5), 0.0)
        assert shift.delta_exact == 0.0 and shift.first_order == 0.0

    def test_worked_values(self):
        shift = iso_fraction_shift(BondSpec(0.1, 1.0), 0.01)
        assert shift.delta_exact == pytest.approx(0.001 / 2.01, rel=1e-15)
        assert shift.first_order == pytest.approx(0.0005, rel=1e-15)

    def test_exact_shift_keeps_fraction(self):
        bond = BondSpec(0.1, 1.0)
        base = single_bond_fraction(bond)
        for delta_r in (1e-2, 1e-3):
            shift = iso_fraction_shift(bond, delta_r)
            moved = single_bond_fraction(
                BondSpec(0.1 + shift.delta_exact, 1.0 + delta_r))
            assert moved == pytest.approx(base, abs=1e-12)

    def test_first_order_gap_shrinks_quadratically(self):
        bond = BondSpec(0.1, 1.0)
        gaps = []
        for delta_r in (4e-3, 2e-3, 1e-3):
            shift = iso_fraction_shift(bond, delta_r)
            gaps.append(abs(shift.delta_exact - shift.first_order) / delta_r ** 2)
        # |exact - first order| / delta^2 stays bounded as delta halves
        assert max(gaps) / min(gaps) < 1.01

    def test_domain(self):
        with pytest.raises(DomainError):
            iso_fraction_shift(BondSpec(0.1, 1.0), -1.0)


class TestTwoBondGrowth:
    def test_zero_bet(self):
        assert two_bond_growth(0.0, BondSpec(0.2, 1.0)) == 0.0

    def test_no_default_risk_rises_to_boundary(self):
        bond = BondSpec(0.0, 1.0)
        values = [two_bond_growth(f, bond) for f in (0.1, 0.3, 0.49, 0.499999)]
        assert values == sorted(values)
        assert values[-1] == pytest.approx(math.log(2.0), rel=1e-4)

    def test_enumeration_oracle(self):
        # expectation over the four outcomes, spelled out longhand
        q, r, f = 0.2, 0.7, 0.3
        p = 1.0 - q
        expected = (p * p * math.log(1.0 + 2.0 * f * r)
                    + 2.0 * p * q * math.log(1.0 + f * (r - 1.0))
                    + q * q * math.log(1.0 - 2.0 * f))
        assert two_bond_growth(f, BondSpec(q, r)) == pytest.approx(expected, rel=1e-15)

    def test_domain(self):
        with pytest.raises(DomainError):
            two_bond_growth(0.5, BondSpec(0.2, 1.0))
        with pytest.raises(DomainError):
            two_bond_growth(-0.01, BondSpec(0.2, 1.0))


class TestTwoBondSeries:
    def test_no_risk_boundary_clamps_to_half(self):
        assert two_bond_fraction_series(BondSpec(0.0, 1.0)) == TWO_BOND_UPPER

    def test_printed_series_value(self):
        got = two_bond_fraction_series(BondSpec(0.01, 1.0))
        assert got == pytest.approx(0.5 - 0.01 - 0.00005 - (0.01 / 3.0) * 1e-4, rel=1e-13)
        assert got == pytest.approx(0.48994966666666667, rel=1e-13)

    def test_large_risk_clamps_to_zero(self):
        assert two_bond_fraction_series(BondSpec(0.45, 0.5)) == 0.0


class TestTwoBondNumeric:
    def test_interior_maximum_beats_series_point(self):
        bond = BondSpec(0.2, 1.0)
        numeric = two_bond_fraction_numeric(bond)
        series = two_bond_fraction_series(bond)
        assert 0.0 < numeric < 0.5
        assert two_bond_growth(numeric, bond) >= two_bond_growth(series, bond)

    def test_no_risk_boundary(self):
        got = two_bond_fraction_numeric(BondSpec(0.0, 1.0))
        assert got == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.parametrize("q", [0.02, 0.01, 0.005, 0.0025])
    def test_against_calculus_closed_form(self, q):
        # at r=1 the one-default outcome is flat, so the optimum solves
        # p^2 (1 - 2f) = q^2 (1 + 2f) exactly
        p2, q2 = (1.0 - q) ** 2, q * q
        exact = (p2 - q2) / (2.0 * (p2 + q2))
        got = two_bond_fraction_numeric(BondSpec(q, 1.0))
        assert got == pytest.approx(exact, abs=2e-9)

    def test_series_gap_is_first_order_in_q(self):
        # the printed series deviates from the enumerated-growth optimum by
        # roughly q at r=1; the gap shrinks proportionally with q
        gaps = []
        for q in (0.02, 0.01, 0.005, 0.0025):
            bond = BondSpec(q, 1.0)
            gap = abs(two_bond_fraction_series(bond)
                      - two_bond_fraction_numeric(bond))
            assert gap == pytest.approx(q, rel=0.05)
            gaps.append(gap)
        assert all(a > b for a, b in zip(gaps, gaps[1:]))


class TestBondSpec:
    def test_bond_domain(self):
        with pytest.raises(DomainError):
            BondSpec(1.0, 1.0)
        with pytest.raises(DomainError):
            BondSpec(-0.1, 1.0)
        with pytest.raises(DomainError):
            BondSpec(0.2, 0.0)
