"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Criterion 8b is expected to fail: the printed two-bond series and
the enumerated-growth optimizer disagree at first order in q (gap ~1e-2 at
q=0.01, r=1 against a stated tolerance of 5e-4); see the failure message.
"""

import time
from contextlib import contextmanager

import numpy as np

from liqlab import paths
from liqlab.catbond import (BondSpec, single_bond_fraction,
                            single_bond_fraction_numeric, iso_fraction_shift,
                            two_bond_fraction_numeric, two_bond_fraction_series)
from liqlab.cpmm import (PoolState, exact_relative_impact,
                         linearized_relative_impact)
from liqlab.cycle import CycleConfig, run_cycle
from liqlab.experiments import run_experiment
from liqlab.impact import (GrowthModel, impact_exponent,
                           optimal_impact_fou, optimal_impact_leverage_form,
                           optimal_impact_sqrt, optimal_size_numeric,
                           simulate_self_financing, wealth_closed_form)
from liqlab.paths import FouParams, refine_linear, simulate_fou


@contextmanager
def criterion(number: str, label: str):
    try:
        yield
    except Exception:
        print(f"[ACCEPTANCE] criterion {number} ({label}): FAIL")
        raise
    print(f"[ACCEPTANCE] criterion {number} ({label}): PASS")


def model(hurst: float) -> GrowthModel:
    return GrowthModel(capital_scale_k=1.0, time_per_size_khat=1.0,
                       sigma=1.0, hurst=hurst)


def test_criterion_01_impact_law_inversion():
    with criterion("1", "impact-law inversion"):
        start = time.perf_counter()
        for hurst in (0.3, 0.5, 0.7):
            m = model(hurst)
            for q in (0.1, 1.0, 10.0, 100.0):
                dp = optimal_impact_fou(q, m)
                q_rec = optimal_size_numeric(dp, m)
                assert abs(q_rec - q) / q <= 1e-6, (hurst, q, q_rec)
        assert time.perf_counter() - start < 1.0


def test_criterion_02_exponent_reproduction():
    with criterion("2", "impact exponent reproduction"):
        start = time.perf_counter()
        grid = np.logspace(-2, 4, 25)
        for hurst in (0.3, 0.5, 0.7, 0.75):
            m = model(hurst)
            slope = impact_exponent(grid, [optimal_impact_fou(q, m) for q in grid])
            assert abs(slope - (2.0 * hurst - 0.5)) <= 1e-6, (hurst, slope)
        assert time.perf_counter() - start < 1.0


def test_criterion_03_leverage_form_equivalence():
    with criterion("3", "leverage-form equivalence"):
        m = model(0.5)
        for price in (0.1, 1.0, 10.0):
            for q in (0.25, 1.0, 4.0):
                dp = optimal_impact_leverage_form(q, price, m)
                ref = optimal_impact_sqrt(q, m)
                assert abs(dp - ref) / ref <= 1e-9, (price, q, dp, ref)


def test_criterion_04_fbm_variance_scaling():
    with criterion("4", "fBM variance scaling"):
        start = time.perf_counter()
        for hurst in (0.3, 0.7):
            slope = paths.variance_slope(2000, 1024, 1.0 / 1024.0, hurst, 4321)
            assert abs(slope - 2.0 * hurst) <= 0.05, (hurst, slope)
        assert time.perf_counter() - start < 30.0


def test_criterion_05_self_financing_convergence():
    with criterion("5", "self-financing convergence"):
        params = FouParams(kappa=-0.05, level=0.0, sigma=0.5, hurst=0.5)
        driver = simulate_fou(params, 10.0, 100, 1e-2, seed=2024)
        target = wealth_closed_form(driver.values[-1], driver.values[0], params, 1.0)
        errs = []
        for factor in (1, 2, 4, 8):  # dt = 1e-2, 5e-3, 2.5e-3, 1.25e-3
            fine = refine_linear(driver, factor)
            wealth = simulate_self_financing(fine, params, 1.0)
            errs.append(abs(wealth.values[-1] - target) / target)
        assert all(a > b for a, b in zip(errs, errs[1:])), errs
        assert errs[-1] < 0.01, errs


def test_criterion_06_cpmm_linearization():
    with criterion("6", "CPMM linearization"):
        pool = PoolState(100.0, 100.0)
        for u in (0.01, 0.02, 0.05, 0.1):
            dx = u * pool.reserve_x
            gap = abs(exact_relative_impact(pool, dx)
                      - linearized_relative_impact(pool, dx))
            assert gap <= 3.5 * u * u, (u, gap)
        exact = exact_relative_impact(pool, 10.0)
        assert abs(exact - (-21.0 / 121.0)) <= 1e-9, exact


def test_criterion_07_cycle_conservation_and_closure():
    with criterion("7", "cycle conservation and closure"):
        config = CycleConfig(100.0, 100.0, 10.0, 9.0, 1.0)
        report = run_cycle(config)
        for ex, ey in report.conservation_errors():
            assert abs(ex) <= 1e-12 * 100.0 and abs(ey) <= 1e-12 * 100.0, (ex, ey)
        final = report.snapshots[-1]
        assert abs(final.pool.reserve_x - 100.0) <= 1e-12
        assert abs(final.pool.reserve_y - 100.0) <= 1e-12
        # the investor position has not collapsed: with the pool closed,
        # conservation forces the outside wallet to zero, so the open
        # position sits inside the pool ...
        assert abs(final.inside_x) > 1e-6 or abs(final.inside_y) > 1e-6
        # ... and a generic (non-closing) fourth stage leaves the outside
        # wallet open as well
        led3 = report.snapshots[3]
        generic = CycleConfig(100.0, 100.0, 10.0, 9.0, 1.0,
                              removal=(0.05 * led3.pool.reserve_x,
                                       0.05 * led3.pool.reserve_y))
        open_final = run_cycle(generic).snapshots[-1]
        assert abs(open_final.outside_x) > 1e-6 or abs(open_final.outside_y) > 1e-6


def test_criterion_08a_catbond_single_bond_agreement():
    with criterion("8a", "cat-bond analytic vs golden-section"):
        for q in (0.01, 0.1, 0.3):
            for r in (0.1, 0.5, 1.0, 2.0):
                bond = BondSpec(q, r)
                gap = abs(single_bond_fraction(bond)
                          - single_bond_fraction_numeric(bond))
                assert gap <= 1e-8, (q, r, gap)
        assert single_bond_fraction(BondSpec(0.2, 1.0)) == 0.6


def test_criterion_08b_catbond_two_bond_series_tolerance():
    with criterion("8b", "two-bond series vs brute force at 5e-4"):
        bond = BondSpec(0.01, 1.0)
        series = two_bond_fraction_series(bond)
        brute = two_bond_fraction_numeric(bond)
        gap = abs(series - brute)
        assert gap <= 5e-4, (
            f"measured gap {gap:.6e} at (q=0.01, r=1): the printed series "
            f"(leading term 1/2 - q/r = {series:.6f}) and the optimizer of the "
            f"enumerated four-outcome growth ({brute:.6f} = 1/2 - O(q^2)) "
            f"disagree at first order in q, so the stated 5e-4 tolerance is "
            f"structurally unreachable")


def test_criterion_08c_catbond_series_error_decreasing():
    with criterion("8c", "two-bond series error decreasing in q"):
        gaps = []
        for q in (0.02, 0.01, 0.005, 0.0025):
            bond = BondSpec(q, 1.0)
            gaps.append(abs(two_bond_fraction_series(bond)
                            - two_bond_fraction_numeric(bond)))
        assert all(a > b for a, b in zip(gaps, gaps[1:])), gaps


def test_criterion_09_iso_fraction_sensitivity():
    with criterion("9", "iso-fraction sensitivity"):
        bond = BondSpec(0.1, 1.0)
        base = single_bond_fraction(bond)
        for delta_r in (1e-2, 1e-3):
            shift = iso_fraction_shift(bond, delta_r)
            moved = single_bond_fraction(
                BondSpec(0.1 + shift.delta_exact, 1.0 + delta_r))
            assert abs(moved - base) <= 1e-12, (delta_r, moved, base)
            assert abs(shift.first_order - shift.delta_exact) <= 2.0 * delta_r ** 2 * 0.1


def test_criterion_10_experiment_determinism(tmp_path):
    with criterion("10", "byte-identical experiment reruns"):
        for name, cfg in (("impact-verify", {}),
                          ("fbm-gen", {"seed": 7, "n_steps": 256})):
            dirs = (tmp_path / f"{name}-a", tmp_path / f"{name}-b")
            outputs = [run_experiment(name, dict(cfg), d) for d in dirs]
            for (name_a, dig_a, _), (_, dig_b, _) in zip(*outputs):
                assert dig_a == dig_b
                assert ((dirs[0] / name_a).read_bytes()
                        == (dirs[1] / name_a).read_bytes())
