import pytest

from liqlab.cli import main
from liqlab.cycle import STAGE3_RULES, STAGES, CycleConfig, CycleLedger, run_cycle
from liqlab.errors import DomainError, RatioMismatchError

# worked configuration: start (100, 100), alpha=10, m=9, sigma=1
X0, Y0, ALPHA, M, SIG = 100.0, 100.0, 10.0, 9.0, 1.0
BETA = 100.0 / 9.0          # 10000/90 - 100
N_ADD = 100.0 / 9.0         # 9 * 10000 / 8100
DELTA_EXACT = 11.0 / 9.0    # 12100 / 9900
DELTA_ORIGINAL_X = 1100.0 / 981.0


def worked_after(stage: int, rule="exact") -> CycleLedger:
    return run_cycle(CycleConfig(X0, Y0, ALPHA, M, SIG, stage3_rule=rule)).snapshots[stage]


def open_run(alpha=ALPHA, m=M, sigma_amt=SIG, g_amt=0.0, h_amt=0.0,
             rule="exact") -> list[CycleLedger]:
    """Snapshots of a run that removes explicit amounts instead of closing."""
    config = CycleConfig(X0, Y0, alpha, m, sigma_amt, removal=(g_amt, h_amt),
                         stage3_rule=rule)
    return run_cycle(config).snapshots


class TestStage1:
    def test_worked_numbers(self):
        led = worked_after(1)
        assert led.pool.reserve_x == 90.0
        assert led.pool.reserve_y == pytest.approx(Y0 + BETA, rel=1e-14)
        assert led.outside_x == ALPHA
        assert -led.outside_y == pytest.approx(BETA, rel=1e-13)
        assert led.inside_x == led.inside_y == 0.0

    def test_tiny_alpha_is_near_noop(self):
        led = open_run(alpha=1e-12, m=0.0, sigma_amt=0.0)[1]
        assert led.pool.reserve_y == pytest.approx(Y0, rel=1e-12)
        assert -led.outside_y == pytest.approx(0.0, abs=1e-10)

    def test_preserves_invariant(self):
        led = worked_after(1)
        assert led.pool.invariant_k == pytest.approx(X0 * Y0, rel=1e-15)

    def test_alpha_range(self):
        with pytest.raises(DomainError):
            open_run(alpha=100.0)
        with pytest.raises(DomainError):
            open_run(alpha=0.0)


class TestStage2:
    def test_worked_numbers(self):
        led = worked_after(2)
        assert led.pool.reserve_x == 99.0
        assert led.pool.reserve_y == pytest.approx(1100.0 / 9.0, rel=1e-14)
        assert led.inside_x == M
        assert led.inside_y == pytest.approx(N_ADD, rel=1e-14)
        assert led.outside_x == pytest.approx(ALPHA - M, rel=1e-14)
        assert led.outside_y == pytest.approx(-BETA - N_ADD, rel=1e-13)

    def test_preserves_spot_price(self):
        before, after = worked_after(1), worked_after(2)
        price = lambda l: l.pool.reserve_y / l.pool.reserve_x
        assert price(after) == pytest.approx(price(before), rel=1e-14)

    def test_zero_add_is_noop(self):
        _, before, after, _, _ = open_run(m=0.0)
        assert after.pool == before.pool


class TestStage3:
    def test_exact_invariant_worked_delta(self):
        led = worked_after(3)
        assert led.pool.reserve_x == 100.0
        assert led.pool.reserve_y == pytest.approx(1100.0 / 9.0 - DELTA_EXACT, rel=1e-14)
        assert led.outside_y == pytest.approx(-BETA - N_ADD + DELTA_EXACT, rel=1e-13)

    def test_exact_invariant_preserves_product(self):
        before, after = worked_after(2), worked_after(3)
        assert after.pool.invariant_k == pytest.approx(before.pool.invariant_k,
                                                       rel=1e-15)

    def test_original_x_worked_delta(self):
        led = worked_after(3, "original-x")
        assert led.pool.reserve_y == pytest.approx(1100.0 / 9.0 - DELTA_ORIGINAL_X,
                                                   rel=1e-14)

    def test_original_x_formula_breaks_product(self):
        before = worked_after(2, "original-x")
        after = worked_after(3, "original-x")
        rel_drift = abs(after.pool.invariant_k / before.pool.invariant_k - 1.0)
        assert rel_drift > 1e-6

    def test_modes_differ(self):
        exact = worked_after(3).pool.reserve_y
        alt = worked_after(3, "original-x").pool.reserve_y
        assert abs(exact - alt) > 0.05

    def test_unknown_stage_3_formula_rejected(self):
        for rule in ("magic", "EXACT", ""):
            with pytest.raises(DomainError, match=f"unknown stage-3 rule '{rule}'"):
                CycleConfig(X0, Y0, ALPHA, M, SIG, stage3_rule=rule)

    def test_tiny_sigma_amount(self):
        for rule in STAGE3_RULES:
            _, _, before, after, _ = open_run(sigma_amt=1e-13, rule=rule)
            assert after.outside_y == pytest.approx(before.outside_y, abs=1e-10)


class TestStage4AndClosure:
    def test_closure_parameters_worked_values(self):
        report = run_cycle(CycleConfig(X0, Y0, ALPHA, M, SIG))
        assert report.g_amt == 0.0
        assert report.h_amt == pytest.approx(21.0, abs=1e-12)

    def test_degenerate_closure_identity(self):
        # alpha == sigma with no stage-2 add: the X side closes by itself
        assert run_cycle(CycleConfig(X0, Y0, 5.0, 0.0, 5.0)).g_amt == 0.0

    def test_closure_restores_pool(self):
        led = worked_after(4)
        assert led.pool.reserve_x == pytest.approx(X0, abs=1e-12)
        assert led.pool.reserve_y == pytest.approx(Y0, abs=1e-12)

    def test_infeasible_closure_reports_values(self):
        with pytest.raises(DomainError, match="infeasible closure"):
            run_cycle(CycleConfig(X0, Y0, ALPHA, M, 200.0))

    def test_zero_removal_is_noop(self):
        _, _, _, before, after = open_run()
        assert after.pool == before.pool

    @pytest.mark.parametrize("g_amt, h_amt", [(0.0, 21.0), (1.0, 0.0)])
    def test_ratio_enforced_by_default(self, g_amt, h_amt):
        with pytest.raises(RatioMismatchError):
            open_run(g_amt=g_amt, h_amt=h_amt)

    def test_ratio_matching_removal_passes(self):
        led = worked_after(3)
        x, y = led.pool.reserve_x, led.pool.reserve_y
        after = open_run(g_amt=0.05 * x, h_amt=0.05 * y)[4]
        assert after.pool.reserve_x == pytest.approx(0.95 * x, rel=1e-14)

    def test_drain_rejected(self):
        # the drain check comes before the ratio check
        with pytest.raises(DomainError, match="drain"):
            open_run(g_amt=100.0, h_amt=1.0)

    def test_negative_removal_rejected(self):
        with pytest.raises(DomainError, match="non-negative"):
            open_run(g_amt=-1.0, h_amt=0.0)


class TestConservation:
    @pytest.mark.parametrize("rule", STAGE3_RULES)
    def test_every_snapshot_conserves_tokens(self, rule):
        report = run_cycle(CycleConfig(X0, Y0, ALPHA, M, SIG, stage3_rule=rule))
        for ex, ey in report.conservation_errors():
            assert abs(ex) <= 1e-12 * X0
            assert abs(ey) <= 1e-12 * Y0

    def test_conservation_off_the_worked_point(self):
        report = run_cycle(CycleConfig(37.0, 410.0, 2.0, 4.5, 0.75))
        for ex, ey in report.conservation_errors():
            assert abs(ex) <= 1e-12 * 37.0
            assert abs(ey) <= 1e-12 * 410.0

    @pytest.mark.parametrize("closure", [True, False])
    def test_position_is_stage_2_add_less_stage_4_removal(self, closure):
        # takers move only the wallet; providers move the wallet and the position
        pool = worked_after(3).pool
        removal = None if closure else (0.05 * pool.reserve_x, 0.05 * pool.reserve_y)
        report = run_cycle(CycleConfig(X0, Y0, ALPHA, M, SIG, removal=removal))
        _, after1, after2, after3, final = report.snapshots
        assert (after1.inside_x, after1.inside_y) == (0.0, 0.0)
        assert (after3.inside_x, after3.inside_y) == (after2.inside_x, after2.inside_y)
        assert final.inside_x == after2.inside_x - report.g_amt
        assert final.inside_y == after2.inside_y - report.h_amt
        assert report.h_amt > 0.0


class TestRunCycle:
    def test_closure_run_summary(self):
        report = run_cycle(CycleConfig(X0, Y0, ALPHA, M, SIG))
        final = report.snapshots[-1]
        assert final.pool.reserve_x == pytest.approx(X0, abs=1e-12)
        assert final.pool.reserve_y == pytest.approx(Y0, abs=1e-12)
        # conservation forces the outside wallet to close with the pool;
        # the open risk stays in the in-pool position
        assert abs(final.outside_x) < 1e-12 and abs(final.outside_y) < 1e-12
        assert abs(final.inside_x) > 1e-6 and abs(final.inside_y) > 1e-6
        assert report.work_analogue == pytest.approx(0.0, abs=1e-12)

    def test_generic_run_leaves_outside_open(self):
        led3 = worked_after(3)
        g = 0.05 * led3.pool.reserve_x
        h = 0.05 * led3.pool.reserve_y
        config = CycleConfig(X0, Y0, ALPHA, M, SIG, removal=(g, h))
        report = run_cycle(config)
        final = report.snapshots[-1]
        assert abs(final.outside_x) > 1e-3 or abs(final.outside_y) > 1e-3
        assert report.work_analogue != 0.0

    def test_gross_short_exposure_tracks_borrowing(self):
        report = run_cycle(CycleConfig(X0, Y0, ALPHA, M, SIG))
        # stage 2 leaves the investor short beta + n of token Y
        assert report.gross_short_y == pytest.approx(BETA + N_ADD, rel=1e-13)
        assert report.gross_short_x == 0.0

    def test_empty_cycle_limit(self):
        report = run_cycle(CycleConfig(X0, Y0, 1e-9, 1e-9, 1e-9))
        final = report.snapshots[-1]
        assert abs(final.outside_x) < 1e-10 and abs(final.outside_y) < 1e-10
        assert abs(report.work_analogue) < 1e-9

    def test_five_snapshots_in_order(self):
        report = run_cycle(CycleConfig(X0, Y0, ALPHA, M, SIG))
        # the X reserve of the worked run, stage by stage
        assert len(report.snapshots) == len(STAGES)
        assert [s.pool.reserve_x for s in report.snapshots] == [
            100.0, 90.0, 99.0, 100.0, 100.0]

    @pytest.mark.parametrize("overrides, message", [
        # X*Y overflows in stage 1; formerly "reserves must be positive,
        # got (1e+200, nan)" from stage 2
        (["x0=1e200", "y0=1e200", "m=0", "sigma_amt=0", "closure=false",
          "g_amt=0", "h_amt=0"],
         "stage 1 overflows the Y reserve: X*Y/(X - alpha) = inf"),
        # M*Y/X overflows in stage 2; formerly "stage-3 payout inf would
        # drain the Y reserve inf"
        (["x0=1", "y0=1e300", "alpha=0.5", "m=1e10"],
         "stage 2 overflows the Y reserve: Y + M*Y/X = inf"),
        # X + sigma overflows in stage 3; formerly exit 0 with inf in the CSV
        (["x0=1e308", "y0=1", "alpha=1", "m=0", "sigma_amt=1e308",
          "closure=false", "g_amt=0", "h_amt=0"],
         "stage 3 overflows the X reserve: X + sigma = inf"),
        # X is lost against sigma, so the exact payout is the whole Y reserve
        (["x0=1", "y0=1", "alpha=0.5", "m=0", "sigma_amt=1e17"],
         "stage-3 payout 2.0 would drain the Y reserve 2.0"),
        # the closure takes both reserves whole: x0 is lost against M, and
        # y0 against the Y reserve; without the drain check, "reserves must
        # be positive and finite, got (0.0, 0.0)"
        (["x0=1", "y0=100", "alpha=0.5", "m=1e17", "sigma_amt=0"],
         "removal (1e+17, 4e+19) would drain reserves (1e+17, 4e+19)"),
        # only the X reserve taken whole: x0 is lost against sigma
        (["x0=1", "y0=1", "alpha=0.999999999", "m=1000", "sigma_amt=1e18"],
         "removal (1.000000000000001e+18, 1048575.0) would drain reserves "
         "(1.000000000000001e+18, 1048576.0)"),
        # only the Y reserve taken whole: y0 is lost against it
        (["x0=1", "y0=1", "alpha=0.999999", "m=1e6", "sigma_amt=0"],
         "removal (999999.000001, 9.999999999434886e+17) would drain reserves "
         "(1000000.000001, 9.999999999434886e+17)"),
    ])
    def test_overflowing_reserve_names_the_stage(self, tmp_path, capsys,
                                                 overrides, message):
        argv = ["cycle-run", "--out", str(tmp_path)]
        for item in overrides:
            argv += ["--set", item]
        assert main(argv) == 3
        assert message in capsys.readouterr().err

    def test_overflowing_x_reserve_in_stage_2(self):
        with pytest.raises(DomainError, match="stage 2 overflows the X reserve"):
            run_cycle(CycleConfig(1e308, 1.0, 1.0, 1e308, 0.0))

    def test_stage_2_off_the_pool_ratio_is_rejected(self, tmp_path, capsys):
        # M*Y/X = 1e-100 * 1e-200 / 1e200 underflows to 0: a Y leg of zero
        # beside M of X, formerly added without error
        argv = ["cycle-run", "--out", str(tmp_path)]
        for item in ("x0=1e200", "y0=1e-200", "alpha=1", "m=1e-100", "sigma_amt=0",
                     "closure=false", "g_amt=0", "h_amt=0"):
            argv += ["--set", item]
        assert main(argv) == 3
        assert "does not match pool ratio" in capsys.readouterr().err

    def test_config_validation(self):
        for x0, y0 in ((0.0, Y0), (X0, 0.0), (X0, -1.0), (X0, float("nan"))):
            with pytest.raises(DomainError, match="starting reserves must be positive"):
                CycleConfig(x0, y0, ALPHA, M, SIG)
        with pytest.raises(DomainError):
            CycleConfig(X0, Y0, alpha=0.0, m=1.0, sigma_amt=1.0)
        with pytest.raises(DomainError):
            CycleConfig(X0, Y0, alpha=150.0, m=1.0, sigma_amt=1.0)
        with pytest.raises(DomainError):
            CycleConfig(X0, Y0, ALPHA, m=-1.0, sigma_amt=SIG)
        with pytest.raises(DomainError):
            CycleConfig(X0, Y0, ALPHA, M, sigma_amt=-1.0)
