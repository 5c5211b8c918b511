"""Mutants of liqlab's code, each with the tests that must kill it.

A row of ``MUTANTS`` is ``(id, file, old, new, tests)``: one exact
replacement of ``old`` by ``new`` in ``file`` (relative to the repository
root), and the pytest ids of the tests of which at least one must fail
once it is made.

Run as a script, ``python tests/mutants.py`` first runs every named test
on the unchanged tree, and stops with exit 1 if one fails there: a mutant
"killed" by a test that already fails shows nothing.  It then copies the
repository to a temporary directory once per mutant, makes the replacement
there, runs the named tests with ``-x -q`` and lists the mutants that
survive.  A mutant's run that outlasts ten times the unchanged run plus a
minute is stopped and counts as a kill, and so does a run that pytest
interrupts (exit 2) or that ends in its internal error (exit 3), as when
the mutant stops the tests' collection: the unchanged run exits 0 or 1.
It exits 1 when a mutant survives or its run cannot start.

``python tests/mutants.py --sweep src/liqlab/MODULE.py`` generates the
mutants instead: every comparison of the module flipped, one at a time
(``<`` and ``<=``, ``>`` and ``>=``, ``==`` and ``!=``), except those in
``EQUIVALENT``.  With ``--ops`` the sweep makes operator mutants instead:
``+`` and ``-``, and ``*`` and ``/``, swapped (augmented ones too), a
unary ``-`` or a ``not`` dropped, and ``and`` and ``or`` swapped.  Each
runs the test files that import the module or ``liqlab.cli``, with the
acceptance and pin tests, less those that fail on the unchanged tree.  It
prints the score and the survivors, and exits 1 when one is left.

pytest does not collect this file; ``tests/test_mutants.py`` checks that
every row still applies to the tree and every ``EQUIVALENT`` entry still
names a mutant of its module.
"""

from __future__ import annotations

import argparse
import ast
import itertools
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_WRITER = "src/liqlab/experiments.py"
_PATHS = "src/liqlab/paths.py"
_CSV = "tests/test_experiments.py::TestWriteCsv::"
_INCREMENTS = "tests/test_paths.py::TestGenerateFbm::test_increment_blocks_are_the_flat_diff"
_SPOT = "tests/test_experiments.py::TestCli::test_cpmm_spot_price_out_of_range_named"
_SAMPLE_PATH = "tests/test_paths.py::TestSamplePath::"
_FBM = "tests/test_paths.py::TestGenerateFbm::"
_CYCLE = "src/liqlab/cycle.py"
_RUN_CYCLE = "tests/test_cycle.py::TestRunCycle::"
_IMPACT = "src/liqlab/impact.py"
_IMPACT_DOMAIN = ("tests/test_impact.py::TestModelValidation::"
                  "test_inputs_outside_the_domain_are_named")
_CLI = "tests/test_experiments.py::TestCli::"
_CLOSURE_AMOUNTS = (_CLI + "test_list_error_names_the_failing_entry[cycle-run-{}-keys 'g_amt' "
                    "and 'h_amt' apply only with closure=false (got g_amt={}, h_amt={})]")
_KERNELS = "src/liqlab/kernels.py"
_HALVING = "tests/test_kernels.py::test_pairwise_sum_matches_halving_reference"
_LEAVES = "tests/test_kernels.py::test_pairwise_reduce_calls_aligned_leaves_in_order"
_POWERS = _CSV + "test_powers_of_ten_and_their_neighbours"
_EXACT_COV = _FBM + "test_exact_covariance_matches_oracle"
_SHARED_CHECKS = ("tests/test_impact.py::TestModelValidation::"
                  "test_growth_model_and_fou_params_share_their_checks")
_FOU_PARAMS = "tests/test_paths.py::TestFouParams::"
_LEVERAGE = "tests/test_golden.py::test_leverage_form_matches_nested_plain_halving"
_GOLDEN = "src/liqlab/golden.py"
_GOLDEN_TESTS = "tests/test_golden.py::"
_POSITION = ("tests/test_cycle.py::TestConservation::"
             "test_position_is_stage_2_add_less_stage_4_removal")
_DRAINED = _RUN_CYCLE + "test_overflowing_reserve_names_the_stage"
_CPMM = "src/liqlab/cpmm.py"
_SWAPS = "tests/test_cpmm.py::TestSwaps::"
_CATBOND = "src/liqlab/catbond.py"
_EXPONENT = "tests/test_impact.py::TestImpactExponent::test_rejects_samples_it_cannot_fit"
_RUN = "tests/test_experiments.py::TestRunExperiment::"
_EDGES = _CLI + "test_checks_at_their_edge_values"
_EXACT = "tests/test_exact.py::"

MUTANTS = [
    # write_csv's exact %.17g digits (the float table writer)
    ("writer-lo-dropped", _WRITER,
     "    n += np.rint(lo).astype(np.int64)\n", "",
     [_CSV + "test_powers_of_ten_and_their_neighbours",
      _CSV + "test_a_million_cells_match_per_cell_reference"]),
    ("writer-round-half-up", _WRITER,
     "np.rint(lo)", "np.floor(lo + 0.5)",
     [_CSV + "test_exact_ties_round_half_to_even"]),
    ("writer-block-step-one-row-long", _WRITER,
     "for start in range(0, n_rows, step):", "for start in range(0, n_rows, step + 1):",
     [_CSV + "test_arrays_sharing_a_first_column",
      _CSV + "test_one_column_and_zero_row_arrays[shape5]"]),
    ("writer-block-slice-one-row-short", _WRITER,
     "block = rows[start:start + step]", "block = rows[start:start + step - 1]",
     [_CSV + "test_arrays_sharing_a_first_column",
      _CSV + "test_one_column_and_zero_row_arrays[shape5]"]),
    ("writer-cached-column-block-one-cell-short", _WRITER,
     "records[start:start + _BLOCK_CELLS] = _records(x[start:start + _BLOCK_CELLS])",
     "records[start:start + _BLOCK_CELLS - 1] = _records(x[start:start + _BLOCK_CELLS - 1])",
     [_CSV + "test_one_column_and_zero_row_arrays[shape4]",
      _CSV + "test_fallback_cells_on_both_sides_of_a_block_boundary[1]"]),
    ("writer-first-column-length-unchecked", _WRITER,
     "elif len(first) != len(rows):", "elif False:",
     [_CSV + "test_first_column_of_another_length_is_refused[1]",
      _CSV + "test_first_column_of_another_length_is_refused[2]"]),
    # paths._increments, the leaf blocks of the Monte Carlo moments
    ("increments-last-row-floored", _PATHS,
     "first, last = start // width, -(-stop // width)",
     "first, last = start // width, stop // width",
     [_INCREMENTS + "[7-3-0]", _INCREMENTS + "[7-3-3]", _INCREMENTS + "[5-1-1]"]),
    ("increments-offset-dropped", _PATHS,
     "batch[first:last, offset:offset + width + 1]", "batch[first:last, :width + 1]",
     [_INCREMENTS + "[1-1-1]", _INCREMENTS + "[7-3-3]"]),
    # impact_exponent's check of the sizes
    ("impact-exponent-q-check-dropped", "src/liqlab/impact.py",
     "np.all((qs > 0.0) & (qs < np.inf) & (dps > 0.0) & (dps < np.inf))",
     "np.all((dps > 0.0) & (dps < np.inf))",
     ["tests/test_impact.py::TestImpactExponent::test_rejects_samples_it_cannot_fit[zero-q]",
      "tests/test_impact.py::TestImpactExponent::test_rejects_samples_it_cannot_fit[nan-q]",
      "tests/test_impact.py::TestModelValidation::test_impact_point_domain"]),
    # cpmm.spot_price's range check and cpmm-compare's check of the swap
    ("spot-price-check-dropped", "src/liqlab/cpmm.py",
     "if not sys.float_info.min <= price < math.inf:", "if False:",
     [_SPOT + "[inf-price]", _SPOT + "[zero-price]", _SPOT + "[tiny-price]"]),
    ("spot-price-check-lets-subnormal-through", "src/liqlab/cpmm.py",
     "if not sys.float_info.min <= price < math.inf:", "if not 0.0 < price < math.inf:",
     [_SPOT + "[tiny-price]"]),
    ("cpmm-compare-dx-check-dropped", _WRITER,
     "if not dx >= sys.float_info.min:", "if False:",
     [_SPOT + "[subnormal-dx]"]),
    ("cpmm-compare-dx-check-rejects-the-smallest-normal", _WRITER,
     "if not dx >= sys.float_info.min:", "if not dx > sys.float_info.min:",
     [_CLI + "test_cpmm_swap_of_the_smallest_normal_float_runs"]),
    ("pool-trace-step-one-ahead", _WRITER,
     '[len(trace_rows), "swap_y_for_x"', '[len(trace_rows) + 1, "swap_y_for_x"',
     [_RUN + "test_cpmm_compare_outputs"]),
    # the swaps' check of the invariant reserve_x * reserve_y
    ("swap-invariant-check-dropped", "src/liqlab/cpmm.py",
     "if not sys.float_info.min <= k < math.inf:", "if False:",
     [_SPOT + "[zero-invariant]", _SPOT + "[inf-invariant]",
      "tests/test_cpmm.py::TestSwaps::test_invariant_outside_the_normal_range_is_named"
      "[subnormal-swap_y_for_x]"]),
    # SamplePath's checks of its grid and values
    ("sample-path-dt-check-dropped", _PATHS,
     "if not (self.dt > 0.0 and math.isfinite((len(values) - 1) * self.dt)):",
     "if False:",
     [_SAMPLE_PATH + "test_dt_must_be_positive_with_a_finite_last_time[zero]",
      _SAMPLE_PATH + "test_dt_must_be_positive_with_a_finite_last_time[nan]",
      _SAMPLE_PATH + "test_dt_must_be_positive_with_a_finite_last_time[last-time-overflows]"]),
    ("sample-path-finite-check-dropped", _PATHS,
     "if not np.all(np.isfinite(values)):", "if False:",
     [_SAMPLE_PATH + "test_values_must_be_finite"]),
    # run_cycle's overflow check of the X reserve in stage 3
    ("cycle-stage-3-check-dropped", "src/liqlab/cycle.py",
     '    _check_reserve(x + sigma_amt, 3, "X", "X + sigma")\n', "",
     ["tests/test_cycle.py::TestRunCycle::test_overflowing_reserve_names_the_stage"
      "[overrides2-stage 3 overflows the X reserve: X + sigma = inf]"]),
    # the writer's fast domain and its digit count, one lookup in _DECADES
    ("writer-fast-domain-from-1e-5", _WRITER,
     "fast = zero | ((a >= 1e-4) & (a < 1e16))", "fast = zero | ((a >= 1e-5) & (a < 1e16))",
     [_POWERS, _CSV + "test_float_table_matches_per_cell_reference"]),
    ("writer-fast-domain-to-1e17", _WRITER,
     "fast = zero | ((a >= 1e-4) & (a < 1e16))", "fast = zero | ((a >= 1e-4) & (a < 1e17))",
     [_POWERS]),
    ("writer-decade-lookup-left", _WRITER,
     'np.searchsorted(_DECADES, a, side="right")', 'np.searchsorted(_DECADES, a, side="left")',
     [_POWERS]),
    ("writer-decades-below-negative-powers", _WRITER,
     '[float(f"1e{j}") for j in range(-4, 16)]',
     '[np.nextafter(float(f"1e{j}"), 0) if j < 0 else float(f"1e{j}") for j in range(-4, 16)]',
     [_CSV + "test_decades_bound_each_power_of_ten_exactly", _POWERS]),
    # run_experiment's check of the outputs and the runners' config checks
    ("output-check-dropped", _WRITER,
     "if not data:", "if False:",
     [_CLI + "test_missing_or_empty_output_is_an_io_error[missing]",
      _CLI + "test_missing_or_empty_output_is_an_io_error[empty]"]),
    ("log-grid-check-dropped", _WRITER,
     "if not q_min < q_max:", "if False:",
     [_CLI + "test_q_min_must_be_below_q_max[impact-curve]",
      _CLI + "test_q_min_must_be_below_q_max[impact-verify]"]),
    ("cycle-run-closure-amounts-check-dropped", _WRITER,
     'if cfg["closure"] and (cfg["g_amt"] or cfg["h_amt"]):', "if False:",
     [_CLOSURE_AMOUNTS.format("g_amt=5", "5.0", "0.0"),
      _CLOSURE_AMOUNTS.format("h_amt=-1", "0.0", "-1.0")]),
    # kernels.pairwise_reduce: the largest power of two below n, plus the rest
    ("tree-split-at-half", _KERNELS,
     "left = 1 << ((count - 1).bit_length() - 1)", "left = count // 2",
     [_HALVING + "[3]", _LEAVES + "[1-d]"]),
    ("tree-power-of-two-test-dropped", _KERNELS,
     "if count <= leaf and count & (count - 1) == 0:", "if count <= leaf:",
     [_HALVING + "[3]", _LEAVES + "[1-d]"]),
    ("tree-full-leaf-split", _KERNELS,
     "if count <= leaf and", "if count < leaf and",
     [_LEAVES + "[1-d]", _LEAVES + "[3-column]"]),
    ("tree-recursion-as-a-closure", _KERNELS,
     "    total = _subtree(block, leaf, 0, n)\n",
     "    def run(start, count):\n"
     "        if count <= leaf and count & (count - 1) == 0:\n"
     "            values = block(start, start + count)\n"
     "            while len(values) > 1:\n"
     "                values = values[0::2] + values[1::2]\n"
     "            return np.array(values[0])\n"
     "        left = 1 << ((count - 1).bit_length() - 1)\n"
     "        return run(start, left) + run(start + left, count - left)\n"
     "    total = run(0, n)\n",
     ["tests/test_kernels.py::test_pairwise_reduce_lets_go_of_the_summands"]),
    # the halving sum of a leaf
    ("tree-first-level-into-input", _KERNELS,
     "values = values[0::2] + values[1::2]",
     "values = np.add(values[0::2], values[1::2], out=values[0::2])",
     [_HALVING + "[2]", _HALVING + "[3]"]),
    ("tree-leaf-returns-a-view", _KERNELS,
     "return np.array(values[0])", "return values[0]",
     ["tests/test_kernels.py::test_pairwise_sum_of_one_row_is_a_copy"]),
    # the Monte Carlo estimators' checks of degenerate moments
    ("increment-autocorr-pair-check-dropped", _PATHS,
     "    if n < 2:\n", "    if False:\n",
     [_FBM + "test_increment_autocorr_needs_two_pairs[1-2-1]",
      _FBM + "test_increment_autocorr_needs_two_pairs[1-3-2]"]),
    ("increment-autocorr-squares-check-dropped", _PATHS,
     "if not squares > 0.0:", "if False:",
     [_FBM + "test_increment_autocorr_of_underflowing_increments"]),
    ("variance-slope-zero-check-dropped", _PATHS,
     "if not positive.all():", "if False:",
     [_FBM + "test_variance_slope_of_a_zero_variance"]),
    ("variance-slope-overflow-check-dropped", _PATHS,
     "if not finite.all():", "if False:",
     [_FBM + "test_overflowing_moments_are_named[variance-slope]"]),
    ("increment-autocorr-overflow-check-dropped", _PATHS,
     "if not math.isfinite(squares):", "if False:",
     [_FBM + "test_overflowing_moments_are_named[increment-autocorr]"]),
    # paths' checks at their edge values
    ("variance-slope-rejects-two-paths", _PATHS,
     "if n_paths < 2 or n_steps < 2:", "if n_paths <= 2 or n_steps < 2:",
     [_FBM + "test_variance_slope_of_two_paths_and_two_steps"]),
    ("variance-slope-rejects-two-steps", _PATHS,
     "if n_paths < 2 or n_steps < 2:", "if n_paths < 2 or n_steps <= 2:",
     [_FBM + "test_variance_slope_of_two_paths_and_two_steps"]),
    ("fbm-accepts-zero-dt", _PATHS,
     "if not dt > 0.0:", "if not dt >= 0.0:",
     [_FBM + "test_zero_dt_rejected"]),
    ("fbm-overflow-check-at-the-largest-float", _PATHS,
     "np.abs(out[:, 1:]).max() > sys.float_info.max / scale",
     "np.abs(out[:, 1:]).max() >= sys.float_info.max / scale",
     [_FBM + "test_values_that_scale_to_the_largest_float_are_kept"]),
    ("cholesky-rejects-the-size-limit", _PATHS,
     "if needed > MAX_ARRAY_BYTES:", "if needed >= MAX_ARRAY_BYTES:",
     [_FBM + "test_cholesky_factor_at_the_size_limit_is_allowed"]),
    ("embedding-rejects-the-round-off-bound", _PATHS,
     "if lam.min() < -_EIG_TOL * lam.max():", "if lam.min() <= -_EIG_TOL * lam.max():",
     [_FBM + "test_eigenvalue_at_the_round_off_bound_is_clipped"]),
    # fBM generation: one stream per path, the conjugate mirror, every block
    ("one-stream-for-a-whole-block", _PATHS,
     "_path_rng(seed + j).standard_normal(out=row)",
     "_path_rng(seed).standard_normal(out=row)",
     [_FBM + "test_batch_rows_equal_single_paths[auto]",
      _FBM + "test_batch_rows_equal_single_paths[cholesky]"]),
    ("coloring-conj-dropped", _PATHS,
     "np.conjugate(w[:, n - 1:0:-1], out=w[:, n + 1:])", "w[:, n + 1:] = w[:, n - 1:0:-1]",
     [_FBM + "test_precomputed_coloring_matches_per_draw_reference[0.3-63]",
      _FBM + "test_precomputed_coloring_matches_per_draw_reference[0.7-4096]"]),
    # the Davies-Harte coloring against the exact covariance of its paths
    ("coloring-middle-halved", _PATHS,
     "middle = math.sqrt(lam[n] / m)", "middle = math.sqrt(lam[n] / (2 * m))",
     [_EXACT_COV + "[0.05-1-davies-harte]", _EXACT_COV + "[0.95-63-davies-harte]"]),
    ("coloring-head-halved", _PATHS,
     "head = math.sqrt(lam[0] / m)", "head = math.sqrt(lam[0] / (2 * m))",
     [_EXACT_COV + "[0.05-1-davies-harte]", _EXACT_COV + "[0.95-63-davies-harte]"]),
    ("coloring-slice-shifted-by-one", _PATHS,
     "coloring = np.sqrt(lam[1:n] / (2.0 * m))", "coloring = np.sqrt(lam[2:n + 1] / (2.0 * m))",
     [_EXACT_COV + "[0.05-2-davies-harte]", _EXACT_COV + "[0.95-63-davies-harte]"]),
    ("batch-last-block-never-drawn", _PATHS,
     "for start in range(0, n_paths, rows):\n        draw(",
     "for start in range(0, n_paths - rows, rows):\n        draw(",
     [_FBM + "test_batch_rows_equal_single_paths[davies-harte]",
      _FBM + "test_batch_rows_equal_single_paths[cholesky]"]),
    # the paths module's argument checks
    ("hurst-check-dropped", _PATHS,
     "if not 0.0 < hurst < 1.0:", "if False:",
     [_FBM + "test_domain_errors", _FOU_PARAMS + "test_validation"]),
    ("hurst-check-accepts-zero", _PATHS,
     "if not 0.0 < hurst < 1.0:", "if not 0.0 <= hurst < 1.0:",
     [_SHARED_CHECKS + "[1.0-0.0]", _FBM + "test_domain_errors"]),
    ("hurst-check-accepts-one", _PATHS,
     "if not 0.0 < hurst < 1.0:", "if not 0.0 < hurst <= 1.0:",
     [_SHARED_CHECKS + "[1.0-1.0]", _FOU_PARAMS + "test_validation"]),
    ("sigma-check-accepts-zero", _PATHS,
     "if not 0.0 < sigma < math.inf:", "if not 0.0 <= sigma < math.inf:",
     [_SHARED_CHECKS + "[0.0-0.5]", _FOU_PARAMS + "test_validation"]),
    ("sigma-check-accepts-inf", _PATHS,
     "if not 0.0 < sigma < math.inf:", "if not 0.0 < sigma <= math.inf:",
     [_FOU_PARAMS + "test_sigma_square_must_be_finite[inf]",
      "tests/test_impact.py::TestModelValidation::"
      "test_growth_model_rejects_non_finite_scales[1.0-1.0-inf]"]),
    ("iter-fbm-n-paths-check-dropped", _PATHS,
     '    if n_paths < 1:\n        raise DomainError(f"n_paths must be >= 1, got {n_paths}")\n'
     "    label, rows, draw", "    label, rows, draw",
     [_FBM + "test_domain_errors"]),
    ("batch-n-paths-check-dropped", _PATHS,
     '    if n_paths < 1:\n        raise DomainError(f"n_paths must be >= 1, got {n_paths}")\n'
     "    _, rows, draw", "    _, rows, draw",
     [_FBM + "test_domain_errors"]),
    ("simulate-fou-p0-check-dropped", _PATHS,
     "if not math.isfinite(p0):", "if False:",
     ["tests/test_paths.py::TestSimulateFou::test_p0_must_be_finite[nan]",
      "tests/test_paths.py::TestSimulateFou::test_p0_must_be_finite[inf]"]),
    ("autocorr-lag-check-dropped", _PATHS,
     "if lag < 1 or lag >= n_steps:", "if False:",
     [_FBM + "test_lag_outside_the_steps_rejected[0]",
      _FBM + "test_lag_outside_the_steps_rejected[16]"]),
    # the impact module's argument checks
    ("impact-sqrt-q-check-dropped", _IMPACT,
     '(sigma^2 / k) * sqrt(q)."""\n    if not q > 0.0:',
     '(sigma^2 / k) * sqrt(q)."""\n    if False:',
     [_IMPACT_DOMAIN + "[sqrt-q]"]),
    ("growth-per-time-q-check-dropped", _IMPACT,
     'underflows to 0."""\n    if not q > 0.0:', 'underflows to 0."""\n    if False:',
     [_IMPACT_DOMAIN + "[growth-per-time-q]"]),
    ("impact-fou-q-check-dropped", _IMPACT,
     'not a finite float.\n    """\n    if not q > 0.0:',
     'not a finite float.\n    """\n    if False:',
     [_IMPACT_DOMAIN + "[fou-q]"]),
    ("leverage-q-check-dropped", _IMPACT,
     'hurst == 0.5")\n    if not q > 0.0:', 'hurst == 0.5")\n    if False:',
     [_IMPACT_DOMAIN + "[leverage-q]"]),
    ("leverage-price-level-check-dropped", _IMPACT,
     "if not price_level > 0.0:", "if False:",
     [_IMPACT_DOMAIN + "[leverage-price-level]"]),
    ("growth-model-khat-accepts-zero", _IMPACT,
     "if not 0.0 < self.time_per_size_khat < math.inf:",
     "if not 0.0 <= self.time_per_size_khat < math.inf:",
     ["tests/test_impact.py::TestModelValidation::test_growth_model_domain"]),
    ("closed-form-w0-check-dropped", _IMPACT,
     ':class:`DomainError`.\n    """\n    if not w0 > 0.0:',
     ':class:`DomainError`.\n    """\n    if False:',
     [_IMPACT_DOMAIN + "[closed-form-w0]"]),
    ("self-financing-w0-check-dropped", _IMPACT,
     '``"self-financing;"``.\n    """\n    if not w0 > 0.0:',
     '``"self-financing;"``.\n    """\n    if False:',
     [_IMPACT_DOMAIN + "[self-financing-w0]"]),
    # catbond's derivative domain
    ("single-bond-deriv-domain-check-dropped", "src/liqlab/catbond.py",
     'single-bond growth."""\n    if not 0.0 <= f < 1.0:',
     'single-bond growth."""\n    if False:',
     ["tests/test_catbond.py::TestSingleBondGrowth::test_domain"]),
    # the cycle: its config, the stage-2 checks and add, and a removal of zero
    ("cycle-config-reserve-check-dropped", _CYCLE,
     "if not self.x0 > 0.0 or not self.y0 > 0.0:", "if False:",
     [_RUN_CYCLE + "test_config_validation"]),
    ("cycle-config-accepts-zero-y0", _CYCLE,
     "if not self.x0 > 0.0 or not self.y0 > 0.0:", "if not self.x0 > 0.0 or not self.y0 >= 0.0:",
     [_RUN_CYCLE + "test_config_validation"]),
    ("cycle-config-stage-3-rule-check-dropped", _CYCLE,
     "if self.stage3_rule not in STAGE3_RULES:", "if False:",
     ["tests/test_cycle.py::TestStage3::test_unknown_stage_3_formula_rejected"]),
    ("cycle-stage-2-x-check-dropped", _CYCLE,
     '    _check_reserve(x + m, 2, "X", "X + M")\n', "",
     [_RUN_CYCLE + "test_overflowing_x_reserve_in_stage_2"]),
    ("cycle-stage-2-y-check-dropped", _CYCLE,
     '    _check_reserve(y + n, 2, "Y", "Y + M*Y/X")\n', "",
     [_RUN_CYCLE + "test_overflowing_reserve_names_the_stage"
      "[overrides1-stage 2 overflows the Y reserve: Y + M*Y/X = inf]"]),
    ("cycle-stage-2-skips-add-liquidity", _CYCLE,
     "add_liquidity(ledger.pool, m, n)", "PoolState(x + m, y + n)",
     [_RUN_CYCLE + "test_stage_2_off_the_pool_ratio_is_rejected"]),
    # the cycle's one booking step: providers move the position, and the
    # wallet pays into the pool
    ("cycle-stage-4-books-as-a-taker", _CYCLE,
     "-g_amt, -h_amt, provider=True)", "-g_amt, -h_amt)",
     [_POSITION + "[True]", _POSITION + "[False]"]),
    ("cycle-wallet-sign-flipped", _CYCLE,
     "ledger.outside_x - dx, ledger.outside_y - dy",
     "ledger.outside_x + dx, ledger.outside_y + dy",
     ["tests/test_cycle.py::TestConservation::test_every_snapshot_conserves_tokens[exact]",
      "tests/test_cycle.py::TestStage1::test_worked_numbers"]),
    # the cycle's drain checks at equality: a reserve taken whole
    ("cycle-stage-3-payout-may-equal-y", _CYCLE,
     "if delta >= y:", "if delta > y:",
     [_DRAINED + "[overrides3-stage-3 payout 2.0 would drain the Y reserve 2.0]"]),
    ("cycle-closure-drain-check-dropped", _CYCLE,
     "if g_amt >= x or h_amt >= y:", "if False:",
     [_DRAINED + "[overrides4-removal (1e+17, 4e+19) would drain reserves (1e+17, 4e+19)]"]),
    ("cycle-closure-may-take-all-of-x", _CYCLE,
     "if g_amt >= x or", "if g_amt > x or",
     [_DRAINED + "[overrides5-removal (1.000000000000001e+18, 1048575.0) would drain "
      "reserves (1.000000000000001e+18, 1048576.0)]"]),
    ("cycle-closure-may-take-all-of-y", _CYCLE,
     "or h_amt >= y:", "or h_amt > y:",
     [_DRAINED + "[overrides6-removal (999999.000001, 9.999999999434886e+17) would drain "
      "reserves (1000000.000001, 9.999999999434886e+17)]"]),
    ("remove-liquidity-rejects-zero", "src/liqlab/cpmm.py",
     "if not g >= 0.0 or not h >= 0.0:", "if not g > 0.0 or not h > 0.0:",
     ["tests/test_cycle.py::TestStage4AndClosure::test_zero_removal_is_noop",
      "tests/test_cpmm.py::TestLiquidity::test_zero_amounts_leave_the_pool[0.0]"]),
    # the leverage form's quotient shortcut: its band and the reachable range
    ("leverage-band-zero", _IMPACT,
     "4e-15 * max(f_target, root)", "0.0 * max(f_target, root)", [_LEVERAGE]),
    ("leverage-root-range-dropped", _IMPACT,
     "if 1e-199 < root < 1e199 and abs(", "if abs(", [_LEVERAGE]),
    # golden's edges: exact stops, and a derivative of exactly 0 at a probe
    ("golden-section-stop-test-strict", _GOLDEN,
     "if b - a <= tol:", "if b - a < tol:", [_GOLDEN_TESTS + "test_quadratic_argmax"]),
    ("golden-section-final-check-at-tol", _GOLDEN,
     "if b - a > tol:", "if b - a >= tol:", [_GOLDEN_TESTS + "test_quadratic_argmax"]),
    ("bracket-first-probe-zero-goes-up", _GOLDEN,
     "if _probe(deriv, 1.0) > 0.0:", "if _probe(deriv, 1.0) >= 0.0:",
     [_GOLDEN_TESTS + "test_bracket_decreasing_expands_down"]),
    ("bracket-doubling-passes-a-zero", _GOLDEN,
     "while _probe(deriv, hi) > 0.0:", "while _probe(deriv, hi) >= 0.0:",
     [_GOLDEN_TESTS + "test_bracket_decreasing_expands_up"]),
    ("bracket-halving-stops-at-a-zero", _GOLDEN,
     "while _probe(deriv, lo) <= 0.0:", "while _probe(deriv, lo) < 0.0:",
     [_GOLDEN_TESTS + "test_bracket_decreasing_expands_down"]),
    ("bisect-stop-test-strict", _GOLDEN,
     "if hi - lo <= rel_tol * hi:", "if hi - lo < rel_tol * hi:",
     [_GOLDEN_TESTS + "test_bisect_matches_plain_halving[0.00048828125-linear]"]),
    # cpmm's edges: each range check at its bound
    ("pool-accepts-zero-y", _CPMM,
     "0.0 < self.reserve_y < math.inf", "0.0 <= self.reserve_y < math.inf",
     ["tests/test_cpmm.py::TestPoolState::test_requires_positive_reserves"]),
    ("spot-price-rejects-the-smallest-normal", _CPMM,
     "if not sys.float_info.min <= price < math.inf:",
     "if not sys.float_info.min < price < math.inf:",
     ["tests/test_cpmm.py::TestSpotPrice::test_ratio"]),
    ("spot-price-accepts-inf", _CPMM,
     "if not sys.float_info.min <= price < math.inf:",
     "if not sys.float_info.min <= price <= math.inf:",
     ["tests/test_cpmm.py::TestSpotPrice::test_infinite_price_is_named"]),
    ("swap-invariant-rejects-the-smallest-normal", _CPMM,
     "if not sys.float_info.min <= k < math.inf:", "if not sys.float_info.min < k < math.inf:",
     [_SWAPS + "test_smallest_normal_invariant_is_accepted[swap_x_for_y]",
      _SWAPS + "test_smallest_normal_invariant_is_accepted[swap_y_for_x]"]),
    ("swap-may-match-the-x-reserve", _CPMM,
     "if dx >= pool.reserve_x:", "if dx > pool.reserve_x:",
     [_SWAPS + "test_deposit_cannot_reach_reserve"]),
    ("swap-accepts-zero-dy", _CPMM,
     "if not dy > 0.0:", "if not dy >= 0.0:", [_SWAPS + "test_non_positive_amounts"]),
    ("removal-may-take-all-of-x", _CPMM,
     "if g >= pool.reserve_x or", "if g > pool.reserve_x or",
     ["tests/test_cpmm.py::TestLiquidity::test_remove_underflow"]),
    ("removal-may-take-all-of-y", _CPMM,
     "or h >= pool.reserve_y:", "or h > pool.reserve_y:",
     ["tests/test_cpmm.py::TestLiquidity::test_remove_underflow"]),
    # catbond's growth at q = 0: the default terms are left out, not added as +0.0
    ("single-bond-growth-adds-a-riskless-default-term", _CATBOND,
     "out = p * math.log1p(f * bond.return_r)\n    if q > 0.0:",
     "out = p * math.log1p(f * bond.return_r)\n    if q >= 0.0:",
     ["tests/test_catbond.py::TestSingleBondGrowth::test_zero_bet"]),
    ("two-bond-growth-adds-riskless-default-terms", _CATBOND,
     "out = p * p * math.log1p(2.0 * f * r)\n    if q > 0.0:",
     "out = p * p * math.log1p(2.0 * f * r)\n    if q >= 0.0:",
     ["tests/test_catbond.py::TestTwoBondGrowth::test_zero_bet"]),
    # impact's argument checks at their edges
    ("growth-per-time-accepts-zero-q", _IMPACT,
     'underflows to 0."""\n    if not q > 0.0:', 'underflows to 0."""\n    if not q >= 0.0:',
     [_IMPACT_DOMAIN + "[growth-per-time-zero-q]"]),
    ("impact-exponent-accepts-inf-q", _IMPACT,
     "(qs < np.inf)", "(qs <= np.inf)", [_EXPONENT + "[inf-q]"]),
    ("impact-exponent-accepts-zero-delta", _IMPACT,
     "(dps > 0.0)", "(dps >= 0.0)", [_EXPONENT + "[zero-delta]"]),
    ("self-financing-accepts-zero-w0", _IMPACT,
     '``"self-financing;"``.\n    """\n    if not w0 > 0.0:',
     '``"self-financing;"``.\n    """\n    if not w0 >= 0.0:',
     [_IMPACT_DOMAIN + "[self-financing-zero-w0]"]),
    ("self-financing-accepts-a-zero-price", _IMPACT,
     "np.nonzero(path.values <= 0.0)", "np.nonzero(path.values < 0.0)",
     [_IMPACT_DOMAIN + "[self-financing-zero-price]"]),
    # the experiments' checks of their config values at the edges
    ("normal-check-rejects-the-smallest-normal", _WRITER,
     "return None if value >= sys.float_info.min else (",
     "return None if value > sys.float_info.min else (",
     [_EDGES + "[normal-at-smallest]"]),
    ("open-unit-check-accepts-zero", _WRITER,
     "return None if 0.0 < value < 1.0 else", "return None if 0.0 <= value < 1.0 else",
     [_EDGES + "[open-unit-at-zero]"]),
    ("sized-check-rejects-its-minimum", _WRITER,
     'return f"must be >= {minimum}" if count < minimum else',
     'return f"must be >= {minimum}" if count <= minimum else',
     [_EDGES + "[paths-at-minimum]", _EDGES + "[points-at-minimum]"]),
    ("size-limit-rejects-its-edge", _WRITER,
     "if needed > MAX_ARRAY_BYTES:", "if needed >= MAX_ARRAY_BYTES:",
     [_CLI + "test_size_limit_boundary[fbm-gen-n_paths-2048]"]),
    ("fbm-gen-path-bound-dropped", _WRITER,
     '"n_paths": Field(1, _sized(1, 2048)),', '"n_paths": Field(1, _sized(1, 0)),',
     [_CLI + "test_too_many_paths_rejected_before_any_is_drawn",
      _CLI + "test_size_limit_boundary[fbm-gen-n_paths-2048]"]),
    # fbm-gen formats its shared time column once a run
    ("fbm-gen-formats-the-time-column-per-file", _WRITER,
     "path.values[:, None], times))",
     "np.column_stack((path.times, path.values))))",
     [_RUN + "test_time_column_is_formatted_once_per_run"]),
    # an impact below the normal range, and a stage-1 invariant there
    ("impact-fou-underflow-check-dropped", _IMPACT,
     "if delta_p < sys.float_info.min:", "if False:",
     ["tests/test_impact.py::TestOptimalImpactFou::test_impact_below_the_normal_range_is_named",
      _CLI + "test_impact_arithmetic_errors_name_their_cause[underflow-curve]"]),
    ("cycle-stage-1-invariant-check-dropped", _CYCLE,
     "if not x * y >= sys.float_info.min:", "if False:",
     [_DRAINED + "[overrides7-stage 1 underflows the invariant: X*Y = 1e-320 at reserves "
      "(1e-160, 1e-160)]",
      _DRAINED + "[overrides8-stage 1 underflows the invariant: X*Y = 0.0 at reserves "
      "(1e-300, 1e-300)]"]),
    # the work analogue values the X left outside at the starting price
    ("cycle-work-divides-by-p0", _CYCLE,
     "work = ledger.outside_x * p0 + ledger.outside_y",
     "work = ledger.outside_x / p0 + ledger.outside_y",
     [_RUN_CYCLE + "test_x_unit_scaling[exact-8.0]",
      _RUN_CYCLE + "test_x_unit_scaling[original-x-8.0]"]),
    # only fbm-gen takes a seed, and only its manifest names a generator
    ("catbond-optimize-takes-a-seed", _WRITER,
     '_CATBOND_OPT_SCHEMA = {\n',
     '_CATBOND_OPT_SCHEMA = {\n    "seed": Field(0, _non_negative),\n',
     ["tests/test_experiments.py::test_deterministic_experiments_refuse_a_seed"
      "[catbond-optimize-option]",
      "tests/test_experiments.py::test_settings_table_names_every_key"]),
    ("manifest-names-a-generator-for-every-run", _WRITER,
     "    if fbm_method:  # only a run that drew paths names its seed and generator\n"
     "        lines += [f\"seed={config['seed']}\",",
     "    if True:\n        lines += [f\"seed={config.get('seed', 0)}\",",
     ["tests/test_experiments.py::test_deterministic_manifest_is_experiment_version_"
      "config_and_outputs[impact-curve]",
      _RUN + "test_manifest_lists_outputs_with_checksums"]),
    # forms equal in real arithmetic that only the exact replay tells apart:
    # a swap's output is the float difference of the reserves, and a removal
    # one rounded difference
    ("swap-y-for-x-output-from-the-quotient", _CPMM,
     "dx = pool.reserve_x - new_x", "dx = pool.reserve_x * dy / new_y",
     [_EXACT + "TestSwaps::test_swap_y_for_x"]),
    ("removal-scales-the-x-reserve", _CPMM,
     "return PoolState(pool.reserve_x - g, pool.reserve_y - h)",
     "return PoolState(pool.reserve_x * (1.0 - g / pool.reserve_x), pool.reserve_y - h)",
     [_EXACT + "TestLiquidity::test_remove_liquidity"]),
]

# Comparison flips that change no result, by module and id (see
# ``comparison_flips``), each with the reason.
EQUIVALENT = [
    (_WRITER, "_records: a >= 1e-4 -> a > 1e-4",
     "it sends only +-1e-4 to fmt instead of the fast path, and both write "
     "0.0001 (test_powers_of_ten_and_their_neighbours checks the fast path's)"),
    (_WRITER, "_records: a < 1e16 -> a <= 1e16",
     "it sends only +-1e16 to the fast path instead of fmt, and both write "
     "10000000000000000: 17 digits with the point in the separator's slot"),
    (_GOLDEN, "bracket_decreasing: hi > 1e200 -> hi >= 1e200",
     "hi is a power of two, and none equals 1e200"),
    (_GOLDEN, "bracket_decreasing: lo < 1e-200 -> lo <= 1e-200",
     "lo is a power of two, and none equals 1e-200"),
    (_PATHS, "_fbm_generator.draw: scale > 1.0 -> scale >= 1.0",
     "at scale 1.0 the check compares with the largest float, which no finite "
     "path exceeds, and a path is a sum of colored normals far below it"),
    (_IMPACT, "optimal_impact_leverage_form.shortfall: 1e-199 < root < 1e199 -> "
     "1e-199 <= root < 1e199",
     "the inner bracket reaches a root of 1e-199, so both paths give the same sign"),
    (_IMPACT, "optimal_impact_leverage_form.shortfall: 1e-199 < root < 1e199 -> "
     "1e-199 < root <= 1e199",
     "the inner bracket reaches a root of 1e199, so both paths give the same sign"),
    (_IMPACT, "optimal_impact_leverage_form.shortfall: abs(f_target - root) > "
     "4e-15 * max(f_target, root) -> abs(f_target - root) >= 4e-15 * max(f_target, root)",
     "the inner root is within about 1.25e-15 of the quotient, so a gap of exactly "
     "4e-15 gives both paths the same sign"),
]


def _copy_with(mutant_id: str, file: str, old: str, new: str, into: Path) -> Path:
    """Copy the repository into ``into`` and make the mutant's replacement."""
    copy = into / "repo"
    shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
        ".git", ".hypothesis", ".pytest_cache", "__pycache__", ".liqbench_work"))
    target = copy / file
    text = target.read_text()
    if text.count(old) != 1:
        raise ValueError(f"{mutant_id}: the text to replace occurs "
                         f"{text.count(old)} times in {file}")
    target.write_text(text.replace(old, new))
    return copy


def _pytest(tests: list[str], cwd: Path, *options: str,
            timeout: float | None = None) -> subprocess.CompletedProcess | None:
    """pytest's run of ``tests`` in ``cwd``; ``None`` once it outlasts ``timeout``."""
    env = dict(os.environ, PYTHONPATH=str(cwd / "src"))
    args = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *options, *tests]
    with subprocess.Popen(args, cwd=cwd, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return None
    return subprocess.CompletedProcess(args, proc.returncode, out, err)


def run(mutant_id: str, file: str, old: str, new: str, tests: list[str],
        *options: str, timeout: float | None = None) -> str:
    """``killed``, ``timed out``, ``survived`` or ``error`` for one mutant.

    pytest exits 1 when a test fails, 2 when a test module fails to import
    and 3 when one calls ``sys.exit`` at import; the unchanged run exits 0
    or 1, so each of them comes from the mutant."""
    with tempfile.TemporaryDirectory() as tmp:
        done = _pytest(tests, _copy_with(mutant_id, file, old, new, Path(tmp)), "-x",
                       *options, timeout=timeout)
    if done is None:
        return "timed out"
    if done.returncode not in (0, 1, 2, 3):
        print(done.stdout[-2000:], done.stderr[-2000:], sep="\n")
    outcomes = {0: "survived", 1: "killed", 2: "killed", 3: "killed"}
    return outcomes.get(done.returncode, "error")


def _report(outcomes: dict[str, str]) -> list[str]:
    """Print each outcome; return the ids of the mutants not killed."""
    for mutant_id, outcome in outcomes.items():
        print(f"{outcome:9}  {mutant_id}")
    return [mutant_id for mutant_id, outcome in outcomes.items()
            if outcome not in ("killed", "timed out")]


def _time_limit(started: float) -> float:
    """A mutant's time limit: ten times the unchanged run since ``started``, plus a minute."""
    return 60.0 + 10.0 * (time.monotonic() - started)


def main() -> int:
    started = time.monotonic()
    baseline = _pytest(sorted({test for row in MUTANTS for test in row[4]}), ROOT)
    timeout = _time_limit(started)
    if baseline.returncode != 0:
        print(baseline.stdout[-2000:], baseline.stderr[-2000:], sep="\n")
        print("the named tests do not all pass on the unchanged tree")
        return 1
    left = _report({row[0]: run(*row, timeout=timeout) for row in MUTANTS})
    print(f"{len(MUTANTS) - len(left)} of {len(MUTANTS)} killed; not killed: {left or 'none'}")
    return 1 if left else 0


_FLIPS = {ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Gt: (">", ">="),
          ast.GtE: (">=", ">"), ast.Eq: ("==", "!="), ast.NotEq: ("!=", "==")}
_SWAPS = {ast.Add: ("+", "-"), ast.Sub: ("-", "+"), ast.Mult: ("*", "/"),
          ast.Div: ("/", "*")}
_BOOLS = {ast.And: ("and", "or"), ast.Or: ("or", "and")}


def _mutants(file: str, edits) -> dict[str, str]:
    """Each mutant that ``edits`` makes of ``file``: id to file text.

    ``edits(node, text, span)`` yields, for one node, each mutant as a list
    of ``(start, old, new)`` replacements in ``text``; ``span(node)`` is the
    node's ``(start, stop)`` in ``text``.  An id reads ``scope: node ->
    mutated node``, where the scope is the dotted path of the enclosing
    functions and classes, or ``<module>``; a repeat of an id in one scope
    gets `` #2``, `` #3``, ...
    """
    text = (ROOT / file).read_text()
    lines = text.splitlines(keepends=True)
    starts = list(itertools.accumulate(map(len, lines), initial=0))

    def offset(lineno: int, col: int) -> int:
        # ast columns count UTF-8 bytes
        return starts[lineno - 1] + len(lines[lineno - 1].encode()[:col].decode())

    def span(node: ast.AST) -> tuple[int, int]:
        return (offset(node.lineno, node.col_offset),
                offset(node.end_lineno, node.end_col_offset))

    found: dict[str, str] = {}

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, child.name if scope == "<module>" else f"{scope}.{child.name}")
                continue
            for replacements in edits(child, text, span):
                first, last = span(child)
                mutated, end = text, last
                for at, old, new in sorted(replacements, reverse=True):
                    mutated = mutated[:at] + new + mutated[at + len(old):]
                    end += len(new) - len(old)
                mutant_id = (f"{scope}: {' '.join(text[first:last].split())} -> "
                             f"{' '.join(mutated[first:end].split())}")
                unique, repeat = mutant_id, 1
                while unique in found:
                    repeat += 1
                    unique = f"{mutant_id} #{repeat}"
                found[unique] = mutated
            visit(child, scope)

    visit(ast.parse(text), "<module>")
    return found


def _comparison_edits(node, text, span):
    if isinstance(node, ast.Compare):
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if type(op) in _FLIPS:
                old, new = _FLIPS[type(op)]
                yield [(text.index(old, span(left)[1], span(right)[0]), old, new)]


def _operator_edits(node, text, span):
    if isinstance(node, ast.BinOp) and type(node.op) in _SWAPS:
        old, new = _SWAPS[type(node.op)]
        yield [(text.index(old, span(node.left)[1], span(node.right)[0]), old, new)]
    elif isinstance(node, ast.AugAssign) and type(node.op) in _SWAPS:
        old, new = (f"{op}=" for op in _SWAPS[type(node.op)])
        yield [(text.index(old, span(node.target)[1], span(node.value)[0]), old, new)]
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.Not)):
        # the operator is dropped, with the space after a not
        start = span(node)[0]
        yield [(start, text[start:span(node.operand)[0]].rstrip("("), "")]
    elif isinstance(node, ast.BoolOp):
        old, new = _BOOLS[type(node.op)]
        word = re.compile(rf"\b{old}\b")
        yield [(word.search(text, span(left)[1], span(right)[0]).start(), old, new)
               for left, right in zip(node.values, node.values[1:])]


def comparison_flips(file: str) -> dict[str, str]:
    """Each comparison of ``file`` with one operator flipped: id to file text.

    ``<`` and ``<=``, ``>`` and ``>=``, and ``==`` and ``!=`` are flipped.
    """
    return _mutants(file, _comparison_edits)


def operator_swaps(file: str) -> dict[str, str]:
    """Each operator of ``file`` swapped or dropped, one at a time: id to file text.

    ``+`` and ``-``, and ``*`` and ``/``, are swapped, in augmented
    assignments too; a unary ``-`` and a ``not`` are dropped; and ``and``
    and ``or`` are swapped, at every place of one expression.
    """
    return _mutants(file, _operator_edits)


def sweep_tests(file: str) -> list[str]:
    """The test files a sweep of ``file`` runs: the acceptance and pin tests,
    and every test file that imports the module or ``liqlab.cli``, which
    runs every experiment."""
    names = rf"(?:{Path(file).stem}|cli)"
    imports = re.compile(rf"\bliqlab\.{names}\b|^from liqlab import (?:\([^)]*|.*)\b{names}\b",
                         re.MULTILINE)
    return sorted({"tests/test_acceptance.py", "tests/test_pins.py",
                   *(f"tests/{test.name}" for test in (ROOT / "tests").glob("test_*.py")
                     if imports.search(test.read_text()))})


def sweep(file: str, ops: bool = False) -> int:
    """Run every comparison flip of ``file``, or with ``ops`` every operator
    swap, outside ``EQUIVALENT``; 1 if one survives."""
    tests = sweep_tests(file)
    started = time.monotonic()
    baseline = _pytest(tests, ROOT, "-rfE")
    timeout = _time_limit(started)
    if baseline.returncode not in (0, 1):
        print(baseline.stdout[-2000:], baseline.stderr[-2000:], sep="\n")
        return 1
    # a test that fails on the unchanged tree cannot show a kill
    failing = re.findall(r"^(?:FAILED|ERROR) ([^\s\[]+(?:\[.*?\])?)(?: - |$)",
                         baseline.stdout, re.MULTILINE)
    for test in failing:
        print(f"deselected, fails on the unchanged tree: {test}")
    flips = (operator_swaps if ops else comparison_flips)(file)
    equivalent = {mutant_id for module, mutant_id, _ in EQUIVALENT
                  if module == file and mutant_id in flips}
    text = (ROOT / file).read_text()
    deselect = [f"--deselect={test}" for test in failing]
    left = _report({mutant_id: run(mutant_id, file, text, mutated, tests, *deselect,
                                   timeout=timeout)
                    for mutant_id, mutated in flips.items() if mutant_id not in equivalent})
    print(f"{file}: {len(flips) - len(equivalent) - len(left)} killed, "
          f"{len(equivalent)} equivalent, of {len(flips)}; survivors: {left or 'none'}")
    return 1 if left else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--sweep", metavar="MODULE",
                        help="flip each comparison of this source file instead")
    parser.add_argument("--ops", action="store_true",
                        help="with --sweep, swap each arithmetic and boolean operator "
                             "instead of flipping comparisons")
    options = parser.parse_args()
    if options.ops and not options.sweep:
        parser.error("--ops needs --sweep")
    sys.exit(sweep(options.sweep, options.ops) if options.sweep else main())
