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
survive.  It exits 1 when a mutant survives or its run cannot start.  pytest does not collect this file; ``tests/test_mutants.py``
checks that every row still applies to the tree.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_WRITER = "src/liqlab/experiments.py"
_PATHS = "src/liqlab/paths.py"
_CSV = "tests/test_experiments.py::TestWriteCsv::"
_INCREMENTS = "tests/test_paths.py::TestGenerateFbm::test_increment_blocks_are_the_flat_diff"
_SPOT = "tests/test_experiments.py::TestCli::test_cpmm_spot_price_out_of_range_named"

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


def _pytest(tests: list[str], cwd: Path, *options: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(cwd / "src"))
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *options, *tests],
        cwd=cwd, env=env, capture_output=True, text=True)


def run(mutant_id: str, file: str, old: str, new: str, tests: list[str]) -> str:
    """``killed``, ``survived`` or ``error`` for one mutant."""
    with tempfile.TemporaryDirectory() as tmp:
        done = _pytest(tests, _copy_with(mutant_id, file, old, new, Path(tmp)), "-x")
    if done.returncode not in (0, 1):
        print(done.stdout[-2000:], done.stderr[-2000:], sep="\n")
    return {0: "survived", 1: "killed"}.get(done.returncode, "error")


def main() -> int:
    baseline = _pytest(sorted({test for row in MUTANTS for test in row[4]}), ROOT)
    if baseline.returncode != 0:
        print(baseline.stdout[-2000:], baseline.stderr[-2000:], sep="\n")
        print("the named tests do not all pass on the unchanged tree")
        return 1
    outcomes = {row[0]: run(*row) for row in MUTANTS}
    for mutant_id, outcome in outcomes.items():
        print(f"{outcome:8}  {mutant_id}")
    left = [mutant_id for mutant_id, outcome in outcomes.items() if outcome != "killed"]
    print(f"{len(MUTANTS) - len(left)} of {len(MUTANTS)} killed; not killed: {left or 'none'}")
    return 1 if left else 0


if __name__ == "__main__":
    sys.exit(main())
