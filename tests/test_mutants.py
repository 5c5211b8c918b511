"""Every row of ``tests/mutants.py`` still applies to the tree: its text to
replace occurs exactly once in its file, and every test it names is
collected.  Every ``EQUIVALENT`` entry still names a comparison flip of its
module.  A refactor that strands a mutant fails here and must update the
row or the entry."""

import ast
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "liqlab_mutants", Path(__file__).with_name("mutants.py"))
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def test_each_mutant_replaces_one_occurrence():
    ids = [row[0] for row in mutants.MUTANTS]
    assert len(ids) == len(set(ids))
    for mutant_id, file, old, new, tests in mutants.MUTANTS:
        assert old != new and tests, mutant_id
        assert (mutants.ROOT / file).read_text().count(old) == 1, mutant_id


def test_each_named_test_is_collected():
    named = {test for row in mutants.MUTANTS for test in row[4]}
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider",
         *sorted(named)], cwd=mutants.ROOT, capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr
    assert {line for line in done.stdout.splitlines() if "::" in line} == named


def test_each_equivalent_mutant_is_a_comparison_flip():
    for file, mutant_id, reason in mutants.EQUIVALENT:
        assert reason and mutant_id in mutants.comparison_flips(file), mutant_id


def test_comparison_flips_change_one_operator():
    text = (mutants.ROOT / "src/liqlab/golden.py").read_text()
    flips = mutants.comparison_flips("src/liqlab/golden.py")
    flippable = [op for node in ast.walk(ast.parse(text)) if isinstance(node, ast.Compare)
                 for op in node.ops if type(op) in mutants._FLIPS]
    assert len(flips) == len(flippable) > 0
    for mutant_id, mutated in flips.items():
        assert abs(len(mutated) - len(text)) == 1, mutant_id
        assert ast.dump(ast.parse(mutated)) != ast.dump(ast.parse(text)), mutant_id


@pytest.mark.parametrize("file", ["src/liqlab/golden.py", "src/liqlab/cpmm.py"])
def test_operator_swaps_change_one_operator(file):
    # golden.py has augmented *=, and cpmm.py a unary -, not, and and or
    tree = ast.parse((mutants.ROOT / file).read_text())
    swappable = [node for node in ast.walk(tree)
                 if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in mutants._SWAPS
                 or isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.Not))
                 or isinstance(node, ast.BoolOp)]
    swaps = mutants.operator_swaps(file)
    assert len(swaps) == len(swappable) > 0
    for mutant_id, mutated in swaps.items():
        assert ast.dump(ast.parse(mutated)) != ast.dump(tree), mutant_id


def test_sweep_runs_the_tests_that_reach_the_module_through_the_cli():
    # test_experiments.py reaches cpmm only through the CLI, and
    # test_cycle.py imports the CLI beside cycle
    tests = mutants.sweep_tests("src/liqlab/cpmm.py")
    assert {"tests/test_cpmm.py", "tests/test_experiments.py", "tests/test_cycle.py",
            "tests/test_acceptance.py", "tests/test_pins.py"} <= set(tests)
    assert "tests/test_golden.py" not in tests


@pytest.mark.parametrize("returncode, outcome", [
    (0, "survived"), (1, "killed"), (2, "killed"), (3, "killed"), (4, "error"),
    (5, "error"), (None, "timed out")])
def test_run_reads_pytest_exit_codes(monkeypatch, tmp_path, returncode, outcome):
    # 2 and 3 stop pytest early: a test module fails to import, or, as when
    # cli.py runs main() at import, calls sys.exit there
    def pytest_run(tests, cwd, *options, timeout=None):
        if returncode is not None:
            return subprocess.CompletedProcess(tests, returncode, "", "")

    monkeypatch.setattr(mutants, "_copy_with", lambda *args: tmp_path)
    monkeypatch.setattr(mutants, "_pytest", pytest_run)
    assert mutants.run("m", "f.py", "a", "b", ["t.py::test"]) == outcome
