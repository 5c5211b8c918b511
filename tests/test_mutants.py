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
