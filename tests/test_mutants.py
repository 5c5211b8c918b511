"""Every row of ``tests/mutants.py`` still applies to the tree: its text to
replace occurs exactly once in its file, and every test it names is
collected.  Every ``EQUIVALENT`` entry still names a sweep mutant of its
module.  A refactor that strands a mutant fails here and must update the
row or the entry.  A sweep makes both kinds of mutant against one
unchanged run, and a path it cannot sweep is refused before any test runs."""

import ast
import importlib.util
import io
import subprocess
import sys
import tokenize
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
        assert reason and mutant_id in mutants._mutants(file, mutants._sweep_edits), mutant_id


def _tokens(text):
    return [(token.type, token.string)
            for token in tokenize.generate_tokens(io.StringIO(text).readline)]


def test_comparison_flips_change_one_operator():
    text = (mutants.ROOT / "src/liqlab/golden.py").read_text()
    flips = mutants._mutants("src/liqlab/golden.py", mutants._comparison_edits)
    flippable = [op for node in ast.walk(ast.parse(text)) if isinstance(node, ast.Compare)
                 for op in node.ops if type(op) in mutants._FLIPS]
    assert len(flips) == len(flippable) > 0
    before = _tokens(text)
    for mutant_id, mutated in flips.items():
        after = _tokens(mutated)
        changed = [(old[1], new[1]) for old, new in zip(before, after) if old != new]
        # != and == are one length, < and <= are not
        assert len(after) == len(before) and len(changed) == 1, mutant_id
        assert changed[0] in mutants._FLIPS.values(), mutant_id
        assert ast.dump(ast.parse(mutated)) != ast.dump(ast.parse(text)), mutant_id


@pytest.mark.parametrize("file", ["src/liqlab/golden.py", "src/liqlab/cpmm.py"])
def test_operator_swaps_change_one_operator(file):
    # golden.py has augmented *=, and cpmm.py a unary -, not, and and or
    tree = ast.parse((mutants.ROOT / file).read_text())
    swappable = [node for node in ast.walk(tree)
                 if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in mutants._SWAPS
                 or isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.Not))
                 or isinstance(node, ast.BoolOp)]
    swaps = mutants._mutants(file, mutants._operator_edits)
    assert len(swaps) == len(swappable) > 0
    for mutant_id, mutated in swaps.items():
        assert ast.dump(ast.parse(mutated)) != ast.dump(tree), mutant_id


def test_sweep_runs_both_kinds_against_one_baseline(monkeypatch):
    # impact.py has EQUIVALENT entries to skip
    file = "src/liqlab/impact.py"
    baselines, ran = [], []

    def pytest_run(tests, cwd, *options, timeout=None):
        baselines.append(tests)
        return subprocess.CompletedProcess(tests, 0, "", "")

    def run(mutant_id, module, old, new, tests, *options, timeout=None):
        ran.append(mutant_id)
        return "killed"

    monkeypatch.setattr(mutants, "_pytest", pytest_run)
    monkeypatch.setattr(mutants, "run", run)
    assert mutants.sweep(file) == 0
    flips = mutants._mutants(file, mutants._comparison_edits)
    swaps = mutants._mutants(file, mutants._operator_edits)
    equivalent = {mutant_id for module, mutant_id, _ in mutants.EQUIVALENT if module == file}
    assert len(baselines) == 1
    assert flips and swaps and equivalent and equivalent <= flips.keys() | swaps.keys()
    assert len(ran) == len(set(ran)) == len(flips) + len(swaps) - len(equivalent)
    assert set(ran) == (flips.keys() | swaps.keys()) - equivalent


@pytest.mark.parametrize("path", ["src/liqlab/nope.py", "README.md", "tests/mutants.py",
                                  "src/liqlab"])
def test_a_path_it_cannot_sweep_is_a_usage_error(monkeypatch, capsys, path):
    def pytest_run(*args, **kwargs):
        raise AssertionError("a test run started")

    monkeypatch.setattr(mutants, "_pytest", pytest_run)
    with pytest.raises(SystemExit) as stop:
        mutants.main(["--sweep", path])
    assert stop.value.code == 2
    assert f"argument --sweep: {path} is not a .py file" in capsys.readouterr().err


def test_a_sweep_path_is_read_from_the_repository_root():
    # a mutant is made in a copy at the same relative path, so an absolute
    # path must not reach it: it would name this tree's file
    assert mutants._module(str(mutants.ROOT / "src/liqlab/golden.py")) == "src/liqlab/golden.py"
    assert mutants._module("./src/liqlab/../liqlab/kernels.py") == "src/liqlab/kernels.py"


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


def test_each_outcome_is_printed_as_its_run_ends(capsys):
    printed = []

    def outcomes():
        for mutant_id, outcome in [("a", "killed"), ("b", "survived"), ("c", "timed out")]:
            printed.append(capsys.readouterr().out)  # before this mutant's run
            yield mutant_id, outcome

    assert mutants._report(outcomes()) == ["b"]
    assert printed == ["", "killed     a\n", "survived   b\n"]
    assert capsys.readouterr().out == "timed out  c\n"
