"""Contract between liqlab and the benchmark's tracer (``liqbench/tracer.py``).

The tracer's hooks read library details that nothing else pins:
``write_csv``'s ``Path`` return, ``golden_section_max``'s ``fn`` and
``max_iter`` parameters, ``generate_fbm``'s ``method``, the 2-d ``prices``
of ``self_financing`` and the fifth positional argument of ``fou_euler``.
``liqbench/child.py`` also records ``kernels.NUMBA_ENABLED``.  Each test
installs the tracer in this process and undoes it afterwards.
"""

import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

import liqlab
from liqlab import (catbond, cli, config, cpmm, cycle, experiments, golden,
                    impact, kernels, paths)

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "liqbench_tracer", ROOT / "liqbench" / "tracer.py")
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)

MODULES = {"cli": cli, "config": config, "experiments": experiments,
           "paths": paths, "kernels": kernels, "golden": golden,
           "impact": impact, "catbond": catbond, "cycle": cycle, "cpmm": cpmm}


def functions():
    """Every function bound in a namespace the tracer rebinds."""
    return {(namespace.__name__, attr): obj
            for namespace in (liqlab, *MODULES.values())
            for attr, obj in vars(namespace).items() if inspect.isfunction(obj)}


def install(mp):
    """Install the tracer; ``mp`` restores every function it replaces."""
    for namespace in (liqlab, *MODULES.values()):
        for attr, obj in list(vars(namespace).items()):
            if inspect.isfunction(obj):
                mp.setattr(namespace, attr, obj)
    return tracer.install(liqlab, MODULES)


@pytest.fixture
def trace(monkeypatch):
    return install(monkeypatch)


def test_hooks_read_what_the_library_passes(trace, tmp_path):
    path = experiments.write_csv(tmp_path / "t.csv", ["a"], np.zeros((2, 1)))
    catbond.single_bond_fraction_numeric(catbond.BondSpec(0.2, 1.0))
    fou = paths.simulate_fou(paths.FouParams(-1.0, 0.0, 1.0, 0.6), 1.0, 16,
                             0.1, 3)
    impact.simulate_self_financing(fou, paths.FouParams(-1.0, 0.0, 1.0, 0.6), 1.0)
    snapshot = trace.snapshot()
    spans, counts = snapshot["spans"], snapshot["counts"]
    assert spans["experiments.write_csv"]["calls"] == 1
    assert counts["experiments.write_csv.bytes"] == path.stat().st_size == len("a\n0\n0\n")
    # catbond's own binding of golden_section_max is the traced one
    assert spans["catbond.single_bond_fraction_numeric"]["calls"] == 1
    assert spans["golden.golden_section_max"]["calls"] == 1
    assert counts["golden.fn_evals"] > 2
    assert counts["golden.max_iter_hits"] == 0
    assert spans["paths.simulate_fou"]["calls"] == 1
    assert spans["paths.generate_fbm"]["calls"] == 1
    assert counts["paths.auto_fallbacks"] == 0
    assert counts["kernels.fou_euler.steps"] == 16
    assert counts["kernels.self_financing.steps"] == 16
    assert spans["impact.simulate_self_financing"]["calls"] == 1
    assert isinstance(kernels.NUMBA_ENABLED, bool)


def test_write_csv_counts_every_byte_an_experiment_writes(trace, tmp_path):
    # cycle_report.csv's summary line is the last row of its one write_csv call
    assert cli.main(["cycle-run", "--config", str(ROOT / "configs" / "cycle_worked.cfg"),
                     "--out", str(tmp_path)]) == 0
    size = (tmp_path / "cycle_report.csv").stat().st_size
    assert trace.snapshot()["counts"]["experiments.write_csv.bytes"] == size == 463


def test_auto_fallback_is_counted(trace, monkeypatch):
    def boom(n_steps, hurst):
        raise paths.EmbeddingError("forced")

    monkeypatch.setattr(paths, "_embedding_eigenvalues", boom)
    paths.generate_fbm(16, 0.1, 0.6, 3)
    paths.generate_fbm(16, 0.1, 0.6, 3, method="cholesky")
    assert trace.snapshot()["counts"]["paths.auto_fallbacks"] == 1


def test_install_is_undone():
    before = functions()
    with pytest.MonkeyPatch.context() as mp:
        install(mp)
        assert experiments.write_csv is not before["liqlab.experiments", "write_csv"]
        assert catbond.golden_section_max is not before["liqlab.catbond",
                                                        "golden_section_max"]
    assert functions() == before
