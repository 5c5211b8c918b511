"""One measured process: import liqlab, run one workload body, report.

Usage (started by ``run.py``, not by hand)::

    python3 liqbench/child.py SPEC.json RESULT.json {setup,plain,trace}

``setup`` only imports and reports when it would have started timing;
``plain`` runs the body untraced; ``trace`` wraps the liqlab layers first
(see ``tracer.py``).  The body writes its files under the directory that
holds RESULT.json.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time
from pathlib import Path
from types import SimpleNamespace


def _blas_threads():
    """(name, threads) of the OpenBLAS numpy loaded, read through ctypes."""
    import ctypes

    import numpy as np

    name = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    with open("/proc/self/maps") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    for lib in libs:
        getter = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
        if getter is not None:
            getter.restype = ctypes.c_int
            return name, getter()
    return name, None


def _environment(liqlab, kernels) -> dict:
    import numpy as np

    blas, blas_threads = _blas_threads()
    with open("/proc/self/status") as status:
        threads = next(int(line.split()[1]) for line in status if line.startswith("Threads:"))
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "liqlab": liqlab.__version__, "NUMBA_ENABLED": kernels.NUMBA_ENABLED,
            "LIQLAB_DISABLE_NUMBA": os.environ.get("LIQLAB_DISABLE_NUMBA"),
            "blas": blas, "blas_threads": blas_threads, "process_threads": threads,
            **{var: os.environ.get(var) for var in
               ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}}


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main() -> None:
    spec_path, result_path, mode = sys.argv[1], Path(sys.argv[2]), sys.argv[3]
    import liqlab
    from liqlab import (catbond, cli, config, cpmm, cycle, experiments, golden,
                        impact, kernels, paths)

    import tracer
    from workloads import WORKLOADS

    spec = json.loads(Path(spec_path).read_text())
    expected = Path(spec["src"]).resolve()
    if Path(liqlab.__file__).resolve().parent.parent != expected:
        sys.exit(f"liqlab imported from {liqlab.__file__}, not from {expected}")
    modules = {"cli": cli, "config": config, "experiments": experiments,
               "paths": paths, "kernels": kernels, "golden": golden,
               "impact": impact, "catbond": catbond, "cycle": cycle, "cpmm": cpmm}
    lib = SimpleNamespace(**modules)
    workload = WORKLOADS[spec["workload"]]
    trace = tracer.install(liqlab, modules) if mode == "trace" else None
    out = result_path.parent / "out"
    out.mkdir()

    first = time.clock_gettime(time.CLOCK_MONOTONIC)
    if mode == "setup":
        result_path.write_text(json.dumps({"t_first": first}))
        return
    cpu0, start = _cpu_s(), time.perf_counter()
    state = workload.body(spec["input"], out, lib)
    wall = time.perf_counter() - start
    cpu = _cpu_s() - cpu0
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    spans = trace.snapshot() if trace else None

    report = workload.report(spec["input"], out, state, lib)
    result_path.write_text(json.dumps({
        "t_first": first, "wall_s": wall, "cpu_s": cpu,
        "peak_rss_mib": peak_kib / 1024.0, "trace": spans,
        "env": _environment(liqlab, kernels), "result": report}))


if __name__ == "__main__":
    main()
