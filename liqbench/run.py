"""liqlab benchmark: seeded workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout::

    python3 liqbench/run.py --workload fbm-csv --seed 1 --seconds 25 --trace 0
    python3 liqbench/run.py --workload all            # every workload in turn
    python3 liqbench/run.py --workload all --trace 1  # per-layer spans

Each repetition starts a fresh ``python3 liqbench/child.py`` that imports
liqlab from ``src/`` and runs the workload body once (a closed loop with one
caller); repetitions continue until ``--seconds`` have passed.  Every
repetition's outputs are checked (``workloads.py``); for the default seed
they must also match ``golden.json`` exactly.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json`` as
medians over repetitions.  ``--trace 1`` alternates untraced and traced
repetitions and reports the per-layer metrics plus the tracing overhead.
The last line of output is one JSON object.

``--write-golden`` re-pins ``golden.json`` from one checked run per
workload at the default seed.  Only do that in a change that alters the
outputs on purpose, and say so in that change.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"
HARD_LIMIT_S = 170.0  # every child is stopped before this, so runs end < 180 s


def _now() -> float:
    # CLOCK_MONOTONIC is system-wide, so it compares across processes
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


class Runner:
    """Starts children for one workload and collects what they report."""

    def __init__(self, name: str, seed: int, work: Path, deadline: float) -> None:
        self.workload = WORKLOADS[name]
        self.spec = self.workload.spec(seed)
        self.work = work / name
        self.work.mkdir(parents=True)
        self.spec_path = self.work / "spec.json"
        self.spec_path.write_text(json.dumps(
            {"workload": name, "src": str(SRC), "input": self.spec}))
        self.deadline = deadline
        self.count = 0
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.golden = None
        if seed == DEFAULT_SEED and GOLDEN.is_file():
            self.golden = json.loads(GOLDEN.read_text()).get(name)

    def spawn(self, mode: str) -> dict:
        """Run one child; return its report plus setup_s, or raise RuntimeError."""
        self.count += 1
        rep = self.work / f"rep{self.count:03d}"
        rep.mkdir()
        result = rep / "result.json"
        spawned = _now()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), str(self.spec_path),
                 str(result), mode],
                cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                timeout=max(1.0, self.deadline - spawned))
        except subprocess.TimeoutExpired:
            raise RuntimeError(f"{mode} child stopped at the {HARD_LIMIT_S:.0f} s limit")
        if proc.returncode != 0 or not result.is_file():
            tail = proc.stderr.decode(errors="replace").strip().splitlines()[-5:]
            raise RuntimeError(f"{mode} child exited {proc.returncode}: " + " | ".join(tail))
        report = json.loads(result.read_text())
        report["setup_s"] = report["t_first"] - spawned
        report["dir"] = rep
        return report

    def setup_probe(self) -> float:
        report = self.spawn("setup")
        shutil.rmtree(report["dir"])
        return report["setup_s"]

    def body(self, mode: str) -> dict:
        """One measured repetition, checked, with its failed operations."""
        try:
            report = self.spawn(mode)
        except RuntimeError as exc:
            return {"failed": {"child": str(exc)}, "ok": False}
        out = report["dir"] / "out"
        try:
            failed = self.workload.check(self.spec, report["result"], out)
            if self.golden is not None:
                pinned = self.workload.fingerprint(self.spec, report["result"], out)
                differ = sorted(k for k in set(pinned) | set(self.golden)
                                if pinned.get(k) != self.golden.get(k))
                if differ:
                    failed["golden"] = (f"{len(differ)} of {len(self.golden)} pinned "
                                        f"values differ, e.g. {differ[:3]}")
        except Exception as exc:  # unreadable outputs fail the repetition, not the run
            failed = {"check": f"outputs could not be checked: {exc!r}"}
        shutil.rmtree(report["dir"])
        report.update(failed=failed, ok=True)
        return report


def _measure(name: str, seed: int, seconds: float, trace: bool, work: Path,
             deadline: float) -> dict:
    runner = Runner(name, seed, work, deadline)
    n_ops = runner.workload.n_ops(runner.spec)
    modes = ("plain", "trace") if trace else ("plain",)
    reps = {mode: [] for mode in modes}
    setups, problems = [], []
    try:
        runner.setup_probe()  # compiles bytecode and warms the file cache
    except RuntimeError as exc:
        problems.append(("setup", str(exc)))
    start = _now()
    durations = []
    while not problems:
        began = _now()
        for mode in modes:
            reps[mode].append(runner.body(mode))
        if not trace:  # one import-only child per repetition adds a setup_s sample
            try:
                setups.append(runner.setup_probe())
            except RuntimeError as exc:
                problems.append(("setup", str(exc)))
        durations.append(_now() - began)
        if not all(reps[mode][-1]["ok"] for mode in modes):
            break
        if _now() + statistics.median(durations) > min(start + seconds, deadline):
            break
    done = [r for mode in modes for r in reps[mode]]
    attempted = max(n_ops, n_ops * len(done))
    failed = attempted if problems else min(
        attempted, sum(len(r["failed"]) if r["ok"] else n_ops for r in done))
    plain = [r for r in reps["plain"] if r["ok"]]
    samples = {"wall_s": [r["wall_s"] for r in plain],
               "setup_s": setups + [r["setup_s"] for r in plain],
               "cpu_s": [r["cpu_s"] for r in plain],
               "peak_rss_mib": [r["peak_rss_mib"] for r in plain]}
    return {"name": name, "seed": seed, "plain": plain, "samples": samples,
            "traced": [r for r in reps.get("trace", []) if r["ok"]],
            "attempted": attempted, "failed": failed,
            "problems": problems + [p for r in done for p in r["failed"].items()]}


def _layer_values(m: dict) -> dict[str, float]:
    """Per-layer metrics: medians over traced repetitions (counts repeat exactly)."""
    per_rep = []
    for r in m["traced"]:
        spans, counts = r["trace"]["spans"], r["trace"]["counts"]
        flat = dict(counts)
        for span, v in spans.items():
            for key in ("s", "self_s", "calls"):
                flat[f"{span}.{key}"] = v[key]
            layer = span.split(".", 1)[0]
            flat[f"{layer}.self_s"] = flat.get(f"{layer}.self_s", 0.0) + v["self_s"]
            flat[f"{layer}.calls"] = flat.get(f"{layer}.calls", 0) + v["calls"]
        calls = flat["golden.golden_section_max.calls"]
        flat["golden.converged_ratio"] = (
            (calls - flat["golden.max_iter_hits"]) / calls if calls else 0.0)
        flat["trace.wall_s"] = r["wall_s"]
        per_rep.append(flat)
    values = {k: statistics.median(rep[k] for rep in per_rep) for k in per_rep[0]}
    untraced = statistics.median(r["wall_s"] for r in m["plain"])
    values["trace.overhead_s"] = values["trace.wall_s"] - untraced
    values["trace.overhead_frac"] = values["trace.overhead_s"] / untraced
    return values


def _print_end_to_end(m: dict, metrics: list[dict]) -> dict[str, float]:
    values = {k: statistics.median(v) for k, v in m["samples"].items()}
    values["ok_frac"] = 1.0 - m["failed"] / m["attempted"]
    print(f"{m['name']}: seed {m['seed']}, {len(m['plain'])} repetitions, "
          f"one caller (closed loop)")
    for spec in metrics:
        name = spec["name"]
        if name in m["samples"]:
            q1, q2, q3 = _quartiles(m["samples"][name])
            print(f"  {name:<13} {q2:>11.4f} {spec['unit']:<5} median of "
                  f"{len(m['samples'][name])}, quartiles {q1:.4f} .. {q3:.4f}")
        else:
            print(f"  {name:<13} {values[name]:>11.4f} {spec['unit']:<5}")
    print(f"  {'failed_frac':<13} {m['failed'] / m['attempted']:>11.4f} ratio "
          f"({m['failed']} of {m['attempted']} operations failed)")
    return values


def _print_layers(m: dict, metrics: list[dict]) -> dict[str, float]:
    values = _layer_values(m)
    wall = values["trace.wall_s"]
    print(f"{m['name']}: seed {m['seed']}, {len(m['traced'])} traced and "
          f"{len(m['plain'])} untraced repetitions")
    print(f"  tracing overhead {values['trace.overhead_s']:+.4f} s "
          f"({values['trace.overhead_frac']:+.1%} of the untraced wall_s)")
    spans = sorted((k[:-len(".self_s")] for k in values
                    if k.endswith(".self_s") and k.count(".") == 2),
                   key=lambda s: -values[f"{s}.self_s"])
    print(f"  {'span':<42} {'calls':>8} {'busy s':>9} {'self s':>9} {'self share':>10}")
    for span in spans:
        if values[f"{span}.calls"]:
            print(f"  {span:<42} {values[f'{span}.calls']:>8.0f} "
                  f"{values[f'{span}.s']:>9.4f} {values[f'{span}.self_s']:>9.4f} "
                  f"{values[f'{span}.self_s'] / wall:>10.1%}")
    print(f"  golden.converged_ratio {values['golden.converged_ratio']:.4f} of "
          f"{values['golden.golden_section_max.calls']:.0f} golden_section_max calls")
    print("  per-layer metrics:")
    for spec in metrics:
        print(f"    {spec['name']:<46} {values[spec['name']]:>14.6g} {spec['unit']}")
    return values


def main() -> int:
    parser = argparse.ArgumentParser(description="liqlab benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true",
                        help="re-pin golden.json at the default seed")
    args = parser.parse_args()
    if not (SRC / "liqlab" / "__init__.py").is_file():
        print(f"liqbench: no liqlab sources under {SRC}", file=sys.stderr)
        return 2
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = contract["run_seconds"]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    deadline = _now() + HARD_LIMIT_S * len(names)
    work = ROOT / ".liqbench_work" / str(os.getpid())
    try:
        if args.write_golden:
            return _write_golden(names, work, deadline)
        return _report(args, names, contract, work, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.is_dir() and not any(work.parent.iterdir()):
            work.parent.rmdir()


def _report(args, names: list[str], contract: dict, work: Path, deadline: float) -> int:
    metrics = contract["per_layer"] if args.trace else contract["end_to_end"]
    out = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    env_printed = False
    for name in names:
        m = _measure(name, args.seed, args.seconds, bool(args.trace), work, deadline)
        for op, problem in m["problems"][:10]:
            print(f"liqbench: {name}: FAILED {op}: {problem}", file=sys.stderr)
        out["attempted"] += m["attempted"]
        out["failed"] += m["failed"]
        if not m["plain"] or (args.trace and not m["traced"]):
            out["correct"] = False
            continue
        if not env_printed:
            print("environment: " + json.dumps(m["plain"][0]["env"]))
            env_printed = True
        show = _print_layers if args.trace else _print_end_to_end
        values = show(m, metrics)
        prefix = "" if len(names) == 1 else f"{name}/"
        for spec in metrics:
            out["metrics"][prefix + spec["name"]] = {"value": values[spec["name"]],
                                                     "unit": spec["unit"]}
    out["correct"] = out["correct"] and out["failed"] == 0
    print(json.dumps(out))
    return 0


def _write_golden(names: list[str], work: Path, deadline: float) -> int:
    pinned = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
    for name in names:
        runner = Runner(name, DEFAULT_SEED, work, deadline)
        report = runner.spawn("plain")
        out = report["dir"] / "out"
        failed = runner.workload.check(runner.spec, report["result"], out)
        if failed:
            print(f"liqbench: {name}: checks failed, nothing pinned: {failed}",
                  file=sys.stderr)
            return 1
        pinned[name] = runner.workload.fingerprint(runner.spec, report["result"], out)
        print(f"{name}: pinned {len(pinned[name])} values")
    GOLDEN.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
