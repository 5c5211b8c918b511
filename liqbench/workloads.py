"""The four workloads: inputs drawn from the seed, the timed body, the checks.

Each workload has four parts:

* ``spec(seed)`` (parent) draws every input from the seed; liqlab only
  ever sees the configs and arguments built here;
* ``body(spec, out, lib)`` (child, timed) drives liqlab through
  ``cli.main`` and public library functions only;
* ``report(spec, out, state, lib)`` (child, untimed) turns what the body
  returned into JSON for the parent;
* ``check(spec, result, out)`` (parent) returns ``{op: problem}`` for
  every operation that failed, and ``fingerprint(...)`` the exact values
  pinned in ``golden.json`` for the default seed.

Tolerances are those of the acceptance suite (``tests/test_acceptance.py``).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from pathlib import Path

import numpy as np

DEFAULT_SEED = 1

# Golden-section search locates a maximum only to about sqrt(machine eps)
# relative to the objective's curvature: on random (q, r) its single-bond
# fraction sits up to 1.5e-8 from 1 - q - q/r (1.7% of 20000 draws exceed
# the 1e-8 of criterion 8a, whose fixed grid stays below it).
SINGLE_BOND_TOL = 5e-8


def _rng(name: str, seed: int) -> random.Random:
    # str seeds hash with SHA-512, so draws do not depend on PYTHONHASHSEED
    return random.Random(f"{name}:{seed}")


def _floats(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text().splitlines()
    rows = [line.split(",") for line in lines[1:] if not line.startswith("#")]
    return lines[0].split(","), rows


def _column(path: Path, name: str) -> list[float]:
    header, rows = _read_csv(path)
    idx = header.index(name)
    return [float(row[idx]) for row in rows]


def _run_cli(lib, argv: list[str]) -> int:
    """``cli.main`` with its console output discarded; argparse exits count."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            return lib.cli.main(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 1


def _manifest_problem(out: Path) -> str | None:
    """Every output the manifest lists exists and has the listed SHA-256."""
    manifest = out / "manifest.txt"
    if not manifest.is_file():
        return "manifest.txt missing"
    fields = dict(line.split("=", 1) for line in manifest.read_text().splitlines())
    i = 0
    while f"output.{i}.path" in fields:
        path = out / fields[f"output.{i}.path"]
        if not path.is_file():
            return f"{path.name} listed in manifest but missing"
        if _sha256(path) != fields[f"output.{i}.sha256"]:
            return f"{path.name} does not match its manifest SHA-256"
        i += 1
    return None if i else "manifest lists no outputs"


# ---------------------------------------------------------------- fbm-csv

class FbmCsv:
    """``fbm-gen`` at the ROADMAP baseline size: 200 paths of 4096 steps."""

    name = "fbm-csv"

    @staticmethod
    def spec(seed: int) -> dict:
        rng = _rng(FbmCsv.name, seed)
        return {"n_paths": 200, "n_steps": 4096, "dt": 1.0 / 4096.0,
                "hurst": 0.7, "method": "auto", "seed": rng.randrange(2 ** 31),
                "sample": sorted(rng.sample(range(200), 3))}

    @staticmethod
    def n_ops(spec: dict) -> int:
        return 1

    @staticmethod
    def body(spec: dict, out: Path, lib):
        argv = ["fbm-gen", "--set", f"n_paths={spec['n_paths']}",
                "--set", f"n_steps={spec['n_steps']}",
                "--set", f"dt={spec['dt']!r}", "--set", f"hurst={spec['hurst']!r}",
                "--set", f"method={spec['method']}",
                "--seed", str(spec["seed"]), "--out", str(out)]
        return _run_cli(lib, argv)

    @staticmethod
    def report(spec: dict, out: Path, rc: int, lib) -> dict:
        # regenerate a few paths so the parent can check the CSV values
        # round-trip to the exact floats
        sample = {str(i): lib.paths.generate_fbm(
            spec["n_steps"], spec["dt"], spec["hurst"], spec["seed"] + i,
            method=spec["method"]).values.tolist() for i in spec["sample"]}
        return {"rc": rc, "sample": sample}

    @staticmethod
    def check(spec: dict, result: dict, out: Path) -> dict[str, str]:
        if result["rc"] != 0:
            return {"fbm-gen": f"exit code {result['rc']}, expected 0"}
        problem = _manifest_problem(out)
        if problem:
            return {"fbm-gen": problem}
        n, dt = spec["n_steps"], spec["dt"]
        probes = [2 ** k for k in range(13)]  # time indices 1 .. 4096
        at_probes = []
        for i in range(spec["n_paths"]):
            lines = (out / f"fbm_{i:04d}.csv").read_text().splitlines()
            if lines[0] != "t,value" or len(lines) != n + 2:
                return {"fbm-gen": f"fbm_{i:04d}.csv: bad header or row count"}
            at_probes.append([float(lines[1 + k].split(",")[1]) for k in probes])
            if str(i) in result["sample"]:
                rows = [line.split(",") for line in lines[1:]]
                if any(float(t) != j * dt for j, (t, _) in enumerate(rows)):
                    return {"fbm-gen": f"fbm_{i:04d}.csv: time grid differs"}
                if [float(v) for _, v in rows] != result["sample"][str(i)]:
                    return {"fbm-gen": f"fbm_{i:04d}.csv: values differ from "
                                       f"generate_fbm"}
        # fBM variance grows as t^(2H): fit the slope over 200 paths
        var = np.var(np.array(at_probes), axis=0, ddof=1)
        slope = np.polyfit(np.log(np.array(probes) * dt), np.log(var), 1)[0]
        if abs(slope - 2.0 * spec["hurst"]) > 0.15:
            return {"fbm-gen": f"variance slope {slope:.4f}, expected "
                               f"{2.0 * spec['hurst']} +- 0.15"}
        return {}

    @staticmethod
    def fingerprint(spec: dict, result: dict, out: Path) -> dict[str, str]:
        return {p.name: _sha256(p) for p in sorted(out.glob("fbm_*.csv"))}


# ------------------------------------------------------------- mc-moments

class McMoments:
    """Monte Carlo moments of criterion 4: 2000 paths x 1024 steps, two H."""

    name = "mc-moments"

    @staticmethod
    def spec(seed: int) -> dict:
        rng = _rng(McMoments.name, seed)
        return {"n_paths": 2000, "n_steps": 1024, "dt": 1.0 / 1024.0,
                "runs": [{"hurst": h, "seed": rng.randrange(2 ** 31)}
                         for h in (0.3, 0.7)]}

    @staticmethod
    def n_ops(spec: dict) -> int:
        return 2 * len(spec["runs"])

    @staticmethod
    def body(spec: dict, out: Path, lib):
        args = (spec["n_paths"], spec["n_steps"], spec["dt"])
        return [(lib.paths.variance_slope(*args, run["hurst"], run["seed"]),
                 lib.paths.increment_autocorr(*args, run["hurst"], run["seed"]))
                for run in spec["runs"]]

    @staticmethod
    def report(spec: dict, out: Path, values, lib) -> dict:
        return {"values": [[float(s), float(a)] for s, a in values]}

    @staticmethod
    def check(spec: dict, result: dict, out: Path) -> dict[str, str]:
        failed = {}
        for run, (slope, autocorr) in zip(spec["runs"], result["values"]):
            h = run["hurst"]
            if not abs(slope - 2.0 * h) <= 0.05:
                failed[f"variance_slope H={h}"] = f"{slope!r}, expected {2 * h} +- 0.05"
            rho = 2.0 ** (2.0 * h - 1.0) - 1.0  # lag-1 autocorrelation of fGn
            if not abs(autocorr - rho) <= 0.01:
                failed[f"increment_autocorr H={h}"] = f"{autocorr!r}, expected {rho:.4f} +- 0.01"
        return failed

    @staticmethod
    def fingerprint(spec: dict, result: dict, out: Path) -> dict[str, str]:
        fp = {}
        for run, (slope, autocorr) in zip(spec["runs"], result["values"]):
            fp[f"H={run['hurst']}/variance_slope"] = repr(slope)
            fp[f"H={run['hurst']}/increment_autocorr"] = repr(autocorr)
        return fp


# ------------------------------------------------------------- fou-wealth

class FouWealth:
    """One-path fOU -> refine -> self-financing wealth, as library callers do."""

    name = "fou-wealth"
    factors = (1, 2, 4, 8, 16)

    @staticmethod
    def spec(seed: int) -> dict:
        rng = _rng(FouWealth.name, seed)
        drivers = []
        for hurst, method, n_steps in ((0.5, "auto", 4096), (0.7, "cholesky", 2048)):
            drivers.append({"hurst": hurst, "method": method, "n_steps": n_steps,
                            "dt": 1.0 / n_steps, "kappa": rng.uniform(-0.1, -0.02),
                            "sigma": rng.uniform(0.3, 0.6), "p0": rng.uniform(8.0, 12.0),
                            "seed": rng.randrange(2 ** 31)})
        return {"w0": 1.0, "factors": list(FouWealth.factors), "drivers": drivers}

    @staticmethod
    def n_ops(spec: dict) -> int:
        return len(spec["drivers"]) * len(spec["factors"])

    @staticmethod
    def body(spec: dict, out: Path, lib):
        runs = []
        for d in spec["drivers"]:
            params = lib.paths.FouParams(kappa=d["kappa"], level=0.0,
                                         sigma=d["sigma"], hurst=d["hurst"])
            driver = lib.paths.simulate_fou(params, d["p0"], d["n_steps"], d["dt"],
                                            d["seed"], method=d["method"])
            wealth = [lib.impact.simulate_self_financing(
                lib.paths.refine_linear(driver, f), params, spec["w0"])
                for f in spec["factors"]]
            runs.append((driver, wealth))
        return runs

    @staticmethod
    def report(spec: dict, out: Path, runs, lib) -> dict:
        return {"drivers": [
            {"p_end": float(driver.values[-1]),
             "terminal": [float(w.values[-1]) for w in wealth],
             "sha256": [hashlib.sha256(w.values.tobytes()).hexdigest() for w in wealth]}
            for driver, wealth in runs]}

    @staticmethod
    def check(spec: dict, result: dict, out: Path) -> dict[str, str]:
        failed = {}
        for d, r in zip(spec["drivers"], result["drivers"]):
            # level 0: wealth tracks w0 * exp(kappa / sigma^2 * (P_T - P_0)),
            # and each linear refinement brings the discrete sum closer
            c = d["kappa"] / d["sigma"] ** 2
            target = spec["w0"] * math.exp(c * (r["p_end"] - d["p0"]))
            errs = [abs(w - target) / target for w in r["terminal"]]
            for j, f in enumerate(spec["factors"]):
                op = f"H={d['hurst']} x{f}"
                if not math.isfinite(errs[j]):
                    failed[op] = "terminal wealth is not finite"
                elif j and not errs[j] < errs[j - 1]:
                    failed[op] = f"error {errs[j]:.3e} did not fall below {errs[j - 1]:.3e}"
            if not errs[-1] < 0.01:
                failed[f"H={d['hurst']} x{spec['factors'][-1]}"] = (
                    f"error {errs[-1]:.3e} against the closed form, expected < 0.01")
        return failed

    @staticmethod
    def fingerprint(spec: dict, result: dict, out: Path) -> dict[str, str]:
        fp = {}
        for d, r in zip(spec["drivers"], result["drivers"]):
            fp[f"H={d['hurst']}/p_end"] = repr(r["p_end"])
            for f, w, digest in zip(spec["factors"], r["terminal"], r["sha256"]):
                fp[f"H={d['hurst']}/x{f}/terminal"] = repr(w)
                fp[f"H={d['hurst']}/x{f}/sha256"] = digest
        return fp


# ----------------------------------------------------------- solver-sweep

def _cycle_exit(x0, y0, alpha, m, sigma, mode) -> tuple[int, float]:
    """Expected exit code of a closing cycle-run, and how far from the edge.

    Mirrors the ledger arithmetic of stages 1-3 to get the closure amounts
    G = m - alpha + sigma and H = Y3 - y0; either below zero exits 3.
    """
    if not 0.0 < alpha < x0:
        return 2, math.inf
    x1, y1 = x0 - alpha, x0 * y0 / (x0 - alpha)
    x2, y2 = x1 + m, y1 + m * y1 / x1
    delta = y2 * sigma / (x2 + sigma) if mode == "exact" else sigma * y2 / (x2 + alpha)
    g_amt, h_amt = m - alpha + sigma, (y2 - delta) - y0
    margin = min(abs(g_amt) / x0, abs(h_amt) / y0)
    return (3 if g_amt < 0.0 or h_amt < 0.0 else 0), margin


class SolverSweep:
    """About sixty small CLI experiments plus leverage-form solves."""

    name = "solver-sweep"

    @staticmethod
    def spec(seed: int) -> dict:
        rng = _rng(SolverSweep.name, seed)
        ops = []

        def cli(argv, expect):
            ops.append({"argv": argv, "expect": expect})

        def log_uniform(lo, hi):
            return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))

        def model():
            return ["--set", f"sigma={rng.uniform(0.5, 2.0)!r}",
                    "--set", f"k={rng.uniform(0.5, 2.0)!r}",
                    "--set", f"khat={rng.uniform(0.5, 2.0)!r}"]

        for _ in range(4):
            hursts = [rng.uniform(0.3, 0.95) for _ in range(3)]
            qs = [log_uniform(1e-2, 1e3) for _ in range(60)]
            cli(["impact-verify", "--set", f"hursts={_floats(hursts)}",
                 "--set", f"q_values={_floats(qs)}", *model()], 0)
        # H <= 1/4 leaves no interior optimum: a bracketing failure, exit 3
        cli(["impact-verify", "--set", f"hursts={rng.uniform(0.05, 0.25)!r}",
             "--set", f"q_values={_floats([log_uniform(1e-2, 1e3)])}"], 3)
        cli(["catbond-sensitivity",
             "--set", f"q_values={_floats(rng.uniform(1e-3, 0.4) for _ in range(60))}",
             "--set", f"r_values={_floats(rng.uniform(0.1, 4.0) for _ in range(60))}",
             "--set", f"delta_r={rng.uniform(1e-3, 0.05)!r}"], 0)
        for i in range(22):
            # a default probability >= 1 is rejected by the schema, exit 2
            q = rng.uniform(1.0, 1.5) if i % 11 == 10 else rng.uniform(0.0, 0.6)
            cli(["catbond-optimize", "--set", f"q={q!r}",
                 "--set", f"r={rng.uniform(0.1, 5.0)!r}"], 2 if q >= 1.0 else 0)
        for i in range(17):
            mode = ("exact", "original-x")[i % 2]
            while True:
                x0, y0 = rng.uniform(50.0, 200.0), rng.uniform(50.0, 200.0)
                m, sigma = rng.uniform(0.0, 0.3) * x0, rng.uniform(0.0, 0.2) * x0
                if i == 16:  # alpha beyond the X reserve: config error, exit 2
                    alpha = x0 * rng.uniform(1.0, 1.5)
                elif i % 4 == 3:  # G = m - alpha + sigma < 0: exit 3
                    alpha = min((m + sigma) * rng.uniform(1.1, 2.0), 0.9 * x0)
                else:
                    alpha = rng.uniform(0.02, 0.3) * x0
                expect, margin = _cycle_exit(x0, y0, alpha, m, sigma, mode)
                if margin > 1e-6:  # keep clear of the feasibility edge
                    break
            cli(["cycle-run", "--set", f"x0={x0!r}", "--set", f"y0={y0!r}",
                 "--set", f"alpha={alpha!r}", "--set", f"m={m!r}",
                 "--set", f"sigma_amt={sigma!r}", "--set", f"stage3_mode={mode}",
                 "--set", "closure=true"], expect)
        for _ in range(4):
            cli(["cpmm-compare", "--set", f"reserve_x={rng.uniform(10.0, 1000.0)!r}",
                 "--set", f"reserve_y={rng.uniform(10.0, 1000.0)!r}",
                 "--set", f"u_values={_floats(rng.uniform(1e-4, 0.99) for _ in range(250))}"],
                0)
        for _ in range(8):
            q_min = log_uniform(1e-3, 1.0)
            cli(["impact-curve", "--set", f"hurst={rng.uniform(0.05, 0.95)!r}",
                 "--set", f"q_min={q_min!r}", "--set", f"q_max={q_min * log_uniform(1e2, 1e6)!r}",
                 "--set", "n_points=2000", *model()], 0)
        leverage = {"k": rng.uniform(0.5, 2.0), "khat": rng.uniform(0.5, 2.0),
                    "sigma": rng.uniform(0.5, 2.0),
                    "points": [[log_uniform(1e-2, 1e2), log_uniform(0.1, 100.0)]
                               for _ in range(400)]}
        return {"ops": ops, "leverage": leverage}

    @staticmethod
    def n_ops(spec: dict) -> int:
        return len(spec["ops"]) + len(spec["leverage"]["points"])

    @staticmethod
    def body(spec: dict, out: Path, lib):
        codes = []
        for i, op in enumerate(spec["ops"]):
            try:
                codes.append(_run_cli(lib, [*op["argv"], "--out", str(out / f"op{i:02d}")]))
            except Exception as exc:  # a traceback is a failed operation
                codes.append(f"raised {exc!r}")
        lev = spec["leverage"]
        model = lib.impact.GrowthModel(capital_scale_k=lev["k"],
                                       time_per_size_khat=lev["khat"],
                                       sigma=lev["sigma"], hurst=0.5)
        impacts = []
        for q, price in lev["points"]:
            try:
                impacts.append(lib.impact.optimal_impact_leverage_form(q, price, model))
            except Exception as exc:
                impacts.append(f"raised {exc!r}")
        return codes, impacts

    @staticmethod
    def report(spec: dict, out: Path, state, lib) -> dict:
        codes, impacts = state
        return {"codes": codes, "impacts": impacts}

    @staticmethod
    def _output_problem(experiment: str, op: dict, out: Path) -> str | None:
        problem = _manifest_problem(out)
        if problem:
            return problem
        if experiment == "impact-verify":
            if max(_column(out / "impact_verify.csv", "rel_err")) > 1e-6:
                return "impact_verify.csv rel_err above 1e-6"
            if max(_column(out / "impact_exponent.csv", "abs_err")) > 1e-6:
                return "impact_exponent.csv abs_err above 1e-6"
        elif experiment == "catbond-sensitivity":
            if max(_column(out / "catbond_sensitivity.csv", "abs_err")) > SINGLE_BOND_TOL:
                return f"catbond_sensitivity.csv abs_err above {SINGLE_BOND_TOL}"
            if max(_column(out / "iso_shift.csv", "roundtrip_abs_err")) > 1e-12:
                return "iso_shift.csv roundtrip_abs_err above 1e-12"
        elif experiment == "catbond-optimize":
            # two_abs_err is criterion 8b, red by design: left unchecked
            if max(_column(out / "catbond_optimize.csv", "single_abs_err")) > SINGLE_BOND_TOL:
                return f"catbond_optimize.csv single_abs_err above {SINGLE_BOND_TOL}"
        elif experiment == "cpmm-compare":
            path = out / "cpmm_compare.csv"
            if any(e > b for e, b in zip(_column(path, "abs_err"),
                                         _column(path, "quad_bound"))):
                return "cpmm_compare.csv abs_err above the 3.5 u^2 bound"
        elif experiment == "impact-curve":
            path = out / "impact_curve.csv"
            q, dp = np.array(_column(path, "q")), np.array(_column(path, "delta_p"))
            slope = np.polyfit(np.log(q), np.log(dp), 1)[0]
            if abs(slope - _column(path, "exponent_model")[0]) > 1e-6:
                return f"impact_curve.csv fitted exponent {slope!r} off by more than 1e-6"
        elif experiment == "cycle-run":
            args = dict(a.split("=", 1) for a in op["argv"][2::2])
            x0, y0 = float(args["x0"]), float(args["y0"])
            _, rows = _read_csv(out / "cycle_report.csv")
            ledgers = [list(map(float, row[1:])) for row in rows]
            for row, (pool_x, pool_y, _, _, out_x, out_y) in zip(rows, ledgers):
                if abs(pool_x + out_x - x0) > 1e-12 * x0 or abs(pool_y + out_y - y0) > 1e-12 * y0:
                    return f"cycle_report.csv stage {row[0]} breaks conservation"
            pool_x, pool_y = ledgers[-1][:2]
            if abs(pool_x - x0) > 1e-12 * x0 or abs(pool_y - y0) > 1e-12 * y0:
                return "cycle_report.csv closure does not restore the pool"
        return None

    @staticmethod
    def check(spec: dict, result: dict, out: Path) -> dict[str, str]:
        failed = {}
        for i, (op, code) in enumerate(zip(spec["ops"], result["codes"])):
            label = f"op{i:02d} {op['argv'][0]}"
            if code != op["expect"]:
                failed[label] = f"exit {code!r}, expected {op['expect']}"
            elif code == 0:
                problem = SolverSweep._output_problem(op["argv"][0], op, out / f"op{i:02d}")
                if problem:
                    failed[label] = problem
        lev = spec["leverage"]
        for (q, price), dp in zip(lev["points"], result["impacts"]):
            ref = lev["sigma"] ** 2 / lev["k"] * math.sqrt(q)  # square-root law
            if isinstance(dp, str) or not abs(dp - ref) <= 1e-9 * ref:
                failed[f"leverage q={q!r} price={price!r}"] = f"{dp!r}, expected {ref!r}"
        return failed

    @staticmethod
    def fingerprint(spec: dict, result: dict, out: Path) -> dict[str, str]:
        fp = {f"{p.parent.name}/{p.name}": _sha256(p)
              for p in sorted(out.glob("op*/*.csv"))}
        fp["leverage.sha256"] = hashlib.sha256(
            json.dumps(result["impacts"]).encode()).hexdigest()
        return fp


WORKLOADS = {w.name: w for w in (FbmCsv, McMoments, SolverSweep, FouWealth)}
