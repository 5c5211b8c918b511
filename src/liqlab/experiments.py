"""Named experiments: seeded runs that write CSV artifacts plus a manifest.

Every float is serialized with 17 significant digits and LF line endings,
so reruns with the same configuration and seed are byte-identical.  The
manifest lists every output file with its SHA-256 checksum; facts that
change from run to run (the duration) go to ``run.json`` instead.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Mapping

import numpy as np

from . import __version__
from . import catbond, cpmm, impact
from .config import Field, Value, validate_config
from .cycle import CycleConfig, Stage3Formula, run_cycle
from .errors import ConfigError, DomainError
from .paths import NORMAL_LABEL, PRNG_LABEL, iter_fbm

EXPERIMENT_NAMES = ("fbm-gen", "impact-curve", "impact-verify", "cpmm-compare",
                    "cycle-run", "catbond-optimize", "catbond-sensitivity")


def fmt(value: Any) -> str:
    """Serialize one CSV cell; floats gain full round-trip precision."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _column(cells: list[Any]) -> tuple[str, list[Any]]:
    """Row-template field and cells for one column.

    ``"%.17g" % x`` gives the bytes of ``fmt(x)`` for every float ``x``, so
    an all-float column is formatted by the row template itself.
    """
    if all(isinstance(cell, float) for cell in cells):
        return "%.17g", cells
    return "%s", [fmt(cell) for cell in cells]


def write_csv(path: Path, header: list[str], rows: list[list[Any]] | np.ndarray) -> Path:
    """Write ``header`` and ``rows`` as CSV with LF line endings.

    ``rows`` is a list of rows or a 2-d float64 array.  Every cell gets the
    text :func:`fmt` gives it, but a column of floats is formatted with one
    ``%`` operation per row instead of one call per cell.
    """
    if isinstance(rows, np.ndarray):
        if rows.dtype != np.float64 or rows.ndim != 2:
            raise TypeError(f"expected a 2-d float64 array, got {rows.dtype} "
                            f"with {rows.ndim} dimensions")
        columns = [("%.17g", cells) for cells in rows.T.tolist()]
    else:
        columns = [_column(list(cells)) for cells in zip(*rows)]
    template = ",".join(field for field, _ in columns) + "\n"
    body = "".join(map(template.__mod__, zip(*(cells for _, cells in columns))))
    path.write_text(",".join(header) + "\n" + body, newline="\n")
    return path


@dataclass(frozen=True)
class RunManifest:
    experiment: str
    config: dict[str, Any]
    seed: int
    fbm_method: str
    prng: str
    normal_transform: str
    version: str
    outputs: list[tuple[str, str, int]]  # (name, sha256, bytes)

    def to_text(self) -> str:
        lines = [
            f"experiment={self.experiment}",
            f"version={self.version}",
            f"seed={self.seed}",
            f"fbm_method={self.fbm_method}",
            f"prng={self.prng}",
            f"normal_transform={self.normal_transform}",
        ]
        for key in sorted(self.config):
            if key != "seed":
                lines.append(f"config.{key}={fmt(self.config[key])}")
        for i, (name, digest, size) in enumerate(self.outputs):
            lines.append(f"output.{i}.path={name}")
            lines.append(f"output.{i}.sha256={digest}")
            lines.append(f"output.{i}.bytes={size}")
        return "\n".join(lines) + "\n"


def _positive(value: float) -> str | None:
    return None if value > 0 else "must be positive"


def _hurst_open(value: float) -> str | None:
    return None if 0.0 < value < 1.0 else "must be in the open interval (0, 1)"


def _at_least_one(value: int) -> str | None:
    return None if value >= 1 else "must be >= 1"


def _hurst_list(values: list[float]) -> str | None:
    return None if all(0.0 < h < 1.0 for h in values) else "every entry must be in (0, 1)"


def _positive_list(values: list[float]) -> str | None:
    return None if values and all(v > 0 for v in values) else "needs positive entries"


_COMMON = {"seed": Field("int", 0)}


def _log_grid(q_min: float, q_max: float, n_points: int) -> np.ndarray:
    if not q_min < q_max:
        raise ConfigError(f"q_min must be below q_max, got {q_min} >= {q_max}")
    return np.logspace(np.log10(q_min), np.log10(q_max), n_points)


def _run_fbm_gen(cfg: dict[str, Any], out: Path):
    paths = iter_fbm(cfg["n_paths"], cfg["n_steps"], cfg["dt"], cfg["hurst"],
                     cfg["seed"], method=cfg["method"])
    files = []
    method_label = ""
    for i, path in enumerate(paths):
        method_label = path.meta.split(";", 1)[0]
        files.append(write_csv(out / f"fbm_{i:04d}.csv", ["t", "value"],
                               np.column_stack((path.times, path.values))))
    return files, method_label


_FBM_SCHEMA = _COMMON | {
    "n_steps": Field("int", 1024, _at_least_one),
    "dt": Field("float", 1.0 / 1024.0, _positive),
    "hurst": Field("float", 0.5, _hurst_open),
    "n_paths": Field("int", 1, _at_least_one),
    "method": Field("str", "auto",
                    lambda v: None if v in ("auto", "davies-harte", "cholesky")
                    else "must be auto, davies-harte, or cholesky"),
}


def _impact_model(cfg: Mapping[str, Any], hurst: float) -> impact.GrowthModel:
    return impact.GrowthModel(capital_scale_k=cfg["k"],
                              time_per_size_khat=cfg["khat"],
                              sigma=cfg["sigma"], hurst=hurst)


def _run_impact_curve(cfg: dict[str, Any], out: Path):
    model = _impact_model(cfg, cfg["hurst"])
    exponent = 2.0 * cfg["hurst"] - 0.5
    rows = [[q, impact.optimal_impact_fou(q, model), exponent]
            for q in _log_grid(cfg["q_min"], cfg["q_max"], cfg["n_points"])]
    return [write_csv(out / "impact_curve.csv",
                      ["q", "delta_p", "exponent_model"], rows)], ""


_CURVE_SCHEMA = _COMMON | {
    "hurst": Field("float", 0.5, _hurst_open),
    "sigma": Field("float", 1.0, _positive),
    "k": Field("float", 1.0, _positive),
    "khat": Field("float", 1.0, _positive),
    "q_min": Field("float", 1e-2, _positive),
    "q_max": Field("float", 1e4, _positive),
    "n_points": Field("int", 25, lambda v: None if v >= 3 else "must be >= 3"),
}


def _run_impact_verify(cfg: dict[str, Any], out: Path):
    inversion_rows = []
    exponent_rows = []
    grid = _log_grid(cfg["q_min"], cfg["q_max"], cfg["n_points"])
    for hurst in cfg["hursts"]:
        model = _impact_model(cfg, hurst)
        for q in cfg["q_values"]:
            dp = impact.optimal_impact_fou(q, model)
            q_rec = impact.optimal_size_numeric(dp, model)
            inversion_rows.append([hurst, q, dp, q_rec, abs(q_rec - q) / q])
        points = [impact.ImpactPoint(q, impact.optimal_impact_fou(q, model))
                  for q in grid]
        slope = impact.impact_exponent(points)
        target = 2.0 * hurst - 0.5
        exponent_rows.append([hurst, slope, target, abs(slope - target)])
    return [
        write_csv(out / "impact_verify.csv",
                  ["hurst", "q", "delta_p", "q_recovered", "rel_err"],
                  inversion_rows),
        write_csv(out / "impact_exponent.csv",
                  ["hurst", "slope_fit", "slope_model", "abs_err"],
                  exponent_rows),
    ], ""


_VERIFY_SCHEMA = _CURVE_SCHEMA | {
    "hursts": Field("floats", "0.3,0.5,0.7", _hurst_list),
    "q_values": Field("floats", "0.1,1.0,10.0,100.0", _positive_list),
}
_VERIFY_SCHEMA.pop("hurst")


def _run_cpmm_compare(cfg: dict[str, Any], out: Path):
    pool = cpmm.PoolState(cfg["reserve_x"], cfg["reserve_y"])
    compare_rows = []
    trace_rows = [[0, "init", pool.reserve_x, pool.reserve_y, cpmm.spot_price(pool)]]
    step = 0
    for u in cfg["u_values"]:
        dx = u * pool.reserve_x
        exact = cpmm.exact_relative_impact(pool, dx)
        linear = cpmm.linearized_relative_impact(pool, dx)
        compare_rows.append([u, dx, exact, linear, abs(exact - linear), 3.5 * u * u])
        after, dy = cpmm.swap_x_for_y(pool, dx)
        step += 1
        trace_rows.append([step, "swap_x_for_y", after.reserve_x, after.reserve_y,
                           cpmm.spot_price(after)])
        back, _ = cpmm.swap_y_for_x(after, dy)
        step += 1
        trace_rows.append([step, "swap_y_for_x", back.reserve_x, back.reserve_y,
                           cpmm.spot_price(back)])
    return [
        write_csv(out / "cpmm_compare.csv",
                  ["u", "dx", "exact_impact", "linear_impact", "abs_err",
                   "quad_bound"], compare_rows),
        write_csv(out / "pool_trace.csv",
                  ["step", "action", "reserve_x", "reserve_y", "spot_price"],
                  trace_rows),
    ], ""


_CPMM_SCHEMA = _COMMON | {
    "reserve_x": Field("float", 100.0, _positive),
    "reserve_y": Field("float", 100.0, _positive),
    "u_values": Field("floats", "0.01,0.02,0.05,0.1",
                      lambda vs: None if vs and all(0 < u < 1 for u in vs)
                      else "entries must be in (0, 1)"),
}


_STAGE3_MODES = {"exact": Stage3Formula.EXACT_INVARIANT,
                 "original-x": Stage3Formula.ORIGINAL_X}


def _run_cycle_run(cfg: dict[str, Any], out: Path):
    try:
        config = CycleConfig(
            x0=cfg["x0"], y0=cfg["y0"], alpha=cfg["alpha"], m=cfg["m"],
            sigma_amt=cfg["sigma_amt"], closure=cfg["closure"],
            g_amt=None if cfg["closure"] else cfg["g_amt"],
            h_amt=None if cfg["closure"] else cfg["h_amt"])
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc
    report = run_cycle(config, _STAGE3_MODES[cfg["stage3_mode"]])
    rows = [[s.stage.value, s.pool.reserve_x, s.pool.reserve_y,
             s.inside_x, s.inside_y, s.outside_x, s.outside_y]
            for s in report.snapshots]
    path = out / "cycle_report.csv"
    write_csv(path, ["stage", "pool_x", "pool_y", "inside_x", "inside_y",
                     "outside_x", "outside_y"], rows)
    summary = ("# summary work_analogue={} gross_short_x={} gross_short_y={} "
               "g_amt={} h_amt={}\n").format(
        fmt(report.work_analogue), fmt(report.gross_short_x),
        fmt(report.gross_short_y), fmt(report.g_amt), fmt(report.h_amt))
    path.write_text(path.read_text() + summary, newline="\n")
    return [path], ""


_CYCLE_SCHEMA = _COMMON | {
    "x0": Field("float", 100.0, _positive),
    "y0": Field("float", 100.0, _positive),
    "alpha": Field("float", 10.0, _positive),
    "m": Field("float", 9.0),
    "sigma_amt": Field("float", 1.0),
    "stage3_mode": Field("str", "exact",
                         lambda v: None if v in _STAGE3_MODES
                         else "must be exact or original-x"),
    "closure": Field("bool", True),
    "g_amt": Field("float", 0.0),
    "h_amt": Field("float", 0.0),
}


def _run_catbond_optimize(cfg: dict[str, Any], out: Path):
    try:
        bond = catbond.BondSpec(default_prob_q=cfg["q"], return_r=cfg["r"])
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc
    single = catbond.single_bond_fraction(bond)
    single_num = catbond.single_bond_fraction_numeric(bond)
    two_series = catbond.two_bond_fraction_series(bond)
    two_num = catbond.two_bond_fraction_numeric(bond)
    rows = [[bond.default_prob_q, bond.return_r,
             single.fraction, single_num.fraction,
             abs(single.fraction - single_num.fraction),
             two_series.fraction, two_num.fraction,
             abs(two_series.fraction - two_num.fraction)]]
    return [write_csv(out / "catbond_optimize.csv",
                      ["q", "r", "f_analytic", "f_numeric", "single_abs_err",
                       "f_two_series", "f_two_numeric", "two_abs_err"],
                      rows)], ""


_CATBOND_OPT_SCHEMA = _COMMON | {
    "q": Field("float", 0.2, lambda v: None if 0.0 <= v < 1.0 else "must be in [0, 1)"),
    "r": Field("float", 1.0, _positive),
}


def _run_catbond_sensitivity(cfg: dict[str, Any], out: Path):
    sweep_rows = []
    iso_rows = []
    delta_r = cfg["delta_r"]
    for q in cfg["q_values"]:
        for r in cfg["r_values"]:
            bond = catbond.BondSpec(default_prob_q=q, return_r=r)
            analytic = catbond.single_bond_fraction(bond)
            numeric = catbond.single_bond_fraction_numeric(bond)
            series = catbond.two_bond_fraction_series(bond)
            sweep_rows.append([q, r, analytic.fraction, numeric.fraction,
                               series.fraction,
                               abs(analytic.fraction - numeric.fraction)])
            shift = catbond.iso_fraction_shift(bond, delta_r)
            shifted = catbond.single_bond_fraction(
                catbond.BondSpec(q + shift.delta_exact, r + delta_r))
            iso_rows.append([q, r, delta_r, shift.delta_exact, shift.first_order,
                             shift.geometric_series,
                             abs(shifted.fraction - analytic.fraction)])
    return [
        write_csv(out / "catbond_sensitivity.csv",
                  ["q", "r", "f_analytic", "f_numeric", "f_series", "abs_err"],
                  sweep_rows),
        write_csv(out / "iso_shift.csv",
                  ["q", "r", "delta_r", "delta_exact", "delta_first_order",
                   "delta_geometric", "roundtrip_abs_err"], iso_rows),
    ], ""


_CATBOND_SENS_SCHEMA = _COMMON | {
    "q_values": Field("floats", "0.01,0.1,0.3",
                      lambda vs: None if vs and all(0.0 <= q < 1.0 for q in vs)
                      else "entries must be in [0, 1)"),
    "r_values": Field("floats", "0.1,0.5,1.0,2.0", _positive_list),
    "delta_r": Field("float", 0.01),
}


_RUNNERS: dict[str, tuple[dict[str, Field], Callable[[dict, Path], tuple]]] = {
    "fbm-gen": (_FBM_SCHEMA, _run_fbm_gen),
    "impact-curve": (_CURVE_SCHEMA, _run_impact_curve),
    "impact-verify": (_VERIFY_SCHEMA, _run_impact_verify),
    "cpmm-compare": (_CPMM_SCHEMA, _run_cpmm_compare),
    "cycle-run": (_CYCLE_SCHEMA, _run_cycle_run),
    "catbond-optimize": (_CATBOND_OPT_SCHEMA, _run_catbond_optimize),
    "catbond-sensitivity": (_CATBOND_SENS_SCHEMA, _run_catbond_sensitivity),
}

assert set(_RUNNERS) == set(EXPERIMENT_NAMES)


def run_experiment(name: str, config: Mapping[str, Value],
                   out_dir: str | Path = ".") -> RunManifest:
    """Run one named experiment deterministically and write its manifest.

    ``manifest.txt`` depends only on the experiment, config and seed, so
    reruns write it byte for byte again; the wall-clock duration goes to
    ``run.json`` beside it.
    """
    if name not in _RUNNERS:
        raise ConfigError(f"unknown experiment {name!r}; choose from {EXPERIMENT_NAMES}")
    schema, runner = _RUNNERS[name]
    cfg = validate_config(config, schema, name)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    files, fbm_method = runner(cfg, out)
    duration = time.perf_counter() - start
    outputs = []
    for path in files:
        if not path.is_file() or path.stat().st_size == 0:
            raise OSError(f"experiment output {path} is missing or empty")
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        outputs.append((path.name, digest, path.stat().st_size))
    manifest = RunManifest(
        experiment=name, config=cfg, seed=cfg["seed"],
        fbm_method=fbm_method or "n/a", prng=PRNG_LABEL,
        normal_transform=NORMAL_LABEL, version=__version__,
        outputs=outputs)
    (out / "manifest.txt").write_text(manifest.to_text(), newline="\n")
    (out / "run.json").write_text(
        json.dumps({"duration_seconds": duration}, indent=2) + "\n", newline="\n")
    return manifest
