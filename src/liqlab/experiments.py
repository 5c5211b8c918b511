"""Named experiments: seeded runs that write CSV artifacts plus a manifest.

Every float is serialized as ``%.17g`` (17 significant digits) with LF
line endings, so reruns with the same configuration and seed are
byte-identical.  Float tables are formatted in numpy, in blocks of about
2**14 cells: a cell that ``%.17g`` writes in fixed notation (0, and
1e-4 <= |x| < 1e16) gets its digits from an exact decimal scaling, and
every other cell gets its text from :func:`fmt`.  ``fbm-gen`` formats its
shared time column once and hands that text to each file as column 0.
The manifest lists every output file with its SHA-256 checksum; facts
that change from run to run (the duration) go to ``run.json`` instead.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from pathlib import Path
from typing import Any, Callable, Mapping

import numpy as np

from . import __version__
from . import catbond, cpmm, impact
from .config import Field, Value, validate_config
from .cycle import STAGE3_RULES, STAGES, CycleConfig, run_cycle
from .errors import ConfigError, DomainError
from .paths import FBM_METHODS, MAX_ARRAY_BYTES, NORMAL_LABEL, PRNG_LABEL, iter_fbm


def fmt(value: Any) -> str:
    """Serialize one CSV cell; floats gain full round-trip precision."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


# A float table is formatted this many cells at a time, so write_csv's
# scratch memory grows with the table only by its first column's records,
# 40 bytes a row.
_BLOCK_CELLS = 2 ** 14

# A cell's text is first laid out in a record of five uint64 words, padded
# with NUL bytes that one bytes.translate drops.  Byte 0 holds the sign and
# bytes 1-5 the "0.000" that starts a number below 1.  Digit j of the 17
# is byte 6 + 2j, and the slot after it, byte 7 + 2j, holds the point when
# j is the last integer digit.  The last slot, byte 39, holds the separator.
# A cell outside the fast domain has its fmt text, at most 24 bytes, from
# byte 0 instead.
_RECORD = 40
_SPLITTER = 134217729.0  # 2**27 + 1 splits a float64 into two 26-bit halves


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    scaled = _SPLITTER * a
    high = scaled - (scaled - a)
    return high, a - high


# 10**s is an exact float64 up to s = 22
_POW10 = np.array([float(10 ** s) for s in range(22)])
_POW10_HI, _POW10_LO = _split(_POW10)


def _times_pow10(a: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``a * 10**s`` exactly, as ``hi + lo`` with ``hi`` the rounded product.

    Dekker's two-product (Dekker 1971): the four half products are exact.
    """
    hi = a * _POW10[s]
    a_hi, a_lo = _split(a)
    p_hi, p_lo = _POW10_HI[s], _POW10_LO[s]
    lo = a_hi * p_hi
    lo -= hi
    lo += a_hi * p_lo
    lo += a_lo * p_hi
    lo += a_lo * p_lo
    return hi, lo


def _record_tables() -> tuple[np.ndarray, ...]:
    digits = np.arange(48, 58, dtype=np.uint8)
    groups = np.zeros((10, 10, 10, 10, 8), np.uint8)  # by the group's digits
    for place in range(4):
        groups[..., 2 * place] = digits.reshape((10,) + (1,) * (3 - place))
    lead = np.zeros((5, 2, 10, 8), np.uint8)
    lead[..., 6] = digits
    lead[:, 1, :, 0] = ord("-")
    for zeros in range(4):
        lead[zeros + 1, ..., 1:3 + zeros] = list(b"0.000"[:2 + zeros])
    keep = np.zeros((18, _RECORD), np.uint8)
    for kept in range(1, 18):
        keep[kept, :5 + 2 * kept] = 255
    return (groups.reshape(-1, 8).view(np.uint64)[:, 0],
            lead.reshape(-1, 8).view(np.uint64)[:, 0], keep.view(np.uint64))


# The word of a 4-digit group and its slots; the first word, by 1 - k (the
# "0.000" prefix, up to 4), sign and first digit; the mask that keeps the
# first `kept` digits, by `kept`.
_GROUPS, _LEAD, _KEEP = _record_tables()

# The doubles nearest 10**j, j = -4..15.  Those for j >= 0 are exact, and
# those for j < 0 lie above 10**j, so a double is >= _DECADES[j + 4]
# exactly when it is >= 10**j.
_DECADES = np.array([float(f"1e{j}") for j in range(-4, 16)])


def _records(x: np.ndarray) -> np.ndarray:
    """The ``(len(x), 5)`` uint64 records of the ``%.17g`` text of ``x``.

    A cell in the fast domain, 0 and 1e-4 <= |x| < 1e16, is written in
    fixed notation.  With k its digits before the point, n = |x| * 10**(17-k)
    rounded half to even is the 17-digit integer of its text; any other cell
    gets :func:`fmt` text.
    """
    a = np.abs(x)
    zero = a == 0
    fast = zero | ((a >= 1e-4) & (a < 1e16))
    a[zero | ~fast] = 1.0
    # 10**(k-1) <= a < 10**k, so the exact product hi + lo lies in [1e16, 1e17)
    k = np.searchsorted(_DECADES, a, side="right") - 4
    hi, lo = _times_pow10(a, 17 - k)
    # hi is an even integer >= 1e16, so rounding lo half to even rounds
    # hi + lo half to even, as %.17g does.  n stays < 1e17: doubles are
    # 1.1e-16 apart or more (relative), far wider than half a 17th digit,
    # so none below a power of ten rounds up to it (tests check each power)
    n = hi.astype(np.int64)
    n += np.rint(lo).astype(np.int64)
    n[zero] = 0
    del a, hi, lo  # before the records, to keep the block's peak down
    # trailing zeros after the point are dropped, and a point with no
    # digit after it; kept is the number of digits left
    ends = np.flatnonzero(n % 10 == 0)
    tails = n[ends]
    kept = np.full(len(ends), 17)
    for z in (16, 8, 4, 2, 1):
        zeros = tails % 10 ** z == 0
        tails[zeros] //= 10 ** z
        kept -= z * zeros
    kept = np.maximum(k[ends], kept)
    records = np.empty((len(x), 5), np.uint64)
    for word in range(4, 0, -1):
        first = n // 10_000
        records[:, word] = _GROUPS[n - first * 10_000]
        n = first
    records[:, 0] = _LEAD[n + 10 * (np.signbit(x) + 2 * np.clip(1 - k, 0, 4))]
    # the point follows digit k - 1; a number below 1 has it in its prefix
    # and puts it in byte 39, which the separator overwrites
    point = np.where(k >= 1, 5 + 2 * k, _RECORD - 1)
    point += _RECORD * np.arange(len(x))
    records.view(np.uint8).reshape(-1)[point] = ord(".")
    records[ends] &= _KEEP[kept]
    slow = np.flatnonzero(~fast)
    records.view(f"S{_RECORD}")[slow, 0] = [fmt(v).encode() for v in x[slow].tolist()]
    return records


def _column_records(x: np.ndarray) -> np.ndarray:
    """The records of a float64 column, 40 bytes a row, formatted in blocks."""
    records = np.empty((len(x), 5), np.uint64)
    for start in range(0, len(x), _BLOCK_CELLS):
        records[start:start + _BLOCK_CELLS] = _records(x[start:start + _BLOCK_CELLS])
    return records


def write_csv(path: Path, header: list[str], rows: list[list[Any]] | np.ndarray,
              first: np.ndarray | None = None) -> Path:
    """Write ``header`` and ``rows`` as CSV with LF line endings.

    Every cell gets the text :func:`fmt` gives it.  A float table arrives as
    a 2-d float64 array and is formatted in numpy, in blocks of about 2**14
    cells that go to the file one by one.  Cells in the fast domain, 0 and
    1e-4 <= |x| < 1e16, which ``%.17g`` writes in fixed notation, get their
    digits from an exact decimal scaling of the whole block; every other
    cell goes through :func:`fmt`.  Column 0's records, 40 bytes a row, are
    made for the whole table before its first block.  Given ``first``, the
    records of column 0 from :func:`_column_records`, as when files share a
    first column, ``rows`` holds only the columns after it.  A list of rows
    is for tables with text cells; it is formatted cell by cell.
    """
    if not isinstance(rows, np.ndarray):
        body = "".join(",".join(map(fmt, row)) + "\n" for row in rows)
        path.write_text(",".join(header) + "\n" + body, newline="\n")
        return path
    if rows.dtype != np.float64 or rows.ndim != 2 or rows.shape[1] < 1:
        raise TypeError(f"expected a 2-d float64 array with at least one "
                        f"column, got {rows.dtype} with shape {rows.shape}")
    if first is None:
        first, rows = _column_records(rows[:, 0]), rows[:, 1:]
    n_rows, n_cols = len(rows), 1 + rows.shape[1]
    step = max(1, _BLOCK_CELLS // n_cols)
    with path.open("wb") as f:
        f.write((",".join(header) + "\n").encode())
        for start in range(0, n_rows, step):
            block = rows[start:start + step]
            records = np.empty((len(block), n_cols, 5), np.uint64)
            records[:, 0] = first[start:start + step]
            records[:, 1:] = _records(block.ravel()).reshape(len(block), -1, 5)
            separators = records.view(np.uint8)[:, :, -1]
            separators[:, :-1] = ord(",")
            separators[:, -1] = ord("\n")
            f.write(records.tobytes().translate(None, b"\0"))
    return path


def _manifest_text(experiment: str, config: Mapping[str, Any], fbm_method: str,
                   outputs: list[tuple[str, str, int]]) -> str:
    lines = [
        f"experiment={experiment}",
        f"version={__version__}",
        f"seed={config['seed']}",
        f"fbm_method={fbm_method}",
        f"prng={PRNG_LABEL}",
        f"normal_transform={NORMAL_LABEL}",
    ]
    for key in sorted(config):
        if key != "seed":
            lines.append(f"config.{key}={fmt(config[key])}")
    for i, (name, digest, size) in enumerate(outputs):
        lines.append(f"output.{i}.path={name}")
        lines.append(f"output.{i}.sha256={digest}")
        lines.append(f"output.{i}.bytes={size}")
    return "\n".join(lines) + "\n"


def _positive(value: float) -> str | None:
    return None if value > 0 else "must be positive"


def _normal(value: float) -> str | None:
    return None if value >= sys.float_info.min else (
        f"must be a positive normal float, at least {sys.float_info.min!r}")


def _open_unit(value: float) -> str | None:
    return None if 0.0 < value < 1.0 else "must be in the open interval (0, 1)"


def _non_negative(value: int) -> str | None:
    return None if value >= 0 else "must be >= 0"


def _probability(value: float) -> str | None:
    return None if 0.0 <= value < 1.0 else "must be in [0, 1)"


def _one_of(*choices: str) -> Callable[[str], str | None]:
    def check(value: str) -> str | None:
        return None if value in choices else f"must be one of {', '.join(choices)}"
    return check


def _too_big(count: int, bytes_each: int) -> str | None:
    """The problem with ``count`` units of ``bytes_each`` bytes, if any.

    ``bytes_each`` is the run's peak memory per unit, measured with
    tracemalloc; the whole count must fit in ``MAX_ARRAY_BYTES``.
    """
    needed = count * bytes_each
    if needed > MAX_ARRAY_BYTES:
        return (f"needs about {needed} bytes at {bytes_each} bytes each, "
                f"above the limit of {MAX_ARRAY_BYTES} bytes")
    return None


def _sized(minimum: int, bytes_each: int) -> Callable[[int], str | None]:
    """Check for a count of at least ``minimum`` units of ``bytes_each``:
    ``fbm-gen``'s ``n_steps`` and ``n_paths``, and the impact experiments'
    ``n_points``."""
    def check(count: int) -> str | None:
        return f"must be >= {minimum}" if count < minimum else _too_big(count, bytes_each)
    return check


def _check_grid(cfg: Mapping[str, Any], rows: str, cols: str, bytes_each: int) -> None:
    """Stop a run whose ``rows`` x ``cols`` grid of list entries is too big."""
    count = len(cfg[rows]) * len(cfg[cols])
    problem = _too_big(count, bytes_each)
    if problem:
        raise ConfigError(f"keys {rows!r} x {cols!r}: {problem} "
                          f"(got {len(cfg[rows])} x {len(cfg[cols])} rows)")


_COMMON = {"seed": Field(0, _non_negative)}


def _log_grid(q_min: float, q_max: float, n_points: int) -> np.ndarray:
    if not q_min < q_max:
        raise ConfigError(f"q_min must be below q_max, got {q_min} >= {q_max}")
    return np.logspace(np.log10(q_min), np.log10(q_max), n_points)


def _run_fbm_gen(cfg: dict[str, Any], out: Path):
    paths = iter_fbm(cfg["n_paths"], cfg["n_steps"], cfg["dt"], cfg["hurst"],
                     cfg["seed"], method=cfg["method"])
    files = []
    for i, path in enumerate(paths):
        if i == 0:  # after the first draw, not beside the generator's scratch
            times = _column_records(path.times)
        files.append(write_csv(out / f"fbm_{i:04d}.csv", ["t", "value"],
                               path.values[:, None], times))
    return files, path.meta


_FBM_SCHEMA = _COMMON | {
    "n_steps": Field(1024, _sized(1, 200)),
    "dt": Field(1.0 / 1024.0, _positive),
    "hurst": Field(0.5, _open_unit),
    "n_paths": Field(1, _sized(1, 2048)),
    "method": Field("auto", _one_of(*FBM_METHODS)),
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
                      ["q", "delta_p", "exponent_model"], np.array(rows))], ""


_CURVE_SCHEMA = _COMMON | {
    "hurst": Field(0.5, _open_unit),
    "sigma": Field(1.0, _positive),
    "k": Field(1.0, _positive),
    "khat": Field(1.0, _positive),
    "q_min": Field(1e-2, _positive),
    "q_max": Field(1e4, _positive),
    "n_points": Field(25, _sized(3, 350)),
}


def _run_impact_verify(cfg: dict[str, Any], out: Path):
    _check_grid(cfg, "hursts", "q_values", 400)
    inversion_rows = []
    exponent_rows = []
    grid = _log_grid(cfg["q_min"], cfg["q_max"], cfg["n_points"])
    for hurst in cfg["hursts"]:
        model = _impact_model(cfg, hurst)
        for q in cfg["q_values"]:
            dp = impact.optimal_impact_fou(q, model)
            q_rec = impact.optimal_size_numeric(dp, model)
            inversion_rows.append([hurst, q, dp, q_rec, abs(q_rec - q) / q])
        slope = impact.impact_exponent(
            grid, [impact.optimal_impact_fou(q, model) for q in grid])
        target = 2.0 * hurst - 0.5
        exponent_rows.append([hurst, slope, target, abs(slope - target)])
    return [
        write_csv(out / "impact_verify.csv",
                  ["hurst", "q", "delta_p", "q_recovered", "rel_err"],
                  np.array(inversion_rows)),
        write_csv(out / "impact_exponent.csv",
                  ["hurst", "slope_fit", "slope_model", "abs_err"],
                  np.array(exponent_rows)),
    ], ""


_VERIFY_SCHEMA = _CURVE_SCHEMA | {
    "hursts": Field((0.3, 0.5, 0.7), _open_unit),
    "q_values": Field((0.1, 1.0, 10.0, 100.0), _positive),
}
_VERIFY_SCHEMA.pop("hurst")


def _run_cpmm_compare(cfg: dict[str, Any], out: Path):
    pool = cpmm.PoolState(cfg["reserve_x"], cfg["reserve_y"])
    compare_rows = []
    trace_rows = [[0, "init", pool.reserve_x, pool.reserve_y, cpmm.spot_price(pool)]]
    for u in cfg["u_values"]:
        dx = u * pool.reserve_x
        if not dx >= sys.float_info.min:
            raise ConfigError(f"key 'u_values': the swap u * reserve_x is {dx!r}, "
                              f"below the smallest normal float (got {u!r})")
        exact = cpmm.exact_relative_impact(pool, dx)
        linear = cpmm.linearized_relative_impact(pool, dx)
        compare_rows.append([u, dx, exact, linear, abs(exact - linear), 3.5 * u * u])
        after, dy = cpmm.swap_x_for_y(pool, dx)
        if not dy > 0.0:
            raise ConfigError(f"key 'u_values': the swap leaves the Y reserve "
                              f"unmoved, so it cannot be swapped back (got {u!r})")
        trace_rows.append([len(trace_rows), "swap_x_for_y", after.reserve_x,
                           after.reserve_y, cpmm.spot_price(after)])
        back, _ = cpmm.swap_y_for_x(after, dy)
        trace_rows.append([len(trace_rows), "swap_y_for_x", back.reserve_x,
                           back.reserve_y, cpmm.spot_price(back)])
    return [
        write_csv(out / "cpmm_compare.csv",
                  ["u", "dx", "exact_impact", "linear_impact", "abs_err",
                   "quad_bound"], np.array(compare_rows)),
        write_csv(out / "pool_trace.csv",
                  ["step", "action", "reserve_x", "reserve_y", "spot_price"],
                  trace_rows),
    ], ""


_CPMM_SCHEMA = _COMMON | {
    "reserve_x": Field(100.0, _normal),
    "reserve_y": Field(100.0, _normal),
    "u_values": Field((0.01, 0.02, 0.05, 0.1), _open_unit),
}


def _run_cycle_run(cfg: dict[str, Any], out: Path):
    if cfg["closure"] and (cfg["g_amt"] or cfg["h_amt"]):
        raise ConfigError(f"keys 'g_amt' and 'h_amt' apply only with closure=false "
                          f"(got g_amt={cfg['g_amt']!r}, h_amt={cfg['h_amt']!r})")
    try:
        config = CycleConfig(
            x0=cfg["x0"], y0=cfg["y0"], alpha=cfg["alpha"], m=cfg["m"],
            sigma_amt=cfg["sigma_amt"],
            removal=None if cfg["closure"] else (cfg["g_amt"], cfg["h_amt"]),
            stage3_rule=cfg["stage3_mode"])
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc
    report = run_cycle(config)
    rows = [[stage, s.pool.reserve_x, s.pool.reserve_y,
             s.inside_x, s.inside_y, s.outside_x, s.outside_y]
            for stage, s in zip(STAGES, report.snapshots)]
    # a one-cell row is its text: the summary is the file's last line
    rows.append(["# summary work_analogue={} gross_short_x={} gross_short_y={} "
                 "g_amt={} h_amt={}".format(
                     fmt(report.work_analogue), fmt(report.gross_short_x),
                     fmt(report.gross_short_y), fmt(report.g_amt), fmt(report.h_amt))])
    return [write_csv(out / "cycle_report.csv",
                      ["stage", "pool_x", "pool_y", "inside_x", "inside_y",
                       "outside_x", "outside_y"], rows)], ""


_CYCLE_SCHEMA = _COMMON | {
    "x0": Field(100.0, _positive),
    "y0": Field(100.0, _positive),
    "alpha": Field(10.0, _positive),
    "m": Field(9.0),
    "sigma_amt": Field(1.0),
    "stage3_mode": Field("exact", _one_of(*STAGE3_RULES)),
    "closure": Field(True),
    "g_amt": Field(0.0),
    "h_amt": Field(0.0),
}


def _run_catbond_optimize(cfg: dict[str, Any], out: Path):
    bond = catbond.BondSpec(default_prob_q=cfg["q"], return_r=cfg["r"])
    single = catbond.single_bond_fraction(bond)
    single_num = catbond.single_bond_fraction_numeric(bond)
    two_series = catbond.two_bond_fraction_series(bond)
    two_num = catbond.two_bond_fraction_numeric(bond)
    rows = [[bond.default_prob_q, bond.return_r,
             single, single_num, abs(single - single_num),
             two_series, two_num, abs(two_series - two_num)]]
    return [write_csv(out / "catbond_optimize.csv",
                      ["q", "r", "f_analytic", "f_numeric", "single_abs_err",
                       "f_two_series", "f_two_numeric", "two_abs_err"],
                      np.array(rows))], ""


_CATBOND_OPT_SCHEMA = _COMMON | {
    "q": Field(0.2, _probability),
    "r": Field(1.0, _positive),
}


def _run_catbond_sensitivity(cfg: dict[str, Any], out: Path):
    _check_grid(cfg, "q_values", "r_values", 700)
    delta_r = cfg["delta_r"]
    r_min = min(cfg["r_values"])
    if not delta_r > -r_min:
        raise ConfigError(f"key 'delta_r': r + delta_r must stay positive, "
                          f"and the smallest r is {r_min!r} (got {delta_r!r})")
    sweep_rows = []
    iso_rows = []
    for q in cfg["q_values"]:
        for r in cfg["r_values"]:
            bond = catbond.BondSpec(default_prob_q=q, return_r=r)
            analytic = catbond.single_bond_fraction(bond)
            numeric = catbond.single_bond_fraction_numeric(bond)
            series = catbond.two_bond_fraction_series(bond)
            sweep_rows.append([q, r, analytic, numeric, series,
                               abs(analytic - numeric)])
            shift = catbond.iso_fraction_shift(bond, delta_r)
            # the shifted q may pass 1 where the fraction clamps to 0
            shifted = catbond._single_fraction(q + shift.delta_exact, r + delta_r)
            iso_rows.append([q, r, delta_r, shift.delta_exact, shift.first_order,
                             shift.geometric_series,
                             abs(shifted - analytic)])
    return [
        write_csv(out / "catbond_sensitivity.csv",
                  ["q", "r", "f_analytic", "f_numeric", "f_series", "abs_err"],
                  np.array(sweep_rows)),
        write_csv(out / "iso_shift.csv",
                  ["q", "r", "delta_r", "delta_exact", "delta_first_order",
                   "delta_geometric", "roundtrip_abs_err"], np.array(iso_rows)),
    ], ""


_CATBOND_SENS_SCHEMA = _COMMON | {
    "q_values": Field((0.01, 0.1, 0.3), _probability),
    "r_values": Field((0.1, 0.5, 1.0, 2.0), _positive),
    "delta_r": Field(0.01),
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
EXPERIMENT_NAMES = tuple(_RUNNERS)


def run_experiment(name: str, config: Mapping[str, Value],
                   out_dir: str | Path = ".") -> list[tuple[str, str, int]]:
    """Run one named experiment deterministically and write its manifest.

    Returns the ``(name, sha256, bytes)`` of each output, in the order
    ``manifest.txt`` lists them.  ``manifest.txt`` depends only on the
    experiment, config and seed, so reruns write it byte for byte again;
    the wall-clock duration goes to ``run.json`` beside it.
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
        data = path.read_bytes() if path.is_file() else b""
        if not data:
            raise OSError(f"experiment output {path} is missing or empty")
        outputs.append((path.name, hashlib.sha256(data).hexdigest(), len(data)))
    (out / "manifest.txt").write_text(
        _manifest_text(name, cfg, fbm_method or "n/a", outputs), newline="\n")
    (out / "run.json").write_text(
        json.dumps({"duration_seconds": duration}, indent=2) + "\n", newline="\n")
    return outputs
