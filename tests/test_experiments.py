import contextlib
import hashlib
import io
import json
import math
import random
import re
import shlex
import sys
import tempfile
import time
import tracemalloc
import warnings
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from liqlab import catbond, cli, errors, experiments, paths
from liqlab.cli import main
from liqlab.config import parse_config, validate_config
from liqlab.errors import ConfigError
from liqlab.experiments import (_RUNNERS, EXPERIMENT_NAMES, fmt, run_experiment,
                                write_csv)
from liqlab.paths import generate_fbm

ROOT = Path(__file__).resolve().parent.parent
# README's sample commands: each runs an experiment from a config in configs/
README_COMMANDS = [shlex.split(line)[1:]
                   for line in (ROOT / "README.md").read_text().splitlines()
                   if line.startswith("liqlab ") and "--config configs/" in line]


def read_csv(path):
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestFmt:
    def test_floats_round_trip(self):
        for x in (1 / 3, 1e-300, 123456.789, -0.1):
            assert float(fmt(x)) == x

    def test_ints_and_bools(self):
        assert fmt(5) == "5"
        assert fmt(True) == "true"


def reference_csv(header, rows):
    """The per-cell writer: every cell goes through fmt on its own."""
    lines = [",".join(header)]
    lines.extend(",".join(fmt(cell) for cell in row) for row in rows)
    return ("\n".join(lines) + "\n").encode()


EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308,
               2.2250738585072014e-308, 1.7976931348623157e308,
               -1.7976931348623157e308, math.nan, math.inf, -math.inf,
               1.0 / 3.0, 0.1, 1e16, 123456789012345678.0]
float64s = st.floats(allow_nan=True, allow_infinity=True,
                     allow_subnormal=True) | st.sampled_from(EDGE_FLOATS)
cells = (float64s | st.integers(-10 ** 20, 10 ** 20) | st.booleans()
         | st.text(alphabet="ab_%s1.", max_size=6))


# rows in one block of a three-column float table
BLOCK_ROWS_OF_3 = experiments._BLOCK_CELLS // 3


class TestWriteCsv:
    @given(rows=st.lists(st.lists(float64s, min_size=3, max_size=3), max_size=20))
    @example(rows=[[x, -x, x / 3.0] for x in EDGE_FLOATS])
    def test_float_table_matches_per_cell_reference(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("csv") / "t.csv"
        expected = reference_csv(["a", "b", "c"], rows)
        assert write_csv(path, ["a", "b", "c"], rows).read_bytes() == expected
        array = np.array(rows, dtype=np.float64).reshape(len(rows), 3)
        assert write_csv(path, ["a", "b", "c"], array).read_bytes() == expected

    @given(rows=st.lists(st.lists(cells, min_size=4, max_size=4), max_size=12))
    def test_mixed_cells_match_per_cell_reference(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("csv") / "t.csv"
        header = ["w", "x", "y", "z"]
        assert write_csv(path, header, rows).read_bytes() == reference_csv(header, rows)

    def test_pool_trace_and_cycle_report_shapes(self, tmp_path):
        pool_trace = [[0, "init", 100.0, 100.0, 1.0],
                      [1, "swap_x_for_y", 101.0, 99.00990099009901, 0.9802960494069208],
                      [2, "swap_y_for_x", 100.00000000000001, 100.0, -0.0]]
        cycle_report = [["Initial", 100.0, 100.0, 0.0, 0.0, 0.0, 0.0],
                        ["AfterStage1", 90.0, 1000.0 / 9.0, 0.0, 0.0, 10.0, -1000.0 / 9.0 + 100.0],
                        ["AfterStage2", 81.0, 100.0, 9.0, 100.0 / 9.0, 1.0, 5e-324],
                        ["# summary work_analogue=1.5"]]
        for rows in (pool_trace, cycle_report):
            header = [f"c{j}" for j in range(len(rows[0]))]
            path = write_csv(tmp_path / "t.csv", header, rows)
            assert path.read_bytes() == reference_csv(header, rows)

    def test_empty_table_is_header_only(self, tmp_path):
        assert write_csv(tmp_path / "t.csv", ["a", "b"], []).read_bytes() == b"a,b\n"

    def test_rejects_non_float64_array(self, tmp_path):
        with pytest.raises(TypeError):
            write_csv(tmp_path / "t.csv", ["a"], np.zeros((2, 1), dtype=np.float32))
        with pytest.raises(TypeError):
            write_csv(tmp_path / "t.csv", [], np.zeros((2, 0)))

    def test_arrays_sharing_a_first_column(self, tmp_path):
        # both writes take the first column's text from one formatting and
        # get only the columns after it; the longer table spans three blocks
        for n_rows in (5, 2 * BLOCK_ROWS_OF_3 + 1):
            t = np.arange(n_rows) * 0.1
            first = experiments._column_records(t)
            for values in ([0.0, 1 / 3, -2.5, 1e300, 5e-324],
                           [math.nan, math.inf, -0.0, 7.0, 0.1]):
                values = np.resize(values, n_rows)
                rows = np.column_stack((t, values, np.negative(values)))
                path = write_csv(tmp_path / "t.csv", ["t", "a", "b"], rows[:, 1:], first)
                assert path.read_bytes() == reference_csv(["t", "a", "b"], rows.tolist())

    @pytest.mark.parametrize("n_first", [1, 2])
    def test_first_column_of_another_length_is_refused(self, tmp_path, n_first):
        # one record would otherwise fill every row, and two fail in the
        # block loop after the header is written
        first = experiments._column_records(np.arange(n_first) * 0.5)
        path = tmp_path / "t.csv"
        with pytest.raises(ValueError, match=f"first has {n_first} records for 3 rows"):
            write_csv(path, ["t", "v"], np.array([[1.0], [2.0], [3.0]]), first)
        assert not path.exists()

    def test_zero_and_negative_zero_first_columns(self, tmp_path):
        for first in (0.0, -0.0, 0.0):
            rows = np.array([[first, 1.5], [first, -0.0]])
            path = write_csv(tmp_path / "t.csv", ["t", "v"], rows)
            assert path.read_bytes() == reference_csv(["t", "v"], rows.tolist())

    @pytest.mark.parametrize("shape", [(4, 1), (1, 1), (0, 1), (0, 3),
                                       (experiments._BLOCK_CELLS + 1, 1),
                                       (BLOCK_ROWS_OF_3 + 1, 3)])
    def test_one_column_and_zero_row_arrays(self, tmp_path, shape):
        rows = np.arange(math.prod(shape), dtype=np.float64).reshape(shape) / 3.0
        header = [f"c{j}" for j in range(shape[1])]
        path = write_csv(tmp_path / "t.csv", header, rows)
        assert path.read_bytes() == reference_csv(header, rows.tolist())

    def test_a_million_cells_match_per_cell_reference(self, tmp_path):
        # random bit patterns reach every exponent, subnormals, nan and inf;
        # log-uniform magnitudes fill the fixed-notation range and its edges
        rng = np.random.default_rng(15)
        bits = rng.integers(0, 2 ** 64, size=100_000, dtype=np.uint64).view(np.float64)
        magnitudes = 10.0 ** rng.uniform(-6.0, 18.0, size=900_000)
        signs = rng.choice([-1.0, 1.0], size=900_000)
        rows = np.concatenate([bits, signs * magnitudes, EDGE_FLOATS]).reshape(-1, 5)
        header = list("abcde")
        path = write_csv(tmp_path / "t.csv", header, rows)
        assert path.read_bytes() == reference_csv(header, rows.tolist())

    def test_powers_of_ten_and_their_neighbours(self, tmp_path):
        cells = []
        for k in range(-5, 19):
            power = float(10 ** k) if k >= 0 else 1.0 / 10 ** -k
            below = math.nextafter(power, 0.0)
            cells += [power, below, math.nextafter(power, math.inf)]
            # the double below a power of ten is further from it than half
            # a 17th digit, so its 17 digits never carry to the power
            assert Decimal(fmt(below)) < Decimal(10) ** k
        rows = np.array(cells).reshape(-1, 3)
        path = write_csv(tmp_path / "t.csv", ["a", "b", "c"], rows)
        assert path.read_bytes() == reference_csv(["a", "b", "c"], rows.tolist())

    def test_decades_bound_each_power_of_ten_exactly(self):
        # a cell's digit count is the number of entries at or below it, so
        # each entry is its power of ten or the first double above it
        decades = experiments._DECADES.tolist()
        for j, decade in zip(range(-4, 17), decades, strict=True):
            below = math.nextafter(decade, 0.0)
            assert Fraction(below) < Fraction(10) ** j <= Fraction(decade)

    def test_seventeen_digit_integers_never_reach_fmt(self, tmp_path, monkeypatch):
        # %.17g writes 1e16 <= |x| < 1e17 in fixed notation: every such
        # double is an even integer of 17 digits, written with no point
        top = math.nextafter(1e17, 0.0)
        magnitudes = np.random.default_rng(32).uniform(1e16, 1e17, size=4090)
        signs = np.resize([1.0, -1.0], magnitudes.size)
        edges = [1e16, -1e16, math.nextafter(1e16, math.inf), top, -top, 5e16]
        rows = np.concatenate([signs * magnitudes, edges]).reshape(-1, 4)
        calls = []

        def spy(value):
            calls.append(value)
            return fmt(value)

        monkeypatch.setattr(experiments, "fmt", spy)
        path = write_csv(tmp_path / "t.csv", list("abcd"), rows)
        assert calls == []
        assert path.read_bytes() == reference_csv(list("abcd"), rows.tolist())

    def test_exact_ties_round_half_to_even(self, tmp_path):
        ties = {1000000000000000.25: "1000000000000000.2",
                1000000000000000.75: "1000000000000000.8",
                -1000000000000001.25: "-1000000000000001.2",
                1000000000000001.75: "1000000000000001.8",
                100000000000000.125: "100000000000000.12",
                100000000000000.375: "100000000000000.38"}
        rows = np.array([[x] for x in ties])
        path = write_csv(tmp_path / "t.csv", ["x"], rows)
        assert path.read_text() == "x\n" + "".join(f"{text}\n" for text in ties.values())
        assert path.read_bytes() == reference_csv(["x"], rows.tolist())

    @pytest.mark.parametrize("n_cols", [1, 2, 3])
    def test_fallback_cells_on_both_sides_of_a_block_boundary(self, tmp_path, n_cols):
        step = experiments._BLOCK_CELLS // n_cols
        rows = np.linspace(0.5, 2.5, (2 * step + 2) * n_cols).reshape(-1, n_cols)
        for row, value in zip(range(step - 2, step + 2), [1e-300, math.nan, -1e20, 5e-324]):
            rows[row, :] = value
        header = [f"c{j}" for j in range(n_cols)]
        path = write_csv(tmp_path / "t.csv", header, rows)
        assert path.read_bytes() == reference_csv(header, rows.tolist())


class TestRunExperiment:
    def test_unknown_experiment(self):
        with pytest.raises(ConfigError, match="unknown experiment"):
            run_experiment("nope", {})

    def test_unknown_key(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown key"):
            run_experiment("fbm-gen", {"bogus": 1}, tmp_path)

    def test_fbm_gen_outputs(self, tmp_path):
        outputs = run_experiment("fbm-gen", {"n_steps": 32, "n_paths": 2, "seed": 9},
                                 tmp_path)
        assert [name for name, _, _ in outputs] == ["fbm_0000.csv", "fbm_0001.csv"]
        assert (tmp_path / "fbm_0000.csv").is_file()
        assert (tmp_path / "fbm_0001.csv").is_file()
        assert "\nfbm_method=davies-harte\n" in (tmp_path / "manifest.txt").read_text()
        header, rows = read_csv(tmp_path / "fbm_0000.csv")
        assert header == ["t", "value"]
        assert len(rows) == 33
        assert float(rows[0][1]) == 0.0

    def test_fbm_gen_cholesky_fallback(self, tmp_path, monkeypatch):
        calls = []

        def boom(n_steps, hurst):
            calls.append(n_steps)
            raise paths.EmbeddingError("forced")

        monkeypatch.setattr(paths, "_embedding_eigenvalues", boom)
        cfg = {"n_steps": 16, "n_paths": 3, "dt": 0.0625, "hurst": 0.6, "seed": 4}
        run_experiment("fbm-gen", cfg, tmp_path)
        assert calls == [16]  # the generator is resolved once per run
        assert "\nfbm_method=cholesky\n" in (tmp_path / "manifest.txt").read_text()
        for i in range(3):
            _, rows = read_csv(tmp_path / f"fbm_{i:04d}.csv")
            expected = generate_fbm(16, 0.0625, 0.6, 4 + i, method="cholesky")
            assert [float(t) for t, _ in rows] == expected.times.tolist()
            assert [float(v) for _, v in rows] == expected.values.tolist()

    def test_fbm_gen_runs_with_different_dt(self, tmp_path):
        # each run formats its own time column
        for dt in (0.25, 0.1, 0.25):
            out = tmp_path / str(dt)
            cfg = {"n_steps": 8, "n_paths": 2, "dt": dt, "seed": 3}
            run_experiment("fbm-gen", cfg, out)
            for i in range(2):
                path = generate_fbm(8, dt, 0.5, 3 + i)
                rows = np.column_stack((path.times, path.values)).tolist()
                assert ((out / f"fbm_{i:04d}.csv").read_bytes()
                        == reference_csv(["t", "value"], rows))

    def test_time_column_is_formatted_once_per_run(self, tmp_path, monkeypatch):
        calls = []
        records = experiments._records

        def spy(x):
            calls.append(len(x))
            return records(x)

        monkeypatch.setattr(experiments, "_records", spy)
        run_experiment("fbm-gen", {"n_steps": 16, "n_paths": 3, "seed": 2}, tmp_path)
        # the time column, then the value column of each of the three files
        assert calls == [17, 17, 17, 17]

    def test_manifest_lists_outputs_with_checksums(self, tmp_path):
        run_experiment("fbm-gen", {"n_steps": 8, "seed": 6}, tmp_path / "fbm")
        fbm_text = (tmp_path / "fbm" / "manifest.txt").read_text()
        for line in ("seed=6", "fbm_method=davies-harte", "prng=pcg64"):
            assert f"\n{line}\n" in fbm_text
        outputs = run_experiment("impact-curve", {}, tmp_path)
        text = (tmp_path / "manifest.txt").read_text()
        assert "experiment=impact-curve" in text
        assert "prng=" not in text  # a run that draws no path names no generator
        for name, digest, size in outputs:
            path = tmp_path / name
            assert path.is_file() and path.stat().st_size == size > 0
            assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
            assert f"output.0.path={name}" in text
            assert f"output.0.sha256={digest}" in text

    def test_impact_curve_exponent(self, tmp_path):
        run_experiment("impact-curve", {"hurst": 0.5}, tmp_path)
        header, rows = read_csv(tmp_path / "impact_curve.csv")
        assert header == ["q", "delta_p", "exponent_model"]
        qs = np.array([float(r[0]) for r in rows])
        dps = np.array([float(r[1]) for r in rows])
        slope, _ = np.polyfit(np.log(qs), np.log(dps), 1)
        assert slope == pytest.approx(0.5, abs=1e-9)
        assert all(float(r[2]) == 0.5 for r in rows)

    def test_impact_verify_outputs(self, tmp_path):
        run_experiment("impact-verify", {"q_values": "0.1,1.0"}, tmp_path)
        _, inv_rows = read_csv(tmp_path / "impact_verify.csv")
        assert all(float(r[4]) <= 1e-6 for r in inv_rows)
        _, exp_rows = read_csv(tmp_path / "impact_exponent.csv")
        assert all(float(r[3]) <= 1e-6 for r in exp_rows)

    def test_cpmm_compare_outputs(self, tmp_path):
        run_experiment("cpmm-compare", {}, tmp_path)
        _, rows = read_csv(tmp_path / "cpmm_compare.csv")
        for row in rows:
            assert float(row[4]) <= float(row[5])
        header, trace = read_csv(tmp_path / "pool_trace.csv")
        assert header == ["step", "action", "reserve_x", "reserve_y", "spot_price"]
        assert trace[0][1] == "init"
        assert [row[0] for row in trace] == [str(step) for step in range(len(trace))]
        # every round trip ends back at the starting reserves
        assert float(trace[-1][2]) == pytest.approx(100.0, rel=1e-12)

    def test_cycle_run_reproduces_worked_stage_values(self, tmp_path):
        run_experiment("cycle-run", {}, tmp_path)
        header, rows = read_csv(tmp_path / "cycle_report.csv")
        assert header == ["stage", "pool_x", "pool_y", "inside_x", "inside_y",
                          "outside_x", "outside_y"]
        stages = {row[0]: [float(v) for v in row[1:]] for row in rows}
        assert stages["AfterStage1"][0] == 90.0
        assert stages["AfterStage1"][1] == pytest.approx(1000.0 / 9.0, rel=1e-13)
        assert stages["AfterStage2"][2] == 9.0
        assert stages["AfterStage2"][3] == pytest.approx(100.0 / 9.0, rel=1e-13)
        assert stages["AfterStage3"][1] == pytest.approx(121.0, rel=1e-13)
        assert stages["AfterStage4"][0] == pytest.approx(100.0, abs=1e-12)
        assert stages["AfterStage4"][1] == pytest.approx(100.0, abs=1e-12)
        summary = [l for l in (tmp_path / "cycle_report.csv").read_text().splitlines()
                   if l.startswith("#")]
        assert len(summary) == 1 and "work_analogue=" in summary[0]

    def test_cycle_run_non_closure(self, tmp_path):
        cfg = {"closure": False, "g_amt": 5.0, "h_amt": 6.05}
        run_experiment("cycle-run", cfg, tmp_path)
        _, rows = read_csv(tmp_path / "cycle_report.csv")
        final = [float(v) for v in rows[-1][1:]]
        assert abs(final[4]) > 1e-3 or abs(final[5]) > 1e-3

    def test_catbond_optimize_worked_row(self, tmp_path):
        run_experiment("catbond-optimize", {"q": 0.2, "r": 1.0}, tmp_path)
        _, rows = read_csv(tmp_path / "catbond_optimize.csv")
        assert float(rows[0][2]) == 0.6
        assert float(rows[0][4]) <= 1e-8

    def test_catbond_sensitivity_outputs(self, tmp_path):
        run_experiment("catbond-sensitivity", {}, tmp_path)
        header, rows = read_csv(tmp_path / "catbond_sensitivity.csv")
        assert header == ["q", "r", "f_analytic", "f_numeric", "f_series", "abs_err"]
        assert all(float(r[5]) <= 1e-8 for r in rows)
        _, iso = read_csv(tmp_path / "iso_shift.csv")
        assert all(float(r[6]) <= 1e-12 for r in iso)

    @pytest.mark.parametrize("name", ["fbm-gen", "impact-verify"])
    def test_byte_identical_reruns(self, name, tmp_path):
        cfg = {"seed": 42, "n_steps": 128} if name == "fbm-gen" else {}
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        started = time.perf_counter()
        ma = run_experiment(name, cfg, a_dir)
        wall = time.perf_counter() - started
        mb = run_experiment(name, cfg, b_dir)
        assert [o[0] for o in ma] == [o[0] for o in mb]
        for (name_a, dig_a, _), (_, dig_b, _) in zip(ma, mb):
            assert dig_a == dig_b
            assert (a_dir / name_a).read_bytes() == (b_dir / name_a).read_bytes()
        manifest = (a_dir / "manifest.txt").read_bytes()
        assert manifest == (b_dir / "manifest.txt").read_bytes()
        assert b"duration" not in manifest
        for out in (a_dir, b_dir):
            run = json.loads((out / "run.json").read_text())
            assert run["duration_seconds"] >= 0.0
        # the duration is of the experiment body, so within the wall time of the call
        assert json.loads((a_dir / "run.json").read_text())["duration_seconds"] <= wall

    def test_only_text_tables_reach_write_csv_as_lists(self, tmp_path, monkeypatch):
        kinds = {}

        def spy(path, header, rows, first=None):
            kinds[path.name] = type(rows)
            return write_csv(path, header, rows, first)

        monkeypatch.setattr(experiments, "write_csv", spy)
        for name in EXPERIMENT_NAMES:
            run_experiment(name, {}, tmp_path / name)
        assert kinds == {
            "fbm_0000.csv": np.ndarray, "impact_curve.csv": np.ndarray,
            "impact_verify.csv": np.ndarray, "impact_exponent.csv": np.ndarray,
            "cpmm_compare.csv": np.ndarray, "pool_trace.csv": list,
            "cycle_report.csv": list, "catbond_optimize.csv": np.ndarray,
            "catbond_sensitivity.csv": np.ndarray, "iso_shift.csv": np.ndarray}

    def test_lf_line_endings(self, tmp_path):
        run_experiment("impact-curve", {}, tmp_path)
        raw = (tmp_path / "impact_curve.csv").read_bytes()
        assert b"\r" not in raw and raw.endswith(b"\n")


class TestCli:
    def test_success(self, tmp_path, capsys):
        code = main(["catbond-optimize", "--out", str(tmp_path)])
        assert code == 0
        assert "catbond_optimize.csv" in capsys.readouterr().out

    def test_config_file_and_overrides(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# demo\nhurst=0.6\nn_steps=16\n")
        code = main(["fbm-gen", "--config", str(cfg), "--set", "n_steps=32",
                     "--seed", "5", "--out", str(tmp_path)])
        assert code == 0
        manifest = (tmp_path / "manifest.txt").read_text()
        assert "config.n_steps=32" in manifest
        assert "config.hurst=0.59999999999999998" in manifest
        assert "seed=5" in manifest

    def test_config_error_exit_code(self, tmp_path, capsys):
        code = main(["fbm-gen", "--set", "hurst=1.5", "--out", str(tmp_path)])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_unknown_key_exit_code(self, tmp_path):
        assert main(["fbm-gen", "--set", "bogus=1", "--out", str(tmp_path)]) == 2

    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        # hurst below the quarter threshold leaves the optimizer unbracketed
        code = main(["impact-verify", "--set", "hursts=0.2", "--out", str(tmp_path)])
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_ratio_mismatch_exit_code(self, tmp_path, capsys):
        code = main(["cycle-run", "--set", "closure=false", "--set", "g_amt=50",
                     "--set", "h_amt=1", "--out", str(tmp_path)])
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_io_error_exit_code(self, tmp_path, capsys):
        blocker = tmp_path / "not_a_dir"
        blocker.write_text("occupied")
        code = main(["catbond-optimize", "--out", str(blocker)])
        assert code == 4
        assert "i/o error" in capsys.readouterr().err

    def test_duplicate_set_rejected(self, tmp_path, capsys):
        assert main(["fbm-gen", "--set", "hurst=0.5", "--set", "hurst=0.6",
                     "--out", str(tmp_path)]) == 2
        # parse_config's wording; line N is the N-th --set item
        assert "line 2: duplicate key 'hurst'" in capsys.readouterr().err

    def test_set_item_is_a_config_line(self, tmp_path):
        assert main(["fbm-gen", "--set", "n_steps=16  # short run",
                     "--out", str(tmp_path)]) == 0
        assert "\nconfig.n_steps=16\n" in (tmp_path / "manifest.txt").read_text()

    def test_set_item_breaks_only_at_newline(self, tmp_path):
        # a form feed is no line break: the item sets n_steps to a string
        item = "n_steps=16\x0churst=0.6"
        assert parse_config(item) == {"n_steps": "16\x0churst=0.6"}
        assert main(["fbm-gen", "--set", item, "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("name, item, message", [
        ("impact-verify", "hursts=0.5,1.5",
         "key 'hursts': must be in the open interval (0, 1) (got 1.5)"),
        ("impact-verify", "q_values=1,0", "key 'q_values': must be positive (got 0.0)"),
        ("cpmm-compare", "u_values=0.5,1.0",
         "key 'u_values': must be in the open interval (0, 1) (got 1.0)"),
        ("catbond-sensitivity", "q_values=0.1,1.0",
         "key 'q_values': must be in [0, 1) (got 1.0)"),
        ("catbond-sensitivity", "r_values=1,-1",
         "key 'r_values': must be positive (got -1.0)"),
        # formerly exit 3: dx = u * X leaves X, so there is no Y to swap back
        ("cpmm-compare", "u_values=0.1,1e-17",
         "key 'u_values': the swap leaves the Y reserve unmoved, so it cannot "
         "be swapped back (got 1e-17)"),
        # formerly exit 0: closure set its own removal and the manifest kept these
        ("cycle-run", "g_amt=5",
         "keys 'g_amt' and 'h_amt' apply only with closure=false (got g_amt=5.0, h_amt=0.0)"),
        ("cycle-run", "h_amt=-1",
         "keys 'g_amt' and 'h_amt' apply only with closure=false (got g_amt=0.0, h_amt=-1.0)"),
    ])
    def test_list_error_names_the_failing_entry(self, tmp_path, capsys,
                                                name, item, message):
        assert main([name, "--set", item, "--out", str(tmp_path)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("name, sets, message", [
        ("impact-curve", ["q_min=1e4"], "q_min must be below q_max, got 10000.0 >= 10000.0"),
        ("impact-verify", ["q_min=2", "q_max=1"], "q_min must be below q_max, got 2.0 >= 1.0"),
    ], ids=["impact-curve", "impact-verify"])
    def test_q_min_must_be_below_q_max(self, tmp_path, capsys, name, sets, message):
        argv = [name]
        for item in sets:
            argv += ["--set", item]
        assert main([*argv, "--out", str(tmp_path)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["impact-curve", "impact-verify"])
    @pytest.mark.parametrize("q_max, code", [
        # the largest q_max whose grid ends on a finite point
        ("1.7976931348622101e+308", 0),
        # formerly numpy's RuntimeWarning, then exit 3 at q=inf
        ("1.7976931348622103e+308", 2),
        ("1.7976931348623157e+308", 2),
    ])
    def test_q_max_whose_grid_overflows_is_a_config_error(self, tmp_path, capsys, name,
                                                          q_max, code):
        assert main([name, "--set", f"q_max={q_max}", "--out", str(tmp_path)]) == code
        if code:
            assert (f"q_max is so near the largest float that the log grid's last point "
                    f"overflows, got {q_max}") in capsys.readouterr().err
            assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("content", [None, b""], ids=["missing", "empty"])
    def test_missing_or_empty_output_is_an_io_error(self, tmp_path, monkeypatch, capsys,
                                                    content):
        def runner(cfg, out):
            path = out / "table.csv"
            if content is not None:
                path.write_bytes(content)
            return [path], ""

        schema = _RUNNERS["catbond-optimize"][0]
        monkeypatch.setitem(_RUNNERS, "catbond-optimize", (schema, runner))
        assert main(["catbond-optimize", "--out", str(tmp_path)]) == 4
        assert (f"i/o error: experiment output {tmp_path / 'table.csv'} is missing or "
                f"empty") in capsys.readouterr().err
        assert not (tmp_path / "manifest.txt").exists()

    def test_readme_commands_found(self):
        assert [argv[0] for argv in README_COMMANDS] == [
            "cycle-run", "impact-curve", "fbm-gen"]

    @pytest.mark.parametrize("argv", README_COMMANDS, ids=lambda argv: argv[0])
    def test_readme_command_runs(self, tmp_path, monkeypatch, argv):
        # the configs give ints such as x0=100 for float keys, which widen
        monkeypatch.chdir(ROOT)
        assert main([*argv, "--out", str(tmp_path)]) == 0
        assert (tmp_path / "manifest.txt").is_file()

    def test_empty_hursts_rejected(self, tmp_path, capsys):
        assert main(["impact-verify", "--set", "hursts=", "--out", str(tmp_path)]) == 2
        assert "key 'hursts'" in capsys.readouterr().err
        assert not list(tmp_path.glob("**/*.csv"))

    @pytest.mark.parametrize("error", [
        *(obj for obj in vars(errors).values()
          if isinstance(obj, type) and issubclass(obj, Exception)),
        paths.EmbeddingError,
    ], ids=lambda error: error.__name__)
    def test_exit_code_map(self, tmp_path, monkeypatch, error):
        def fail(*args, **kwargs):
            raise error("injected")

        monkeypatch.setattr(cli, "run_experiment", fail)
        expected = 2 if error is ConfigError else 3
        assert main(["catbond-optimize", "--out", str(tmp_path)]) == expected

    @pytest.mark.parametrize("argv, code", [
        # float ** overflows: numerical failure
        (["impact-curve", "--set", "sigma=1e200"], 3),
        (["catbond-optimize", "--set", "q=0.5", "--set", "r=1e-300"], 3),
        (["impact-verify", "--set", "q_values=1e300", "--set", "hursts=0.9"], 3),
        # a subnormal capital scale divides by zero: numerical failure
        (["impact-verify", "--set", "k=1e-320"], 3),
        # a negative seed is a config error, not numpy's ValueError
        (["fbm-gen", "--seed", "-1"], 2),
        (["fbm-gen", "--set", "seed=-5"], 2),
        # a config file that is not UTF-8 is a config error
        (["fbm-gen", "--config", "latin1.cfg"], 2),
        # fBM values overflow when scaled by dt ** hurst: numerical failure,
        # with no numpy RuntimeWarning on the way
        (["fbm-gen", "--set", "n_steps=16", "--set", "dt=1e307",
          "--set", "hurst=0.9999", "--seed", "3"], 3),
        # H near 1: a negative circulant eigenvalue, or a covariance that is
        # not positive definite in float64
        *[(["fbm-gen", "--set", "hurst=0.999999999", "--set", "n_steps=1024",
            "--set", f"method={method}"], 3)
          for method in ("auto", "cholesky", "davies-harte")],
    ])
    def test_former_tracebacks_map_to_exit_codes(self, tmp_path, monkeypatch,
                                                 argv, code):
        (tmp_path / "latin1.cfg").write_bytes(b"hurst=0.5\n# caf\xe9\n")
        monkeypatch.chdir(tmp_path)
        assert main([*argv, "--out", "out"]) == code

    @pytest.mark.parametrize("argv, message", [
        (["impact-curve", "--set", "sigma=1e200"],
         "sigma must have a finite square, got 1e+200"),
        (["impact-verify", "--set", "q_values=1e250", "--set", "hursts=0.9"],
         "optimal impact is not finite at q=1e+250"),
        (["impact-verify", "--set", "k=1e-170"],
         "capital_scale_k=1e-170 squares to zero"),
        # khat ** (2H - 1) overflows
        (["impact-curve", "--set", "hurst=5e-324", "--set", "khat=5e-324"],
         "optimal impact is not finite at q=0.01"),
        # q ** (2H - 1/2) underflows: formerly exit 0 with delta_p = 0 in
        # every row, and "delta_p must be positive" from impact-verify
        (["impact-curve", "--set", "q_min=1e-300", "--set", "q_max=1e-290",
          "--set", "n_points=3", "--set", "hurst=0.9"],
         "optimal impact 0.0 is below the normal float range at q=1e-300"),
        (["impact-verify", "--set", "q_values=1e-300", "--set", "hursts=0.9"],
         "optimal impact 0.0 is below the normal float range at q=1e-300"),
    ], ids=["sigma", "q_values", "k", "khat", "underflow-curve", "underflow-verify"])
    def test_impact_arithmetic_errors_name_their_cause(self, tmp_path, capsys,
                                                       argv, message):
        # formerly Python's own text: "(34, 'Numerical result out of range')"
        # for the first two, "float division by zero" for the third
        assert main([*argv, "--out", str(tmp_path)]) == 3
        assert f"numerical failure: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["catbond-optimize", "--set", "r=1e-300"],
         "two-bond series overflows: (q/r)**3 at q = 0.2, r = 1e-300"),
        (["catbond-optimize", "--set", "q=0.5", "--set", "r=1e-110"],
         "two-bond series overflows: (q/r)**3 at q = 0.5, r = 1e-110"),
        # delta_r / r overflows: the exact shift is inf (formerly "default
        # probability must be in [0, 1), got inf"), and at q = 0 the first
        # order shift is inf * 0 (formerly exit 0 with nan in the CSV)
        (["catbond-sensitivity", "--set", "q_values=0.1", "--set", "r_values=1e-312"],
         "iso-fraction shift is not finite at q = 0.1, r = 1e-312, delta_r = 0.01"),
        (["catbond-sensitivity", "--set", "q_values=0", "--set", "r_values=1e-311"],
         "iso-fraction shift is not finite at q = 0.0, r = 1e-311, delta_r = 0.01"),
    ], ids=["r", "q-and-r", "iso-shift", "iso-shift-q-0"])
    def test_catbond_overflow_names_q_and_r(self, tmp_path, capsys, argv, message):
        # formerly Python's own text: "(34, 'Numerical result out of range')"
        assert main([*argv, "--out", str(tmp_path)]) == 3
        assert f"numerical failure: {message}" in capsys.readouterr().err

    def test_iso_shift_past_q_one_runs_to_the_end(self, tmp_path):
        # formerly exit 3: the shifted q passes 1, where BondSpec stops; the
        # fraction clamps to 0 on both sides of the shift
        assert main(["catbond-sensitivity", "--set", "q_values=0.99",
                     "--set", "r_values=0.1", "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "iso_shift.csv")
        (row,) = rows
        assert 0.99 + float(row[header.index("delta_exact")]) > 1.0
        assert row[header.index("roundtrip_abs_err")] == "0"

    @pytest.mark.parametrize("delta_r", [-0.1, -0.2])
    def test_delta_r_that_ends_a_return_rejected(self, tmp_path, capsys, delta_r):
        # formerly exit 3 in the middle of the sweep
        assert main(["catbond-sensitivity", "--set", "r_values=0.5,0.1",
                     "--set", f"delta_r={delta_r}", "--out", str(tmp_path)]) == 2
        assert (f"key 'delta_r': r + delta_r must stay positive, and the "
                f"smallest r is 0.1 (got {delta_r})") in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("sets, code, message", [
        # each formerly exit 0, with inf, or 0, as a spot price in pool_trace.csv
        (["reserve_x=1e-160", "reserve_y=1e300"], 3,
         "spot price reserve_y / reserve_x is inf at reserves (1e-160, 1e+300)"),
        (["reserve_x=2.7023703425e-314"], 2,
         "key 'reserve_x': must be a positive normal float, at least "
         "2.2250738585072014e-308 (got 2.7023703425e-314)"),
        (["reserve_x=1e300", "reserve_y=1e-160"], 3,
         "spot price reserve_y / reserve_x is 0.0 at reserves (1e+300, 1e-160)"),
        # formerly exit 0, with a subnormal spot price or dx and lost digits
        (["reserve_x=1e10", "reserve_y=3e-308"], 3,
         "spot price reserve_y / reserve_x is 3e-318 at reserves (10000000000.0, "
         "3e-308), outside the normal float range"),
        (["reserve_x=3e-308", "reserve_y=1", "u_values=0.0001,0.01"], 2,
         "key 'u_values': the swap u * reserve_x is 3e-312, "
         "below the smallest normal float (got 0.0001)"),
        # formerly "reserves must be positive and finite, got (1.01e-300, 0.0)"
        # and "... (1.5e+300, inf)", naming neither the swap nor the product
        (["reserve_x=1e-300", "reserve_y=1e-30"], 3,
         "swap_x_for_y: the invariant reserve_x * reserve_y is 0.0 at reserves "
         "(1e-300, 1e-30), outside the normal float range"),
        (["reserve_x=1e300", "reserve_y=1e10", "u_values=0.5"], 3,
         "swap_x_for_y: the invariant reserve_x * reserve_y is inf at reserves "
         "(1e+300, 10000000000.0), outside the normal float range"),
    ], ids=["inf-price", "subnormal-reserve", "zero-price", "tiny-price", "subnormal-dx",
            "zero-invariant", "inf-invariant"])
    def test_cpmm_spot_price_out_of_range_named(self, tmp_path, capsys, sets, code,
                                                message):
        argv = ["cpmm-compare"]
        for entry in sets:
            argv += ["--set", entry]
        assert main([*argv, "--out", str(tmp_path)]) == code
        assert message in capsys.readouterr().err
        assert not (tmp_path / "pool_trace.csv").exists()

    def test_cpmm_swap_of_the_smallest_normal_float_runs(self, tmp_path):
        # u * reserve_x is exactly sys.float_info.min
        assert main(["cpmm-compare", "--set", f"reserve_x={2.0 ** -1021!r}",
                     "--set", "reserve_y=1", "--set", "u_values=0.5",
                     "--out", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "cpmm_compare.csv")
        assert float(rows[0][1]) == sys.float_info.min

    def test_impact_curve_needs_no_square_of_k(self, tmp_path, capsys):
        assert main(["impact-curve", "--set", "k=1e-170", "--out", str(tmp_path)]) == 0
        assert "wrote impact_curve.csv" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, bytes_each", [
        (["fbm-gen", "--set", "n_steps=1000000000000", "--set", "dt=1e-12"], 200),
        (["impact-curve", "--set", "n_points=1000000000000"], 350),
        (["impact-verify", "--set", "n_points=1000000000000"], 350),
    ])
    def test_oversized_inputs_rejected_before_allocation(self, tmp_path, monkeypatch,
                                                         capsys, argv, bytes_each):
        def unreachable(*args):
            raise AssertionError("no input-sized array may be allocated")

        monkeypatch.setattr(paths, "_fgn_autocov", unreachable)
        monkeypatch.setattr(experiments, "_log_grid", unreachable)
        assert main([*argv, "--out", str(tmp_path)]) == 2
        assert (f"needs about {10 ** 12 * bytes_each} bytes at {bytes_each} bytes "
                f"each, above the limit of {paths.MAX_ARRAY_BYTES} bytes"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("name, rows, cols, bytes_each", [
        ("catbond-sensitivity", "q_values", "r_values", 700),
        ("impact-verify", "hursts", "q_values", 400)])
    def test_oversized_grids_rejected_before_allocation(self, tmp_path, monkeypatch,
                                                        capsys, name, rows, cols,
                                                        bytes_each):
        def unreachable(*args, **kwargs):
            raise AssertionError("no grid row may be built")

        monkeypatch.setattr(catbond, "BondSpec", unreachable)
        monkeypatch.setattr(experiments, "_log_grid", unreachable)
        # about 16 KB of config asking for 4 million rows
        axis = ",".join(["0.5"] * 2000)
        assert main([name, "--set", f"{rows}={axis}", "--set", f"{cols}={axis}",
                     "--out", str(tmp_path)]) == 2
        assert (f"needs about {2000 ** 2 * bytes_each} bytes at {bytes_each} bytes "
                f"each, above the limit of {paths.MAX_ARRAY_BYTES} bytes"
                in capsys.readouterr().err)

    def test_too_many_paths_rejected_before_any_is_drawn(self, tmp_path, monkeypatch,
                                                         capsys):
        def unreachable(*args, **kwargs):
            raise AssertionError("no path may be drawn")

        monkeypatch.setattr(experiments, "iter_fbm", unreachable)
        count = paths.MAX_ARRAY_BYTES // 2048 + 1
        assert main(["fbm-gen", "--set", f"n_paths={count}", "--set", "n_steps=1",
                     "--out", str(tmp_path)]) == 2
        assert (f"key 'n_paths': needs about {count * 2048} bytes at 2048 bytes each, "
                f"above the limit" in capsys.readouterr().err)
        assert not list(tmp_path.glob("fbm_*.csv"))

    @pytest.mark.parametrize("name, key, bytes_each", [
        ("fbm-gen", "n_steps", 200), ("impact-curve", "n_points", 350),
        ("impact-verify", "n_points", 350), ("fbm-gen", "n_paths", 2048)])
    def test_size_limit_boundary(self, name, key, bytes_each):
        largest = paths.MAX_ARRAY_BYTES // bytes_each
        schema = _RUNNERS[name][0]
        assert validate_config({key: largest}, schema, name)[key] == largest
        with pytest.raises(ConfigError, match="above the limit"):
            validate_config({key: largest + 1}, schema, name)

    @pytest.mark.parametrize("name, key, value, problem", [
        ("cpmm-compare", "reserve_x", sys.float_info.min, None),
        ("fbm-gen", "hurst", 0.0, "must be in the open interval (0, 1)"),
        ("fbm-gen", "n_paths", 1, None),
        ("impact-curve", "n_points", 3, None),
        ("impact-curve", "n_points", 2, "must be >= 3"),
    ], ids=["normal-at-smallest", "open-unit-at-zero", "paths-at-minimum",
            "points-at-minimum", "points-below-minimum"])
    def test_checks_at_their_edge_values(self, name, key, value, problem):
        schema = _RUNNERS[name][0]
        if problem is None:
            assert validate_config({key: value}, schema, name)[key] == value
        else:
            with pytest.raises(ConfigError, match=re.escape(f"key {key!r}: {problem}")):
                validate_config({key: value}, schema, name)

    @pytest.mark.parametrize("name, rows, cols, bytes_each, first_step", [
        ("catbond-sensitivity", "q_values", "r_values", 700, (catbond, "BondSpec")),
        ("impact-verify", "hursts", "q_values", 400, (experiments, "_impact_model"))])
    def test_grid_size_limit_boundary(self, tmp_path, monkeypatch, name, rows, cols,
                                      bytes_each, first_step):
        class Started(Exception):
            pass

        def start(*args, **kwargs):
            raise Started

        monkeypatch.setattr(*first_step, start)
        schema, runner = _RUNNERS[name]
        cfg = validate_config({}, schema, name)
        cfg[rows], cfg[cols] = [0.5] * (paths.MAX_ARRAY_BYTES // bytes_each), [0.5]
        with pytest.raises(Started):
            runner(cfg, tmp_path)
        cfg[rows].append(0.5)
        with pytest.raises(ConfigError, match="above the limit"):
            runner(cfg, tmp_path)

    @pytest.mark.parametrize("name, key, count, bytes_each", [
        ("fbm-gen", "n_steps", 2 ** 17, 200), ("impact-curve", "n_points", 40_000, 350),
        ("impact-verify", "n_points", 10_000, 350), ("fbm-gen", "n_paths", 2000, 2048)])
    def test_peak_memory_per_unit_is_within_its_size_limit(self, tmp_path, name, key,
                                                           count, bytes_each):
        # the size limit takes bytes_each as the run's peak per unit; the
        # counts are large enough for the per-unit cost to dominate.  Paths
        # are counted at one step each, so their own cost, the output list
        # and manifest lines, dominates.
        config = {key: count}
        if key == "n_steps":
            config["dt"] = 1.0 / count
        elif key == "n_paths":
            config["n_steps"] = 1
        run_experiment(name, {}, tmp_path)  # a first run, with another time column
        tracemalloc.start()
        try:
            run_experiment(name, config, tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / count <= bytes_each

    @pytest.mark.parametrize("argv", [
        # formerly exit 0 with delta_p=inf on every row
        ["impact-curve", "--set", "sigma=inf"],
        # formerly exit 0 with f_analytic 0.8 beside f_numeric ~1.0
        ["catbond-optimize", "--set", "r=inf"],
        # formerly numpy RuntimeWarnings from the time grid, then exit 3
        ["fbm-gen", "--set", "dt=inf"],
        ["impact-verify", "--set", "hursts=0.5,nan"],
    ])
    def test_non_finite_numbers_are_config_errors(self, tmp_path, capsys, argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main([*argv, "--out", str(tmp_path)]) == 2
        assert "expects a finite number" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        # formerly exit 0 with inf in the CSV after numpy overflow warnings
        ["impact-verify", "--set", "khat=1e308", "--set", "q_max=1e308"],
        ["impact-curve", "--set", "hurst=0.9", "--set", "khat=1e308",
         "--set", "q_max=1e308"],
    ])
    def test_overflowing_impact_is_a_numerical_failure(self, tmp_path, capsys, argv):
        assert main([*argv, "--out", str(tmp_path)]) == 3
        assert "optimal impact is not finite" in capsys.readouterr().err

    def test_experiment_names_wired(self):
        assert set(EXPERIMENT_NAMES) == {
            "fbm-gen", "impact-curve", "impact-verify", "cpmm-compare",
            "cycle-run", "catbond-optimize", "catbond-sensitivity"}


# only fbm-gen draws random numbers, so only it takes a seed
DETERMINISTIC = [name for name in EXPERIMENT_NAMES if name != "fbm-gen"]


@pytest.mark.parametrize("seed", [["--seed", "3"], ["--set", "seed=3"]],
                         ids=["option", "set"])
@pytest.mark.parametrize("name", DETERMINISTIC)
def test_deterministic_experiments_refuse_a_seed(tmp_path, capsys, name, seed):
    out = tmp_path / "out"
    assert main([name, *seed, "--out", str(out)]) == 2
    assert f"unknown key(s) ['seed'] for experiment {name!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("name", DETERMINISTIC)
def test_deterministic_manifest_is_experiment_version_config_and_outputs(tmp_path, name):
    outputs = run_experiment(name, {}, tmp_path)
    lines = (tmp_path / "manifest.txt").read_text().splitlines()
    assert lines[0] == f"experiment={name}"
    assert [line.split("=", 1)[0] for line in lines] == [
        "experiment", "version", *(f"config.{key}" for key in sorted(_RUNNERS[name][0])),
        *(f"output.{i}.{field}" for i in range(len(outputs))
          for field in ("path", "sha256", "bytes"))]


# (experiment, key, another valid value, companion overrides): each key set
# to the value moves at least one CSV byte of the run with only the
# companions.  A removal must match the pool ratio 100:121 within 1e-9, so
# g_amt and h_amt each move by 2e-10 of themselves.
_REMOVAL = {"closure": False, "g_amt": 5.0, "h_amt": 6.05}
SETTINGS = [
    ("fbm-gen", "seed", 1, {}),
    ("fbm-gen", "n_steps", 512, {}),
    ("fbm-gen", "dt", 0.5, {}),
    ("fbm-gen", "hurst", 0.7, {}),
    ("fbm-gen", "n_paths", 2, {}),
    ("fbm-gen", "method", "cholesky", {}),
    ("impact-curve", "hurst", 0.7, {}),
    ("impact-curve", "sigma", 2.0, {}),
    ("impact-curve", "k", 2.0, {}),
    # the impact scales as khat ** (2H - 1), which is 1 at the default H = 1/2
    ("impact-curve", "khat", 2.0, {"hurst": 0.7}),
    ("impact-curve", "q_min", 0.1, {}),
    ("impact-curve", "q_max", 1e3, {}),
    ("impact-curve", "n_points", 10, {}),
    ("impact-verify", "sigma", 2.0, {}),
    ("impact-verify", "k", 2.0, {}),
    ("impact-verify", "khat", 2.0, {}),
    ("impact-verify", "q_min", 0.1, {}),
    ("impact-verify", "q_max", 1e3, {}),
    ("impact-verify", "n_points", 10, {}),
    ("impact-verify", "hursts", "0.4,0.6", {}),
    ("impact-verify", "q_values", "0.5,5", {}),
    ("cpmm-compare", "reserve_x", 200.0, {}),
    ("cpmm-compare", "reserve_y", 200.0, {}),
    ("cpmm-compare", "u_values", "0.03", {}),
    ("cycle-run", "x0", 200.0, {}),
    ("cycle-run", "y0", 200.0, {}),
    ("cycle-run", "alpha", 9.0, {}),
    ("cycle-run", "m", 10.0, {}),
    ("cycle-run", "sigma_amt", 2.0, {}),
    ("cycle-run", "stage3_mode", "original-x", {}),
    ("cycle-run", "closure", False, {}),
    ("cycle-run", "g_amt", 5.000000001, _REMOVAL),
    ("cycle-run", "h_amt", 6.0500000012, _REMOVAL),
    ("catbond-optimize", "q", 0.1, {}),
    ("catbond-optimize", "r", 2.0, {}),
    ("catbond-sensitivity", "q_values", "0.2", {}),
    ("catbond-sensitivity", "r_values", "3", {}),
    ("catbond-sensitivity", "delta_r", 0.02, {}),
]


def test_settings_table_names_every_key():
    assert sorted((name, key) for name, key, _, _ in SETTINGS) == sorted(
        (name, key) for name, (schema, _) in _RUNNERS.items() for key in schema)


@pytest.mark.parametrize("name, key, value, companions", SETTINGS,
                         ids=[f"{name}-{key}" for name, key, _, _ in SETTINGS])
def test_every_setting_moves_a_csv(tmp_path, name, key, value, companions):
    base = run_experiment(name, companions, tmp_path / "base")
    moved = run_experiment(name, companions | {key: value}, tmp_path / "moved")
    assert {n: digest for n, digest, _ in moved} != {n: digest for n, digest, _ in base}


# adversarial --set values, each a token as typed on the command line
FUZZ_VALUES = ["nan", "inf", "-inf", "-0", "-1", "0", "5e-324", "1e-320",
               "1e308", "", "abc", "true"]
# keys that size an allocation; capped so that no example allocates much
SIZE_KEYS = {"n_steps", "n_paths", "n_points"}


@st.composite
def cli_argvs(draw):
    name = draw(st.sampled_from(EXPERIMENT_NAMES))
    schema = sorted(_RUNNERS[name][0])
    keys = draw(st.lists(st.sampled_from([*schema, "not_a_key"]),
                         unique=True, max_size=4))
    argv = [name]
    for key in keys:
        values = st.sampled_from(FUZZ_VALUES)
        if key in SIZE_KEYS:
            values |= st.integers(1, 16).map(str)
        argv += ["--set", f"{key}={draw(values)}"]
    return argv


# Python's own text for an arithmetic error, such as
# "(34, 'Numerical result out of range')" from float ** float
BARE_ERRNO = re.compile(r"numerical failure: \(\d+, ")


def _run_fuzz(argv):
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stderr(err):
        code = main([*argv, "--out", out])
    assert code in {0, 2, 3, 4}
    assert not BARE_ERRNO.search(err.getvalue()), (argv, err.getvalue())


@settings(max_examples=300, deadline=None)
@given(argv=cli_argvs())
def test_cli_fuzz_exits_with_a_known_code(argv):
    _run_fuzz(argv)


def _log_uniform_argvs(rng, count):
    """``count`` argvs of the small experiments, setting one or two float or
    float-list keys to a value in [0, 1) or log-uniform over the float
    range, of either sign."""
    names = ["cpmm-compare", "cycle-run", "catbond-optimize", "catbond-sensitivity"]
    argvs = []
    for _ in range(count):
        name = rng.choice(names)
        keys = sorted(key for key, field in _RUNNERS[name][0].items()
                      if isinstance(field.default, (float, tuple)))
        argv = [name]
        for key in rng.sample(keys, rng.randint(1, 2)):
            value = rng.choice([rng.random(), 10.0 ** rng.uniform(-320, 308)])
            argv += ["--set", f"{key}={value * rng.choice([1, 1, -1])!r}"]
        argvs.append(argv)
    return argvs


def test_cli_fuzz_seeded_sample_names_every_cause():
    # the sample reaches the two-bond series' overflow, among others
    for argv in _log_uniform_argvs(random.Random(7), 300):
        _run_fuzz(argv)
