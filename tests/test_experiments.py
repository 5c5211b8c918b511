import hashlib
import json
import math
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from liqlab import paths
from liqlab.cli import main
from liqlab.errors import ConfigError
from liqlab.experiments import (_RUNNERS, EXPERIMENT_NAMES, fmt, run_experiment,
                                write_csv)
from liqlab.paths import generate_fbm


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
                        ["AfterStage2", 81.0, 100.0, 9.0, 100.0 / 9.0, 1.0, 5e-324]]
        for rows in (pool_trace, cycle_report):
            header = [f"c{j}" for j in range(len(rows[0]))]
            path = write_csv(tmp_path / "t.csv", header, rows)
            assert path.read_bytes() == reference_csv(header, rows)

    def test_empty_table_is_header_only(self, tmp_path):
        assert write_csv(tmp_path / "t.csv", ["a", "b"], []).read_bytes() == b"a,b\n"

    def test_rejects_non_float64_array(self, tmp_path):
        with pytest.raises(TypeError):
            write_csv(tmp_path / "t.csv", ["a"], np.zeros((2, 1), dtype=np.float32))


class TestRunExperiment:
    def test_unknown_experiment(self):
        with pytest.raises(ConfigError, match="unknown experiment"):
            run_experiment("nope", {})

    def test_unknown_key(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown key"):
            run_experiment("fbm-gen", {"bogus": 1}, tmp_path)

    def test_fbm_gen_outputs(self, tmp_path):
        manifest = run_experiment("fbm-gen", {"n_steps": 32, "n_paths": 2, "seed": 9},
                                  tmp_path)
        assert (tmp_path / "fbm_0000.csv").is_file()
        assert (tmp_path / "fbm_0001.csv").is_file()
        assert manifest.fbm_method == "davies-harte"
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
        manifest = run_experiment("fbm-gen", cfg, tmp_path)
        assert calls == [16]  # the generator is resolved once per run
        assert manifest.fbm_method == "cholesky"
        assert "\nfbm_method=cholesky\n" in (tmp_path / "manifest.txt").read_text()
        for i in range(3):
            _, rows = read_csv(tmp_path / f"fbm_{i:04d}.csv")
            expected = generate_fbm(16, 0.0625, 0.6, 4 + i, method="cholesky")
            assert [float(t) for t, _ in rows] == expected.times.tolist()
            assert [float(v) for _, v in rows] == expected.values.tolist()

    def test_manifest_lists_outputs_with_checksums(self, tmp_path):
        manifest = run_experiment("impact-curve", {}, tmp_path)
        text = (tmp_path / "manifest.txt").read_text()
        assert "experiment=impact-curve" in text
        assert "prng=pcg64" in text
        for name, digest, size in manifest.outputs:
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
        cfg = {"seed": 42}
        if name == "fbm-gen":
            cfg |= {"n_steps": 128}
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        ma = run_experiment(name, cfg, a_dir)
        mb = run_experiment(name, cfg, b_dir)
        assert [o[0] for o in ma.outputs] == [o[0] for o in mb.outputs]
        for (name_a, dig_a, _), (_, dig_b, _) in zip(ma.outputs, mb.outputs):
            assert dig_a == dig_b
            assert (a_dir / name_a).read_bytes() == (b_dir / name_a).read_bytes()
        manifest = (a_dir / "manifest.txt").read_bytes()
        assert manifest == (b_dir / "manifest.txt").read_bytes()
        assert b"duration" not in manifest
        for out in (a_dir, b_dir):
            run = json.loads((out / "run.json").read_text())
            assert run["duration_seconds"] >= 0.0

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

    def test_duplicate_set_rejected(self, tmp_path):
        assert main(["fbm-gen", "--set", "hurst=0.5", "--set", "hurst=0.6",
                     "--out", str(tmp_path)]) == 2

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
    ])
    def test_former_tracebacks_map_to_exit_codes(self, tmp_path, monkeypatch,
                                                 argv, code):
        (tmp_path / "latin1.cfg").write_bytes(b"hurst=0.5\n# caf\xe9\n")
        monkeypatch.chdir(tmp_path)
        assert main([*argv, "--out", "out"]) == code

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


@settings(max_examples=300, deadline=None)
@given(argv=cli_argvs())
def test_cli_fuzz_exits_with_a_known_code(argv):
    with tempfile.TemporaryDirectory() as out:
        assert main([*argv, "--out", out]) in {0, 2, 3, 4}
