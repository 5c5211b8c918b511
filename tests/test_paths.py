import math

import numpy as np
import pytest

from liqlab import paths
from liqlab.errors import DomainError
from liqlab.paths import (FouParams, SamplePath, fbm_covariance, generate_fbm,
                          generate_fbm_batch, iter_fbm, refine_linear,
                          simulate_fou)


class TestFbmCovariance:
    def test_brownian_case_is_min(self):
        assert fbm_covariance(1.0, 2.0, 0.5) == 1.0

    def test_variance_at_unit_time(self):
        assert fbm_covariance(1.0, 1.0, 0.75) == 1.0

    # 0.5 * (1 + 3^0.5 - 2^0.5), evaluated with 40-digit arithmetic
    def test_high_precision_value(self):
        assert fbm_covariance(1.0, 3.0, 0.25) == pytest.approx(
            0.6589186225978911, rel=1e-15)

    def test_symmetry(self):
        assert fbm_covariance(0.7, 2.3, 0.6) == fbm_covariance(2.3, 0.7, 0.6)

    @pytest.mark.parametrize("hurst", [0.0, 1.0, -0.2, 1.5])
    def test_hurst_domain(self, hurst):
        with pytest.raises(DomainError):
            fbm_covariance(1.0, 2.0, hurst)

    def test_negative_times_rejected(self):
        with pytest.raises(DomainError):
            fbm_covariance(-1.0, 2.0, 0.5)


class TestFouParams:
    def test_validation(self):
        with pytest.raises(DomainError):
            FouParams(kappa=1.0, level=0.0, sigma=0.0, hurst=0.5)
        with pytest.raises(DomainError):
            FouParams(kappa=1.0, level=0.0, sigma=1.0, hurst=1.0)
        with pytest.raises(DomainError):
            FouParams(kappa=math.inf, level=0.0, sigma=1.0, hurst=0.5)


class TestSamplePath:
    def test_grid_must_be_uniform(self):
        with pytest.raises(DomainError):
            SamplePath(times=[0.0, 1.0, 3.0], values=[0.0, 0.0, 0.0], seed=0)

    def test_lengths_must_match(self):
        with pytest.raises(DomainError):
            SamplePath(times=[0.0, 1.0], values=[0.0], seed=0)

    def test_values_must_be_finite(self):
        with pytest.raises(DomainError):
            SamplePath(times=[0.0, 1.0], values=[0.0, math.nan], seed=0)

    def test_dt_property(self):
        path = SamplePath(times=[0.0, 0.5, 1.0], values=[0.0, 1.0, 2.0], seed=0)
        assert path.dt == 0.5 and path.n_steps == 2


class TestGenerateFbm:
    def test_starts_at_zero(self):
        assert generate_fbm(64, 0.01, 0.7, 1).values[0] == 0.0

    def test_bit_reproducible(self):
        a = generate_fbm(128, 0.01, 0.3, 99)
        b = generate_fbm(128, 0.01, 0.3, 99)
        assert np.array_equal(a.values, b.values) and a.meta == b.meta

    def test_seed_changes_path(self):
        a = generate_fbm(128, 0.01, 0.3, 1)
        b = generate_fbm(128, 0.01, 0.3, 2)
        assert not np.array_equal(a.values, b.values)

    def test_meta_labels(self):
        assert generate_fbm(16, 0.1, 0.5, 0).meta == "davies-harte;prng=pcg64;normal=ziggurat"
        assert generate_fbm(16, 0.1, 0.5, 0, method="cholesky").meta.startswith("cholesky")

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            generate_fbm(0, 0.1, 0.5, 0)
        with pytest.raises(DomainError):
            generate_fbm(8, -0.1, 0.5, 0)
        with pytest.raises(DomainError):
            generate_fbm(8, 0.1, 0.5, 0, method="magic")
        # the grid's end time overflows (formerly a numpy RuntimeWarning first)
        with pytest.raises(DomainError, match="time grid overflows"):
            generate_fbm(16, 1e308, 0.5, 0)
        with pytest.raises(DomainError, match="time grid overflows"):
            generate_fbm(8, math.inf, 0.5, 0)

    @pytest.mark.parametrize("method", ["davies-harte", "cholesky"])
    @pytest.mark.parametrize("hurst", [0.3, 0.75])
    def test_increment_covariance_matches_oracle(self, method, hurst):
        # empirical covariance of 20k short paths against the analytic
        # fBM covariance, which is the distributional contract
        n, dt = 6, 0.5
        batch = generate_fbm_batch(20_000, n, dt, hurst, 1234, method=method)
        inc = np.diff(batch, axis=1)
        emp = inc.T @ inc / len(inc)
        theo = np.empty((n, n))
        for i in range(n):
            for j in range(n):
                cell = (fbm_covariance((i + 1) * dt, (j + 1) * dt, hurst)
                        - fbm_covariance((i + 1) * dt, j * dt, hurst)
                        - fbm_covariance(i * dt, (j + 1) * dt, hurst)
                        + fbm_covariance(i * dt, j * dt, hurst))
                theo[i, j] = cell
        assert np.max(np.abs(emp - theo)) < 6.0 / math.sqrt(20_000)

    def test_brownian_increment_variance(self):
        path = generate_fbm(20_000, 0.25, 0.5, 7)
        inc = np.diff(path.values)
        assert inc.var() == pytest.approx(0.25, rel=0.05)

    def test_increment_autocorr_lag_vanishes_for_brownian(self):
        n_paths = 10_000
        tol = 4.0 / math.sqrt(n_paths)
        for lag in (1, 2):
            rho = paths.increment_autocorr(n_paths, 64, 0.01, 0.5, 51, lag=lag)
            assert abs(rho) < tol

    @pytest.mark.parametrize("method", ["auto", "davies-harte", "cholesky"])
    def test_batch_rows_equal_single_paths(self, method):
        batch = generate_fbm_batch(4, 32, 0.125, 0.7, 900, method=method)
        streamed = list(iter_fbm(4, 32, 0.125, 0.7, 900, method=method))
        for i in range(4):
            single = generate_fbm(32, 0.125, 0.7, 900 + i, method=method)
            assert np.array_equal(batch[i], single.values)
            assert np.array_equal(streamed[i].values, single.values)
            assert np.array_equal(streamed[i].times, single.times)
            assert (streamed[i].seed, streamed[i].meta) == (single.seed, single.meta)

    @pytest.mark.parametrize("n", [1, 2, 63, 4096])
    @pytest.mark.parametrize("hurst", [0.3, 0.7])
    def test_precomputed_coloring_matches_per_draw_reference(self, n, hurst):
        # reference: the coloring recomputed inside every draw
        lam = paths._embedding_eigenvalues(n, hurst)
        m = lam.size
        z = np.random.Generator(np.random.PCG64(5)).standard_normal(m)
        w = np.empty(m, dtype=np.complex128)
        w[0] = math.sqrt(lam[0] / m) * z[0]
        w[n] = math.sqrt(lam[n] / m) * z[1]
        k = np.arange(1, n)
        w[k] = np.sqrt(lam[k] / (2.0 * m)) * (z[2 * k] + 1j * z[2 * k + 1])
        w[m - k] = np.conj(w[k])
        sample = paths._davies_harte_sampler(lam)
        got = sample(np.random.Generator(np.random.PCG64(5)))
        assert np.array_equal(got, np.fft.fft(w).real[:n])

    @pytest.mark.parametrize("n", [1, 2, 3, 17, 257])
    @pytest.mark.parametrize("hurst", [0.1, 0.5, 0.7, 0.9])
    def test_cholesky_factor_matches_index_matrix_reference(self, n, hurst):
        # reference: the Toeplitz covariance gathered through |i - j| indices
        gamma = paths._fgn_autocov(n - 1, hurst)
        idx = np.arange(n)
        expected = np.linalg.cholesky(gamma[np.abs(idx[:, None] - idx[None, :])])
        got = paths._cholesky_factor(n, hurst)
        assert got.tobytes() == expected.tobytes()

    def test_fallback_on_negative_eigenvalue(self, monkeypatch):
        def boom(n_steps, hurst):
            raise paths.EmbeddingError("forced")
        monkeypatch.setattr(paths, "_embedding_eigenvalues", boom)
        assert generate_fbm(16, 0.1, 0.6, 3).meta.startswith("cholesky")
        with pytest.raises(paths.EmbeddingError):
            generate_fbm(16, 0.1, 0.6, 3, method="davies-harte")

    @pytest.mark.parametrize("hurst", [0.3, 0.7])
    def test_variance_scaling_slope(self, hurst):
        slope = paths.variance_slope(2000, 256, 1.0 / 256.0, hurst, 77)
        assert slope == pytest.approx(2.0 * hurst, abs=0.05)


class TestSimulateFou:
    def test_zero_drift_is_shifted_fbm(self):
        params = FouParams(kappa=0.0, level=5.0, sigma=1.0, hurst=0.5)
        path = simulate_fou(params, 2.0, 256, 0.01, 13)
        driver = generate_fbm(256, 0.01, 0.5, 13)
        np.testing.assert_allclose(path.values, 2.0 + driver.values, rtol=1e-12, atol=1e-12)

    def test_deterministic_decay_matches_ode(self):
        # sigma=0, kappa=-1, level=0: Euler converges to exp(-t), first order
        params = FouParams(kappa=-1.0, level=0.0, sigma=1e-300, hurst=0.5)
        errs = []
        for n in (512, 1024):
            path = simulate_fou(params, 1.0, n, 1.0 / n, 0)
            errs.append(abs(path.values[-1] - math.exp(-1.0)))
        assert errs[0] < 5e-4
        assert errs[1] == pytest.approx(errs[0] / 2.0, rel=0.05)

    def test_constant_when_frozen(self):
        params = FouParams(kappa=0.0, level=0.0, sigma=1e-300, hurst=0.5)
        path = simulate_fou(params, 3.5, 32, 0.1, 4)
        np.testing.assert_allclose(path.values, 3.5, rtol=0, atol=1e-290)

    def test_reproducible(self):
        params = FouParams(kappa=-0.4, level=1.0, sigma=0.3, hurst=0.6)
        a = simulate_fou(params, 1.0, 64, 0.01, 21)
        b = simulate_fou(params, 1.0, 64, 0.01, 21)
        assert np.array_equal(a.values, b.values)

    def test_meta_carries_driver_method(self):
        params = FouParams(kappa=-0.4, level=1.0, sigma=0.3, hurst=0.6)
        assert simulate_fou(params, 1.0, 16, 0.01, 21).meta.startswith("fou-euler;davies-harte")


class TestRefineLinear:
    def test_keeps_knots_and_interpolates(self):
        path = SamplePath(times=[0.0, 1.0, 2.0], values=[0.0, 2.0, 1.0], seed=5)
        fine = refine_linear(path, 2)
        np.testing.assert_allclose(fine.times, [0.0, 0.5, 1.0, 1.5, 2.0])
        np.testing.assert_allclose(fine.values, [0.0, 1.0, 2.0, 1.5, 1.0])

    def test_factor_one_is_identity(self):
        path = SamplePath(times=[0.0, 1.0], values=[0.0, 1.0], seed=5)
        assert refine_linear(path, 1) is path

    def test_bad_factor(self):
        path = SamplePath(times=[0.0, 1.0], values=[0.0, 1.0], seed=5)
        with pytest.raises(DomainError):
            refine_linear(path, 0)
