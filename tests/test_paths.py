import math
import re
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from liqlab import paths
from liqlab.cli import main
from liqlab.errors import ConfigError, DomainError
from liqlab.paths import (FouParams, SamplePath, generate_fbm,
                          generate_fbm_batch, iter_fbm, refine_linear,
                          simulate_fou)


def fbm_covariance(s: float, t: float, hurst: float) -> float:
    """Covariance of fractional Brownian motion at times ``s`` and ``t``.

    The oracle for the generators, written from the definition and kept
    independent of ``paths._fgn_autocov``.
    """
    if not 0.0 < hurst < 1.0:
        raise DomainError(f"hurst must be in (0, 1), got {hurst}")
    if s < 0.0 or t < 0.0:
        raise DomainError("times must be non-negative")
    h2 = 2.0 * hurst
    return 0.5 * (s ** h2 + t ** h2 - abs(t - s) ** h2)


def lag1_autocorr(batch: np.ndarray) -> float:
    """Pooled lag-1 autocorrelation of a batch's increments, from ``np.diff``.

    The reference for ``paths.increment_autocorr``: both factors are pooled
    over the rows and centred by ``np.mean``.
    """
    inc = np.diff(batch, axis=1)
    a, b = inc[:, :-1].ravel(), inc[:, 1:].ravel()
    a, b = a - np.mean(a), b - np.mean(b)
    return (a @ b) / math.sqrt((a @ a) * (b @ b))


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

    @pytest.mark.parametrize("sigma, message", [
        (math.inf, "sigma must be positive and finite, got inf"),
        (1e160, "sigma must have a finite square, got 1e[+]160"),
    ], ids=["inf", "1e+160"])
    def test_sigma_square_must_be_finite(self, sigma, message):
        # formerly wealth frozen at w0 (inf), or OverflowError in sigma ** 2
        with pytest.raises(DomainError, match=message):
            FouParams(kappa=1.0, level=0.0, sigma=sigma, hurst=0.5)


class TestSamplePath:
    @pytest.mark.parametrize("dt, n_values", [
        (0.0, 2), (-1.0, 2), (math.nan, 2), (math.inf, 2),
        # positive, but the last time 2 * dt overflows
        (1e308, 3),
    ], ids=["zero", "negative", "nan", "inf", "last-time-overflows"])
    def test_dt_must_be_positive_with_a_finite_last_time(self, dt, n_values):
        message = f"dt must be positive with a finite last time {n_values - 1} * dt, got {dt}"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            SamplePath(dt=dt, values=np.zeros(n_values))

    def test_last_time_of_the_largest_float_is_accepted(self):
        # one step of 1e308 ends at 1e308 itself, below the overflow
        assert SamplePath(dt=1e308, values=[0.0, 1.0]).times.tolist() == [0.0, 1e308]

    def test_values_must_be_finite(self):
        with pytest.raises(DomainError):
            SamplePath(dt=1.0, values=[0.0, math.nan])

    def test_needs_two_samples(self):
        with pytest.raises(DomainError):
            SamplePath(dt=1.0, values=[0.0])

    def test_dt_property(self):
        path = SamplePath(dt=0.5, values=[0.0, 1.0, 2.0])
        assert path.dt == 0.5 and path.n_steps == 2
        assert path.times.tolist() == [0.0, 0.5, 1.0]

    @pytest.mark.parametrize("n, dt", [(1, 0.1), (63, 0.01), (4096, 1.0 / 4096.0)])
    def test_fbm_times_are_the_index_times_dt(self, n, dt):
        for path in iter_fbm(3, n, dt, 0.7, 11):
            assert path.times.tobytes() == (np.arange(n + 1) * dt).tobytes()

    @pytest.mark.parametrize("factor", [2, 3, 16])
    def test_refined_dt_is_dt_over_factor(self, factor):
        path = generate_fbm(8, 0.1, 0.3, 4)
        assert refine_linear(path, factor).dt == path.dt / factor


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
        assert generate_fbm(16, 0.1, 0.5, 0).meta == "davies-harte"
        assert generate_fbm(16, 0.1, 0.5, 0, method="cholesky").meta.startswith("cholesky")

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            generate_fbm(0, 0.1, 0.5, 0)
        with pytest.raises(DomainError):
            generate_fbm(8, -0.1, 0.5, 0)
        with pytest.raises(DomainError):
            generate_fbm(8, 0.1, 0.5, 0, method="magic")
        # the grid's end time overflows (formerly a numpy RuntimeWarning first)
        with pytest.raises(DomainError, match=re.escape(
                "dt must be positive with a finite last time 16 * dt, got 1e+308")):
            generate_fbm(16, 1e308, 0.5, 0)
        with pytest.raises(DomainError, match=re.escape(
                "dt must be positive with a finite last time 8 * dt, got inf")):
            generate_fbm(8, math.inf, 0.5, 0)
        for hurst in (0.0, 1.0, -0.2, math.nan):
            with pytest.raises(DomainError, match=r"hurst must be in \(0, 1\)"):
                generate_fbm(8, 0.1, hurst, 0)
        for draw in (paths.iter_fbm, paths.generate_fbm_batch):
            with pytest.raises(DomainError, match="n_paths must be >= 1, got 0"):
                draw(0, 8, 0.1, 0.5, 0)
            # the paths are checked first, ahead of every other size
            with pytest.raises(DomainError, match="n_paths must be >= 1, got 0"):
                draw(0, 0, -1.0, 1.5, 0)

    def test_seed_must_be_a_non_negative_integer(self):
        # formerly int(seed): 1.5 drew seed 1's path, 2.9 base seed 2's batch,
        # and -1 reached numpy's own ValueError inside the first draw
        for seed in (1.5, 2.9, 2.0, -1, np.int64(-1), "1", None):
            message = re.escape(f"seed must be a non-negative integer, got {seed!r}")
            for draw in (lambda: generate_fbm(16, 1.0 / 16, 0.7, seed),
                         lambda: generate_fbm_batch(3, 16, 1.0 / 16, 0.7, seed),
                         lambda: iter_fbm(3, 16, 1.0 / 16, 0.7, seed),
                         # checked before the generator is resolved
                         lambda: generate_fbm(16, 1.0 / 16, 0.7, seed, method="magic")):
                with pytest.raises(DomainError, match=message):
                    draw()

    @pytest.mark.parametrize("seed", [np.int64(5), np.uint32(5), np.int8(5)])
    def test_numpy_integer_seeds_draw_their_streams(self, seed):
        assert generate_fbm_batch(3, 16, 1.0 / 16, 0.7, seed).tobytes() == (
            generate_fbm_batch(3, 16, 1.0 / 16, 0.7, 5).tobytes())

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

    @pytest.mark.parametrize("method", ["davies-harte", "cholesky"])
    @pytest.mark.parametrize("n", [1, 2, 63])
    @pytest.mark.parametrize("hurst", [0.05, 0.5, 0.95, 0.99, 0.999])
    def test_exact_covariance_matches_oracle(self, method, n, hurst):
        # a generator is linear in its normals, path = cumsum(color(z)), so
        # the image A of the identity gives A^T A, the exact covariance of
        # every path it can draw at unit dt, with no sampling
        label, n_normals, color = paths._resolve_method(n, hurst, method)
        assert label == method
        a = np.cumsum(color(np.eye(n_normals)), axis=1)
        theo = np.array([[fbm_covariance(i, j, hurst) for j in range(1, n + 1)]
                         for i in range(1, n + 1)])
        assert np.max(np.abs(a.T @ a - theo)) <= n * 1e-15 * theo.max()

    def test_brownian_increment_variance(self):
        path = generate_fbm(20_000, 0.25, 0.5, 7)
        inc = np.diff(path.values)
        assert inc.var() == pytest.approx(0.25, rel=0.05)

    @pytest.mark.parametrize("seed", [1, 3])
    def test_increment_autocorr_of_one_path(self, seed):
        # a single row is where a shifted slice of the increments could be a
        # view; centring one must not shift the other
        expected = lag1_autocorr(generate_fbm_batch(1, 64, 1.0 / 64, 0.7, seed))
        got = paths.increment_autocorr(1, 64, 1.0 / 64, 0.7, seed)
        assert got == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("hurst", [0.3, 0.7])
    def test_increment_autocorr_of_several_leaves(self, hurst):
        # 300 x 255 pairs span three leaf blocks of the pairwise reduction
        expected = lag1_autocorr(generate_fbm_batch(300, 256, 1.0 / 256, hurst, 13))
        got = paths.increment_autocorr(300, 256, 1.0 / 256, hurst, 13)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_increment_autocorr_lag_vanishes_for_brownian(self):
        n_paths = 10_000
        rho = paths.increment_autocorr(n_paths, 64, 0.01, 0.5, 51)
        assert abs(rho) < 4.0 / math.sqrt(n_paths)

    @pytest.mark.parametrize("width, lag, offset", [
        (1, 1, 0), (1, 1, 1), (1, 4, 4), (7, 3, 0), (7, 3, 3), (5, 1, 1)])
    def test_increment_blocks_are_the_flat_diff(self, width, lag, offset):
        # every range of a 9-row batch: on row ends, mid-row, inside one row
        # and across many rows, for the first (offset 0) and lagged factor
        batch = np.random.Generator(np.random.PCG64(4)).standard_normal(
            (9, width + lag + 1))
        flat = np.diff(batch, axis=1)[:, offset:offset + width].ravel()
        block = paths._increments(batch, offset, width)
        for start in range(flat.size):
            for stop in range(start + 1, flat.size + 1):
                assert block(start, stop).tobytes() == flat[start:stop].tobytes()

    @pytest.mark.parametrize("method", ["auto", "davies-harte", "cholesky"])
    def test_batch_rows_equal_single_paths(self, method):
        # one path more than a block holds, so the last path starts a block
        # of its own; seeds near 2**31 as the benchmark draws them
        _, rows, _ = paths._fbm_generator(1, 32, 0.125, 0.7, 0, method)
        n_paths, base_seed = rows + 1, 2 ** 31 - 3
        batch = generate_fbm_batch(n_paths, 32, 0.125, 0.7, base_seed, method=method)
        streamed = list(iter_fbm(n_paths, 32, 0.125, 0.7, base_seed, method=method))
        assert batch.shape == (n_paths, 33) and len(streamed) == n_paths
        for i in range(n_paths):
            single = generate_fbm(32, 0.125, 0.7, base_seed + i, method=method)
            assert np.array_equal(batch[i], single.values)
            assert np.array_equal(streamed[i].values, single.values)
            assert np.array_equal(streamed[i].times, single.times)
            assert streamed[i].meta == single.meta

    @pytest.mark.parametrize("n", [1, 2, 63, 4096])
    @pytest.mark.parametrize("hurst", [0.3, 0.7])
    def test_precomputed_coloring_matches_per_draw_reference(self, n, hurst):
        # reference: per row, the coloring recomputed through index gathers
        # and a 1-d FFT, as a single-path draw did it
        lam = paths._embedding_eigenvalues(n, hurst)
        m = lam.size
        z = np.array([np.random.Generator(np.random.PCG64(seed)).standard_normal(m)
                      for seed in (5, 6, 7)])
        got = paths._davies_harte_coloring(lam)(z)
        assert got.shape == (3, n)
        k = np.arange(1, n)
        for row, zj in zip(got, z):
            w = np.empty(m, dtype=np.complex128)
            w[0] = math.sqrt(lam[0] / m) * zj[0]
            w[n] = math.sqrt(lam[n] / m) * zj[1]
            w[k] = np.sqrt(lam[k] / (2.0 * m)) * (zj[2 * k] + 1j * zj[2 * k + 1])
            w[m - k] = np.conj(w[k])
            assert row.tobytes() == np.fft.fft(w).real[:n].tobytes()

    def test_scaled_values_overflow_is_domain_error(self):
        # dt ** hurst overflows the path of stream 3, alone and inside a block,
        # with no numpy RuntimeWarning on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DomainError, match="overflow"):
                generate_fbm(16, 1e307, 0.9999, 3)
            with pytest.raises(DomainError, match="overflow"):
                generate_fbm_batch(6, 16, 1e307, 0.9999, 0)

    def test_values_that_scale_to_the_largest_float_are_kept(self, monkeypatch):
        # dt ** hurst = 4.0 ** 0.5 = 2 exactly, and max / 2 scales to max
        top = sys.float_info.max / 2.0
        monkeypatch.setattr(paths, "_resolve_method", lambda n_steps, hurst, method: (
            "davies-harte", 1, lambda z: np.full_like(z, top)))
        assert generate_fbm_batch(1, 1, 4.0, 0.5, 0)[0, 1] == sys.float_info.max

    def test_zero_dt_rejected(self):
        with pytest.raises(DomainError, match=re.escape(
                "dt must be positive with a finite last time 8 * dt, got 0.0")):
            generate_fbm_batch(2, 8, 0.0, 0.5, 0)

    @pytest.mark.parametrize("n", [1, 2, 3, 17, 257])
    @pytest.mark.parametrize("hurst", [0.1, 0.5, 0.7, 0.9])
    def test_cholesky_factor_matches_index_matrix_reference(self, n, hurst):
        # reference: the Toeplitz covariance gathered through |i - j| indices
        gamma = paths._fgn_autocov(n - 1, hurst)
        idx = np.arange(n)
        expected = np.linalg.cholesky(gamma[np.abs(idx[:, None] - idx[None, :])])
        got = paths._cholesky_factor(n, hurst)
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("method", ["cholesky", "auto"])
    def test_oversized_cholesky_rejected_before_allocation(self, monkeypatch,
                                                           tmp_path, method):
        def unreachable(*args):
            raise AssertionError("the factor must not be allocated")

        def boom(n_steps, hurst):
            raise paths.EmbeddingError("forced")

        monkeypatch.setattr(np.linalg, "cholesky", unreachable)
        monkeypatch.setattr(paths, "_embedding_eigenvalues", boom)
        n = 8193  # 2 * 8 * n * n bytes is just above the 1 GiB limit
        assert 2 * 8 * n * n > paths.MAX_ARRAY_BYTES >= 2 * 8 * 8192 ** 2
        with pytest.raises(ConfigError, match=f"needs {2 * 8 * n * n} bytes"):
            generate_fbm(n, 0.1, 0.6, 3, method=method)
        assert main(["fbm-gen", "--set", f"n_steps={n}", "--set",
                     f"method={method}", "--set", "hurst=0.6",
                     "--out", str(tmp_path)]) == 2

    def test_cholesky_factor_at_the_size_limit_is_allowed(self, monkeypatch):
        # 2 * 8 * 8192**2 bytes is exactly the limit; the factor is not computed
        monkeypatch.setattr(np.linalg, "cholesky", lambda cov: cov.shape)
        assert paths._cholesky_factor(8192, 0.6) == (8192, 8192)

    def test_fallback_on_negative_eigenvalue(self, monkeypatch):
        def boom(n_steps, hurst):
            raise paths.EmbeddingError("forced")
        monkeypatch.setattr(paths, "_embedding_eigenvalues", boom)
        assert generate_fbm(16, 0.1, 0.6, 3).meta.startswith("cholesky")
        with pytest.raises(paths.EmbeddingError):
            generate_fbm(16, 0.1, 0.6, 3, method="davies-harte")

    def test_eigenvalue_at_the_round_off_bound_is_clipped(self, monkeypatch):
        # an eigenvalue of exactly -_EIG_TOL times the largest is round-off
        monkeypatch.setattr(np.fft, "fft", lambda row: np.array([1.0, -paths._EIG_TOL]))
        assert paths._embedding_eigenvalues(1, 0.5).tolist() == [1.0, 0.0]

    @pytest.mark.parametrize("k", [-40, 0, 4, 40])
    def test_round_off_band_is_scale_free(self, monkeypatch, k):
        # an eigenvalue of about -1e-14 times the largest is round-off at
        # every scale: a covariance times 2**k has every eigenvalue times 2**k
        gamma = np.array([1.0, 0.5, 1.0 + 1e-14]) * 2.0 ** k
        monkeypatch.setattr(paths, "_fgn_autocov", lambda n_lags, hurst: gamma)
        lam = np.fft.fft(np.concatenate([gamma, gamma[1:2]])).real
        assert -paths._EIG_TOL * lam.max() < lam.min() < 0.0
        assert paths._embedding_eigenvalues(2, 0.5).tolist() == np.clip(lam, 0.0, None).tolist()

    def test_fallback_needed_near_hurst_one(self):
        # a real negative eigenvalue where the Cholesky factor still exists
        with pytest.raises(paths.EmbeddingError):
            generate_fbm(2048, 1 / 2048, 0.99999999, 1, method="davies-harte")
        assert generate_fbm(2048, 1 / 2048, 0.99999999, 1).meta.startswith("cholesky")

    @pytest.mark.parametrize("hurst", [0.3, 0.7])
    def test_variance_scaling_slope(self, hurst):
        slope = paths.variance_slope(2000, 256, 1.0 / 256.0, hurst, 77)
        assert slope == pytest.approx(2.0 * hurst, abs=0.05)

    def test_variance_slope_of_two_paths_and_two_steps(self):
        assert math.isfinite(paths.variance_slope(2, 2, 0.5, 0.7, 3))

    @pytest.mark.parametrize("n_paths, n_steps", [(1, 16), (4, 1)])
    def test_variance_slope_needs_two_paths_and_two_steps(self, n_paths, n_steps):
        # one path has no sample variance; one step gives one point to fit
        with pytest.raises(DomainError, match="variance_slope needs"):
            paths.variance_slope(n_paths, n_steps, 0.1, 0.7, 1)

    @pytest.mark.parametrize("n_paths, n_steps, pairs", [(1, 2, 1), (4, 1, 0)])
    def test_increment_autocorr_needs_two_pairs(self, n_paths, n_steps, pairs):
        with pytest.raises(DomainError, match=re.escape(
                f"at least two pooled pairs, got n_paths * (n_steps - 1) = {pairs}")):
            paths.increment_autocorr(n_paths, n_steps, 0.5, 0.7, 3)

    def test_increment_autocorr_of_two_pairs(self):
        # two centred points lie on a line, so their correlation is +-1
        assert abs(paths.increment_autocorr(2, 2, 0.5, 0.7, 3)) == pytest.approx(1.0)

    def test_increment_autocorr_of_underflowing_increments(self):
        # dt**hurst ~ 1e-198: the increments' squares underflow to 0
        with pytest.raises(DomainError, match="sum of squares .* is 0"):
            paths.increment_autocorr(4, 16, 1e-200, 0.99, 3)

    def test_variance_slope_of_a_zero_variance(self):
        # dt**hurst underflows to a subnormal, and the squared deviations to 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=r"variance at t = 1e-320 is not positive"):
                paths.variance_slope(4, 16, 1e-320, 0.99, 3)

    @pytest.mark.parametrize("estimator, message", [
        (paths.variance_slope, r"variance at t = 1e\+300 overflows"),
        (paths.increment_autocorr, r"sum of squares .*, or their product, overflows")],
        ids=["variance-slope", "increment-autocorr"])
    def test_overflowing_moments_are_named(self, estimator, message):
        # dt**hurst ~ 1e297: the paths are finite, their squares are not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=message):
                estimator(4, 16, 1e300, 0.99, 3)

    @pytest.mark.parametrize("estimator", [paths.variance_slope,
                                           paths.increment_autocorr])
    def test_estimator_holds_one_batch(self, estimator):
        # the batch plus one leaf block of the pairwise sums and a draw's
        # scratch; any whole-batch temporary would add another batch
        n_paths, n_steps = 512, 1024
        # a first call loads what np.polyfit imports lazily, which
        # tracemalloc would count against the estimator
        estimator(4, 16, 1.0 / 16, 0.7, 3)
        tracemalloc.start()
        try:
            estimator(n_paths, n_steps, 1.0 / n_steps, 0.7, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * 8 * n_paths * (n_steps + 1)


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

    @pytest.mark.parametrize("p0", [math.nan, math.inf])
    def test_p0_must_be_finite(self, p0):
        params = FouParams(kappa=-0.4, level=1.0, sigma=0.3, hurst=0.6)
        with pytest.raises(DomainError, match="p0 must be finite"):
            simulate_fou(params, p0, 16, 0.01, 21)

    def test_meta_carries_driver_method(self):
        params = FouParams(kappa=-0.4, level=1.0, sigma=0.3, hurst=0.6)
        assert simulate_fou(params, 1.0, 16, 0.01, 21).meta.startswith("fou-euler;davies-harte")


class TestRefineLinear:
    def test_keeps_knots_and_interpolates(self):
        path = SamplePath(dt=1.0, values=[0.0, 2.0, 1.0])
        fine = refine_linear(path, 2)
        np.testing.assert_allclose(fine.times, [0.0, 0.5, 1.0, 1.5, 2.0])
        np.testing.assert_allclose(fine.values, [0.0, 1.0, 2.0, 1.5, 1.0])

    def test_factor_one_is_identity(self):
        path = SamplePath(dt=1.0, values=[0.0, 1.0])
        assert refine_linear(path, 1) is path

    def test_bad_factor(self):
        # 2.0 was accepted, and its meta ended in linear-refined-x2.0
        path = SamplePath(dt=1.0, values=[0.0, 1.0])
        for factor in (0, -2, 2.0, 2.5, "2", None):
            with pytest.raises(DomainError, match=re.escape(
                    f"factor must be a positive integer, got {factor}")):
                refine_linear(path, factor)

    def test_numpy_integer_factor(self):
        path = SamplePath(dt=1.0, values=[0.0, 1.0])
        fine = refine_linear(path, np.int64(2))
        assert fine.meta == ";linear-refined-x2" and fine.values.tolist() == [0.0, 0.5, 1.0]
