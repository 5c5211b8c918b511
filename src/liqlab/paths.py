"""Seeded generation of fractional Brownian motion and fractional OU paths.

Fractional Gaussian noise is sampled exactly via circulant embedding
(Davies-Harte): the autocovariance ring is diagonalized with an FFT and a
complex Gaussian vector is colored by the eigenvalue square roots.  If the
embedding has a negative eigenvalue for the requested size and Hurst index,
generation falls back to an exact Cholesky factorization of the increment
covariance; the method actually used is recorded in ``SamplePath.meta``.

Randomness comes from one PCG64 stream per path (stream seed = base seed +
path index); normal variates use numpy's ziggurat sampler.  Identical
inputs therefore reproduce bit-identical paths.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import DomainError

PRNG_LABEL = "pcg64"
NORMAL_LABEL = "ziggurat"
METHOD_DAVIES_HARTE = "davies-harte"
METHOD_CHOLESKY = "cholesky"

# eigenvalues above -_EIG_TOL * max(eig) are treated as FFT round-off
_EIG_TOL = 1e-12


class EmbeddingError(RuntimeError):
    """Circulant embedding produced a genuinely negative eigenvalue."""


@dataclass(frozen=True)
class FouParams:
    """Parameters of dP = kappa * (P - level) dt + sigma dB^H.

    The drift is applied exactly as written: positive ``kappa`` pushes the
    price away from ``level``, mean reversion needs ``kappa < 0``.
    """

    kappa: float
    level: float
    sigma: float
    hurst: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 < self.hurst < 1.0:
            raise DomainError(f"hurst must be in (0, 1), got {self.hurst}")
        if not self.sigma > 0.0:
            raise DomainError(f"sigma must be positive, got {self.sigma}")
        if not math.isfinite(self.kappa) or not math.isfinite(self.level):
            raise DomainError("kappa and level must be finite")


@dataclass(frozen=True)
class SamplePath:
    """A path sampled on a uniform time grid.

    ``meta`` carries the generation-method label, e.g.
    ``"davies-harte;prng=pcg64;normal=ziggurat"``.
    """

    times: np.ndarray
    values: np.ndarray
    seed: int
    meta: str = ""

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=np.float64)
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        if times.ndim != 1 or values.ndim != 1 or len(times) != len(values):
            raise DomainError("times and values must be 1-d and equally long")
        if len(times) < 2:
            raise DomainError("a path needs at least two samples")
        steps = np.diff(times)
        if not np.all(steps > 0.0):
            raise DomainError("times must be strictly increasing")
        if not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
            raise DomainError("time grid must be uniform")
        if not np.all(np.isfinite(values)):
            raise DomainError("path values must be finite")

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    @property
    def n_steps(self) -> int:
        return len(self.times) - 1


def _check_hurst(hurst: float) -> None:
    if not 0.0 < hurst < 1.0:
        raise DomainError(f"hurst must be in (0, 1), got {hurst}")


def fbm_covariance(s: float, t: float, hurst: float) -> float:
    """Covariance of fractional Brownian motion at times ``s`` and ``t``."""
    _check_hurst(hurst)
    if s < 0.0 or t < 0.0:
        raise DomainError("times must be non-negative")
    h2 = 2.0 * hurst
    return 0.5 * (s ** h2 + t ** h2 - abs(t - s) ** h2)


def _fgn_autocov(n_lags: int, hurst: float) -> np.ndarray:
    """Autocovariance of unit-spacing fractional Gaussian noise, lags 0..n_lags."""
    k = np.arange(n_lags + 1, dtype=np.float64)
    h2 = 2.0 * hurst
    return 0.5 * ((k + 1.0) ** h2 - 2.0 * k ** h2 + np.abs(k - 1.0) ** h2)


def _embedding_eigenvalues(n_steps: int, hurst: float) -> np.ndarray:
    """Eigenvalues of the circulant embedding of the fGn covariance.

    Raises :class:`EmbeddingError` when an eigenvalue is negative beyond
    FFT round-off, which is the signal to fall back to Cholesky.
    """
    gamma = _fgn_autocov(n_steps, hurst)
    row = np.concatenate([gamma, gamma[-2:0:-1]])
    lam = np.fft.fft(row).real
    if lam.min() < -_EIG_TOL * lam.max():
        raise EmbeddingError(
            f"davies-harte embedding failed: negative circulant eigenvalue "
            f"{lam.min():.3e} for n={n_steps}, hurst={hurst}")
    return np.clip(lam, 0.0, None)


def _davies_harte_sampler(lam: np.ndarray):
    """Per-path unit-spacing fGn sampler for precomputed embedding eigenvalues.

    The coloring (eigenvalue square roots) is computed here, once, so each
    draw costs one normal vector, one complex multiply and one FFT.
    """
    m = lam.size
    n = m // 2
    head = math.sqrt(lam[0] / m)
    middle = math.sqrt(lam[n] / m)
    coloring = np.sqrt(lam[1:n] / (2.0 * m))

    def sample(rng: np.random.Generator) -> np.ndarray:
        z = rng.standard_normal(m)
        w = np.empty(m, dtype=np.complex128)
        w[0] = head * z[0]
        w[n] = middle * z[1]
        w[1:n] = coloring * (z[2:m:2] + 1j * z[3:m:2])
        w[n + 1:] = np.conj(w[n - 1:0:-1])
        return np.fft.fft(w).real[:n]

    return sample


def _cholesky_factor(n_steps: int, hurst: float) -> np.ndarray:
    gamma = _fgn_autocov(n_steps - 1, hurst)
    # ring is gamma[n-1], ..., gamma[1], gamma[0], ..., gamma[n-1]; its
    # length-n windows, last first, are the Toeplitz rows gamma[|j - i|],
    # as a strided view with no n x n index matrices
    ring = np.concatenate([gamma[:0:-1], gamma])
    cov = np.lib.stride_tricks.sliding_window_view(ring, n_steps)[::-1]
    return np.linalg.cholesky(cov)


def _path_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(int(seed)))


def _meta(method: str) -> str:
    return f"{method};prng={PRNG_LABEL};normal={NORMAL_LABEL}"


def _resolve_method(n_steps: int, hurst: float, method: str):
    """Pick the generator and return (label, per-path sampler)."""
    if method in ("auto", METHOD_DAVIES_HARTE):
        try:
            lam = _embedding_eigenvalues(n_steps, hurst)
            return METHOD_DAVIES_HARTE, _davies_harte_sampler(lam)
        except EmbeddingError:
            if method == METHOD_DAVIES_HARTE:
                raise
    elif method != METHOD_CHOLESKY:
        raise DomainError(f"unknown fBM method {method!r}")
    factor = _cholesky_factor(n_steps, hurst)
    return METHOD_CHOLESKY, lambda rng: factor @ rng.standard_normal(n_steps)


def _fbm_generator(n_steps: int, dt: float, hurst: float, method: str):
    """Validate the grid, resolve the generator once; return (label, draw).

    ``draw(seed, out)`` fills ``out`` (length ``n_steps + 1``) with the fBM
    path of PRNG stream ``seed`` and returns it.
    """
    _check_hurst(hurst)
    if n_steps < 1:
        raise DomainError(f"n_steps must be >= 1, got {n_steps}")
    if not dt > 0.0:
        raise DomainError(f"dt must be positive, got {dt}")
    if not math.isfinite(n_steps * dt):
        raise DomainError(f"time grid overflows: n_steps * dt = {n_steps} * {dt}")
    label, sampler = _resolve_method(n_steps, hurst, method)
    scale = dt ** hurst

    def draw(seed: int, out: np.ndarray) -> np.ndarray:
        out[0] = 0.0
        np.cumsum(sampler(_path_rng(seed)), out=out[1:])
        out[1:] *= scale
        return out

    return label, draw


def iter_fbm(n_paths: int, n_steps: int, dt: float, hurst: float,
             base_seed: int, method: str = "auto") -> Iterator[SamplePath]:
    """Fractional Brownian paths, one :class:`SamplePath` at a time.

    The generator (circulant eigenvalues and coloring, or the Cholesky
    factor) is resolved once, when this is called; each path is drawn only
    when the iterator reaches it.  Path ``i`` uses the stream
    ``base_seed + i`` and is bit-identical to
    ``generate_fbm(n_steps, dt, hurst, base_seed + i, method)``.
    """
    if n_paths < 1:
        raise DomainError(f"n_paths must be >= 1, got {n_paths}")
    label, draw = _fbm_generator(n_steps, dt, hurst, method)
    meta = _meta(label)
    seeds = range(int(base_seed), int(base_seed) + n_paths)
    return (SamplePath(times=np.arange(n_steps + 1) * dt,
                       values=draw(seed, np.empty(n_steps + 1)),
                       seed=seed, meta=meta)
            for seed in seeds)


def generate_fbm(n_steps: int, dt: float, hurst: float, seed: int,
                 method: str = "auto") -> SamplePath:
    """Fractional Brownian motion at times ``i * dt``, ``i = 0..n_steps``.

    The path starts at zero and has the exact target covariance in
    distribution.  Deterministic for fixed (seed, n_steps, dt, hurst,
    method).
    """
    return next(iter_fbm(1, n_steps, dt, hurst, seed, method))


def generate_fbm_batch(n_paths: int, n_steps: int, dt: float, hurst: float,
                       base_seed: int, method: str = "auto") -> np.ndarray:
    """Stack of fBM paths, shape ``(n_paths, n_steps + 1)``.

    Path ``i`` uses the stream ``base_seed + i`` and is bit-identical to
    ``generate_fbm(n_steps, dt, hurst, base_seed + i, method)``, so batch
    work may be split across workers in any order.
    """
    if n_paths < 1:
        raise DomainError(f"n_paths must be >= 1, got {n_paths}")
    _, draw = _fbm_generator(n_steps, dt, hurst, method)
    out = np.empty((n_paths, n_steps + 1))
    for i in range(n_paths):
        draw(int(base_seed) + i, out[i])
    return out


def simulate_fou(params: FouParams, p0: float, n_steps: int, dt: float,
                 seed: int, method: str = "auto") -> SamplePath:
    """Euler path of dP = kappa * (P - level) dt + sigma dB^H.

    The update is ``P[i+1] = P[i] + kappa * (P[i] - level) * dt +
    sigma * (B[i+1] - B[i])`` with the fBM increments generated per
    :func:`generate_fbm`.
    """
    if not math.isfinite(p0):
        raise DomainError("p0 must be finite")
    driver = generate_fbm(n_steps, dt, params.hurst, seed, method=method)
    shocks = (params.sigma * np.diff(driver.values)).reshape(1, -1)
    values = kernels.fou_euler(float(p0), params.kappa, params.level, float(dt),
                               shocks)[0]
    return SamplePath(times=driver.times, values=values, seed=int(seed),
                      meta=f"fou-euler;{driver.meta}")


def refine_linear(path: SamplePath, factor: int) -> SamplePath:
    """Resample ``path`` on a grid ``factor`` times finer.

    The path is treated as the fixed piecewise-linear function through its
    samples; new points are linear interpolants, existing points are kept.
    """
    if factor < 1 or int(factor) != factor:
        raise DomainError(f"factor must be a positive integer, got {factor}")
    if factor == 1:
        return path
    n = path.n_steps
    grid = np.arange(n * factor + 1) / factor
    values = np.interp(grid, np.arange(n + 1, dtype=np.float64), path.values)
    return SamplePath(times=grid * path.dt, values=values, seed=path.seed,
                      meta=f"{path.meta};linear-refined-x{factor}")


def variance_slope(n_paths: int, n_steps: int, dt: float, hurst: float,
                   base_seed: int) -> float:
    """Log-log slope of Monte Carlo path variance against time.

    For fBM the population variance is t^(2H), so the fitted slope
    estimates 2H.  Cross-path aggregation uses the deterministic pairwise
    reduction, making the result independent of path scheduling.
    """
    batch = generate_fbm_batch(n_paths, n_steps, dt, hurst, base_seed)
    x = batch[:, 1:]
    mean = kernels.pairwise_mean(x)
    var = kernels.pairwise_sum((x - mean) ** 2) / (n_paths - 1)
    t = np.arange(1, n_steps + 1) * dt
    slope, _ = np.polyfit(np.log(t), np.log(var), 1)
    return float(slope)


def increment_autocorr(n_paths: int, n_steps: int, dt: float, hurst: float,
                       base_seed: int, lag: int = 1) -> float:
    """Pooled increment autocorrelation at the given lag across a batch."""
    if lag < 1 or lag >= n_steps:
        raise DomainError(f"lag must be in [1, n_steps), got {lag}")
    batch = generate_fbm_batch(n_paths, n_steps, dt, hurst, base_seed)
    inc = np.diff(batch, axis=1)
    a = inc[:, :-lag].ravel()
    b = inc[:, lag:].ravel()
    a = a - kernels.pairwise_mean(a)
    b = b - kernels.pairwise_mean(b)
    cov = kernels.pairwise_sum(a * b)
    return float(cov / math.sqrt(kernels.pairwise_sum(a * a)
                                 * kernels.pairwise_sum(b * b)))
