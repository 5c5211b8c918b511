"""Seeded generation of fractional Brownian motion and fractional OU paths.

Fractional Gaussian noise is sampled exactly via circulant embedding
(Davies-Harte): the autocovariance ring is diagonalized with an FFT and a
complex Gaussian vector is colored by the eigenvalue square roots.  If the
embedding has a negative eigenvalue for the requested size and Hurst index,
generation falls back to an exact Cholesky factorization of the increment
covariance; the method actually used is recorded in ``SamplePath.meta``.
A :class:`SamplePath` is ``(dt, values, meta)``: its times ``i * dt`` are
derived, so its grid is uniform by construction.

Randomness comes from one PCG64 stream per path (stream seed = base seed +
path index); normal variates use numpy's ziggurat sampler.  Paths are drawn
in blocks of a few rows: each row still takes its normals from its own
stream, and the coloring, FFT, cumulative sum and scaling then run once per
block, with the same floating-point operations on every row as a block of
one.  Identical inputs therefore reproduce bit-identical paths, however
they are blocked, with the same numpy version and BLAS thread count (the
OpenBLAS Cholesky factor's bits depend on it from ``n_steps = 128`` on).
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import ConfigError, DomainError

PRNG_LABEL = "pcg64"
NORMAL_LABEL = "ziggurat"
METHOD_DAVIES_HARTE = "davies-harte"
METHOD_CHOLESKY = "cholesky"
FBM_METHODS = ("auto", METHOD_DAVIES_HARTE, METHOD_CHOLESKY)

# eigenvalues above -_EIG_TOL * max(eig) are treated as FFT round-off
_EIG_TOL = 1e-12

# scratch bytes per block of paths, at 16 per normal (the complex coloring
# row, or a Cholesky row's normals and increments): 256 KiB amortizes
# numpy's per-call overhead over a few rows and keeps the block in cache
_BLOCK_BYTES = 1 << 18

# bytes that an input size may make a run allocate: here the Cholesky factor
# and LAPACK's working copy (two n x n float64 arrays, so n <= 8192); the
# experiment schemas bound a run's peak per step or per point by it too
MAX_ARRAY_BYTES = 1 << 30


class EmbeddingError(DomainError):
    """Circulant embedding produced a genuinely negative eigenvalue."""


def _check_hurst(hurst: float) -> None:
    if not 0.0 < hurst < 1.0:
        raise DomainError(f"hurst must be in (0, 1), got {hurst}")


def _check_sigma(sigma: float) -> None:
    if not 0.0 < sigma < math.inf:
        raise DomainError(f"sigma must be positive and finite, got {sigma}")
    # sigma * sigma, not sigma ** 2: float ** raises OverflowError itself
    if not math.isfinite(sigma * sigma):
        raise DomainError(f"sigma must have a finite square, got {sigma}")


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
        _check_hurst(self.hurst)
        _check_sigma(self.sigma)
        if not math.isfinite(self.kappa) or not math.isfinite(self.level):
            raise DomainError("kappa and level must be finite")


@dataclass(frozen=True)
class SamplePath:
    """A path sampled at the times ``i * dt``, ``i = 0..n_steps``.

    ``dt`` must be positive with a finite last time ``n_steps * dt``, and
    the values finite; ``times`` is computed on each access.  ``meta``
    carries the generation-method label, e.g.
    ``"davies-harte;prng=pcg64;normal=ziggurat"``.
    """

    dt: float
    values: np.ndarray
    meta: str = ""

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "dt", float(self.dt))
        object.__setattr__(self, "values", values)
        if values.ndim != 1 or len(values) < 2:
            raise DomainError("a path needs a 1-d array of at least two samples")
        if not (self.dt > 0.0 and math.isfinite((len(values) - 1) * self.dt)):
            raise DomainError(f"dt must be positive with a finite last time "
                              f"{len(values) - 1} * dt, got {self.dt}")
        if not np.all(np.isfinite(values)):
            raise DomainError("path values must be finite")

    @property
    def times(self) -> np.ndarray:
        return np.arange(len(self.values)) * self.dt

    @property
    def n_steps(self) -> int:
        return len(self.values) - 1


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


def _davies_harte_coloring(lam: np.ndarray):
    """Block colorer for precomputed embedding eigenvalues.

    The coloring (eigenvalue square roots) is computed here, once.  The
    returned function maps a ``(k, m)`` block of normals to a ``(k, m // 2)``
    block of unit-spacing fGn: the colored normals are written straight into
    the real and imaginary parts of the FFT input, then one row-wise FFT per
    block.
    """
    m = lam.size
    n = m // 2
    head = math.sqrt(lam[0] / m)
    middle = math.sqrt(lam[n] / m)
    coloring = np.sqrt(lam[1:n] / (2.0 * m))

    def color(z: np.ndarray) -> np.ndarray:
        w = np.empty(z.shape, dtype=np.complex128)
        w[:, 0] = head * z[:, 0]
        w[:, n] = middle * z[:, 1]
        np.multiply(coloring, z[:, 2:m:2], out=w.real[:, 1:n])
        np.multiply(coloring, z[:, 3:m:2], out=w.imag[:, 1:n])
        np.conjugate(w[:, n - 1:0:-1], out=w[:, n + 1:])
        return np.fft.fft(w, axis=1).real[:, :n]

    return color


def _cholesky_factor(n_steps: int, hurst: float) -> np.ndarray:
    needed = 2 * 8 * n_steps * n_steps
    if needed > MAX_ARRAY_BYTES:
        raise ConfigError(
            f"the Cholesky factor for n_steps={n_steps} needs {needed} bytes "
            f"for two {n_steps}x{n_steps} float64 arrays, above the limit of "
            f"{MAX_ARRAY_BYTES} bytes")
    gamma = _fgn_autocov(n_steps - 1, hurst)
    # ring is gamma[n-1], ..., gamma[1], gamma[0], ..., gamma[n-1]; its
    # length-n windows, last first, are the Toeplitz rows gamma[|j - i|],
    # as a strided view with no n x n index matrices
    ring = np.concatenate([gamma[:0:-1], gamma])
    cov = np.lib.stride_tricks.sliding_window_view(ring, n_steps)[::-1]
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        raise DomainError(
            f"the fGn covariance for n_steps={n_steps}, hurst={hurst} is not "
            f"positive definite in float64") from None


def _path_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(int(seed)))


def _meta(method: str) -> str:
    return f"{method};prng={PRNG_LABEL};normal={NORMAL_LABEL}"


def _resolve_method(n_steps: int, hurst: float, method: str):
    """Pick the generator; return (label, normals per path, block colorer)."""
    if method not in FBM_METHODS:
        raise DomainError(f"unknown fBM method {method!r}")
    if method != METHOD_CHOLESKY:
        try:
            lam = _embedding_eigenvalues(n_steps, hurst)
            return METHOD_DAVIES_HARTE, lam.size, _davies_harte_coloring(lam)
        except EmbeddingError:
            if method == METHOD_DAVIES_HARTE:
                raise
    factor = _cholesky_factor(n_steps, hurst)

    def color(z: np.ndarray) -> np.ndarray:
        # one matrix-vector product per row, as for a single path
        inc = np.empty_like(z)
        for j, row in enumerate(z):
            inc[j] = factor @ row
        return inc

    return METHOD_CHOLESKY, n_steps, color


def _fbm_generator(n_steps: int, dt: float, hurst: float, method: str):
    """Validate the grid, resolve the generator once; return (label, rows, draw).

    ``draw(seed, out)`` fills the ``(k, n_steps + 1)`` block ``out`` with the
    fBM paths of PRNG streams ``seed .. seed + k - 1``, one row each, and
    returns it.  ``rows`` is the block height callers should pass, so that a
    block's scratch arrays stay near ``_BLOCK_BYTES``.
    """
    _check_hurst(hurst)
    if n_steps < 1:
        raise DomainError(f"n_steps must be >= 1, got {n_steps}")
    if not dt > 0.0:
        raise DomainError(f"dt must be positive, got {dt}")
    if not math.isfinite(n_steps * dt):
        raise DomainError(f"time grid overflows: n_steps * dt = {n_steps} * {dt}")
    label, n_normals, color = _resolve_method(n_steps, hurst, method)
    scale = dt ** hurst
    rows = max(1, _BLOCK_BYTES // (16 * n_normals))

    def draw(seed: int, out: np.ndarray) -> np.ndarray:
        z = np.empty((out.shape[0], n_normals))
        for j, row in enumerate(z):
            _path_rng(seed + j).standard_normal(out=row)
        out[:, 0] = 0.0
        np.cumsum(color(z), axis=1, out=out[:, 1:])
        if scale > 1.0 and np.abs(out[:, 1:]).max() > sys.float_info.max / scale:
            raise DomainError(f"fBM values overflow when scaled by dt**hurst = {scale}")
        out[:, 1:] *= scale
        return out

    return label, rows, draw


def iter_fbm(n_paths: int, n_steps: int, dt: float, hurst: float,
             base_seed: int, method: str = "auto") -> Iterator[SamplePath]:
    """Fractional Brownian paths, one :class:`SamplePath` at a time.

    The generator (circulant eigenvalues and coloring, or the Cholesky
    factor) is resolved once, when this is called; each block of a few
    paths is drawn only when the iterator reaches its first path.  Path
    ``i`` uses the stream ``base_seed + i`` and is bit-identical to
    ``generate_fbm(n_steps, dt, hurst, base_seed + i, method)``.
    """
    if n_paths < 1:
        raise DomainError(f"n_paths must be >= 1, got {n_paths}")
    label, rows, draw = _fbm_generator(n_steps, dt, hurst, method)
    meta = _meta(label)

    def sample_paths() -> Iterator[SamplePath]:
        for start in range(0, n_paths, rows):
            block = draw(int(base_seed) + start,
                         np.empty((min(rows, n_paths - start), n_steps + 1)))
            for values in block:
                yield SamplePath(dt=dt, values=values, meta=meta)

    return sample_paths()


def generate_fbm(n_steps: int, dt: float, hurst: float, seed: int,
                 method: str = "auto") -> SamplePath:
    """Fractional Brownian motion at times ``i * dt``, ``i = 0..n_steps``.

    The path starts at zero and has the exact target covariance in
    distribution.  Deterministic for fixed (seed, n_steps, dt, hurst,
    method).  It is drawn as a block of one row.
    """
    return next(iter_fbm(1, n_steps, dt, hurst, seed, method))


def generate_fbm_batch(n_paths: int, n_steps: int, dt: float, hurst: float,
                       base_seed: int, method: str = "auto") -> np.ndarray:
    """Stack of fBM paths, shape ``(n_paths, n_steps + 1)``.

    The rows are drawn in blocks of a few paths, straight into the result;
    there is still one PRNG stream per path.  Path ``i`` uses the stream
    ``base_seed + i`` and is bit-identical to
    ``generate_fbm(n_steps, dt, hurst, base_seed + i, method)``, so batch
    work may be split across workers in any order.
    """
    if n_paths < 1:
        raise DomainError(f"n_paths must be >= 1, got {n_paths}")
    _, rows, draw = _fbm_generator(n_steps, dt, hurst, method)
    out = np.empty((n_paths, n_steps + 1))
    for start in range(0, n_paths, rows):
        draw(int(base_seed) + start, out[start:start + rows])
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
    values = kernels.fou_euler(float(p0), params.kappa, params.level, float(dt),
                               params.sigma * np.diff(driver.values))
    return SamplePath(dt=driver.dt, values=values, meta=f"fou-euler;{driver.meta}")


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
    return SamplePath(dt=path.dt / factor, values=values,
                      meta=f"{path.meta};linear-refined-x{factor}")


def variance_slope(n_paths: int, n_steps: int, dt: float, hurst: float,
                   base_seed: int) -> float:
    """Log-log slope of Monte Carlo path variance against time.

    For fBM the population variance is t^(2H), so the fitted slope
    estimates 2H.  Cross-path aggregation uses the deterministic pairwise
    reduction, making the result independent of path scheduling; the
    squared deviations are formed one leaf block of paths at a time.
    """
    if n_paths < 2 or n_steps < 2:
        raise DomainError(f"variance_slope needs n_paths >= 2 and n_steps >= 2, "
                          f"got {n_paths} and {n_steps}")
    x = generate_fbm_batch(n_paths, n_steps, dt, hurst, base_seed)[:, 1:]
    with np.errstate(over="ignore", invalid="ignore"):  # checked on var below
        mean = kernels.pairwise_sum(x) / n_paths
        sq_dev = kernels.pairwise_reduce(
            n_paths, lambda start, stop: (x[start:stop] - mean) ** 2, mean.shape)
    var = sq_dev / (n_paths - 1)
    t = np.arange(1, n_steps + 1) * dt
    finite = np.isfinite(var)
    if not finite.all():
        first = float(t[np.argmin(finite)])
        raise DomainError(f"variance_slope: the path variance at t = {first!r} "
                          f"overflows")
    positive = var > 0.0
    if not positive.all():
        first = float(t[np.argmin(positive)])
        raise DomainError(f"variance_slope: the path variance at t = {first!r} is not "
                          f"positive, so its log is undefined")
    slope, _ = np.polyfit(np.log(t), np.log(var), 1)
    return float(slope)


def _increments(batch: np.ndarray, offset: int, width: int):
    """Block function over ``np.diff(batch, axis=1)[:, offset:offset + width]``
    flattened row by row, for :func:`kernels.pairwise_reduce`.

    A block is cut from the increments of the batch rows it spans only.
    """
    def block(start: int, stop: int) -> np.ndarray:
        first, last = start // width, -(-stop // width)
        rows = np.diff(batch[first:last, offset:offset + width + 1], axis=1)
        return rows.ravel()[start - first * width:stop - first * width]

    return block


def increment_autocorr(n_paths: int, n_steps: int, dt: float, hurst: float,
                       base_seed: int, lag: int = 1) -> float:
    """Pooled increment autocorrelation at the given lag across a batch.

    The increments ``a = inc[:, :-lag]`` and ``b = inc[:, lag:]`` are
    pooled over all paths, centred by their pairwise means, and reduced
    pairwise; each leaf block is recomputed from the batch, so no
    batch-sized array besides the batch itself is held.
    """
    if lag < 1 or lag >= n_steps:
        raise DomainError(f"lag must be in [1, n_steps), got {lag}")
    width = n_steps - lag
    n = n_paths * width
    if n < 2:
        raise DomainError(f"increment_autocorr needs at least two pooled pairs, "
                          f"got n_paths * (n_steps - lag) = {n}")
    batch = generate_fbm_batch(n_paths, n_steps, dt, hurst, base_seed)

    def centred(offset):
        increments = _increments(batch, offset, width)
        mean = kernels.pairwise_reduce(n, increments) / n
        return lambda start, stop: increments(start, stop) - mean

    def dot(first, second):
        return kernels.pairwise_reduce(
            n, lambda start, stop: first(start, stop) * second(start, stop))

    with np.errstate(over="ignore", invalid="ignore"):  # checked on squares below
        a, b = centred(0), centred(lag)
        squares = dot(a, a) * dot(b, b)
    if not math.isfinite(squares):
        raise DomainError("increment_autocorr: a centred sum of squares of the increments, "
                          "or their product, overflows")
    if not squares > 0.0:
        raise DomainError("increment_autocorr: a centred sum of squares of the increments "
                          "is 0, or their product underflows to 0")
    return float(dot(a, b) / math.sqrt(squares))
