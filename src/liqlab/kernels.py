"""Hot numeric kernels: sequential path recurrences and pairwise sums.

The two recurrences step through time one column at a time and vectorize
across paths (rows), so every path sees the same floating-point operations
in the same order as a scalar loop over that path alone.  The tests keep
such a loop as the reference.  FFT-based fractional noise generation lives
in :mod:`liqlab.paths`.

``pairwise_sum`` reduces in a fixed binary-tree order, so Monte Carlo
moments do not depend on how paths were batched.
"""

from __future__ import annotations

import numpy as np

# Read by the benchmark harness for its run record; its next change drops it.
NUMBA_ENABLED = False


def fou_euler(p0: float, kappa: float, level: float, dt: float,
              shocks: np.ndarray) -> np.ndarray:
    """Euler recurrence p' = p + kappa*(p - level)*dt + shock, per path.

    ``shocks`` has shape ``(n_paths, n_steps)``; the result has shape
    ``(n_paths, n_steps + 1)`` and starts every path at ``p0``.
    """
    shocks = np.ascontiguousarray(shocks, dtype=np.float64)
    n_paths, n_steps = shocks.shape
    out = np.empty((n_paths, n_steps + 1))
    out[:, 0] = p0
    for j in range(n_steps):
        p = out[:, j]
        out[:, j + 1] = p + kappa * (p - level) * dt + shocks[:, j]
    return out


def self_financing(prices: np.ndarray, kappa: float, level: float,
                   sigma2: float, w0: float) -> np.ndarray:
    """Wealth recurrence w' = w + q*(p' - p), q = w*kappa*(p - level)/(p*sigma2).

    ``prices`` has shape ``(n_paths, n_times)``; the result has the same
    shape and starts every path at ``w0``.
    """
    prices = np.ascontiguousarray(prices, dtype=np.float64)
    out = np.empty_like(prices)
    out[:, 0] = w0
    for j in range(prices.shape[1] - 1):
        edge = kappa * (prices[:, j] - level)
        q = out[:, j] * edge / (prices[:, j] * sigma2)
        out[:, j + 1] = out[:, j] + q * (prices[:, j + 1] - prices[:, j])
    return out


def pairwise_sum(values: np.ndarray) -> np.ndarray:
    """Deterministic pairwise reduction along axis 0.

    Adjacent elements are summed in a fixed binary-tree order, so the
    result does not depend on how work was scheduled across paths.  Works
    on 1-d arrays (returns a scalar) and on 2-d arrays (reduces rows).
    """
    acc = np.array(values, dtype=np.float64, copy=True)
    n = acc.shape[0]
    if n == 0:
        return np.zeros(acc.shape[1:], dtype=np.float64) if acc.ndim > 1 else 0.0
    while n > 1:
        half = n // 2
        acc[:half] = acc[0:2 * half:2] + acc[1:2 * half:2]
        if n % 2:
            acc[half] = acc[n - 1]
            n = half + 1
        else:
            n = half
    return acc[0] if acc.ndim > 1 else float(acc[0])


def pairwise_mean(values: np.ndarray) -> np.ndarray:
    """Mean along axis 0 using the deterministic pairwise reduction."""
    n = np.shape(values)[0]
    return pairwise_sum(values) / n
