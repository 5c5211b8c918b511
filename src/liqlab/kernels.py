"""Hot numeric kernels: sequential path recurrences and pairwise sums.

The two recurrences run one path (row) at a time over plain Python floats
and write each finished path back into the result array.  The library
sends one path per call, and a numpy step per time column would spend its
time on ufunc calls over one-element views.  Python floats and numpy
float64 both round each operation to IEEE double, so every path is
bit-identical to a scalar loop over that path alone, which the tests keep
as the reference.  FFT-based fractional noise generation lives in
:mod:`liqlab.paths`.

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
    p0, kappa, level, dt = float(p0), float(kappa), float(level), float(dt)
    shocks = np.asarray(shocks, dtype=np.float64)
    n_paths, n_steps = shocks.shape
    out = np.empty((n_paths, n_steps + 1))
    for i, row in enumerate(shocks.tolist()):
        p = p0
        values = [p]
        for s in row:
            p = p + kappa * (p - level) * dt + s
            values.append(p)
        out[i] = values
    return out


def self_financing(prices: np.ndarray, kappa: float, level: float,
                   sigma2: float, w0: float) -> np.ndarray:
    """Wealth recurrence w' = w + q*(p' - p), q = w*kappa*(p - level)/(p*sigma2).

    ``prices`` has shape ``(n_paths, n_times)``; the result has the same
    shape and starts every path at ``w0``.  A zero ``p*sigma2`` raises
    :class:`ZeroDivisionError`.
    """
    kappa, level, sigma2, w0 = float(kappa), float(level), float(sigma2), float(w0)
    prices = np.asarray(prices, dtype=np.float64)
    out = np.empty_like(prices)
    for i, row in enumerate(prices.tolist()):
        w = w0
        values = [w]
        for p, p_next in zip(row, row[1:]):
            q = w * (kappa * (p - level)) / (p * sigma2)
            w = w + q * (p_next - p)
            values.append(w)
        out[i] = values
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
