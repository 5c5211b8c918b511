"""Hot numeric kernels: sequential path recurrences and pairwise sums.

The two recurrences run over plain Python floats: ``fou_euler`` takes the
shocks of one path, and ``self_financing`` runs an ``(n_paths, n_times)``
array one row at a time.  The library sends one path per call, and a numpy
step per time column would spend its time on ufunc calls over one-element
views.  Python floats and numpy float64 both round each operation to IEEE
double, so every path is bit-identical to a scalar loop over that path
alone, which the tests keep as the reference.  FFT-based fractional noise
generation lives in :mod:`liqlab.paths`.

``pairwise_sum`` reduces in a fixed binary-tree order, so Monte Carlo
moments do not depend on how paths were batched.  The tree over n rows is
the tree over the largest power of two below n, plus the tree over the
rest.  ``pairwise_reduce`` asks a callback for one aligned power-of-two run
of at most a leaf of about 256 KiB at a time, so a caller can compute the
summands block by block, and its scratch is one leaf, half a leaf, and
one node per tree level.
"""

from __future__ import annotations

import math
from collections.abc import Callable

import numpy as np

# Read by the benchmark harness for its run record; its next change drops it.
NUMBA_ENABLED = False


def fou_euler(p0: float, kappa: float, level: float, dt: float,
              shocks: np.ndarray) -> np.ndarray:
    """Euler recurrence p' = p + kappa*(p - level)*dt + shock, for one path.

    ``shocks`` is the 1-d array of the path's ``n_steps`` shocks; the result
    holds its ``n_steps + 1`` values and starts at ``p0``.
    """
    p, kappa, level, dt = float(p0), float(kappa), float(level), float(dt)
    values = [p]
    for s in np.asarray(shocks, dtype=np.float64).tolist():
        p = p + kappa * (p - level) * dt + s
        values.append(p)
    return np.array(values)


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


# bytes per leaf block of the pairwise reduction; a leaf holds a power of
# two of rows, so the leaves sit on nodes of the tree over the whole input
_LEAF_BYTES = 1 << 18


def pairwise_reduce(n: int, block: Callable[[int, int], np.ndarray],
                    rest: tuple[int, ...] = ()) -> np.ndarray:
    """Pairwise sum along axis 0 of ``n`` rows of shape ``rest``, leaf by leaf.

    ``block(start, stop)`` returns rows ``start:stop`` as a float64 array
    of shape ``(stop - start, *rest)``.  The sum of a run of rows is the
    sum of the largest power of two below its length plus the sum of the
    rest, added left to right.  A power-of-two run of at most a leaf, about
    ``_LEAF_BYTES``, is one ``block`` call, summed by halving; so ``block``
    is called in order, on aligned power-of-two runs that tile ``[0, n)``.
    Returns a float for ``rest == ()`` and an array of shape ``rest``
    otherwise.
    """
    if n == 0:
        return np.zeros(rest) if rest else 0.0
    rows = max(1, _LEAF_BYTES // (8 * max(1, math.prod(rest))))
    leaf = 1 << (rows.bit_length() - 1)  # the largest power of two <= rows
    total = _subtree(block, leaf, 0, n)
    return total if rest else float(total)


def _subtree(block: Callable[[int, int], np.ndarray], leaf: int, start: int,
             count: int) -> np.ndarray:
    # a module function, not a closure: a closure that calls itself is a
    # reference cycle, which would keep ``block``'s arrays until the next
    # garbage collection
    if count <= leaf and count & (count - 1) == 0:
        values = block(start, start + count)
        while len(values) > 1:
            values = values[0::2] + values[1::2]
        return np.array(values[0])  # a copy: a one-row leaf is the caller's row
    left = 1 << ((count - 1).bit_length() - 1)  # the largest power of two < count
    return (_subtree(block, leaf, start, left)
            + _subtree(block, leaf, start + left, count - left))


def pairwise_sum(values: np.ndarray) -> np.ndarray:
    """Deterministic pairwise reduction along axis 0.

    Adjacent elements are summed in a fixed binary-tree order, so the
    result does not depend on how work was scheduled across paths.  Works
    on 1-d arrays (returns a scalar) and on 2-d arrays (reduces rows).
    ``values`` is only read, one leaf block at a time, so the scratch is
    about one leaf (:func:`pairwise_reduce`) whatever the input's size.
    """
    values = np.asarray(values, dtype=np.float64)
    return pairwise_reduce(values.shape[0], lambda start, stop: values[start:stop],
                           values.shape[1:])
