"""Bracketed one-dimensional solvers: golden-section maximization,
sign-change bracketing and bisection by plain halving.  A solver that
stops short of its tolerance raises :class:`ConvergenceError`; none
returns a bare midpoint.
"""

from __future__ import annotations

import math
from typing import Callable

from .errors import BracketError, ConvergenceError

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_MAX_HALVINGS = 200


def golden_section_max(fn: Callable[[float], float], lo: float, hi: float,
                       rel_tol: float = 1e-10, max_iter: int = 200) -> float:
    """Argmax of a unimodal ``fn`` on ``[lo, hi]``.

    The interval shrinks until its width falls below
    ``tol = rel_tol * max(1, |lo|, |hi|)``; the midpoint of the final
    interval is returned.  Raises :class:`ConvergenceError` when the
    interval is still wider than ``tol`` after ``max_iter`` steps.
    """
    if not hi > lo:
        raise BracketError(f"empty bracket [{lo}, {hi}]")
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = fn(c), fn(d)
    tol = rel_tol * max(1.0, abs(lo), abs(hi))
    for _ in range(max_iter):
        if b - a <= tol:
            break
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = fn(d)
    if b - a > tol:
        raise ConvergenceError(
            f"golden section stopped at width {b - a:.3e} > {tol:.3e} "
            f"after {max_iter} steps")
    return 0.5 * (a + b)


def bracket_decreasing(deriv: Callable[[float], float]) -> tuple[float, float]:
    """Bracket the sign change of a decreasing ``deriv`` by doubling/halving.

    The search starts at 1 and doubles up to 1e200 or halves down to
    1e-200, so ``lo`` and ``hi = 2 * lo`` are powers of two.  Returns
    ``(lo, hi)`` with ``deriv(lo) > 0 >= deriv(hi)``.  Raises
    :class:`BracketError` when no sign change exists within those limits,
    i.e. no interior maximum can be bracketed, and when a probe reads NaN.
    """
    if _probe(deriv, 1.0) > 0.0:
        lo, hi = 1.0, 2.0
        while _probe(deriv, hi) > 0.0:
            lo = hi
            hi *= 2.0
            if hi > 1e200:
                raise BracketError(
                    f"derivative still positive at {lo:.3e}; no interior maximum")
    else:
        hi, lo = 1.0, 0.5
        while _probe(deriv, lo) <= 0.0:
            hi = lo
            lo *= 0.5
            if lo < 1e-200:
                raise BracketError(
                    f"derivative non-positive down to {hi:.3e}; no interior maximum")
    return lo, hi


def _probe(deriv: Callable[[float], float], x: float) -> float:
    value = deriv(x)
    if math.isnan(value):
        raise BracketError(f"derivative is NaN at {x!r}; no sign change can be bracketed")
    return value


def bisect_decreasing(fn: Callable[[float], float], rel_tol: float) -> float:
    """Positive root of a decreasing ``fn``, by plain halving of its bracket.

    The bracket comes from :func:`bracket_decreasing`; it is halved, keeping
    ``fn(lo) > 0 >= fn(hi)``, until ``hi - lo <= rel_tol * hi``, and the
    midpoint is returned.  Raises :class:`ConvergenceError` if the bracket is
    still wider after ``_MAX_HALVINGS`` halvings, as it is whenever
    ``rel_tol`` asks for more than the float spacing allows (``0.0``, say).
    """
    lo, hi = bracket_decreasing(fn)
    for _ in range(_MAX_HALVINGS):
        if hi - lo <= rel_tol * hi:
            return 0.5 * (lo + hi)
        mid = 0.5 * (lo + hi)
        if fn(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    raise ConvergenceError(
        f"bisection stopped at [{lo!r}, {hi!r}] after {_MAX_HALVINGS} halvings")
