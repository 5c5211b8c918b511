"""Bracketed one-dimensional solvers: golden-section maximization,
sign-change bracketing and bisection by plain halving.  A solver that
stops short of its tolerance raises :class:`ConvergenceError`, and a NaN
probe raises :class:`BracketError` in all three; none returns a bare midpoint.
"""

from __future__ import annotations

import math
from typing import Callable

from .errors import BracketError, ConvergenceError

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_MAX_HALVINGS = 200
_MAX_STEPS = 664  # the bracket's doublings or halvings: 2**664 < 1e200, 2**-664 > 1e-200
_NAN = "derivative is NaN at {!r}; no sign change can be bracketed"


def golden_section_max(fn: Callable[[float], float], lo: float, hi: float,
                       rel_tol: float = 1e-10, max_iter: int = 200) -> float:
    """Argmax of a unimodal ``fn`` on ``[lo, hi]``.

    The interval shrinks until its width falls below
    ``tol = rel_tol * max(1, |lo|, |hi|)``; the midpoint of the final
    interval is returned.  Raises :class:`ConvergenceError` when the
    interval is still wider than ``tol`` after ``max_iter`` steps, and
    :class:`BracketError` when a probe it compares reads NaN.
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
        elif fc <= fd:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = fn(d)
        else:  # a NaN fails both comparisons
            raise BracketError(f"objective is NaN at {c if math.isnan(fc) else d!r}")
    if b - a > tol:
        raise ConvergenceError(
            f"golden section stopped at width {b - a:.3e} > {tol:.3e} "
            f"after {max_iter} steps")
    return 0.5 * (a + b)


def bracket_decreasing(deriv: Callable[[float], float]) -> tuple[float, float]:
    """Bracket the sign change of a decreasing ``deriv`` by doubling/halving.

    The search makes at most 664 doublings or halvings from 1, so ``lo`` and
    ``hi = 2 * lo`` are powers of two, ``lo >= 2**-664`` and ``hi <= 2**664``.
    Returns ``(lo, hi)`` with ``deriv(lo) > 0 >= deriv(hi)``.  Raises
    :class:`BracketError` when no sign change exists within those limits,
    i.e. no interior maximum can be bracketed, and when a probe reads NaN.
    """
    up = _probe(deriv, 1.0) > 0.0
    step = 2.0 if up else 0.5
    x, y = 1.0, step
    for _ in range(_MAX_STEPS):
        if (_probe(deriv, y) > 0.0) != up:
            return (x, y) if up else (y, x)
        x, y = y, y * step
    where = "still positive at" if up else "non-positive down to"
    raise BracketError(f"derivative {where} {x:.3e}; no interior maximum")


def _probe(deriv: Callable[[float], float], x: float) -> float:
    value = deriv(x)
    if math.isnan(value):
        raise BracketError(_NAN.format(x))
    return value


def bisect_decreasing(fn: Callable[[float], float], rel_tol: float) -> float:
    """Positive root of a decreasing ``fn``, by plain halving of its bracket.

    The bracket comes from :func:`bracket_decreasing`; it is halved, keeping
    ``fn(lo) > 0 >= fn(hi)``, until ``hi - lo <= rel_tol * hi``, and the
    midpoint is returned.  Raises :class:`ConvergenceError` if the bracket is
    still wider after ``_MAX_HALVINGS`` halvings, as it is whenever
    ``rel_tol`` asks for more than the float spacing allows (``0.0``, say).
    A NaN probe, of the bracket or of a halving, raises :class:`BracketError`.
    """
    lo, hi = bracket_decreasing(fn)
    for _ in range(_MAX_HALVINGS):
        if hi - lo <= rel_tol * hi:
            return 0.5 * (lo + hi)
        mid = 0.5 * (lo + hi)
        value = fn(mid)
        if value > 0.0:
            lo = mid
        elif value <= 0.0:
            hi = mid
        else:  # a NaN fails both comparisons
            raise BracketError(_NAN.format(mid))
    raise ConvergenceError(
        f"bisection stopped at [{lo!r}, {hi!r}] after {_MAX_HALVINGS} halvings")
