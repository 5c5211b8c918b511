"""Bracketed one-dimensional solvers: golden-section maximization,
sign-change bracketing and bisection.  A solver that stops short of its
tolerance raises :class:`ConvergenceError`; none returns a bare midpoint.
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
    """Positive root of a decreasing ``fn``, by bisection of its bracket.

    The bracket comes from :func:`bracket_decreasing`; it is halved, keeping
    ``fn(lo) > 0 >= fn(hi)``, until ``hi - lo <= rel_tol * hi``, and the
    midpoint is returned.  Raises :class:`ConvergenceError` if the bracket is
    still wider after ``_MAX_HALVINGS`` halvings, as it is whenever
    ``rel_tol`` asks for more than the float spacing allows (``0.0``, say).

    The first halvings are not run one by one.  The bracket is
    ``[2**e, 2**(e+1)]``, so after ``j <= 52`` exact halvings it is the cell
    of the ``(hi - lo) / 2**j`` grid where ``fn(x) > 0`` flips, whatever
    path finds that cell; :func:`_sign_change_cell` finds it in a few
    evaluations.  ``j`` counts the halvings whose stop test cannot pass at
    any ``hi`` in the bracket, and they count against ``_MAX_HALVINGS``.
    That cell is unique only while ``fn(x) > 0`` holds below some point and
    fails above it, so "decreasing" is load-bearing: for such an ``fn`` the
    result, or the error, is bit for bit that of plain halving; for any
    other ``fn`` it is some sign change of the bracket.
    """
    lo, hi = bracket_decreasing(fn)
    skip = _exact_halvings_to_skip(hi - lo, rel_tol * hi)
    lo, hi = _sign_change_cell(fn, lo, hi, skip)
    for _ in range(_MAX_HALVINGS - skip):
        if hi - lo <= rel_tol * hi:
            return 0.5 * (lo + hi)
        mid = 0.5 * (lo + hi)
        if fn(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    raise ConvergenceError(
        f"bisection stopped at [{lo!r}, {hi!r}] after {_MAX_HALVINGS} halvings")


def _exact_halvings_to_skip(width: float, tol: float) -> int:
    """Halvings of a power-of-two ``width`` that leave it above ``tol``, at most 52.

    Past 52 halvings of ``[2**e, 2**(e+1)]`` a midpoint is no longer exact.
    The smallest ``m`` with ``width / 2**m <= tol`` is read off the binary
    exponents: ``width = 2**(ew - 1)`` and ``2**(et - 1) <= tol < 2**et``.
    A ``tol`` that is 0, negative or NaN is never reached.
    """
    if tol >= width:
        return 0
    if not tol > 0.0:
        return 52
    return min(52, math.frexp(width)[1] - math.frexp(tol)[1])


def _sign_change_cell(fn: Callable[[float], float], lo: float, hi: float,
                      halvings: int) -> tuple[float, float]:
    """The cell of the ``(hi - lo) / 2**halvings`` grid where ``fn(x) > 0`` flips.

    Requires ``fn(lo) > 0 >= fn(hi)``.  Safeguarded regula falsi over the
    integer grid indices: each step probes the grid point nearest below the
    secant's root, inside the open index interval, and a step that fails to
    halve that interval is followed by a bisection step.  A non-finite end
    value also gets a bisection step.  Values go through ``float`` so that a
    NumPy scalar cannot overflow with a warning in the secant.
    """
    step = math.ldexp(hi - lo, -halvings)
    a, b = 0, 1 << halvings
    fa, fb = float(fn(lo)), float(fn(hi))
    bisect = False
    while b - a > 1:
        width = b - a
        if bisect or not (math.isfinite(fa) and math.isfinite(fb)):
            c = (a + b) // 2
        else:
            # fa > 0 >= fb, so the secant's fraction lies in [0, 1]
            c = min(max(a + math.floor(width * (fa / (fa - fb))), a + 1), b - 1)
        fc = float(fn(lo + c * step))
        if fc > 0.0:
            a, fa = c, fc
        else:
            b, fb = c, fc
        bisect = not bisect and 2 * (b - a) > width
    return lo + a * step, lo + b * step
