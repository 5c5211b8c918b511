import math
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from liqlab import golden
from liqlab.errors import BracketError, ConvergenceError, DomainError
from liqlab.golden import bisect_decreasing, bracket_decreasing, golden_section_max
from liqlab.impact import GrowthModel, optimal_impact_leverage_form


def test_quadratic_argmax():
    assert golden_section_max(lambda x: -(x - 2.0) ** 2, 0.0, 5.0) == pytest.approx(2.0, abs=1e-9)


def test_boundary_maximum():
    # monotone decreasing: argmax collapses onto the left edge
    assert golden_section_max(lambda x: -x, 0.0, 1.0) == pytest.approx(0.0, abs=1e-9)


def test_stopping_short_raises():
    # three steps shrink [0, 5] only to about 1.2, far above 1e-10
    with pytest.raises(ConvergenceError):
        golden_section_max(lambda x: -(x - 2.0) ** 2, 0.0, 5.0, max_iter=3)


def test_empty_bracket_rejected():
    with pytest.raises(BracketError):
        golden_section_max(lambda x: x, 1.0, 1.0)


@given(st.floats(min_value=-50.0, max_value=50.0),
       st.floats(min_value=0.1, max_value=10.0))
def test_random_concave_quadratics(center, curvature):
    fn = lambda x: -curvature * (x - center) ** 2
    got = golden_section_max(fn, center - 60.0, center + 60.0, rel_tol=1e-12)
    assert got == pytest.approx(center, abs=1e-7)


def test_bracket_decreasing_expands_up():
    lo, hi = bracket_decreasing(lambda x: 100.0 - x)
    assert lo < 100.0 < hi


def test_bracket_decreasing_expands_down():
    lo, hi = bracket_decreasing(lambda x: 1e-3 - x)
    assert lo < 1e-3 < hi


def test_bracket_failure_when_monotone():
    with pytest.raises(BracketError):
        bracket_decreasing(lambda x: 1.0)
    with pytest.raises(BracketError):
        bracket_decreasing(lambda x: -1.0)


def test_shrinks_to_interior_peak():
    peak = math.pi
    fn = lambda x: -abs(x - peak)
    assert golden_section_max(fn, 0.0, 1000.0, rel_tol=1e-12) == pytest.approx(peak, abs=1e-6)


@pytest.mark.parametrize("root", [3.0, 1e-3])
def test_bisect_decreasing_finds_root(root):
    # brackets upwards from 1 for 3, downwards for 1e-3
    assert bisect_decreasing(lambda x: root - x, 1e-15) == pytest.approx(root, rel=2e-15)


def test_bisect_decreasing_raises_when_tolerance_unreachable():
    # adjacent floats never satisfy hi - lo <= 0
    with pytest.raises(ConvergenceError):
        bisect_decreasing(lambda x: 3.0 - x, 0.0)


@pytest.mark.parametrize("deriv, x", [
    (lambda x: math.nan, "1.0"),
    # positive up to 3, then NaN: the doubling used to stop at (2.0, 4.0)
    (lambda x: 3.0 - x if x <= 3.0 else math.nan, "4.0"),
    (lambda x: np.float64(math.nan) if x < 0.1 else -1.0, "0.0625"),
], ids=["nan", "nan-above-3", "numpy-nan-below-0.1"])
def test_nan_probe_names_its_point(deriv, x):
    # formerly a NaN read as "not positive": bracket (0.5, 1.0) and a
    # "root" of 0.5000000000000002 for the first case
    for solve in (bracket_decreasing, lambda fn: bisect_decreasing(fn, 1e-15)):
        with pytest.raises(BracketError, match=f"NaN at {x};"):
            solve(deriv)


def halving_reference(fn, rel_tol):
    """``bisect_decreasing`` as plain halving: one evaluation per halving."""
    lo, hi = bracket_decreasing(fn)
    for _ in range(golden._MAX_HALVINGS):
        if hi - lo <= rel_tol * hi:
            return 0.5 * (lo + hi)
        mid = 0.5 * (lo + hi)
        if fn(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    raise ConvergenceError(f"bisection stopped at [{lo!r}, {hi!r}]")


def outcome(solve, *args):
    try:
        return repr(solve(*args))
    except (BracketError, ConvergenceError, DomainError) as exc:
        return type(exc).__name__


SHAPES = {
    "linear": lambda r: lambda x: r - x,
    "quadratic": lambda r: lambda x: (r - x) * (r + x),
    "log": lambda r: lambda x: math.log(r) - math.log(x),
    "exp": lambda r: lambda x: math.exp(-x / r) - math.exp(-1.0),
}
REL_TOLS = (1e-15, 1e-14, 3e-16, 1e-16, 1e-3, 0.0)


def _roots():
    rng = random.Random(20)
    roots = [10.0 ** rng.uniform(-190.0, 190.0) for _ in range(40)]
    for e in (-660, -40, -1, 0, 1, 7, 300):
        for cell in (0, 1, 3 << 40, (1 << 49) - 1, (1 << 52) - 1):
            # powers of two, grid points of 1 to 52 halvings, and their neighbours
            r = math.ldexp(1.0 + math.ldexp(cell, -52), e)
            roots += [r, math.nextafter(r, 0.0), math.nextafter(r, math.inf)]
    # near both bracket limits, either side of the last power of two probed
    return roots + [5e199, 9e199, 2e-200, 5e-201]


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("rel_tol", REL_TOLS)
def test_bisect_matches_plain_halving(shape, rel_tol):
    for root in _roots():
        fn = SHAPES[shape](root)
        assert (outcome(bisect_decreasing, fn, rel_tol)
                == outcome(halving_reference, fn, rel_tol)), root


@pytest.mark.parametrize("fn", [
    lambda x: np.float64(3.0) - x,
    # the secant of these ends overflows a NumPy subtraction, with a warning
    lambda x: np.float64(1e308) if x < 3.0 else np.float64(-1e308),
], ids=["linear", "step"])
def test_bisect_of_numpy_scalars_matches_plain_halving(fn):
    # pyproject.toml turns a RuntimeWarning into an error
    for rel_tol in REL_TOLS:
        assert outcome(bisect_decreasing, fn, rel_tol) == outcome(halving_reference, fn, rel_tol)


@pytest.mark.parametrize("exponent", [-665, -53, -1, 0, 1, 52, 664])
def test_exact_halvings_to_skip_counts_halvings(exponent):
    # halvings of 2**exponent still above tol, capped where a bracket
    # [2**e, 2**(e+1)] stops halving exactly
    width = math.ldexp(1.0, exponent)
    rng = random.Random(exponent)
    tols = [0.0, -0.0, -1.0, math.nan, math.inf, 5e-324, width, 2.0 * width,
            math.nextafter(width, 0.0), math.ldexp(width, -52),
            math.nextafter(math.ldexp(width, -52), 0.0), math.ldexp(width, -53)]
    tols += [width * 10.0 ** rng.uniform(-20.0, 1.0) for _ in range(200)]
    for tol in tols:
        want, w = 0, width
        while want < 52 and not w <= tol:
            want, w = want + 1, w * 0.5
        assert golden._exact_halvings_to_skip(width, tol) == want, tol


def _counted(fn):
    calls = [0]

    def counted(x):
        calls[0] += 1
        return fn(x)
    return counted, calls


def test_bisect_jumps_to_the_sign_change_cell():
    # three bracket probes, then a few interpolation steps; plain halving
    # makes 3 + 50 evaluations
    fn, calls = _counted(lambda x: 3.0 - x)
    bisect_decreasing(fn, 1e-15)
    assert calls[0] <= 15


def test_a_stalled_secant_falls_back_to_bisection():
    # the secant of 1 and -1e300 points at the lowest index every time, so
    # plain regula falsi would take one grid step of 2**-49 per evaluation
    calls = [0]

    def step(x):
        calls[0] += 1
        if calls[0] > 3 + 2 + 2 * 52 + 1:
            raise AssertionError("more evaluations than alternate bisection needs")
        return 1.0 if x < 3.0 else -1e300
    assert bisect_decreasing(step, 1e-15) == halving_reference(
        lambda x: 1.0 if x < 3.0 else -1e300, 1e-15)


def test_skipped_halvings_count_against_the_budget():
    # plain halving makes 3 bracket probes and _MAX_HALVINGS evaluations
    fn, calls = _counted(lambda x: 3.0 - x)
    with pytest.raises(ConvergenceError, match=f"after {golden._MAX_HALVINGS} halvings"):
        bisect_decreasing(fn, 0.0)
    assert calls[0] < golden._MAX_HALVINGS


def leverage_form_reference(q, price, model):
    """``optimal_impact_leverage_form``'s two solves, each by plain halving."""
    p = price
    curvature = model.sigma ** 2 / (p * p)
    f_target = p * math.sqrt(q) / model.capital_scale_k

    def shortfall(dp):
        return f_target - halving_reference(lambda f: dp / p - curvature * f, 1e-15)

    return halving_reference(shortfall, 1e-14)


def _leverage_inputs():
    rng = random.Random(14)
    inputs = [(10.0 ** rng.uniform(-8.0, 8.0), 10.0 ** rng.uniform(-4.0, 4.0),
               10.0 ** rng.uniform(-3.0, 3.0), 10.0 ** rng.uniform(-3.0, 3.0))
              for _ in range(40)]
    # far ends: f_target or dp near the bracket limits, tiny and huge scales
    # far ends, all inside the leverage form's domain: f_target or dp near
    # or past the bracket limits, and tiny or huge scales
    inputs += [(4.0, 1.0, 1.0, 1.0), (1e-130, 1.0, 1.0, 1.0),
               (1e100, 1e149, 1.0, 1.0), (1e100, 1e150, 1.0, 1.0),
               (1e-100, 1e-149, 1.0, 1.0), (1e-100, 1e-151, 1.0, 1.0),
               (1e150, 1e100, 1e-150, 1e-50), (1e300, 1e50, 1e-100, 1.0),
               (2.0, 3.0, 1.0, 1e150), (1e-200, 1e50, 1e-50, 1e-20),
               (1e250, 1e-50, 1e50, 1e40), (1e-50, 1e100, 1e-100, 1e20)]
    return inputs


def test_leverage_form_matches_nested_plain_halving():
    for q, price, k, sigma in _leverage_inputs():
        model = GrowthModel(k, 1.0, sigma)
        assert (outcome(optimal_impact_leverage_form, q, price, model)
                == outcome(leverage_form_reference, q, price, model)), (q, price, k, sigma)
