import math
import random
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

from liqlab import golden
from liqlab.errors import BracketError, ConvergenceError, DomainError
from liqlab.golden import bisect_decreasing, bracket_decreasing, golden_section_max
from liqlab.impact import GrowthModel, optimal_impact_leverage_form


def test_quadratic_argmax():
    assert golden_section_max(lambda x: -(x - 2.0) ** 2, 0.0, 5.0) == pytest.approx(2.0, abs=1e-9)
    # a bracket exactly as wide as tol has converged: its midpoint, at no step
    assert golden_section_max(lambda x: -(x - 2.0) ** 2, 0.0, 1.0, rel_tol=1.0) == 0.5


def test_boundary_maximum():
    # monotone decreasing: argmax collapses onto the left edge
    assert golden_section_max(lambda x: -x, 0.0, 1.0) == pytest.approx(0.0, abs=1e-9)


def test_stopping_short_raises():
    # three steps shrink [0, 5] only to 5 * 0.618**3, about 1.2, far above
    # tol = 1e-10 * 5; the whole message is matched, the width included
    with pytest.raises(ConvergenceError, match=r"^golden section stopped at width "
                       r"1\.180e\+00 > 5\.000e-10 after 3 steps$"):
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
    # a derivative of exactly 0 at a probe stops the doubling there
    assert bracket_decreasing(lambda x: 4.0 - x) == (2.0, 4.0)


def test_bracket_decreasing_expands_down():
    lo, hi = bracket_decreasing(lambda x: 1e-3 - x)
    assert lo < 1e-3 < hi
    # a derivative of exactly 0 at the first probe or a later one is not positive
    assert bracket_decreasing(lambda x: 1.0 - x) == (0.5, 1.0)
    assert bracket_decreasing(lambda x: 0.25 - x) == (0.125, 0.25)


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
    with pytest.raises(ConvergenceError, match=f"after {golden._MAX_HALVINGS} halvings"):
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
    raise ConvergenceError(
        f"bisection stopped at [{lo!r}, {hi!r}] after {golden._MAX_HALVINGS} halvings")


def outcome(solve, *args):
    try:
        return repr(solve(*args))
    except (BracketError, ConvergenceError, DomainError) as exc:
        return f"{type(exc).__name__}: {exc}"


SHAPES = {
    "linear": lambda r: lambda x: r - x,
    "quadratic": lambda r: lambda x: (r - x) * (r + x),
    "log": lambda r: lambda x: math.log(r) - math.log(x),
    "exp": lambda r: lambda x: math.exp(-x / r) - math.exp(-1.0),
}
# at 2**-11 the root just below 2 stops on hi - lo == rel_tol * hi
REL_TOLS = (1e-15, 1e-14, 3e-16, 1e-16, 1e-3, 2.0 ** -11, 0.0)


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


@pytest.mark.parametrize("fn", [lambda x: np.float64(3.0) - x], ids=["linear"])
def test_bisect_of_numpy_scalars_matches_plain_halving(fn):
    # pyproject.toml turns a RuntimeWarning into an error
    for rel_tol in REL_TOLS:
        assert outcome(bisect_decreasing, fn, rel_tol) == outcome(halving_reference, fn, rel_tol)


def leverage_form_reference(q, price, model, band=None):
    """``optimal_impact_leverage_form``'s two solves, each by plain halving.

    With a ``band``, the shortfall skips the inner solve as the library
    does, but where ``f_target`` and the quotient differ by more than
    ``band`` of the larger.
    """
    p = price
    curvature = model.sigma ** 2 / (p * p)
    f_target = p * math.sqrt(q) / model.capital_scale_k

    def shortfall(dp):
        root = dp / p / curvature
        if (band is not None and 1e-199 < root < 1e199
                and abs(f_target - root) > band * max(f_target, root)):
            return f_target - root
        return f_target - halving_reference(lambda f: dp / p - curvature * f, 1e-15)

    return halving_reference(shortfall, 1e-14)


def _sigmas_at_the_normal_floor(q, price, k):
    """The two smallest sigmas at which ``curvature * f_target`` is normal."""
    f_target = price * math.sqrt(q) / k
    sigma = math.sqrt(sys.float_info.min * price * price / f_target) * (1.0 - 1e-12)
    found = []
    while len(found) < 2:
        curvature = sigma ** 2 / (price * price)
        if curvature >= sys.float_info.min and curvature * f_target >= sys.float_info.min:
            found.append(sigma)
        sigma = math.nextafter(sigma, math.inf)
    return found


def _leverage_inputs():
    """(q, price, k, sigma) tuples, all inside the leverage form's domain."""
    rng = random.Random(14)
    inputs = [(10.0 ** rng.uniform(-8.0, 8.0), 10.0 ** rng.uniform(-4.0, 4.0),
               10.0 ** rng.uniform(-3.0, 3.0), 10.0 ** rng.uniform(-3.0, 3.0))
              for _ in range(40)]
    # shaped like the benchmark's solver sweep
    rng = random.Random(22)
    inputs += [(10.0 ** rng.uniform(-2.0, 2.0), 10.0 ** rng.uniform(-1.0, 2.0),
                rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)) for _ in range(400)]
    # far ends: f_target or dp near or past the bracket limits, and tiny or
    # huge scales
    inputs += [(4.0, 1.0, 1.0, 1.0), (1e-130, 1.0, 1.0, 1.0),
               (1e100, 1e149, 1.0, 1.0), (1e100, 1e150, 1.0, 1.0),
               (1e-100, 1e-149, 1.0, 1.0), (1e-100, 1e-151, 1.0, 1.0),
               (1e150, 1e100, 1e-150, 1e-50), (1e300, 1e50, 1e-100, 1.0),
               (2.0, 3.0, 1.0, 1e150), (1e-200, 1e50, 1e-50, 1e-20),
               (1e250, 1e-50, 1e50, 1e40), (1e-50, 1e100, 1e-100, 1e20)]
    # curvature * f_target (dp/P at the optimum) at the smallest normal floats
    for q, price, k in [(1.0, 1e110, 1e110), (2.0, 1e108, 2e108), (1e-20, 1e100, 1e100),
                        (1e10, 1e100, 1e120), (1.0, 1e150, 1e150)]:
        inputs += [(q, price, k, sigma) for sigma in _sigmas_at_the_normal_floor(q, price, k)]
    # f_target = 1/k just inside and just outside the quotient's range
    # [1e-199, 1e199]; the outer bracket's quotients all stay reachable
    for edge, sigma in [(1e-199, 1e99), (1e199, 1e-99)]:
        for scale in (1.0 - 1e-12, 1.0 - 4e-16, 1.0 + 4e-16, 1.0 + 1e-12):
            inputs.append((1.0, 1.0, 1.0 / (edge * scale), sigma))
    return inputs


def test_leverage_form_matches_nested_plain_halving():
    band_zero_differs = False
    for q, price, k, sigma in _leverage_inputs():
        model = GrowthModel(k, 1.0, sigma)
        want = outcome(leverage_form_reference, q, price, model)
        assert outcome(optimal_impact_leverage_form, q, price, model) == want, (q, price, k, sigma)
        band_zero_differs |= outcome(leverage_form_reference, q, price, model, 0.0) != want
    # without its band, the quotient would decide some signs wrongly
    assert band_zero_differs
