import math

import pytest
from hypothesis import given, strategies as st

from liqlab.errors import BracketError, ConvergenceError
from liqlab.golden import bisect_decreasing, bracket_decreasing, golden_section_max


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
