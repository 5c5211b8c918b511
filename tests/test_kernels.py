import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from liqlab import kernels


def fou_reference(p0, kappa, level, dt, row):
    """One path of the fOU Euler recurrence, a scalar loop."""
    p = p0
    values = [p]
    for s in row:
        p = p + kappa * (p - level) * dt + s
        values.append(p)
    return values


def wealth_reference(row, kappa, level, sigma2, w0):
    """One path of the self-financing wealth recurrence, a scalar loop."""
    w = w0
    values = [w]
    for j in range(len(row) - 1):
        q = w * (kappa * (row[j] - level)) / (row[j] * sigma2)
        w = w + q * (row[j + 1] - row[j])
        values.append(w)
    return values


def assert_rows_bit_equal(out, reference_rows):
    expected = np.array(reference_rows, dtype=np.float64)
    assert out.shape == expected.shape
    assert out.tobytes() == expected.tobytes()


@pytest.fixture(scope="module")
def shocks():
    rng = np.random.Generator(np.random.PCG64(11))
    return 0.05 * rng.standard_normal((40, 300))


@pytest.fixture(scope="module")
def prices():
    rng = np.random.Generator(np.random.PCG64(12))
    return 10.0 + np.cumsum(0.02 * rng.standard_normal((40, 301)), axis=1)


def test_fou_recurrence_against_scalar_loop(shocks):
    out = kernels.fou_euler(2.0, -0.4, 1.5, 0.01, shocks)
    assert_rows_bit_equal(out, [fou_reference(2.0, -0.4, 1.5, 0.01, row.tolist())
                                for row in shocks])


def test_self_financing_against_scalar_loop(prices):
    out = kernels.self_financing(prices, -0.3, 0.0, 0.16, 1.0)
    assert_rows_bit_equal(out, [wealth_reference(row.tolist(), -0.3, 0.0, 0.16, 1.0)
                                for row in prices])


# finite inputs up to 1e300: products and sums overflow to +-inf, then nan
finite = st.floats(-1e300, 1e300)
# away from zero, so that a price times sigma^2 never underflows to 0
nonzero = st.floats(1e-100, 1e300) | st.floats(-1e300, -1e-100)
shapes = st.tuples(st.integers(1, 4), st.integers(1, 16))


@settings(max_examples=200, deadline=None)
@given(p0=finite, kappa=finite, level=finite, dt=finite,
       shocks=arrays(np.float64, shapes, elements=finite))
@example(p0=1.0, kappa=-0.5, level=0.0, dt=0.1, shocks=np.array([[0.25]]))
@example(p0=1.0, kappa=-0.5, level=0.0, dt=0.1, shocks=np.array([[0.25, -0.5]]))
@example(p0=1e300, kappa=-1e300, level=-1e300, dt=1.0,
         shocks=np.array([[1.0, 2.0, 3.0], [-1e300, 0.0, 1e300]]))
def test_fou_matches_scalar_reference_bit_for_bit(p0, kappa, level, dt, shocks):
    out = kernels.fou_euler(p0, kappa, level, dt, shocks)
    assert_rows_bit_equal(out, [fou_reference(p0, kappa, level, dt, row)
                                for row in shocks.tolist()])


@settings(max_examples=200, deadline=None)
@given(prices=arrays(np.float64, shapes, elements=nonzero), kappa=finite,
       level=finite, sigma2=st.floats(1e-100, 1e100), w0=finite)
@example(prices=np.array([[4.0]]), kappa=-0.5, level=0.0, sigma2=0.16, w0=1.0)
@example(prices=np.array([[4.0, 5.0]]), kappa=-0.5, level=0.0, sigma2=0.16, w0=1.0)
@example(prices=np.array([[1e300, -1e300, 1e300], [1e-100, 1e300, 1e-100]]),
         kappa=1e300, level=-1e300, sigma2=1e-100, w0=1e300)
def test_self_financing_matches_scalar_reference_bit_for_bit(prices, kappa, level,
                                                             sigma2, w0):
    out = kernels.self_financing(prices, kappa, level, sigma2, w0)
    assert_rows_bit_equal(out, [wealth_reference(row, kappa, level, sigma2, w0)
                                for row in prices.tolist()])


def test_self_financing_zero_denominator_raises():
    with pytest.raises(ZeroDivisionError):
        kernels.self_financing(np.array([[4.0, 5.0]]), -0.5, 0.0, 0.0, 1.0)


def test_pairwise_sum_matches_fsum():
    rng = np.random.Generator(np.random.PCG64(5))
    for n in (1, 2, 3, 7, 64, 1001):
        x = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 3, size=n)
        assert kernels.pairwise_sum(x) == pytest.approx(math.fsum(x), rel=1e-12, abs=1e-12)


def test_pairwise_sum_2d_reduces_rows():
    x = np.arange(12.0).reshape(4, 3)
    got = kernels.pairwise_sum(x)
    assert got.shape == (3,)
    np.testing.assert_allclose(got, x.sum(axis=0))


def test_pairwise_sum_deterministic():
    rng = np.random.Generator(np.random.PCG64(6))
    x = rng.standard_normal(777)
    assert kernels.pairwise_sum(x) == kernels.pairwise_sum(x.copy())


def test_pairwise_mean():
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_allclose(kernels.pairwise_mean(x), [2.0, 3.0])


def test_pairwise_sum_empty():
    assert kernels.pairwise_sum(np.array([])) == 0.0
