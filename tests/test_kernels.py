import math

import numpy as np
import pytest

from liqlab import kernels


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
    assert out.shape == (40, 301)
    for i, row in enumerate(shocks):
        p = 2.0
        assert out[i, 0] == p
        for j, s in enumerate(row):
            p = p + -0.4 * (p - 1.5) * 0.01 + s
            assert out[i, j + 1] == p


def test_self_financing_against_scalar_loop(prices):
    out = kernels.self_financing(prices, -0.3, 0.0, 0.16, 1.0)
    assert out.shape == prices.shape
    for i, row in enumerate(prices):
        w = 1.0
        assert out[i, 0] == w
        for j in range(len(row) - 1):
            q = w * (-0.3 * (row[j] - 0.0)) / (row[j] * 0.16)
            w = w + q * (row[j + 1] - row[j])
            assert out[i, j + 1] == w


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
