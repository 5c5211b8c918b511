import math
import os
import subprocess
import sys
from pathlib import Path

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


@pytest.mark.skipif(not kernels.NUMBA_ENABLED, reason="numba not active")
def test_fou_twins_bit_identical(shocks):
    jit = kernels.fou_euler_jit(1.3, -0.7, 0.9, 0.001, shocks)
    ref = kernels.fou_euler_numpy(1.3, -0.7, 0.9, 0.001, shocks)
    assert np.array_equal(jit, ref)


@pytest.mark.skipif(not kernels.NUMBA_ENABLED, reason="numba not active")
def test_self_financing_twins_bit_identical(prices):
    jit = kernels.self_financing_jit(prices, -0.2, 0.0, 0.25, 1.0)
    ref = kernels.self_financing_numpy(prices, -0.2, 0.0, 0.25, 1.0)
    assert np.array_equal(jit, ref)


def test_fou_recurrence_against_scalar_loop(shocks):
    out = kernels.fou_euler(2.0, -0.4, 1.5, 0.01, shocks[:1])
    p = 2.0
    for j, s in enumerate(shocks[0]):
        p = p + -0.4 * (p - 1.5) * 0.01 + s
        assert out[0, j + 1] == p


def test_self_financing_against_scalar_loop(prices):
    out = kernels.self_financing(prices[:1], -0.3, 0.0, 0.16, 1.0)
    w = 1.0
    row = prices[0]
    for j in range(len(row) - 1):
        q = w * (-0.3 * (row[j] - 0.0)) / (row[j] * 0.16)
        w = w + q * (row[j + 1] - row[j])
        assert out[0, j + 1] == w


def test_env_flag_selects_numpy_fallback():
    code = ("import liqlab.kernels as k;"
            "print(k.NUMBA_ENABLED, k.fou_euler is k.fou_euler_numpy,"
            "      k.self_financing is k.self_financing_numpy)")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = os.environ | {"LIQLAB_DISABLE_NUMBA": "1",
                        "PYTHONPATH": os.pathsep.join(
                            filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.split() == ["False", "True", "True"]


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
