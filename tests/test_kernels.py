"""Kernel checks: the blocked all-pairs kernel agrees with the per-point
kernel bit for bit, and its blocks respect the temporary-size cap."""

import numpy as np
import pytest

from lpann import _kernels

EXPONENTS = [1.0, 2.0, 2.5, 3.0, 4.0, 8.0]


def test_backend_name():
    assert _kernels.BACKEND == "numpy"


@pytest.mark.parametrize("p", EXPONENTS)
def test_pairwise_blocks_match_dists_to_point(p):
    rng = np.random.default_rng(11)
    a = rng.standard_normal((300, 9))
    b = rng.standard_normal((310, 9))
    assert a.shape[0] * b.nbytes > _kernels.BLOCK_BYTES  # needs several blocks
    seen = np.zeros((a.shape[0], b.shape[0]), dtype=int)
    blocks = 0
    for i, j, block in _kernels.pairwise_blocks(a, b, p):
        blocks += 1
        rows, cols = block.shape
        assert rows * cols * b.shape[1] * 8 <= _kernels.BLOCK_BYTES
        seen[i:i + rows, j:j + cols] += 1
        for k in range(rows):
            want = _kernels.dists_to_point(b[j:j + cols], a[i + k], p)
            assert np.array_equal(block[k].view(np.int64), want.view(np.int64))
    assert blocks > 1
    assert (seen == 1).all()


def test_pairwise_blocks_split_wide_rows():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((3, 70_000))
    b = rng.standard_normal((20, 70_000))
    seen = np.zeros((3, 20), dtype=int)
    for i, j, block in _kernels.pairwise_blocks(a, b, 4.0):
        rows, cols = block.shape
        assert rows * cols * b.shape[1] * 8 <= _kernels.BLOCK_BYTES
        seen[i:i + rows, j:j + cols] += 1
        for k in range(rows):
            assert np.array_equal(block[k], _kernels.dists_to_point(b[j:j + cols], a[i + k], 4.0))
    assert (seen == 1).all()


def test_dists_exactness_p2():
    mat = np.array([[3.0, 4.0]])
    assert _kernels.dists_to_point(mat, np.zeros(2), 2.0)[0] == 5.0


def test_pow2_exponent_detection():
    assert _kernels._pow2_exponent(2.0) == 1
    assert _kernels._pow2_exponent(4.0) == 2
    assert _kernels._pow2_exponent(8.0) == 3
    assert _kernels._pow2_exponent(3.0) == -1
    assert _kernels._pow2_exponent(2.5) == -1
    assert _kernels._pow2_exponent(1.0) == -1
