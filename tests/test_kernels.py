"""Kernel checks: the blocked all-pairs kernel agrees with the per-point
kernel bit for bit, and its blocks respect the temporary-size cap."""

import numpy as np
import pytest

from lpann import Dataset, SchemeConfig, _kernels, lp_distance, preprocess, query
from lpann.geometry import subset_diameter
from lpann.oracle import exact_nn

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



@pytest.mark.parametrize("p", [3.0, 128.0])
def test_rows_whose_powers_underflow_keep_their_digits(p):
    # at p = 128, 1e-3**128 underflows to 0: measured directly, both rows
    # lay at distance 0 from q and the exact scan answered the first
    x, q = np.array([[0.0, 0.0], [1e-3, 1e-3]]), np.array([9e-4, 9e-4])
    dists = _kernels.dists_to_point(x, q, p)
    assert dists == pytest.approx(2.0 ** (1.0 / p) * np.array([9e-4, 1e-4]), rel=1e-14)
    assert [lp_distance(row, q, p) for row in x] == dists.tolist()
    assert exact_nn(Dataset(x, p), q) == (1, dists[1])
    # a pairwise block rescales the same entries as the per-point kernel
    rows, cols = np.vstack([x, [[0.5, 0.5]]]), np.vstack([q, x])
    for i, _, block in _kernels.pairwise_blocks(rows, cols, p):
        for k in range(block.shape[0]):
            assert block[k].tolist() == _kernels.dists_to_point(cols, rows[i + k], p).tolist()
    # an index of points 1e-3 apart reports a nearby point's distance
    pts = 1e-3 * np.random.default_rng(0).uniform(size=(200, 8))
    scheme = preprocess(Dataset(pts, p), SchemeConfig(p=p, r=1e-4, seed=1))
    near = pts[5] + 1e-6
    answer = query(scheme, near)
    assert answer is not None and answer.distance > 0.0
    assert answer.distance == lp_distance(pts[answer.id], near, p)



def _rescaled_by_a_power_of_two(rows: np.ndarray, p: float) -> np.ndarray:
    """The distance from each row to the origin with the row divided by
    2**e, e the exponent of its largest magnitude, and multiplied back:
    exact scalings both ways, valid while 2**p stays finite."""
    rows = np.abs(rows)
    e = np.frexp(rows.max(axis=-1))[1] - 1
    return np.ldexp(_kernels._power_sums(np.ldexp(rows, -e[:, None]), p) ** (1.0 / p), e)


@pytest.mark.parametrize("p, scale", [(2.5, 1e-130), (3.0, 1e-110), (128.0, 1e-3), (1000.0, 0.1)])
def test_underflowing_rows_stay_within_an_ulp_or_two_of_an_exact_rescale(p, scale):
    # a row whose sum of powers underflows is divided by its largest
    # difference, which rounds: its distance may differ in the last bits
    # from dividing by a power of two, but by at most 1e-15 relative
    x = scale * np.random.default_rng(5).standard_normal((2000, 8))
    low = _kernels._power_sums(np.abs(x), p) < _kernels.TINY
    assert low.mean() > 0.9
    dists = _kernels.dists_to_point(x, np.zeros(8), p)
    want = _rescaled_by_a_power_of_two(x, p)
    assert (np.abs(dists - want) <= 1e-15 * want).all()
    assert [lp_distance(row, np.zeros(8), p) for row in x[:50]] == dists[:50].tolist()

def test_rows_whose_powers_overflow_keep_their_distance():
    # at p = 64, (2e6)**64 overflows: measured directly, every row lay at
    # distance inf from q and the exact scan answered the first, the
    # farthest; the same at p = 1024 with coordinates 5, 3 and 2
    assert exact_nn(Dataset([[5e6, 0.0], [3e6, 0.0], [2e6, 0.0]], 64.0), [0.0, 0.0]) == (2, 2e6)
    assert exact_nn(Dataset([[5.0, 0.0], [3.0, 0.0], [2.0, 0.0]], 1024.0), [0.0, 0.0]) == (2, 2.0)
    assert lp_distance([2e6, 0.0], [0.0, 0.0], 64.0) == 2e6
    # the largest difference's power is exactly 1 after the division
    want = 4e6 * (1.0 + 0.75 ** 64) ** (1.0 / 64)
    assert _kernels.dists_to_point(np.array([[3e6, 4e6]]), np.zeros(2), 64.0)[0] == (
        pytest.approx(want, rel=1e-15))
    # a pairwise block rescales the same entries as the per-point kernel:
    # rows that overflow, underflow, or neither, a zero row, and a
    # difference past the float range, whose distance is inf
    rng = np.random.default_rng(7)
    rows = np.vstack([1e6 * rng.standard_normal((6, 3)), 1e-9 * rng.standard_normal((3, 3)),
                      rng.standard_normal((3, 3)), np.zeros((1, 3)), [[1.7e308, 0.0, 0.0]]])
    cols = np.vstack([rows[:4], [[-1.7e308, 0.0, 0.0]]])
    for p in (64.0, 100.0, 2048.0):
        full = np.empty((len(rows), len(cols)))
        for i, j, block in _kernels.pairwise_blocks(rows, cols, p):
            full[i:i + block.shape[0], j:j + block.shape[1]] = block
        for k, row in enumerate(rows):
            assert full[k].tobytes() == _kernels.dists_to_point(cols, row, p).tobytes()
        assert np.isfinite(full[:, :4]).all() and np.isfinite(full[:-1, 4]).all()
        assert np.isinf(full[-1, 4])
    # 40 points of N(0, 9) in d = 4 at p = 512: a finite diameter, the
    # largest coordinate gap give or take the other coordinates' share
    pts = 3.0 * np.random.default_rng(0).standard_normal((40, 4))
    gap = max(np.abs(a - b).max() for a in pts for b in pts)
    assert gap <= subset_diameter(pts, 512.0) <= gap * 4.0 ** (1.0 / 512)
