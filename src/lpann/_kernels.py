"""Hot numeric kernels: lp distances and signed-power maps, in numpy.

One lp reduction serves both distance kernels: ``dists_to_point`` measures
one point against every row of a matrix, and ``pairwise_blocks`` measures
every row of one matrix against every row of another, a block of rows at a
time so that no temporary array outgrows ``BLOCK_BYTES``. Row k of a
pairwise block equals the matching ``dists_to_point`` call bit for bit.

Distance kernels coerce their input to C-contiguous float64. Powers use exact
repeated squaring whenever the exponent is an integer power of two (every
exponent on the recursion path is), and fall back to ``x ** p`` otherwise.
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"
# cap on the one (rows, cols, d) float64 temporary of a pairwise block; at
# 1 MiB it stays cache-resident, while 4 MiB blocks ran about a quarter
# slower on a Xeon with 4 MiB of L2 per core
BLOCK_BYTES = 1 << 20


def _pow2_exponent(p: float) -> int:
    """log2(p) if p is an integer power of two >= 2, else -1."""
    m = int(p)
    if m != p or m < 2:
        return -1
    if m & (m - 1):
        return -1
    return m.bit_length() - 1


def _as_matrix(mat) -> np.ndarray:
    out = np.ascontiguousarray(mat, dtype=np.float64)
    if out.ndim == 1:
        out = out.reshape(1, -1)
    return out


def _lp_reduce(x: np.ndarray, y: np.ndarray, p: float) -> np.ndarray:
    """lp norm of the broadcast difference x - y along the last axis.

    Overflow is allowed to produce inf; callers decide whether that is an
    error (lp_distance raises NumericRangeError on non-finite results).
    """
    with np.errstate(over="ignore"):
        diff = np.subtract(x, y)
        np.abs(diff, out=diff)  # in place: one temporary, not one per step
        a = _pow2_exponent(p)
        if a >= 1:
            for _ in range(a):
                np.multiply(diff, diff, out=diff)
        else:
            diff = diff ** p
        return diff.sum(axis=-1) ** (1.0 / p)


def dists_to_point(mat: np.ndarray, v: np.ndarray, p: float) -> np.ndarray:
    """lp distance from v to every row of mat, shape (n,)."""
    return _lp_reduce(_as_matrix(mat), np.ascontiguousarray(v, dtype=np.float64), p)


def pairwise_blocks(a: np.ndarray, b: np.ndarray, p: float):
    """Yield (i, j, block) with block[k, l] the lp distance between a[i + k]
    and b[j + l], covering every pair of rows exactly once."""
    a, b = _as_matrix(a), _as_matrix(b)
    row_bytes = max(8, 8 * b.shape[1])
    cols = max(1, min(b.shape[0], BLOCK_BYTES // row_bytes))
    rows = max(1, BLOCK_BYTES // (row_bytes * cols))
    for j in range(0, b.shape[0], cols):
        for i in range(0, a.shape[0], rows):
            yield i, j, _lp_reduce(a[i:i + rows, None, :], b[j:j + cols], p)


def signed_power(mat: np.ndarray, exponent: float, scale: float) -> np.ndarray:
    """sign(x) * |x|**exponent / scale, elementwise."""
    mat = np.asarray(mat, dtype=np.float64)
    if exponent == 2.0:
        out = mat * np.abs(mat)
    else:
        out = np.sign(mat) * np.abs(mat) ** exponent
    return out / scale
