"""Hot numeric kernels: lp distances and signed-power maps, in numpy.

One lp reduction serves both distance kernels: ``dists_to_point`` measures
one point against every row of a matrix, and ``pairwise_blocks`` measures
every row of one matrix against every row of another, a block of rows at a
time so that no temporary array outgrows ``BLOCK_BYTES``. Row k of a
pairwise block equals the matching ``dists_to_point`` call bit for bit.

Distance kernels coerce their input to C-contiguous float64. Powers use exact
repeated squaring whenever the exponent is an integer power of two (every
exponent on the recursion path is), and fall back to ``x ** p`` otherwise.
A row whose sum of powers falls below the normal float64 range, or
overflows it while the distance itself is finite, is measured again with its
differences divided by their largest, so its powers keep their digits and
none overflows; every other row keeps its bits.
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"
# cap on the one (rows, cols, d) float64 temporary of a pairwise block; at
# 1 MiB it stays cache-resident, while 4 MiB blocks ran about a quarter
# slower on a Xeon with 4 MiB of L2 per core
BLOCK_BYTES = 1 << 20
TINY = np.finfo(np.float64).tiny  # the least normal float64


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


def _power_sums(diff: np.ndarray, p: float) -> np.ndarray:
    """sum_i diff_i**p along the last axis; diff, non-negative, is
    overwritten when p is a power of two."""
    a = _pow2_exponent(p)
    if a >= 1:
        for _ in range(a):
            np.multiply(diff, diff, out=diff)
    else:
        diff = diff ** p
    return diff.sum(axis=-1)


def _abs_power_sums(x: np.ndarray, y: np.ndarray, p: float) -> np.ndarray:
    """sum_i |x_i - y_i|**p along the last axis of the broadcast difference."""
    diff = np.subtract(x, y)
    np.abs(diff, out=diff)  # in place: one temporary, not one per step
    return _power_sums(diff, p)


def _lp_reduce(x: np.ndarray, y: np.ndarray, p: float) -> np.ndarray:
    """lp norm of the broadcast difference x - y along the last axis, for x
    (m, d) and y (d,), or x (rows, 1, d) and y (cols, d).

    A difference too large for float64 makes the distance inf; callers
    decide whether that is an error (lp_distance raises NumericRangeError
    on non-finite results). Where a sum of powers is below ``TINY`` or
    overflows, the row's differences are measured again divided by their
    largest, whose power is then exactly 1, and the result is multiplied
    back (a row of zeros, or one holding an infinite difference, keeps its
    0 or inf). The sums are computed once, overflowing to inf, and a call
    where none is inf or below ``TINY`` pays no check beyond one ``min``
    and one ``max`` over them.
    """
    with np.errstate(over="ignore"):
        sums = _abs_power_sums(x, y, p)
    out = sums ** (1.0 / p)
    if not (TINY <= sums.min(initial=np.inf) and sums.max(initial=0.0) < np.inf):
        at = ((sums < TINY) | (sums == np.inf)).nonzero()  # (row,) or (row, col)
        with np.errstate(over="ignore"):
            rows = x[at[0]].reshape(-1, x.shape[-1]) - (y[at[-1]] if y.ndim > 1 else y)
            np.abs(rows, out=rows)
            top = rows.max(axis=-1, initial=0.0)
            fine = (top > 0.0) & (top < np.inf)
            rows, top = rows[fine], top[fine]
            rows /= top[:, None]
            out[tuple(a[fine] for a in at)] = top * _power_sums(rows, p) ** (1.0 / p)
    return out


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
