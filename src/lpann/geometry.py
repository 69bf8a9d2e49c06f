"""Vectors, lp distances, and the scaled signed-power (Mazur) map.

Everything here is a pure function on immutable inputs. Exponent ratios that
are integer powers of two take an exact squaring path; other exponents go
through ``x ** p``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import NumericRangeError, UsageError


def check_norm_param(p: float) -> float:
    """Validate a norm exponent: finite real >= 1."""
    p = float(p)
    if not math.isfinite(p) or p < 1.0:
        raise UsageError(f"norm exponent must be a finite real >= 1, got {p}")
    return p


def check_query(q, d: int) -> np.ndarray:
    """A query point as a float64 vector: d finite coordinates."""
    q = np.asarray(q, dtype=np.float64).ravel()
    if q.shape[0] != d:
        raise UsageError(f"query dimension {q.shape[0]} does not match dimension {d}")
    if not np.isfinite(q).all():
        raise UsageError("query contains non-finite coordinates")
    return q


def _is_int(value) -> bool:
    # numpy integers count; bools (Python's and numpy's) do not
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(eq=False)
class Dataset:
    """An indexed collection of d-dimensional vectors under an lp norm.

    ``ids`` are distinct and default to row indices; subsets built during
    index construction keep their original ids.
    """

    vectors: np.ndarray
    p: float
    ids: np.ndarray = None

    def __post_init__(self):
        self.vectors = np.ascontiguousarray(self.vectors, dtype=np.float64)
        if self.vectors.ndim != 2:
            raise UsageError("dataset vectors must be a 2-d array (n, d)")
        if not np.isfinite(self.vectors).all():
            raise UsageError("dataset contains non-finite coordinates")
        self.p = check_norm_param(self.p)
        if self.ids is None:
            self.ids = np.arange(self.vectors.shape[0], dtype=np.int64)
        else:
            ids = np.asarray(self.ids)
            if ids.ndim != 1 or (ids.dtype.kind not in "iuf" and ids.size):
                raise UsageError(f"dataset ids must be a 1-d array of integers, got "
                                 f"{ids.dtype} of shape {ids.shape}")
            with np.errstate(invalid="ignore"):  # non-integers are refused below
                self.ids = np.ascontiguousarray(ids, dtype=np.int64)
            if not (self.ids == ids).all():
                raise UsageError("dataset ids must be integers")
            if self.ids.shape[0] != self.vectors.shape[0]:
                raise UsageError("ids and vectors length mismatch")
            if np.unique(self.ids).shape[0] != self.ids.shape[0]:
                raise UsageError("dataset ids must be distinct")

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    @property
    def d(self) -> int:
        return self.vectors.shape[1]


def lp_distance(x, y, p: float) -> float:
    """(sum_i |x_i - y_i|^p)^(1/p).

    Raises UsageError on dimension mismatch and NumericRangeError if the
    distance itself lies past the float64 range. Differences whose powers
    fall below or above the normal float64 range keep their digits (see
    ``_kernels``).
    """
    p = check_norm_param(p)
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise UsageError(f"dimension mismatch: {x.shape} vs {y.shape}")
    d = float(_kernels.dists_to_point(x.reshape(1, -1), y.ravel(), p)[0])
    if not math.isfinite(d):
        raise NumericRangeError(f"lp distance overflowed for p={p}")
    return d


def mazur_scale_factor(p: float, q: float, c0: float) -> float:
    """The contraction scale (p/q) * c0^(p/q - 1) for the signed-power map."""
    if not (1.0 <= q < p):
        raise UsageError(f"need 1 <= q < p, got q={q} p={p}")
    if not (c0 > 0.0 and math.isfinite(c0)):
        raise UsageError(f"diameter bound c0 must be positive and finite, got {c0}")
    return (p / q) * c0 ** (p / q - 1.0)


@dataclass(frozen=True)
class MazurMapSpec:
    """Scaled signed-power map from lp to lq on the ball of lp radius c0.

    Coordinates map to sign(x) * |x|^(p/q) / scale with
    scale = (p/q) * c0^(p/q - 1), which makes the map non-expansive on
    B(0, c0) while keeping a quantified lower distortion bound.
    """

    p: float
    q: float
    c0: float
    scale: float = field(init=False)

    def __post_init__(self):
        if not (1.0 <= self.q < self.p < math.inf):
            raise UsageError(f"need 1 <= q < p < inf, got q={self.q} p={self.p}")
        object.__setattr__(self, "scale", mazur_scale_factor(self.p, self.q, self.c0))

    @property
    def exponent(self) -> float:
        return self.p / self.q


def mazur_map_points(spec: MazurMapSpec, v) -> np.ndarray:
    """Apply the scaled signed-power map to a vector, or to every row of a
    matrix.

    The intended domain is ||v||_p <= spec.c0; membership is not enforced
    here because callers certify it (a query point may sit slightly outside
    the data ball).
    """
    out = _kernels.signed_power(np.asarray(v, dtype=np.float64), spec.exponent, spec.scale)
    if not np.isfinite(out).all():
        raise NumericRangeError(
            f"signed-power map produced non-finite output (p/q={spec.exponent})"
        )
    return out


# the same map under the name the query path calls it by, so that a tracer
# can time the build's and the queries' calls apart
mazur_map_apply = mazur_map_points


def subset_diameter(points, p: float) -> float:
    """Max pairwise lp distance, by exhaustive O(m^2) scan. Empty input is an error."""
    p = check_norm_param(p)
    mat = np.asarray(points, dtype=np.float64)
    if mat.ndim == 1:
        mat = mat.reshape(1, -1)
    if mat.shape[0] == 0:
        raise UsageError("subset_diameter needs at least one point")
    return max(float(block.max()) for _, _, block in _kernels.pairwise_blocks(mat, mat, p))
