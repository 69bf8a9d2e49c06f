"""Leaf near-neighbor structures the recursion bottoms out on.

Two schemes, both randomized, both with re-checked answers:

* ``L2Scheme`` -- Gaussian-projection (p-stable) LSH for l2 with target
  approximation 2. Table count is sized from the planted-pair collision
  probability at the design distance r so that the miss probability is at
  most ``delta_fail``.
* ``CoarseScheme`` -- randomly shifted uniform grids for lp giving
  approximation c0 = 4 d^(1+1/p). A query and its r-near neighbor land in
  the same cell of one grid with probability >= 3/4, and any co-located
  representative is within the cell's lp diameter, which equals c0 * r.

Neither scheme ever returns a candidate violating its bound: distances are
re-verified and a bad candidate set yields ``None`` instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import UsageError

BUCKET_WIDTH_FACTOR = 4.0  # w = 4r, design collision at distance exactly r


def _rng(seed) -> np.random.Generator:
    return np.random.default_rng(seed)


def _to_cell_index(values: np.ndarray) -> np.ndarray:
    """Floor to int64, clipping astronomically scaled inputs into range.

    Clipping can only merge cells of points that distance re-checking would
    reject anyway, so answers stay within their bounds.
    """
    return np.clip(np.floor(values), -9.2e18, 9.2e18).astype(np.int64)


def collision_probability(dist_over_width: float) -> float:
    """Single-projection collision probability of Gaussian LSH at s = c/w."""
    s = dist_over_width
    phi = 0.5 * (1.0 + math.erf((-1.0 / s) / math.sqrt(2.0)))
    return 1.0 - 2.0 * phi - (2.0 * s / math.sqrt(2.0 * math.pi)) * (
        1.0 - math.exp(-1.0 / (2.0 * s * s))
    )


def num_hash_bits(n: int) -> int:
    return max(1, math.ceil(math.log2(max(n, 2))))


def num_tables(n: int, delta_fail: float) -> int:
    """Smallest L with (1 - p1^k)^L <= delta_fail at the design distance."""
    p_hit = collision_probability(1.0 / BUCKET_WIDTH_FACTOR) ** num_hash_bits(n)
    return max(1, math.ceil(math.log(delta_fail) / math.log(1.0 - p_hit)))


@dataclass
class L2Scheme:
    ids: np.ndarray
    vectors: np.ndarray
    r: float
    k: int
    w: float
    projections: np.ndarray  # (L, k, d)
    offsets: np.ndarray      # (L, k)
    max_probe: int
    tables: list = field(default=None, repr=False)

    def __post_init__(self):
        if self.tables is None:
            self.tables = _l2_tables(self)

    @property
    def num_tables(self) -> int:
        return self.projections.shape[0]


def _l2_keys(scheme: L2Scheme, vecs: np.ndarray) -> np.ndarray:
    """Bucket keys for each (table, vector): int array (L, m, k)."""
    proj = np.einsum("lkd,md->lmk", scheme.projections, vecs)
    return _to_cell_index((proj + scheme.offsets[:, None, :]) / scheme.w)


def _l2_tables(scheme: L2Scheme) -> list:
    keys = _l2_keys(scheme, scheme.vectors)
    tables = []
    for li in range(keys.shape[0]):
        buckets = {}
        for local, key in enumerate(map(tuple, keys[li])):
            buckets.setdefault(key, []).append(local)
        tables.append({k: np.asarray(v, dtype=np.int64) for k, v in buckets.items()})
    return tables


def build_l2_ann(ids, vectors, r: float, delta_fail: float, seed) -> L2Scheme:
    """Build the l2 LSH scheme over (id, vector) pairs.

    For any query with an l2 r-near neighbor among the points, the query
    returns some point within 2r with probability >= 1 - delta_fail over the
    build randomness.
    """
    vectors = np.ascontiguousarray(vectors, dtype=np.float64)
    if vectors.ndim != 2 or vectors.shape[0] == 0:
        raise UsageError("build_l2_ann needs a non-empty (n, d) point array")
    if not (r > 0.0):
        raise UsageError(f"radius must be positive, got {r}")
    if not (0.0 < delta_fail < 1.0):
        raise UsageError(f"delta_fail must lie in (0,1), got {delta_fail}")

    n, d = vectors.shape
    k = num_hash_bits(n)
    big_l = num_tables(n, delta_fail)
    w = BUCKET_WIDTH_FACTOR * r
    rng = _rng(seed)
    projections = rng.standard_normal((big_l, k, d))
    offsets = rng.uniform(0.0, w, size=(big_l, k))
    return L2Scheme(
        ids=np.ascontiguousarray(ids, dtype=np.int64),
        vectors=vectors,
        r=float(r),
        k=k,
        w=w,
        projections=projections,
        offsets=offsets,
        max_probe=3 * big_l,
    )


def query_l2_ann(scheme: L2Scheme, q) -> int | None:
    """First scanned candidate within 2r of q, probing at most max_probe
    candidates per table; None if no candidate qualifies."""
    q = np.asarray(q, dtype=np.float64).ravel()
    if q.shape[0] != scheme.vectors.shape[1]:
        raise UsageError(
            f"query dimension {q.shape[0]} does not match scheme dimension "
            f"{scheme.vectors.shape[1]}"
        )
    keys = _l2_keys(scheme, q.reshape(1, -1))[:, 0, :]
    limit = 2.0 * scheme.r
    for li, table in enumerate(scheme.tables):
        bucket = table.get(tuple(keys[li]))
        if bucket is None:
            continue
        cand = bucket[: scheme.max_probe]
        dists = _kernels.dists_to_point(scheme.vectors[cand], q, 2.0)
        hits = np.flatnonzero(dists <= limit)
        if hits.size:
            return int(scheme.ids[cand[hits[0]]])
    return None


@dataclass
class CoarseScheme:
    ids: np.ndarray
    vectors: np.ndarray
    p: float
    r: float
    c0: float
    cell_side: float
    shifts: np.ndarray  # (G, d)
    tables: list = field(default=None, repr=False)

    def __post_init__(self):
        if self.tables is None:
            self.tables = _grid_tables(self)

    @property
    def num_grids(self) -> int:
        return self.shifts.shape[0]


def coarse_approximation(d: int, p: float) -> float:
    return 4.0 * d ** (1.0 + 1.0 / p)


def _grid_cells(scheme: CoarseScheme, vecs: np.ndarray) -> np.ndarray:
    return _to_cell_index(
        (vecs[None, :, :] + scheme.shifts[:, None, :]) / scheme.cell_side
    )


def _grid_tables(scheme: CoarseScheme) -> list:
    cells = _grid_cells(scheme, scheme.vectors)
    tables = []
    for gi in range(cells.shape[0]):
        reps = {}
        for local, cell in enumerate(map(tuple, cells[gi])):
            reps.setdefault(cell, local)  # lowest local index wins
        tables.append(reps)
    return tables


def build_coarse_ann(ids, vectors, p: float, r: float, seed) -> CoarseScheme:
    """Shifted-grid scheme with approximation c0 = 4 d^(1+1/p).

    G = ceil(8 ln n) grids of cell side 4 d r; each occupied cell stores its
    lowest-id point as representative.
    """
    vectors = np.ascontiguousarray(vectors, dtype=np.float64)
    if vectors.ndim != 2 or vectors.shape[0] == 0:
        raise UsageError("build_coarse_ann needs a non-empty (n, d) point array")
    if not (r > 0.0):
        raise UsageError(f"radius must be positive, got {r}")
    if p < 2.0:
        raise UsageError(f"coarse scheme requires p >= 2, got {p}")

    n, d = vectors.shape
    side = 4.0 * d * r
    grids = max(1, math.ceil(8.0 * math.log(max(n, 2))))
    shifts = _rng(seed).uniform(0.0, side, size=(grids, d))
    return CoarseScheme(
        ids=np.ascontiguousarray(ids, dtype=np.int64),
        vectors=vectors,
        p=float(p),
        r=float(r),
        c0=coarse_approximation(d, p),
        cell_side=side,
        shifts=shifts,
    )


def query_coarse_ann(scheme: CoarseScheme, q) -> int | None:
    """lp-closest cell representative across grids, re-checked against c0*r."""
    q = np.asarray(q, dtype=np.float64).ravel()
    if q.shape[0] != scheme.vectors.shape[1]:
        raise UsageError(
            f"query dimension {q.shape[0]} does not match scheme dimension "
            f"{scheme.vectors.shape[1]}"
        )
    cells = _grid_cells(scheme, q.reshape(1, -1))[:, 0, :]
    found = set()
    for gi, table in enumerate(scheme.tables):
        rep = table.get(tuple(cells[gi]))
        if rep is not None:
            found.add(rep)
    if not found:
        return None
    cand = np.asarray(sorted(found), dtype=np.int64)
    dists = _kernels.dists_to_point(scheme.vectors[cand], q, scheme.p)
    ok = dists <= scheme.c0 * scheme.r
    if not ok.any():
        return None
    best = int(np.flatnonzero(ok)[np.argmin(dists[ok])])
    return int(scheme.ids[cand[best]])
