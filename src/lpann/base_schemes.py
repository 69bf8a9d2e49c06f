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

Both keep their buckets or cells in one flat table, sorted (table, key) rows
with CSR member groups, built by the constructor and never saved; a query
finds its bucket in every table with one ``searchsorted``.
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
class _BucketTable:
    """Points grouped by (table, key). ``rows[g]`` is group g's tagged key
    (see ``_tagged_rows``), in sorted order; its local indices, ascending,
    are ``members[starts[g]:starts[g + 1]]``."""

    rows: np.ndarray
    starts: np.ndarray
    members: np.ndarray


def _tagged_rows(table, keys: np.ndarray) -> np.ndarray:
    """One opaque row per (table, key) pair, equal iff table and key are. The
    leading big-endian table number makes the bytewise order sort by table
    first, so per-table sorted runs concatenate into one sorted array."""
    rows = np.empty((keys.shape[0], keys.shape[1] + 1), dtype=">i8")
    rows[:, 0] = table
    rows[:, 1:] = keys
    return rows.view(f"V{rows.itemsize * rows.shape[1]}")[:, 0]


def _bucket_table(keys: np.ndarray) -> _BucketTable:
    """Group the points of each table of int keys (T, m, k) by key, with one
    stable sort per table so every group lists its members in ascending order."""
    n_tables, m, _ = keys.shape
    rows, starts, members = [], [], []
    for t in range(n_tables):
        tagged = _tagged_rows(t, keys[t])
        order = np.argsort(tagged, kind="stable")
        tagged = tagged[order]
        first = np.flatnonzero(np.r_[True, tagged[1:] != tagged[:-1]])
        rows.append(tagged[first])
        starts.append(first + t * m)
        members.append(order)
    starts.append([n_tables * m])
    return _BucketTable(np.concatenate(rows), np.concatenate(starts), np.concatenate(members))


def _lookup(table: _BucketTable, keys: np.ndarray) -> np.ndarray:
    """Groups matching keys[t] in table t, in table order, from one search
    over all tables (a key past the last row is clipped and fails the compare)."""
    tagged = _tagged_rows(np.arange(keys.shape[0]), keys)
    pos = table.rows.searchsorted(tagged)
    return pos[table.rows.take(pos, mode="clip") == tagged]


@dataclass
class L2Scheme:
    """The drawn projections and offsets fix everything else: bucket width
    w = 4r, at most 3L candidates probed per table, and the buckets."""

    ids: np.ndarray
    vectors: np.ndarray
    r: float
    projections: np.ndarray  # (L, k, d)
    offsets: np.ndarray      # (L, k)
    w: float = field(init=False)
    max_probe: int = field(init=False)
    table: _BucketTable = field(init=False, repr=False)

    def __post_init__(self):
        self.w = BUCKET_WIDTH_FACTOR * self.r
        self.max_probe = 3 * self.projections.shape[0]
        self.table = _bucket_table(_l2_keys(self, self.vectors))


def _l2_keys(scheme: L2Scheme, vecs: np.ndarray) -> np.ndarray:
    """Bucket keys for each (table, vector): int array (L, m, k)."""
    proj = np.einsum("lkd,md->lmk", scheme.projections, vecs)
    return _to_cell_index((proj + scheme.offsets[:, None, :]) / scheme.w)


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
    rng = _rng(seed)
    projections = rng.standard_normal((big_l, k, d))
    offsets = rng.uniform(0.0, BUCKET_WIDTH_FACTOR * r, size=(big_l, k))
    return L2Scheme(
        ids=np.ascontiguousarray(ids, dtype=np.int64),
        vectors=vectors,
        r=float(r),
        projections=projections,
        offsets=offsets,
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
    limit, table = 2.0 * scheme.r, scheme.table
    for g in _lookup(table, keys):
        cand = table.members[table.starts[g]: table.starts[g + 1]][: scheme.max_probe]
        dists = _kernels.dists_to_point(scheme.vectors[cand], q, 2.0)
        hits = np.flatnonzero(dists <= limit)
        if hits.size:
            return int(scheme.ids[cand[hits[0]]])
    return None


@dataclass
class CoarseScheme:
    """The drawn shifts fix everything else: cell side 4 d r, approximation
    c0 = 4 d^(1+1/p), and the occupied cells."""

    ids: np.ndarray
    vectors: np.ndarray
    p: float
    r: float
    shifts: np.ndarray  # (G, d)
    c0: float = field(init=False)
    cell_side: float = field(init=False)
    table: _BucketTable = field(init=False, repr=False)

    def __post_init__(self):
        d = self.vectors.shape[1]
        self.c0 = coarse_approximation(d, self.p)
        self.cell_side = grid_cell_side(d, self.r)
        self.table = _bucket_table(_grid_cells(self, self.vectors))


def coarse_approximation(d: int, p: float) -> float:
    return 4.0 * d ** (1.0 + 1.0 / p)


def grid_cell_side(d: int, r: float) -> float:
    return 4.0 * d * r


def _grid_cells(scheme: CoarseScheme, vecs: np.ndarray) -> np.ndarray:
    return _to_cell_index(
        (vecs[None, :, :] + scheme.shifts[:, None, :]) / scheme.cell_side
    )


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
    grids = max(1, math.ceil(8.0 * math.log(max(n, 2))))
    shifts = _rng(seed).uniform(0.0, grid_cell_side(d, r), size=(grids, d))
    return CoarseScheme(
        ids=np.ascontiguousarray(ids, dtype=np.int64),
        vectors=vectors,
        p=float(p),
        r=float(r),
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
    groups = _lookup(scheme.table, cells)
    if not groups.size:
        return None
    # a cell's representative is its lowest local index, the group's first member
    cand = np.unique(scheme.table.members[scheme.table.starts[groups]])
    dists = _kernels.dists_to_point(scheme.vectors[cand], q, scheme.p)
    ok = dists <= scheme.c0 * scheme.r
    if not ok.any():
        return None
    best = int(np.flatnonzero(ok)[np.argmin(dists[ok])])
    return int(scheme.ids[cand[best]])
