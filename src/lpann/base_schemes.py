"""Leaf near-neighbor structures the recursion bottoms out on.

Two randomized schemes and one exact one, all with re-checked answers:

* l2 LSH leaves (``build_l2_ann``) -- Gaussian-projection (p-stable) LSH
  for l2 with target approximation 2. Table count is sized from the
  planted-pair collision probability at the design distance r so that the
  miss probability is at most ``delta_fail``.
* shifted grids (``build_coarse_ann``) -- randomly shifted uniform grids for
  lp giving approximation c0 = 4 d^(1+1/p). A query and its r-near neighbor
  land in the same cell of one grid with probability >= 3/4, and any
  co-located representative is within the cell's lp diameter, which equals
  c0 * r.
* ``L2Scan`` -- the l2 leaves over a point set small enough that one exact
  scan is the cheaper lookup and measures no more rows than they could
  probe (``scan_fits``). The scan finds the nearest point, so it meets
  every leaf's contract with probability 1 and answers them all at once
  (``query_l2_scan``); it draws nothing and holds no table.

No scheme ever returns a candidate violating its bound: distances are
re-verified and a bad candidate set yields ``None`` instead.

Every copy of a scheme over one point array is looked up with the others
as one group (``L2Group``, ``CoarseGroup``), which holds all their draws,
one seed's after another, and the scalars derived from them. Its copies
are all of one size (an l2 leaf's L tables, or a grid copy's schemes of G
grids each), so a table's leaf, scheme or copy is its number divided by
that size, and the group keeps no array of them. A builder draws each
seed's arrays straight into the group's, and the group derives from them,
never saved, one flat table that keeps only what a query reads: a sorted
column of 64-bit fingerprints of (table, key), all under one salt's
multipliers, the E2LSH layout of Datar, Immorlica, Indyk and Mirrokni
(SoCG 2004), and per bucket, numbered in fingerprint order, its table
number and CSR members. An l2 bucket keeps its full int64 key and its first
``max_probe`` members; a grid cell keeps one member, its representative,
and no key, for the cell is recomputed from the representative. A grid
group also keeps the points' box as each grid sees it (``_GridBox``), so
its build and its queries compute cells only where a cell boundary cuts
the box or the query leaves it. A grid query finds its cell in every grid
with one ``searchsorted`` over the fingerprints, whose positions are the
buckets, confirms only the matches it answers with on the full cell, and
measures the distinct representatives, found by a scatter over the group's
points, with one distance call. An l2 query stops early, as E2LSH's does,
in two passes: first the first table of every leaf, then all remaining
tables of the leaves still without a candidate within 2r. Every lookup
pass is one search and one distance call: one matrix product hashes the
pass's tables, one search finds their buckets, confirmed on the full key,
and one distance call measures the distinct members of all of them, of
which each leaf keeps its first within 2r in table order. A query answers
per copy of the group: an l2 copy is one leaf, a grid copy a contiguous
block of grid schemes. Its answer is three arrays over the copies, a
found mask, ids and distances, or None if no copy answers. A mask leaves
copies out: their cells are never measured, and their l2 tables are
neither hashed nor measured. A lone scheme is a group of one copy. A
scanned l2 set answers once per query, not per copy. The recursive walk
calls each public query's unchecked core (``_query_l2``, ``_query_coarse``,
``_query_scan``) with its already checked point. Both kinds of group build
their table with one builder, ``_bucket_table``.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import NumericRangeError, UsageError
from .geometry import check_query

BUCKET_WIDTH_FACTOR = 4.0  # w = 4r, design collision at distance exactly r
# m * d entries an exact scan reads at most: past 1 MiB of float64 rows its
# cost per entry doubles, and at d = 32 it costs more than the l2 lookup
# through LSH leaves that it replaces (measured at m = 4000 and 8000)
SCAN_MAX_ENTRIES = 1 << 17
CAST_BLOCK = 1 << 16  # entries ``_to_cell_index`` casts at a time: 512 KiB
BOX_GRIDS = 8  # grids whose box corners a grid build computes in one call
GRID_BLOCK = 1 << 13  # cells of points a grid build, or of a query by the box, computes at a time
NO_RANK = np.iinfo(np.int64).max  # a grid a coarse query no longer tries


def _to_cell_index(values: np.ndarray) -> np.ndarray:
    """Floor to int64, clipping astronomically scaled inputs into +-9.2e18;
    the C-contiguous float array values is overwritten on the way. The clip
    runs only when the floored values' minimum or maximum lies outside that
    range (or is NaN, or values is empty), for it leaves in-range values as
    they are. The cast goes into an int64 view of values, ``CAST_BLOCK``
    entries at a time, each block read before it is overwritten, so it
    holds one block, not a second array of values' size (42.7 MB for an l2
    leaf of 16000 points and 350 hash functions). NaN, an l2 key whose
    product summed +inf and -inf terms, gets key 0 on every platform.

    Clipping, and NaN's key, can only merge cells of points that distance
    re-checking would reject anyway, so answers stay within their bounds.
    """
    np.floor(values, out=values)
    if not (values.size and -9.2e18 <= values.min() and values.max() <= 9.2e18):
        np.clip(values, -9.2e18, 9.2e18, out=values)
        np.nan_to_num(values, copy=False, nan=0.0)
    out = values.view(np.int64)
    flat, cast = values.reshape(-1), out.reshape(-1)
    for a in range(0, flat.size, CAST_BLOCK):
        cast[a:a + CAST_BLOCK] = flat[a:a + CAST_BLOCK]
    return out


def _cells(points: np.ndarray, shifts: np.ndarray, side: float) -> np.ndarray:
    """Grid cells of points + shifts (broadcast) for cells of the given side,
    through one C-ordered float buffer (points may be columns picked from a
    wider array, which numpy lays out in Fortran order). Cells past the
    float range overflow to inf, which ``_to_cell_index`` clips like any
    far cell."""
    with np.errstate(over="ignore"):
        buf = np.add(points, shifts, order="C")
        buf /= side
    return _to_cell_index(buf)


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


def scan_fits(m: int, d: int, leaves: int, delta_fail: float) -> bool:
    """Whether ``leaves`` LSH leaves over m points of dimension d are
    answered by one exact scan: it reads at most ``SCAN_MAX_ENTRIES``
    coordinates, where it is the cheaper lookup, and measures no more rows
    than the most candidates the leaves probe in one query (L tables a
    leaf, at most 3L candidates a table), so the query bound stands."""
    big_l = num_tables(m, delta_fail)
    return m * d <= SCAN_MAX_ENTRIES and m <= leaves * big_l * 3 * big_l


@dataclass
class _BucketTable:
    """Points grouped by (table, key) into buckets, never saved, keeping only
    what a lookup reads.

    Buckets are numbered in fingerprint order: ``fingerprints[b]`` is bucket
    b's fingerprint under ``multipliers`` (see ``_fingerprints``), all
    distinct and ascending, so the position a search finds is the bucket.
    Bucket b belongs to table ``tables[b]`` and keeps the lowest local
    indices of its points, ascending, at most the cap the table was built with:
    ``members[starts[b]:starts[b + 1]]``, or ``members[b]`` alone where
    ``starts`` is None, as it is when every bucket keeps one member (every
    grid table). Its int key is ``keys[b]``, or, where ``keys`` is None,
    recomputed by the caller from its first member. Table numbers and
    members are int32.

    l2 tables keep their keys and grid tables do not, each for a measured
    reason. Confirming an l2 match by rehashing its bucket's first member
    instead took a benchmark query from 1192 to 1268 Python-level calls and
    made queries 10-13 % slower on gauss-d32 and clustered-d32. Keys of
    clustered-d32's root grids would take about 13.7 MB (53,571 cells x 32
    x 8 B), more than a tenth of the benchmark's peak RSS.
    """

    fingerprints: np.ndarray  # (B,) uint64
    tables: np.ndarray
    starts: np.ndarray | None  # (B + 1,) int64
    members: np.ndarray
    multipliers: np.ndarray    # (k + 1,) uint64
    keys: np.ndarray | None    # (B, k) int64

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in vars(self).values() if a is not None)

    def spans(self, buckets: np.ndarray):
        """(first, size): where each bucket's members begin in ``members``,
        and how many it keeps."""
        if self.starts is None:
            return buckets, np.ones(buckets.size, dtype=np.int64)
        first = self.starts[buckets]
        return first, self.starts[buckets + 1] - first


def _multipliers(salt: int, width: int) -> np.ndarray:
    """Fingerprint salt ``salt``'s uniform 64-bit multipliers for keys of
    ``width`` ints, then for the table number."""
    return np.random.default_rng(salt).integers(0, 2**64, size=width + 1, dtype=np.uint64)


def _fingerprints(multipliers, tables, keys: np.ndarray) -> np.ndarray:
    """The uint64 fingerprint of each (tables[i], keys[i]): a linear form in
    the key's ints and the table number, wrapping mod 2**64. Under uniform
    multipliers two distinct pairs share a fingerprint with probability at
    most 2**(v - 64), where bit v is the lowest bit in which they differ.
    The form is linear mod 2**64, so a sum of its terms in any order and
    parts (``_GridBox``) is the same, bit for bit."""
    out = keys.view(np.uint64) @ multipliers[:-1]
    out += np.asarray(tables, dtype=np.uint64) * multipliers[-1]
    return out


def _split(fp: np.ndarray, keys: np.ndarray, stable: bool):
    """(order, first, fingerprints) grouping one table's points by their
    fingerprints fp: order sorts fp, stably if ``stable``, and run j of
    equal fingerprints begins at order[first[j]] and has fingerprints[j];
    None if a run holds two different keys (keys holds the points' int keys
    along its last axis). The check is skipped where every run holds one
    point. Else it gathers the keys once in sorted order, a point's key at
    a time where its ints lie together (an l2 table's), or not at all where
    one run spans the table (most tables of an l2 leaf), for any order of
    one run is sorted, and compares each point's key with the one before it
    wherever no run begins."""
    order = fp.argsort(kind="stable" if stable else None)
    fp = fp[order]
    new = _run_starts(fp)
    first = new.nonzero()[0]
    if first.size < fp.size:
        ranked = keys if first.size == 1 else (
            keys.T[order].T if keys.strides[0] < keys.strides[-1] else keys.take(order, axis=-1))
        if ((ranked[..., 1:] != ranked[..., :-1]) & ~new[1:]).any():
            return None
    return order, first, fp[first]


def _compact(keys: np.ndarray) -> np.ndarray:
    """keys in the narrowest integer type that holds them all."""
    if not keys.size:
        return keys
    return keys.astype(np.result_type(np.min_scalar_type(keys.min()),
                                      np.min_scalar_type(keys.max())))


def _bucket_table(tables: Callable, width: int, cap: int, keep_keys: bool = True) -> _BucketTable:
    """Group the points of each table into buckets by key, a table at a time,
    each bucket keeping at most ``cap`` members.

    A pass draws one salt's multipliers for keys of ``width`` ints, and
    ``tables(multipliers)`` yields, a table at a time, the points'
    fingerprints under them (``_fingerprints``) and int keys, points along
    the last axis. Each table is split on its own (``_split``), stably if
    ``cap`` exceeds 1, and leaves only its fingerprints, the members its
    buckets keep (each run's first ``cap`` entries of the split's order, or,
    where ``cap`` is 1, its least point by ``minimum.reduceat``, whatever
    the order within the run) and, where ``cap`` exceeds 1, each bucket's
    member count, and its buckets' keys if ``keep_keys``, in the narrowest
    integer type that holds them; a table's keys are dropped before the
    next table's are made. Sorting all fingerprints then numbers the
    buckets, by permuting only the per-bucket arrays, or, where every bucket
    keeps one member, the members themselves; each table's kept keys are
    then scattered to their buckets' places and dropped, so they are held
    about once.

    Passes run from salt 0 on. A fingerprint run holding two keys, or two
    buckets sharing a fingerprint, makes the salt bad for the whole table:
    the next salt starts a new pass. So the table is the one under the
    smallest salt that gives every (table, key) its own fingerprint, and a
    rebuild gives the same table. Each salt separates two given distinct
    (table, key) pairs with probability at least 1/2, so the passes end.
    """
    for salt in itertools.count():
        multipliers = _multipliers(salt, width)
        keys, sizes, members, fps = [], [], [], []
        for fp, table_keys in tables(multipliers):
            split = _split(fp, table_keys, cap > 1)
            if split is None:
                del table_keys  # before the next pass makes any
                break
            order, first, fp = split
            if keep_keys:
                keys.append(_compact(table_keys.T[order[first]]))
            del table_keys  # before the next table's keys are made
            if cap == 1:
                order = np.minimum.reduceat(order, first)
            else:
                run = np.diff(first, append=order.size)
                sizes.append(np.minimum(run, cap))
                if (run > cap).any():  # keep each run's first cap entries
                    order = order[np.arange(order.size) - np.repeat(first, run) < cap]
            members.append(order.astype(np.int32))
            fps.append(fp)
        else:  # number the buckets in fingerprint order
            runs = [f.size for f in fps]
            fp = np.concatenate(fps)
            fps.clear()  # only the joined column is held from here
            order = fp.argsort()
            fp = fp[order]
            if not (fp[1:] == fp[:-1]).any():
                break
    table_of = np.repeat(np.arange(len(runs), dtype=np.int32), runs)[order]
    members = np.concatenate(members)
    if members.size == order.size:  # one member a bucket: permute them
        members, starts = members[order], None
    else:  # permute the buckets' spans, then gather their members
        size = np.concatenate(sizes)
        lo = (np.cumsum(size) - size)[order]
        size = size[order]
        ends = np.cumsum(size)
        members = members[np.arange(ends[-1]) + np.repeat(lo - (ends - size), size)]
        starts = np.concatenate([[0], ends])
    if keep_keys:
        place = np.empty_like(order)
        place[order] = np.arange(order.size)
        out, at = np.empty((order.size, width), dtype=np.int64), 0
        keys.reverse()
        while keys:  # a table's keys go once they are in place
            part = keys.pop()
            out[place[at:at + len(part)]] = part
            at += len(part)
        keys = out
    return _BucketTable(fp, table_of, starts, members, multipliers, keys if keep_keys else None)


def _find(table: _BucketTable, tables: np.ndarray, fp: np.ndarray):
    """(found, bucket): the bucket a search for fp[i] finds, clipped to the
    last, and whether it has fingerprint fp[i] and table tables[i]."""
    bucket = np.minimum(table.fingerprints.searchsorted(fp), table.fingerprints.size - 1)
    return (table.tables[bucket] == tables) & (table.fingerprints[bucket] == fp), bucket


def _lookup(table: _BucketTable, tables: np.ndarray, keys: np.ndarray):
    """(i, bucket) for every keys[i] found in stacked table tables[i], in
    order of i, from one search over the fingerprint column (``_find``). A
    match counts only if its bucket's key is keys[i] too; a table without
    keys matches on the fingerprint and leaves the key to the caller."""
    found, bucket = _find(table, tables, _fingerprints(table.multipliers, tables, keys))
    if table.keys is not None:
        found &= (table.keys[bucket] == keys).all(axis=1)
    found = found.nonzero()[0]
    return found, bucket[found]


def _distinct(rows: np.ndarray, m: int):
    """``np.unique(rows, return_inverse=True)`` for indices below m, by a
    scatter over the m rows instead of a sort."""
    mark = np.zeros(m, dtype=bool)
    mark[rows] = True
    distinct = mark.nonzero()[0]
    position = np.empty(m, dtype=np.intp)
    position[distinct] = np.arange(distinct.size)
    return distinct, position[rows]


def _run_starts(a: np.ndarray) -> np.ndarray:
    """True where a run of equal values in the non-empty array a begins."""
    out = np.empty(a.size, dtype=bool)
    out[0] = True
    np.not_equal(a[1:], a[:-1], out=out[1:])
    return out


def _check_inputs(name: str, ids, vectors, r: float):
    """(ids, vectors) as contiguous int64 and float64 arrays: one id per
    point, and a non-empty (n, d) array of finite coordinates; and r > 0."""
    vectors = np.ascontiguousarray(vectors, dtype=np.float64)
    if vectors.ndim != 2 or vectors.shape[0] == 0:
        raise UsageError(f"{name} needs a non-empty (n, d) point array")
    if not np.isfinite(vectors).all():
        raise UsageError(f"{name}: points contain non-finite coordinates")
    ids = np.asarray(ids, dtype=np.int64)
    if ids.shape != vectors.shape[:1]:
        raise UsageError(f"{name} needs one id per point: ids of shape {ids.shape} "
                         f"for {vectors.shape[0]} points")
    if not (r > 0.0):
        raise UsageError(f"radius must be positive, got {r}")
    return np.ascontiguousarray(ids), vectors


def _is_seed_list(seeds) -> bool:
    return isinstance(seeds, (list, tuple)) and len(seeds) > 0


def _live_mask(live, copies: int) -> np.ndarray:
    """A new boolean mask over a group's copies: live, or all if None."""
    if live is None:
        return np.ones(copies, dtype=bool)
    mask = np.array(live, dtype=bool)
    if mask.shape != (copies,):
        raise UsageError(f"live needs one flag per copy: shape {mask.shape} for {copies} copies")
    return mask


def _l2_keys(projections, offsets, w: float, vecs: np.ndarray) -> np.ndarray:
    """Bucket keys for each (table, vector): int array (L, m, k), from one
    matrix product of the vectors with all L k projections. The offsets,
    the division by w, the floor and the cast run on the contiguous (m, L k)
    product, and only the result is viewed as (L, m, k): every step is
    elementwise, so the order changes no bit. Build, load and query all
    hash through it, so a point and a query at the point agree. Keys past
    the float range (a tiny w, or astronomically scaled vectors) overflow to
    inf and are clipped like any far key by ``_to_cell_index``, which also
    keys the NaN of a product summing +inf and -inf terms."""
    big_l, k, d = projections.shape
    with np.errstate(over="ignore", invalid="ignore"):
        proj = vecs @ projections.reshape(big_l * k, d).T
        proj += offsets.reshape(-1)
        proj /= w
    return _to_cell_index(proj).reshape(len(vecs), big_l, k).transpose(1, 0, 2)


def build_l2_ann(ids, vectors, r: float, delta_fail: float, seeds) -> L2Group:
    """Build l2 LSH leaves over (id, vector) pairs, one per seed, in one
    group.

    For any query with an l2 r-near neighbor among the points, each leaf
    returns some point within 2r with probability >= 1 - delta_fail over
    its seed's draws.
    """
    ids, vectors = _check_inputs("build_l2_ann", ids, vectors, r)
    if not (0.0 < delta_fail < 1.0):
        raise UsageError(f"delta_fail must lie in (0,1), got {delta_fail}")
    if not _is_seed_list(seeds):
        raise UsageError("build_l2_ann needs a non-empty list of seeds, one per leaf")
    if not math.isfinite(BUCKET_WIDTH_FACTOR * r):
        raise NumericRangeError(f"bucket width 4r overflows for radius {r}")

    n, d = vectors.shape
    k = num_hash_bits(n)
    big_l = num_tables(n, delta_fail)
    projections = np.empty((len(seeds) * big_l, k, d))
    offsets = np.empty((len(seeds) * big_l, k))
    for i, seed in enumerate(seeds):
        rng, part = np.random.default_rng(seed), slice(i * big_l, (i + 1) * big_l)
        projections[part] = rng.standard_normal((big_l, k, d))
        offsets[part] = rng.uniform(0.0, BUCKET_WIDTH_FACTOR * r, size=(big_l, k))
    return L2Group(ids, vectors, float(r), projections, offsets, len(seeds))


@dataclass
class L2Group:
    """l2 leaves over one point array and radius, looked up together.

    The T tables (``projections[i]``, ``offsets[i]``) make ``leaves`` leaves
    of L = T / leaves tables each: table i belongs to leaf i // L, is that
    leaf's first table where i % L == 0, and is table i of ``table``, whose
    buckets keep the first ``max_probe`` = 3L members, all a query probes.
    The draws fix everything else: bucket width w = 4r, L and the table,
    which the constructor builds a leaf's tables at a time, holding one
    leaf's keys (one int64 array, hashed in its product's buffer) and, of
    the tables split so far, only what the table stores.
    """

    ids: np.ndarray
    vectors: np.ndarray
    r: float
    projections: np.ndarray  # (T, k, d)
    offsets: np.ndarray      # (T, k)
    leaves: int
    w: float = field(init=False)
    leaf_tables: int = field(init=False)  # L
    max_probe: int = field(init=False)
    table: _BucketTable = field(init=False, repr=False)

    def __post_init__(self):
        self.w = BUCKET_WIDTH_FACTOR * self.r
        self.leaf_tables = len(self.projections) // self.leaves
        self.max_probe = 3 * self.leaf_tables
        self.table = _bucket_table(self._leaf_tables, self.projections.shape[1], self.max_probe)

    def _leaf_tables(self, multipliers):
        """Each table's fingerprints under multipliers and keys, a leaf at a
        time; a leaf's keys are dropped before the next leaf's are hashed."""
        big_l = self.leaf_tables
        for a in range(0, len(self.projections), big_l):
            keys = _l2_keys(self.projections[a:a + big_l], self.offsets[a:a + big_l],
                            self.w, self.vectors)
            for t, table_keys in enumerate(keys, a):
                yield _fingerprints(multipliers, t, table_keys), table_keys.T
            del keys, table_keys


@dataclass
class L2Scan:
    """The l2 leaves over a point set small enough to scan (``scan_fits``,
    which alone reads their count), answered by one exact scan
    (``query_l2_scan``): no draws and no table, only the points' mean and
    each point's squared distance to it, which keep the pick as fine as the
    set's spread when the set lies far from the origin."""

    ids: np.ndarray
    vectors: np.ndarray
    r: float
    center: np.ndarray = field(init=False, repr=False)
    sq_norms: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not math.isfinite(2.0 * self.r):
            raise NumericRangeError(f"l2 leaf radius 2r overflows for radius {self.r}")
        with np.errstate(over="ignore", invalid="ignore"):
            self.center = self.vectors.mean(axis=0)
            centered = self.vectors - self.center
            self.sq_norms = np.einsum("ij,ij->i", centered, centered)


def query_l2_scan(scan: L2Scan, q):
    """(id, l2 distance) of the set's nearest row to q, the answer of every
    leaf it stands for, if it lies within 2r; else None. The row is the one
    least in |x - c|^2 - 2 x.(q - c), c the set's mean, which is |x - q|^2
    less a constant, from one matrix-vector product (ties to the lowest
    row; an exact l2 scan picks where that overflows), and re-measured."""
    return _query_scan(scan, check_query(q, scan.vectors.shape[1]))


def _query_scan(scan: L2Scan, q: np.ndarray):
    """``query_l2_scan`` for a checked query: a float64 vector of the set's
    dimension with finite coordinates."""
    with np.errstate(over="ignore", invalid="ignore"):
        score = scan.sq_norms - 2.0 * (scan.vectors @ (q - scan.center))
    if not np.isfinite(score).all():
        score = _kernels.dists_to_point(scan.vectors, q, 2.0)
    row = int(score.argmin())
    dist = float(_kernels.dists_to_point(scan.vectors[row:row + 1], q, 2.0)[0])
    return (int(scan.ids[row]), dist) if dist <= 2.0 * scan.r else None


def query_l2_ann(group: L2Group, q, live=None):
    """Each leaf's answer, as (found, ids, dists) arrays over the leaves:
    the id and l2 distance of its first scanned candidate within 2r of q,
    probing at most max_probe candidates per table, where found; not found
    for a leaf without one or left out by ``live``, a boolean mask over
    leaves (all by default). None if no leaf has one.

    The tables are hashed and looked up in two passes: first the first
    table of every live leaf, then all remaining tables of the leaves
    still without a candidate. A pass makes one matrix product
    (``_l2_keys``), one ``_lookup``, and one distance call over the
    distinct members of all its matched buckets; each leaf then keeps its
    first member within 2r, in table order and then member order. No table
    of a left-out leaf is hashed and no bucket of one is measured, and a
    leaf that hits in its first table has no other table hashed. Within a
    pass, a leaf's buckets after its first candidate are measured too, at
    most 3L rows a matched table.
    """
    return _query_l2(group, check_query(q, group.vectors.shape[1]), live)


def _query_l2(group: L2Group, q: np.ndarray, live=None):
    """``query_l2_ann`` for a checked query (see ``_query_scan``)."""
    members, m, big_l = group.table.members, len(group.vectors), group.leaf_tables
    hit_row = np.zeros(group.leaves, dtype=np.intp)
    hit_dist = np.full(group.leaves, np.inf)
    pending = _live_mask(live, group.leaves)  # leaves that hit leave it
    for a, b in ((0, 1), (1, big_l)):  # each live leaf's first table, then the rest
        tables = (pending.nonzero()[0][:, None] * big_l + np.arange(a, b)).reshape(-1)
        if not tables.size:
            break
        keys = _l2_keys(group.projections[tables], group.offsets[tables], group.w, q[None])
        found, buckets = _lookup(group.table, tables, keys[:, 0])
        if not found.size:
            continue
        lo, size = group.table.spans(buckets)
        cand = members[np.arange(size.sum()) + np.repeat(lo - (np.cumsum(size) - size), size)]
        rows, inv = _distinct(cand, m)  # leaves share candidates
        dists = _kernels.dists_to_point(group.vectors[rows], q, 2.0)[inv]
        ok = (dists <= 2.0 * group.r).nonzero()[0]
        if not ok.size:
            continue
        leaf = np.repeat(tables[found] // big_l, size)[ok]  # ascends: tables are in leaf order
        first = _run_starts(leaf)
        won, ok = leaf[first], ok[first]
        hit_row[won], hit_dist[won], pending[won] = cand[ok], dists[ok], False
    hit = hit_dist < np.inf
    return (hit, group.ids[hit_row], hit_dist) if hit.any() else None


def coarse_approximation(d: int, p: float) -> float:
    return 4.0 * d ** (1.0 + 1.0 / p)


def grid_cell_side(d: int, r: float) -> float:
    return 4.0 * d * r


def build_coarse_ann(ids, vectors, p: float, r: float, seeds) -> CoarseGroup:
    """Shifted-grid schemes with approximation c0 = 4 d^(1+1/p), in one
    group: ``seeds`` holds one list per copy, one seed per grid scheme.

    Each scheme is G = ceil(8 ln n) grids of cell side 4 d r; each occupied
    cell stores its lowest-id point as representative.
    """
    ids, vectors = _check_inputs("build_coarse_ann", ids, vectors, r)
    if p < 2.0:
        raise UsageError(f"coarse scheme requires p >= 2, got {p}")
    if not (_is_seed_list(seeds) and all(map(_is_seed_list, seeds))
            and len(set(map(len, seeds))) == 1):
        raise UsageError("build_coarse_ann needs a non-empty list of copies, each a "
                         "non-empty list of seeds, one per grid scheme, as many in each")

    n, d = vectors.shape
    side = grid_cell_side(d, r)
    if not math.isfinite(side):
        raise NumericRangeError(f"grid cell side 4 d r overflows for d = {d}, radius {r}")
    grids = max(1, math.ceil(8.0 * math.log(max(n, 2))))
    schemes = [seed for copy in seeds for seed in copy]
    shifts = np.empty((len(schemes) * grids, d))
    for i, seed in enumerate(schemes):
        rng = np.random.default_rng(seed)
        shifts[i * grids:(i + 1) * grids] = rng.uniform(0.0, side, size=(grids, d))
    return CoarseGroup(ids, vectors, float(p), float(r), shifts, grids, len(seeds))


@dataclass
class _GridBox:
    """The points' bounding box as each grid of a group sees it, derived
    with the table, under its multipliers, and never saved.

    ``_cells`` is monotone in each coordinate, so where a grid's cells of
    the box's two corners agree, every point has that cell: the coordinate
    is fixed in that grid; else it varies. Grid g's varying pairs are
    ``ptr[g]:ptr[g + 1]`` of ``coords``, ``shifts`` and ``mults`` (their
    multipliers), and ``fixed[g]`` is its fingerprint term of the fixed
    cells and the grid number, so ``fixed[g]`` plus a point's varying cells
    times their multipliers is its full key's fingerprint, bit for bit
    (``_fingerprints``). No (grids, d) array is kept."""

    low: np.ndarray     # (d,) the points' least coordinates
    high: np.ndarray    # (d,) and greatest
    ptr: np.ndarray     # (T + 1,) int64
    coords: np.ndarray  # (P,) intp
    shifts: np.ndarray  # (P,) float64
    mults: np.ndarray   # (P,) uint64
    fixed: np.ndarray   # (T,) uint64


def _grid_box(vectors: np.ndarray, shifts: np.ndarray, side: float, multipliers) -> _GridBox:
    """The ``_GridBox`` of the points under ``multipliers``, from one pass
    computing both corners' cells in ``BOX_GRIDS`` grids a call."""
    low, high = vectors.min(axis=0), vectors.max(axis=0)
    grids, d = shifts.shape
    corners = np.stack([low, high])[:, None]
    fixed, coords, counts = [], [], []
    for a in range(0, grids, BOX_GRIDS):
        lo, hi = _cells(corners, shifts[a:a + BOX_GRIDS], side)
        varying = lo != hi
        lo[varying] = 0
        fixed.append(lo.view(np.uint64) @ multipliers[:-1])
        coords.append(varying.nonzero()[1])
        counts.append(varying.sum(axis=1))
    fixed = np.concatenate(fixed)
    fixed += np.arange(grids, dtype=np.uint64) * multipliers[-1]
    counts, coords = np.concatenate(counts), np.concatenate(coords)
    ptr = np.zeros(grids + 1, dtype=np.int64)
    np.cumsum(counts, out=ptr[1:])
    owner = np.repeat(np.arange(grids), counts)
    return _GridBox(low, high, ptr, coords, shifts[owner, coords], multipliers[coords], fixed)


@dataclass
class CoarseGroup:
    """The grid schemes of node copies over one point array, for one norm
    and radius, looked up together. Grid i (``shifts[i]``) of T belongs to
    scheme i // ``grids`` and to copy i // (T / ``copies``), and is table i
    of ``table``, which keeps one member per occupied cell, its lowest
    local index, and no cell: ``query_coarse_ann`` recomputes it with
    ``_cells``. The draws fix everything else: cell side 4 d r,
    approximation c0 = 4 d^(1+1/p), the table and ``box`` (``_GridBox``),
    which the constructor builds together (``_grid_tables``), holding one
    block of cells at a time and, of the grids split so far, only their
    cells' fingerprints and representatives."""

    ids: np.ndarray
    vectors: np.ndarray
    p: float
    r: float
    shifts: np.ndarray  # (T, d)
    grids: int
    copies: int
    c0: float = field(init=False)
    cell_side: float = field(init=False)
    table: _BucketTable = field(init=False, repr=False)
    box: _GridBox = field(init=False, repr=False)

    def __post_init__(self):
        d = self.vectors.shape[1]
        self.c0 = coarse_approximation(d, self.p)
        self.cell_side = grid_cell_side(d, self.r)
        self.table = _bucket_table(self._grid_tables, d, 1, keep_keys=False)

    def _grid_tables(self, multipliers):
        """For a ``_bucket_table`` pass under multipliers: ``box`` under them,
        then each grid's fingerprints, its fixed term plus one product of its
        cells at its varying pairs with their multipliers, and those cells, a
        (pairs, m) slice of a block of at most ``GRID_BLOCK`` cells (or one
        grid) from one ``_cells`` call."""
        vectors, side = self.vectors, self.cell_side
        self.box = box = _grid_box(vectors, self.shifts, side, multipliers)
        per, grids = max(1, GRID_BLOCK // len(vectors)), len(box.fixed)
        g = 0
        while g < grids:
            end = box.ptr.searchsorted(box.ptr[g] + per, side="right") - 1
            end = max(g + 1, min(end, grids))
            a = box.ptr[g]
            cells = _cells(vectors[:, box.coords[a:box.ptr[end]]].T,
                           box.shifts[a:box.ptr[end], None], side).view(np.uint64)
            for t in range(g, end):
                keys = cells[box.ptr[t] - a:box.ptr[t + 1] - a]
                fp = box.mults[box.ptr[t]:box.ptr[t + 1]] @ keys
                fp += box.fixed[t]
                yield fp, keys
            g = end


def query_coarse_ann(group: CoarseGroup, q, live=None):
    """Each copy's start, as (found, ids, dists) arrays over the copies:
    the id and lp distance of the first scheme of the copy whose lp-closest
    cell representative across its grids, re-checked against c0*r (ties to
    the lowest row), is nearest to q, where found; not found for a copy
    without one or left out by ``live``, a boolean mask over copies (all by
    default). None if no copy has one. Every distinct representative of a
    live copy's matched cells is measured with one distance call.
    """
    return _query_coarse(group, check_query(q, group.vectors.shape[1]), live)


def _inside(group: CoarseGroup, q: np.ndarray, out: np.ndarray, grids: np.ndarray) -> np.ndarray:
    """Whether q's cells in each grid of ``grids`` are the nearest box
    corner's in every coordinate of ``out``, where q leaves the box. Where
    one is not, it lies past every point's cell there (``_cells`` is
    monotone), so the grid cannot match."""
    ends = np.empty((2, out.size))
    ends[0] = q[out]
    np.clip(ends[0], group.box.low[out], group.box.high[out], out=ends[1])
    inside = np.empty(grids.size, dtype=bool)
    step = max(1, GRID_BLOCK // (2 * out.size))
    for a in range(0, grids.size, step):
        cells = _cells(ends, group.shifts[grids[a:a + step, None], out][:, None], group.cell_side)
        inside[a:a + step] = (cells[:, 0] == cells[:, 1]).all(axis=1)
    return inside


def _query_coarse(group: CoarseGroup, q: np.ndarray, live=None):
    """``query_coarse_ann`` for a checked query (see ``_query_scan``).

    Inside the box in a fixed coordinate, q's cell is the box's there. So a
    grid's fingerprint is its fixed term plus q's varying cells times their
    multipliers, summed as differences of one uint64 cumulative sum: mod
    2**64 the order of a sum changes no bit, so it is q's full key's in
    every grid where q's cells are the box's where q leaves it
    (``_inside``), and no other grid can match. Every distinct
    representative of the matched grids is measured with one distance call.

    Each copy answers with its match least in (distance, scheme, row,
    grid), by argmin over (copies, grids per copy) of one rank per grid,
    once the representative's cell, recomputed with q's in one ``_cells``
    call for all copies, is q's; else with its next. Where q leaves the
    box, the first failed pick drops every pending grid that q leaves, with
    one ``_inside`` call; a later failure is a fingerprint collision.
    """
    box, shifts, side, m = group.box, group.shifts, group.cell_side, len(group.vectors)
    copy_grids = len(shifts) // group.copies
    terms = np.zeros(box.coords.size + 1, dtype=np.uint64)
    np.cumsum(_cells(q[box.coords], box.shifts, side).view(np.uint64) * box.mults, out=terms[1:])
    fp = box.fixed + terms[box.ptr[1:]] - terms[box.ptr[:-1]]
    on = np.repeat(_live_mask(live, group.copies), copy_grids).nonzero()[0]
    found, buckets = _find(group.table, on, fp[on])  # fingerprint matches
    on = on[found]
    if not on.size:
        return None
    # a cell's representative is its lowest local index, its one member
    cand, inv = _distinct(group.table.members[buckets[found]], m)
    dists = _kernels.dists_to_point(group.vectors[cand], q, group.p)
    ok = (dists[inv] <= group.c0 * group.r).nonzero()[0]
    grid, c = on[ok], inv[ok]
    rank = np.full(len(shifts), NO_RANK, dtype=np.int64)
    rank[grid] = (np.sort(dists).searchsorted(dists)[c] * (copy_grids // group.grids)
                  + grid % copy_grids // group.grids) * cand.size + c
    out = ((q < box.low) | (q > box.high)).nonzero()[0]
    flat, rank = rank, rank.reshape(group.copies, copy_grids)
    answered = np.zeros(group.copies, dtype=bool)
    ids, start_dists = np.zeros(group.copies, dtype=np.int64), np.zeros(group.copies)
    while (todo := (rank.min(axis=1) < NO_RANK).nonzero()[0]).size:
        picks = todo * copy_grids + rank[todo].argmin(axis=1)
        c = flat[picks] % cand.size
        # q's cells and the representative's in each picked grid; ``_cells``
        # is elementwise, so a point's cell is the same bit for bit in any batch
        points = np.empty((2, todo.size, q.size))
        points[0], points[1] = q, group.vectors[cand[c]]
        cells = _cells(points, shifts[picks], side)
        sure = (cells[0] == cells[1]).all(axis=1)
        won = todo[sure]
        answered[won], ids[won], start_dists[won] = True, group.ids[cand[c[sure]]], dists[c[sure]]
        rank[won] = NO_RANK
        flat[picks[~sure]] = NO_RANK
        if out.size and not sure.all():  # drop every pending grid q leaves, at once
            pending = grid[flat[grid] < NO_RANK]
            flat[pending[~_inside(group, q, out, pending)]] = NO_RANK
            out = out[:0]
    return (answered, ids, start_dists) if answered.any() else None
