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
one seed's after another, and the scalars derived from them. A builder
draws each seed's arrays straight into the group's, and the group builds
its buckets and cells from them, a table at a time (an l2 leaf's points
hashed with one matrix product, a grid's cells computed per point only in
the coordinates where a cell boundary cuts the points' bounding box), into
one flat table, never saved, that keeps only what a query reads: a sorted
column of 64-bit fingerprints of (table, key), all under one salt's
multipliers, the E2LSH layout of Datar, Immorlica, Indyk and Mirrokni
(SoCG 2004), and per bucket, numbered in fingerprint order, its table
number and CSR members. An l2 bucket keeps its full int64 key and its first
``max_probe`` members; a grid cell keeps one member, its representative,
and no key, for the cell is recomputed from the representative. A grid
query hashes every grid of the group at once, finds its cell in every grid
with one ``searchsorted`` over the fingerprints, whose positions are the
buckets, confirms only the matches it answers with on the full cell, and
measures the distinct representatives, found by a scatter over the group's
points, with one distance call. An l2 query walks the tables in order and
stops early, as E2LSH's does, in two passes: it hashes the first table of
every leaf with one matrix product and looks those keys up with one
search, and then, with one more product and search, all remaining tables
of the leaves still without a candidate within 2r. Each pass confirms its
matches on the full key and measures its buckets in rounds, one distance
call a round. A query answers per copy of the group: an l2 copy is one
leaf, a grid copy a contiguous block of grid schemes. Its answer is three
arrays over the copies, a found mask, ids and distances, or None if no copy
answers. A mask leaves copies out: their cells are never measured, and
their l2 tables are neither hashed nor measured. A lone scheme is a group
of one copy. A scanned l2 set answers once per query, not per copy.
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


def _rng(seed) -> np.random.Generator:
    return np.random.default_rng(seed)


def _to_cell_index(values: np.ndarray) -> np.ndarray:
    """Floor to int64, clipping astronomically scaled inputs into +-9.2e18;
    the float array values is overwritten on the way. The clip runs only
    when the floored values' minimum or maximum lies outside that range (or
    is NaN, or values is empty), for it leaves in-range values as they are.

    Clipping can only merge cells of points that distance re-checking would
    reject anyway, so answers stay within their bounds.
    """
    np.floor(values, out=values)
    if not (values.size and -9.2e18 <= values.min() and values.max() <= 9.2e18):
        np.clip(values, -9.2e18, 9.2e18, out=values)
    return values.astype(np.int64)


def _cells(points: np.ndarray, shifts: np.ndarray, side: float) -> np.ndarray:
    """Grid cells of points + shifts (broadcast) for cells of the given side,
    through one float buffer. Cells past the float range overflow to inf,
    which ``_to_cell_index`` clips like any far cell."""
    with np.errstate(over="ignore"):
        buf = points + shifts
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
    indices of its points, ascending, at most its table's cap:
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
    return _rng(salt).integers(0, 2**64, size=width + 1, dtype=np.uint64)


def _fingerprints(multipliers, tables, keys: np.ndarray, box=None) -> np.ndarray:
    """The uint64 fingerprint of each (tables[i], keys[i]): a linear form in
    the key's ints and the table number, wrapping mod 2**64. Under uniform
    multipliers two distinct pairs share a fingerprint with probability at
    most 2**(v - 64), where bit v is the lowest bit in which they differ.

    With ``box = (cols, row)``, keys holds only columns cols of the keys,
    and every key's other columns are row's (row is zero at cols): their
    term, one scalar, is added like the table number's. The form is linear
    mod 2**64, so the fingerprints are the full keys' bit for bit."""
    if box is None:
        out = keys.view(np.uint64) @ multipliers[:-1]
    else:
        cols, row = box
        out = keys.view(np.uint64) @ multipliers[cols]
        out += row.view(np.uint64) @ multipliers[:-1]
    out += np.asarray(tables, dtype=np.uint64) * multipliers[-1]
    return out


def _split(multipliers, t: int, keys: np.ndarray, box=None):
    """(order, first, fingerprints) grouping the rows of table t's keys by
    fingerprint: order sorts them stably, and run j of equal fingerprints
    begins at order[first[j]] and has fingerprints[j]; None if a run holds
    two different keys. keys and box are as in ``_fingerprints``.

    The table number enters the fingerprints as one scalar term. The run
    check gathers the keys once in sorted order and compares each row with
    the one before it wherever no run begins, in keys' columns only (under
    a box every key agrees in the others); when one run spans the table
    (most tables of an l2 leaf), order is the identity and the keys are
    already in sorted order.
    """
    fp = _fingerprints(multipliers, t, keys, box)
    order = fp.argsort(kind="stable")
    fp = fp[order]
    new = _run_starts(fp)
    first = new.nonzero()[0]
    ranked = keys if first.size == 1 else keys.take(order, axis=0)
    if ((ranked[1:] != ranked[:-1]) & ~new[1:, None]).any():
        return None
    return order, first, fp[first]


def _bucket_table(tables: Callable, keep_keys: bool = True) -> _BucketTable:
    """Group the points of each table into buckets by key, a table at a time.

    ``tables()`` yields one (keys, cap, box) triple per table, numbered in
    order: the points' int keys, an (m, k) array, the most members a bucket
    of the table keeps, and None, or, where keys holds only some columns of
    width-k keys, the box that gives the others (see ``_fingerprints``).
    Each table is split on its own by ``_split`` and leaves only its runs,
    members and fingerprints, and its buckets' keys if ``keep_keys`` (which
    takes whole keys); a table's keys are dropped before the next table's
    are made. Sorting all fingerprints and capping the members run once at
    the end.

    A pass fingerprints every table under one salt's multipliers, from salt
    0 on. A fingerprint run holding two keys, or two buckets sharing a
    fingerprint, makes the salt bad for the whole table: the next salt
    starts a new pass over ``tables()``. So the table is the one under the
    smallest salt that gives every (table, key) its own fingerprint, and a
    rebuild gives the same table. Each salt separates two given distinct
    (table, key) pairs with probability at least 1/2, so the passes end.
    """
    for salt in itertools.count():
        multipliers, base = None, 0
        keys, runs, members, caps, fps = [], [], [], [], []
        for table_keys, cap, box in tables():
            if multipliers is None:
                multipliers = _multipliers(salt, (table_keys if box is None else box[1]).shape[-1])
            split = _split(multipliers, len(fps), table_keys, box)
            if split is None:
                del table_keys  # before the next pass makes any
                break
            order, first, fp = split
            if keep_keys:
                keys.append(table_keys[order[first]])
            del table_keys  # before the next table's keys are made
            runs.append(first + base)
            members.append(order.astype(np.int32))
            base += order.size
            caps.append(cap)
            fps.append(fp)
        else:
            fp = np.concatenate(fps)
            order = fp.argsort()
            fp = fp[order]
            if not (fp[1:] == fp[:-1]).any():
                break
    # number the buckets in fingerprint order, each keeping its first
    # members, at most its table's cap; the per-table parts are joined or
    # dropped before the members are gathered (the build's peak memory)
    counts = [f.size for f in fps]
    first, members = np.concatenate(runs), np.concatenate(members)
    del fps, runs
    kept = np.minimum(np.diff(first, append=base), np.repeat(caps, counts))[order]
    first = first[order]
    ends = np.cumsum(kept)
    members = members[np.arange(ends[-1]) + np.repeat(first - (ends - kept), kept)]
    starts = None if ends[-1] == ends.size else np.concatenate([[0], ends])
    table_of = np.repeat(np.arange(len(counts), dtype=np.int32), counts)[order]
    keys = np.concatenate(keys)[order] if keep_keys else None
    return _BucketTable(fp, table_of, starts, members, multipliers, keys)


def _lookup(table: _BucketTable, tables: np.ndarray, keys: np.ndarray):
    """(i, bucket) for every keys[i] found in stacked table tables[i], in
    order of i, from one search over the fingerprint column: the position
    it finds, clipped to the last bucket, is the bucket. A match counts
    only if its bucket's table number is tables[i] and its key is keys[i]
    (and then so is its fingerprint). A table without keys matches on the
    fingerprint and leaves the key to the caller (``query_coarse_ann``
    recomputes it for the matches it would answer with)."""
    fp = _fingerprints(table.multipliers, tables, keys)
    bucket = np.minimum(table.fingerprints.searchsorted(fp), table.fingerprints.size - 1)
    found = table.tables[bucket] == tables
    if table.keys is None:
        found &= table.fingerprints[bucket] == fp
    else:
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


def _l2_keys(projections, offsets, w: float, vecs: np.ndarray) -> np.ndarray:
    """Bucket keys for each (table, vector): int array (L, m, k), from one
    matrix product of the vectors with all L k projections. The offsets,
    the division by w, the floor and the cast run on the contiguous (m, L k)
    product, and only the result is viewed as (L, m, k): every step is
    elementwise, so the order changes no bit. Build, load and query all
    hash through it, so a point and a query at the point agree. Keys past
    the float range (a tiny w) overflow to inf and are clipped like any far
    key by ``_to_cell_index``."""
    big_l, k, d = projections.shape
    proj = vecs @ projections.reshape(big_l * k, d).T
    with np.errstate(over="ignore"):
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
        rng, part = _rng(seed), slice(i * big_l, (i + 1) * big_l)
        projections[part] = rng.standard_normal((big_l, k, d))
        offsets[part] = rng.uniform(0.0, BUCKET_WIDTH_FACTOR * r, size=(big_l, k))
    return L2Group(ids, vectors, float(r), projections, offsets,
                   np.repeat(np.arange(len(seeds)), big_l))


@dataclass
class L2Group:
    """l2 leaves over one point array and radius, looked up together.

    Table i (``projections[i]``, ``offsets[i]``) belongs to leaf
    ``leaf_of[i]``, ascending, is that leaf's first table where
    ``first[i]``, and is table i of ``table``, whose buckets keep the first
    ``max_probe[i]`` members, 3L for a leaf of L tables, all a query probes.
    The draws fix everything else: bucket width w = 4r, the leaf count and
    the table, which the constructor builds.
    """

    ids: np.ndarray
    vectors: np.ndarray
    r: float
    projections: np.ndarray  # (T, k, d)
    offsets: np.ndarray      # (T, k)
    leaf_of: np.ndarray      # (T,)
    w: float = field(init=False)
    first: np.ndarray = field(init=False)      # (T,) bool
    max_probe: np.ndarray = field(init=False)  # (T,)
    leaves: int = field(init=False)
    table: _BucketTable = field(init=False, repr=False)

    def __post_init__(self):
        self.w = BUCKET_WIDTH_FACTOR * self.r
        self.first = _run_starts(self.leaf_of)
        counts = np.bincount(self.leaf_of)
        self.leaves = counts.size
        self.max_probe = 3 * counts[self.leaf_of]
        bounds = [*self.first.nonzero()[0].tolist(), self.leaf_of.size]
        self.table = _bucket_table(lambda: (
            (keys, int(self.max_probe[a]), None) for a, b in zip(bounds, bounds[1:])
            for keys in _l2_keys(self.projections[a:b], self.offsets[a:b], self.w, self.vectors)
        ))


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
    q = check_query(q, scan.vectors.shape[1])
    with np.errstate(over="ignore", invalid="ignore"):
        score = scan.sq_norms - 2.0 * (scan.vectors @ (q - scan.center))
    if not np.isfinite(score).all():
        score = _kernels.dists_to_point(scan.vectors, q, 2.0)
    row = int(score.argmin())
    dist = float(_kernels.dists_to_point(scan.vectors[row:row + 1], q, 2.0)[0])
    return (int(scan.ids[row]), dist) if dist <= 2.0 * scan.r else None


def _query_keys(group: L2Group, tables: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The query's key in each of the stacked tables, an (len(tables), k)
    array, from one matrix product with their projections only."""
    return _l2_keys(group.projections[tables], group.offsets[tables], group.w,
                    q.reshape(1, -1))[:, 0, :]


def query_l2_ann(group: L2Group, q, live=None):
    """Each leaf's answer, as (found, ids, dists) arrays over the leaves:
    the id and l2 distance of its first scanned candidate within 2r of q,
    probing at most max_probe candidates per table, where found; not found
    for a leaf without one or left out by ``live``, a boolean mask over
    leaves (all by default). None if no leaf has one.

    The tables are hashed and looked up in two passes: first the first
    table of every live leaf, then all remaining tables of the leaves
    still without a candidate, each pass with one matrix product
    (``_query_keys``) and one ``_lookup``. A pass measures its matched
    buckets in rounds: round j measures the distinct members of the j-th
    matched bucket of every leaf still without a candidate, with one
    distance call. So each leaf tries its matched buckets in table order
    and keeps its first member within 2r, and no table of a left-out leaf
    is hashed, and no bucket of one, or past a leaf's first candidate, is
    measured.
    """
    q = check_query(q, group.vectors.shape[1])
    members, m = group.table.members, len(group.vectors)
    hit_row = np.zeros(group.leaves, dtype=np.intp)
    hit_dist = np.full(group.leaves, np.inf)
    pending = np.ones(group.leaves, dtype=bool)
    if live is not None:
        pending = np.array(live, dtype=bool)  # a copy: leaves that hit leave it
    hit = False
    for first_pass in (True, False):
        tables = ((group.first == first_pass) & pending[group.leaf_of]).nonzero()[0]
        if not tables.size:
            break
        found, buckets = _lookup(group.table, tables, _query_keys(group, tables, q))
        leaf = group.leaf_of[tables[found]]  # ascends: stacked tables are in leaf order
        rank = np.arange(found.size) - leaf.searchsorted(leaf)
        for j in range(rank.max() + 1 if found.size else 0):
            sel = ((rank == j) & pending[leaf]).nonzero()[0]
            if not sel.size:
                break
            lo, size = group.table.spans(buckets[sel])
            cand = members[np.arange(size.sum()) + np.repeat(lo - (np.cumsum(size) - size), size)]
            rows, inv = _distinct(cand, m)  # leaves share candidates
            dists = _kernels.dists_to_point(group.vectors[rows], q, 2.0)[inv]
            ok = (dists <= 2.0 * group.r).nonzero()[0]
            if not ok.size:
                continue
            hit = True
            owner = np.repeat(sel, size)
            first = ok[_run_starts(owner[ok])]  # ok ascends
            won = leaf[owner[first]]
            hit_row[won], hit_dist[won], pending[won] = cand[first], dists[first], False
    return (hit_dist < np.inf, group.ids[hit_row], hit_dist) if hit else None


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
    if not (_is_seed_list(seeds) and all(map(_is_seed_list, seeds))):
        raise UsageError("build_coarse_ann needs a non-empty list of copies, each a "
                         "non-empty list of seeds, one per grid scheme")

    n, d = vectors.shape
    side = grid_cell_side(d, r)
    if not math.isfinite(side):
        raise NumericRangeError(f"grid cell side 4 d r overflows for d = {d}, radius {r}")
    grids = max(1, math.ceil(8.0 * math.log(max(n, 2))))
    schemes = [seed for copy in seeds for seed in copy]
    shifts = np.empty((len(schemes) * grids, d))
    for i, seed in enumerate(schemes):
        shifts[i * grids:(i + 1) * grids] = _rng(seed).uniform(0.0, side, size=(grids, d))
    return CoarseGroup(ids, vectors, float(p), float(r), shifts,
                       np.repeat(np.arange(len(schemes)), grids),
                       np.repeat(np.arange(len(seeds)), [len(copy) for copy in seeds]))


def _grid_tables(vectors: np.ndarray, shifts: np.ndarray, side: float):
    """Each grid's cells for ``_bucket_table``, a grid at a time, computed
    only in the coordinates where a cell boundary cuts the points' bounding
    box. ``_cells`` is monotone in each coordinate, so where the box's two
    corners share a cell every point has it too: that coordinate's cell
    enters the key as the box's fixed row, and only the other ("varying")
    coordinates are computed per point."""
    box = np.stack([vectors.min(axis=0), vectors.max(axis=0)])
    for shift in shifts:
        low, high = _cells(box, shift, side)
        cols = (low != high).nonzero()[0]
        low[cols] = 0
        yield _cells(vectors[:, cols], shift[cols], side), 1, (cols, low)


@dataclass
class CoarseGroup:
    """The grid schemes of node copies over one point array, for one norm
    and radius, looked up together. Grid i (``shifts[i]``) belongs to
    scheme ``scheme_of[i]``, which belongs to copy ``copy_of[scheme]``, both
    ascending, and is table i of ``table``, which keeps one member per
    occupied cell, its lowest local index, and no cell: ``query_coarse_ann``
    recomputes it with ``_cells``. The draws fix everything else: cell side
    4 d r, approximation c0 = 4 d^(1+1/p), the copy count and the table,
    which the constructor builds from the cells of each grid's varying
    coordinates only (``_grid_tables``), the table of the full cells, bit
    for bit."""

    ids: np.ndarray
    vectors: np.ndarray
    p: float
    r: float
    shifts: np.ndarray     # (T, d)
    scheme_of: np.ndarray  # (T,)
    copy_of: np.ndarray    # (S,)
    c0: float = field(init=False)
    cell_side: float = field(init=False)
    copies: int = field(init=False)
    table: _BucketTable = field(init=False, repr=False)

    def __post_init__(self):
        d = self.vectors.shape[1]
        self.c0 = coarse_approximation(d, self.p)
        self.cell_side = grid_cell_side(d, self.r)
        self.copies = int(self.copy_of.max()) + 1
        self.table = _bucket_table(lambda: _grid_tables(self.vectors, self.shifts, self.cell_side),
                                   keep_keys=False)


def query_coarse_ann(group: CoarseGroup, q, live=None):
    """Each copy's start, as (found, ids, dists) arrays over the copies:
    the id and lp distance of the first scheme of the copy whose lp-closest
    cell representative across its grids, re-checked against c0*r (ties to
    the lowest row), is nearest to q, where found; not found for a copy
    without one or left out by ``live``, a boolean mask over copies (all by
    default). None if no copy has one. Every distinct representative of a
    live copy's cells is measured with one distance call.
    """
    q = check_query(q, group.vectors.shape[1])
    cells = _cells(q, group.shifts, group.cell_side)
    # fingerprint matches, cells unconfirmed
    found, buckets = _lookup(group.table, np.arange(len(cells)), cells)
    if live is not None:
        keep = np.asarray(live, dtype=bool)[group.copy_of[group.scheme_of[found]]]
        found, buckets = found[keep], buckets[keep]
    if not found.size:
        return None
    # a cell's representative is its lowest local index, its one member
    reps = group.table.members[buckets]
    cand, inv = _distinct(reps, len(group.vectors))
    dists = _kernels.dists_to_point(group.vectors[cand], q, group.p)[inv]
    ok = (dists <= group.c0 * group.r).nonzero()[0]
    grids, reps, dists = found[ok], reps[ok], dists[ok]
    which = group.scheme_of[grids]
    copy = group.copy_of[which]
    # per copy: least distance, then first scheme, then lowest row; a match
    # counts once its representative's recomputed cell is the query's, so
    # only each copy's best match still untried is recomputed (``_cells`` is
    # elementwise, so a point's cell is the same bit for bit in any batch)
    order = np.lexsort((reps, which, dists, copy))
    answered, tried = np.zeros(group.copies, dtype=bool), np.zeros(reps.size, dtype=bool)
    ids, start_dists = np.zeros(group.copies, dtype=np.int64), np.zeros(group.copies)
    while order.size:
        best = order[_run_starts(copy[order])]
        rep_cells = _cells(group.vectors[reps[best]], group.shifts[grids[best]], group.cell_side)
        sure = best[(rep_cells == cells[grids[best]]).all(axis=1)]
        ids[copy[sure]], start_dists[copy[sure]] = group.ids[reps[sure]], dists[sure]
        answered[copy[sure]], tried[best] = True, True
        order = order[~(answered[copy[order]] | tried[order])]
    return (answered, ids, start_dists) if answered.any() else None
