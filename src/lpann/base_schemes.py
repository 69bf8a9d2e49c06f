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

A scheme holds only its draws and the scalars derived from them. Schemes
over one point array are looked up together as a group (``l2_group``,
``coarse_group``): their draws are stacked, and the group builds its buckets
and cells from them, a table at a time (an l2 leaf's points hashed with one
matrix product), into one flat table, never saved, that keeps only what a
query reads: a sorted column of 64-bit fingerprints of (table, key), all
under one salt's multipliers, the E2LSH layout of Datar, Immorlica, Indyk
and Mirrokni (SoCG 2004), and per bucket, numbered in fingerprint order,
its table number and CSR members. An l2 bucket keeps its full int64
key and its first ``max_probe`` members; a grid cell keeps one member, its
representative, and no key, for the cell is recomputed from the
representative. A grid query hashes every stacked grid at once, finds its
cell in every grid with one ``searchsorted`` over the fingerprints, whose
positions are the buckets, confirms only the matches it answers with on
the full cell, and measures the distinct representatives, found by a
scatter over the group's points, with one distance call. An l2 query walks the tables in order and stops
early, as E2LSH's does, in two passes: it hashes the first table of every
leaf with one matrix product and looks those keys up with one search, and
then, with one more product and search, all remaining tables of the
leaves still without a candidate within 2r. Each pass confirms its
matches on the full key and measures its buckets in rounds, one distance
call a round. A query answers per copy of the group: an l2 copy is one
leaf, a grid copy a contiguous block of schemes. Its answer is three
arrays over the copies, a found mask, ids and distances, or None if no
copy answers. A mask leaves copies out: their cells are never measured,
and their l2 tables are neither hashed nor measured. A lone scheme is
queried as a group of one.
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


def _fingerprints(multipliers, tables, keys: np.ndarray) -> np.ndarray:
    """The uint64 fingerprint of each (tables[i], keys[i]): a linear form in
    the key's ints and the table number, wrapping mod 2**64. Under uniform
    multipliers two distinct pairs share a fingerprint with probability at
    most 2**(v - 64), where bit v is the lowest bit in which they differ."""
    out = keys.view(np.uint64) @ multipliers[:-1]
    out += np.asarray(tables, dtype=np.uint64) * multipliers[-1]
    return out


def _split(multipliers, t: int, keys: np.ndarray):
    """(order, first, fingerprints) grouping the rows of table t's keys by
    fingerprint: order sorts them stably, and run j of equal fingerprints
    begins at order[first[j]] and has fingerprints[j]; None if a run holds
    two different keys.

    The table number enters the fingerprints as one scalar term. The run
    check gathers the keys once in sorted order and compares each row with
    the one before it wherever no run begins; when one run spans the table
    (most tables of an l2 leaf), order is the identity and the keys are
    already in sorted order.
    """
    fp = _fingerprints(multipliers, t, keys)
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

    ``tables()`` yields one (keys, cap) pair per table, numbered in order:
    the points' int keys, an (m, k) array, and the most members a bucket of
    the table keeps. Each table is split on its own by ``_split`` and leaves
    only its runs, members and fingerprints, and its buckets' keys if
    ``keep_keys``; a table's keys are dropped before the next table's are
    made. Sorting all fingerprints and capping the members run once at the
    end.

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
        for table_keys, cap in tables():
            if multipliers is None:
                multipliers = _multipliers(salt, table_keys.shape[1])
            split = _split(multipliers, len(fps), table_keys)
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
    found = np.flatnonzero(found)
    return found, bucket[found]


def _distinct(rows: np.ndarray, m: int):
    """``np.unique(rows, return_inverse=True)`` for indices below m, by a
    scatter over the m rows instead of a sort."""
    mark = np.zeros(m, dtype=bool)
    mark[rows] = True
    distinct = np.flatnonzero(mark)
    position = np.empty(m, dtype=np.intp)
    position[distinct] = np.arange(distinct.size)
    return distinct, position[rows]


def _stack(schemes: list, names: tuple) -> tuple[list, np.ndarray]:
    """Stack the draws of schemes, in scheme order.

    Each named draw array (tables along axis 0) is concatenated, and every
    scheme's array becomes a view of its part. Returns the stacked arrays
    and the scheme of each stacked table.
    """
    counts = [getattr(s, names[0]).shape[0] for s in schemes]
    firsts = np.cumsum(counts) - counts
    stacked = []
    for name in names:
        full = np.concatenate([getattr(s, name) for s in schemes])
        for s, first, count in zip(schemes, firsts, counts):
            setattr(s, name, full[first: first + count])
        stacked.append(full)
    return stacked, np.repeat(np.arange(len(schemes)), counts)


def _run_starts(a: np.ndarray) -> np.ndarray:
    """True where a run of equal values in the non-empty array a begins."""
    out = np.empty(a.size, dtype=bool)
    out[0] = True
    np.not_equal(a[1:], a[:-1], out=out[1:])
    return out


@dataclass
class L2Scheme:
    """The drawn projections and offsets fix everything else: bucket width
    w = 4r, at most 3L candidates probed per table, and the buckets, which
    its group builds (``l2_group``)."""

    ids: np.ndarray
    vectors: np.ndarray
    r: float
    projections: np.ndarray  # (L, k, d)
    offsets: np.ndarray      # (L, k)
    w: float = field(init=False)
    max_probe: int = field(init=False)

    def __post_init__(self):
        self.w = BUCKET_WIDTH_FACTOR * self.r
        self.max_probe = 3 * self.projections.shape[0]


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

    if not math.isfinite(BUCKET_WIDTH_FACTOR * r):
        raise NumericRangeError(f"bucket width 4r overflows for radius {r}")

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


@dataclass
class L2Group:
    """l2 leaves over one point array and radius, looked up together.

    Stacked table i (``projections[i]``, ``offsets[i]``) belongs to leaf
    ``leaf_of[i]``, is that leaf's first table where ``first[i]``, and is
    table i of ``table``, whose buckets keep the leaf's first ``max_probe``
    members, all a query probes.
    """

    leaves: list
    projections: np.ndarray  # (T, k, d)
    offsets: np.ndarray      # (T, k)
    leaf_of: np.ndarray
    first: np.ndarray        # (T,) bool
    table: _BucketTable = field(repr=False)


def l2_group(leaves: list) -> L2Group:
    """Group leaves built over one point array for one radius, in order,
    and build their one bucket table. A lone leaf is the group ``[leaf]``."""
    table = _bucket_table(lambda: (
        (keys, leaf.max_probe) for leaf in leaves
        for keys in _l2_keys(leaf.projections, leaf.offsets, leaf.w, leaf.vectors)
    ))
    (projections, offsets), leaf_of = _stack(leaves, ("projections", "offsets"))
    return L2Group(leaves, projections, offsets, leaf_of, _run_starts(leaf_of), table)


def _query_keys(group: L2Group, tables: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The query's key in each of the stacked tables, an (len(tables), k)
    array, from one matrix product with their projections only."""
    lead = group.leaves[0]
    return _l2_keys(group.projections[tables], group.offsets[tables], lead.w,
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
    lead = group.leaves[0]
    q = check_query(q, lead.vectors.shape[1])
    members, m = group.table.members, len(lead.vectors)
    hit_row = np.zeros(len(group.leaves), dtype=np.intp)
    hit_dist = np.full(len(group.leaves), np.inf)
    pending = np.ones(len(group.leaves), dtype=bool)
    if live is not None:
        pending = np.array(live, dtype=bool)  # a copy: leaves that hit leave it
    hit = False
    for first_pass in (True, False):
        tables = np.flatnonzero((group.first == first_pass) & pending[group.leaf_of])
        if not tables.size:
            break
        found, buckets = _lookup(group.table, tables, _query_keys(group, tables, q))
        leaf = group.leaf_of[tables[found]]  # ascends: stacked tables are in leaf order
        rank = np.arange(found.size) - leaf.searchsorted(leaf)
        for j in range(rank.max() + 1 if found.size else 0):
            sel = np.flatnonzero((rank == j) & pending[leaf])
            if not sel.size:
                break
            lo, size = group.table.spans(buckets[sel])
            cand = members[np.arange(size.sum()) + np.repeat(lo - (np.cumsum(size) - size), size)]
            rows, inv = _distinct(cand, m)  # leaves share candidates
            dists = _kernels.dists_to_point(lead.vectors[rows], q, 2.0)[inv]
            ok = np.flatnonzero(dists <= 2.0 * lead.r)
            if not ok.size:
                continue
            hit = True
            owner = np.repeat(sel, size)
            first = ok[_run_starts(owner[ok])]  # ok ascends
            won = leaf[owner[first]]
            hit_row[won], hit_dist[won], pending[won] = cand[first], dists[first], False
    return (hit_dist < np.inf, lead.ids[hit_row], hit_dist) if hit else None


@dataclass
class CoarseScheme:
    """The drawn shifts fix everything else: cell side 4 d r, approximation
    c0 = 4 d^(1+1/p), and the occupied cells, which its group builds
    (``coarse_group``)."""

    ids: np.ndarray
    vectors: np.ndarray
    p: float
    r: float
    shifts: np.ndarray  # (G, d)
    c0: float = field(init=False)
    cell_side: float = field(init=False)

    def __post_init__(self):
        d = self.vectors.shape[1]
        self.c0 = coarse_approximation(d, self.p)
        self.cell_side = grid_cell_side(d, self.r)


def coarse_approximation(d: int, p: float) -> float:
    return 4.0 * d ** (1.0 + 1.0 / p)


def grid_cell_side(d: int, r: float) -> float:
    return 4.0 * d * r


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
    if not math.isfinite(grid_cell_side(d, r)):
        raise NumericRangeError(f"grid cell side 4 d r overflows for d = {d}, radius {r}")
    grids = max(1, math.ceil(8.0 * math.log(max(n, 2))))
    shifts = _rng(seed).uniform(0.0, grid_cell_side(d, r), size=(grids, d))
    return CoarseScheme(
        ids=np.ascontiguousarray(ids, dtype=np.int64),
        vectors=vectors,
        p=float(p),
        r=float(r),
        shifts=shifts,
    )


@dataclass
class CoarseGroup:
    """The grid schemes of node copies over one point array, looked up
    together. Stacked grid i (``shifts[i]``) belongs to scheme
    ``scheme_of[i]`` of ``schemes`` and is table i of ``table``, which keeps
    one member per occupied cell, its lowest local index, and no cell:
    ``query_coarse_ann`` recomputes it with ``_cells``. Scheme s belongs to
    copy ``copy_of[s]`` of ``copies``."""

    schemes: list
    copy_of: np.ndarray
    copies: int
    shifts: np.ndarray  # (T, d)
    scheme_of: np.ndarray
    table: _BucketTable = field(repr=False)


def coarse_group(copies: list) -> CoarseGroup:
    """Group the grid schemes of each copy (a list of lists of schemes built
    over one point array for one norm and radius) and build their one cell
    table, a grid at a time. A lone scheme is the group ``[[scheme]]``."""
    schemes = [s for base in copies for s in base]
    (shifts,), scheme_of = _stack(schemes, ("shifts",))
    vectors, side = schemes[0].vectors, schemes[0].cell_side
    table = _bucket_table(lambda: ((_cells(vectors, shift, side), 1) for shift in shifts),
                          keep_keys=False)
    copy_of = np.repeat(np.arange(len(copies)), [len(base) for base in copies])
    return CoarseGroup(schemes, copy_of, len(copies), shifts, scheme_of, table)


def query_coarse_ann(group: CoarseGroup, q, live=None):
    """Each copy's start, as (found, ids, dists) arrays over the copies:
    the id and lp distance of the first scheme of the copy whose lp-closest
    cell representative across its grids, re-checked against c0*r (ties to
    the lowest row), is nearest to q, where found; not found for a copy
    without one or left out by ``live``, a boolean mask over copies (all by
    default). None if no copy has one. Every distinct representative of a
    live copy's cells is measured with one distance call.
    """
    lead = group.schemes[0]
    q = check_query(q, lead.vectors.shape[1])
    cells = _cells(q, group.shifts, lead.cell_side)
    # fingerprint matches, cells unconfirmed
    found, buckets = _lookup(group.table, np.arange(len(cells)), cells)
    if live is not None:
        keep = np.asarray(live, dtype=bool)[group.copy_of[group.scheme_of[found]]]
        found, buckets = found[keep], buckets[keep]
    if not found.size:
        return None
    # a cell's representative is its lowest local index, its one member
    reps = group.table.members[buckets]
    cand, inv = _distinct(reps, len(lead.vectors))
    dists = _kernels.dists_to_point(lead.vectors[cand], q, lead.p)[inv]
    ok = np.flatnonzero(dists <= lead.c0 * lead.r)
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
        rep_cells = _cells(lead.vectors[reps[best]], group.shifts[grids[best]], lead.cell_side)
        sure = best[(rep_cells == cells[grids[best]]).all(axis=1)]
        ids[copy[sure]], start_dists[copy[sure]] = lead.ids[reps[sure]], dists[sure]
        answered[copy[sure]], tried[best] = True, True
        order = order[~(answered[copy[order]] | tried[order])]
    return (answered, ids, start_dists) if answered.any() else None
