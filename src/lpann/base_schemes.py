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
query reads: a sorted column of 64-bit fingerprints of (table, key), the
E2LSH layout of Datar, Immorlica, Indyk and Mirrokni (SoCG 2004), each
bucket's table number, and CSR members. An l2 bucket keeps its full int64
key and its first ``max_probe`` members; a grid cell keeps one member, its
representative, and no key, for the cell is recomputed from the
representative. A grid query hashes every stacked grid at once, finds its
cell in every grid with one ``searchsorted`` over the fingerprints,
confirms only the matches it answers with on the full cell, and measures
the distinct representatives, found by a scatter over the group's points,
with one distance call. An l2 query walks the tables in order and stops
early, as E2LSH's does, in two passes: it hashes the first table of every
leaf with one matrix product and looks those keys up with one search, and
then, with one more product and search, all remaining tables of the
leaves still without a candidate within 2r. Each pass confirms its
matches on the full key and measures its buckets in rounds, one distance
call a round. A group's schemes come in contiguous blocks, and a query
answers per block: per owner for l2 leaves, per copy for grids. A mask
leaves blocks out: their cells are never measured, and their l2 tables
are neither hashed nor measured. A lone scheme is queried as a group of
one.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import NumericRangeError, UsageError

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
    through one float buffer."""
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

    Bucket b belongs to table ``tables[b]``, and buckets run table by table.
    It keeps the lowest local indices of its points, ascending, at most its
    table's cap: ``members[starts[b]:starts[b + 1]]``, or ``members[b]``
    alone where ``starts`` is None, as it is when every bucket keeps one
    member (every grid table). Its int key is ``keys[b]``, or, where
    ``keys`` is None, recomputed from its first member by the ``rekey`` the
    table was built with. ``fingerprints`` holds every bucket's fingerprint
    under ``multipliers`` (see ``_fingerprints``), all distinct and
    ascending, and ``by_fingerprint`` the bucket of each. Bucket numbers,
    table numbers and members are int32.
    """

    fingerprints: np.ndarray  # (B,) uint64
    by_fingerprint: np.ndarray
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


def _bucket_table(tables, rekey=None) -> _BucketTable:
    """Group the points of each table into buckets by key, a table at a time.

    ``tables`` iterates over one (keys, cap) pair per table, numbered in
    order: the points' int keys, an (m, k) array, and the most members a
    bucket of the table keeps. Each table is split on its own by
    ``_split`` and leaves only its runs, members and fingerprints (and its
    bucket keys); capping the members and sorting all fingerprints run once
    at the end. A table's keys are dropped once it is grouped, and every
    bucket's key is kept, unless ``rekey(t, rows)`` recomputes the keys of
    table t's local rows bit for bit; then none is.

    Fingerprints start from salt 0's multipliers. A fingerprint run holding
    two keys, or two buckets sharing a fingerprint, moves every fingerprint
    on to the next salt; the salts follow a fixed sequence, so a rebuild
    gives the same table. Each salt separates two given distinct (table,
    key) pairs with probability at least 1/2, so the sequence ends.
    """
    salt, multipliers, base = 0, None, 0
    keys, runs, members, caps, fps, salts = [], [], [], [], [], []
    for table_keys, cap in tables:
        if multipliers is None:
            multipliers = _multipliers(salt, table_keys.shape[1])
        while (split := _split(multipliers, len(fps), table_keys)) is None:
            salt += 1
            multipliers = _multipliers(salt, table_keys.shape[1])
        order, first, fp = split
        runs.append(first + base)
        members.append(order.astype(np.int32))
        base += order.size
        caps.append(cap)
        fps.append(fp)
        salts.append(salt)
        if rekey is None:
            keys.append(table_keys[order[first]])
        del table_keys  # before the next table's keys are made
    # keep each bucket's first members, at most its table's cap
    counts = [fp.size for fp in fps]
    first = np.concatenate(runs)
    kept = np.minimum(np.diff(first, append=base), np.repeat(caps, counts))
    ends = np.cumsum(kept)
    members = np.concatenate(members)[np.arange(ends[-1]) + np.repeat(first - (ends - kept), kept)]
    starts = np.concatenate([[0], ends])
    keys = np.concatenate(keys) if rekey is None else None
    bounds = np.cumsum([0] + counts)
    while True:
        # fingerprint again every table split under an earlier salt
        for stale in np.flatnonzero(np.array(salts) != salt):
            buckets = np.arange(bounds[stale], bounds[stale + 1])
            stored = keys[buckets] if rekey is None else rekey(stale, members[starts[buckets]])
            fps[stale], salts[stale] = _fingerprints(multipliers, stale, stored), salt
        fp = np.concatenate(fps)
        by_fingerprint = fp.argsort().astype(np.int32)
        fp = fp[by_fingerprint]
        if not (fp[1:] == fp[:-1]).any():
            break
        salt += 1
        multipliers = _multipliers(salt, multipliers.size - 1)
    tables = np.repeat(np.arange(len(fps), dtype=np.int32), counts)
    if members.size == starts.size - 1:  # every bucket keeps one member
        starts = None
    return _BucketTable(fp, by_fingerprint, tables, starts, members, multipliers, keys)


def _lookup(table: _BucketTable, tables: np.ndarray, keys: np.ndarray):
    """(i, bucket) for every keys[i] found in stacked table tables[i], in
    order of i, from one search over the fingerprint column. A match counts
    only if its bucket's table number is tables[i] and its key is keys[i]
    (and then so is its fingerprint); a fingerprint past the last is
    clipped and fails. A table without keys matches on the fingerprint and
    leaves the key to the caller (``query_coarse_ann`` recomputes it for the
    matches it would answer with)."""
    fp = _fingerprints(table.multipliers, tables, keys)
    pos = table.fingerprints.searchsorted(fp)
    bucket = table.by_fingerprint.take(pos, mode="clip")
    found = table.tables[bucket] == tables
    if table.keys is None:
        found &= table.fingerprints.take(pos, mode="clip") == fp
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


def _query_point(q, d: int) -> np.ndarray:
    q = np.asarray(q, dtype=np.float64).ravel()
    if q.shape[0] != d:
        raise UsageError(
            f"query dimension {q.shape[0]} does not match scheme dimension {d}"
        )
    return q


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
    hash through it, so a point and a query at the point agree."""
    big_l, k, d = projections.shape
    proj = vecs @ projections.reshape(big_l * k, d).T
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
    members, all a query probes; leaf l belongs to owner ``owner_of[l]`` of
    ``owners``.
    """

    leaves: list
    owner_of: np.ndarray
    owners: int
    projections: np.ndarray  # (T, k, d)
    offsets: np.ndarray      # (T, k)
    leaf_of: np.ndarray
    first: np.ndarray        # (T,) bool
    table: _BucketTable = field(repr=False)


def l2_group(owners: list) -> L2Group:
    """Group the leaves of each owner (a list of lists of leaves built over
    one point array for one radius), in order, and build their one bucket
    table. A lone leaf is the group ``[[leaf]]``."""
    leaves = [leaf for block in owners for leaf in block]
    table = _bucket_table(
        (keys, leaf.max_probe) for leaf in leaves
        for keys in _l2_keys(leaf.projections, leaf.offsets, leaf.w, leaf.vectors)
    )
    (projections, offsets), leaf_of = _stack(leaves, ("projections", "offsets"))
    owner_of = np.repeat(np.arange(len(owners)), [len(block) for block in owners])
    return L2Group(leaves, owner_of, len(owners), projections, offsets, leaf_of,
                   _run_starts(leaf_of), table)


def _query_keys(group: L2Group, tables: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The query's key in each of the stacked tables, an (len(tables), k)
    array, from one matrix product with their projections only."""
    lead = group.leaves[0]
    return _l2_keys(group.projections[tables], group.offsets[tables], lead.w,
                    q.reshape(1, -1))[:, 0, :]


def query_l2_ann(group: L2Group, q, live=None):
    """Each owner's answer: (id, l2 distance) of the first of its leaves, in
    group order, whose first scanned candidate within 2r of q, probing at
    most max_probe candidates per table, is nearest to q, or None for an
    owner without one or left out by ``live``, a boolean mask over owners
    (all by default); None if no owner has one.

    The tables are hashed and looked up in two passes: first the first
    table of every leaf of a live owner, then all remaining tables of the
    leaves still without a candidate, each pass with one matrix product
    (``_query_keys``) and one ``_lookup``. A pass measures its matched
    buckets in rounds: round j measures the distinct members of the j-th
    matched bucket of every leaf still without a candidate, with one
    distance call. So each leaf tries its matched buckets in table order
    and keeps its first member within 2r, and no table of a left-out owner
    is hashed, and no bucket of one, or past a leaf's first candidate, is
    measured.
    """
    lead = group.leaves[0]
    q = _query_point(q, lead.vectors.shape[1])
    members, m = group.table.members, len(lead.vectors)
    hit_row = np.zeros(len(group.leaves), dtype=np.intp)
    hit_dist = np.full(len(group.leaves), np.inf)
    pending = np.ones(len(group.leaves), dtype=bool)
    if live is not None:
        pending = np.asarray(live, dtype=bool)[group.owner_of]
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
            owner = np.repeat(sel, size)
            first = ok[_run_starts(owner[ok])]  # ok ascends
            won = leaf[owner[first]]
            hit_row[won], hit_dist[won], pending[won] = cand[first], dists[first], False
    hit = np.flatnonzero(hit_dist < np.inf)
    if not hit.size:
        return None
    owner = group.owner_of[hit]
    # per owner: least distance, then first leaf
    order = np.lexsort((hit, hit_dist[hit], owner))
    answers = [None] * group.owners
    for i in order[_run_starts(owner[order])]:
        answers[owner[i]] = (int(lead.ids[hit_row[hit[i]]]), float(hit_dist[hit[i]]))
    return answers


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
    ``_cell_rekey`` recomputes it. Scheme s belongs to copy ``copy_of[s]``
    of ``copies``."""

    schemes: list
    copy_of: np.ndarray
    copies: int
    shifts: np.ndarray  # (T, d)
    scheme_of: np.ndarray
    table: _BucketTable = field(repr=False)


def _cell_rekey(vectors: np.ndarray, shifts: np.ndarray, side: float) -> Callable:
    """The cells of local rows in stacked grids t. ``_cells`` is elementwise,
    so a row's cell is the same bit for bit whatever it is computed with."""
    return lambda t, rows: _cells(vectors[rows], shifts[t], side)


def coarse_group(copies: list) -> CoarseGroup:
    """Group the grid schemes of each copy (a list of lists of schemes built
    over one point array for one norm and radius) and build their one cell
    table, a grid at a time. A lone scheme is the group ``[[scheme]]``."""
    schemes = [s for base in copies for s in base]
    (shifts,), scheme_of = _stack(schemes, ("shifts",))
    vectors, side = schemes[0].vectors, schemes[0].cell_side
    table = _bucket_table(((_cells(vectors, shift, side), 1) for shift in shifts),
                          _cell_rekey(vectors, shifts, side))
    copy_of = np.repeat(np.arange(len(copies)), [len(base) for base in copies])
    return CoarseGroup(schemes, copy_of, len(copies), shifts, scheme_of, table)


def query_coarse_ann(group: CoarseGroup, q, live=None):
    """Each copy's start: (id, lp distance) of the first scheme of the copy
    whose lp-closest cell representative across its grids, re-checked
    against c0*r (ties to the lowest row), is nearest to q, or None for a
    copy without one or left out by ``live``, a boolean mask over copies
    (all by default); None if no copy has one. Every distinct representative
    of a live copy's cells is measured with one distance call.
    """
    lead = group.schemes[0]
    q = _query_point(q, lead.vectors.shape[1])
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
    # only each copy's best match still untried is recomputed
    order = np.lexsort((reps, which, dists, copy))
    rekey = _cell_rekey(lead.vectors, group.shifts, lead.cell_side)
    starts = [None] * group.copies
    answered, tried = np.zeros(group.copies, dtype=bool), np.zeros(reps.size, dtype=bool)
    while order.size:
        best = order[_run_starts(copy[order])]
        sure = best[(rekey(grids[best], reps[best]) == cells[grids[best]]).all(axis=1)]
        for i in sure:
            starts[copy[i]] = (int(lead.ids[reps[i]]), float(dists[i]))
        answered[copy[sure]], tried[best] = True, True
        order = order[~(answered[copy[order]] | tried[order])]
    return starts if answered.any() else None
