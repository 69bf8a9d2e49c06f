"""Sparse neighborhood covers of a finite lp metric.

A (beta, r)-sparse cover is a collection of clusters, each of bounded
diameter, such that every point's r-ball is entirely contained in the
cluster that point references. Construction is deterministic region-growing
ball carving:

    while uncovered points remain:
        v <- lowest-id uncovered point
        j <- smallest integer >= 0 with |B(v, 2r(j+1))| <= n^(1/beta) * |B(v, 2rj)|
        emit cluster S = B(v, 2r(j+1)) with center v
        mark covered every uncovered x in S whose ball B(x, r) lies inside S

The growth condition guarantees j <= ceil(beta), so every cluster has
diameter at most 4r(beta+1). Marking is by the exact containment test
B(x, r) subseteq S, which subsumes the kernel B(v, 2rj) (whose balls fit by
the triangle inequality since r <= 2r) and retires every point the cluster
can serve; the carve seed itself is always markable, so the loop terminates.
Rounds that grow an identical member set reuse the existing cluster instead
of storing a duplicate (the cover is a collection of distinct subsets).
Ball counts use all dataset points, so clusters may overlap; the recorded
sparsity is the total membership count.

The containment test measures a candidate only against the outside points
within D + 2r of the center v, where D is the largest distance from v to a
candidate (at most the cluster's radius 2r(j+1)). This leaves every result
unchanged: a candidate x has d(v, x) <= D, so by the triangle inequality
(which holds in lp for every p >= 1) an outside point y within r of x has
d(v, y) <= D + r. The second r of slack dwarfs the relative rounding of the
computed distances (about d * 1e-16); the kernel measures every distance
within the float range, so such a d(v, y) never reads inf. The distances to
v are the ones the ball counts already computed, so pruning costs no
distance work, and points in other far-off blobs are never measured.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import UsageError
from .geometry import Dataset, _is_int, subset_diameter


@dataclass
class Cluster:
    member_ids: np.ndarray  # sorted ascending
    center_id: int


@dataclass
class SparseCover:
    clusters: list
    covering_ref: np.ndarray  # int64 cluster index of every dataset row
    beta: float
    radius: float
    diameter_bound: float
    sparsity: int


@dataclass
class CoverCheck:
    cover_ok: bool
    max_diameter: float
    sparsity: int


def diameter_bound_for(radius: float, beta: float) -> float:
    """Certified diameter bound of the carving construction: 4r(beta+1)."""
    return 4.0 * radius * (beta + 1.0)


def _coverable(points: np.ndarray, p: float, radius: float, blockers: np.ndarray) -> np.ndarray:
    """Mask of the points with no blocker within ``radius``: those whose
    radius-ball holds no point outside the cluster, when the blockers
    include every outside point that could be that near."""
    keep = np.ones(points.shape[0], dtype=bool)
    for i, _, block in _kernels.pairwise_blocks(points, blockers, p):
        keep[i:i + block.shape[0]] &= ~(block <= radius).any(axis=1)
    return keep


def build_sparse_cover(dataset: Dataset, radius: float, beta: float) -> SparseCover:
    """Carve a (beta, radius)-sparse cover of the dataset's lp metric; the
    construction is deterministic."""
    if dataset.n == 0:
        raise UsageError("cannot cover an empty dataset")
    if not 0.0 < radius < math.inf:
        raise UsageError(f"cover radius must be positive and finite, got {radius}")
    if not 1.0 < beta < math.inf:
        raise UsageError(f"beta must be finite and exceed 1, got {beta}")

    vectors = dataset.vectors
    ids = dataset.ids
    n = dataset.n
    growth = n ** (1.0 / beta)
    j_cap = int(np.ceil(beta)) + 2  # growth condition holds well before this

    covered = np.zeros(n, dtype=bool)
    covering_local = np.full(n, -1, dtype=np.int64)
    clusters = []
    cluster_index_of = {}
    sparsity = 0

    while not covered.all():
        v = int(np.flatnonzero(~covered)[0])
        dist = _kernels.dists_to_point(vectors, vectors[v], dataset.p)
        sorted_dist = np.sort(dist)

        def ball_count(rad: float) -> int:
            return int(np.searchsorted(sorted_dist, rad, side="right"))

        j = 0
        while j < j_cap:
            if ball_count(2.0 * radius * (j + 1)) <= growth * ball_count(2.0 * radius * j):
                break
            j += 1

        inside = dist <= 2.0 * radius * (j + 1)
        members = np.flatnonzero(inside)
        key = members.tobytes()
        cluster_index = cluster_index_of.get(key)
        if cluster_index is None:
            cluster_index = len(clusters)
            cluster_index_of[key] = cluster_index
            clusters.append(Cluster(member_ids=np.sort(ids[members]), center_id=int(ids[v])))
            sparsity += members.size

        candidates = np.flatnonzero(inside & ~covered)
        if candidates.size:
            # only outside points near v can block a candidate (module docstring)
            near = ~inside & (dist <= dist[candidates].max() + 2.0 * radius)
            newly = candidates[_coverable(vectors[candidates], dataset.p, radius, vectors[near])]
            covering_local[newly] = cluster_index
            covered[newly] = True

    return SparseCover(
        clusters=clusters,
        covering_ref=covering_local,
        beta=float(beta),
        radius=float(radius),
        diameter_bound=diameter_bound_for(radius, beta),
        sparsity=int(sparsity),
    )


def cover_lookup(cover: SparseCover, row: int) -> int:
    """Index of the cluster containing B(point, radius) for the point at
    ``row`` of the covered dataset; rows outside the dataset are errors."""
    if not (_is_int(row) and 0 <= row < cover.covering_ref.shape[0]):
        raise UsageError(f"row {row} is not covered by this cover")
    return int(cover.covering_ref[row])


def verify_cover(cover: SparseCover, dataset: Dataset) -> CoverCheck:
    """Exhaustively check both cover conditions against the dataset.

    cover_ok is true iff for every point x, every dataset point within
    ``radius`` of x belongs to the cluster x references. O(n^2).
    """
    vectors = dataset.vectors
    member_masks = [np.isin(dataset.ids, cl.member_ids) for cl in cover.clusters]

    ref = cover.covering_ref
    ok = ref.shape == (dataset.n,) and bool(((ref >= 0) & (ref < len(cover.clusters))).all())
    for i in range(dataset.n if ok else 0):
        ball = _kernels.dists_to_point(vectors, vectors[i], dataset.p) <= cover.radius
        if not member_masks[ref[i]][ball].all():
            ok = False
            break

    max_diam = max((subset_diameter(vectors[m], dataset.p) for m in member_masks), default=0.0)

    sparsity = sum(len(cl.member_ids) for cl in cover.clusters)
    return CoverCheck(cover_ok=ok, max_diameter=max_diam, sparsity=sparsity)
