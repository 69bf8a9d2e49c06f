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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import UsageError
from .geometry import Dataset, subset_diameter


@dataclass
class Cluster:
    member_ids: np.ndarray  # sorted ascending
    center_id: int


@dataclass
class SparseCover:
    clusters: list
    covering_ref: dict  # point id -> cluster index
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


def _coverable(vectors: np.ndarray, p: float, radius: float,
               inside: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """Candidates whose whole radius-ball lies inside the emitted cluster.

    A candidate is blocked iff some point outside the cluster sits within
    ``radius`` of it.
    """
    outside = vectors[~inside]
    if outside.shape[0] == 0 or candidates.size == 0:
        return candidates
    keep = np.ones(candidates.size, dtype=bool)
    for i, _, block in _kernels.pairwise_blocks(vectors[candidates], outside, p):
        keep[i:i + block.shape[0]] &= ~(block <= radius).any(axis=1)
    return candidates[keep]


def build_sparse_cover(dataset: Dataset, radius: float, beta: float) -> SparseCover:
    """Carve a (beta, radius)-sparse cover of the dataset's lp metric; the
    construction is deterministic."""
    if dataset.n == 0:
        raise UsageError("cannot cover an empty dataset")
    if radius <= 0.0:
        raise UsageError(f"cover radius must be positive, got {radius}")
    if beta <= 1.0:
        raise UsageError(f"beta must exceed 1, got {beta}")

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
        newly = _coverable(vectors, dataset.p, radius, inside, candidates)
        covering_local[newly] = cluster_index
        covered[newly] = True

    covering_ref = {int(ids[i]): int(covering_local[i]) for i in range(n)}
    return SparseCover(
        clusters=clusters,
        covering_ref=covering_ref,
        beta=float(beta),
        radius=float(radius),
        diameter_bound=diameter_bound_for(radius, beta),
        sparsity=int(sparsity),
    )


def cover_lookup(cover: SparseCover, point_id: int) -> int:
    """Index of the cluster containing B(point, radius); unknown ids are errors."""
    try:
        return cover.covering_ref[int(point_id)]
    except KeyError:
        raise UsageError(f"point id {point_id} is not covered by this cover") from None


def verify_cover(cover: SparseCover, dataset: Dataset) -> CoverCheck:
    """Exhaustively check both cover conditions against the dataset.

    cover_ok is true iff for every point x, every dataset point within
    ``radius`` of x belongs to the cluster x references. O(n^2).
    """
    vectors = dataset.vectors
    ids = dataset.ids
    id_to_local = {int(pid): i for i, pid in enumerate(ids)}

    member_masks = []
    for cl in cover.clusters:
        mask = np.zeros(dataset.n, dtype=bool)
        for pid in cl.member_ids:
            mask[id_to_local[int(pid)]] = True
        member_masks.append(mask)

    ok = True
    for i in range(dataset.n):
        ci = cover.covering_ref.get(int(ids[i]))
        if ci is None or ci < 0:
            ok = False
            break
        dist = _kernels.dists_to_point(vectors, vectors[i], dataset.p)
        ball = dist <= cover.radius
        if not member_masks[ci][ball].all():
            ok = False
            break

    max_diam = 0.0
    for cl, mask in zip(cover.clusters, member_masks):
        diam = subset_diameter(vectors[mask], dataset.p)
        if diam > max_diam:
            max_diam = diam

    sparsity = sum(len(cl.member_ids) for cl in cover.clusters)
    return CoverCheck(cover_ok=ok, max_diameter=max_diam, sparsity=sparsity)
