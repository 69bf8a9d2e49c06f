"""Benchmark workloads: input generators and shape gates.

Every input descends from the benchmark's ``--seed`` through
``numpy.random.SeedSequence(seed, spawn_key=(tag,))``; lpann receives only
the generated vectors and an index seed taken from the same root.

Each query is a distinct data point displaced by lp distance exactly
``QUERY_DISTANCE * r`` in a random direction, so the r-near promise holds
for every query and the queries spread over the whole dataset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

QUERY_DISTANCE = 0.9  # times r
BLOBS = 4
BLOB_SPACING = 100.0  # times sqrt(d): blobs sit far beyond any cover radius

TAG_DATA, TAG_QUERIES = 0, 1


@dataclass(frozen=True)
class Workload:
    name: str
    distribution: str  # "gaussian" or "clustered"
    n: int
    d: int
    p: float
    r: float
    queries: int
    clusters: str  # shape gate: "one" or "many" clusters in every cover


# Why each workload exists (also stated in BENCHMARK.json):
# gauss-d32: one cluster per cover, so cover carving is bypassed and the
#   dict-built hash tables and the 108 L2 leaves walked per query dominate.
# clustered-d32: four far-apart blobs, so every ladder level carves four
#   clusters and cover carving, Mazur maps and cover routing do real work.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("gauss-d32", "gaussian", n=1000, d=32, p=4.0, r=1.0, queries=600,
                 clusters="one"),
        Workload("clustered-d32", "clustered", n=1000, d=32, p=4.0, r=0.2, queries=600,
                 clusters="many"),
    )
}


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(tag,)))


def lp_norms(mat: np.ndarray, p: float) -> np.ndarray:
    """lp norm of every row, computed independently of lpann's kernels."""
    return (np.abs(mat) ** p).sum(axis=1) ** (1.0 / p)


def make_data(w: Workload, seed: int) -> np.ndarray:
    rng = _rng(seed, TAG_DATA)
    if w.distribution == "gaussian":
        return rng.standard_normal((w.n, w.d))
    centers = np.zeros((BLOBS, w.d))
    centers[:, 0] = BLOB_SPACING * math.sqrt(w.d) * np.arange(BLOBS)
    return centers[rng.integers(0, BLOBS, size=w.n)] + rng.standard_normal((w.n, w.d))


def make_queries(w: Workload, data: np.ndarray, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(queries, source row of each query); sources are distinct rows."""
    rng = _rng(seed, TAG_QUERIES)
    sources = rng.choice(data.shape[0], size=w.queries, replace=False)
    direction = rng.standard_normal((w.queries, w.d))
    step = QUERY_DISTANCE * w.r / lp_norms(direction, w.p)
    return data[sources] + step[:, None] * direction, sources


def covers(node):
    """Every sparse cover in the index tree below ``node``."""
    for copy in node.copies:
        for level in copy.ladder:
            yield level.cover
            for child in level.children:
                for sub in child.copies:
                    yield from covers(sub)


def check_shape(w: Workload, scheme, space) -> tuple[list, dict]:
    """Problems with the index shape this workload exists to exercise.

    Returns (problems, facts); an empty problem list passes the gate.
    """
    counts = [len(c.clusters) for c in covers(scheme.root)]
    sizes = [len(cl.member_ids) for c in covers(scheme.root) for cl in c.clusters]
    ladders = [len(copy.ladder) for copy in scheme.root.copies]
    facts = {
        "covers": len(counts),
        "clusters_per_cover": sum(counts) / len(counts) if counts else 0.0,
        "singleton_frac": sizes.count(1) / len(sizes) if sizes else 0.0,
        "root_ladder_lengths": ladders,
    }
    problems = []
    if not ladders or min(ladders) == 0:
        problems.append(f"empty top-level ladder: lengths {ladders}")
    if f"t={int(scheme.p_effective)}/ladder1" not in space.per_level:
        problems.append(f"space report lists no ladder: {sorted(space.per_level)}")
    if w.clusters == "one" and any(c != 1 for c in counts):
        problems.append(f"expected exactly 1 cluster per cover, got {sorted(set(counts))}")
    if w.clusters == "many" and (not counts or min(counts) <= 1):
        problems.append(f"expected more than 1 cluster per cover, got {sorted(set(counts))}")
    return problems, facts
