"""Recursive near-neighbor index for lp, p > 2.

The index is a double recursion. At a norm level with exponent t, a coarse
shifted-grid scheme supplies an initial approximation c0 = 4 d^(1+1/t), and
a ladder of refinement levels shrinks it: level j carves a sparse cover at
radius 2 * c_{j-1} * r, maps every cluster through a scaled signed-power map
into l_{t/2}, and indexes the image points with a child scheme built by the
same method one exponent level down. The recursion bottoms out at an l2 LSH
scheme with approximation 2.

A refinement step improves the bound to

    c_new = (p/t)^(t/p) * c_t^(t/p) * (4 * beta_eff * c_base)^(1 - t/p)

where beta_eff is the cover's certified diameter bound divided by its
radius (read from the built cover, never assumed). With t = p/2 this is
sqrt(8 * beta_eff * c_t * c_base), a contraction toward the fixed point
8 * beta_eff * c_t; ladder levels are kept only while they strictly improve.

Query time runs the same chain: coarse answer, then per level look up the
covering cluster of the current iterate, query the cluster's child scheme
with the mapped query, lift the answer back by id, and keep it only if it
improves the true distance. All distances are re-verified in the node's own
norm, so a failed stage can never make the answer worse.

Arbitrary exponents are first clamped to min(p, log2 d) and rounded down to
a power of two; the constant-factor norm distortion this costs is computed
exactly and folded into the reported bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .base_schemes import (
    L2Scheme,
    build_coarse_ann,
    build_l2_ann,
    coarse_approximation,
    query_coarse_ann,
    query_l2_ann,
)
from .cover import SparseCover, build_sparse_cover
from .errors import NumericRangeError, UsageError
from .geometry import Dataset, MazurMapSpec, mazur_map_apply, mazur_map_points

L2_LEAF_APPROX = 2.0
PRIMITIVE_FAILURE = 1.0 / 3.0  # each unamplified randomized structure

# seed derivation tags; a substructure's generator is
# default_rng(SeedSequence(config.seed, spawn_key=path)) with path built
# from these tags plus indices (documented in the README)
TAG_NODE_COPY = 1
TAG_BASE = 2
TAG_LADDER = 3
TAG_CLUSTER = 4
TAG_CHILD = 5
TAG_RADIUS = 6


def _seed(root_seed: int, path: tuple) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=root_seed, spawn_key=path)


@dataclass(frozen=True)
class SchemeConfig:
    """Build parameters: exponent, radius, cover tradeoff knob, seeds, copies.

    ``delta`` in (0, 1] widens covers (beta = log2(p_eff) / delta), trading
    approximation for sparsity. Copy counts realize the amplification
    policy: ``base_copies``/``child_copies`` lift the 1/3-failure primitives
    at each ladder level, and every norm level is repeated
    ceil(log2(3 * log2 p)) times.
    """

    p: float
    r: float
    delta: float = 1.0
    seed: int = 0
    base_copies: int = 3
    child_copies: int = 3

    def __post_init__(self):
        if not (math.isfinite(self.p) and self.p > 2.0):
            raise UsageError(f"top-level exponent must be finite and > 2, got {self.p}")
        if not (self.r > 0.0 and math.isfinite(self.r)):
            raise UsageError(f"radius must be positive and finite, got {self.r}")
        if not (0.0 < self.delta <= 1.0):
            raise UsageError(f"delta must lie in (0, 1], got {self.delta}")
        if self.base_copies < 1 or self.child_copies < 1:
            raise UsageError("copy counts must be >= 1")


def normalize_exponent(p: float, d: int) -> tuple[float, float]:
    """Clamp p to min(p, log2 d) and round down to a power of two.

    Returns (p_eff, holder_factor) where holder_factor = d^(1/p_eff - 1/p)
    is the exact norm-equivalence constant the reported bound absorbs.
    """
    cap = min(p, math.log2(d)) if d > 1 else 2.0
    if cap < 2.0:
        p_eff = 2.0
    else:
        p_eff = float(2 ** int(math.floor(math.log2(cap))))
    holder = d ** (1.0 / p_eff - 1.0 / p) if p_eff < p else 1.0
    return p_eff, holder


def norm_level_copies(p_eff: float) -> int:
    """ceil(log2(3 log2 p)) independent repetitions per norm level."""
    return max(1, math.ceil(math.log2(3.0 * max(math.log2(p_eff), 1.0))))


def refine_approx(p: float, t: float, c_t: float, beta_eff: float, c_base: float) -> float:
    """Refined bound after one cover + signed-power reduction step."""
    ratio = t / p
    return (p / t) ** ratio * c_t ** ratio * (4.0 * beta_eff * c_base) ** (1.0 - ratio)


@dataclass(frozen=True)
class LevelPlan:
    t: float
    initial_approx: float
    k_nominal: int
    ladder: tuple

    @property
    def final(self) -> float:
        return self.ladder[-1] if self.ladder else self.initial_approx


@dataclass(frozen=True)
class ApproxBound:
    """Guaranteed approximation of the built structure, plus the closed-form
    value (16 beta)^(log2 p) under the literal constants beta = log2 p and
    ideal cover diameter."""

    p: float
    d: int
    delta: float
    p_effective: float
    holder_factor: float
    beta: float
    beta_eff: float
    levels: tuple
    c_l2: float
    c_p: float
    closed_form_literal: float

    def level_for(self, t: float) -> LevelPlan:
        for lv in self.levels:
            if lv.t == t:
                return lv
        raise KeyError(t)

    def as_dict(self) -> dict:
        return {
            "p": self.p,
            "d": self.d,
            "delta": self.delta,
            "p_effective": self.p_effective,
            "holder_factor": self.holder_factor,
            "beta": self.beta if math.isfinite(self.beta) else None,
            "beta_eff": self.beta_eff if math.isfinite(self.beta_eff) else None,
            "c_l2": self.c_l2,
            "c_p": self.c_p,
            "closed_form_literal": self.closed_form_literal,
            "levels": [
                {
                    "t": lv.t,
                    "initial_approx": lv.initial_approx,
                    "k": lv.k_nominal,
                    "ladder": list(lv.ladder),
                }
                for lv in self.levels
            ],
        }


def literal_closed_form(p: float) -> float:
    """(16 * log2 p)^(log2 p), the bound under un-clamped textbook constants."""
    lg = math.log2(p)
    return (16.0 * lg) ** lg


def approximation_bound(config: SchemeConfig, d: int) -> ApproxBound:
    """Pure calculator of the guaranteed bound for a (config, dimension) pair.

    Uses the implementation's actual constants: beta = log2(p_eff) / delta,
    beta_eff = 4 (beta + 1) from the carving diameter bound, c_l2 = 2.
    """
    if d < 1:
        raise UsageError(f"dimension must be >= 1, got {d}")
    p_eff, holder = normalize_exponent(config.p, d)
    beta = math.log2(p_eff) / config.delta if p_eff > 2.0 else math.inf
    beta_eff = 4.0 * (beta + 1.0) if p_eff > 2.0 else math.inf

    levels = []
    c_child = L2_LEAF_APPROX
    t = 4.0
    while t <= p_eff:
        c0 = coarse_approximation(d, t)
        k = math.ceil(math.log2(math.log2(c0)))
        ladder = []
        c_base = c0
        for _ in range(k):
            c_new = refine_approx(t, t / 2.0, c_child, beta_eff, c_base)
            if c_new >= c_base:
                break
            ladder.append(c_new)
            c_base = c_new
        levels.append(LevelPlan(t=t, initial_approx=c0, k_nominal=k, ladder=tuple(ladder)))
        c_child = c_base
        t *= 2.0

    return ApproxBound(
        p=config.p,
        d=int(d),
        delta=config.delta,
        p_effective=p_eff,
        holder_factor=holder,
        beta=beta,
        beta_eff=beta_eff,
        levels=tuple(levels),
        c_l2=L2_LEAF_APPROX,
        c_p=holder * c_child,
        closed_form_literal=literal_closed_form(config.p),
    )


# ---------------------------------------------------------------------------
# built structure
# ---------------------------------------------------------------------------

@dataclass
class ClusterChild:
    """Per-cluster reduction: center, scaled map, child scheme copies.

    Singleton clusters skip the map and child build; a lookup just returns
    the lone member.
    """

    center_id: int
    center_vector: np.ndarray
    mazur: MazurMapSpec | None
    copies: list


@dataclass
class LadderLevel:
    index: int
    base_approx: float
    new_approx: float
    cover: SparseCover
    children: list


@dataclass
class SchemeCopy:
    base: list  # CoarseScheme (level > 1) or L2Scheme (level 1) instances
    ladder: list


@dataclass
class SchemeNode:
    """One norm level over a point set: t == 2 nodes hold l2 leaves, larger
    t hold coarse grids plus a refinement ladder."""

    t: float
    ids: np.ndarray
    vectors: np.ndarray
    copies: list = field(default_factory=list)
    id_to_local: dict = field(init=False, repr=False)

    def __post_init__(self):
        self.id_to_local = {int(pid): i for i, pid in enumerate(self.ids)}

    def vector_of(self, point_id: int) -> np.ndarray:
        return self.vectors[self.id_to_local[int(point_id)]]


@dataclass
class LpScheme:
    """Top-level index: the root node plus exponent-normalization bookkeeping."""

    config: SchemeConfig
    p: float
    d: int
    n: int
    p_effective: float
    holder_factor: float
    r: float
    r_effective: float
    bound: ApproxBound
    root: SchemeNode
    id_alias: dict


@dataclass
class QueryAnswer:
    id: int
    distance: float
    trace: list


def _dedup(dataset: Dataset) -> tuple[np.ndarray, np.ndarray, dict]:
    """Collapse coincident rows, keeping first-occurrence ids ascending."""
    _, first_idx, inverse = np.unique(
        dataset.vectors, axis=0, return_index=True, return_inverse=True
    )
    keep = np.sort(first_idx)
    rep_of_group = {g: int(dataset.ids[idx]) for g, idx in enumerate(first_idx)}
    alias = {}
    for i in range(dataset.n):
        rep = rep_of_group[int(inverse[i])]
        if int(dataset.ids[i]) != rep:
            alias[int(dataset.ids[i])] = rep
    return dataset.ids[keep], dataset.vectors[keep], alias


def _build_node(
    t: float,
    ids: np.ndarray,
    vectors: np.ndarray,
    r: float,
    bound: ApproxBound,
    config: SchemeConfig,
    path: tuple,
) -> SchemeNode:
    node = SchemeNode(t=t, ids=np.ascontiguousarray(ids, dtype=np.int64), vectors=vectors)
    n_copies = norm_level_copies(bound.p_effective)

    if t == 2.0:
        for ci in range(n_copies):
            leaf = build_l2_ann(
                node.ids, vectors, r, PRIMITIVE_FAILURE,
                _seed(config.seed, path + (TAG_NODE_COPY, ci, TAG_BASE, 0)),
            )
            node.copies.append(SchemeCopy(base=[leaf], ladder=[]))
        return node

    plan = bound.level_for(t)
    c_child_plan = bound.level_for(t / 2.0).final if t > 4.0 else L2_LEAF_APPROX

    for ci in range(n_copies):
        base = [
            build_coarse_ann(
                node.ids, vectors, t, r,
                _seed(config.seed, path + (TAG_NODE_COPY, ci, TAG_BASE, bi)),
            )
            for bi in range(config.base_copies)
        ]
        ladder = []
        c_base = plan.initial_approx
        for j, c_plan in enumerate(plan.ladder, start=1):
            cover_radius = 2.0 * c_base * r
            cover = build_sparse_cover(
                Dataset(vectors, t, ids=node.ids), cover_radius, bound.beta
            )
            beta_eff = cover.diameter_bound / cover_radius
            c_new = refine_approx(t, t / 2.0, c_child_plan, beta_eff, c_base)
            if not math.isclose(c_new, c_plan, rel_tol=1e-9):
                raise AssertionError(
                    f"ladder bound drifted from plan at t={t} j={j}: {c_new} vs {c_plan}"
                )
            children = []
            for ki, cluster in enumerate(cover.clusters):
                center_id = cluster.center_id
                center_vec = node.vector_of(center_id)
                if len(cluster.member_ids) == 1:
                    children.append(ClusterChild(center_id, center_vec, None, []))
                    continue
                mazur = MazurMapSpec(p=t, q=t / 2.0, c0=cover.diameter_bound)
                locs = np.asarray(
                    [node.id_to_local[int(m)] for m in cluster.member_ids], dtype=np.int64
                )
                try:
                    image = mazur_map_points(mazur, vectors[locs] - center_vec)
                except NumericRangeError as exc:
                    raise NumericRangeError(
                        f"signed-power map overflow in cluster centered at id "
                        f"{center_id} (t={t}, ladder level {j}): {exc}"
                    ) from exc
                child_copies = [
                    _build_node(
                        t / 2.0, cluster.member_ids, image, r, bound, config,
                        path + (TAG_NODE_COPY, ci, TAG_LADDER, j, TAG_CLUSTER, ki, TAG_CHILD, cc),
                    )
                    for cc in range(config.child_copies)
                ]
                children.append(ClusterChild(center_id, center_vec, mazur, child_copies))
            ladder.append(
                LadderLevel(
                    index=j, base_approx=c_base, new_approx=c_new,
                    cover=cover, children=children,
                )
            )
            c_base = c_new
        node.copies.append(SchemeCopy(base=base, ladder=ladder))
    return node


def preprocess(dataset: Dataset, config: SchemeConfig) -> LpScheme:
    """Build the full recursive index over the dataset."""
    if dataset.n == 0:
        raise UsageError("cannot index an empty dataset")
    if dataset.p != config.p:
        raise UsageError(
            f"dataset exponent {dataset.p} disagrees with config exponent {config.p}"
        )
    bound = approximation_bound(config, dataset.d)
    r_eff = bound.holder_factor * config.r
    ids, vectors, alias = _dedup(dataset)
    root = _build_node(bound.p_effective, ids, vectors, r_eff, bound, config, path=())
    return LpScheme(
        config=config,
        p=config.p,
        d=dataset.d,
        n=dataset.n,
        p_effective=bound.p_effective,
        holder_factor=bound.holder_factor,
        r=config.r,
        r_effective=r_eff,
        bound=bound,
        root=root,
        id_alias=alias,
    )


def _node_distance(node: SchemeNode, point_id: int, q: np.ndarray) -> float:
    return float(
        _kernels.dists_to_point(node.vector_of(point_id).reshape(1, -1), q, node.t)[0]
    )


def _query_copy(node: SchemeNode, copy: SchemeCopy, q: np.ndarray):
    if node.t == 2.0:
        best = None
        for leaf in copy.base:
            cid = query_l2_ann(leaf, q)
            if cid is None:
                continue
            d = _node_distance(node, cid, q)
            if best is None or d < best[1]:
                best = (cid, d, [cid])
        return best

    x_id, x_dist = None, math.inf
    for coarse in copy.base:
        cid = query_coarse_ann(coarse, q)
        if cid is None:
            continue
        d = _node_distance(node, cid, q)
        if d < x_dist:
            x_id, x_dist = cid, d
    if x_id is None:
        return None

    trace = [x_id]
    for lvl in copy.ladder:
        child = lvl.children[lvl.cover.covering_ref[x_id]]
        cand_id = None
        if child.copies:
            img_q = mazur_map_apply(child.mazur, q - child.center_vector)
            best_child = None
            for sub in child.copies:
                res = _query_node(sub, img_q)
                if res is not None and (best_child is None or res[1] < best_child[1]):
                    best_child = res
            if best_child is not None:
                cand_id = best_child[0]
        else:
            cand_id = child.center_id
        if cand_id is not None:
            d_cand = _node_distance(node, cand_id, q)
            if d_cand < x_dist:
                x_id, x_dist = cand_id, d_cand
        trace.append(x_id)
    return (x_id, x_dist, trace)


def _query_node(node: SchemeNode, q: np.ndarray):
    best = None
    for copy in node.copies:
        res = _query_copy(node, copy, q)
        if res is not None and (best is None or res[1] < best[1]):
            best = res
    return best


def _query_vector(q, d: int) -> np.ndarray:
    q = np.asarray(q, dtype=np.float64).ravel()
    if q.shape[0] != d:
        raise UsageError(f"query dimension {q.shape[0]} does not match index dimension {d}")
    if not np.isfinite(q).all():
        raise UsageError("query contains non-finite coordinates")
    return q


def query(scheme: LpScheme, q) -> QueryAnswer | None:
    """Answer a near-neighbor query; distance is reported in the original lp."""
    q = _query_vector(q, scheme.d)
    res = _query_node(scheme.root, q)
    if res is None:
        return None
    pid, _, trace = res
    true_dist = float(
        _kernels.dists_to_point(scheme.root.vector_of(pid).reshape(1, -1), q, scheme.p)[0]
    )
    return QueryAnswer(id=int(pid), distance=true_dist, trace=trace)


# ---------------------------------------------------------------------------
# space accounting
# ---------------------------------------------------------------------------

@dataclass
class SpaceEntry:
    norm_exponent: float
    ladder_index: int  # 0 marks a base/point store
    kind: str
    points: int
    declared_sparsity: int | None = None


@dataclass
class SpaceReport:
    entries: list
    total: int
    per_level: dict
    copy_counts: dict

    def as_dict(self) -> dict:
        return {
            "total": self.total,
            "per_level": dict(self.per_level),
            "copy_counts": dict(self.copy_counts),
        }


def _walk_space(node: SchemeNode, out: list):
    for copy in node.copies:
        for b in copy.base:
            kind = "l2" if isinstance(b, L2Scheme) else "coarse"
            out.append(SpaceEntry(node.t, 0, kind, int(b.ids.shape[0])))
        for lvl in copy.ladder:
            members = sum(len(cl.member_ids) for cl in lvl.cover.clusters)
            out.append(
                SpaceEntry(node.t, lvl.index, "cover", members, lvl.cover.sparsity)
            )
            for child in lvl.children:
                for sub in child.copies:
                    _walk_space(sub, out)


def space_usage(scheme: LpScheme) -> SpaceReport:
    """Exact recursive count of points stored across all substructures."""
    entries: list = []
    _walk_space(scheme.root, entries)
    per_level: dict = {}
    for e in entries:
        key = f"t={int(e.norm_exponent)}/" + ("base" if e.ladder_index == 0 else f"ladder{e.ladder_index}")
        per_level[key] = per_level.get(key, 0) + e.points
    return SpaceReport(
        entries=entries,
        total=sum(e.points for e in entries),
        per_level=per_level,
        copy_counts={
            "norm_level_copies": norm_level_copies(scheme.p_effective),
            "base_copies": scheme.config.base_copies,
            "cluster_child_copies": scheme.config.child_copies,
        },
    )


# ---------------------------------------------------------------------------
# nearest-neighbor wrapper over a geometric radius ladder
# ---------------------------------------------------------------------------

def _pairwise_extremes(dataset: Dataset) -> tuple[float, float]:
    """(min nonzero pairwise distance, diameter); (inf, 0) for n == 1."""
    min_nz, diam = math.inf, 0.0
    for _, _, block in _kernels.pairwise_blocks(dataset.vectors, dataset.vectors, dataset.p):
        diam = max(diam, float(block.max()))
        nz = block[block > 0.0]
        if nz.size:
            min_nz = min(min_nz, float(nz.min()))
    return min_nz, diam


def nns_search(
    dataset: Dataset,
    p: float,
    c_slack: float,
    q,
    delta: float = 1.0,
    seed: int = 0,
    cache: dict | None = None,
) -> int | None:
    """Nearest-neighbor search via binary search over a radius ladder.

    Builds (c_p, r)-schemes for radii r_min * (1 + c_slack)^j spanning half
    the closest-pair distance up to the dataset diameter (extended upward
    when the query is farther than that), finds the smallest radius whose
    query succeeds, and returns its answer. Overall approximation is
    c_p * (1 + c_slack). Pass ``cache`` (any dict) to reuse built schemes
    across calls.
    """
    if dataset.n == 0:
        raise UsageError("cannot search an empty dataset")
    if dataset.p != p:
        raise UsageError(f"dataset exponent {dataset.p} disagrees with p={p}")
    if not (c_slack > 0.0):
        raise UsageError(f"c_slack must be positive, got {c_slack}")
    q = _query_vector(q, dataset.d)
    if dataset.n == 1:
        return int(dataset.ids[0])

    if cache is None:
        cache = {}
    if "radii" not in cache:
        min_nz, diam = _pairwise_extremes(dataset)
        if not math.isfinite(min_nz):  # all points coincide
            min_nz, diam = 1.0, 1.0
        radii = [min_nz / 2.0]
        while radii[-1] < diam:
            radii.append(radii[-1] * (1.0 + c_slack))
        cache["radii"] = radii
        cache["schemes"] = {}

    radii = cache["radii"]
    anchor = float(_kernels.dists_to_point(dataset.vectors[:1], q, p)[0])
    while radii[-1] < anchor:
        radii.append(radii[-1] * (1.0 + c_slack))

    def scheme_at(j: int) -> LpScheme:
        if j not in cache["schemes"]:
            radius_seed = int(
                _seed(seed, (TAG_RADIUS, j)).generate_state(1, dtype=np.uint64)[0]
            )
            cfg = SchemeConfig(p=p, r=radii[j], delta=delta, seed=radius_seed)
            cache["schemes"][j] = preprocess(dataset, cfg)
        return cache["schemes"][j]

    probes: dict = {}

    def probe(j: int):
        if j not in probes:
            sch = scheme_at(j)
            ans = query(sch, q)
            ok = ans is not None and ans.distance <= sch.bound.c_p * radii[j]
            probes[j] = ans if ok else None
        return probes[j]

    lo, hi = 0, len(radii) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if probe(mid) is not None:
            hi = mid
        else:
            lo = mid + 1
    ans = probe(lo)
    if ans is None:
        for j in range(lo + 1, len(radii)):
            ans = probe(j)
            if ans is not None:
                break
    return None if ans is None else ans.id
