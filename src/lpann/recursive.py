"""Recursive near-neighbor index for lp, p > 2.

The index is a double recursion. At a norm level with exponent t, a coarse
shifted-grid scheme supplies an initial approximation c0 = 4 d^(1+1/t), and
a ladder of refinement levels shrinks it: level j carves a sparse cover at
radius 2 * c_{j-1} * r, maps every cluster through a scaled signed-power map
into l_{t/2}, and indexes the image points with a child scheme built by the
same method one exponent level down. The recursion bottoms out at l2
leaves with approximation 2: LSH leaves, or, over a point set small enough
that one exact scan is the cheaper lookup and measures no more rows than
its leaves could probe (``scan_fits``), one scan answering every leaf.
Covers and cluster images draw no randomness, so each carved point set is
one ``PointSet``, carved once (``carve``), and every copy over it shares
its ladder; only the base schemes' draws differ per copy, each from its
seed path under ``config.seed``, drawn into the set's one group. The whole
index is thus a function of the points and the config: an index file
stores only those, and loading it runs ``preprocess`` again (see
``container``).

A refinement step improves the bound to

    c_new = (p/t)^(t/p) * c_t^(t/p) * (4 * beta_eff * c_base)^(1 - t/p)

where beta_eff is the cover's certified diameter bound divided by its
radius (``ladder_steps`` computes it with the carving's own formula).
With t = p/2 this is sqrt(8 * beta_eff * c_t * c_base), a contraction
toward the fixed point 8 * beta_eff * c_t; ladder levels are kept only
while they strictly improve.

Query time runs the same chain: coarse answer, then per level look up the
covering cluster of the current iterate, query the cluster's child scheme
with the mapped query, lift the answer back by id, and keep it only if it
improves the true distance. All distances are re-verified in the node's own
norm, so a failed stage can never make the answer worse. A set's copies
are numbered parent copy, then child copy, then node copy (see
``PointSet``), and a query visits each point set once (``_walk``): one
lookup of the set's group answers per copy, every copy's grids or every
l2 leaf, each copy that it answers walks the set's ladder in lock-step
with the others, and the walk alone picks each owner's answer, the first
of its copies at the least distance. A scanned l2 set answers once, for
all its owners; its copies only set its scan cutoff.

Arbitrary exponents are first clamped to min(p, log2 d) and rounded down to
a power of two; the constant-factor norm distortion this costs is computed
exactly and folded into the reported bound.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, field

import numpy as np

from . import _kernels
from .base_schemes import (
    CoarseGroup,
    L2Group,
    L2Scan,
    build_coarse_ann,
    build_l2_ann,
    coarse_approximation,
    query_coarse_ann,
    query_l2_ann,
    query_l2_scan,
    scan_fits,
)
from .cover import Cluster, SparseCover, build_sparse_cover, diameter_bound_for
from .errors import NumericRangeError, UsageError
from .geometry import Dataset, MazurMapSpec, check_query, mazur_map_apply, mazur_map_points

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


# Most copies of a 1/3-failure primitive a config may ask for: 16 copies
# already fail together with probability 3**-16 < 1e-7, and the bound keeps
# a build (and so the load of an edited file) from asking for unbounded work.
MAX_COPIES = 16


@dataclass(frozen=True)
class SchemeConfig:
    """Build parameters: exponent, radius, cover tradeoff knob, seeds, copies.

    ``delta`` in (0, 1] widens covers (beta = log2(p_eff) / delta), trading
    approximation for sparsity. Copy counts realize the amplification
    policy: ``base_copies``/``child_copies`` lift the 1/3-failure primitives
    at each ladder level, and every norm level is repeated
    ceil(log2(3 * log2 p)) times. Each copy count lies in [1, MAX_COPIES].
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
        if not _is_int(self.seed) or self.seed < 0:
            raise UsageError(f"seed must be a non-negative integer, got {self.seed!r}")
        if not (_is_int(self.base_copies) and _is_int(self.child_copies)):
            raise UsageError("copy counts must be integers")
        if not (1 <= self.base_copies <= MAX_COPIES and 1 <= self.child_copies <= MAX_COPIES):
            raise UsageError(f"copy counts must lie in [1, {MAX_COPIES}]")
        # keep plain ints (numpy integers pass the checks) so a save can write them
        for name in ("seed", "base_copies", "child_copies"):
            object.__setattr__(self, name, int(getattr(self, name)))


def _is_int(value) -> bool:
    # numpy integers count; bools (Python's and numpy's) do not
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


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
            "closed_form_literal": (self.closed_form_literal
                                    if math.isfinite(self.closed_form_literal) else None),
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
    """(16 * log2 p)^(log2 p), the bound under un-clamped textbook constants;
    inf where it overflows float64."""
    lg = math.log2(p)
    try:
        return (16.0 * lg) ** lg
    except OverflowError:
        return math.inf


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
class PointSet:
    """One point set (the root's points, or a cover cluster's members mapped
    one norm level down) and every node copy over it. ``ids`` ascend, so a
    point id maps to its row by binary search.

    Each owner of the set, a copy of its parent set (one owner at the root),
    holds ``nodes`` nodes over it, each with ``node_copies`` copies; copy i
    belongs to owner i // (nodes * node_copies). ``group`` holds every
    copy's base draws in copy order: one l2 leaf per copy at t == 2,
    ``base_copies`` grid schemes per copy at larger t; a set that scans has an
    ``L2Scan``, one answer for all its owners. ``ladder`` holds the set's
    refinement steps, which every copy walks.
    """

    t: float
    ids: np.ndarray
    vectors: np.ndarray
    nodes: int
    node_copies: int
    ladder: list = field(default_factory=list)
    group: L2Group | L2Scan | CoarseGroup | None = field(default=None, repr=False)

    def row_of(self, point_id: int) -> int:
        return int(self.ids.searchsorted(point_id))

    def vector_of(self, point_id: int) -> np.ndarray:
        return self.vectors[self.row_of(point_id)]

    @property
    def copies(self) -> tuple:
        """The set once per copy of one node: the read surface of the
        benchmark's shape gate (perfbench/workloads.py), nothing else."""
        return (self,) * self.node_copies


@dataclass
class Reduction:
    """A cover cluster's scaled map and the child set of its mapped members.
    A singleton has neither: a lookup returns its lone member, the
    cluster's center."""

    mazur: MazurMapSpec | None = None
    child: PointSet | None = None

    @property
    def copies(self) -> tuple:
        """The child set once per child copy, none for a singleton: the read
        surface of the benchmark's shape gate, nothing else."""
        return () if self.child is None else (self.child,) * self.child.nodes


@dataclass
class LadderLevel:
    """One refinement step of a point set: its cover and, per cover
    cluster, the cluster's reduction."""

    index: int
    base_approx: float
    new_approx: float
    cover: SparseCover
    children: list


@dataclass
class LpScheme:
    """Top-level index: the root point set, built by ``config`` over points
    of dimension ``d``, and its bound ``approximation_bound(config, d)``."""

    config: SchemeConfig
    d: int
    bound: ApproxBound
    root: PointSet

    @property
    def p(self) -> float:
        return self.config.p

    @property
    def p_effective(self) -> float:
        return self.bound.p_effective

    @property
    def holder_factor(self) -> float:
        return self.bound.holder_factor

    @property
    def r_effective(self) -> float:
        """The radius every node is built for: the Holder factor times r."""
        return self.bound.holder_factor * self.config.r


@dataclass
class QueryAnswer:
    id: int
    distance: float
    trace: list


def _dedup(dataset: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Ids and rows of the first occurrence of each distinct point, ordered by id."""
    _, first_idx = np.unique(dataset.vectors, axis=0, return_index=True)
    keep = first_idx[np.argsort(dataset.ids[first_idx])]
    return dataset.ids[keep], dataset.vectors[keep]


def ladder_steps(t: float, r: float, bound: ApproxBound) -> list:
    """(cover radius, base_approx, new_approx) of each ladder level of a
    norm-t node built for radius r; the bound's plan fixes the count, and a
    t == 2 node has none.

    Each step is refined with the effective beta of the cover it carves,
    diameter_bound / radius, and must reproduce the planned value.
    """
    if t == 2.0:
        return []
    plan = bound.level_for(t)
    c_child = bound.level_for(t / 2.0).final if t > 4.0 else L2_LEAF_APPROX
    steps, c_base = [], plan.initial_approx
    for j, c_plan in enumerate(plan.ladder, start=1):
        radius = 2.0 * c_base * r
        if not math.isfinite(radius):
            raise NumericRangeError(f"cover radius 2 c r overflows at t={t} for radius {r}")
        beta_eff = diameter_bound_for(radius, bound.beta) / radius
        c_new = refine_approx(t, t / 2.0, c_child, beta_eff, c_base)
        if not math.isclose(c_new, c_plan, rel_tol=1e-9):
            raise AssertionError(
                f"ladder bound drifted from plan at t={t} j={j}: {c_new} vs {c_plan}"
            )
        steps.append((radius, c_base, c_new))
        c_base = c_new
    return steps


def map_cluster(pset: PointSet, cluster: Cluster, cover: SparseCover, nodes: int) -> Reduction:
    """The reduction of a cover's cluster: its map, and as the child set,
    with ``nodes`` nodes per owner, its members centered on its center and
    mapped into l_{t/2}."""
    if len(cluster.member_ids) == 1:
        return Reduction()
    mazur = MazurMapSpec(p=pset.t, q=pset.t / 2.0, c0=cover.diameter_bound)
    rows = pset.ids.searchsorted(cluster.member_ids)
    try:
        image = mazur_map_points(mazur, pset.vectors[rows] - pset.vector_of(cluster.center_id))
    except NumericRangeError as exc:
        raise NumericRangeError(
            f"signed-power map overflow in cluster centered at id "
            f"{cluster.center_id} (t={pset.t}): {exc}"
        ) from exc
    return Reduction(mazur, PointSet(pset.t / 2.0, cluster.member_ids, image, nodes,
                                     pset.node_copies))


def carve(pset: PointSet, r: float, bound: ApproxBound, child_copies: int) -> None:
    """Fill the ladder of a point set, and of every set carved from it:
    per ladder step its cover and each cluster's reduction.

    Carving draws nothing at random, so it runs once per point set, and
    every copy over the set shares its covers, maps and child sets; only
    their base schemes and seed paths differ.
    """
    for j, (radius, c_base, c_new) in enumerate(ladder_steps(pset.t, r, bound), start=1):
        cover = build_sparse_cover(Dataset(pset.vectors, pset.t, ids=pset.ids), radius, bound.beta)
        children = [map_cluster(pset, cluster, cover, child_copies) for cluster in cover.clusters]
        for reduction in children:
            if reduction.child is not None:
                carve(reduction.child, r, bound, child_copies)
        pset.ladder.append(LadderLevel(j, c_base, c_new, cover, children))


def _build_set(pset: PointSet, paths: list, r: float, config: SchemeConfig) -> None:
    """Build the group of a carved point set, given the seed path of each of
    its nodes in order, after those of every set carved from it: one
    ``build_l2_ann`` or ``build_coarse_ann`` call draws every copy's base
    schemes, each from its seed path, into the group. An l2 set that
    ``scan_fits`` its copies draws nothing: its group is an ``L2Scan``.
    """
    copies = [path + (TAG_NODE_COPY, ci) for path in paths for ci in range(pset.node_copies)]
    if pset.t == 2.0 and scan_fits(*pset.vectors.shape, len(copies), PRIMITIVE_FAILURE):
        pset.group = L2Scan(pset.ids, pset.vectors, r)
        return
    if pset.t == 2.0:
        pset.group = build_l2_ann(pset.ids, pset.vectors, r, PRIMITIVE_FAILURE,
                                  [_seed(config.seed, path + (TAG_BASE, 0)) for path in copies])
        return
    for level in pset.ladder:
        for ki, reduction in enumerate(level.children):
            if reduction.child is not None:
                tail = (TAG_LADDER, level.index, TAG_CLUSTER, ki, TAG_CHILD)
                _build_set(reduction.child,
                           [path + tail + (cc,) for path in copies
                            for cc in range(reduction.child.nodes)], r, config)
    pset.group = build_coarse_ann(pset.ids, pset.vectors, pset.t, r, [
        [_seed(config.seed, path + (TAG_BASE, bi)) for bi in range(config.base_copies)]
        for path in copies])


def preprocess(dataset: Dataset, config: SchemeConfig) -> LpScheme:
    """Build the full recursive index over the dataset."""
    if dataset.n == 0:
        raise UsageError("cannot index an empty dataset")
    if dataset.p != config.p:
        raise UsageError(
            f"dataset exponent {dataset.p} disagrees with config exponent {config.p}"
        )
    bound = approximation_bound(config, dataset.d)
    ids, vectors = _dedup(dataset)
    scheme = LpScheme(config=config, d=dataset.d, bound=bound, root=None)
    root = PointSet(bound.p_effective, ids, vectors, 1, norm_level_copies(bound.p_effective))
    carve(root, scheme.r_effective, bound, config.child_copies)
    _build_set(root, [()], scheme.r_effective, config)
    scheme.root = root
    return scheme


def _walk(pset: PointSet, live: np.ndarray, q: np.ndarray) -> list:
    """Per owner of a point set, (id, distance in the set's norm, trace) of
    the first of its copies, in copy order, at the least distance, or None;
    ``live`` marks the owners to answer.

    A scanned l2 set's one answer is every live owner's. Otherwise every
    copy of a live owner that its base schemes answer (an l2 leaf at
    t == 2, grids above) is a walker, and the walkers climb the set's
    ladder, empty at t == 2, in lock-step. Per level, one gather routes
    them all, each routed cluster's map is applied once and its child set
    is walked once for every walker routed there (there, the set's copies
    are the owners), and one distance call re-verifies every candidate.
    """
    if isinstance(pset.group, L2Scan):
        hit = query_l2_scan(pset.group, q)
        return [(*hit, [hit[0]]) if on and hit else None for on in live.tolist()]
    per = pset.nodes * pset.node_copies
    lookup = query_l2_ann if pset.t == 2.0 else query_coarse_ann
    starts = lookup(pset.group, q, np.repeat(live, per))
    if starts is None:
        return [None] * live.size
    found, x_id, x_dist = starts
    walkers = found.nonzero()[0]
    x_id, x_dist = x_id[walkers], x_dist[walkers]
    traces = [[x] for x in x_id.tolist()]
    for level in pset.ladder:
        routes = level.cover.covering_ref[pset.ids.searchsorted(x_id)]
        cand = np.zeros(walkers.size, dtype=np.int64)
        has = np.zeros(walkers.size, dtype=bool)
        for k in sorted(set(routes.tolist())):
            routed = (routes == k).nonzero()[0]
            reduction, center_id = level.children[k], level.cover.clusters[k].center_id
            if reduction.child is None:
                cand[routed], has[routed] = center_id, True
                continue
            img_q = mazur_map_apply(reduction.mazur, q - pset.vector_of(center_id))
            sub_live = np.zeros(found.size, dtype=bool)
            sub_live[walkers[routed]] = True
            res = _walk(reduction.child, sub_live, img_q)
            for w in routed:
                if res[walkers[w]] is not None:
                    cand[w], has[w] = res[walkers[w]][0], True
        w = has.nonzero()[0]
        if w.size:
            d_cand = _kernels.dists_to_point(pset.vectors[pset.ids.searchsorted(cand[w])], q, pset.t)
            better = d_cand < x_dist[w]
            w = w[better]
            x_id[w], x_dist[w] = cand[w], d_cand[better]
        for trace, x in zip(traces, x_id):
            trace.append(int(x))
    best = [None] * live.size
    for w, i in enumerate(walkers):
        o = i // per
        if best[o] is None or x_dist[w] < best[o][1]:
            best[o] = (int(x_id[w]), float(x_dist[w]), traces[w])
    return best


def query(scheme: LpScheme, q) -> QueryAnswer | None:
    """Answer a near-neighbor query; distance is reported in the original lp."""
    q = check_query(q, scheme.d)
    res = _walk(scheme.root, np.ones(1, dtype=bool), q)[0]
    if res is None:
        return None
    pid, _, trace = res
    true_dist = float(_kernels.dists_to_point(scheme.root.vector_of(pid), q, scheme.p)[0])
    return QueryAnswer(id=int(pid), distance=true_dist, trace=trace)


# ---------------------------------------------------------------------------
# space accounting
# ---------------------------------------------------------------------------

@dataclass
class SpaceReport:
    total: int
    per_level: dict  # "t=<t>/base" or "t=<t>/ladder<i>": points stored there
    copy_counts: dict
    table_bytes: dict  # "l2" and "coarse": bytes of the groups' derived tables
    l2_sets: dict  # "scan" and "lsh": l2 point sets scanned, and holding tables

    def as_dict(self) -> dict:
        return asdict(self)


def space_usage(scheme: LpScheme) -> SpaceReport:
    """Exact recursive count of points stored across all substructures, per
    norm level and ladder step: every base scheme (every l2 leaf, scanned or
    not) stores its point set, and every copy's ladder step its cover's
    members. Also the bytes of the bucket tables its groups derive, and how
    many l2 point sets scan and how many hold tables. Each point set is
    visited once and its counts are multiplied by its copy count."""
    per_level: dict = {}
    table_bytes = {"l2": 0, "coarse": 0}
    l2_sets = {"scan": 0, "lsh": 0}

    def add(pset: PointSet, step: str, points: int) -> None:
        key = f"t={int(pset.t)}/{step}"
        per_level[key] = per_level.get(key, 0) + points

    def visit(pset: PointSet, owners: int) -> None:
        copies = owners * pset.nodes * pset.node_copies
        group = pset.group
        coarse = isinstance(group, CoarseGroup)
        add(pset, "base", (group.copy_of.size if coarse else copies) * int(pset.ids.size))
        if isinstance(group, L2Scan):
            l2_sets["scan"] += 1
        else:
            table_bytes["coarse" if coarse else "l2"] += group.table.nbytes
            l2_sets["lsh"] += not coarse
        for level in pset.ladder:
            members = sum(len(cl.member_ids) for cl in level.cover.clusters)
            add(pset, f"ladder{level.index}", copies * members)
            for reduction in level.children:
                if reduction.child is not None:
                    visit(reduction.child, copies)

    visit(scheme.root, 1)
    return SpaceReport(
        total=sum(per_level.values()),
        per_level=per_level,
        copy_counts={
            "norm_level_copies": norm_level_copies(scheme.p_effective),
            "base_copies": scheme.config.base_copies,
            "cluster_child_copies": scheme.config.child_copies,
        },
        table_bytes=table_bytes,
        l2_sets=l2_sets,
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
    if not _is_int(seed) or seed < 0:
        raise UsageError(f"seed must be a non-negative integer, got {seed!r}")
    q = check_query(q, dataset.d)
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
