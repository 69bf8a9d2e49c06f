"""Ground-truth oracles and the statistical trial harness.

``exact_nn`` is the brute-force reference every randomized answer is judged
against. ``make_planted_instance`` builds synthetic datasets with one point
at a known lp distance from the query, so the near-neighbor contract has
a witness. ``run_trials`` builds an index once per dataset, runs many
planted queries against it, and aggregates success rates and distance
ratios; everything is reproducible from the spec seed.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import UsageError
from .geometry import Dataset, _is_int, check_query
from .recursive import _int_seed, _seed

DISTRIBUTIONS = ("gaussian", "uniform-cube", "clustered")
CLUSTERED_BLOBS = 4
CLUSTERED_SPACING = 100.0  # times sqrt(d), keeps blobs far apart

# seed-path tags (continue the numbering in recursive.py)
TAG_GEN = 7
TAG_TRIAL = 8
TAG_BUILD = 9


@dataclass(frozen=True)
class TrialSpec:
    n: int
    d: int
    p: float
    r: float
    distribution: str = "gaussian"
    rho: float = None  # planted distance; defaults to 0.9 r
    trials: int = 1
    seed: int = 0

    def __post_init__(self):
        if not all(_is_int(v) for v in (self.n, self.d, self.trials)):
            raise UsageError(
                f"n, d and trials must be integers, got {self.n!r}, {self.d!r}, {self.trials!r}"
            )
        if self.n < 1 or self.d < 1:
            raise UsageError("n and d must be >= 1")
        if self.distribution not in DISTRIBUTIONS:
            raise UsageError(
                f"distribution must be one of {DISTRIBUTIONS}, got {self.distribution!r}"
            )
        if self.rho is None:
            object.__setattr__(self, "rho", 0.9 * self.r)
        if not (0.0 <= self.rho <= self.r):
            raise UsageError(f"planted distance {self.rho} must lie in [0, r={self.r}]")
        if self.trials < 1:
            raise UsageError("trials must be >= 1")
        if not _is_int(self.seed) or self.seed < 0:
            raise UsageError(f"seed must be a non-negative integer, got {self.seed!r}")
        for name in ("n", "d", "trials", "seed"):  # plain ints, whatever integer type came in
            object.__setattr__(self, name, int(getattr(self, name)))


def exact_nn(dataset: Dataset, q) -> tuple[int, float]:
    """Exhaustive nearest neighbor in the dataset's norm; ties broken by
    lowest id."""
    if dataset.n == 0:
        raise UsageError("exact_nn needs a non-empty dataset")
    q = check_query(q, dataset.d)
    dist = _kernels.dists_to_point(dataset.vectors, q, dataset.p)
    best = dist.min()
    winners = dataset.ids[np.flatnonzero(dist == best)]
    return int(winners.min()), float(best)


def sample_background(distribution: str, d: int, count: int,
                      rng: np.random.Generator) -> np.ndarray:
    if distribution == "gaussian":
        return rng.standard_normal((count, d))
    if distribution == "uniform-cube":
        return rng.random((count, d))
    spacing = CLUSTERED_SPACING * math.sqrt(d)
    centers = np.zeros((CLUSTERED_BLOBS, d))
    centers[:, 0] = spacing * np.arange(CLUSTERED_BLOBS)
    assign = rng.integers(0, CLUSTERED_BLOBS, size=count)
    return centers[assign] + rng.standard_normal((count, d))


def _lp_norm(g: np.ndarray, p: float) -> float:
    return float(_kernels.dists_to_point(g.reshape(1, -1), np.zeros_like(g), p)[0])


def _planted_query(planted: np.ndarray, rho: float, p: float, rng: np.random.Generator) -> np.ndarray:
    """Point at lp distance exactly rho from ``planted`` along a random direction."""
    if rho == 0.0:
        return planted.copy()
    while True:
        g = rng.standard_normal(planted.shape[0])
        norm = _lp_norm(g, p)
        if norm > 0.0:
            return planted + (rho / norm) * g


def make_planted_instance(spec: TrialSpec) -> tuple[Dataset, np.ndarray, int]:
    """Background points plus one planted point with a query at distance rho.

    Guarantees d(q, X) <= rho <= r; the planted point carries the highest id.
    """
    rng = np.random.default_rng(_seed(spec.seed, (TAG_GEN,)))
    points = sample_background(spec.distribution, spec.d, spec.n, rng)
    dataset = Dataset(points, spec.p)
    planted_id = spec.n - 1
    q = _planted_query(points[planted_id], spec.rho, spec.p, rng)
    return dataset, q, planted_id


@dataclass
class TrialOutcome:
    trial: int
    returned_id: int | None
    returned_distance: float | None
    exact_id: int
    exact_distance: float
    ratio: float
    success: bool
    query_time_s: float


@dataclass
class TrialReport:
    spec: TrialSpec
    c_target: float
    outcomes: list
    success_rate: float
    ratio_quantiles: dict
    mean_query_time_s: float
    build_time_s: float
    space: object = None  # SpaceReport when the index provides one


def _normalize_result(res):
    if res is None:
        return None
    if hasattr(res, "id"):
        return int(res.id)
    return int(res[0])


def run_trials(builder, spec: TrialSpec, c_target: float) -> TrialReport:
    """Build once on a planted dataset, run ``spec.trials`` fresh planted
    queries against it, and aggregate.

    ``builder(dataset, seed)`` must return an object whose ``query(q)``
    yields an answer with an ``id``, an (id, ...) tuple, or None; an
    optional ``space_report`` attribute is propagated. What the builder
    raises propagates. Returned distances are recomputed here, so a
    misreporting index cannot inflate its rate.
    """
    dataset, first_query, planted_id = make_planted_instance(spec)
    build_seed = _int_seed(spec.seed, (TAG_BUILD,))

    t0 = time.perf_counter()
    index = builder(dataset, build_seed)
    build_time = time.perf_counter() - t0

    planted_vec = dataset.vectors[planted_id]
    queries = [first_query]
    for t in range(1, spec.trials):
        rng = np.random.default_rng(_seed(spec.seed, (TAG_TRIAL, t)))
        queries.append(_planted_query(planted_vec, spec.rho, spec.p, rng))

    def one_trial(t: int) -> TrialOutcome:
        q = queries[t]
        t1 = time.perf_counter()
        raw = index.query(q)
        elapsed = time.perf_counter() - t1
        rid = _normalize_result(raw)
        exact_id, exact_dist = exact_nn(dataset, q)
        rdist = None
        if rid is not None:
            rdist = float(
                _kernels.dists_to_point(
                    dataset.vectors[rid].reshape(1, -1), q, spec.p
                )[0]
            )
        if rdist is None:
            ratio, success = math.inf, False
        else:
            if exact_dist > 0.0:
                ratio = rdist / exact_dist
            else:
                ratio = 1.0 if rdist == 0.0 else math.inf
            success = rdist <= c_target * spec.r
        return TrialOutcome(
            trial=t,
            returned_id=rid,
            returned_distance=rdist,
            exact_id=exact_id,
            exact_distance=exact_dist,
            ratio=ratio,
            success=success,
            query_time_s=elapsed,
        )

    outcomes = [one_trial(t) for t in range(spec.trials)]

    ratios = np.asarray([o.ratio for o in outcomes], dtype=np.float64)
    finite = ratios[np.isfinite(ratios)]
    quantiles = {}
    for name, level in (("p50", 0.50), ("p90", 0.90), ("p99", 0.99)):
        quantiles[name] = float(np.quantile(finite, level)) if finite.size else None
    quantiles["max"] = float(ratios.max()) if np.isfinite(ratios.max()) else None

    return TrialReport(
        spec=spec,
        c_target=float(c_target),
        outcomes=outcomes,
        success_rate=sum(o.success for o in outcomes) / spec.trials,
        ratio_quantiles=quantiles,
        mean_query_time_s=float(np.mean([o.query_time_s for o in outcomes])),
        build_time_s=build_time,
        space=getattr(index, "space_report", None),
    )


def fit_scaling(points) -> float:
    """Slope of the log-log least-squares fit over (n, measurement) pairs."""
    pts = list(points)
    if len({n for n, _ in pts}) < 3:
        raise UsageError("fit_scaling needs at least 3 distinct n values")
    for n, m in pts:
        if not (0 < n < math.inf and 0 < m < math.inf):
            raise UsageError(f"n and its measurement must be positive and finite, got ({n}, {m})")
    xs = np.log([float(n) for n, _ in pts])
    ys = np.log([float(m) for _, m in pts])
    return float(np.polyfit(xs, ys, 1)[0])
