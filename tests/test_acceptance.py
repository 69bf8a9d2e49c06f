"""Acceptance suite.

Each test realizes one acceptance criterion at its stated tolerance and
prints a single PASS/FAIL line (run with ``pytest -s`` to see them). Heavy
builds are shared through module-scoped fixtures.
"""

import math
import time

import numpy as np
import pytest

from lpann import (
    Dataset,
    MazurMapSpec,
    SchemeConfig,
    approximation_bound,
    build_l2_ann,
    build_coarse_ann,
    build_sparse_cover,
    exact_nn,
    fit_scaling,
    mazur_map_points,
    preprocess,
    query,
    query_coarse_ann,
    query_l2_ann,
    run_trials,
    space_usage,
    verify_cover,
)
from lpann.cli import make_scheme_builder, run_bench_campaign
from lpann.oracle import TrialSpec, make_planted_instance
from lpann.recursive import ladder_steps


def _line(key: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"\nACCEPTANCE {key}: {status}{suffix}")


def _lp_norms(mat: np.ndarray, p: float) -> np.ndarray:
    # independent of the package kernels on purpose
    return (np.abs(mat) ** p).sum(axis=1) ** (1.0 / p)


def _sample_ball(rng, count, d, p, c0):
    g = rng.standard_normal((count, d))
    return g * (c0 * rng.random(count) ** (1.0 / d) / _lp_norms(g, p))[:, None]


# ---------------------------------------------------------------------------
# criterion 1: signed-power map distortion suite
# ---------------------------------------------------------------------------

def test_criterion_1_mazur_distortion():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1001)
    pairs, d = 10_000, 16
    ok = True
    worst = 0.0
    for p, q, c0 in ((4.0, 2.0, 1.0), (4.0, 2.0, 10.0), (8.0, 4.0, 2.0)):
        xs = _sample_ball(rng, pairs, d, p, c0)
        ys = _sample_ball(rng, pairs, d, p, c0)
        spec = MazurMapSpec(p=p, q=q, c0=c0)
        img = _lp_norms(mazur_map_points(spec, xs) - mazur_map_points(spec, ys), q)
        src = _lp_norms(xs - ys, p)
        slack = 1e-9 * c0
        upper_ok = bool((img <= src + slack).all())
        lower = (q / p) * (2.0 * c0) ** (1.0 - p / q) * src ** (p / q)
        lower_ok = bool((lower <= img + slack).all())
        ok = ok and upper_ok and lower_ok
        worst = max(worst, float((img - src).max() / c0), float((lower - img).max() / c0))
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    _line("C1 mazur-distortion", ok, f"worst_violation={worst:.2e} c0, {elapsed:.1f}s")
    assert ok


# ---------------------------------------------------------------------------
# criterion 2: sparse cover suite
# ---------------------------------------------------------------------------

def _reference_radius(d: int) -> float:
    # characteristic scale of the Gaussian cloud, held fixed across n so the
    # fit below measures scaling in n alone: 2% quantile of pairwise distance
    rng = np.random.default_rng(900 + d)
    sample = rng.standard_normal((250, d))
    dists = []
    for i in range(len(sample) - 1):
        dists.append(_lp_norms(sample[i + 1:] - sample[i], 2.0))
    return float(np.quantile(np.concatenate(dists), 0.02))


def test_criterion_2_sparse_cover_suite():
    t0 = time.perf_counter()
    ns = (250, 500, 1000, 2000)
    ok = True
    details = []
    for d in (8, 32):
        radius = _reference_radius(d)
        for beta in (2.0, 3.0):
            sparsities = []
            for n in ns:
                rng = np.random.default_rng(2000 + n + d)
                ds = Dataset(rng.standard_normal((n, d)), 2.0)
                cover = build_sparse_cover(ds, radius, beta)
                check = verify_cover(cover, ds)
                ok = ok and check.cover_ok
                ok = ok and check.max_diameter <= cover.diameter_bound
                sparsities.append((n, cover.sparsity))
            slope = fit_scaling(sparsities)
            limit = 1.0 + 1.0 / beta + 0.15
            details.append(f"d={d},beta={beta}: slope={slope:.3f}<={limit:.2f}")
            ok = ok and slope <= limit
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 120.0
    _line("C2 sparse-cover", ok, "; ".join(details) + f", {elapsed:.1f}s")
    assert ok


# ---------------------------------------------------------------------------
# criterion 3: base-scheme contracts
# ---------------------------------------------------------------------------

class _L2Index:
    def __init__(self, dataset: Dataset, seed: int):
        self.group = build_l2_ann(
            dataset.ids, dataset.vectors, r=1.0, delta_fail=0.05, seeds=[seed]
        )

    def query(self, q):
        hits = query_l2_ann(self.group, q)
        return None if hits is None else (int(hits[1][0]), float(hits[2][0]))


class _CoarseIndex:
    def __init__(self, dataset: Dataset, seed: int):
        self.group = build_coarse_ann(
            dataset.ids, dataset.vectors, p=dataset.p, r=1.0, seeds=[[seed]]
        )

    def query(self, q):
        starts = query_coarse_ann(self.group, q)
        return None if starts is None else (int(starts[1][0]), float(starts[2][0]))


def test_criterion_3_base_scheme_contracts():
    t0 = time.perf_counter()
    l2_spec = TrialSpec(n=500, d=32, p=2.0, r=1.0, rho=0.9, trials=200, seed=3001)
    l2_report = run_trials(lambda ds, s: _L2Index(ds, s), l2_spec, c_target=2.0)
    l2_ok = l2_report.success_rate >= 1.0 - 0.05 - 0.05

    coarse_spec = TrialSpec(n=500, d=32, p=4.0, r=1.0, rho=0.9, trials=200, seed=3002)
    c0 = 4.0 * 32.0 ** (1.0 + 1.0 / 4.0)
    coarse_report = run_trials(lambda ds, s: _CoarseIndex(ds, s), coarse_spec, c_target=c0)
    coarse_ok = coarse_report.success_rate >= 2.0 / 3.0
    bound_ok = all(
        o.returned_distance is None or o.returned_distance <= c0 * 1.0 + 1e-12
        for o in coarse_report.outcomes
    )
    elapsed = time.perf_counter() - t0
    ok = l2_ok and coarse_ok and bound_ok and elapsed < 60.0
    _line(
        "C3 base-schemes",
        ok,
        f"l2_rate={l2_report.success_rate:.3f}>=0.90, "
        f"coarse_rate={coarse_report.success_rate:.3f}>=0.667, "
        f"re-verified={bound_ok}, {elapsed:.1f}s",
    )
    assert ok


# ---------------------------------------------------------------------------
# criteria 4 + 5 share one p = 4 run; criterion 4 adds p = 8
# ---------------------------------------------------------------------------

N_MAIN, D_MAIN, TRIALS_MAIN = 1000, 32, 300


@pytest.fixture(scope="module")
def p4_run():
    t_start = time.perf_counter()
    spec = TrialSpec(n=N_MAIN, d=D_MAIN, p=4.0, r=1.0, rho=0.9, trials=TRIALS_MAIN, seed=4001)
    dataset, q0, planted = make_planted_instance(spec)
    config = SchemeConfig(p=4.0, r=1.0, seed=4002)
    bound = approximation_bound(config, D_MAIN)
    scheme = preprocess(dataset, config)

    rng = np.random.default_rng(4003)
    planted_vec = dataset.vectors[planted]
    queries = [q0]
    for _ in range(TRIALS_MAIN - 1):
        g = rng.standard_normal(D_MAIN)
        queries.append(planted_vec + 0.9 * g / _lp_norms(g.reshape(1, -1), 4.0)[0])

    level1 = scheme.root.ladder[0]
    _, c_base, _ = ladder_steps(scheme.root.t, scheme.r_effective, bound)[0]
    base_bound = c_base * scheme.r_effective

    records = []
    for q in queries:
        ans = query(scheme, q)
        exact_id, exact_dist = exact_nn(dataset, q)
        success = ans is not None and ans.distance <= bound.c_p * 1.0
        ratio = (ans.distance / exact_dist) if (ans and exact_dist > 0) else None

        # copy 0's coarse start, from the root's group of every copy's grids
        starts = query_coarse_ann(scheme.root.group, q)
        start = None
        if starts is not None and starts[0][0]:
            start = (int(starts[1][0]), float(starts[2][0]))
        containment = None
        if start is not None and start[1] <= base_bound:
            ci = level1.cover.covering_ref[scheme.root.row_of(start[0])]
            members = level1.cover.clusters[ci].member_ids
            containment = bool(np.isin(exact_id, members))
        records.append((success, ratio, containment))
    return dataset, scheme, bound, records, time.perf_counter() - t_start


def test_criterion_4_end_to_end_contract(p4_run):
    t0 = time.perf_counter()
    _, _, bound4, records, fixture_s = p4_run
    rate4 = sum(1 for s, _, _ in records if s) / len(records)
    ratios = sorted(r for _, r, _ in records if r is not None)
    p90_4 = ratios[int(0.9 * len(ratios))] if ratios else float("nan")

    spec8 = TrialSpec(n=N_MAIN, d=D_MAIN, p=8.0, r=1.0, rho=0.9, trials=TRIALS_MAIN, seed=4008)
    bound8 = approximation_bound(SchemeConfig(p=8.0, r=1.0), D_MAIN)
    report8 = run_trials(make_scheme_builder(8.0, 1.0, 1.0), spec8, c_target=bound8.c_p)
    rate8 = report8.success_rate
    p90_8 = report8.ratio_quantiles["p90"]

    elapsed = time.perf_counter() - t0 + fixture_s
    ok = rate4 >= 2.0 / 3.0 and rate8 >= 2.0 / 3.0 and elapsed < 600.0
    _line(
        "C4 end-to-end",
        ok,
        f"p=4: rate={rate4:.3f} c_p={bound4.c_p:.1f} p90_ratio={p90_4:.2f}; "
        f"p=8: rate={rate8:.3f} c_p={bound8.c_p:.1f} p90_ratio={p90_8:.2f}; {elapsed:.0f}s",
    )
    assert ok


def test_criterion_5_cluster_containment(p4_run):
    _, _, _, records, _ = p4_run
    applicable = [c for _, _, c in records if c is not None]
    held = sum(applicable)
    rate = held / len(applicable) if applicable else 0.0
    ok = len(applicable) > 0 and rate >= 0.95
    _line(
        "C5 claim-containment",
        ok,
        f"containment {held}/{len(applicable)} = {rate:.3f} >= 0.95",
    )
    assert ok


# ---------------------------------------------------------------------------
# criterion 6: space growth
# ---------------------------------------------------------------------------

def _covers(pset):
    """Every cover of pset's ladder and of the point sets carved below it."""
    for level in pset.ladder:
        yield level.cover
        for reduction in level.children:
            if reduction.child is not None:
                yield from _covers(reduction.child)


def test_criterion_6_space_growth():
    t0 = time.perf_counter()
    totals = []
    counts_ok = True
    for n in (250, 500, 1000, 2000):
        spec = TrialSpec(n=n, d=32, p=4.0, r=1.0, trials=1, seed=6000 + n)
        dataset, _, _ = make_planted_instance(spec)
        scheme = preprocess(dataset, SchemeConfig(p=4.0, r=1.0, seed=n))
        report = space_usage(scheme)
        for cover in _covers(scheme.root):
            if sum(len(cl.member_ids) for cl in cover.clusters) != cover.sparsity:
                counts_ok = False
        totals.append((n, report.total))
    slope = fit_scaling(totals)
    limit = 1.0 + 2.0 / math.log2(4.0) + 0.2
    elapsed = time.perf_counter() - t0
    ok = counts_ok and slope <= limit
    _line(
        "C6 space-growth",
        ok,
        f"slope={slope:.3f}<={limit:.2f}, ladder counts == sparsities: {counts_ok}, {elapsed:.0f}s",
    )
    assert ok


# ---------------------------------------------------------------------------
# criterion 7: approximation calculator vs closed form
# ---------------------------------------------------------------------------

def test_criterion_7_calculator_closed_form():
    ok = True
    details = []
    for p in (4.0, 8.0, 16.0):
        bound = approximation_bound(SchemeConfig(p=p, r=1.0), d=32)
        expected = p ** (4.0 + math.log2(math.log2(p)))
        rel = abs(bound.closed_form_literal - expected) / expected
        details.append(f"p={int(p)}: {bound.closed_form_literal:.6g} rel_err={rel:.1e}")
        ok = ok and rel <= 1e-12
    _line("C7 calculator", ok, "; ".join(details))
    assert ok


# ---------------------------------------------------------------------------
# criterion 8: campaign determinism
# ---------------------------------------------------------------------------

def test_criterion_8_determinism():
    spec = {
        "n_grid": [250, 500],
        "d": 32,
        "p": 4.0,
        "r": 1.0,
        "trials": 40,
        "seed": 77,
    }
    a = run_bench_campaign(dict(spec))
    b = run_bench_campaign(dict(spec))
    a.pop("timing")
    b.pop("timing")
    ok = a == b
    _line("C8 determinism", ok, "reports identical modulo timing")
    assert ok
