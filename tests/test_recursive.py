import math

import numpy as np
import pytest

import lpann
from lpann import (
    Dataset,
    SchemeConfig,
    UsageError,
    approximation_bound,
    exact_nn,
    literal_closed_form,
    load_index,
    lp_distance,
    nns_search,
    preprocess,
    query,
    refine_approx,
    run_trials,
    save_index,
    space_usage,
)
from lpann import (
    build_coarse_ann,
    build_l2_ann,
    query_coarse_ann,
    query_l2_ann,
)
from lpann.base_schemes import L2Scan, query_l2_scan
from lpann.cli import make_scheme_builder
from lpann.geometry import mazur_map_apply
from lpann.oracle import TrialSpec, make_planted_instance
from lpann.recursive import MAX_COPIES, normalize_exponent, norm_level_copies


def cfg(p=4.0, r=1.0, **kw):
    return SchemeConfig(p=p, r=r, **kw)


def test_every_export_resolves_once():
    # a stale name in __all__ would fail only at ``from lpann import *``
    assert len(set(lpann.__all__)) == len(lpann.__all__)
    missing = [name for name in lpann.__all__ if not hasattr(lpann, name)]
    assert missing == []
    namespace: dict = {}
    exec("from lpann import *", namespace)
    assert set(lpann.__all__) <= namespace.keys()


# ---------------------------------------------------------------------------
# calculator
# ---------------------------------------------------------------------------

def test_refine_approx_frozen_value():
    # (p/t)^(t/p) c_t^(t/p) (4 beta_eff c_base)^(1-t/p) with 4*2*100 = 800
    got = refine_approx(4.0, 2.0, 2.0, 2.0, 100.0)
    assert got == pytest.approx(2.0 * math.sqrt(800.0), rel=1e-12)
    assert got == pytest.approx(56.568542494923804, rel=1e-12)


def test_refine_approx_degenerate_t_equals_p():
    assert refine_approx(4.0, 4.0, 7.5, 123.0, 999.0) == 7.5


def test_ladder_recurrence_contracts_to_twice_fixed_point():
    # with S = 8 * beta_eff * c_t and c0 = 2^16, four steps reach S^(15/16) * 2
    beta_eff, c_t = 2.0, 2.0
    s_fixed = 8.0 * beta_eff * c_t
    c = 2.0 ** 16
    for _ in range(4):
        c = refine_approx(4.0, 2.0, c_t, beta_eff, c)
    assert c == pytest.approx(s_fixed ** (15.0 / 16.0) * (2.0 ** 16) ** (1.0 / 16.0), rel=1e-12)
    assert c <= 2.0 * s_fixed


def test_k_formula_p4_d16():
    bound = approximation_bound(cfg(), 16)
    lvl = bound.levels[0]
    assert lvl.initial_approx == 128.0  # 4 * 16^(5/4)
    assert lvl.k_nominal == 3
    # the fixed point exceeds c0 here, so no ladder level improves
    assert lvl.ladder == ()
    assert bound.c_p == 128.0


def test_ladder_engages_at_d32():
    bound = approximation_bound(cfg(), 32)
    lvl = bound.levels[0]
    assert lvl.k_nominal == 4
    assert len(lvl.ladder) == 4
    assert all(a > b for a, b in zip((lvl.initial_approx,) + lvl.ladder, lvl.ladder))
    assert bound.c_p == lvl.ladder[-1]


def test_literal_closed_form_values():
    assert literal_closed_form(4.0) == 1024.0
    assert literal_closed_form(8.0) == 110592.0
    assert literal_closed_form(16.0) == 16777216.0
    assert literal_closed_form(1e308) == math.inf  # (16 log2 p)^(log2 p) overflows


def test_normalize_exponent():
    assert normalize_exponent(4.0, 32) == (4.0, 1.0)
    p_eff, holder = normalize_exponent(8.0, 32)
    assert p_eff == 4.0 and holder == pytest.approx(32.0 ** 0.125, rel=1e-14)
    p_eff, holder = normalize_exponent(16.0, 1024)
    assert p_eff == 8.0 and holder == pytest.approx(1024.0 ** (1 / 8 - 1 / 16), rel=1e-14)
    p_eff, holder = normalize_exponent(3.0, 16)
    assert p_eff == 2.0 and holder == pytest.approx(16.0 ** (1 / 2 - 1 / 3), rel=1e-14)


def test_norm_level_copies():
    assert norm_level_copies(4.0) == 3  # ceil(log2 6)
    assert norm_level_copies(8.0) == 4  # ceil(log2 9)
    assert norm_level_copies(2.0) == 2  # ceil(log2 3)


def test_clamped_bound_includes_holder_factor():
    b4 = approximation_bound(cfg(p=4.0), 32)
    b8 = approximation_bound(cfg(p=8.0), 32)
    assert b8.p_effective == 4.0
    assert b8.holder_factor == pytest.approx(32.0 ** 0.125, rel=1e-14)
    assert b8.c_p == pytest.approx(b8.holder_factor * b4.c_p, rel=1e-14)


# ---------------------------------------------------------------------------
# built scheme
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_scheme():
    spec = TrialSpec(n=250, d=32, p=4.0, r=1.0, trials=1, seed=13)
    dataset, q, planted = make_planted_instance(spec)
    scheme = preprocess(dataset, cfg(seed=4))
    return dataset, q, planted, scheme


def test_single_point_scheme():
    ds = Dataset(np.array([[0.5] * 32]), 4.0)
    scheme = preprocess(ds, cfg(seed=1))
    ans = query(scheme, ds.vectors[0] + 0.01)
    assert ans is not None and ans.id == 0
    assert ans.distance <= 1.0


def test_query_answer_distance_is_original_norm(small_scheme):
    dataset, q, _, _ = small_scheme
    spec = TrialSpec(n=100, d=32, p=8.0, r=1.0, trials=1, seed=3)
    ds8, q8, _ = make_planted_instance(spec)
    scheme8 = preprocess(ds8, cfg(p=8.0, seed=2))
    ans = query(scheme8, q8)
    assert ans is not None
    assert ans.distance == pytest.approx(
        lp_distance(ds8.vectors[ans.id], q8, 8.0), rel=1e-14
    )
    assert ans.distance <= scheme8.bound.c_p * 1.0


def test_monotone_ladder_trace(small_scheme):
    dataset, _, planted, scheme = small_scheme
    rng = np.random.default_rng(77)
    for _ in range(20):
        g = rng.standard_normal(32)
        norm = (np.abs(g) ** 4.0).sum() ** 0.25
        q = dataset.vectors[planted] + 0.9 * g / norm
        ans = query(scheme, q)
        assert ans is not None
        dists = [lp_distance(dataset.vectors[i], q, 4.0) for i in ans.trace]
        assert all(a >= b - 1e-12 for a, b in zip(dists, dists[1:]))
        assert ans.distance <= scheme.bound.c_p * 1.0


def test_per_refinement_conditional_success(small_scheme):
    # conditioned on the previous iterate meeting its bound, the refined
    # iterate meets the tighter one in a 5/6 - 0.05 fraction of events
    dataset, _, planted, scheme = small_scheme
    level = scheme.bound.levels[0]
    bounds = (level.initial_approx,) + level.ladder
    rng = np.random.default_rng(99)
    hits, events = 0, 0
    for _ in range(30):
        g = rng.standard_normal(32)
        q = dataset.vectors[planted] + 0.9 * g / (np.abs(g) ** 4.0).sum() ** 0.25
        ans = query(scheme, q)
        dists = [lp_distance(dataset.vectors[i], q, 4.0) for i in ans.trace]
        for j in range(1, len(dists)):
            if dists[j - 1] <= bounds[j - 1] * scheme.r_effective:
                events += 1
                hits += dists[j] <= bounds[j] * scheme.r_effective
    assert events > 0
    assert hits / events >= 5.0 / 6.0 - 0.05


def test_non_power_of_two_exponent():
    rng = np.random.default_rng(41)
    ds = Dataset(rng.standard_normal((80, 64)), 6.0)
    scheme = preprocess(ds, cfg(p=6.0, seed=2))
    assert scheme.p_effective == 4.0
    assert scheme.holder_factor == pytest.approx(64.0 ** (1 / 4 - 1 / 6), rel=1e-14)
    q = ds.vectors[3] + 0.05
    ans = query(scheme, q)
    assert ans is not None
    assert ans.distance == pytest.approx(lp_distance(ds.vectors[ans.id], q, 6.0), rel=1e-14)
    assert ans.distance <= scheme.bound.c_p * 1.0


def test_delta_knob_widens_covers():
    bound_tight = approximation_bound(cfg(delta=1.0), 32)
    bound_wide = approximation_bound(cfg(delta=0.5), 32)
    assert bound_wide.beta == 2.0 * bound_tight.beta
    assert bound_wide.c_p >= bound_tight.c_p  # wider covers cost approximation
    rng = np.random.default_rng(4)
    ds = Dataset(rng.standard_normal((60, 32)), 4.0)
    scheme = preprocess(ds, cfg(delta=0.5, seed=8))
    ans = query(scheme, ds.vectors[10] + 0.01)
    assert ans is not None and ans.distance <= scheme.bound.c_p


def test_planted_success_rate_small():
    spec = TrialSpec(n=250, d=32, p=4.0, r=1.0, trials=40, seed=5)
    c_p = approximation_bound(cfg(), 32).c_p
    report = run_trials(make_scheme_builder(4.0, 1.0, 1.0), spec, c_p)
    assert report.build_error is None
    assert report.success_rate >= 2.0 / 3.0


def test_mazur_image_and_liftback_contracts(small_scheme):
    dataset, _, planted, scheme = small_scheme
    level = scheme.root.ladder[0]
    child = next(ch for ch in level.children if ch.mazur is not None)
    cluster = level.cover.clusters[
        next(i for i, ch in enumerate(level.children) if ch is child)
    ]
    mazur = child.mazur
    y = scheme.root.vector_of(cluster.center_id)
    r = scheme.r_effective
    tol = 1e-9 * mazur.c0
    rng = np.random.default_rng(3)
    members = [scheme.root.vector_of(int(m)) for m in cluster.member_ids]

    for x_star in members[:40]:
        g = rng.standard_normal(32)
        q = x_star + 0.9 * r * g / (np.abs(g) ** 4.0).sum() ** 0.25
        if lp_distance(q - y, np.zeros(32), 4.0) > mazur.c0:
            continue
        img_x = mazur_map_apply(mazur, x_star - y)
        img_q = mazur_map_apply(mazur, q - y)
        # image contract: r-near pairs stay r-near after the scaled map
        assert lp_distance(img_x, img_q, 2.0) <= lp_distance(x_star, q, 4.0) + tol
        # lift-back: any member whose image is c_t-near lifts to within c_new
        for z in members[:40]:
            img_z = mazur_map_apply(mazur, z - y)
            if lp_distance(img_z, img_q, 2.0) <= 2.0 * r:
                assert lp_distance(z, q, 4.0) <= level.new_approx * r + tol


def test_clustered_routing_uses_multiple_clusters():
    rng = np.random.default_rng(55)
    d, blob, sep, r = 32, 40, 100.0 * math.sqrt(32), 0.05
    centers = np.zeros((4, d))
    centers[:, 0] = sep * np.arange(4)
    vectors = np.vstack([centers[i] + rng.standard_normal((blob, d)) for i in range(4)])
    ds = Dataset(vectors, 4.0)
    scheme = preprocess(ds, cfg(r=r, seed=6))
    level1 = scheme.root.ladder[0]
    assert len(level1.cover.clusters) >= 2

    g = rng.standard_normal(d)
    q = vectors[5] + 0.9 * r * g / (np.abs(g) ** 4.0).sum() ** 0.25
    ans = query(scheme, q)
    assert ans is not None
    assert ans.id < blob  # stays in the query's blob
    assert ans.distance <= scheme.bound.c_p * r


def test_duplicate_points_are_deduplicated():
    rng = np.random.default_rng(9)
    base = rng.standard_normal((30, 32))
    vectors = np.vstack([base, base[:5]])  # ids 30..34 duplicate 0..4
    ds = Dataset(vectors, 4.0)
    scheme = preprocess(ds, cfg(seed=3))
    assert not np.isin(np.arange(30, 35), scheme.root.ids).any()
    assert np.isin(np.arange(30), scheme.root.ids).all()
    ans = query(scheme, base[2] + 0.01)
    assert ans is not None and ans.id < 30


def test_duplicate_ids_rejected():
    # one id on several rows would let a query report another row's distance
    vectors = np.random.default_rng(9).standard_normal((50, 32))
    with pytest.raises(UsageError, match="distinct"):
        Dataset(vectors, 4.0, ids=np.zeros(50))


def test_reversed_ids_report_the_distance_of_their_own_vector():
    vectors = np.random.default_rng(9).standard_normal((50, 32))
    ids = np.arange(50)[::-1]
    scheme = preprocess(Dataset(vectors, 4.0, ids=ids), cfg(seed=3))
    for row in (3, 17, 40):
        q = vectors[row] + 0.01
        ans = query(scheme, q)
        assert ans is not None
        assert ans.distance == lp_distance(vectors[ids == ans.id][0], q, 4.0)


def test_preprocess_usage_errors():
    with pytest.raises(UsageError):
        preprocess(Dataset(np.zeros((0, 4)), 4.0), cfg())
    with pytest.raises(UsageError):
        preprocess(Dataset(np.zeros((2, 4)), 2.0), cfg(p=4.0))
    with pytest.raises(UsageError):
        SchemeConfig(p=2.0, r=1.0)
    with pytest.raises(UsageError):
        SchemeConfig(p=4.0, r=1.0, delta=0.0)


@pytest.mark.parametrize("field, value", [
    ("seed", -1), ("seed", True), ("seed", 1.0), ("base_copies", 2.5),
    ("base_copies", True), ("child_copies", 2.0), ("child_copies", False),
    ("seed", np.int64(-1)), ("base_copies", np.bool_(True)),
    ("base_copies", MAX_COPIES + 1), ("child_copies", 10**9), ("child_copies", 0),
])
def test_config_needs_integer_copies_and_a_non_negative_seed(field, value):
    with pytest.raises(UsageError):
        SchemeConfig(p=4.0, r=1.0, **{field: value})


def test_config_accepts_numpy_integers(tmp_path):
    config = SchemeConfig(p=4.0, r=1.0, seed=np.int64(3), base_copies=np.int64(2),
                          child_copies=np.uint8(2))
    assert config == cfg(seed=3, base_copies=2, child_copies=2)
    points = Dataset(np.random.default_rng(0).normal(size=(20, 8)), 4.0)
    save_index(preprocess(points, config), tmp_path / "index.lpann")
    assert load_index(tmp_path / "index.lpann").config == config


def test_query_dimension_mismatch(small_scheme):
    *_, scheme = small_scheme
    with pytest.raises(UsageError) as err:
        query(scheme, np.zeros(7))
    assert "7" in str(err.value) and "32" in str(err.value)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_query_rejected(small_scheme, bad):
    *_, scheme = small_scheme
    q = np.zeros(scheme.d)
    q[3] = bad
    with np.errstate(all="raise"), pytest.raises(UsageError, match="non-finite"):
        query(scheme, q)
    ds = Dataset(np.eye(4), 4.0)
    with np.errstate(all="raise"), pytest.raises(UsageError, match="non-finite"):
        nns_search(ds, 4.0, 0.5, np.full(4, bad))


@pytest.fixture(scope="module")
def entry_points():
    """Each function that takes a query point, over the unit vectors of
    dimension 4, as a function of the query."""
    x = np.eye(4)
    ds = Dataset(x, 4.0)
    scheme = preprocess(ds, cfg())
    leaf = build_l2_ann(ds.ids, x, 1.0, 0.1, seeds=[1])
    grid = build_coarse_ann(ds.ids, x, 4.0, 1.0, seeds=[[1]])
    return {
        "query": lambda q: query(scheme, q),
        "nns_search": lambda q: nns_search(ds, 4.0, 0.5, q),
        "query_l2_ann": lambda q: query_l2_ann(leaf, q),
        "query_l2_scan": lambda q: query_l2_scan(L2Scan(ds.ids, x, 1.0), q),
        "query_coarse_ann": lambda q: query_coarse_ann(grid, q),
        "exact_nn": lambda q: exact_nn(ds, q),
    }


@pytest.mark.parametrize("entry", ["query", "nns_search", "query_l2_ann", "query_l2_scan",
                                   "query_coarse_ann", "exact_nn"])
@pytest.mark.parametrize("bad", ["length", "nan", "inf"])
def test_every_entry_point_checks_its_query(entry_points, entry, bad):
    q = {"length": np.zeros(3), "nan": np.array([0.0, math.nan, 0.0, 0.0]),
         "inf": np.array([0.0, 0.0, -math.inf, 0.0])}[bad]
    message = "query dimension 3 does not match dimension 4" if bad == "length" else "non-finite"
    with np.errstate(all="raise"), pytest.raises(UsageError, match=message):
        entry_points[entry](q)


def test_determinism_same_seed(small_scheme):
    dataset, q, _, scheme = small_scheme
    twin = preprocess(dataset, cfg(seed=4))
    rng = np.random.default_rng(1)
    for _ in range(10):
        qq = rng.standard_normal(32)
        a, b = query(scheme, qq), query(twin, qq)
        assert (a is None) == (b is None)
        if a is not None:
            assert a.id == b.id and a.distance == b.distance
    assert space_usage(scheme).per_level == space_usage(twin).per_level


# ---------------------------------------------------------------------------
# space accounting
# ---------------------------------------------------------------------------

def _copies_over(pset, owners=1):
    """(point set, copies over it) for pset and every point set carved
    below it."""
    copies = owners * pset.nodes * pset.node_copies
    yield pset, copies
    for level in pset.ladder:
        for reduction in level.children:
            if reduction.child is not None:
                yield from _copies_over(reduction.child, copies)


def test_space_single_point():
    # every cover of one point is one cluster of it that carves no child
    # set, and every base scheme and every copy's ladder step stores it once
    ds = Dataset(np.zeros((1, 32)), 4.0)
    scheme = preprocess(ds, cfg(seed=1))
    root = scheme.root
    assert root.ladder
    for level in root.ladder:
        assert [cl.member_ids.tolist() for cl in level.cover.clusters] == [[0]]
        assert all(reduction.child is None for reduction in level.children)
    report = space_usage(scheme)
    copies = root.nodes * root.node_copies
    assert report.total == root.group.copy_of.size + copies * len(root.ladder)
    assert report.total == sum(report.per_level.values())


def test_space_cover_entries_match_sparsity(small_scheme):
    # every cover holds as many members as its declared sparsity, and the
    # report's ladder steps count that sparsity once per copy
    *_, scheme = small_scheme
    expected = {}
    for pset, copies in _copies_over(scheme.root):
        for level in pset.ladder:
            members = sum(len(cl.member_ids) for cl in level.cover.clusters)
            assert members == level.cover.sparsity
            key = f"t={int(pset.t)}/ladder{level.index}"
            expected[key] = expected.get(key, 0) + copies * level.cover.sparsity
    ladders = {k: v for k, v in space_usage(scheme).per_level.items() if "ladder" in k}
    assert expected and ladders == expected


# ---------------------------------------------------------------------------
# nearest-neighbor wrapper
# ---------------------------------------------------------------------------

def test_nns_single_point():
    ds = Dataset(np.array([[1.0] * 8]), 4.0)
    assert nns_search(ds, 4.0, 0.5, np.zeros(8)) == 0


@pytest.mark.parametrize("seed", [-1, 1.5, True, np.int64(-1)])
def test_nns_needs_a_non_negative_integer_seed(seed):
    ds = Dataset(np.random.default_rng(12).standard_normal((20, 8)), 4.0)
    with pytest.raises(UsageError):
        nns_search(ds, 4.0, 0.5, np.zeros(8), seed=seed)


def test_nns_accepts_a_numpy_integer_seed():
    ds = Dataset(np.random.default_rng(12).standard_normal((20, 8)), 4.0)
    q = np.full(8, 0.1)
    assert nns_search(ds, 4.0, 0.5, q, seed=np.int64(3)) == nns_search(ds, 4.0, 0.5, q, seed=3)


def test_nns_coincident_query_returns_it():
    rng = np.random.default_rng(12)
    ds = Dataset(rng.standard_normal((40, 16)), 4.0)
    cache = {}
    assert nns_search(ds, 4.0, 0.5, ds.vectors[0], seed=3, cache=cache) == 0


def test_nns_ratio_contract():
    rng = np.random.default_rng(31)
    n, d, p, slack = 500, 32, 4.0, 0.5
    ds = Dataset(rng.standard_normal((n, d)), p)
    c_p = approximation_bound(SchemeConfig(p=p, r=1.0), d).c_p
    cache = {}
    good = 0
    queries = 200
    for _ in range(queries):
        q = rng.standard_normal(d)
        rid = nns_search(ds, p, slack, q, seed=7, cache=cache)
        assert rid is not None
        _, exact = exact_nn(ds, q)
        got = lp_distance(ds.vectors[rid], q, p)
        if got <= c_p * (1.0 + slack) * exact:
            good += 1
    assert good / queries >= 2.0 / 3.0
