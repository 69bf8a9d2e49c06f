import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lpann import (
    UsageError,
    build_coarse_ann,
    build_l2_ann,
    coarse_approximation,
    lp_distance,
    query_coarse_ann,
    query_l2_ann,
)
from lpann.base_schemes import (
    _bucket_table,
    _lookup,
    _to_cell_index,
    collision_probability,
    num_tables,
)


def test_collision_probability_design_point():
    # frozen from the closed form at s = 1/4 (distance r, width 4r)
    assert collision_probability(0.25) == pytest.approx(0.8005324324284999, rel=1e-12)
    assert num_tables(500, 0.05) == 21


def test_l2_singleton_hit():
    x = np.array([[1.0, 2.0, 3.0]])
    scheme = build_l2_ann([7], x, r=1.0, delta_fail=0.1, seed=0)
    assert query_l2_ann(scheme, [1.1, 2.0, 3.0]) == 7


def test_l2_empty_buckets_give_none():
    scheme = build_l2_ann([0], np.zeros((1, 8)), r=1.0, delta_fail=0.1, seed=3)
    assert query_l2_ann(scheme, 1e6 * np.ones(8)) is None


def test_l2_never_exceeds_twice_r():
    rng = np.random.default_rng(4)
    pts = rng.standard_normal((300, 16))
    scheme = build_l2_ann(np.arange(300), pts, r=0.5, delta_fail=0.1, seed=9)
    for _ in range(80):
        q = rng.standard_normal(16)
        rid = query_l2_ann(scheme, q)
        if rid is not None:
            assert lp_distance(pts[rid], q, 2.0) <= 2.0 * 0.5


def test_l2_planted_success_rate():
    rng = np.random.default_rng(17)
    n, d, r = 200, 32, 1.0
    pts = rng.standard_normal((n, d))
    scheme = build_l2_ann(np.arange(n), pts, r=r, delta_fail=0.05, seed=5)
    hits = 0
    trials = 100
    for _ in range(trials):
        g = rng.standard_normal(d)
        q = pts[n - 1] + 0.9 * r * g / np.linalg.norm(g)
        rid = query_l2_ann(scheme, q)
        if rid is not None and lp_distance(pts[rid], q, 2.0) <= 2.0 * r:
            hits += 1
    assert hits / trials >= 1.0 - 0.05 - 0.05


def test_l2_determinism():
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((60, 8))
    a = build_l2_ann(np.arange(60), pts, 1.0, 0.2, seed=12)
    b = build_l2_ann(np.arange(60), pts, 1.0, 0.2, seed=12)
    assert np.array_equal(a.projections, b.projections)
    q = rng.standard_normal(8)
    assert query_l2_ann(a, q) == query_l2_ann(b, q)


def test_l2_dimension_mismatch():
    scheme = build_l2_ann([0], np.zeros((1, 4)), 1.0, 0.1, seed=1)
    with pytest.raises(UsageError):
        query_l2_ann(scheme, np.zeros(5))


def test_coarse_singleton():
    x = np.array([[0.0, 0.0, 0.0, 0.0]])
    scheme = build_coarse_ann([3], x, p=4.0, r=1.0, seed=2)
    assert query_coarse_ann(scheme, [0.5, 0.0, 0.0, 0.0]) == 3


def test_coarse_all_empty_cells():
    scheme = build_coarse_ann([0], np.zeros((1, 4)), p=4.0, r=1.0, seed=2)
    # far beyond every occupied cell in every grid
    assert query_coarse_ann(scheme, 1e9 * np.ones(4)) is None


def test_coarse_two_far_points():
    d, p, r = 4, 4.0, 1.0
    c0 = coarse_approximation(d, p)
    pts = np.zeros((2, d))
    pts[1, 0] = 3.0 * c0 * r  # farther than 2 c0 r, can never share a cell
    for seed in range(5):
        scheme = build_coarse_ann([0, 1], pts, p=p, r=r, seed=seed)
        q = pts[0].copy()
        q[1] += 0.9 * r
        assert query_coarse_ann(scheme, q) == 0


def test_coarse_never_exceeds_bound():
    rng = np.random.default_rng(6)
    pts = rng.standard_normal((200, 16))
    scheme = build_coarse_ann(np.arange(200), pts, p=4.0, r=0.3, seed=8)
    limit = scheme.c0 * scheme.r
    for _ in range(60):
        q = rng.standard_normal(16)
        rid = query_coarse_ann(scheme, q)
        if rid is not None:
            assert lp_distance(pts[rid], q, 4.0) <= limit


def test_coarse_planted_success_rate():
    rng = np.random.default_rng(23)
    n, d, p, r = 200, 16, 4.0, 1.0
    pts = rng.standard_normal((n, d))
    scheme = build_coarse_ann(np.arange(n), pts, p=p, r=r, seed=31)
    limit = scheme.c0 * r
    hits = 0
    trials = 100
    for _ in range(trials):
        g = rng.standard_normal(d)
        norm = (np.abs(g) ** p).sum() ** (1.0 / p)
        q = pts[n - 1] + 0.9 * r * g / norm
        rid = query_coarse_ann(scheme, q)
        if rid is not None and lp_distance(pts[rid], q, p) <= limit:
            hits += 1
    assert hits / trials >= 2.0 / 3.0


def test_coarse_colocation_rate():
    # pairs at lp distance <= r share a cell in a 0.7+ fraction of grids
    rng = np.random.default_rng(40)
    d, p, r = 16, 4.0, 1.0
    x = rng.standard_normal(d)
    g = rng.standard_normal(d)
    y = x + r * g / (np.abs(g) ** p).sum() ** (1.0 / p)
    scheme = build_coarse_ann([0, 1], np.vstack([x, y]), p=p, r=r, seed=77)
    cx, cy = (np.floor((v + scheme.shifts) / scheme.cell_side) for v in (x, y))
    assert (cx == cy).all(axis=1).mean() >= 0.7


def test_coarse_determinism():
    rng = np.random.default_rng(1)
    pts = rng.standard_normal((50, 8))
    a = build_coarse_ann(np.arange(50), pts, 4.0, 1.0, seed=5)
    b = build_coarse_ann(np.arange(50), pts, 4.0, 1.0, seed=5)
    assert np.array_equal(a.shifts, b.shifts)


def test_coarse_dimension_mismatch():
    scheme = build_coarse_ann([0], np.zeros((1, 4)), 4.0, 1.0, seed=1)
    with pytest.raises(UsageError):
        query_coarse_ann(scheme, np.zeros(3))


def test_build_precondition_errors():
    with pytest.raises(UsageError):
        build_l2_ann([], np.zeros((0, 3)), 1.0, 0.1, seed=0)
    with pytest.raises(UsageError):
        build_l2_ann([0], np.zeros((1, 3)), -1.0, 0.1, seed=0)
    with pytest.raises(UsageError):
        build_l2_ann([0], np.zeros((1, 3)), 1.0, 1.5, seed=0)
    with pytest.raises(UsageError):
        build_coarse_ann([0], np.zeros((1, 3)), 1.5, 1.0, seed=0)


# few distinct values, so rows repeat; the ends are the clipped extremes
KEY_VALUES = [*_to_cell_index(np.array([-1e300, 1e300])).tolist(), -2, -1, 0, 1, 2]


@st.composite
def _keys_and_probes(draw):
    t, m, k = draw(st.integers(1, 4)), draw(st.integers(1, 40)), draw(st.integers(1, 3))
    elements = st.sampled_from(KEY_VALUES)
    keys = draw(arrays(np.int64, (t, m, k), elements=elements))
    probes = draw(st.lists(arrays(np.int64, (t, k), elements=elements), max_size=4))
    return keys, probes


@settings(max_examples=200, deadline=None)
@given(_keys_and_probes())
def test_bucket_table_matches_dict_reference(case):
    keys, probes = case
    reference = {}
    for t in range(keys.shape[0]):
        for local, key in enumerate(map(tuple, keys[t])):
            reference.setdefault((t, key), []).append(local)
    table = _bucket_table(keys)
    # every stored key of every point, then arbitrary (often absent) keys
    for probe in [keys[:, i, :] for i in range(keys.shape[1])] + probes:
        expected = [
            reference[t, tuple(key)]
            for t, key in enumerate(probe)
            if (t, tuple(key)) in reference
        ]
        found = [
            table.members[table.starts[g]: table.starts[g + 1]].tolist()
            for g in _lookup(table, probe)
        ]
        assert found == expected
