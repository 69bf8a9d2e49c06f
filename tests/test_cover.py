import copy

import numpy as np
import pytest

from lpann import (
    Dataset,
    UsageError,
    build_sparse_cover,
    cover_lookup,
    lp_distance,
    verify_cover,
)
from lpann.cover import diameter_bound_for


def line_dataset(n, spacing, p=2.0):
    return Dataset(np.arange(n, dtype=np.float64).reshape(-1, 1) * spacing, p)


def test_single_point():
    ds = Dataset(np.array([[1.0, 2.0]]), 2.0)
    cover = build_sparse_cover(ds, radius=1.0, beta=2.0)
    assert len(cover.clusters) == 1
    assert list(cover.clusters[0].member_ids) == [0]
    assert cover_lookup(cover, 0) == 0
    assert cover.sparsity == 1
    check = verify_cover(cover, ds)
    assert check.cover_ok and check.max_diameter == 0.0 and check.sparsity == 1


def test_far_apart_points_give_singletons():
    beta, radius = 2.0, 1.0
    bound = diameter_bound_for(radius, beta)
    ds = line_dataset(12, spacing=2.5 * bound)
    cover = build_sparse_cover(ds, radius, beta)
    assert len(cover.clusters) == 12
    assert cover.sparsity == 12
    for i in range(12):
        cl = cover.clusters[cover_lookup(cover, i)]
        assert list(cl.member_ids) == [i]
    assert verify_cover(cover, ds).cover_ok


def test_line_instance():
    radius, beta = 1.0, 2.0
    ds = line_dataset(64, spacing=radius)
    cover = build_sparse_cover(ds, radius, beta)
    check = verify_cover(cover, ds)
    assert check.cover_ok
    assert check.max_diameter <= cover.diameter_bound
    assert cover.sparsity <= 64 ** 1.5
    # every point's covering cluster holds both unit-spacing neighbors
    for i in range(64):
        members = set(cover.clusters[cover_lookup(cover, i)].member_ids)
        for nb in (i - 1, i + 1):
            if 0 <= nb < 64:
                assert nb in members


def test_mutation_breaks_cover():
    ds = line_dataset(20, spacing=1.0)
    cover = build_sparse_cover(ds, radius=1.0, beta=2.0)
    assert verify_cover(cover, ds).cover_ok
    broken = copy.deepcopy(cover)
    # find a point whose ball genuinely needs a second member, drop that member
    for x in range(20):
        ci = broken.covering_ref[x]
        members = broken.clusters[ci].member_ids
        needed = [
            m for m in members
            if m != x and lp_distance(ds.vectors[x], ds.vectors[int(m)], 2.0) <= 1.0
        ]
        if needed:
            keep = members[members != needed[0]]
            broken.clusters[ci].member_ids = keep
            break
    assert not verify_cover(broken, ds).cover_ok


def test_cover_is_deterministic():
    rng = np.random.default_rng(8)
    ds = Dataset(rng.standard_normal((150, 6)), 2.0)
    a = build_sparse_cover(ds, radius=0.8, beta=2.5)
    b = build_sparse_cover(ds, radius=0.8, beta=2.5)
    assert a.covering_ref == b.covering_ref
    assert len(a.clusters) == len(b.clusters)
    for ca, cb in zip(a.clusters, b.clusters):
        assert ca.center_id == cb.center_id
        assert np.array_equal(ca.member_ids, cb.member_ids)


@pytest.mark.parametrize("p,beta", [(2.0, 2.0), (4.0, 3.0)])
def test_random_cover_properties(p, beta):
    rng = np.random.default_rng(21)
    ds = Dataset(rng.standard_normal((200, 8)), p)
    radius = 1.2
    cover = build_sparse_cover(ds, radius, beta)
    assert cover.diameter_bound == diameter_bound_for(radius, beta)
    check = verify_cover(cover, ds)
    assert check.cover_ok
    assert check.max_diameter <= cover.diameter_bound
    assert check.sparsity == cover.sparsity
    # exhaustive completeness, straight from the definition
    for i in range(ds.n):
        members = set(cover.clusters[cover.covering_ref[i]].member_ids)
        for j in range(ds.n):
            if lp_distance(ds.vectors[i], ds.vectors[j], p) <= radius:
                assert j in members


def test_centers_belong_to_clusters():
    rng = np.random.default_rng(2)
    ds = Dataset(rng.standard_normal((80, 4)), 2.0)
    cover = build_sparse_cover(ds, radius=0.5, beta=2.0)
    for cl in cover.clusters:
        assert cl.center_id in set(cl.member_ids)


def test_usage_errors():
    ds = Dataset(np.zeros((0, 3)), 2.0)
    with pytest.raises(UsageError):
        build_sparse_cover(ds, 1.0, 2.0)
    good = Dataset(np.zeros((1, 3)), 2.0)
    with pytest.raises(UsageError):
        build_sparse_cover(good, -1.0, 2.0)
    with pytest.raises(UsageError):
        build_sparse_cover(good, 1.0, 1.0)
    cover = build_sparse_cover(good, 1.0, 2.0)
    with pytest.raises(UsageError):
        cover_lookup(cover, 17)
