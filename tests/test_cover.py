import copy
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lpann import (
    Dataset,
    UsageError,
    build_sparse_cover,
    cover_lookup,
    lp_distance,
    verify_cover,
)
from lpann import _kernels
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
    assert np.array_equal(a.covering_ref, b.covering_ref)
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
    # refused before any distance is measured: a NaN radius covers no point
    # and never ends the carving, and a NaN or infinite beta breaks its cap
    with mock.patch.object(_kernels, "dists_to_point", side_effect=AssertionError("measured")):
        for radius, beta in [(-1.0, 2.0), (1.0, 1.0), (np.nan, 2.0), (np.inf, 2.0),
                             (1.0, np.nan), (1.0, np.inf)]:
            with pytest.raises(UsageError):
                build_sparse_cover(good, radius, beta)
    cover = build_sparse_cover(good, 1.0, 2.0)
    for row in (17, -1, 0.5, 1.5):
        with pytest.raises(UsageError):
            cover_lookup(cover, row)
    assert cover_lookup(cover, np.int64(0)) == 0


def _carve_reference(ds, radius, beta):
    """(clusters as (member ids, center id), covering_ref, sparsity) of the
    carving with every candidate measured against every point outside its
    cluster, one candidate at a time."""
    vectors, ids, n = ds.vectors, ds.ids, ds.n
    growth, j_cap = n ** (1.0 / beta), int(np.ceil(beta)) + 2
    covered, ref = np.zeros(n, dtype=bool), np.full(n, -1, dtype=np.int64)
    clusters, index_of, sparsity = [], {}, 0
    while not covered.all():
        v = int(np.flatnonzero(~covered)[0])
        dist = _kernels.dists_to_point(vectors, vectors[v], ds.p)

        def count(rad):
            return int((dist <= rad).sum())

        j = 0
        while j < j_cap and count(2.0 * radius * (j + 1)) > growth * count(2.0 * radius * j):
            j += 1
        inside = dist <= 2.0 * radius * (j + 1)
        members = np.flatnonzero(inside)
        index = index_of.setdefault(members.tobytes(), len(clusters))
        if index == len(clusters):
            clusters.append((sorted(ids[members].tolist()), int(ids[v])))
            sparsity += members.size
        for x in np.flatnonzero(inside & ~covered):
            if not (_kernels.dists_to_point(vectors[~inside], vectors[x], ds.p) <= radius).any():
                ref[x], covered[x] = index, True
    return clusters, ref, sparsity


@st.composite
def _blob_instances(draw):
    """(dataset, radius, beta): one to four blobs of points on a half-radius
    lattice, optionally jittered, spaced from overlapping to far apart, plus
    points exactly R, R + radius and R + 2 radius from row 0, the first
    carve center, along one axis, for cluster radii R = 2 radius (j + 1)."""
    p = draw(st.sampled_from([3.0, 4.0, 8.0]))
    d = draw(st.integers(1, 4))
    radius = draw(st.sampled_from([0.25, 0.5, 1.0, 0.3]))
    beta = draw(st.sampled_from([1.5, 2.0, 3.0]))
    spacing = draw(st.sampled_from([1.0, 4.0, 12.0, 1000.0])) * radius
    blobs = []
    for b in range(draw(st.integers(1, 4))):
        lattice = draw(arrays(np.int64, (draw(st.integers(1, 8)), d), elements=st.integers(-6, 6)))
        blob = lattice * (radius / 2.0)
        blob[:, 0] += b * spacing
        blobs.append(blob)
    data = np.vstack(blobs)
    if draw(st.booleans()):
        jitter = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        data = data + 0.1 * radius * jitter.standard_normal(data.shape)
    axis, sign = draw(st.integers(0, d - 1)), draw(st.sampled_from([-1.0, 1.0]))
    planted = []
    for j in draw(st.lists(st.integers(0, 4), max_size=3, unique=True)):
        for extra in (0.0, radius, 2.0 * radius):
            point = data[0].copy()
            point[axis] += sign * (2.0 * radius * (j + 1) + extra)
            planted.append(point)
    return Dataset(np.vstack([data, *planted]), p), radius, beta


@settings(max_examples=300, deadline=None)
@given(_blob_instances())
def test_carving_matches_measuring_every_outside_point(case):
    # pruning the blockers to those near the center changes no cluster,
    # center, covering cluster or sparsity
    ds, radius, beta = case
    cover = build_sparse_cover(ds, radius, beta)
    clusters, ref, sparsity = _carve_reference(ds, radius, beta)
    assert [(cl.member_ids.tolist(), cl.center_id) for cl in cover.clusters] == clusters
    assert cover.covering_ref.tolist() == ref.tolist()
    assert cover.sparsity == sparsity


def test_a_point_whose_distance_to_the_center_overflows_still_blocks():
    # d(v, y)**4 overflows to inf, yet the kernel measures d(v, y) itself;
    # y lies outside v's cluster (radius 2r) but within r of x, so it must
    # keep x from being covered by that cluster
    ds = Dataset(np.array([[0.0], [1.1e77], [1.3e77]]), 4.0)
    with np.errstate(over="ignore"):
        assert np.isinf(ds.vectors[2, 0] ** 4)
    assert _kernels.dists_to_point(ds.vectors, ds.vectors[0], 4.0)[2] == 1.3e77
    cover = build_sparse_cover(ds, 6e76, 1.5)
    clusters, ref, sparsity = _carve_reference(ds, 6e76, 1.5)
    assert cover.clusters[0].member_ids.tolist() == [0, 1] and ref[1] != 0
    assert cover.covering_ref.tolist() == ref.tolist()
    assert [(cl.member_ids.tolist(), cl.center_id) for cl in cover.clusters] == clusters
