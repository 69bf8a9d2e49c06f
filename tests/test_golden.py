"""Golden answers: a fixed seed must keep returning the same ids, distance
bits and ladder traces.

The expected values were recorded once and are compared exactly, so any
change to how the index is built, stored or queried that alters an answer
shows up here. Three instances: a gaussian one, where every cover holds a
single cluster, a four-blob one, where every ladder level carves four
clusters and cover routing does real work, and a gaussian one at p = 3,
d = 8, where the exponent normalizes to 2 and the root is itself an l2
node whose copies form one scanned l2 set. A fourth, points spread along
one axis, is the instance where the ladder decides answers: its
refinement steps change about half of them from the coarse start. A fifth
is the l2 root at n = 1000, too many points to scan, so its copies are LSH
leaves with bucket tables.
"""

import dataclasses
import math
import statistics
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from lpann import (
    Dataset,
    NNSIndex,
    SchemeConfig,
    load_index,
    preprocess,
    query,
    save_index,
)
from lpann import _kernels, base_schemes, recursive
from lpann.container import index_digest
from lpann.cover import build_sparse_cover
from lpann.oracle import exact_nn

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402

N, D, P, QUERIES = 200, 32, 4.0, 20
L2ROOT_D, L2ROOT_P = 8, 3.0  # normalize_exponent gives p_eff = 2
LSHROOT_N = 1000  # 2 copies x 10 tables x 30 probes < 1000: no scan
BLOBS, BLOB_SPACING = 4, 100.0  # blobs sit 100 * sqrt(d) apart
QUERY_DISTANCE = 0.9  # times r


def _points(kind: str, seed: int):
    """(dataset, r, queries) of an instance."""
    rng = np.random.default_rng(seed)
    d, p = (L2ROOT_D, L2ROOT_P) if kind in ("l2root", "lshroot") else (D, P)
    n = LSHROOT_N if kind == "lshroot" else N
    if kind == "blobs":
        centers = np.zeros((BLOBS, d))
        centers[:, 0] = BLOB_SPACING * math.sqrt(d) * np.arange(BLOBS)
        data = centers[rng.integers(0, BLOBS, size=n)] + rng.standard_normal((n, d))
        r = 0.2
    else:
        data, r = rng.standard_normal((n, d)), 1.0
    sources = rng.choice(n, size=QUERIES, replace=False)
    direction = rng.standard_normal((QUERIES, d))
    norms = (np.abs(direction) ** p).sum(axis=1) ** (1.0 / p)
    near = data[sources] + (QUERY_DISTANCE * r / norms)[:, None] * direction
    # a full gaussian step breaks the r-near promise, so these answers
    # depend on what every stage of the index happens to find
    far = data[sources] + direction
    return Dataset(data, p), r, np.vstack([near[: QUERIES // 2], far[QUERIES // 2:]])


def line_points(seed: int, queries: int = 20):
    """(dataset, r, queries) of the line instance: every coordinate
    N(0, 0.2^2), plus U(0, 600) on coordinate 0, and queries at lp distance
    0.9 r from distinct points, as the benchmark makes them."""
    rng = np.random.default_rng(seed)
    data = 0.2 * rng.standard_normal((N, D))
    data[:, 0] += rng.uniform(0.0, 600.0, size=N)
    sources = rng.choice(N, size=queries, replace=False)
    direction = rng.standard_normal((queries, D))
    norms = (np.abs(direction) ** P).sum(axis=1) ** (1.0 / P)
    return Dataset(data, P), 1.0, data[sources] + (QUERY_DISTANCE / norms)[:, None] * direction


def _instance(kind: str, seed: int):
    dataset, r, queries = line_points(seed) if kind == "line" else _points(kind, seed)
    scheme = preprocess(dataset, SchemeConfig(p=dataset.p, r=r, seed=seed))
    return scheme, queries


def answers(kind: str, seed: int, saved_to=None) -> list:
    """Answers of the built index, or, given a path, of the index saved
    there and loaded back."""
    scheme, queries = _instance(kind, seed)
    if saved_to is not None:
        save_index(scheme, str(saved_to))
        scheme = load_index(str(saved_to))
    out = []
    for q in queries:
        a = query(scheme, q)
        out.append(None if a is None else (a.id, float.hex(a.distance), list(a.trace)))
    return out


# (id, float.hex(distance), trace) of every query at seed 5
GOLDEN = {'blobs': [(179, '0x1.70a3d70a3d732p-3', [179, 179, 179, 179, 179]),
           (160, '0x1.70a3d70a3d709p-3', [160, 160, 160, 160, 160]),
           (161, '0x1.70a3d70a3d6fdp-3', [161, 161, 161, 161, 161]),
           (16, '0x1.70a3d70a3d70cp-3', [16, 16, 16, 16, 16]),
           (168, '0x1.70a3d70a3d70cp-3', [168, 168, 168, 168, 168]),
           (130, '0x1.70a3d70a3d70ap-3', [130, 130, 130, 130, 130]),
           (125, '0x1.70a3d70a3d709p-3', [125, 125, 125, 125, 125]),
           (40, '0x1.70a3d70a3d64dp-3', [40, 40, 40, 40, 40]),
           (46, '0x1.70a3d70a3d709p-3', [46, 46, 46, 46, 46]),
           (122, '0x1.70a3d70a3d70bp-3', [122, 122, 122, 122, 122]),
           (127, '0x1.899de28dc4e48p+1', [127, 127, 127, 127, 127]),
           (188, '0x1.29cdebb7057dap+1', [188, 188, 188, 188, 188]),
           (64, '0x1.a04716a0f4570p+1', [64, 64, 64, 64, 64]),
           (164, '0x1.c1f7c51327ecbp+1', [164, 164, 164, 164, 164]),
           (35, '0x1.82cb06f0801f1p+1', [35, 35, 35, 35, 35]),
           (50, '0x1.99807b121545dp+1', [50, 50, 50, 50, 50]),
           (121, '0x1.487b2821e4768p+1', [121, 121, 121, 121, 121]),
           (116, '0x1.b5551fe3631c0p+1', [116, 116, 116, 116, 116]),
           (79, '0x1.67e4b497ec289p+1', [79, 79, 79, 79, 79]),
           (120, '0x1.41f2531d4b8fbp+1', [120, 120, 120, 120, 120])],
 'gauss': [(11, '0x1.ccccccccccccdp-1', [11, 11, 11, 11, 11]),
           (32, '0x1.ccccccccccccfp-1', [8, 32, 32, 32, 32]),
           (196, '0x1.ccccccccccccdp-1', [89, 196, 196, 196, 196]),
           (123, '0x1.ccccccccccccdp-1', [12, 123, 123, 123, 123]),
           (14, '0x1.cccccccccccccp-1', [8, 14, 14, 14, 14]),
           (42, '0x1.ccccccccccccdp-1', [8, 42, 42, 42, 42]),
           (171, '0x1.cccccccccccccp-1', [171, 171, 171, 171, 171]),
           (28, '0x1.ccccccccccccep-1', [28, 28, 28, 28, 28]),
           (126, '0x1.ccccccccccccdp-1', [0, 126, 126, 126, 126]),
           (70, '0x1.cccccccccccccp-1', [11, 70, 70, 70, 70]),
           (146, '0x1.712a627568532p+1', [7, 146, 146, 146, 146]),
           (153, '0x1.46c099d8834c8p+1', [18, 153, 153, 153, 153]),
           (33, '0x1.3aa9790280249p+2', [33, 33, 33, 33, 33]),
           (198, '0x1.85305bbec11fap+1', [109, 198, 198, 198, 198]),
           (128, '0x1.ec542c7b895e1p+1', [54, 128, 128, 128, 128]),
           (73, '0x1.a4bc1fa833c18p+1', [45, 73, 73, 73, 73]),
           (2, '0x1.eb3128f58e178p+1', [2, 2, 2, 2, 2]),
           (59, '0x1.d61b1ee38db61p+1', [59, 59, 59, 59, 59]),
           (167, '0x1.9af8327a15917p+1', [0, 167, 167, 167, 167]),
           (172, '0x1.4beeb9fd75afap+1', [104, 172, 172, 172, 172])]}

# the same at p = 3, d = 8, where the root is an l2 node whose 200 points
# are scanned (recorded apart from GOLDEN)
GOLDEN_L2ROOT = [(117, '0x1.ccccccccccccep-1', [117]),
                 (59, '0x1.ccccccccccccdp-1', [59]),
                 (194, '0x1.cccccccccccccp-1', [194]),
                 (163, '0x1.ccccccccccccdp-1', [163]),
                 (113, '0x1.ccccccccccccep-1', [113]),
                 (46, '0x1.ccccccccccccdp-1', [46]),
                 (111, '0x1.ccccccccccccep-1', [111]),
                 (135, '0x1.cccccccccccd0p-1', [135]),
                 (71, '0x1.cccccccccccccp-1', [71]),
                 (80, '0x1.ccccccccccccbp-1', [80]),
                 (115, '0x1.9041547a98baap+0', [115]),
                 (55, '0x1.863c602e795b7p+0', [55]),
                 (58, '0x1.a59b6a1b3d7cbp-1', [58]),
                 (99, '0x1.1e56c3a8bb286p+0', [99]),
                 (28, '0x1.966dc80431e0dp+0', [28]),
                 (67, '0x1.192627ee3e621p+1', [67]),
                 (40, '0x1.d30de3f9e6cd1p+0', [40]),
                 (169, '0x1.b703a9b6ed44ap+0', [169]),
                 (11, '0x1.0eccf631fdf10p+0', [11]),
                 (40, '0x1.ff0367ee7cba0p+0', [40])]
# NNSIndex(c_slack=0.5, seed=5).query on every 4th query of that instance
GOLDEN_L2ROOT_NNS = [117, 113, 71, 58, 40]

# the l2 root at n = 1000 and seed 5, whose copies are LSH leaves: the
# instance that keeps the l2 tables' answers pinned
GOLDEN_LSHROOT = [(203, '0x1.2983a5cf8c3b7p+0', [203]),
                  (397, '0x1.23be3fe48789bp+0', [397]),
                  (991, '0x1.907a778dc70e4p+0', [991]),
                  (682, '0x1.0606844518309p+0', [682]),
                  (32, '0x1.addc542d2a8efp+0', [32]),
                  (140, '0x1.df1cb4d5b6a79p+0', [140]),
                  (83, '0x1.ccccccccccccep-1', [83]),
                  (756, '0x1.ccccccccccccdp-1', [756]),
                  (331, '0x1.ccccccccccccdp-1', [331]),
                  (162, '0x1.c543be0dcaa7fp+0', [162]),
                  (810, '0x1.75df08f8e00fcp+0', [810]),
                  None,
                  None,
                  (812, '0x1.b00959e72ec6dp+0', [812]),
                  (285, '0x1.3cf02b006b853p+0', [285]),
                  (895, '0x1.5259231b885bdp+0', [895]),
                  (322, '0x1.8225640967149p+0', [322]),
                  (37, '0x1.96524475b5cf6p+0', [37]),
                  (400, '0x1.16b25b17cb718p+1', [400]),
                  None]

# container.index_digest of each instance's built index at seed 5, so a
# change to any table, draw or cover byte fails here even when the answers
# happen to survive it
GOLDEN_DIGEST = {
    "gauss": "6c62537650cca22e843719bd81d1e65326955ef9af1570624e412d307cbce488",
    "blobs": "c608d0aa76cbaaaeb6abc4aec921ace6d092b90f9f0616f85d112219a6ba4e1e",
    "l2root": "4c88cc913af306a46f4a148c40449a43993ffdba1f8af52640666d09a72ebfc5",
    "lshroot": "a6fcc1fc9484c37322f83a23eb8dff4e3034760ae5cc81412220df816dc9123e",
}


# the line instance at seed 1, recorded apart from GOLDEN: the ladder
# changes 12 of these 20 answers from their coarse start
GOLDEN_LINE = [(58, '0x1.cccccccccccccp-1', [12, 58, 58, 58, 58]),
               (9, '0x1.cccccccccccc8p-1', [9, 9, 9, 9, 9]),
               (188, '0x1.cccccccccccccp-1', [9, 188, 188, 188, 188]),
               (189, '0x1.cccccccccccccp-1', [1, 189, 189, 189, 189]),
               (17, '0x1.ccccccccccccbp-1', [17, 17, 17, 17, 17]),
               (196, '0x1.cccccccccccc5p-1', [7, 196, 196, 196, 196]),
               (158, '0x1.ccccccccccccdp-1', [8, 158, 158, 158, 158]),
               (37, '0x1.22dddc4e6ffa1p+0', [156, 37, 37, 37, 37]),
               (98, '0x1.cccccccccccd1p-1', [11, 98, 98, 98, 98]),
               (167, '0x1.cccccccccccc4p-1', [25, 167, 167, 167, 167]),
               (28, '0x1.ccccccccccccfp-1', [28, 28, 28, 28, 28]),
               (168, '0x1.ccccccccccccep-1', [8, 168, 168, 168, 168]),
               (35, '0x1.cccccccccccccp-1', [18, 35, 35, 35, 35]),
               (92, '0x1.cccccccccccd0p-1', [18, 92, 92, 92, 92]),
               (41, '0x1.cccccccccccccp-1', [41, 41, 41, 41, 41]),
               (33, '0x1.ccccccccccce0p-1', [33, 33, 33, 33, 33]),
               (10, '0x1.cccccccccccd0p-1', [10, 10, 10, 10, 10]),
               (5, '0x1.ccccccccccccdp-1', [5, 5, 5, 5, 5]),
               (65, '0x1.ccccccccccccdp-1', [53, 65, 65, 65, 65]),
               (81, '0x1.ccccccccccccdp-1', [81, 81, 81, 81, 81])]

# space_usage(...).as_dict() of each GOLDEN_DIGEST instance at seed 5;
# its total is the benchmark's stored_points; at gauss and blobs, ladder
# levels 2-4 repeat level 1, so they store no child sets, and model_total
# counts the ones the paper's construction builds for them
GOLDEN_SPACE = {
    "gauss": {"total": 9600, "model_total": 25800, "repeated_levels": 3,
              "per_level": {"t=4/base": 1800, "t=4/ladder1": 600, "t=2/base": 5400,
                            "t=4/ladder2": 600, "t=4/ladder3": 600, "t=4/ladder4": 600},
              "copy_counts": {"norm_level_copies": 3, "base_copies": 3,
                              "cluster_child_copies": 3},
              "table_bytes": {"l2": 0, "coarse": 17832},
              "l2_sets": {"scan": 1, "lsh": 0}},
    "blobs": {"total": 9600, "model_total": 25800, "repeated_levels": 3,
              "per_level": {"t=4/base": 1800, "t=4/ladder1": 600, "t=2/base": 5400,
                            "t=4/ladder2": 600, "t=4/ladder3": 600, "t=4/ladder4": 600},
              "copy_counts": {"norm_level_copies": 3, "base_copies": 3,
                              "cluster_child_copies": 3},
              "table_bytes": {"l2": 0, "coarse": 332168},
              "l2_sets": {"scan": 4, "lsh": 0}},
    "l2root": {"total": 400, "model_total": 400, "repeated_levels": 0,
               "per_level": {"t=2/base": 400},
               "copy_counts": {"norm_level_copies": 2, "base_copies": 3,
                               "cluster_child_copies": 3},
               "table_bytes": {"l2": 0, "coarse": 0},
               "l2_sets": {"scan": 1, "lsh": 0}},
    "lshroot": {"total": 2000, "model_total": 2000, "repeated_levels": 0,
                "per_level": {"t=2/base": 2000},
                "copy_counts": {"norm_level_copies": 2, "base_copies": 3,
                                "cluster_child_copies": 3},
                "table_bytes": {"l2": 1123908, "coarse": 0},
                "l2_sets": {"scan": 0, "lsh": 1}},
}


@pytest.mark.parametrize("kind", ["gauss", "blobs"])
def test_golden_answers(kind):
    assert answers(kind, 5) == GOLDEN[kind]


@pytest.mark.parametrize("kind", ["gauss", "blobs"])
def test_golden_answers_after_reload(kind, tmp_path):
    assert answers(kind, 5, tmp_path / "golden.lpann") == GOLDEN[kind]


@pytest.mark.parametrize("kind", sorted(GOLDEN_DIGEST))
def test_golden_index_digest(kind, tmp_path):
    scheme, _ = _instance(kind, 5)
    assert index_digest(scheme) == GOLDEN_DIGEST[kind]
    save_index(scheme, str(tmp_path / "golden.lpann"))
    assert index_digest(load_index(str(tmp_path / "golden.lpann"))) == GOLDEN_DIGEST[kind]


def test_golden_line_answers(tmp_path):
    assert answers("line", 1) == GOLDEN_LINE
    assert answers("line", 1, tmp_path / "golden.lpann") == GOLDEN_LINE


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_ladder_decides_line_answers(seed):
    # on the line instance the refinement steps, not the coarse start,
    # give at least 0.3 of the answers (0.60 / 0.47 / 0.51 when recorded
    # with LSH leaves, 0.79 / 0.62 / 0.59 with scanned l2 sets)
    dataset, r, queries = line_points(seed, queries=100)
    scheme = preprocess(dataset, SchemeConfig(p=P, r=r, seed=seed))
    found = [query(scheme, q) for q in queries]
    assert all(a is not None for a in found)
    assert sum(a.trace[0] != a.id for a in found) >= 0.3 * len(found)


@pytest.mark.parametrize("kind", sorted(GOLDEN_SPACE))
def test_golden_space_usage(kind, tmp_path):
    scheme, _ = _instance(kind, 5)
    assert recursive.space_usage(scheme).as_dict() == GOLDEN_SPACE[kind]
    save_index(scheme, str(tmp_path / "golden.lpann"))
    loaded = load_index(str(tmp_path / "golden.lpann"))
    assert recursive.space_usage(loaded).as_dict() == GOLDEN_SPACE[kind]


def test_blobs_quality_against_exact_nn():
    # absolute quality on the four-blob instance, as measured when recorded:
    # every query, r-near or not, returns its exact nearest neighbour
    dataset, _, queries = _points("blobs", 5)
    scheme, _ = _instance("blobs", 5)
    hits, ratios = [], []
    for q in queries:
        a, (nn_id, nn_dist) = query(scheme, q), exact_nn(dataset, q)
        hits.append(a.id == nn_id)
        ratios.append(a.distance / nn_dist)
    assert sum(hits) / len(hits) == 1.0
    assert statistics.median(ratios) == 1.0


def test_golden_l2_root(tmp_path):
    scheme, _ = _instance("l2root", 5)
    assert scheme.root.t == 2.0 and isinstance(scheme.root.group, base_schemes.L2Scan)
    assert scheme.root.nodes * scheme.root.node_copies > 1
    assert answers("l2root", 5) == GOLDEN_L2ROOT
    assert answers("l2root", 5, tmp_path / "golden.lpann") == GOLDEN_L2ROOT


def test_golden_lsh_root(tmp_path):
    scheme, _ = _instance("lshroot", 5)
    group = scheme.root.group
    assert scheme.root.t == 2.0 and isinstance(group, base_schemes.L2Group)
    assert group.leaves > 1
    assert answers("lshroot", 5) == GOLDEN_LSHROOT
    assert answers("lshroot", 5, tmp_path / "golden.lpann") == GOLDEN_LSHROOT


def test_golden_l2_root_nns_search(tmp_path):
    dataset, _, queries = _points("l2root", 5)
    built = NNSIndex(dataset, 0.5, seed=5)
    assert [built.query(q) for q in queries[::4]] == GOLDEN_L2ROOT_NNS
    # a fresh index over the same points whose rungs are the built ones,
    # saved and loaded, answers the same
    loaded = NNSIndex(dataset, 0.5, seed=5)
    for j, scheme in built.schemes.items():
        save_index(scheme, str(tmp_path / f"r{j}.lpann"))
        loaded.schemes[j] = load_index(str(tmp_path / f"r{j}.lpann"))
    assert [loaded.query(q) for q in queries[::4]] == GOLDEN_L2ROOT_NNS
    assert loaded.schemes.keys() == built.schemes.keys()


def _assert_same(a, b, where="scheme"):
    """a and b hold equal values of equal types, field by field; arrays
    compare by dtype, shape and bytes, scalars with ==, so a one-ulp drift
    fails."""
    assert type(a) is type(b), where
    if isinstance(a, np.ndarray):
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), where
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), where
        for i, (x, y) in enumerate(zip(a, b)):
            _assert_same(x, y, f"{where}[{i}]")
    elif dataclasses.is_dataclass(a):
        for f in dataclasses.fields(a):
            _assert_same(getattr(a, f.name), getattr(b, f.name), f"{where}.{f.name}")
    else:
        assert a == b, where


@pytest.mark.parametrize("kind", ["gauss", "blobs"])
def test_loaded_tree_equals_built_tree(kind, tmp_path):
    # every value the loader derives (bound, ladder radii and approximations,
    # maps, mapped points, widths, tables) must equal the built one exactly
    scheme, _ = _instance(kind, 5)
    save_index(scheme, str(tmp_path / "golden.lpann"))
    _assert_same(scheme, load_index(str(tmp_path / "golden.lpann")))


def _sets(pset):
    """Every point set of the index below pset, pset first, each once."""
    yield pset
    for level in pset.ladder:
        for reduction in level.children:
            if reduction.child is not None:
                yield from _sets(reduction.child)


def _copies(pset, owners: int = 1):
    """(point set, copies over it) of every point set below pset, which has
    ``owners`` owners, pset first, each once."""
    copies = owners * pset.nodes * pset.node_copies
    yield pset, copies
    for level in pset.ladder:
        for reduction in level.children:
            if reduction.child is not None:
                yield from _copies(reduction.child, copies)


def test_loaded_children_share_arrays_as_built(tmp_path):
    # every copy over a carved set reads the set's one point array, and a
    # loaded index holds the same sets, with the same copy counts, as built
    scheme, _ = _instance("blobs", 5)
    save_index(scheme, str(tmp_path / "golden.lpann"))
    loaded = load_index(str(tmp_path / "golden.lpann"))
    shapes = []
    for index in (scheme, loaded):
        sets = list(_sets(index.root))
        assert len({id(s.vectors) for s in sets}) == len(sets) > 1
        shapes.append([(s.t, s.ids.size, s.nodes, s.node_copies) for s in sets])
    assert shapes[0] == shapes[1]
    assert [nodes for _, _, nodes, _ in shapes[0]] == [1] + [3] * (len(shapes[0]) - 1)


def _carved(scheme) -> dict:
    """{(t, points, ladder step): non-singleton clusters of its cover} over
    the index, with point sets compared by content."""
    return {
        (pset.t, pset.vectors.tobytes(), j):
            sum(len(cl.member_ids) > 1 for cl in level.cover.clusters)
        for pset in _sets(scheme.root) for j, level in enumerate(pset.ladder)
    }


@pytest.mark.parametrize("kind", ["gauss", "blobs"])
def test_one_cover_per_point_set_and_one_map_per_cluster(kind, monkeypatch):
    # carving draws no randomness: the node copies and the child copies over
    # one point set share its covers, each ladder step makes one map, and
    # each cluster is mapped by it once; a step that repeats the one before
    # it (levels 2-4 here) makes no map and maps nothing
    calls = Counter()
    for attr in ("build_sparse_cover", "mazur_map_points", "MazurMapSpec"):
        def counting(*args, _fn=getattr(recursive, attr), _attr=attr, **kwargs):
            calls[_attr] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(recursive, attr, counting)
    scheme, _ = _instance(kind, 5)
    carved = _carved(scheme)
    built = {(pset.t, pset.vectors.tobytes(), j)
             for pset in _sets(scheme.root) for j, level in enumerate(pset.ladder)
             if level.mazur is not None}
    assert calls["build_sparse_cover"] == len(carved) == 4
    assert calls["MazurMapSpec"] == len(built) == 1
    assert calls["mazur_map_points"] == sum(carved[key] for key in built) > 0


def _sharing(scheme) -> list:
    """Every point set's points, covers and maps, in walk order, each named
    by the order in which it was first met: two indexes share objects alike
    exactly when these lists are equal."""
    first: dict = {}
    out = []
    for pset in _sets(scheme.root):
        objs = [pset.vectors] + [obj for level in pset.ladder for obj in (level.cover, level.mazur)]
        out.append([first.setdefault(id(obj), len(first)) for obj in objs])
    return out


@pytest.mark.parametrize("kind", ["gauss", "blobs"])
def test_loaded_tree_shares_covers_and_images_as_built(kind, tmp_path):
    # each ladder step holds one cover and one map, the signed-power map
    # from l_t to l_{t/2} scaled to the cover's diameter bound, and every
    # copy over the step's point set reads them; a step that repeats the
    # one before it (levels 2-4 here) holds its cover only
    scheme, _ = _instance(kind, 5)
    save_index(scheme, str(tmp_path / "golden.lpann"))
    loaded = load_index(str(tmp_path / "golden.lpann"))
    assert _sharing(loaded) == _sharing(scheme)
    for index in (scheme, loaded):
        levels = [lvl for pset in _sets(index.root) for lvl in pset.ladder]
        assert len({id(lvl.cover) for lvl in levels}) == len(_carved(index)) == len(levels)
        built = [lvl for lvl in levels if lvl.mazur is not None]
        assert len({id(lvl.mazur) for lvl in built}) == len(built) == 1
        for pset in _sets(index.root):
            for j, level in enumerate(pset.ladder):
                assert {id(copy.ladder[j].mazur) for copy in pset.copies} == {id(level.mazur)}
                assert vars(level).keys() == {"cover", "mazur", "children"}
                assert all(vars(ch).keys() == {"child"} for ch in level.children)
                if level.mazur is None:
                    assert j > 0 and level.children == []
                else:
                    assert (level.mazur.p, level.mazur.q, level.mazur.c0) == (
                        pset.t, pset.t / 2.0, level.cover.diameter_bound)


@pytest.mark.parametrize("kind", ["gauss", "blobs"])
def test_one_group_per_point_set_built_and_loaded(kind, tmp_path):
    # the base schemes of every copy over one point set, across all parent
    # copies, form one group in copy order, and a loaded index groups them
    # as the build did
    scheme, _ = _instance(kind, 5)
    save_index(scheme, str(tmp_path / "golden.lpann"))
    loaded = load_index(str(tmp_path / "golden.lpann"))
    patterns = []
    for index in (scheme, loaded):
        sets, pattern = list(_copies(index.root)), []
        assert len({id(s.group) for s, _ in sets}) == len(sets) > 1
        for pset, copies in sets:
            group = pset.group
            if isinstance(group, base_schemes.CoarseGroup):
                assert group.copies == copies
                assert len(group.shifts) == copies * index.config.base_copies * group.grids
            else:  # every l2 set scans, and its copies set its cutoff only
                assert isinstance(group, base_schemes.L2Scan)
                assert base_schemes.scan_fits(*pset.vectors.shape, copies,
                                              recursive.PRIMITIVE_FAILURE)
            pattern.append((pset.t, type(group).__name__, copies))
        patterns.append(pattern)
    assert patterns[0] == patterns[1]


def test_tables_keep_only_what_a_query_reads(tmp_path):
    # buckets are numbered in fingerprint order; a grid table keeps one member per
    # cell, no key and no starts, an l2 bucket at most the max_probe members its
    # leaf probes, a scanned l2 set holds no draws and no table, and space_usage
    # counts every group's table once, built and loaded: on the four-blob
    # instance, whose l2 sets all scan, and on the l2 root too large to scan
    capped = coarse = 0
    for kind in ("blobs", "lshroot"):
        scheme, _ = _instance(kind, 5)
        save_index(scheme, str(tmp_path / f"{kind}.lpann"))
        loaded = load_index(str(tmp_path / f"{kind}.lpann"))
        for index in (scheme, loaded):
            expected = {"l2": 0, "coarse": 0}
            for group in (pset.group for pset in _sets(index.root)):
                if isinstance(group, base_schemes.L2Scan):
                    assert vars(group).keys() == {"ids", "vectors", "r", "center", "sq_norms"}
                    continue
                table = group.table
                sizes = table.spans(np.arange(table.fingerprints.size))[1]
                assert (table.fingerprints[1:] > table.fingerprints[:-1]).all()
                if isinstance(group, base_schemes.CoarseGroup):
                    assert table.keys is None and table.starts is None
                    assert table.members.size == table.fingerprints.size
                    kind = "coarse"
                else:
                    probes = group.max_probe
                    assert probes == 3 * len(group.projections) // group.leaves
                    assert table.keys.shape[0] == table.fingerprints.size
                    assert (sizes >= 1).all() and (sizes <= probes).all()
                    capped += (sizes == probes).sum()
                    kind = "l2"
                expected[kind] += sum(a.nbytes for a in vars(table).values()
                                      if isinstance(a, np.ndarray))
            coarse += expected["coarse"]
            assert recursive.space_usage(index).table_bytes == expected
    assert capped and coarse


def test_carving_measures_no_pair_across_blobs(monkeypatch):
    # at every radius of the root ladder, a candidate is measured only
    # against outside points near its carve center, so no point of another
    # blob, 100 sqrt(d) away, is ever measured
    scheme, _ = _instance("blobs", 5)
    dataset, _, _ = _points("blobs", 5)
    spacing = BLOB_SPACING * math.sqrt(D)
    across = []
    real = _kernels.pairwise_blocks

    def counting(a, b, p):
        blob_a, blob_b = np.rint(a[:, 0] / spacing), np.rint(b[:, 0] / spacing)
        across.append(int((blob_a[:, None] != blob_b).sum()))
        return real(a, b, p)

    monkeypatch.setattr(_kernels, "pairwise_blocks", counting)
    levels = scheme.root.ladder
    assert levels and all(len(level.cover.clusters) == BLOBS for level in levels)
    for level in levels:
        cover = build_sparse_cover(dataset, level.cover.radius, level.cover.beta)
        assert cover.covering_ref.tolist() == level.cover.covering_ref.tolist()
    assert sum(across) == 0


def _gauss_d32():
    """(index, queries) of the gauss-d32 benchmark at seed 1."""
    w = workloads.WORKLOADS["gauss-d32"]
    data = workloads.make_data(w, 1)
    scheme = preprocess(Dataset(data, w.p), SchemeConfig(p=w.p, r=w.r, seed=1))
    return scheme, workloads.make_queries(w, data, 1)[0]


def lsh_group(scan, copies: int, seed: int = 0):
    """LSH leaves over a scanned l2 set's points, one per copy, in one
    group: what the build holds for a set too large to scan."""
    return base_schemes.build_l2_ann(
        scan.ids, scan.vectors, scan.r, recursive.PRIMITIVE_FAILURE,
        [np.random.SeedSequence(seed, spawn_key=(i,)) for i in range(copies)])


def with_lsh_leaves(root, owners: int = 1) -> None:
    """Replace the group of every scanned l2 set below the point set root,
    root included, by LSH leaves over the set (``lsh_group``); root has
    ``owners`` owners."""
    for pset, copies in _copies(root, owners):
        if isinstance(pset.group, base_schemes.L2Scan):
            pset.group = lsh_group(pset.group, copies)


def _l2_groups(instance: str) -> list:
    """LSH leaves over the first l2 set of the gauss-d32 benchmark index at
    seed 1, or over every l2 set of the four-blob instance: those sets
    scan, so the leaves are built here, one per copy."""
    if instance == "gauss-d32":
        scheme, _ = _gauss_d32()
    else:
        scheme, _ = _instance("blobs", 5)
    scans = [(pset.group, copies) for pset, copies in _copies(scheme.root)
             if isinstance(pset.group, base_schemes.L2Scan)]
    return [lsh_group(*scan) for scan in scans[:1 if instance == "gauss-d32" else None]]


@pytest.mark.parametrize("instance", ["gauss-d32", "blobs"])
def test_every_point_finds_its_own_bucket_in_every_table(instance, monkeypatch):
    # a point queried exactly hashes as it was hashed at the build: the keys
    # that the query looks up first, in the first tables, and those that
    # _l2_keys gives it in the others (as a second pass would hash them), are
    # its build keys, and in every table of its group they find the bucket
    # of that key, which keeps it unless the bucket is full of lower points
    groups = _l2_groups(instance)
    assert groups and all(group.leaves == 27 for group in groups)
    looked_up = []
    real = base_schemes._lookup

    def recording(table, tables, keys):
        looked_up.append((tables, keys))
        return real(table, tables, keys)

    monkeypatch.setattr(base_schemes, "_lookup", recording)
    for group in groups:
        table, vectors = group.table, group.vectors
        tables, m = group.projections.shape[0], vectors.shape[0]
        big_l = group.leaf_tables
        is_first = np.arange(tables) % big_l == 0
        firsts, rest = np.flatnonzero(is_first), np.flatnonzero(~is_first)
        assert firsts.size == 27 and rest.size == tables - 27
        built = np.concatenate([
            base_schemes._l2_keys(group.projections[a:a + big_l],
                                  group.offsets[a:a + big_l], group.w, vectors)
            for a in range(0, tables, big_l)])
        first, size = table.spans(np.arange(table.fingerprints.size))
        kept = np.zeros((tables, m), dtype=bool)
        kept[np.repeat(table.tables, size), table.members] = True
        last = table.members[first + size - 1]
        cap = group.max_probe
        keys = np.empty_like(built[:, 0])
        for row, x in enumerate(vectors):
            looked_up.clear()
            base_schemes.query_l2_ann(group, x)
            asked, keys[firsts] = looked_up[0]
            assert asked.tolist() == firsts.tolist()
            keys[rest] = base_schemes._l2_keys(group.projections[rest], group.offsets[rest],
                                               group.w, x[None])[:, 0]
            assert (keys == built[:, row]).all()
            found, buckets = real(table, np.arange(tables), keys)
            assert found.tolist() == list(range(tables))
            assert (table.keys[buckets] == built[:, row]).all()
            assert (kept[found, row] | ((size[buckets] == cap) & (last[buckets] < row))).all()


def _hits_in_first_table(group, leaf: int, q) -> bool:
    """Whether the first table of the group's leaf holds a candidate within
    2r of q among the members its bucket keeps (3L for a leaf of L tables),
    computed from the build's keys."""
    first = [leaf * group.leaf_tables]
    key = base_schemes._l2_keys(group.projections[first], group.offsets[first], group.w,
                                q[None])[0, 0]
    built = base_schemes._l2_keys(group.projections[first], group.offsets[first], group.w,
                                  group.vectors)[0]
    bucket = np.flatnonzero((built == key).all(axis=1))[: group.max_probe]
    return bool((np.linalg.norm(group.vectors[bucket] - q, axis=1) <= 2.0 * group.r).any())


def test_l2_lookups_hash_only_the_tables_they_read(monkeypatch):
    # a leaf-group lookup hashes the first table of every live leaf, and the
    # other tables only of the leaves without a candidate there: on the
    # gauss-d32 benchmark queries, with LSH leaves in place of its scanned
    # sets, every leaf hits in its first table, so a lookup hashes k rows
    # per live leaf
    scheme, queries = _gauss_d32()
    with_lsh_leaves(scheme.root)
    calls, hashed = [], []
    real_query, real_keys = recursive.query_l2_ann, base_schemes._l2_keys

    def recording(group, q, live=None):
        hashed.clear()
        out = real_query(group, q, live)
        calls.append((group, q, live, sum(hashed)))
        return out

    def hashing(projections, offsets, w, vecs):
        hashed.append(projections.shape[0] * projections.shape[1])
        return real_keys(projections, offsets, w, vecs)

    monkeypatch.setattr(recursive, "query_l2_ann", recording)
    monkeypatch.setattr(base_schemes, "_l2_keys", hashing)
    for q in queries[:25]:
        query(scheme, q)
    assert len(calls) == 25  # ladder levels 2-4 repeat level 1: one l2 lookup per query
    for group, q, live, rows in calls:
        live_leaves = np.flatnonzero(live)
        assert live.size == group.leaves and len(live_leaves) == 27
        assert all(_hits_in_first_table(group, leaf, q) for leaf in live_leaves)
        assert rows == len(live_leaves) * group.projections.shape[1]
