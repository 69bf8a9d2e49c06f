"""The benchmark's traced run (perfbench/layers.py) wraps lpann functions
under the names their callers look them up by. These tests fail when such a
name is renamed or stops being looked up at call time, instead of letting
the benchmark break."""

import math
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import lpann

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import layers  # noqa: E402
import workloads  # noqa: E402

PROBES = layers.BUILD_PROBES + layers.LOAD_PROBES + layers.QUERY_PROBES + layers.SCAN_PROBES


def test_probe_targets_resolve():
    for owner, attr, _, _ in PROBES:
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr}"


def test_backend_is_a_string():
    assert isinstance(lpann.BACKEND, str)


def _record_calls(monkeypatch, probes) -> set:
    seen = set()
    for owner, attr, _, _ in probes:
        def wrapper(*args, _fn=getattr(owner, attr), _attr=attr, **kwargs):
            seen.add(_attr)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(owner, attr, wrapper)
    return seen


def _lsh_root():
    """An l2 root (d = 8 normalizes p = 4 to 2) of 1000 points, too many for
    its 2 copies to scan, so they are LSH leaves built by build_l2_ann."""
    data = np.random.default_rng(0).standard_normal((1000, 8))
    return lpann.preprocess(lpann.Dataset(data, 4.0), lpann.SchemeConfig(p=4.0, r=1.0))


def test_probes_see_calls(tmp_path, monkeypatch):
    # four far-apart blobs, so the ladder carves several clusters and maps
    # them (their l2 sets scan), and an l2 root whose leaves hash
    rng = np.random.default_rng(0)
    centers = np.zeros((4, 32))
    centers[:, 0] = 100.0 * math.sqrt(32) * np.arange(4)
    data = centers[np.arange(40) % 4] + rng.standard_normal((40, 32))
    probes = layers.BUILD_PROBES + layers.QUERY_PROBES
    seen = _record_calls(monkeypatch, probes)
    scheme = lpann.preprocess(lpann.Dataset(data, 4.0), lpann.SchemeConfig(p=4.0, r=0.2))
    lpann.query(scheme, data[5] + 0.01)
    lsh_root = _lsh_root()
    lpann.query(lsh_root, lsh_root.root.vectors[0])
    assert seen == {attr for _, attr, _, _ in probes}

    monkeypatch.undo()
    paths = [tmp_path / "x.lpann", tmp_path / "lsh.lpann"]
    for index, path in zip((scheme, lsh_root), paths):
        lpann.save_index(index, str(path))
    # loading rebuilds the index with preprocess, so the build probes fire
    seen = _record_calls(monkeypatch, layers.BUILD_PROBES)
    for path in paths:
        lpann.load_index(str(path))
    assert seen == {attr for _, attr, _, _ in layers.BUILD_PROBES}


def test_one_lookup_per_group(monkeypatch):
    # a query looks up each point set once: the root's grids, over all its
    # copies, with one query_coarse_ann call, and at the first ladder step
    # the scanned l2 set of the cluster the root copies route to, for all
    # of its child and node copies, with one query_l2_scan call and no
    # query_l2_ann call; the later steps repeat the first and look up nothing
    rng = np.random.default_rng(0)
    centers = np.zeros((4, 32))
    centers[:, 0] = 100.0 * math.sqrt(32) * np.arange(4)
    data = centers[np.arange(40) % 4] + rng.standard_normal((40, 32))
    scheme = lpann.preprocess(lpann.Dataset(data, 4.0), lpann.SchemeConfig(p=4.0, r=0.2))
    levels = scheme.root.ladder
    # every ladder step then reaches a cluster with a child set at t = 2
    assert levels and all(len(cl.member_ids) > 1 for lvl in levels for cl in lvl.cover.clusters)
    assert {ch.child.t for lvl in levels for ch in lvl.children} == {2.0}
    calls = Counter()
    for attr in ("query_l2_ann", "query_l2_scan", "query_coarse_ann"):
        def counting(*args, _fn=getattr(lpann.recursive, attr), _attr=attr):
            calls[_attr] += 1
            return _fn(*args)

        monkeypatch.setattr(lpann.recursive, attr, counting)
    assert len(levels) == 4 and scheme.root.node_copies == 3
    assert [lvl.mazur is None for lvl in levels] == [False, True, True, True]
    for q in data[:8] + 0.01:
        calls.clear()
        assert lpann.query(scheme, q) is not None
        assert calls == {"query_coarse_ann": 1, "query_l2_scan": 1}


def _sets(pset):
    yield pset
    for lvl in pset.ladder:
        for reduction in lvl.children:
            if reduction.child is not None:
                yield from _sets(reduction.child)


def test_one_table_build_per_group(tmp_path, monkeypatch):
    # each group, l2 or grid, builds its bucket table with one _bucket_table
    # call, from its schemes' draws, at build and at load; no scheme builds
    # a table of its own, and a scanned l2 set builds none: on four blobs,
    # whose l2 sets scan, and on an l2 root whose leaves hash
    rng = np.random.default_rng(0)
    centers = np.zeros((4, 32))
    centers[:, 0] = 100.0 * math.sqrt(32) * np.arange(4)
    data = centers[np.arange(40) % 4] + rng.standard_normal((40, 32))
    calls, kinds, real = [], set(), lpann.base_schemes._bucket_table
    monkeypatch.setattr(lpann.base_schemes, "_bucket_table", lambda *args, **kwargs:
                        calls.append(args) or real(*args, **kwargs))
    for build in (lambda: lpann.preprocess(lpann.Dataset(data, 4.0),
                                           lpann.SchemeConfig(p=4.0, r=0.2)), _lsh_root):
        calls.clear()
        scheme = build()
        built_calls = list(calls)
        path = tmp_path / "x.lpann"
        lpann.save_index(scheme, str(path))
        calls.clear()
        loaded = lpann.load_index(str(path))
        for index, made in ((scheme, built_calls), (loaded, calls)):
            groups = [pset.group for pset in _sets(index.root)]
            tabled = {id(g): g for g in groups if not isinstance(g, lpann.base_schemes.L2Scan)}
            # the one call of each group passes its own tables method
            assert tabled and sorted(id(args[0].__self__) for args in made) == sorted(tabled)
            kinds.update(type(g).__name__ for g in tabled.values())
    assert kinds == {"CoarseGroup", "L2Group"}


def _shape_reads(node) -> tuple:
    """(node copies, child copies) that perfbench's shape gate meets below
    node through the read surface it walks (``workloads.covers``)."""
    copies = subs = 0
    for copy in node.copies:
        copies += 1
        for level in copy.ladder:
            for child in level.children:
                for sub in child.copies:
                    c, s = _shape_reads(sub)
                    copies, subs = copies + c, subs + s + 1
    return copies, subs


# check_shape's facts of a 40-point index of one and of four blobs, as
# recorded before the index kept one object per point set, and its
# _shape_reads, which count no child copies below ladder levels 2-4: they
# repeat level 1 and hold no child sets
SHAPE = {
    "gauss-d32": ({"covers": 12, "clusters_per_cover": 1.0, "singleton_frac": 0.0,
                   "root_ladder_lengths": [4, 4, 4]}, (30, 9)),
    "clustered-d32": ({"covers": 12, "clusters_per_cover": 4.0, "singleton_frac": 0.0,
                       "root_ladder_lengths": [4, 4, 4]}, (111, 36)),
}


@pytest.mark.parametrize("workload", sorted(SHAPE))
def test_benchmark_shape_gate_reads_the_index(workload):
    # the benchmark's shape gate reads the index through node copies, their
    # ladders' covers and each cluster's child copies; it must still pass
    # and report the same facts
    w = workloads.WORKLOADS[workload]
    blobs = 1 if w.clusters == "one" else 4
    rng = np.random.default_rng(0)
    centers = np.zeros((blobs, 32))
    centers[:, 0] = 100.0 * math.sqrt(32) * np.arange(blobs)
    data = centers[np.arange(40) % blobs] + rng.standard_normal((40, 32))
    scheme = lpann.preprocess(lpann.Dataset(data, 4.0), lpann.SchemeConfig(p=4.0, r=w.r))
    problems, facts = workloads.check_shape(w, scheme, lpann.space_usage(scheme))
    assert problems == []
    assert (facts, _shape_reads(scheme.root)) == SHAPE[workload]
