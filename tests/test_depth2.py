"""The depth-2 recursion: a t = 8 root whose ladder clusters hold t = 4
children, whose own ladders bottom out in t = 2 l2 leaves.

A non-empty t = 8 ladder first appears at d >= 4096 with p = 8, so this is
the smallest instance that builds the whole double recursion. With one base
and one child copy per level it builds in under a second and peaks near
0.1 GB: its l2 sets are small enough to scan, so they draw no projections
(as LSH leaves they held about 0.5 GB). The index is saved (its points and
config, under 1 MB), the built copy dropped, and only then loaded, which
rebuilds it, so the two never coexist.
"""

import gc
from collections import Counter

import numpy as np

from lpann import recursive
from lpann import (
    Dataset,
    SchemeConfig,
    load_index,
    preprocess,
    query,
    save_index,
    verify_cover,
)

N, D, P, R, SEED = 12, 4096, 8.0, 1.0, 5


def _instance():
    """(dataset, config, queries): three queries at 0.9 r from a point, and
    three near the midpoint of two points, whose answer depends on what
    every stage of the index happens to find."""
    rng = np.random.default_rng(SEED)
    data = rng.standard_normal((N, D))
    direction = rng.standard_normal((6, D))
    norms = (np.abs(direction) ** P).sum(axis=1) ** (1.0 / P)
    step = (0.9 * R / norms)[:, None] * direction
    near = data[:3] + step[:3]
    between = 0.5 * (data[3:6] + data[6:9]) + step[3:]
    config = SchemeConfig(p=P, r=R, seed=SEED, base_copies=1, child_copies=1)
    return Dataset(data, P), config, np.vstack([near, between])


def _sets(pset):
    """Every point set of the index below pset, pset first, each once."""
    yield pset
    for level in pset.ladder:
        for reduction in level.children:
            if reduction.child is not None:
                yield from _sets(reduction.child)


def _answers(scheme, queries) -> list:
    out = []
    for q in queries:
        a = query(scheme, q)
        out.append(None if a is None else (a.id, float.hex(a.distance), list(a.trace)))
    return out


# (id, float.hex(distance), trace) of every query
GOLDEN_DEPTH2 = [(0, '0x1.ccccccccccccdp-1', [0, 0, 0, 0, 0]),
                 (1, '0x1.ccccccccccccdp-1', [1, 1, 1, 1, 1]),
                 (2, '0x1.ccccccccccccep-1', [2, 2, 2, 2, 2]),
                 (3, '0x1.bc689ae621ca2p+1', [3, 3, 3, 3, 3]),
                 (7, '0x1.df4d6566d3513p+1', [7, 7, 7, 7, 7]),
                 (8, '0x1.d22a291aa477dp+1', [8, 8, 8, 8, 8])]


def test_depth2_shape_covers_answers_and_reload(tmp_path, monkeypatch):
    dataset, config, queries = _instance()
    carves = []
    real = recursive.build_sparse_cover
    monkeypatch.setattr(recursive, "build_sparse_cover",
                        lambda *args: carves.append(args) or real(*args))
    scheme = preprocess(dataset, config)

    # the planned shape: t = 8 -> 4 -> 2, with a non-empty ladder at t = 8
    # and at t = 4
    plan = {lv.t: len(lv.ladder) for lv in scheme.bound.levels}
    assert scheme.p_effective == 8.0 and plan[8.0] > 0 and plan[4.0] > 0
    ladders = {(pset.t, len(pset.ladder)) for pset in _sets(scheme.root)}
    assert ladders == {(8.0, plan[8.0]), (4.0, plan[4.0]), (2.0, 0)}

    # one cover per point set and ladder step, shared by every copy over it
    covers = {(pset.t, pset.vectors.tobytes(), j): (pset, level.cover)
              for pset in _sets(scheme.root) for j, level in enumerate(pset.ladder)}
    assert len(carves) == len(covers) == 24

    # each cover, at both norm levels, holds every point's r-ball in the
    # cluster the point references
    assert {t for t, _, _ in covers} == {8.0, 4.0}
    for pset, cover in covers.values():
        assert verify_cover(cover, Dataset(pset.vectors, pset.t, ids=pset.ids)).cover_ok

    # the t = 8 steps have grid children, so none repeats; every t = 4 set
    # carves one cover, a partition over a scanned l2 set, at each step,
    # so its steps after the first repeat it
    repeats = {(pset.t, j, level.mazur is None)
               for pset in _sets(scheme.root) for j, level in enumerate(pset.ladder)}
    assert repeats == ({(8.0, j, False) for j in range(plan[8.0])}
                       | {(4.0, j, j > 0) for j in range(plan[4.0])})

    # a query looks up each point set it visits once: the root's grids, at
    # each t = 8 step the grids of the t = 4 set its copies route to, and
    # at the first t = 4 step under it one scan of a t = 2 set, which makes
    # no leaf-group lookup
    calls = Counter()
    for attr in ("query_l2_ann", "query_l2_scan", "query_coarse_ann"):
        def counting(*args, _fn=getattr(recursive, attr), _attr=attr):
            calls[_attr] += 1
            return _fn(*args)

        monkeypatch.setattr(recursive, attr, counting)
    built = []
    for q in queries:
        calls.clear()
        built += _answers(scheme, [q])
        assert calls == {"query_coarse_ann": 1 + plan[8.0],
                         "query_l2_scan": plan[8.0]} == {
                             "query_coarse_ann": 5, "query_l2_scan": 4}

    # the r-near queries succeed within c_p r
    assert all(float.fromhex(a[1]) <= scheme.bound.c_p * R for a in built[:3])
    assert built == GOLDEN_DEPTH2

    path = tmp_path / "depth2.lpann"
    save_index(scheme, str(path))
    assert path.stat().st_size < 1 << 20  # the points and config, not the draws
    del scheme
    gc.collect()
    assert _answers(load_index(str(path)), queries) == built
