"""The lock-step query walk against the per-copy recursion it replaced.

``_Reference`` below is that recursion, kept as a test oracle: it walks
every copy's ladder on its own, looks up each l2 leaf as a group of one and
each node's grids as a group of its copies, and keeps the first node and
copy at the least distance. It takes each copy's base schemes from its
point set's group by copy index (a leaf's index, or ``copy_of``).
``recursive._walk`` must give the same id, distance bits and trace, and it
must also do so when the copies over one point set route to different
clusters at one ladder step, so that a group is looked up for some of its
copies only, and when copies tie.
"""

import numpy as np
import pytest

from lpann import Dataset, SchemeConfig, base_schemes, preprocess, query, recursive
from lpann import _kernels
from test_base_schemes import per_copy
from test_golden import line_points


class _Reference:
    """The per-copy recursion. It records, per query, the clusters that the
    copies over each point set route to at each ladder step."""

    def __init__(self):
        self.groups = {}  # one group per sibling set or node, built on first use
        self.routes = {}

    def _group(self, key, build):
        if key not in self.groups:
            self.groups[key] = build()
        return self.groups[key]

    def query_nodes(self, pset, owner: int, q: np.ndarray):
        """Best answer of the nodes that parent copy ``owner`` holds over pset."""
        group, best = pset.group, None
        if pset.t == 2.0:
            per = pset.nodes * pset.node_copies
            for leaf in group.leaves[owner * per:(owner + 1) * per]:
                alone = self._group(id(leaf), lambda: base_schemes.l2_group([leaf]))
                hits = per_copy(base_schemes.query_l2_ann(alone, q), 1)
                if hits is not None and (best is None or hits[0][1] < best[1]):
                    best = (hits[0][0], hits[0][1], [hits[0][0]])
            return best
        for node in range(owner * pset.nodes, (owner + 1) * pset.nodes):
            copies = range(node * pset.node_copies, (node + 1) * pset.node_copies)
            alone = self._group((id(pset), node), lambda: base_schemes.coarse_group(
                [[group.schemes[s] for s in np.flatnonzero(group.copy_of == i)]
                 for i in copies]))
            starts = per_copy(base_schemes.query_coarse_ann(alone, q), len(copies))
            for copy, start in zip(copies, starts or ()):
                if start is None:
                    continue
                res = self.refine(pset, copy, *start, q)
                if best is None or res[1] < best[1]:
                    best = res
        return best

    def refine(self, pset, copy: int, x_id: int, x_dist: float, q: np.ndarray):
        trace = [x_id]
        for lvl in pset.ladder:
            ci = lvl.cover.covering_ref[pset.row_of(x_id)]
            self.routes.setdefault((id(pset), lvl.index), set()).add(int(ci))
            reduction, center_id = lvl.children[ci], lvl.cover.clusters[ci].center_id
            cand_id = center_id
            if reduction.child is not None:
                img_q = recursive.mazur_map_apply(reduction.mazur, q - pset.vector_of(center_id))
                res = self.query_nodes(reduction.child, copy, img_q)
                cand_id = None if res is None else res[0]
            if cand_id is not None:
                d_cand = float(_kernels.dists_to_point(
                    pset.vector_of(cand_id).reshape(1, -1), q, pset.t)[0])
                if d_cand < x_dist:
                    x_id, x_dist = cand_id, d_cand
            trace.append(x_id)
        return (x_id, x_dist, trace)

    def query(self, scheme, q):
        """(id, distance bits, trace) as ``lpann.query`` reports them, and
        the number of splits met: (point set, ladder step) pairs at which
        the copies route to more than one cluster."""
        self.routes.clear()
        res = self.query_nodes(scheme.root, 0, q)
        splits = sum(len(clusters) > 1 for clusters in self.routes.values())
        if res is None:
            return None, splits
        dist = float(_kernels.dists_to_point(
            scheme.root.vector_of(res[0]).reshape(1, -1), q, scheme.p)[0])
        return (int(res[0]), float.hex(dist), [int(x) for x in res[2]]), splits


def _answer(scheme, q):
    a = query(scheme, q)
    return None if a is None else (a.id, float.hex(a.distance), list(a.trace))


def _blobs(seed: int):
    """Six blobs whose centers spread over two coordinates, so covers carve
    several clusters, and queries: between two blobs, and near points."""
    n, blobs, d = 60, 6, 32
    rng = np.random.default_rng(seed)
    centers = np.zeros((blobs, d))
    centers[:, :2] = 200.0 * rng.standard_normal((blobs, 2))
    data = centers[np.arange(n) % blobs] + rng.standard_normal((n, d))
    a, b = rng.integers(0, n, 30), rng.integers(0, n, 30)
    between = 0.5 * (data[a] + data[b]) + rng.standard_normal((30, d))
    near = data[:10] + 0.1 * rng.standard_normal((10, d))
    return Dataset(data, 4.0), np.vstack([between, near])


def _split(seed: int):
    """Points on a line whose first cover puts two near points, z (id 1)
    and y (id 2), in different covering clusters, and queries just beside
    y. Every grid cell holding y almost always holds z too, whose lower id
    makes it the cell's representative, so a copy starts at y, the nearer,
    only if one of its grids separates the two: some copies start at z and
    route to the first cluster, the others at y and route to the second.

    With rho the first cover radius: o (id 3) lies within rho of y but not
    of z, so z's ball fits in the cluster around v (id 0) and y's does not;
    y is covered by o's cluster. Twelve far points make n large enough that
    v's cluster has radius 2 rho.
    """
    d, r = 32, 0.2
    bound = recursive.approximation_bound(SchemeConfig(p=4.0, r=r), d)
    rho = recursive.ladder_steps(4.0, r, bound)[0][0]
    line = [0.3 + rho + 10.0, 0.3, 0.1, 0.2 - rho] + [1e4 * (k + 1) for k in range(12)]
    data = np.zeros((len(line), d))
    data[:, 0] = line
    queries = np.zeros((3, d))
    queries[:, 0] = [0.0, -0.02, 0.04]
    return Dataset(data, 4.0), queries, r


def _check(scheme, queries, monkeypatch) -> tuple:
    """Assert every answer equals the reference's; return the splits met and
    whether a leaf group was looked up for some of its leaves only."""
    masked = []
    real = recursive.query_l2_ann

    def recording(group, q, live=None):
        masked.append(live is not None and not np.all(live))
        return real(group, q, live)

    monkeypatch.setattr(recursive, "query_l2_ann", recording)
    reference = _Reference()
    splits = 0
    for q in queries:
        expected, split = reference.query(scheme, q)
        splits += split
        assert _answer(scheme, q) == expected
    return splits, any(masked)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_walk_matches_per_copy_recursion(seed, monkeypatch):
    dataset, queries = _blobs(seed)
    _check(preprocess(dataset, SchemeConfig(p=4.0, r=0.2, seed=seed)), queries, monkeypatch)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_walk_matches_per_copy_recursion_on_the_line(seed, monkeypatch):
    # the instance whose answers the ladder decides
    dataset, r, queries = line_points(seed)
    _check(preprocess(dataset, SchemeConfig(p=4.0, r=r, seed=seed)), queries, monkeypatch)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_walk_matches_per_copy_recursion_when_copies_split(seed, monkeypatch):
    dataset, queries, r = _split(seed)
    scheme = preprocess(dataset, SchemeConfig(p=4.0, r=r, seed=seed))
    cover = scheme.root.ladder[0].cover
    assert cover.covering_ref[1] != cover.covering_ref[2]
    splits, masked = _check(scheme, queries, monkeypatch)
    # copies of the root routed to different clusters at one ladder step,
    # and a leaf group was looked up for some of its leaves only
    assert splits > 0 and masked


@pytest.mark.parametrize("seed", [1, 2])
def test_walk_answers_each_owner_of_a_shared_set(seed):
    # below a t = 8 root, each copy of the root owns the t = 4 sets carved
    # from it; a t = 8 ladder needs d >= 4096, so one such set is built
    # directly, with two owners, and walked for each owner alone and for
    # all of them at once
    dataset, queries = _blobs(seed)
    config = SchemeConfig(p=4.0, r=0.2, seed=seed)
    bound = recursive.approximation_bound(config, dataset.d)
    pset = recursive.PointSet(4.0, dataset.ids, dataset.vectors, config.child_copies,
                              recursive.norm_level_copies(bound.p_effective))
    recursive.carve(pset, config.r, bound, config.child_copies)
    owners = 2
    recursive._build_set(pset, [(o, cc) for o in range(owners) for cc in range(pset.nodes)],
                         config.r, config)
    assert pset.group.copies == owners * pset.nodes * pset.node_copies
    reference, answered = _Reference(), 0
    for q in queries:
        expected = [reference.query_nodes(pset, o, q) for o in range(owners)]
        answered += sum(e is not None for e in expected)
        for live in (np.ones(owners, dtype=bool), *np.eye(owners, dtype=bool)):
            assert recursive._walk(pset, live, q) == [e if on else None
                                                      for e, on in zip(expected, live)]
    assert answered


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_masked_owners_hash_no_tables_when_copies_split(seed, monkeypatch):
    # a leaf group looked up for some of its leaves only hashes no table of
    # the others: every projection block hashed during a lookup is a table
    # of a live leaf
    dataset, queries, r = _split(seed)
    scheme = preprocess(dataset, SchemeConfig(p=4.0, r=r, seed=seed))
    calls, hashed = [], []
    real_query, real_keys = recursive.query_l2_ann, base_schemes._l2_keys

    def recording(group, q, live=None):
        hashed.clear()
        out = real_query(group, q, live)
        calls.append((group, live, list(hashed)))
        return out

    def hashing(projections, offsets, w, vecs):
        hashed.append(projections.copy())
        return real_keys(projections, offsets, w, vecs)

    monkeypatch.setattr(recursive, "query_l2_ann", recording)
    monkeypatch.setattr(base_schemes, "_l2_keys", hashing)
    for q in queries:
        query(scheme, q)
    masked = 0
    for group, live, blocks in calls:
        tables = [np.flatnonzero((group.projections == block).all(axis=(1, 2)))
                  for projections in blocks for block in projections]
        assert all(t.size == 1 for t in tables)
        assert live[group.leaf_of[np.concatenate(tables)]].all()
        masked += not live.all()
    assert masked


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_walk_keeps_the_first_of_tied_copies(seed, monkeypatch):
    # the 64 signed unit vectors +-e_i all lie at distance 1 from the
    # origin, so every copy that answers there ties and each owner keeps
    # its first: through the whole recursion, and over an l2 point set
    # walked directly for two owners, whose tied leaves answer different
    # points, so that keeping another tied leaf changes the answer
    d = 32
    dataset, origin = Dataset(np.vstack([np.eye(d), -np.eye(d)]), 4.0), np.zeros(d)
    config = SchemeConfig(p=4.0, r=1.0, seed=seed)
    _check(preprocess(dataset, config), [origin], monkeypatch)
    pset = recursive.PointSet(2.0, dataset.ids, dataset.vectors, config.child_copies,
                              recursive.norm_level_copies(4.0))
    owners = 2
    recursive._build_set(pset, [(o, cc) for o in range(owners) for cc in range(pset.nodes)],
                         config.r, config)
    found, ids, dists = base_schemes.query_l2_ann(pset.group, origin)
    per = pset.nodes * pset.node_copies
    assert found.all() and (dists == 1.0).all()
    assert all(ids[o * per] != ids[(o + 1) * per - 1] for o in range(owners))
    reference = _Reference()
    expected = [reference.query_nodes(pset, o, origin) for o in range(owners)]
    assert expected == [(int(ids[o * per]), 1.0, [int(ids[o * per])]) for o in range(owners)]
    for live in (np.ones(owners, dtype=bool), *np.eye(owners, dtype=bool)):
        assert recursive._walk(pset, live, origin) == [e if on else None
                                                      for e, on in zip(expected, live)]
