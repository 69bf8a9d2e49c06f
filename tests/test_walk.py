"""The lock-step query walk against the per-copy recursion it replaced.

``_Reference`` below is that recursion, kept as a test oracle: it walks
every copy's ladder on its own, looks up each l2 leaf as a group of one,
answers each copy of a scanned l2 set with the set's nearest point by an
exact scan, looks up each node's grids as a group of its copies, and keeps
the first node and copy at the least distance. It constructs each of these
groups from a slice of its point set's group's draws, by copy index (a
leaf's index, or ``copy_of``). ``recursive._walk`` must give the same id,
distance bits and trace, with the l2 sets scanned as built and with LSH
leaves in their place (``with_lsh_leaves``), and it must also do so when
the copies over one point set route to different clusters at one ladder
step, so that a group is looked up for some of its copies only, and when
copies tie. A scanned set is scanned once per query that reaches it,
whatever its copies.
"""

import numpy as np
import pytest

from lpann import Dataset, SchemeConfig, base_schemes, preprocess, query, recursive
from lpann import _kernels
from test_base_schemes import coarse_part, l2_part, per_copy
from test_golden import line_points, with_lsh_leaves


class _Reference:
    """The per-copy recursion. It records, per query, the clusters that the
    copies over each point set route to at each ladder step, and the
    scanned l2 sets they reach."""

    def __init__(self):
        self.groups = {}  # one group per sibling set or node, built on first use
        self.routes = {}
        self.scanned = set()

    def _group(self, key, build):
        if key not in self.groups:
            self.groups[key] = build()
        return self.groups[key]

    def query_nodes(self, pset, owner: int, q: np.ndarray):
        """Best answer of the nodes that parent copy ``owner`` holds over pset."""
        group, best = pset.group, None
        if isinstance(group, base_schemes.L2Scan):
            self.scanned.add(id(group))
            dists = _kernels.dists_to_point(group.vectors, q, 2.0)
            row = int(dists.argmin())
            if not dists[row] <= 2.0 * group.r:
                return None
            x_id = int(group.ids[row])
            return (x_id, float(_kernels.dists_to_point(group.vectors[row], q, 2.0)[0]), [x_id])
        if pset.t == 2.0:
            per = pset.nodes * pset.node_copies
            for leaf in range(owner * per, (owner + 1) * per):
                alone = self._group((id(group), leaf),
                                    lambda: l2_part(group, range(leaf, leaf + 1)))
                hits = per_copy(base_schemes.query_l2_ann(alone, q), 1)
                if hits is not None and (best is None or hits[0][1] < best[1]):
                    best = (hits[0][0], hits[0][1], [hits[0][0]])
            return best
        for node in range(owner * pset.nodes, (owner + 1) * pset.nodes):
            copies = range(node * pset.node_copies, (node + 1) * pset.node_copies)
            schemes = range(*group.copy_of.searchsorted([copies.start, copies.stop]))
            alone = self._group((id(pset), node), lambda: coarse_part(group, schemes))
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
        self.scanned.clear()
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
    """Assert every answer equals the reference's, and that each query scans
    every scanned l2 set the reference reaches exactly once; return the
    splits met, per leaf-group lookup whether it was for some of its leaves
    only, and the number of scans."""
    masked, scans = [], []
    real_lookup, real_scan = recursive.query_l2_ann, recursive.query_l2_scan

    def looking_up(group, q, live=None):
        masked.append(live is not None and not np.all(live))
        return real_lookup(group, q, live)

    def scanning(scan, q):
        scans.append(id(scan))
        return real_scan(scan, q)

    monkeypatch.setattr(recursive, "query_l2_ann", looking_up)
    monkeypatch.setattr(recursive, "query_l2_scan", scanning)
    reference = _Reference()
    splits, scanned = 0, 0
    for q in queries:
        expected, split = reference.query(scheme, q)
        splits += split
        scans.clear()
        assert _answer(scheme, q) == expected
        assert sorted(scans) == sorted(reference.scanned)
        scanned += len(scans)
    return splits, masked, scanned


def _check_both(scheme, queries, monkeypatch) -> list:
    """``_check`` of the index as built, whose l2 sets scan and make no
    leaf-group lookup, and then with LSH leaves in their place, which are
    looked up and scan nothing; the two results."""
    scanned = _check(scheme, queries, monkeypatch)
    assert scanned[2] > 0 and not scanned[1]
    with_lsh_leaves(scheme.root)
    hashed = _check(scheme, queries, monkeypatch)
    assert hashed[1] and not hashed[2]
    return [scanned, hashed]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_walk_matches_per_copy_recursion(seed, monkeypatch):
    dataset, queries = _blobs(seed)
    _check_both(preprocess(dataset, SchemeConfig(p=4.0, r=0.2, seed=seed)), queries, monkeypatch)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_walk_matches_per_copy_recursion_on_the_line(seed, monkeypatch):
    # the instance whose answers the ladder decides
    dataset, r, queries = line_points(seed)
    _check_both(preprocess(dataset, SchemeConfig(p=4.0, r=r, seed=seed)), queries, monkeypatch)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_walk_matches_per_copy_recursion_when_copies_split(seed, monkeypatch):
    dataset, queries, r = _split(seed)
    scheme = preprocess(dataset, SchemeConfig(p=4.0, r=r, seed=seed))
    cover = scheme.root.ladder[0].cover
    assert cover.covering_ref[1] != cover.covering_ref[2]
    # copies of the root routed to different clusters at one ladder step;
    # scanned, each routed l2 set was scanned once per query (``_check``),
    # and as LSH leaves, an l2 group was looked up for some of its copies only
    (splits, _, _), (lsh_splits, masked, _) = _check_both(scheme, queries, monkeypatch)
    assert splits > 0 and lsh_splits > 0 and any(masked)


@pytest.mark.parametrize("seed", [1, 2])
def test_walk_answers_each_owner_of_a_shared_set(seed):
    # below a t = 8 root, each copy of the root owns the t = 4 sets carved
    # from it; a t = 8 ladder needs d >= 4096, so one such set is built
    # directly, with two owners, and walked for each owner alone and for
    # all of them at once, with its l2 sets scanned and then hashed
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
    for _ in range(2):
        reference, answered = _Reference(), 0
        for q in queries:
            expected = [reference.query_nodes(pset, o, q) for o in range(owners)]
            answered += sum(e is not None for e in expected)
            for live in (np.ones(owners, dtype=bool), *np.eye(owners, dtype=bool)):
                assert recursive._walk(pset, live, q) == [e if on else None
                                                          for e, on in zip(expected, live)]
        assert answered
        with_lsh_leaves(pset, owners)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_masked_owners_hash_no_tables_when_copies_split(seed, monkeypatch):
    # a leaf group looked up for some of its leaves only hashes no table of
    # the others: every projection block hashed during a lookup is a table
    # of a live leaf (the instance's l2 sets scan, so LSH leaves over them
    # stand in)
    dataset, queries, r = _split(seed)
    scheme = preprocess(dataset, SchemeConfig(p=4.0, r=r, seed=seed))
    with_lsh_leaves(scheme.root)
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
    # walked directly for two owners. Scanned, every copy answers the
    # lowest row; as LSH leaves, an owner's tied leaves answer different
    # points, so that keeping another tied leaf changes the answer
    d = 32
    dataset, origin = Dataset(np.vstack([np.eye(d), -np.eye(d)]), 4.0), np.zeros(d)
    config = SchemeConfig(p=4.0, r=1.0, seed=seed)
    _check_both(preprocess(dataset, config), [origin], monkeypatch)
    pset = recursive.PointSet(2.0, dataset.ids, dataset.vectors, config.child_copies,
                              recursive.norm_level_copies(4.0))
    owners = 2
    recursive._build_set(pset, [(o, cc) for o in range(owners) for cc in range(pset.nodes)],
                         config.r, config)
    per = pset.nodes * pset.node_copies
    for scanned in (True, False):
        if scanned:
            firsts = [int(dataset.ids[0])] * owners
            assert base_schemes.query_l2_scan(pset.group, origin) == (firsts[0], 1.0)
        else:
            found, ids, dists = base_schemes.query_l2_ann(pset.group, origin)
            assert found.all() and (dists == 1.0).all()
            assert all(ids[o * per] != ids[(o + 1) * per - 1] for o in range(owners))
            firsts = [int(ids[o * per]) for o in range(owners)]
        reference = _Reference()
        expected = [reference.query_nodes(pset, o, origin) for o in range(owners)]
        assert expected == [(x, 1.0, [x]) for x in firsts]
        for live in (np.ones(owners, dtype=bool), *np.eye(owners, dtype=bool)):
            assert recursive._walk(pset, live, origin) == [e if on else None
                                                          for e, on in zip(expected, live)]
        with_lsh_leaves(pset, owners)
