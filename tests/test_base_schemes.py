import math
import tracemalloc
from unittest import mock

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
from lpann import _kernels, base_schemes
from lpann.base_schemes import (
    CoarseGroup,
    L2Group,
    _bucket_table,
    _cells,
    _distinct,
    _fingerprints,
    _l2_keys,
    _lookup,
    _multipliers,
    _split,
    _to_cell_index,
    collision_probability,
    grid_cell_side,
    num_tables,
)


def per_copy(answer, copies: int):
    """A group's answer as (id, distance), or None, per copy, or None if no
    copy answers, after checking its (found, ids, dists) arrays: one entry
    per copy, at least one found."""
    if answer is None:
        return None
    found, ids, dists = answer
    assert (found.dtype, ids.dtype, dists.dtype) == (bool, np.int64, np.float64)
    assert found.shape == ids.shape == dists.shape == (copies,) and found.any()
    return [(int(i), float(dist)) if f else None for f, i, dist in zip(found, ids, dists)]


def _l2_id(leaf, q):
    """The id a group of one l2 leaf answers."""
    hits = per_copy(query_l2_ann(leaf, q), 1)
    return None if hits is None else hits[0][0]


def _coarse_id(scheme, q):
    """The id a group of one grid scheme answers."""
    starts = per_copy(query_coarse_ann(scheme, q), 1)
    return None if starts is None else starts[0][0]


def l2_part(group: L2Group, leaves: range) -> L2Group:
    """Leaves ``leaves`` of an l2 group as a group of their own, constructed
    from a slice of its draws."""
    a, b = group.leaf_of.searchsorted([leaves.start, leaves.stop])
    return L2Group(group.ids, group.vectors, group.r, group.projections[a:b],
                   group.offsets[a:b], group.leaf_of[a:b] - leaves.start)


def coarse_part(group: CoarseGroup, schemes: range) -> CoarseGroup:
    """Grid schemes ``schemes`` of a coarse group, with their copies, as a
    group of their own, constructed from a slice of its shifts."""
    a, b = group.scheme_of.searchsorted([schemes.start, schemes.stop])
    copy_of = group.copy_of[schemes.start:schemes.stop]
    return CoarseGroup(group.ids, group.vectors, group.p, group.r, group.shifts[a:b],
                       group.scheme_of[a:b] - schemes.start, copy_of - copy_of[0])


def _one_scheme(ids, vectors, p, r, shifts) -> CoarseGroup:
    """A group of one copy of one grid scheme with the given shifts."""
    return CoarseGroup(ids, vectors, p, r, shifts, np.zeros(len(shifts), dtype=np.int64),
                       np.zeros(1, dtype=np.int64))


def _regroup(group):
    """A new group constructed from the draws of group."""
    if isinstance(group, CoarseGroup):
        return CoarseGroup(group.ids, group.vectors, group.p, group.r, group.shifts,
                           group.scheme_of, group.copy_of)
    return L2Group(group.ids, group.vectors, group.r, group.projections, group.offsets,
                   group.leaf_of)


def test_collision_probability_design_point():
    # frozen from the closed form at s = 1/4 (distance r, width 4r)
    assert collision_probability(0.25) == pytest.approx(0.8005324324284999, rel=1e-12)
    assert num_tables(500, 0.05) == 21


def test_l2_singleton_hit():
    x = np.array([[1.0, 2.0, 3.0]])
    scheme = build_l2_ann([7], x, r=1.0, delta_fail=0.1, seeds=[0])
    assert _l2_id(scheme, [1.1, 2.0, 3.0]) == 7


def test_l2_empty_buckets_give_none():
    scheme = build_l2_ann([0], np.zeros((1, 8)), r=1.0, delta_fail=0.1, seeds=[3])
    assert _l2_id(scheme, 1e6 * np.ones(8)) is None


def test_l2_never_exceeds_twice_r():
    rng = np.random.default_rng(4)
    pts = rng.standard_normal((300, 16))
    scheme = build_l2_ann(np.arange(300), pts, r=0.5, delta_fail=0.1, seeds=[9])
    for _ in range(80):
        q = rng.standard_normal(16)
        rid = _l2_id(scheme, q)
        if rid is not None:
            assert lp_distance(pts[rid], q, 2.0) <= 2.0 * 0.5


def test_l2_planted_success_rate():
    rng = np.random.default_rng(17)
    n, d, r = 200, 32, 1.0
    pts = rng.standard_normal((n, d))
    scheme = build_l2_ann(np.arange(n), pts, r=r, delta_fail=0.05, seeds=[5])
    hits = 0
    trials = 100
    for _ in range(trials):
        g = rng.standard_normal(d)
        q = pts[n - 1] + 0.9 * r * g / np.linalg.norm(g)
        rid = _l2_id(scheme, q)
        if rid is not None and lp_distance(pts[rid], q, 2.0) <= 2.0 * r:
            hits += 1
    assert hits / trials >= 1.0 - 0.05 - 0.05


def test_l2_determinism():
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((60, 8))
    a = build_l2_ann(np.arange(60), pts, 1.0, 0.2, seeds=[12])
    b = build_l2_ann(np.arange(60), pts, 1.0, 0.2, seeds=[12])
    assert np.array_equal(a.projections, b.projections)
    q = rng.standard_normal(8)
    assert _l2_id(a, q) == _l2_id(b, q)


def test_l2_dimension_mismatch():
    scheme = build_l2_ann([0], np.zeros((1, 4)), 1.0, 0.1, seeds=[1])
    with pytest.raises(UsageError):
        query_l2_ann(scheme, np.zeros(5))


def test_coarse_singleton():
    x = np.array([[0.0, 0.0, 0.0, 0.0]])
    scheme = build_coarse_ann([3], x, p=4.0, r=1.0, seeds=[[2]])
    assert _coarse_id(scheme, [0.5, 0.0, 0.0, 0.0]) == 3


def test_coarse_all_empty_cells():
    scheme = build_coarse_ann([0], np.zeros((1, 4)), p=4.0, r=1.0, seeds=[[2]])
    # far beyond every occupied cell in every grid
    assert _coarse_id(scheme, 1e9 * np.ones(4)) is None


def test_coarse_two_far_points():
    d, p, r = 4, 4.0, 1.0
    c0 = coarse_approximation(d, p)
    pts = np.zeros((2, d))
    pts[1, 0] = 3.0 * c0 * r  # farther than 2 c0 r, can never share a cell
    for seed in range(5):
        scheme = build_coarse_ann([0, 1], pts, p=p, r=r, seeds=[[seed]])
        q = pts[0].copy()
        q[1] += 0.9 * r
        assert _coarse_id(scheme, q) == 0


def test_coarse_never_exceeds_bound():
    rng = np.random.default_rng(6)
    pts = rng.standard_normal((200, 16))
    scheme = build_coarse_ann(np.arange(200), pts, p=4.0, r=0.3, seeds=[[8]])
    limit = scheme.c0 * scheme.r
    for _ in range(60):
        q = rng.standard_normal(16)
        rid = _coarse_id(scheme, q)
        if rid is not None:
            assert lp_distance(pts[rid], q, 4.0) <= limit


def test_coarse_planted_success_rate():
    rng = np.random.default_rng(23)
    n, d, p, r = 200, 16, 4.0, 1.0
    pts = rng.standard_normal((n, d))
    scheme = build_coarse_ann(np.arange(n), pts, p=p, r=r, seeds=[[31]])
    limit = scheme.c0 * r
    hits = 0
    trials = 100
    for _ in range(trials):
        g = rng.standard_normal(d)
        norm = (np.abs(g) ** p).sum() ** (1.0 / p)
        q = pts[n - 1] + 0.9 * r * g / norm
        rid = _coarse_id(scheme, q)
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
    scheme = build_coarse_ann([0, 1], np.vstack([x, y]), p=p, r=r, seeds=[[77]])
    cx, cy = (np.floor((v + scheme.shifts) / scheme.cell_side) for v in (x, y))
    assert (cx == cy).all(axis=1).mean() >= 0.7


def test_coarse_determinism():
    rng = np.random.default_rng(1)
    pts = rng.standard_normal((50, 8))
    a = build_coarse_ann(np.arange(50), pts, 4.0, 1.0, seeds=[[5]])
    b = build_coarse_ann(np.arange(50), pts, 4.0, 1.0, seeds=[[5]])
    assert np.array_equal(a.shifts, b.shifts)


def test_coarse_dimension_mismatch():
    scheme = build_coarse_ann([0], np.zeros((1, 4)), 4.0, 1.0, seeds=[[1]])
    with pytest.raises(UsageError):
        query_coarse_ann(scheme, np.zeros(3))


def test_build_precondition_errors():
    three = np.arange(12.0).reshape(3, 4)
    nan, inf = three.copy(), three.copy()
    nan[1, 2], inf[2, 0] = np.nan, -np.inf
    # (ids, vectors, r) that neither builder takes
    for ids, vectors, r in [
        ([], np.zeros((0, 3)), 1.0),
        ([0], np.zeros((1, 3)), -1.0),
        ([0], three, 1.0),  # one id for three rows
        ([[0], [1], [2]], three, 1.0),  # ids that are not 1-d
        (0, three[:1], 1.0),
        ([0, 1, 2], nan, 1.0),
        ([0, 1, 2], inf, 1.0),
    ]:
        with np.errstate(all="raise"), pytest.raises(UsageError):
            build_l2_ann(ids, vectors, r, 0.1, [0])
        with np.errstate(all="raise"), pytest.raises(UsageError):
            build_coarse_ann(ids, vectors, 4.0, r, [[0]])
    with pytest.raises(UsageError):
        build_l2_ann([0], np.zeros((1, 3)), 1.0, 1.5, [0])
    with pytest.raises(UsageError):
        build_coarse_ann([0], np.zeros((1, 3)), 1.5, 1.0, [[0]])
    # no seeds, a bare seed, an empty copy, or a seed where a copy belongs
    for seeds in ([], 7):
        with pytest.raises(UsageError):
            build_l2_ann([0, 1, 2], three, 1.0, 0.1, seeds)
    for seeds in ([], 7, [[0], []], [[]], [0]):
        with pytest.raises(UsageError):
            build_coarse_ann([0, 1, 2], three, 4.0, 1.0, seeds)


# (tables, bits, d, vectors): one tiny product, a leaf's build, and the
# query of a 27-leaf group of gauss-d32 leaves
@pytest.mark.parametrize("shape", [(1, 1, 1, 1), (3, 10, 32, 200), (108, 10, 32, 1)])
def test_l2_keys_match_an_exact_sum_away_from_bucket_edges(shape):
    # every key whose exact value lies more than 1e-9 of a bucket from an
    # edge is the floor of it, whatever the scale of the vectors
    big_l, k, d, m = shape
    rng = np.random.default_rng(6)
    projections = rng.standard_normal((big_l, k, d))
    w = 4.0
    offsets = rng.uniform(0.0, w, size=(big_l, k))
    vectors = rng.standard_normal((m, d)) * rng.choice([1e-3, 1.0, 1e3], size=(m, 1))
    keys = _l2_keys(projections, offsets, w, vectors)
    assert keys.shape == (big_l, m, k) and keys.dtype == np.int64
    checked = 0
    for t, i, j in np.ndindex(keys.shape):
        exact = (math.fsum(projections[t, j] * vectors[i]) + offsets[t, j]) / w
        if abs(exact - round(exact)) > 1e-9:
            assert keys[t, i, j] == math.floor(exact)
            checked += 1
    assert checked > 0.99 * keys.size


def test_regrouping_gives_the_same_table_and_answers():
    # a group builds its table from its draws alone, so a second group
    # constructed from a built group's draws has the same table, byte for
    # byte, and gives the same answers
    rng = np.random.default_rng(2)
    pts = rng.standard_normal((200, 16))
    queries = pts[:50] + 0.1 * rng.standard_normal((50, 16))
    grids = build_coarse_ann(np.arange(200), pts, 4.0, 0.3, seeds=[[0, 1, 2]])
    leaves = build_l2_ann(np.arange(200), pts, 0.5, 0.1, seeds=[0, 1, 2])
    for first, query_fn, copies in ((grids, query_coarse_ann, 1), (leaves, query_l2_ann, 3)):
        second = _regroup(first)
        assert second.table is not first.table
        for name in ("fingerprints", "tables", "keys", "starts", "members", "multipliers"):
            a, b = getattr(first.table, name), getattr(second.table, name)
            if a is None:  # a grid table recomputes its keys; one-member buckets need no starts
                assert b is None and (name == "starts" or name == "keys"
                                      and isinstance(first, CoarseGroup))
                continue
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        for q in queries:
            assert per_copy(query_fn(first, q), copies) == per_copy(query_fn(second, q), copies)


# few distinct values, so rows repeat; the ends are the clipped extremes
KEY_VALUES = [*_to_cell_index(np.array([-1e300, 1e300])).tolist(), -2, -1, 0, 1, 2]


@st.composite
def _keys_and_probes(draw):
    """(keys, probes): t tables of m keys each, and probe keys, one per
    table. Narrow keys are drawn freely; wide ones (past 64 ints) are rows
    of a small palette of one base row with a few entries changed, so
    distinct keys often differ in a single entry, anywhere in the row."""
    t, m = draw(st.integers(1, 4)), draw(st.integers(1, 40))
    k = draw(st.one_of(st.integers(1, 3), st.integers(65, 80)))
    elements = st.sampled_from(KEY_VALUES)
    if k <= 3:
        keys = draw(arrays(np.int64, (t, m, k), elements=elements))
        probes = draw(st.lists(arrays(np.int64, (t, k), elements=elements), max_size=4))
        return keys, probes
    palette = np.tile(draw(arrays(np.int64, k, elements=elements)), (6, 1))
    for row in palette[1:]:
        for j in draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=2)):
            row[j] = draw(elements)
    rows = st.integers(0, len(palette) - 1)
    keys = palette[draw(arrays(np.intp, (t, m), elements=rows))]
    probes = [palette[draw(arrays(np.intp, t, elements=rows))] for _ in range(draw(st.integers(0, 4)))]
    return keys, probes


def _dict_reference_check(keys, probes, cap=2**31 - 1):
    """The table of keys, keeping at most cap members a bucket, finds the
    first cap members of every stored key of every point, then of every
    probe key, as a dict of (table, key) tuples does, and keeps no others."""
    reference = {}
    for t in range(keys.shape[0]):
        for local, key in enumerate(map(tuple, keys[t])):
            reference.setdefault((t, key), []).append(local)
    table = _bucket_table(lambda: ((table_keys, cap, None) for table_keys in keys))
    assert table.members.size == sum(min(len(v), cap) for v in reference.values())
    # every stored key of every point, then arbitrary (often absent) keys
    for probe in [keys[:, i, :] for i in range(keys.shape[1])] + probes:
        expected = [
            reference[t, tuple(key)][:cap]
            for t, key in enumerate(probe)
            if (t, tuple(key)) in reference
        ]
        found = [
            table.members[first: first + size].tolist()
            for first, size in zip(*table.spans(_lookup(table, np.arange(len(probe)), probe)[1]))
        ]
        assert found == expected


@settings(max_examples=200, deadline=None)
@given(_keys_and_probes(), st.one_of(st.integers(1, 3), st.just(2**31 - 1)))
def test_bucket_table_matches_dict_reference(case, cap):
    _dict_reference_check(*case, cap)


@st.composite
def _grid_points(draw):
    """(vectors, shifts) of one scheme: few distinct coordinates, so cells
    repeat, and ones that scale past the int64 range, so cells clip."""
    d, m, grids = draw(st.integers(1, 3)), draw(st.integers(1, 30)), draw(st.integers(1, 4))
    coords = st.sampled_from([-1e300, 1e300, -2.5, -1.0, 0.0, 0.75, 1.0, 2.0])
    vectors = draw(arrays(np.float64, (m, d), elements=coords))
    shifts = draw(arrays(np.float64, (grids, d), elements=st.sampled_from([0.0, 0.25, 0.5])))
    return vectors, shifts


@settings(max_examples=200, deadline=None)
@given(_grid_points())
def test_grid_table_keeps_the_lowest_point_of_every_cell(case):
    # one member per occupied cell, its lowest local index, whose recomputed
    # cell is the cell, clipped extremes included; every point finds it
    vectors, shifts = case
    m, d = vectors.shape
    group = _one_scheme(np.arange(m), vectors, 4.0, 1.0 / (4 * d), shifts)
    side, table = group.cell_side, group.table
    cells = [np.clip(np.floor((vectors + shift) / side), -9.2e18, 9.2e18).astype(np.int64)
             for shift in shifts]
    reference = {}
    for t, grid in enumerate(cells):
        for local, cell in enumerate(map(tuple, grid)):
            reference.setdefault((t, cell), local)
    assert table.keys is None and table.starts is None
    assert table.members.size == table.fingerprints.size
    reps = table.members
    recomputed = _cells(vectors[reps], group.shifts[table.tables], side)
    stored = zip(table.tables.tolist(), map(tuple, recomputed), reps.tolist())
    assert {(t, cell): rep for t, cell, rep in stored} == reference
    for i in range(m):
        probe = np.array([grid[i] for grid in cells])
        found, hit = _lookup(table, np.arange(len(probe)), probe)
        assert found.tolist() == list(range(len(shifts)))
        assert table.members[hit].tolist() == [
            reference[t, tuple(cell)] for t, cell in enumerate(probe)]


def _degenerate(multipliers):
    """_multipliers with salt 0's made degenerate, the key entries' set to
    multipliers[0] (None keeps them) and the table number's to
    multipliers[1], and the salts asked for."""
    salts = []

    def patched(salt, width):
        salts.append(salt)
        out = _multipliers(salt, width)
        if salt == 0:
            out[:-1] = out[:-1] if multipliers[0] is None else multipliers[0]
            out[-1] = multipliers[1]
        return out

    return mock.patch("lpann.base_schemes._multipliers", patched), salts


# the fingerprint is the table number (buckets of one table collide), the
# key's sum (keys of one table with equal sums collide), or blind to the
# table (one key in two tables collides, found only once every table is
# split, so the whole pass is made again under the next salt)
DEGENERATE = [(0, 1), (1, 0), (None, 0)]


@pytest.mark.parametrize("multipliers", DEGENERATE)
def test_fingerprint_collision_moves_to_a_later_salt(multipliers):
    rng = np.random.default_rng(3)
    pts = rng.standard_normal((200, 16))
    queries = pts[:30] + 0.1 * rng.standard_normal((30, 16))
    grids = build_coarse_ann(np.arange(200), pts, 4.0, 0.3, seeds=[[0, 1, 2]])
    leaves = build_l2_ann(np.arange(200), pts, 0.5, 0.1, seeds=[0, 1, 2])
    keys = np.tile(rng.integers(-2, 3, size=(1, 1, 70)), (3, 5, 1))  # one key per table
    keys[0, 1:3, 67] += 1  # two in table 0, differing past the 64th entry
    for unforced, query_fn, copies in ((grids, query_coarse_ann, 1), (leaves, query_l2_ann, 3)):
        patch, salts = _degenerate(multipliers)
        with patch:
            forced = _regroup(unforced)
        assert max(salts) > 0 and salts == sorted(salts)
        table = forced.table
        width = table.multipliers.size - 1
        assert table.multipliers.tobytes() == _multipliers(max(salts), width).tobytes()
        # every fingerprint is its bucket's, from its key, kept or recomputed
        # from its first member, under the final salt
        if isinstance(forced, CoarseGroup):
            stored = _cells(pts[table.members], forced.shifts[table.tables], grids.cell_side)
        else:
            stored = table.keys
        fp = _fingerprints(table.multipliers, table.tables, stored)
        assert fp.tobytes() == table.fingerprints.tobytes()
        for q in queries:
            assert per_copy(query_fn(forced, q), copies) == per_copy(query_fn(unforced, q), copies)
    patch, salts = _degenerate(multipliers)
    with patch:
        _dict_reference_check(keys, [keys[:, 0], keys[:, 1] + 1])
    assert max(salts) > 0


@pytest.mark.parametrize("multipliers", DEGENERATE)
def test_degenerate_salt_gives_the_table_of_the_salt_it_ends_at(multipliers):
    # a table is a function of its key classes and the salt it ends at: a
    # build whose salt 0 is degenerate gives, array for array, the table of
    # a build handed that salt's multipliers as its salt 0
    rng = np.random.default_rng(3)
    pts = rng.standard_normal((200, 16))
    grids = build_coarse_ann(np.arange(200), pts, 4.0, 0.3, seeds=[[0, 1, 2]])
    leaves = build_l2_ann(np.arange(200), pts, 0.5, 0.1, seeds=[0, 1, 2])
    keys = np.tile(rng.integers(-2, 3, size=(1, 6, 70)), (3, 5, 1))  # repeats in every table
    keys[0, 1:3, 67] += 1
    for build in (lambda: _regroup(grids).table, lambda: _regroup(leaves).table,
                  lambda: _bucket_table(lambda: ((table_keys, 2, None) for table_keys in keys))):
        patch, salts = _degenerate(multipliers)
        with patch:
            forced = build()
        final = max(salts)
        assert final > 0 and salts == list(range(final + 1))
        handed_salts = []

        def handed(salt, width):
            handed_salts.append(salt)
            return _multipliers(salt + final, width)

        with mock.patch("lpann.base_schemes._multipliers", handed):
            table = build()
        assert handed_salts == [0]
        assert vars(forced).keys() == vars(table).keys()
        for name, a in vars(forced).items():
            b = getattr(table, name)
            if a is None:
                assert b is None
                continue
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name


def _reference_split(multipliers, t, keys):
    """``_split`` as first written, kept as its oracle: the table number
    enters as a full column, and the run check gathers both rows of every
    pair inside a run."""
    fp = _fingerprints(multipliers, np.full(keys.shape[0], t), keys)
    order = fp.argsort(kind="stable")
    fp = fp[order]
    new = np.ones(fp.size, dtype=bool)
    new[1:] = fp[1:] != fp[:-1]
    within = np.flatnonzero(~new)
    if (keys[order[within]] != keys[order[within - 1]]).any():
        return None
    first = np.flatnonzero(new)
    return order, first, fp[first]


@st.composite
def _split_case(draw, shape):
    """(multipliers, t, keys) of one table whose keys are all distinct, all
    equal, few and repeating, or, under the key-sum multipliers of
    ``_degenerate``, hold two distinct keys with one fingerprint among
    freely drawn ones."""
    m, k = draw(st.integers(1, 40)), draw(st.integers(2, 5))
    t = draw(st.integers(0, 2**31 - 1))
    multipliers = _multipliers(draw(st.integers(0, 7)), k)
    if shape == "single":
        keys = draw(arrays(np.int64, (m, k), elements=st.integers(-2**62, 2**62), unique=True))
    elif shape == "one":
        keys = np.tile(draw(arrays(np.int64, (1, k), elements=st.sampled_from(KEY_VALUES))), (m, 1))
    elif shape == "runs":
        keys = draw(arrays(np.int64, (m, k), elements=st.integers(-1, 1)))
    else:
        patch, _ = _degenerate((1, 0))
        with patch:
            multipliers = base_schemes._multipliers(0, k)
        keys = draw(arrays(np.int64, (m, k), elements=st.integers(-2, 2)))
        twin = keys[draw(st.integers(0, m - 1))].copy()
        twin[:2] += (1, -1)  # another key with the same sum
        keys = np.insert(keys, draw(st.integers(0, m)), twin, axis=0)
    # tables come to _split as (m, k) views of a leaf's (L, m, k) keys
    strided = np.empty((keys.shape[0], 3, k), dtype=np.int64)
    strided[:, 1] = keys
    return multipliers, t, strided[:, 1]


@pytest.mark.parametrize("shape", ["single", "one", "runs", "collision"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_split_matches_reference(shape, data):
    multipliers, t, keys = data.draw(_split_case(shape))
    got, expected = _split(multipliers, t, keys), _reference_split(multipliers, t, keys)
    assert (got is None) == (expected is None) == (shape == "collision")
    for a, b in zip(got or (), expected or ()):
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
    runs = {"single": keys.shape[0], "one": 1}
    if shape in runs:
        assert got[1].size == runs[shape]


CELL_EDGES = [np.nextafter(9.2e18, np.inf), np.nextafter(9.2e18, -np.inf), 9.2e18, 9.3e18,
              1e300, np.inf]


@settings(max_examples=300, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(0, 3), st.integers(0, 5)), elements=st.one_of(
    st.floats(-1e18, 1e18), st.sampled_from(CELL_EDGES + [-x for x in CELL_EDGES]))))
def test_to_cell_index_matches_a_full_clip(values):
    expected = np.clip(np.floor(values), -9.2e18, 9.2e18).astype(np.int64)
    got = _to_cell_index(values.copy())
    assert (got.dtype, got.shape, got.tobytes()) == (expected.dtype, expected.shape, expected.tobytes())


def test_grid_group_holds_one_grid_of_cells_at_a_time():
    # every point has a cell of its own in every grid, so all the grids'
    # cells would take 86 grids' worth, 8.8 MB; the build holds one
    # grid's at a time, and its peak stays within a few grids' cells plus
    # twice a table that keeps no cells (the table and the parts it joins)
    rng = np.random.default_rng(4)
    m, d = 200, 64
    pts = 1000.0 * rng.standard_normal((m, d))
    tracemalloc.start()
    try:
        group = build_coarse_ann(np.arange(m), pts, 4.0, 0.01, seeds=[[0, 1]])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    buckets = group.table.fingerprints.size
    assert buckets == m * len(group.shifts)
    per_bucket = 8 + 8 + 4 + 8 + 4  # fingerprint, its sort order, table number, start, member
    assert peak < 2 * per_bucket * buckets + 8 * pts.nbytes


def _build_peak(build):
    """build() and the peak of the memory it allocated, by tracemalloc."""
    tracemalloc.start()
    try:
        return build(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_coarse_build_draws_its_shifts_once():
    # each seed's shifts are drawn straight into the group's array, so a
    # build never holds a second copy of them: over 20 points at d = 2048,
    # with 2 copies of 4 schemes, it peaks below 1.5 times the shifts
    pts = np.random.default_rng(5).standard_normal((20, 2048))
    seeds = [[4 * copy + s for s in range(4)] for copy in range(2)]
    group, peak = _build_peak(lambda: build_coarse_ann(np.arange(20), pts, 4.0, 1.0, seeds))
    assert group.shifts.shape == (8 * 24, 2048)
    assert peak < 1.5 * group.shifts.nbytes


def test_l2_build_draws_its_projections_once():
    # the same for 8 l2 leaves' projections
    pts = np.random.default_rng(5).standard_normal((20, 2048))
    group, peak = _build_peak(lambda: build_l2_ann(np.arange(20), pts, 1.0, 1.0 / 3.0,
                                                   list(range(8))))
    assert group.leaves == 8
    assert peak < 1.5 * group.projections.nbytes


def _dense_grid_table(vectors, shifts, side):
    """The grid table as built before the box: every point's cell in every
    coordinate of every grid, through the same splitter."""
    return _bucket_table(lambda: ((_cells(vectors, shift, side), 1, None) for shift in shifts),
                         keep_keys=False)


def _varying(vectors, shifts, side) -> np.ndarray:
    """(grids, d) mask of the coordinates where a cell boundary cuts the
    points' extent, from the cells of every coordinate's extremes."""
    low, high = vectors.min(axis=0), vectors.max(axis=0)
    return _cells(low, shifts, side) != _cells(high, shifts, side)


BOX_CASES = ["single", "duplicates", "huge", "subnormal", "every", "none", "offset"]


@st.composite
def _box_case(draw):
    """(kind, vectors, r, shifts, degenerate) of one grid scheme: one point,
    a few points repeated, coordinates of +-1e300 (clipped cells), radius
    5e-324 (overflowing cells), points spanning several cells in every
    coordinate or inside one cell in all, points offset by 1e6; built under
    ordinary multipliers or a ``_degenerate`` salt 0."""
    kind = draw(st.sampled_from(BOX_CASES))
    d, grids = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    m = 1 if kind == "single" else draw(st.integers(2, 30))
    r = 5e-324 if kind == "subnormal" else 0.25
    side = grid_cell_side(d, r)
    coords = {"huge": st.sampled_from([-1e300, 1e300, -1.5, 0.0, 2.5]),
              "subnormal": st.sampled_from([0.0, 5e-324, -1e-300, 1.0]),
              "none": st.floats(0.0, 0.2 * side)}.get(kind, st.floats(-2.0 * side, 2.0 * side))
    vectors = draw(arrays(np.float64, (m, d), elements=coords))
    if kind == "duplicates":
        vectors = vectors[draw(arrays(np.intp, m, elements=st.integers(0, 1)))]
    elif kind == "every":
        vectors[:2] = [[-2.0 * side], [2.0 * side]]
    elif kind == "offset":
        vectors += 1e6
    unit = st.floats(0.0, 0.5 if kind == "none" else 1.0, exclude_max=True)
    shifts = side * draw(arrays(np.float64, (grids, d), elements=unit))
    return kind, vectors, r, shifts, draw(st.sampled_from([None, *DEGENERATE]))


@settings(max_examples=300, deadline=None)
@given(_box_case())
def test_box_build_gives_the_dense_table(case):
    # cells computed only where a cell boundary cuts the points' box give
    # the table of every point's full cells, array for array, byte for byte
    kind, vectors, r, shifts, degenerate = case
    m, d = vectors.shape
    side = grid_cell_side(d, r)
    varying = _varying(vectors, shifts, side)
    if kind == "every":
        assert varying.all()
    elif kind in ("single", "none"):
        assert not varying.any()

    def build(fn):
        if degenerate is None:
            return fn()
        patch, _ = _degenerate(degenerate)
        with patch:
            return fn()

    box = build(lambda: _one_scheme(np.arange(m), vectors, 4.0, r, shifts).table)
    dense = build(lambda: _dense_grid_table(vectors, shifts, side))
    assert vars(box).keys() == vars(dense).keys()
    for name, a in vars(box).items():
        b = getattr(dense, name)
        if a is None:
            assert b is None, name
            continue
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name


def test_grid_build_computes_cells_only_where_a_boundary_cuts_the_points():
    # on a gauss-d32-shaped set the cell side, 128, is far wider than the
    # points' spread in most coordinates: cells are computed per point only
    # in the (grid, coordinate) pairs a cell boundary cuts, plus the two
    # corners of the points' box per grid, and the build peaks no higher
    # than the dense one
    rng = np.random.default_rng(1)
    m, d = 1000, 32
    pts = rng.standard_normal((m, d))
    scheme = build_coarse_ann(np.arange(m), pts, 4.0, 1.0, seeds=[[1]])
    shifts, side = scheme.shifts.copy(), scheme.cell_side
    grids, varying = len(shifts), int(_varying(pts, shifts, side).sum())
    entries, real = [], _cells

    def recording(points, shifts, side):
        entries.append(np.broadcast(points, shifts).size)
        return real(points, shifts, side)

    with mock.patch.object(base_schemes, "_cells", recording):
        _regroup(scheme)
    assert sum(entries) <= m * varying + 2 * grids * d
    assert sum(entries) < m * grids * d / 8
    peaks = []
    for build in (lambda: _regroup(scheme), lambda: _dense_grid_table(pts, shifts, side)):
        tracemalloc.start()
        try:
            build()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= peaks[1]


def test_grid_match_counts_only_where_the_cell_is_confirmed():
    # fingerprints that are the table number alone survive a build whose
    # grids hold one cell each, and then every query cell matches every
    # grid; a match counts only where the representative's recomputed cell
    # is the query's: for near, in grid 1 after grid 0 fails, for far, two
    # cells away though within c0 r, in neither
    x = np.zeros((1, 2))
    unforced = _one_scheme(np.array([7]), x, 4.0, 0.5, np.array([[3.75, 0.0], [1.0, 1.0]]))
    assert unforced.cell_side == 4.0
    near, far = np.array([0.5, 0.0]), np.array([4.5, 0.0])
    assert lp_distance(far, x[0], 4.0) <= unforced.c0 * unforced.r
    patch, salts = _degenerate((0, 1))
    with patch:
        forced = _regroup(unforced)
    assert salts == [0]
    for group in (forced, unforced):
        assert per_copy(query_coarse_ann(group, near), 1) == [(7, 0.5)]
        assert query_coarse_ann(group, far) is None


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 30).flatmap(lambda m: st.tuples(
    st.just(m),
    st.one_of(st.lists(st.integers(0, m - 1), max_size=60),
              st.integers(0, m - 1).flatmap(lambda i: st.lists(st.just(i), max_size=60))))))
def test_distinct_matches_np_unique(case):
    m, rows = case
    rows = np.array(rows, dtype=np.intp)
    distinct, inverse = _distinct(rows, m)
    expected, expected_inverse = np.unique(rows, return_inverse=True)
    assert distinct.tolist() == expected.tolist()
    assert inverse.tolist() == expected_inverse.tolist()


# Grouped lookups against slow per-scheme loops. Points, queries, projections
# and shifts are small integers and widths powers of two, so every bucket key
# and cell is exact and the loops below see exactly the buckets the schemes
# store; distances come from lp_distance, which measures one row as the
# schemes' batched calls do.


@st.composite
def _points(draw, d: int, m: int, spread: int):
    """(x, q): small integer points, or, in one case of three, signed unit
    vectors around q = 0, all at distance 1, so answers tie across leaves
    and schemes."""
    if draw(st.integers(0, 2)) == 0:
        units = np.vstack([np.eye(d), -np.eye(d)])
        rows = draw(st.lists(st.integers(0, 2 * d - 1), min_size=m, max_size=m))
        return units[rows], np.zeros(d)
    coords = st.integers(-spread, spread)
    x = draw(arrays(np.float64, (m, d), elements=coords))
    return x, draw(arrays(np.float64, d, elements=coords))


@st.composite
def _l2_case(draw):
    d, m, k = draw(st.integers(1, 3)), draw(st.integers(1, 12)), draw(st.integers(1, 2))
    x, q = draw(_points(d, m, 2))
    leaves = []
    for _ in range(draw(st.integers(1, 4))):
        n_tables = draw(st.integers(1, 2))  # max_probe = 3 n_tables: buckets often exceed it
        proj = draw(arrays(np.float64, (n_tables, k, d), elements=st.integers(-2, 2)))
        offsets = draw(arrays(np.float64, (n_tables, k), elements=st.integers(0, 3)))
        leaves.append((proj, offsets))
    live = draw(st.lists(st.booleans(), min_size=len(leaves), max_size=len(leaves)))
    return x, q, leaves, live


def _l2_reference(leaves, x, q):
    """Per leaf (a group of one leaf): the first candidate within 2r in
    table order, then member order, among at most 3L members of each bucket
    of its L tables, and the (table, candidates) of each bucket it
    searched, in order."""
    per_leaf, searched = [], []
    for leaf in leaves:
        hit, buckets = None, []
        assert leaf.leaves == 1 and leaf.w == 4.0 * leaf.r
        for t, (proj, offset) in enumerate(zip(leaf.projections, leaf.offsets)):
            key = np.floor((proj @ q + offset) / leaf.w)
            bucket = [i for i in range(len(x))
                      if (np.floor((proj @ x[i] + offset) / leaf.w) == key).all()]
            if not bucket:
                continue
            cand = bucket[: 3 * len(leaf.projections)]
            buckets.append((t, cand))
            hits = [(i, lp_distance(x[i], q, 2.0)) for i in cand]
            hits = [h for h in hits if h[1] <= 2.0 * leaf.r]
            if hits:
                hit = hits[0]
                break
        per_leaf.append(hit)
        searched.append(buckets)
    return per_leaf, searched


def _rounds(passes) -> int:
    """Rows measured when round j measures the distinct candidates of the
    j-th bucket of every leaf's list of a pass."""
    rounds = max((len(buckets) for buckets in passes), default=0)
    return sum(len({i for buckets in passes if j < len(buckets) for i in buckets[j]})
               for j in range(rounds))


def _rows_in_two_passes(searched) -> int:
    """Rows measured when the first tables of all leaves are measured in one
    pass, then the other tables of the leaves still without a hit in a
    second, each in rounds. A leaf that hits in its first table searched
    nothing after it, so its second-pass list is empty."""
    first = [[cand for t, cand in buckets if t == 0] for buckets in searched]
    rest = [[cand for t, cand in buckets if t > 0] for buckets in searched]
    return _rounds(first) + _rounds(rest)


def _tables_in_two_passes(leaves, per_leaf, searched) -> int:
    """Tables hashed when every leaf hashes its first table, and a leaf
    without a hit there all its others: it hit there only if it searched
    table 0 and found its candidate in it."""
    return sum(1 if hit is not None and buckets[-1][0] == 0 else len(leaf.projections)
               for leaf, hit, buckets in zip(leaves, per_leaf, searched))


def _rows_measured(fn, *args):
    """fn(*args), the number of rows it passed to dists_to_point and the
    number of projection rows it hashed with _l2_keys."""
    rows, hashed = [], []
    real, real_keys = _kernels.dists_to_point, base_schemes._l2_keys

    def counting(mat, v, p):
        rows.append(len(mat))
        return real(mat, v, p)

    def hashing(projections, offsets, w, vecs):
        hashed.append(projections.shape[0] * projections.shape[1])
        return real_keys(projections, offsets, w, vecs)

    with mock.patch.object(_kernels, "dists_to_point", counting), \
            mock.patch.object(base_schemes, "_l2_keys", hashing):
        out = fn(*args)
    assert len(hashed) <= 2  # at most two hash products a call
    return out, sum(rows), sum(hashed)


@settings(max_examples=400, deadline=None)
@given(_l2_case())
def test_l2_group_matches_per_leaf_loops(case):
    x, q, draws, live = case
    ids = 100 + np.arange(len(x))
    group = L2Group(ids, x, 1.0, np.concatenate([proj for proj, _ in draws]),
                    np.concatenate([offsets for _, offsets in draws]),
                    np.repeat(np.arange(len(draws)), [len(proj) for proj, _ in draws]))
    # each leaf alone, from its slice of the group's draws
    leaves = [l2_part(group, range(i, i + 1)) for i in range(len(draws))]
    for leaf, (proj, offsets) in zip(leaves, draws):
        assert leaf.projections.tobytes() == proj.tobytes()
        assert leaf.offsets.tobytes() == offsets.tobytes()
    per_leaf, searched = _l2_reference(leaves, x, q)
    hits = [None if hit is None else (int(ids[hit[0]]), hit[1]) for hit in per_leaf]
    expected = [hit if alive else None for hit, alive in zip(hits, live)]
    answer, rows, hashed = _rows_measured(query_l2_ann, group, q, live)
    assert per_copy(answer, len(leaves)) == (None if expected == [None] * len(leaves) else expected)
    # the first tables of every live leaf, then the other tables of the live
    # leaves without a hit, are hashed and measured, each pass in rounds,
    # each distinct candidate once a round, none past a leaf's first hit
    # and none of a left-out leaf
    alive = np.flatnonzero(live)
    assert rows == _rows_in_two_passes([searched[i] for i in alive])
    tables = _tables_in_two_passes([leaves[i] for i in alive], [per_leaf[i] for i in alive],
                                   [searched[i] for i in alive])
    assert hashed == tables * group.projections.shape[1]
    # without a mask every leaf answers
    assert per_copy(query_l2_ann(group, q), len(leaves)) == (
        None if hits == [None] * len(leaves) else hits)
    # each leaf answers alone as a group of one
    for leaf, hit in zip(leaves, hits):
        assert per_copy(query_l2_ann(leaf, q), 1) == (None if hit is None else [hit])


@st.composite
def _coarse_case(draw):
    d, m = draw(st.integers(1, 2)), draw(st.integers(1, 10))
    side = 2 * d  # grid_cell_side(d, r=0.5)
    x, q = draw(_points(d, m, 4))
    copies = [
        [
            draw(arrays(np.float64, (draw(st.integers(1, 3)), d),
                        elements=st.integers(0, side - 1)))
            for _ in range(draw(st.integers(1, 3)))
        ]
        for _ in range(draw(st.integers(1, 3)))
    ]
    return x, q, copies, draw(st.lists(st.booleans(), min_size=len(copies), max_size=len(copies)))


def _coarse_reps(scheme, x, q) -> set:
    """The rows representing q's cell in each grid of the scheme."""
    reps = set()
    for shift in scheme.shifts:
        cell = np.floor((q + shift) / scheme.cell_side)
        same = [i for i in range(len(x))
                if (np.floor((x[i] + shift) / scheme.cell_side) == cell).all()]
        reps.update(same[:1])
    return reps


def _coarse_reference(scheme, x, q):
    """Lowest-distance cell representative within c0*r, ties to the lowest row."""
    best = None
    for i in sorted(_coarse_reps(scheme, x, q)):
        dist = lp_distance(x[i], q, scheme.p)
        if dist <= scheme.c0 * scheme.r and (best is None or dist < best[1]):
            best = (i, dist)
    return best


@settings(max_examples=400, deadline=None)
@given(_coarse_case())
def test_coarse_group_matches_per_scheme_loops(case):
    x, q, draws, live = case
    ids = 100 + np.arange(len(x))
    schemes = [shifts for base in draws for shifts in base]
    group = CoarseGroup(ids, x, 4.0, 0.5, np.concatenate(schemes),
                        np.repeat(np.arange(len(schemes)), [len(shifts) for shifts in schemes]),
                        np.repeat(np.arange(len(draws)), [len(base) for base in draws]))
    # each scheme alone, from its slice of the group's shifts
    first = np.cumsum([0] + [len(base) for base in draws])
    copies = [[coarse_part(group, range(s, s + 1)) for s in range(a, b)]
              for a, b in zip(first, first[1:])]
    for scheme, shifts in zip((s for base in copies for s in base), schemes):
        assert scheme.copies == 1 and scheme.shifts.tobytes() == shifts.tobytes()
    expected = []
    for base in copies:
        start = None
        for scheme in base:
            hit = _coarse_reference(scheme, x, q)
            # each scheme answers alone as a group of one
            assert per_copy(query_coarse_ann(scheme, q), 1) == (
                None if hit is None else [(int(ids[hit[0]]), hit[1])])
            if hit is not None and (start is None or hit[1] < start[1]):
                start = hit
        expected.append(None if start is None else (int(ids[start[0]]), start[1]))
    answer = per_copy(query_coarse_ann(group, q), len(copies))
    assert answer == (None if expected == [None] * len(copies) else expected)
    # a left-out copy answers None, and only the live copies' distinct
    # representatives are measured
    expected = [start if alive else None for start, alive in zip(expected, live)]
    answer, rows, _ = _rows_measured(query_coarse_ann, group, q, live)
    assert per_copy(answer, len(copies)) == (None if expected == [None] * len(copies) else expected)
    assert rows == len(set().union(*(
        _coarse_reps(scheme, x, q) for base, alive in zip(copies, live) if alive for scheme in base)))
