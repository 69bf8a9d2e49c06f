"""Exact leaves: an l2 point set small enough to scan (``scan_fits``) is
answered by one exact scan, ``L2Scan``, instead of LSH leaves.

Its one answer, ``query_l2_scan``, which the walk hands to every live
owner, is the set's nearest row to the query, ties to the lowest row,
when that row lies within 2r, and no answer otherwise. These tests hold it to a brute-force l2 scan on the sets the
benchmark's workloads and the line instance carve, with the queries their
walks send there.
"""

import numpy as np
import pytest

from lpann import Dataset, SchemeConfig, load_index, preprocess, query, recursive, save_index
from lpann import _kernels, base_schemes
from lpann.base_schemes import L2Group, L2Scan, query_l2_scan, scan_fits
from test_golden import _sets, line_points

import workloads  # test_golden puts perfbench on the path

PRIMITIVE_FAILURE = recursive.PRIMITIVE_FAILURE


def _brute(scan: L2Scan, q: np.ndarray):
    """(row, distance) of the nearest row to q, ties to the lowest, by an
    l2 scan that shares no code with the index."""
    dists = np.sqrt(((scan.vectors - q) ** 2).sum(axis=1))
    row = int(np.flatnonzero(dists == dists.min())[0])
    return row, dists[row]


def _check_scan(scan: L2Scan, q: np.ndarray) -> bool:
    """Assert the scan's answer against ``_brute``; whether it answers."""
    answer = query_l2_scan(scan, q)
    row, dist = _brute(scan, q)
    if not dist <= 2.0 * scan.r:
        assert answer is None
        return False
    exact = _kernels.dists_to_point(scan.vectors[row], q, 2.0)[0]
    assert answer == (scan.ids[row], exact) and np.isclose(exact, dist, rtol=1e-12)
    return True


def _walked(scheme, queries, monkeypatch) -> list:
    """(scan, mapped query) of every scan the queries' walks make."""
    calls, real = [], recursive.query_l2_scan

    def recording(scan, q):
        calls.append((scan, q))
        return real(scan, q)

    monkeypatch.setattr(recursive, "query_l2_scan", recording)
    for q in queries:
        query(scheme, q)
    monkeypatch.undo()
    assert calls
    return calls


def _instance(name: str):
    """(index, queries) of a benchmark workload at seed 1 (50 queries), or
    of the line instance."""
    if name == "line":
        dataset, r, queries = line_points(1)
        return preprocess(dataset, SchemeConfig(p=dataset.p, r=r, seed=1)), queries
    w = workloads.WORKLOADS[name]
    data = workloads.make_data(w, 1)
    scheme = preprocess(Dataset(data, w.p), SchemeConfig(p=w.p, r=w.r, seed=1))
    return scheme, workloads.make_queries(w, data, 1)[0][:50]


@pytest.mark.parametrize("name", ["gauss-d32", "clustered-d32", "line"])
def test_scan_answers_the_nearest_row_within_2r(name, monkeypatch):
    # every l2 set of these instances scans; each lookup a walk makes, and
    # the same lookup from a query moved 3r away along one axis, answers
    # as the brute-force scan does
    scheme, queries = _instance(name)
    groups = [pset.group for pset in _sets(scheme.root) if pset.t == 2.0]
    assert groups and all(isinstance(g, L2Scan) for g in groups)
    answered = []
    for group, q in _walked(scheme, queries, monkeypatch):
        moved = q.copy()
        moved[0] += 3.0 * group.r
        answered += [_check_scan(group, q), _check_scan(group, moved)]
    assert any(answered) and not all(answered)


def test_scan_ties_go_to_the_lowest_row():
    # rows 2 e_0 (id 10), then +-e_i: every unit vector lies at distance 1
    # from the origin and scores exactly 1, so the first, e_0 (id 11), answers
    d = 8
    vectors = np.vstack([2.0 * np.eye(d)[:1], np.eye(d), -np.eye(d)])
    scan = L2Scan(np.arange(len(vectors), dtype=np.int64) + 10, vectors, 1.0)
    assert query_l2_scan(scan, np.zeros(d)) == (11, 1.0)
    assert query_l2_scan(scan, np.full(d, 5.0)) is None


@pytest.mark.parametrize("offset", [1e6, 1e9, 1e12])
def test_scan_far_from_the_origin_finds_the_point_within_2r(offset):
    # every coordinate + offset: at 1e9, |x|^2 is about 3.2e19, whose
    # rounding step (about 4e3) is far above 4r^2 = 4, so scoring by
    # |x|^2 - 2 x.q picks an arbitrary row; scoring against the set's mean
    # keeps its spread
    rng = np.random.default_rng(3)
    data = rng.standard_normal((1000, 32))
    step = rng.standard_normal((50, 32))
    step *= 0.9 / np.linalg.norm(step, axis=1, keepdims=True)
    sources = rng.choice(1000, size=50, replace=False)
    scan = L2Scan(np.arange(1000, dtype=np.int64), data + offset, 1.0)
    for q in data[sources] + step:
        hit = query_l2_scan(scan, q + offset)
        assert hit is not None and hit[1] <= 2.0
        assert hit[0] == _brute(L2Scan(scan.ids, data, 1.0), q)[0]


def test_scan_past_the_float_range_of_squared_norms():
    # rows at -1e200 and twice at +1e200 on one axis: even their squared
    # distances to the mean overflow, so the scores are not finite and an exact l2
    # scan picks: the query sits on the third row, 3 from the second
    big = np.zeros((3, 4))
    big[:, 0] = [-1e200, 1e200, 1e200]
    big[2, 1] = 3.0
    scan = L2Scan(np.array([4, 5, 7]), big, 1.0)
    assert not np.isfinite(scan.sq_norms).any()
    assert query_l2_scan(scan, big[2]) == (7, 0.0)


def test_scan_cutoff_on_both_sides():
    # a scan reads at most SCAN_MAX_ENTRIES = 2^17 coordinates: 4096 rows
    # at d = 32 scan under 27 copies, 4097 hash
    assert base_schemes.SCAN_MAX_ENTRIES == 4096 * 32
    assert scan_fits(4096, 32, 27, PRIMITIVE_FAILURE)
    assert not scan_fits(4097, 32, 27, PRIMITIVE_FAILURE)
    assert not scan_fits(8000, 32, 27, PRIMITIVE_FAILURE)
    # and measures no more rows than m <= leaves * L * 3L, with
    # L = num_tables(m, 1/3): 2 * 10 * 30 = 600 for m in 513..1024
    # (k = 10 hash bits)
    assert base_schemes.num_tables(600, PRIMITIVE_FAILURE) == 10
    assert base_schemes.num_tables(601, PRIMITIVE_FAILURE) == 10
    assert scan_fits(600, 8, 2, PRIMITIVE_FAILURE) and not scan_fits(601, 8, 2, PRIMITIVE_FAILURE)
    # the benchmark's sets: gauss-d32's 1000 points and clustered-d32's
    # 226-263 under 27 copies
    assert scan_fits(1000, 32, 27, PRIMITIVE_FAILURE) and scan_fits(263, 32, 27, PRIMITIVE_FAILURE)
    assert not scan_fits(1000, 8, 2, PRIMITIVE_FAILURE)
    # and through the build: an l2 root (d = 8 normalizes p = 4 to 2) has
    # 2 copies, so 600 points scan and 601 hash
    data = np.random.default_rng(0).standard_normal((601, 8))
    for n, kind in ((600, L2Scan), (601, L2Group)):
        scheme = preprocess(Dataset(data[:n], 4.0), SchemeConfig(p=4.0, r=1.0))
        assert type(scheme.root.group) is kind


def test_scanned_sets_draw_nothing(monkeypatch):
    # a scanned set makes no build_l2_ann call and no bucket table
    calls = []
    monkeypatch.setattr(recursive, "build_l2_ann", lambda *a: calls.append(a))
    dataset, r, _ = line_points(1)
    scheme = preprocess(dataset, SchemeConfig(p=dataset.p, r=r, seed=1))
    assert not calls
    assert recursive.space_usage(scheme).table_bytes["l2"] == 0


@pytest.mark.parametrize("name", ["clustered-d32", "line"])
def test_scan_answers_built_and_loaded_agree_bit_for_bit(name, tmp_path, monkeypatch):
    scheme, queries = _instance(name)
    save_index(scheme, str(tmp_path / "x.lpann"))
    loaded = load_index(str(tmp_path / "x.lpann"))
    built, reloaded = (_walked(index, queries, monkeypatch) for index in (scheme, loaded))
    assert len(built) == len(reloaded) > 0
    for (g1, q1), (g2, q2) in zip(built, reloaded):
        assert g1.sq_norms.tobytes() == g2.sq_norms.tobytes()
        assert q1.tobytes() == q2.tobytes()
        a1, a2 = query_l2_scan(g1, q1), query_l2_scan(g2, q2)
        assert (a1 is None) == (a2 is None)
        if a1 is not None:
            assert a1[0] == a2[0] and float.hex(a1[1]) == float.hex(a2[1])
