"""Tests of the benchmark's own helpers.

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import sys
import types
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import layers  # noqa: E402  (needs lpann on the path)
import spans as sp  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize(
    "n, expected",
    [(19, None), (20, 500), (99, 500), (100, 900), (999, 900), (1000, 990),
     (9999, 990), (10000, 999)],
)
def test_tail_percentile_needs_ten_samples_beyond(n, expected):
    assert stats.tail_permille(n) == expected
    if expected is not None:
        assert stats.beyond(n, expected) >= stats.MIN_BEYOND


def test_nearest_rank_percentile():
    samples = list(range(1, 1001))
    assert stats.percentile(samples, 990) == 990
    assert stats.percentile(samples, 500) == 500
    assert stats.beyond(1000, 990) == 10
    assert stats.label(990) == "p99" and stats.label(999) == "p99.9"


def _span(name, start, end, parent):
    return [name, start, end, parent, -1, None]


def test_self_time_subtracts_nested_children():
    spans = [
        _span("root", 0, 100, -1),
        _span("a", 10, 40, 0),
        _span("a.inner", 20, 30, 1),
        _span("b", 50, 70, 0),
    ]
    assert sp.self_times(spans) == [50, 20, 10, 20]
    assert sp.roots(spans) == [0, 0, 0, 0]


def test_self_time_counts_overlapping_children_once():
    spans = [_span("root", 0, 100, -1), _span("a", 10, 40, 0), _span("b", 30, 60, 0)]
    assert sp.self_times(spans)[0] == 50


def test_tracer_records_nesting_and_restores_patches():
    ns = types.SimpleNamespace()
    ns.inner = lambda x: x + 1
    ns.outer = lambda x: ns.inner(x) * 2
    original = (ns.inner, ns.outer)
    tracer = sp.Tracer()
    probes = [(ns, "outer", "outer", None), (ns, "inner", "inner", lambda a, out: out)]
    with tracer.patched(probes):
        tracer.group = 7
        with tracer.span("root"):
            assert ns.outer(1) == 4
    assert (ns.inner, ns.outer) == original
    names = [s[sp.NAME] for s in tracer.spans]
    assert names == ["root", "outer", "inner"]
    assert [s[sp.PARENT] for s in tracer.spans] == [-1, 0, 1]
    assert all(s[sp.GROUP] == 7 for s in tracer.spans)
    assert tracer.spans[2][sp.VALUE] == 2
    selfs = sp.self_times(tracer.spans)
    assert selfs[1] == sp.duration(tracer.spans[1]) - sp.duration(tracer.spans[2])


def test_span_metrics_average_query_phase_per_query():
    spans = [
        _span(layers.QUERY, 0, 100, -1),
        _span("base_schemes.query_l2", 10, 30, 0),
        _span(layers.QUERY, 200, 300, -1),
        _span("base_schemes.query_l2", 210, 250, 2),
        _span("base_schemes.query_l2", 250, 270, 2),
        _span(layers.SCAN, 400, 450, -1),
        _span("base_schemes.query_l2", 410, 420, 5),  # not in a query phase
    ]
    spans[1][sp.VALUE], spans[3][sp.VALUE], spans[4][sp.VALUE] = 1, 0, 1
    m = layers.span_metrics(spans)
    assert m["base_schemes.query_l2.calls_per_query"] == 1.5
    assert m["base_schemes.query_l2.us_per_query"] == (20 + 40 + 20) / 2 / 1e3
    assert m["base_schemes.query_l2.hit_ratio"] == 2 / 3
    assert m["recursive.query.self_us_per_query"] == (80 + 40) / 2 / 1e3
    assert m["oracle.exact_nn.us_per_query"] == 50 / 1e3


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_queries_sit_at_exact_lp_distance_from_distinct_points(name):
    wl = workloads.WORKLOADS[name]
    data = workloads.make_data(wl, seed=3)
    queries, sources = workloads.make_queries(wl, data, seed=3)
    assert queries.shape == (wl.queries, wl.d)
    assert len(set(sources.tolist())) == wl.queries
    dist = workloads.lp_norms(queries - data[sources], wl.p)
    np.testing.assert_allclose(dist, workloads.QUERY_DISTANCE * wl.r, rtol=1e-9, atol=0)


def test_inputs_repeat_for_a_seed_and_change_with_it():
    wl = workloads.WORKLOADS["gauss-d32"]
    a = workloads.make_queries(wl, workloads.make_data(wl, 5), 5)[0]
    b = workloads.make_queries(wl, workloads.make_data(wl, 5), 5)[0]
    c = workloads.make_queries(wl, workloads.make_data(wl, 6), 6)[0]
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
