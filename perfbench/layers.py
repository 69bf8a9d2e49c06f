"""Which lpann functions the traced run wraps, and the per-layer metrics
derived from the recorded spans.

Each function is patched under the name its caller looks it up by, so the
spans sit at the boundaries between lpann's modules. The container's
scheme classes are patched only while an index loads, because saving tests
``isinstance`` against them. Spans and metrics of ``lpann._kernels`` are
named ``kernels.*``: metric names must begin with a letter.
"""

from __future__ import annotations

import numpy as np
from lpann import _kernels, container, recursive

import spans as sp


def _hit(args, result):
    return 0 if result is None else 1


def _rows(args, result):
    mat = np.shape(args[0])
    return mat[0] if len(mat) == 2 else 1


BUILD_PROBES = [
    (recursive, "build_l2_ann", "base_schemes.build_l2", None),
    (recursive, "build_coarse_ann", "base_schemes.build_coarse", None),
    (recursive, "build_sparse_cover", "cover.build_sparse_cover", None),
    (recursive, "mazur_map_points", "geometry.mazur_map_points", None),
    (_kernels, "dists_to_point", "kernels.dists_to_point", _rows),
]
LOAD_PROBES = [
    (container, "L2Scheme", "base_schemes.table_rebuild", None),
    (container, "CoarseScheme", "base_schemes.table_rebuild", None),
]
QUERY_PROBES = [
    (recursive, "query_l2_ann", "base_schemes.query_l2", _hit),
    (recursive, "query_coarse_ann", "base_schemes.query_coarse", _hit),
    (recursive, "mazur_map_apply", "geometry.mazur_map_apply", None),
    (_kernels, "dists_to_point", "kernels.dists_to_point", _rows),
]
SCAN_PROBES = [(_kernels, "dists_to_point", "kernels.dists_to_point", _rows)]

# root span names the benchmark opens around each phase
PREPROCESS = "recursive.preprocess"
LOAD = "container.load_index"
QUERY = "recursive.query"
SCAN = "oracle.exact_nn"


def aggregate(spans) -> dict:
    """{(phase, span name): [calls, total ns, self ns, value sum]}, where a
    span's phase is the name of its outermost ancestor."""
    selfs = sp.self_times(spans)
    top = sp.roots(spans)
    agg: dict = {}
    for i, s in enumerate(spans):
        a = agg.setdefault((spans[top[i]][sp.NAME], s[sp.NAME]), [0, 0, 0, 0])
        a[0] += 1
        a[1] += sp.duration(s)
        a[2] += selfs[i]
        a[3] += s[sp.VALUE] or 0
    return agg


def span_metrics(spans) -> dict:
    """Per-layer values from the spans of one traced run.

    Build and load metrics are totals over the traced build and load;
    query metrics are averages over the traced queries.
    """
    agg = aggregate(spans)

    def get(phase, name):
        return agg.get((phase, name), [0, 0, 0, 0])

    queries = get(QUERY, QUERY)[0]
    out = {}
    for name in ("base_schemes.build_l2", "base_schemes.build_coarse",
                 "cover.build_sparse_cover", "geometry.mazur_map_points"):
        calls, ns, _, _ = get(PREPROCESS, name)
        out[f"{name}.s"] = ns / 1e9
        out[f"{name}.calls"] = calls
    out["base_schemes.table_rebuild.s"] = get(LOAD, "base_schemes.table_rebuild")[1] / 1e9
    out["recursive.preprocess.self_s"] = get(PREPROCESS, PREPROCESS)[2] / 1e9
    out["container.load_index.self_s"] = get(LOAD, LOAD)[2] / 1e9
    for name in ("base_schemes.query_l2", "base_schemes.query_coarse"):
        calls, ns, _, hits = get(QUERY, name)
        out[f"{name}.calls_per_query"] = calls / queries
        out[f"{name}.us_per_query"] = ns / 1e3 / queries
        out[f"{name}.hit_ratio"] = hits / calls if calls else 0.0
    calls, ns, _, _ = get(QUERY, "geometry.mazur_map_apply")
    out["geometry.mazur_map_apply.calls_per_query"] = calls / queries
    out["geometry.mazur_map_apply.us_per_query"] = ns / 1e3 / queries
    kern = "kernels.dists_to_point"
    calls, ns, _, rows = get(QUERY, kern)
    out[f"{kern}.calls_per_query"] = calls / queries
    out[f"{kern}.rows_per_query"] = rows / queries
    out[f"{kern}.us_per_query"] = ns / 1e3 / queries
    out[f"{kern}.build_s"] = get(PREPROCESS, kern)[1] / 1e9
    out["recursive.query.self_us_per_query"] = get(QUERY, QUERY)[2] / 1e3 / queries
    scans, ns, _, _ = get(SCAN, SCAN)
    out["oracle.exact_nn.us_per_query"] = ns / 1e3 / scans
    return out
