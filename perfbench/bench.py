"""One benchmark run of one workload, with its correctness and shape gates.

Inputs come from the seed (see workloads.py). The run has ``ROUNDS``
rounds, so that set-up, load, query and scan timings all sample the whole
run rather than one stretch of it. Each round:

1. builds the index with ``lpann.preprocess`` (the first round also checks
   the shape gate and saves the index with ``save_index``);
2. loads the saved index with ``load_index``;
3. takes every ``ROUNDS``-th query and, for each, asks the built index
   (the reference answer), asks the loaded index, and times
   ``lpann.exact_nn`` as the reference scan; untraced, the loaded index
   then keeps answering those queries until the round's share of the run's
   seconds has passed. Queries are sent one at a time by a single client,
   each after the previous answer: a closed loop.

Set-up and load time are the medians over the rounds; query latencies are
those of every ``lpann.query`` call, on the built and the loaded index.

Correctness gate, per query: an answer exists; its distance, recomputed
here in the original lp norm, matches the reported one and is at most
``c_p * r``; the loaded index answers bit for bit like the built one, on
every repeat; ``exact_nn`` agrees with a brute-force scan done here. Any
violation, or a failed shape gate, prints ``"correct": false`` and the run
exits 1.

Untraced, the last stdout line is a JSON object with the end-to-end
metrics. Traced, the last round's build and load, every loaded-index query
and every scan run with the probes of layers.py installed, and the JSON
carries the per-layer metrics plus the tracing overhead against the
untraced builds, loads and built-index queries of the same run. The lines
before the JSON are a human-readable report with sample counts and
provenance; the same content goes to ``perfbench/out/``, with the spans of
a traced run.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import struct
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

import layers
import lpann
import spans
import stats
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
ROUNDS = 3


def declared_units(trace: bool) -> dict:
    """{metric: unit} as BENCHMARK.json declares them, in its order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def answer_key(ans):
    """(id, distance bits) of an answer, so equality is bit for bit."""
    return None if ans is None else (ans.id, struct.pack("<d", ans.distance))


def timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def timing(samples, scale: float) -> dict:
    """Sample count, median, p90 and p99 where at least stats.MIN_BEYOND
    samples lie beyond them, and the highest such tail percentile."""
    s = sorted(x * scale for x in samples)
    out = {"n": len(s), "p50": stats.percentile(s, 500)}
    pm = stats.tail_permille(len(s))
    if pm is not None:
        out["tail"] = [stats.label(pm), stats.percentile(s, pm), stats.beyond(len(s), pm)]
    for pm in (900, 990):
        if stats.beyond(len(s), pm) >= stats.MIN_BEYOND:
            out[stats.label(pm)] = stats.percentile(s, pm)
    return out


def src_lines() -> int:
    return sum(len(p.read_bytes().splitlines()) for p in (ROOT / "src" / "lpann").glob("*.py"))


class Run:
    """Inputs, samples and per-query verdicts of one run."""

    def __init__(self, wl, seed: int, seconds: float, tracer):
        self.wl, self.seconds, self.tracer = wl, seconds, tracer
        self.data = workloads.make_data(wl, seed)
        self.queries, _ = workloads.make_queries(wl, self.data, seed)
        self.dataset = lpann.Dataset(self.data, wl.p)
        self.config = lpann.SchemeConfig(p=wl.p, r=wl.r, seed=seed)
        n = len(self.queries)
        self.keys, self.answers, self.exact = [None] * n, [None] * n, [None] * n
        self.samples = {k: [] for k in ("build", "load", "query", "reference", "scan")}
        self.failures: dict = {}

    def fail(self, i: int, why: str) -> None:
        self.failures.setdefault(i, why)

    def measure(self, kind: str, trace: bool, span: str, probes, fn, *args):
        """Call fn and file its duration under samples[kind], or, traced,
        inside a root span with probes installed under samples[kind + "_traced"]."""
        if not trace:
            out, t = timed(fn, *args)
            self.samples[kind].append(t)
            return out
        with self.tracer.patched(probes), self.tracer.span(span) as rec:
            out = fn(*args)
        self.samples.setdefault(kind + "_traced", []).append(spans.duration(rec) / 1e9)
        return out

    def ask(self, scheme, i: int):
        try:
            return lpann.query(scheme, self.queries[i])
        except Exception as exc:  # a raising query is a failed query, not a crash
            self.fail(i, f"query raised {type(exc).__name__}: {exc}")
            return None

    def ask_loaded(self, loaded, i: int):
        """One closed-loop query on the loaded index, checked bit for bit
        against the built index's answer."""
        if self.tracer is None:
            ans, t = timed(self.ask, loaded, i)
        else:
            self.tracer.group = i
            with self.tracer.span(layers.QUERY) as rec:
                ans = self.ask(loaded, i)
            self.tracer.group = -1
            t = spans.duration(rec) / 1e9
        self.samples["query"].append(t)
        if answer_key(ans) != self.keys[i]:
            self.fail(i, f"loaded index answered {answer_key(ans)}, built index {self.keys[i]}")
        return ans

    def scan(self, i: int) -> None:
        """Time exact_nn on query i and check it against a scan done here."""
        q = self.queries[i]
        eid, edist = self.measure(
            "scan", self.tracer is not None, layers.SCAN, layers.SCAN_PROBES,
            lpann.exact_nn, self.dataset, q,
        )
        self.exact[i] = (eid, edist)
        dist = workloads.lp_norms(self.data - q, self.wl.p)
        ref = int(np.flatnonzero(dist == dist.min())[0])
        if eid != ref or not np.isclose(edist, dist[ref], rtol=1e-9, atol=0.0):
            self.fail(i, f"exact_nn gave ({eid}, {edist}), scan gives ({ref}, {dist[ref]})")
        if dist[ref] > workloads.QUERY_DISTANCE * self.wl.r * (1 + 1e-9):
            raise RuntimeError(f"query {i} breaks the r-near promise: {dist[ref]}")

    def query_slice(self, built, loaded, idx) -> None:
        """Answer each query of the slice on the built index, untraced, then
        on the loaded index, and scan it; untraced, keep the loaded index
        answering the slice until the round's share of the run's seconds
        has passed."""
        start = time.perf_counter()
        for i in idx:
            ref, t = timed(self.ask, built, i)
            self.samples["reference"].append(t)
            if ref is None:
                self.fail(i, "no answer from the built index")
            self.keys[i] = answer_key(ref)
            with self.tracer.patched(layers.QUERY_PROBES) if self.tracer else nullcontext():
                self.answers[i] = self.ask_loaded(loaded, i)
            self.scan(i)
        if self.tracer is None:
            budget = self.seconds / ROUNDS
            while time.perf_counter() - start < budget:
                for i in idx:
                    self.ask_loaded(loaded, i)
                    if time.perf_counter() - start >= budget:
                        break

    def quality(self, c_p: float) -> dict:
        """Answer quality against the exact scan; gates each distance."""
        limit = c_p * self.wl.r
        hits, ok, wins, ratios = 0, 0, 0, []
        for i, (ans, (eid, edist)) in enumerate(zip(self.answers, self.exact)):
            if ans is None:
                continue
            diff = (self.data[ans.id] - self.queries[i])[None, :]
            true = float(workloads.lp_norms(diff, self.wl.p)[0])
            if not np.isclose(true, ans.distance, rtol=1e-9, atol=0.0):
                self.fail(i, f"reported distance {ans.distance} but recomputed {true}")
            if true <= limit:
                ok += 1
            else:
                self.fail(i, f"distance {true} exceeds c_p*r = {limit}")
            hits += ans.id == eid
            ratios.append(ans.distance / edist)
            wins += ans.trace[0] != ans.id
        n = len(self.answers)
        return {
            "recall_at_1": hits / n,
            "ratio_p50": statistics.median(ratios) if ratios else float("inf"),
            "success_rate": ok / n,
            "ladder_win_frac": wins / n,
        }


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    wl = workloads.WORKLOADS[workload]
    units = declared_units(trace)
    tracer = spans.Tracer() if trace else None
    r = Run(wl, seed, seconds, tracer)
    nq = len(r.queries)
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{wl.name}-seed{seed}-trace{int(trace)}"
    index_path = OUT / f"{stem}.lpann"
    try:
        for rnd in range(ROUNDS):
            traced_round = trace and rnd == ROUNDS - 1
            built = loaded = None
            gc.collect()
            built = r.measure("build", traced_round, layers.PREPROCESS,
                              layers.BUILD_PROBES, lpann.preprocess, r.dataset, r.config)
            if rnd == 0:
                space = lpann.space_usage(built)
                shape_problems, shape = workloads.check_shape(wl, built, space)
                c_p = built.bound.c_p
                _, save_s = timed(lpann.save_index, built, str(index_path))
                index_bytes = index_path.stat().st_size
            loaded = r.measure("load", traced_round, layers.LOAD,
                               layers.LOAD_PROBES, lpann.load_index, str(index_path))
            r.query_slice(built, loaded, range(rnd, nq, ROUNDS))
        built = loaded = None
        quality = r.quality(c_p)
    finally:
        index_path.unlink(missing_ok=True)

    sm = r.samples
    # untraced, every lpann.query call is a latency sample: the built and
    # the loaded index hold the same structure and answer alike
    q_t = timing(sm["query"] if trace else sm["query"] + sm["reference"], 1e6)
    s_t = timing(sm["scan_traced" if trace else "scan"], 1e6)
    ref_t = timing(sm["reference"], 1e6)
    fail_frac = len(r.failures) / nq
    if not trace:
        if "p99" not in q_t:
            raise RuntimeError(f"{q_t['n']} query samples cannot support a p99")
        # The latency metric is the p90; the p50 and the p99 are printed
        # beside it, as is the load time. On a shared two-core host the p50
        # and the load time move with the share of time the host is busy,
        # and the p99 with a few short stalls, so across runs all three
        # spread wider than the largest allowed bound.
        metrics = {
            "setup_s": statistics.median(sm["build"]),
            "query_p90_us": q_t["p90"],
            "scan_p50_us": s_t["p50"],
            "index_bytes": index_bytes,
            "stored_points": space.total,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "recall_at_1": quality["recall_at_1"],
            "ratio_p50": quality["ratio_p50"],
            "success_rate": quality["success_rate"],
            "query_ok_frac": 1.0 - fail_frac,
        }
    else:
        build_s, load_s = statistics.median(sm["build"]), statistics.median(sm["load"])
        metrics = layers.span_metrics(tracer.spans)
        metrics.update({
            "cover.clusters_per_cover": shape["clusters_per_cover"],
            "cover.singleton_frac": shape["singleton_frac"],
            "container.save_index.s": save_s,
            "container.bytes_per_vector_byte": index_bytes / r.data.nbytes,
            "recursive.ladder_win_frac": quality["ladder_win_frac"],
            "trace.overhead_build_frac": sm["build_traced"][0] / build_s - 1.0,
            "trace.overhead_load_frac": sm["load_traced"][0] / load_s - 1.0,
            "trace.overhead_query_frac": q_t["p50"] / ref_t["p50"] - 1.0,
        })
        tracer.write(OUT / f"{stem}.spans.csv.gz")
    if set(metrics) != set(units):
        raise RuntimeError(f"metric set mismatch: {sorted(set(metrics) ^ set(units))}")
    metrics = {m: metrics[m] for m in units}

    provenance = {
        "workload": wl.name, "seed": seed, "trace": int(trace),
        "n": wl.n, "d": wl.d, "p": wl.p, "r": wl.r, "queries": nq,
        "clients": 1, "loop": "closed", "rounds": ROUNDS,
        "backend": lpann.BACKEND, "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)), "src_lines": src_lines(),
    }
    extra = {
        "query_fail_frac": fail_frac,
        "query_latency_us": q_t, "scan_latency_us": s_t, "reference_latency_us": ref_t,
        "build_s": sm["build"], "load_s": sm["load"], "save_s": save_s, "shape": shape,
        "shape_problems": shape_problems,
        "failures": {str(i): why for i, why in sorted(r.failures.items())},
    }
    report = {"provenance": provenance, "metrics": metrics, "extra": extra}
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1))

    print(" ".join(f"{k}={v}" for k, v in provenance.items()))
    for name, value in metrics.items():
        print(f"  {name:44s} {value:.6g} {units[name]}")
    print(f"  load: median {statistics.median(sm['load']):.3f} s of {len(sm['load'])} untraced loads")
    tail = q_t.get("tail", ["-", float("nan"), 0])
    print(f"  query latency: {q_t['n']} samples, p50 {q_t['p50']:.1f} us, {tail[0]} "
          f"{tail[1]:.1f} us with {tail[2]} beyond; scan {s_t['n']} samples, "
          f"{s_t['tail'][0]} {s_t['tail'][1]:.1f} us; {len(sm['build'])} untraced builds and loads")
    print(f"  query_fail_frac {fail_frac:.6g} ({len(r.failures)} of {nq}); shape {shape}")
    for problem in shape_problems:
        print(f"  SHAPE GATE FAILED: {problem}")
    for i, why in sorted(r.failures.items())[:5]:
        print(f"  QUERY {i} FAILED: {why}")
    correct = not shape_problems and not r.failures
    print(json.dumps({
        "correct": correct,
        "attempted": nq,
        "failed": len(r.failures),
        "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in metrics},
    }))
    return 0 if correct else 1
