#!/usr/bin/env python3
"""Compare two checkouts of lpann with the benchmark, in alternating pairs.

    python3 tools/bench_pairs.py pairs --parent DIR --change DIR --out FILE.json
    python3 tools/bench_pairs.py builds --parent DIR --change DIR --out FILE.json \
        --size line:16000 [--size gauss:8000 ...] [--size depth2]
    python3 tools/bench_pairs.py ab --parent DIR --change DIR --out FILE.json \
        --size gauss:1000 [--size line:1000 ...]

``pairs`` runs ``perfbench/run.py`` of each checkout for every workload of
``BENCHMARK.json`` (read from the change's checkout) at its ``run_seconds``,
for ``PAIRS`` pairs of seeds 1, 2, ..., the parent first on odd seeds and
the change first on even ones. It then compares, per workload and
end-to-end metric, the two sides' runs by ``compare``, with the metric's
``better`` and ``bound`` from ``BENCHMARK.json``: medians, quartiles, wins,
ties and a verdict. Per workload and side it also gives ``query_vs_scan``.

``builds`` builds each instance ``RUNS`` times per checkout, one fresh
process a build, the two sides alternating, each process capped by an
address-space limit of ``LIMIT_MB`` (as ``ulimit -v``) and one BLAS
thread. It records the build time, the process's peak RSS and the index
digest; it also runs the instance's queries, digests their answers
(``answers_digest``) and reads the peak RSS after them. Per instance it
gives verdicts (``summarize``): one equal digest on both sides, one equal
answers digest, and the change's peak RSS against the parent's largest.

``ab`` loads both checkouts' packages into one process (``load_checkout``,
as ``lpann_parent`` and ``lpann_change``) on one numpy and one BLAS thread,
so host drift lands on both sides of every pair of timings. Per instance it
builds each side ``RUNS`` times, alternating, and gives the ratio of the
median build times and ``same_digest``. It then times every query on both
sides for ``AB_ROUNDS`` rounds, the side timed first alternating by query
and by round, keeps each query's least time per side, and gives the median
per-query ratio, change over parent, with its quartiles (``ab_ratios``):
over all rounds and once for each order. ``same_answers`` compares the two
sides' ``answers_digest``. Peak RSS cannot be told apart in one process, so
it stays with ``builds``.

"gauss" and "line" are d = 32, p = 4, r = 1, seed 1: "gauss" is N(0, 1)
in every coordinate, and "line" N(0, 0.2^2) plus U(0, 3n) on coordinate
0. "l2root" is N(0, 3^2) in every coordinate at d = 8, p = 4, r = 1,
seed 1, whose root is one l2 set of LSH leaves (p_eff = 2). Each has
``QUERIES`` planted queries (``_planted``). "depth2" is the depth-2
instance of tests/test_depth2.py (12 points at d = 4096, p = 8, r = 1,
seed 5) at the default copy counts, with its six queries.

Each mode records each side's ``wc -l src/lpann/*.py`` total
(``source_lines``).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

MB = 2**20
PAIRS = 10  # the change wins at least 9 of them for a gain to be met
RUNS = 3  # fresh-process builds of each instance per side
QUERIES = 200  # planted queries of a gauss, line or l2root instance
LIMIT_MB = 2000  # address-space cap on every build process
# peak RSS the change may read above the parent's largest run: fresh
# processes of one checkout differ by up to 0.36 MB on line:16000 through
# heap layout alone
RSS_TOLERANCE_MB = 0.5
AB_ROUNDS = 8  # timed rounds of every query per side in ``ab``; even, so both orders count
SIDES = ("parent", "change")
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def quartiles(values: list) -> tuple:
    """(first quartile, median, third quartile), interpolated linearly
    between order statistics (numpy's default percentile)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def compare(parent: list, change: list, better: str, bound: float) -> dict:
    """Pairs parent[i] against change[i] of one metric, lower or higher
    being ``better``, with ``bound`` the relative worsening of the median
    that the benchmark allows.

    A pair is a win where the change reads better, a tie where both read
    the same. The verdict is the first of:
      * "worse": the change's median is worse than the parent's by more
        than the bound;
      * "met": the change wins at least nine tenths of the pairs, and its
        median is better than the parent's by more than the parent's IQR;
      * "unresolved": the parent's IQR is wider than the bound allows, and
        not every run of the change reads better than every run of the
        parent;
      * "within": none of these.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("compare needs as many change runs as parent runs, at least one")
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    ties = sum(c == p for p, c in zip(parent, change))
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    iqr = p3 - p1
    gap = sign * (pm - cm)  # positive where the change reads better
    allowed = bound * abs(pm)
    if -gap > allowed:
        verdict = "worse"
    elif 10 * wins >= 9 * len(parent) and gap > iqr:
        verdict = "met"
    elif iqr > allowed and not max(sign * c for c in change) < min(sign * p for p in parent):
        verdict = "unresolved"
    else:
        verdict = "within"
    return {
        "parent": {"q1": p1, "median": pm, "q3": p3},
        "change": {"q1": c1, "median": cm, "q3": c3},
        "rel": (cm - pm) / pm if pm else None,
        "parent_iqr": iqr,
        "wins": wins,
        "ties": ties,
        "pairs": len(parent),
        "bound": bound,
        "verdict": verdict,
    }


def query_vs_scan(rows: list) -> float:
    """The median ``query_p90_us`` of the runs over their median
    ``scan_p50_us``: how many exact scans' time a query takes."""
    return (statistics.median(r["query_p90_us"] for r in rows)
            / statistics.median(r["scan_p50_us"] for r in rows))


def source_lines(root: Path) -> int:
    """``wc -l src/lpann/*.py`` of checkout root: the newlines of its
    package's Python files, summed."""
    return sum(path.read_bytes().count(b"\n") for path in (root / "src" / "lpann").glob("*.py"))


def run_bench(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced ``perfbench/run.py`` run in checkout root: the JSON of
    its last stdout line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{root}: {' '.join(cmd)} printed nothing:\n{done.stderr}")
    out = json.loads(lines[-1])
    out["exit"] = done.returncode
    return out


def pairs(args) -> dict:
    sides = {side: Path(getattr(args, side)).resolve() for side in SIDES}
    bench = json.loads((sides["change"] / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    seeds = range(1, PAIRS + 1)
    runs = []
    for name in names:
        for seed in seeds:
            order = SIDES if seed % 2 else SIDES[::-1]
            for side in order:
                out = run_bench(sides[side], name, seed, seconds)
                row = {"workload": name, "seed": seed, "side": side, "first": order[0],
                       "exit": out["exit"], "correct": out["correct"],
                       "attempted": out["attempted"], "failed": out["failed"]}
                row.update({m: v["value"] for m, v in out["metrics"].items()})
                runs.append(row)
                print(json.dumps(row), flush=True)
    results = {}
    for name in names:
        mine = [r for r in runs if r["workload"] == name]
        by_side = {side: sorted((r for r in mine if r["side"] == side), key=lambda r: r["seed"])
                   for side in sides}
        results[name] = {
            m["name"]: compare([r[m["name"]] for r in by_side["parent"]],
                               [r[m["name"]] for r in by_side["change"]],
                               m["better"], m["bound"])
            for m in bench["end_to_end"]
        }
        results[name]["query_vs_scan"] = {side: query_vs_scan(rows)
                                          for side, rows in by_side.items()}
        results[name]["failed_frac"] = {
            side: sum(r["failed"] for r in rows) / max(1, sum(r["attempted"] for r in rows))
            for side, rows in by_side.items()}
    return {"command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds} "
                       "--trace 0",
            "seeds": [seeds.start, seeds.stop - 1],
            "source_lines": {side: source_lines(root) for side, root in sides.items()},
            "results": results, "runs": runs}


def _depth2(lpann):
    """The depth-2 instance of tests/test_depth2.py at the default copy
    counts, in package lpann's types: (dataset, config, queries), three
    queries at 0.9 r from a point and three near the midpoint of two
    points."""
    import numpy as np

    n, d, p, r, seed = 12, 4096, 8.0, 1.0, 5
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((n, d))
    direction = rng.standard_normal((6, d))
    step = (0.9 * r / (np.abs(direction) ** p).sum(axis=1) ** (1.0 / p))[:, None] * direction
    queries = np.vstack([data[:3] + step[:3], 0.5 * (data[3:6] + data[6:9]) + step[3:]])
    return lpann.Dataset(data, p), lpann.SchemeConfig(p=p, r=r, seed=seed), queries


def _planted(data, p: float, r: float):
    """Up to ``QUERIES`` queries at lp distance 0.9 r from distinct rows of
    data, drawn from a generator of their own (seed 2), so the instance's
    data stay as its seed draws them."""
    import numpy as np

    rng = np.random.default_rng(2)
    sources = rng.choice(len(data), size=min(QUERIES, len(data)), replace=False)
    direction = rng.standard_normal((sources.size, data.shape[1]))
    norms = (np.abs(direction) ** p).sum(axis=1) ** (1.0 / p)
    return data[sources] + (0.9 * r / norms)[:, None] * direction


def _instance(kind: str, n: int, lpann=None):
    """(dataset, config, queries) of one instance, in the types of package
    lpann (by default the one on sys.path)."""
    import numpy as np

    if lpann is None:
        import lpann
    if kind == "depth2":
        return _depth2(lpann)
    rng = np.random.default_rng(1)
    if kind == "line":
        data = 0.2 * rng.standard_normal((n, 32))
        data[:, 0] += rng.uniform(0.0, 3.0 * n, size=n)
    elif kind == "gauss":
        data = rng.standard_normal((n, 32))
    elif kind == "l2root":
        data = 3.0 * rng.standard_normal((n, 8))
    else:
        raise ValueError(f"unknown instance kind {kind!r}")
    return (lpann.Dataset(data, 4.0), lpann.SchemeConfig(p=4.0, r=1.0, seed=1),
            _planted(data, 4.0, 1.0))


def answers_digest(answers) -> str:
    """sha256 over each answer's (id, ``float.hex`` of its distance,
    trace), or None where a query has no answer: equal digests are equal
    answers, bit for bit."""
    h = hashlib.sha256()
    for a in answers:
        h.update(repr(None if a is None else (a.id, float(a.distance).hex(), a.trace)).encode())
    return h.hexdigest()


def build_one(kind: str, n: int) -> dict:
    """Build one instance in this process (lpann on sys.path): build time,
    peak RSS before and after the build, the index digest, its queries'
    answers' digest and the peak RSS after them."""
    from lpann import preprocess, query
    from lpann.container import index_digest

    dataset, config, queries = _instance(kind, n)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    start = time.perf_counter()
    scheme = preprocess(dataset, config)
    build_s = time.perf_counter() - start
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out = {"build_s": build_s, "peak_rss_mb_before": before, "peak_rss_mb": peak,
           "digest": index_digest(scheme),
           "answers": answers_digest([query(scheme, q) for q in queries])}
    out["peak_rss_mb_queries"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return out


def _fresh_build(root: Path, kind: str, n: int) -> dict:
    def cap():
        limit = LIMIT_MB * MB
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    env = dict(os.environ, PYTHONPATH=str(root / "src"), **ONE_THREAD)
    cmd = [sys.executable, str(Path(__file__).resolve()), "build-one", kind, str(n)]
    done = subprocess.run(cmd, env=env, capture_output=True, text=True, preexec_fn=cap)
    if done.returncode:
        return {"error": done.stderr.strip().splitlines()[-1:], "exit": done.returncode}
    return json.loads(done.stdout.strip().splitlines()[-1])


def _size(spec: str) -> tuple:
    """(kind, n) of a ``--size`` KIND:N, or KIND alone for n = 0."""
    kind, _, n = spec.partition(":")
    return kind, int(n or "0")


def builds(args) -> dict:
    sides = {side: Path(getattr(args, side)).resolve() for side in SIDES}
    out = {"limit_mb": LIMIT_MB, "blas_threads": 1,
           "source_lines": {side: source_lines(root) for side, root in sides.items()},
           "instances": {}}
    for spec in args.size:
        kind, n = _size(spec)
        rows = []
        for i in range(RUNS):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for side in order:
                row = dict(side=side, **_fresh_build(sides[side], kind, n))
                rows.append(row)
                print(spec, json.dumps(row), flush=True)
        out["instances"][spec] = {"summary": summarize(rows), "runs": rows}
    return out


def summarize(rows: list) -> dict:
    """Per side, the medians of one instance's ``builds`` rows (those
    without an error), and where both sides built, the verdicts:

      * ``same_digest``: both sides built one digest, the same;
      * ``same_answers``: both sides gave one answers digest, the same;
      * ``rss_over_mb``: the change's median peak RSS less the parent's
        largest, and ``rss_worse``, whether that exceeds ``RSS_TOLERANCE_MB``.
    """
    summary = {}
    for side in SIDES:
        mine = [r for r in rows if r["side"] == side and "error" not in r]
        if mine:
            summary[side] = {
                "build_s_median": statistics.median(r["build_s"] for r in mine),
                "peak_rss_mb_median": statistics.median(r["peak_rss_mb"] for r in mine),
                "peak_rss_mb_max": max(r["peak_rss_mb"] for r in mine),
                "digests": sorted({r["digest"] for r in mine}),
                "answers": sorted({r["answers"] for r in mine}),
                "peak_rss_mb_queries_median": statistics.median(
                    r["peak_rss_mb_queries"] for r in mine)}
    if len(summary) == 2:
        parent, change = summary["parent"], summary["change"]
        over = change["peak_rss_mb_median"] - parent["peak_rss_mb_max"]
        verdicts = {"same_digest": len(parent["digests"]) == 1
                    and parent["digests"] == change["digests"],
                    "same_answers": len(parent["answers"]) == 1
                    and parent["answers"] == change["answers"],
                    "rss_over_mb": over, "rss_worse": over > RSS_TOLERANCE_MB}
        summary["verdicts"] = verdicts
    return summary


def load_checkout(root: Path, name: str):
    """Checkout root's ``src/lpann`` imported as the package ``name``. lpann
    imports its modules relatively, so two checkouts load side by side,
    each with its own modules, on one numpy."""
    package = Path(root) / "src" / "lpann"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _parent_first(round_: int, query: int) -> bool:
    """Whether ``ab`` times the parent first on this round and query."""
    return (round_ + query) % 2 == 0


def ab_ratios(times: dict) -> dict:
    """Quartiles of the per-query ratio, change over parent, of
    ``times[side][round][query]``, each side's time the least over rounds:
    over every round ("all"), and over the rounds where the parent was timed
    first ("parent_first") or the change ("change_first"). Needs two rounds
    or more, so that each order times every query."""
    rounds, count = len(times["parent"]), len(times["parent"][0])
    if rounds < 2:
        raise ValueError("ab_ratios needs two rounds or more")
    out = {}
    for name, keep in (("all", None), ("parent_first", True), ("change_first", False)):
        least = {side: [min(times[side][r][i] for r in range(rounds)
                            if keep is None or _parent_first(r, i) == keep)
                        for i in range(count)] for side in SIDES}
        q1, median, q3 = quartiles([c / p for p, c in zip(least["parent"], least["change"])])
        out[name] = {"q1": q1, "median": median, "q3": q3}
    return out


def ab_instance(packages: dict, kind: str, n: int) -> dict:
    """One instance of ``ab`` over the two sides' packages."""
    inputs = {side: _instance(kind, n, lpann) for side, lpann in packages.items()}
    build_s = {side: [] for side in SIDES}
    digests = {side: set() for side in SIDES}
    schemes = {}
    for i in range(RUNS):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            lpann, (dataset, config, _) = packages[side], inputs[side]
            start = time.perf_counter()
            schemes[side] = lpann.preprocess(dataset, config)
            build_s[side].append(time.perf_counter() - start)
            digests[side].add(lpann.container.index_digest(schemes[side]))
    count = len(inputs["parent"][2])
    times = {side: [[0.0] * count for _ in range(AB_ROUNDS)] for side in SIDES}
    answers = {side: [None] * count for side in SIDES}
    for r in range(AB_ROUNDS):
        for i in range(count):
            for side in SIDES if _parent_first(r, i) else SIDES[::-1]:
                lpann, q = packages[side], inputs[side][2][i]
                start = time.perf_counter()
                answers[side][i] = lpann.query(schemes[side], q)
                times[side][r][i] = time.perf_counter() - start
    return {"build_s": build_s,
            "build_ratio": statistics.median(build_s["change"])
            / statistics.median(build_s["parent"]),
            "same_digest": len(digests["parent"]) == 1 and digests["parent"] == digests["change"],
            "same_answers": answers_digest(answers["parent"]) == answers_digest(answers["change"]),
            "queries": count,
            "query_ratio": ab_ratios(times)}


def ab(args) -> dict:
    os.environ.update(ONE_THREAD)  # read by the BLAS when numpy first loads
    roots = {side: Path(getattr(args, side)).resolve() for side in SIDES}
    packages = {side: load_checkout(root, f"lpann_{side}") for side, root in roots.items()}
    out = {"blas_threads": 1, "runs": RUNS, "rounds": AB_ROUNDS,
           "source_lines": {side: source_lines(root) for side, root in roots.items()},
           "instances": {}}
    for spec in args.size:
        out["instances"][spec] = ab_instance(packages, *_size(spec))
        print(spec, json.dumps(out["instances"][spec]), flush=True)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("pairs")
    p.add_argument("--parent", required=True)
    p.add_argument("--change", required=True)
    p.add_argument("--out", required=True)
    for mode in ("builds", "ab"):
        b = sub.add_parser(mode)
        b.add_argument("--parent", required=True)
        b.add_argument("--change", required=True)
        b.add_argument("--out", required=True)
        b.add_argument("--size", action="append", required=True)
    one = sub.add_parser("build-one")
    one.add_argument("kind")
    one.add_argument("n", type=int, nargs="?", default=0)
    args = parser.parse_args(argv)
    if args.mode == "build-one":
        print(json.dumps(build_one(args.kind, args.n)))
        return 0
    result = {"pairs": pairs, "builds": builds, "ab": ab}[args.mode](args)
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
