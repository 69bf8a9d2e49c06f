"""The verdict arithmetic, the instances, the in-process A/B and the source
line counts of tools/bench_pairs.py."""

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import bench_pairs  # noqa: E402
from bench_pairs import compare, quartiles, query_vs_scan  # noqa: E402

PARENT = [10.0, 10.1, 10.2, 10.3, 10.4, 10.5, 10.6, 10.7, 10.8, 10.9]


def test_quartiles_interpolate_like_numpy():
    assert quartiles(PARENT) == pytest.approx((10.225, 10.45, 10.675))
    assert quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert quartiles([1.0, 2.0]) == (1.25, 1.5, 1.75)


def test_a_gain_in_nine_of_ten_pairs_past_the_iqr_is_met():
    change = [p - 1.0 for p in PARENT]
    change[0] = 10.5  # one pair lost
    out = compare(PARENT, change, "lower", 0.1)
    assert (out["wins"], out["ties"], out["pairs"]) == (9, 0, 10)
    assert out["parent_iqr"] == pytest.approx(0.45)
    assert out["verdict"] == "met"
    # the same runs read as a loss where higher is better: past a 5 %
    # bound, 0.52, not past a 10 % one, 1.045
    assert compare(PARENT, change, "higher", 0.05)["verdict"] == "worse"
    assert compare(PARENT, change, "higher", 0.1)["verdict"] == "within"


def test_eight_wins_or_a_gap_inside_the_iqr_is_not_met():
    change = [p - 1.0 for p in PARENT]
    change[:2] = [10.5, 10.6]
    assert compare(PARENT, change, "lower", 0.1)["verdict"] == "within"
    small = [p - 0.1 for p in PARENT]  # wins every pair, gap 0.1 < IQR 0.45
    out = compare(PARENT, small, "lower", 0.1)
    assert out["wins"] == 10 and out["verdict"] == "within"


def test_ties_count_for_neither_side():
    out = compare([1.0] * 10, [1.0] * 10, "lower", 0.05)
    assert (out["wins"], out["ties"], out["verdict"]) == (0, 10, "within")
    assert out["rel"] == 0.0


def test_worse_past_the_bound():
    out = compare(PARENT, [p * 1.2 for p in PARENT], "lower", 0.1)
    assert out["verdict"] == "worse" and out["rel"] == pytest.approx(0.2)
    assert compare(PARENT, [p * 1.05 for p in PARENT], "lower", 0.1)["verdict"] == "within"
    assert compare(PARENT, [p * 0.8 for p in PARENT], "higher", 0.1)["verdict"] == "worse"


def test_a_parent_spread_wider_than_the_bound_is_unresolved():
    wide = [5.0, 6.0, 7.0, 8.0, 9.0, 11.0, 12.0, 13.0, 14.0, 15.0]  # IQR 5.5, median 10
    assert compare(wide, [w * 1.02 for w in wide], "lower", 0.25)["verdict"] == "unresolved"
    # unless every change run reads better than every parent run: then the
    # gain is met past the IQR, and within it is within the bound
    assert compare(wide, [4.0] * 10, "lower", 0.25)["verdict"] == "met"
    assert compare(wide, [15.1] * 10, "higher", 0.25)["verdict"] == "within"
    assert compare(wide, [15.6] * 10, "higher", 0.25)["verdict"] == "met"


def test_compare_refuses_unpaired_runs_and_unknown_directions():
    with pytest.raises(ValueError):
        compare([1.0, 2.0], [1.0], "lower", 0.1)
    with pytest.raises(ValueError):
        compare([], [], "lower", 0.1)
    with pytest.raises(ValueError):
        compare([1.0], [1.0], "faster", 0.1)


def test_query_vs_scan_divides_the_medians():
    rows = [{"query_p90_us": q, "scan_p50_us": s}
            for q, s in ((900.0, 200.0), (600.0, 150.0), (1200.0, 100.0))]
    assert query_vs_scan(rows) == 900.0 / 150.0


def test_depth2_size_is_the_depth2_instance_at_default_copies():
    from test_depth2 import _instance

    from lpann import SchemeConfig

    dataset, config, queries = bench_pairs._instance("depth2", 0)
    expected, test_config, expected_queries = _instance()
    assert dataset.vectors.tobytes() == expected.vectors.tobytes() and dataset.p == expected.p
    assert queries.tobytes() == expected_queries.tobytes()
    assert (config.p, config.r, config.seed) == (test_config.p, test_config.r, test_config.seed)
    default = SchemeConfig(p=config.p, r=config.r)
    assert (config.base_copies, config.child_copies) == (default.base_copies, default.child_copies)


def _checkout(root, files: dict):
    """A checkout at root whose src/lpann holds files (name: text)."""
    package = root / "src" / "lpann"
    package.mkdir(parents=True)
    for name, text in files.items():
        (package / name).write_text(text)
    return root


def test_source_lines_counts_as_wc(tmp_path):
    # newlines of the package's .py files: a last line without one counts
    # for nothing, as in wc -l, and other files do not count
    root = _checkout(tmp_path, {"a.py": "x = 1\n\ny = 2\n", "b.py": "z = 3\nw = 4",
                                "notes.txt": "\n\n\n"})
    assert bench_pairs.source_lines(root) == 4
    repo = Path(__file__).resolve().parent.parent
    if shutil.which("wc") and shutil.which("sh"):
        done = subprocess.run(["sh", "-c", "cat src/lpann/*.py | wc -l"], cwd=repo,
                              capture_output=True, text=True, check=True)
        assert bench_pairs.source_lines(repo) == int(done.stdout)


def test_pairs_and_builds_record_each_sides_source_lines(tmp_path, monkeypatch, capsys):
    parent = _checkout(tmp_path / "parent", {"a.py": "1\n2\n3\n"})
    change = _checkout(tmp_path / "change", {"a.py": "1\n", "b.py": "2\n"})
    (change / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 1, "workloads": [{"name": "w"}],
        "end_to_end": [{"name": "query_p90_us", "better": "lower", "bound": 0.25}]}))
    metrics = {"query_p90_us": {"value": 2.0}, "scan_p50_us": {"value": 1.0}}
    monkeypatch.setattr(bench_pairs, "run_bench", lambda *args: {
        "exit": 0, "correct": 1, "attempted": 1, "failed": 0, "metrics": metrics})
    args = argparse.Namespace(parent=str(parent), change=str(change), size=[])
    expected = {"parent": 3, "change": 2}
    assert bench_pairs.pairs(args)["source_lines"] == expected
    assert bench_pairs.builds(args)["source_lines"] == expected


def _build_row(side, digest="abc", rss=90.0, answers="def"):
    return {"side": side, "build_s": 1.0, "peak_rss_mb_before": 40.0, "peak_rss_mb": rss,
            "digest": digest, "answers": answers, "peak_rss_mb_queries": rss + 1.0}


def test_builds_verdicts_on_digests_and_peak_rss():
    rows = [_build_row("parent", rss=r) for r in (90.0, 90.3, 90.1)]
    rows += [_build_row("change", rss=r) for r in (90.6, 90.7, 99.0)]
    verdicts = bench_pairs.summarize(rows)["verdicts"]
    # the change's median, 90.7, is 0.4 MB above the parent's largest run,
    # within the tolerance; its one run at 99.0 does not count
    assert verdicts["same_digest"] and not verdicts["rss_worse"]
    assert verdicts["rss_over_mb"] == pytest.approx(0.4)
    assert verdicts["same_answers"]
    rows[4]["peak_rss_mb"] = 90.9
    assert bench_pairs.summarize(rows)["verdicts"]["rss_worse"]
    # a digest that differs, on either side, or two on one side, is not equal
    for at in (0, 3):
        other = [dict(r) for r in rows]
        other[at]["digest"] = "abd"
        assert not bench_pairs.summarize(other)["verdicts"]["same_digest"]


def test_builds_verdicts_need_both_sides():
    rows = [_build_row("parent"), _build_row("parent", rss=92.0), _build_row("change"),
            {"side": "change", "error": ["boom"]}]
    summary = bench_pairs.summarize(rows)
    # the change's failed run counts for nothing: its median is its one row
    assert summary["change"]["peak_rss_mb_median"] == 90.0
    assert summary["verdicts"]["same_digest"] and summary["verdicts"]["same_answers"]
    assert "query_ms_median" not in summary["parent"]
    assert "verdicts" not in bench_pairs.summarize(rows[:2])
    assert "verdicts" not in bench_pairs.summarize(rows[:1] + rows[3:])


def test_builds_verdicts_compare_the_answers_of_depth2_queries():
    rows = [_build_row(side) for side in ("parent", "change", "change", "parent")]
    assert bench_pairs.summarize(rows)["verdicts"]["same_answers"]
    # answers that differ, on either side, or two on one side, are not equal
    for at in (0, 1):
        other = [dict(r) for r in rows]
        other[at]["answers"] = "deg"
        assert not bench_pairs.summarize(other)["verdicts"]["same_answers"]


def test_answers_digest_reads_ids_distance_bits_and_traces():
    from lpann import QueryAnswer

    answers = [QueryAnswer(3, 0.5, [1, 3]), None]
    digest = bench_pairs.answers_digest(answers)
    assert digest == bench_pairs.answers_digest([QueryAnswer(3, 0.5, [1, 3]), None])
    for other in ([QueryAnswer(3, float.fromhex("0x1.0000000000001p-1"), [1, 3]), None],
                  [QueryAnswer(3, 0.5, [2, 3]), None], [QueryAnswer(4, 0.5, [1, 3]), None],
                  [None, QueryAnswer(3, 0.5, [1, 3])], answers[:1]):
        assert bench_pairs.answers_digest(other) != digest


@pytest.mark.parametrize("kind", ["gauss", "line", "l2root"])
def test_instances_keep_their_data_and_plant_queries_at_distinct_rows(kind):
    import numpy as np

    from lpann import preprocess
    from lpann._kernels import dists_to_point

    n = 1000  # past the l2 root's scan bound
    dataset, config, queries = bench_pairs._instance(kind, n)
    assert (dataset.p, config.p, config.r, config.seed) == (4.0, 4.0, 1.0, 1)
    # the data are seed 1's draws, as they were before the queries came
    rng = np.random.default_rng(1)
    if kind == "line":
        data = 0.2 * rng.standard_normal((n, 32))
        data[:, 0] += rng.uniform(0.0, 3.0 * n, size=n)
    else:
        data = (3.0 if kind == "l2root" else 1.0) * rng.standard_normal((n, dataset.d))
    assert dataset.d == (8 if kind == "l2root" else 32)
    assert dataset.vectors.tobytes() == data.tobytes()
    # each query lies at l4 distance 0.9 r from a row of its own
    assert queries.shape == (bench_pairs.QUERIES, dataset.d)
    sources = []
    for q in queries:
        at = np.flatnonzero(np.isclose(dists_to_point(data, q, 4.0), 0.9, rtol=1e-9, atol=0.0))
        assert at.size == 1
        sources.append(int(at[0]))
    assert len(set(sources)) == len(sources)
    if kind == "l2root":  # its root is one l2 set of LSH leaves
        root = preprocess(dataset, config).root
        assert root.t == 2.0 and type(root.group).__name__ == "L2Group"
        assert root.group.leaves > 1


def test_builds_give_answer_verdicts_for_every_instance(monkeypatch):
    # builds digest the answers and leave query timing to ab
    row = bench_pairs.build_one("l2root", 1000)
    assert len(row["answers"]) == 64 and "query_ms" not in row

    def fresh(root, kind, n):  # a row as a build process prints it: no side
        row = _build_row(None, answers=kind)
        del row["side"]
        return row

    monkeypatch.setattr(bench_pairs, "_fresh_build", fresh)
    args = argparse.Namespace(parent=".", change=".", size=["gauss:10", "l2root:10", "depth2"])
    instances = bench_pairs.builds(args)["instances"]
    assert list(instances) == args.size
    for spec, out in instances.items():
        verdicts = out["summary"]["verdicts"]
        assert verdicts["same_digest"] and verdicts["same_answers"]
        assert "query_ms_ratio" not in verdicts


REPO = Path(__file__).resolve().parent.parent


def test_ab_loads_one_source_twice_as_distinct_packages_that_answer_alike():
    import lpann

    one = bench_pairs.load_checkout(REPO, "lpann_one")
    two = bench_pairs.load_checkout(REPO, "lpann_two")
    assert one is not two and lpann not in (one, two)
    assert one.recursive is not two.recursive and one.recursive.__name__ == "lpann_one.recursive"
    assert one.Dataset is not two.Dataset
    built = {}
    for package in (one, two):
        dataset, config, queries = bench_pairs._instance("gauss", 300, package)
        assert isinstance(dataset, package.Dataset)
        scheme = package.preprocess(dataset, config)
        built[package.__name__] = (package.container.index_digest(scheme),
                                   bench_pairs.answers_digest(
                                       [package.query(scheme, q) for q in queries]))
    assert built["lpann_one"] == built["lpann_two"]


def test_ab_ratios_take_each_querys_least_time_per_order():
    # two rounds of three queries: the parent is timed first at (round 0,
    # queries 0 and 2) and at (round 1, query 1)
    times = {"parent": [[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]],
             "change": [[2.0, 2.0, 2.0], [1.0, 1.0, 1.0]]}
    out = bench_pairs.ab_ratios(times)
    assert out["all"] == {"q1": 1.0, "median": 1.0, "q3": 1.0}
    # parent first: ratios 2, 0.5 and 2; change first: 0.5, 2 and 0.5
    assert out["parent_first"] == {"q1": 1.25, "median": 2.0, "q3": 2.0}
    assert out["change_first"] == {"q1": 0.5, "median": 0.5, "q3": 1.25}
    slower = {"parent": times["parent"], "change": [[2 * t for t in r] for r in times["parent"]]}
    assert bench_pairs.ab_ratios(slower)["all"]["median"] == 2.0
    with pytest.raises(ValueError):
        bench_pairs.ab_ratios({"parent": [[1.0]], "change": [[1.0]]})


def test_ab_times_both_sides_of_one_checkout_alike(monkeypatch):
    monkeypatch.setattr(bench_pairs, "AB_ROUNDS", 2)
    monkeypatch.setattr(bench_pairs, "RUNS", 1)
    for name, value in bench_pairs.ONE_THREAD.items():  # restored after the test
        monkeypatch.setenv(name, value)
    args = argparse.Namespace(parent=str(REPO), change=str(REPO), size=["gauss:100"])
    out = bench_pairs.ab(args)
    assert out["source_lines"]["parent"] == out["source_lines"]["change"]
    row = out["instances"]["gauss:100"]
    assert row["same_digest"] and row["same_answers"] and row["queries"] == 100
    assert len(row["build_s"]["parent"]) == len(row["build_s"]["change"]) == 1
    assert set(row["query_ratio"]) == {"all", "parent_first", "change_first"}
    assert row["query_ratio"]["all"]["q1"] <= row["query_ratio"]["all"]["median"]
