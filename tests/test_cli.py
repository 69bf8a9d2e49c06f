import json

import numpy as np
import pytest

from lpann.cli import (
    main,
    parse_dataset_file,
    run_bench_campaign,
    validate_bench_spec,
    validate_report,
)
from lpann.errors import UsageError
from test_container import _rewrite_header


def run_cli(args):
    return main(args)


def test_gen_minimal_file(tmp_path, capsys):
    out = tmp_path / "tiny.txt"
    assert run_cli(["gen", "--n", "1", "--d", "1", "--p", "4", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 2
    assert lines[0] == "1 1 4.0"


def test_gen_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    args = ["gen", "--n", "50", "--d", "7", "--p", "4", "--seed", "9"]
    assert run_cli(args + ["--out", str(a)]) == 0
    assert run_cli(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_roundtrip_parses_finite(tmp_path):
    out = tmp_path / "g.txt"
    assert run_cli(["gen", "--n", "100", "--d", "32", "--p", "4", "--out", str(out)]) == 0
    ds = parse_dataset_file(out.read_text(), origin=str(out))
    assert ds.n == 100 and ds.d == 32
    assert np.isfinite(ds.vectors).all()


def test_parse_errors_carry_line_numbers():
    with pytest.raises(UsageError) as err:
        parse_dataset_file("2 2 4.0\n1.0 2.0\n1.0 oops\n", origin="bad.txt")
    assert "bad.txt:3" in str(err.value)
    with pytest.raises(UsageError) as err:
        parse_dataset_file("2 2\n", origin="bad.txt")
    assert "bad.txt:1" in str(err.value)


def test_build_and_query_roundtrip(tmp_path, capsys):
    data = tmp_path / "data.txt"
    idx = tmp_path / "scheme.lpann"
    assert run_cli(["gen", "--n", "40", "--d", "8", "--p", "4", "--seed", "5", "--out", str(data)]) == 0
    capsys.readouterr()
    assert run_cli(["build", "--input", str(data), "--r", "0.001", "--seed", "1", "--out", str(idx)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert "approximation_bound" in summary and "space" in summary
    table_bytes = summary["space"]["table_bytes"]
    assert table_bytes.keys() == {"l2", "coarse"} and sum(table_bytes.values()) > 0
    assert summary["approximation_bound"]["c_p"] > 0

    # self-queries at a tiny radius return each point at distance zero
    body = data.read_text().splitlines()
    queries = tmp_path / "queries.txt"
    queries.write_text("\n".join(["3 8 4.0"] + body[1:4]) + "\n")
    assert run_cli(["query", "--index", str(idx), "--query-file", str(queries)]) == 0
    out_lines = capsys.readouterr().out.strip().splitlines()
    assert len(out_lines) == 3
    for i, line in enumerate(out_lines):
        rid, dist = line.split()
        assert int(rid) == i
        assert float(dist) == 0.0


@pytest.mark.parametrize("p", ["0", "0.5", "nan"])
def test_query_file_p_field_is_ignored(tmp_path, capsys, p):
    data = tmp_path / "data.txt"
    idx = tmp_path / "scheme.lpann"
    run_cli(["gen", "--n", "10", "--d", "6", "--p", "4", "--out", str(data)])
    run_cli(["build", "--input", str(data), "--r", "1.0", "--out", str(idx)])
    body = data.read_text().splitlines()[1:4]
    answers = []
    for header in (f"3 6 {p}", "3 6 4"):
        queries = tmp_path / "queries.txt"
        queries.write_text("\n".join([header] + body) + "\n")
        capsys.readouterr()
        assert run_cli(["query", "--index", str(idx), "--query-file", str(queries)]) == 0
        answers.append(capsys.readouterr().out)
    assert answers[0] == answers[1] and len(answers[0].splitlines()) == 3


@pytest.mark.parametrize("where", ["gen", "build", "load"])
def test_negative_seed_is_usage_error(tmp_path, capsys, where):
    data = tmp_path / "data.txt"
    idx = tmp_path / "scheme.lpann"
    gen = ["gen", "--n", "10", "--d", "6", "--p", "4", "--out", str(data)]
    if where == "gen":
        assert run_cli(gen + ["--seed", "-1"]) == 2
        assert not data.exists()
        return
    assert run_cli(gen) == 0
    build = ["build", "--input", str(data), "--r", "1.0", "--out", str(idx)]
    if where == "build":
        assert run_cli(build + ["--seed=-1"]) == 2
        assert not idx.exists()
        return
    assert run_cli(build) == 0
    bad = _rewrite_header(idx, tmp_path / "bad.lpann", lambda h: h["config"].update(seed=-1))
    queries = tmp_path / "queries.txt"
    queries.write_text("\n".join(["1 6 4"] + data.read_text().splitlines()[1:2]) + "\n")
    assert run_cli(["query", "--index", str(bad), "--query-file", str(queries)]) == 2
    assert "seed" in capsys.readouterr().err


def test_query_dimension_mismatch_names_both(tmp_path, capsys):
    data = tmp_path / "data.txt"
    idx = tmp_path / "scheme.lpann"
    run_cli(["gen", "--n", "10", "--d", "6", "--p", "4", "--out", str(data)])
    run_cli(["build", "--input", str(data), "--r", "1.0", "--out", str(idx)])
    bad = tmp_path / "bad_queries.txt"
    bad.write_text("1 4 4.0\n0.0 0.0 0.0 0.0\n")
    assert run_cli(["query", "--index", str(idx), "--query-file", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "4" in err and "6" in err


def test_malformed_dataset_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("3 2 4.0\n0.0 0.0\n")
    idx = tmp_path / "x.lpann"
    assert run_cli(["build", "--input", str(bad), "--r", "1.0", "--out", str(idx)]) == 2


def test_missing_input_is_io_error(tmp_path, capsys):
    idx = tmp_path / "x.lpann"
    assert run_cli(["build", "--input", str(tmp_path / "nope.txt"), "--r", "1.0", "--out", str(idx)]) == 3


def _not_utf8(tmp_path):
    bad = tmp_path / "latin.txt"
    bad.write_bytes(b"\xff\xfe\x00x\n")
    return bad


def _assert_names_file(capsys, path):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err and "Traceback" not in err


def test_build_input_not_utf8_is_usage_error(tmp_path, capsys):
    bad = _not_utf8(tmp_path)
    assert run_cli(["build", "--input", str(bad), "--r", "1", "--out", str(tmp_path / "x")]) == 2
    _assert_names_file(capsys, bad)


def test_query_file_not_utf8_is_usage_error(tmp_path, capsys):
    data, idx = tmp_path / "data.txt", tmp_path / "x.lpann"
    run_cli(["gen", "--n", "10", "--d", "6", "--p", "4", "--out", str(data)])
    run_cli(["build", "--input", str(data), "--r", "1.0", "--out", str(idx)])
    capsys.readouterr()
    bad = _not_utf8(tmp_path)
    assert run_cli(["query", "--index", str(idx), "--query-file", str(bad)]) == 2
    _assert_names_file(capsys, bad)


def test_bench_spec_not_utf8_is_usage_error(tmp_path, capsys):
    bad = _not_utf8(tmp_path)
    assert run_cli(["bench", "--spec", str(bad), "--out", str(tmp_path / "r.json")]) == 2
    _assert_names_file(capsys, bad)


@pytest.mark.parametrize(
    "d,what",
    [(3, "bucket width"), (16, "grid cell side"), (32, "cover radius")],
    ids=["l2-root", "grid-root", "grid-root-ladder"],
)
def test_overflowing_radius_is_numeric_range_error(tmp_path, capsys, d, what):
    # d = 3 normalizes to an l2 root, d = 16 to a grid root with an empty
    # ladder, d = 32 to a grid root whose ladder radius overflows first
    data = tmp_path / "data.txt"
    data.write_text(f"2 {d} 4.0\n" + " ".join(["0"] * d) + "\n" + " ".join(["1"] * d) + "\n")
    out = tmp_path / "x.lpann"
    assert run_cli(["build", "--input", str(data), "--r", "1e308", "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("numeric-range error: ") and what in err
    assert not out.exists()


@pytest.mark.parametrize("d", [8, 32], ids=["l2-root", "grid-root"])
def test_subnormal_radius_builds_and_finds_each_point(tmp_path, capsys, d):
    # at r = 5e-324 the division by the bucket width or cell side overflows
    # to inf, which the cast to int64 clips like any far key or cell: the
    # build neither warns nor fails, and a self-query finds its point
    data, idx = tmp_path / "data.txt", tmp_path / "x.lpann"
    assert run_cli(["gen", "--n", "50", "--d", str(d), "--p", "4", "--out", str(data)]) == 0
    capsys.readouterr()
    assert run_cli(["build", "--input", str(data), "--r", "5e-324", "--out", str(idx)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["approximation_bound"]["p_effective"] == (2.0 if d == 8 else 4.0)
    queries = tmp_path / "queries.txt"
    queries.write_text("\n".join([f"3 {d} 4.0"] + data.read_text().splitlines()[1:4]) + "\n")
    assert run_cli(["query", "--index", str(idx), "--query-file", str(queries)]) == 0
    assert capsys.readouterr().out.split() == ["0", "0.0", "1", "0.0", "2", "0.0"]


def test_exponent_whose_closed_form_overflows_builds(tmp_path, capsys):
    # (16 log2 p)^(log2 p) overflows float64 at p = 1e308: the build
    # reports the literal closed form as null and succeeds
    data = tmp_path / "data.txt"
    data.write_text("2 2 1e308\n0 0\n1 1\n")
    out = tmp_path / "x.lpann"
    assert run_cli(["build", "--input", str(data), "--r", "1", "--out", str(out)]) == 0
    summary = capsys.readouterr().out
    assert '"closed_form_literal": null' in summary
    assert json.loads(summary)["approximation_bound"]["p"] == 1e308


def test_bench_spec_schema_violations_enumerated():
    with pytest.raises(UsageError) as err:
        validate_bench_spec({"n_grid": [], "d": 0, "p": 1.0, "r": 1.0, "trials": 1, "seed": 0})
    msg = str(err.value)
    assert "n_grid" in msg and "d" in msg and "p" in msg


def test_bench_small_campaign(tmp_path, capsys):
    spec = {
        "n_grid": [40, 80],
        "d": 32,
        "p": 4.0,
        "r": 1.0,
        "trials": 10,
        "seed": 3,
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "report.json"
    assert run_cli(["bench", "--spec", str(spec_path), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    validate_report(report)
    assert report["success_rate"] >= 0.0
    assert report["per_n"].keys() == {"40", "80"}


def test_bench_campaign_determinism():
    spec = {
        "n_grid": [40, 80],
        "d": 32,
        "p": 4.0,
        "r": 1.0,
        "trials": 8,
        "seed": 12,
    }
    a = run_bench_campaign(dict(spec))
    b = run_bench_campaign(dict(spec))
    a.pop("timing")
    b.pop("timing")
    assert a == b


def test_cli_usage_exit_code_from_argparse():
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--n", "1"])  # missing required flags
    assert exc.value.code == 2


def test_numeric_range_exit_code(tmp_path, capsys, monkeypatch):
    # distance re-checking keeps numeric-range failures from arising on valid
    # inputs (overflowing coordinates become far singletons first), so the
    # exit-code mapping is exercised directly
    import lpann.cli as cli_mod
    from lpann.errors import NumericRangeError

    def exploding(args):
        raise NumericRangeError("synthetic overflow")

    monkeypatch.setattr(cli_mod, "cmd_gen", exploding)
    parser = cli_mod.build_parser()
    args = parser.parse_args(["gen", "--n", "1", "--d", "1", "--p", "4", "--out", "x"])
    assert args.func is exploding
    code = run_cli(["gen", "--n", "1", "--d", "1", "--p", "4", "--out", str(tmp_path / "x")])
    assert code == 4
    assert "numeric-range" in capsys.readouterr().err


def test_huge_coordinates_build_without_numeric_error(tmp_path, capsys):
    # coordinates whose pairwise distance overflows to inf become far-apart
    # singletons; the build completes rather than failing
    d = 32
    row0 = " ".join(["0.0"] * d)
    row1 = " ".join(["1e+155"] + ["0.0"] * (d - 1))
    data = tmp_path / "huge.txt"
    data.write_text(f"2 {d} 4.0\n{row0}\n{row1}\n")
    idx = tmp_path / "x.lpann"
    assert run_cli(["build", "--input", str(data), "--r", "1.0", "--out", str(idx)]) == 0

