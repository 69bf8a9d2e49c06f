"""Command-line front end: dataset generation, index build/query, benchmarks.

Exit codes are a stable contract: 0 success, 2 usage error (a request too
large to allocate included), 3 I/O error, 4 numeric-range error. All
randomness flows from --seed through the documented per-component
derivation, so campaigns reproduce in CI. Output files are written
atomically (temp file + rename).
"""

from __future__ import annotations

import argparse
import importlib.resources
import json
import sys

import jsonschema
import numpy as np

from .errors import NumericRangeError, UsageError
from .geometry import Dataset
from .oracle import TAG_GEN, TrialSpec, fit_scaling, run_trials, sample_background
from .recursive import LpScheme, SchemeConfig, approximation_bound, preprocess, query, space_usage
from .recursive import _int_seed, _seed
from .container import atomic_write, load_index, save_index

TAG_CAMPAIGN = 10

SPEC_DEFAULTS = {
    "distribution": "gaussian",
    "rho_fraction": 0.9,
    "delta": 1.0,
    "c_target": None,
}


def _load_schema(name: str) -> dict:
    ref = importlib.resources.files("lpann").joinpath("schemas", name)
    return json.loads(ref.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# dataset text format: first line "n d p", then n lines of d floats
# ---------------------------------------------------------------------------

def format_dataset_file(dataset: Dataset) -> str:
    lines = [f"{dataset.n} {dataset.d} {dataset.p!r}"]
    for row in dataset.vectors:
        lines.append(" ".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def parse_dataset_file(text: str, origin: str = "<dataset>") -> Dataset:
    return Dataset(*_parse_rows(text, origin))


def _parse_rows(text: str, origin: str) -> tuple[np.ndarray, float]:
    """(vectors, p) of a dataset file; p is any number, checked by the caller."""
    lines = text.splitlines()
    if not lines:
        raise UsageError(f"{origin}:1: empty dataset file")
    head = lines[0].split()
    if len(head) != 3:
        raise UsageError(f"{origin}:1: header must be 'n d p', got {lines[0]!r}")
    try:
        n, d, p = int(head[0]), int(head[1]), float(head[2])
    except ValueError as exc:
        raise UsageError(f"{origin}:1: bad header: {exc}") from None
    if n < 1 or d < 1:
        raise UsageError(f"{origin}:1: n and d must be >= 1")
    body = [ln for ln in lines[1:] if ln.strip()]
    if len(body) != n:
        raise UsageError(
            f"{origin}:{len(lines)}: header declares {n} rows, found {len(body)}"
        )
    vectors = np.empty((n, d), dtype=np.float64)
    for i, ln in enumerate(body):
        parts = ln.split()
        if len(parts) != d:
            raise UsageError(f"{origin}:{i + 2}: expected {d} values, found {len(parts)}")
        try:
            vectors[i] = [float(tok) for tok in parts]
        except ValueError as exc:
            raise UsageError(f"{origin}:{i + 2}: bad value: {exc}") from None
    if not np.isfinite(vectors).all():
        bad = int(np.flatnonzero(~np.isfinite(vectors).all(axis=1))[0])
        raise UsageError(f"{origin}:{bad + 2}: non-finite coordinate")
    return vectors, p


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as f:
            return f.read()
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path}: not UTF-8 text: {exc}") from None


def read_dataset_file(path: str) -> Dataset:
    return parse_dataset_file(_read_text(path), origin=path)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_gen(args) -> int:
    if args.n < 1 or args.d < 1:
        raise UsageError("--n and --d must be >= 1")
    if args.seed < 0:
        raise UsageError(f"--seed must be >= 0, got {args.seed}")
    rng = np.random.default_rng(_seed(args.seed, (TAG_GEN,)))
    vectors = sample_background(args.dist, args.d, args.n, rng)
    dataset = Dataset(vectors, args.p)
    atomic_write(args.out, [format_dataset_file(dataset).encode("utf-8")])
    print(f"wrote {args.n} x {args.d} dataset (p={args.p}) to {args.out}")
    return 0


class SchemeIndex:
    """Adapter binding a built scheme to the trial-harness protocol."""

    def __init__(self, scheme: LpScheme):
        self.scheme = scheme
        self.space_report = space_usage(scheme)

    def query(self, q):
        return query(self.scheme, q)


def make_scheme_builder(p: float, r: float, delta: float):
    def builder(dataset: Dataset, seed: int) -> SchemeIndex:
        cfg = SchemeConfig(p=p, r=r, delta=delta, seed=seed)
        return SchemeIndex(preprocess(dataset, cfg))

    return builder


def cmd_build(args) -> int:
    dataset = read_dataset_file(args.input)
    cfg = SchemeConfig(p=dataset.p, r=args.r, delta=args.delta, seed=args.seed)
    scheme = preprocess(dataset, cfg)
    save_index(scheme, args.out)
    summary = {
        "approximation_bound": scheme.bound.as_dict(),
        "space": space_usage(scheme).as_dict(),
        "index": args.out,
    }
    print(json.dumps(summary, indent=2))
    return 0


def cmd_query(args) -> int:
    scheme = load_index(args.index)
    queries, _ = _parse_rows(_read_text(args.query_file), args.query_file)  # p ignored
    if queries.shape[1] != scheme.d:
        raise UsageError(
            f"query dimension {queries.shape[1]} does not match index dimension {scheme.d}"
        )
    for row in queries:
        ans = query(scheme, row)
        if ans is None:
            print("-1 nan")
        else:
            print(f"{ans.id} {ans.distance!r}")
    return 0


def run_bench_campaign(spec_dict: dict) -> dict:
    """Run trials across the spec's n-grid and assemble the report; a build
    that fails fails the campaign with its error."""
    spec_dict = {**SPEC_DEFAULTS, **spec_dict}
    n_grid = sorted(spec_dict["n_grid"])
    p, d, r = float(spec_dict["p"]), int(spec_dict["d"]), float(spec_dict["r"])
    delta = float(spec_dict["delta"])

    bound = approximation_bound(SchemeConfig(p=p, r=r, delta=delta, seed=0), d)
    c_target = spec_dict["c_target"] if spec_dict["c_target"] else bound.c_p

    per_n = {}
    reports = {}
    for n in n_grid:
        trial_spec = TrialSpec(
            n=n, d=d, p=p, r=r,
            distribution=spec_dict["distribution"],
            rho=spec_dict["rho_fraction"] * r,
            trials=int(spec_dict["trials"]),
            seed=_int_seed(spec_dict["seed"], (TAG_CAMPAIGN, n)),
        )
        rep = run_trials(make_scheme_builder(p, r, delta), trial_spec, c_target)
        reports[n] = rep
        per_n[str(n)] = {
            "success_rate": rep.success_rate,
            "total_points": rep.space.total,
            "ratio_quantiles": dict(rep.ratio_quantiles),
        }

    top = reports[n_grid[-1]]
    slope = None
    if len(n_grid) >= 3:
        slope = fit_scaling([(n, reports[n].space.total) for n in n_grid])

    top_ladder = list(bound.levels[-1].ladder) if bound.levels else []
    return {
        "config": spec_dict,
        "approximation_bound": bound.as_dict(),
        "ladder": top_ladder,
        "success_rate": top.success_rate,
        "ratio_quantiles": dict(top.ratio_quantiles),
        "space": {
            "per_level": dict(top.space.per_level),
            "total": top.space.total,
            "fit_slope": slope,
            "l2_sets": dict(top.space.l2_sets),
        },
        "timing": {
            "build_ms": top.build_time_s * 1e3,
            "mean_query_us": top.mean_query_time_s * 1e6,
        },
        "per_n": per_n,
    }


def validate_bench_spec(spec_dict: dict) -> None:
    validator = jsonschema.Draft202012Validator(_load_schema("bench_spec.schema.json"))
    errors = sorted(validator.iter_errors(spec_dict), key=lambda e: list(e.absolute_path))
    if errors:
        msgs = []
        for e in errors:
            where = "/".join(str(x) for x in e.absolute_path) or "<root>"
            msgs.append(f"  {where}: {e.message}")
        raise UsageError("bench spec violates schema:\n" + "\n".join(msgs))


def validate_report(report: dict) -> None:
    jsonschema.Draft202012Validator(_load_schema("report.schema.json")).validate(report)


def _finite_number(token: str) -> float:
    """A JSON number, which must be finite: ``json`` reads Infinity, NaN and
    1e999 as non-finite floats, which the schema's "number" admits."""
    if not np.isfinite(value := float(token)):
        raise ValueError(f"non-finite number {token}")
    return value


def cmd_bench(args) -> int:
    text = _read_text(args.spec)
    try:
        spec_dict = json.loads(text, parse_float=_finite_number, parse_constant=_finite_number)
    except ValueError as exc:  # a JSONDecodeError, or a non-finite number
        raise UsageError(f"{args.spec}: invalid JSON: {exc}") from None
    validate_bench_spec(spec_dict)
    report = run_bench_campaign(spec_dict)
    validate_report(report)
    atomic_write(args.out, [json.dumps(report, indent=2, allow_nan=False).encode("utf-8")])
    print(f"success_rate={report['success_rate']:.4f} c_p={report['approximation_bound']['c_p']:.4f}")
    print(f"report written to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lpann",
        description="near-neighbor search in lp (p > 2) via cover-routed signed-power reductions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a synthetic dataset file")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--d", type=int, required=True)
    g.add_argument("--p", type=float, required=True)
    g.add_argument("--dist", choices=["gaussian", "uniform-cube", "clustered"], default="gaussian")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen)

    b = sub.add_parser("build", help="build an index from a dataset file")
    b.add_argument("--input", required=True)
    b.add_argument("--r", type=float, required=True)
    b.add_argument("--delta", type=float, default=1.0)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--out", required=True)
    b.set_defaults(func=cmd_build)

    q = sub.add_parser("query", help="answer queries from a file against an index")
    q.add_argument("--index", required=True)
    q.add_argument("--query-file", required=True)
    q.set_defaults(func=cmd_query)

    be = sub.add_parser("bench", help="run a benchmark campaign from a JSON spec")
    be.add_argument("--spec", required=True)
    be.add_argument("--out", required=True)
    be.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericRangeError as exc:
        print(f"numeric-range error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
