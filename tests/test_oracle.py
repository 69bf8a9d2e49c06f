import json
import math

import numpy as np
import pytest

from lpann import (
    Dataset,
    TrialSpec,
    UsageError,
    build_l2_ann,
    exact_nn,
    fit_scaling,
    lp_distance,
    make_planted_instance,
    query_l2_ann,
    run_trials,
)
from lpann.cli import make_scheme_builder


def test_exact_nn_single_point():
    ds = Dataset(np.array([[1.0, 2.0]]), 2.0)
    assert exact_nn(ds, [5.0, 5.0]) == (0, lp_distance([1.0, 2.0], [5.0, 5.0], 2.0))


def test_exact_nn_coincident_query():
    rng = np.random.default_rng(0)
    ds = Dataset(rng.standard_normal((50, 4)), 2.0)
    rid, dist = exact_nn(ds, ds.vectors[17])
    assert rid == 17 and dist == 0.0


def test_exact_nn_matches_brute_force():
    rng = np.random.default_rng(5)
    ds = Dataset(rng.standard_normal((100, 6)), 3.0)
    q = rng.standard_normal(6)
    dists = [lp_distance(ds.vectors[i], q, 3.0) for i in range(100)]
    expected = int(np.argmin(dists))
    rid, dist = exact_nn(ds, q)
    assert rid == expected
    assert dist == pytest.approx(min(dists), rel=1e-14)


def test_exact_nn_tie_lowest_id():
    vectors = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
    ds = Dataset(vectors, 2.0)
    rid, _ = exact_nn(ds, [1.0, 0.0])
    assert rid == 1


def test_planted_instance_rho_zero():
    spec = TrialSpec(n=20, d=8, p=4.0, r=1.0, rho=0.0, seed=3)
    dataset, q, planted = make_planted_instance(spec)
    assert np.array_equal(q, dataset.vectors[planted])


def test_planted_instance_exact_distance():
    for dist_name in ("gaussian", "uniform-cube", "clustered"):
        spec = TrialSpec(n=50, d=16, p=4.0, r=2.0, rho=1.3, seed=9, distribution=dist_name)
        dataset, q, planted = make_planted_instance(spec)
        got = lp_distance(dataset.vectors[planted], q, 4.0)
        assert got == pytest.approx(1.3, rel=1e-9)
        _, nn_dist = exact_nn(dataset, q)
        assert nn_dist <= 1.3 + 1e-12


def test_planted_instance_rejects_bad_rho():
    with pytest.raises(UsageError):
        TrialSpec(n=10, d=4, p=4.0, r=1.0, rho=2.0)


@pytest.mark.parametrize("seed", [-1, 1.5, True, np.int64(-1)])
def test_trial_spec_needs_a_non_negative_integer_seed(seed):
    with pytest.raises(UsageError):
        make_planted_instance(TrialSpec(n=10, d=4, p=4.0, r=1.0, seed=seed))


def test_trial_spec_keeps_a_numpy_integer_seed_as_an_int():
    spec = TrialSpec(n=10, d=4, p=4.0, r=1.0, seed=np.int64(3))
    assert type(spec.seed) is int
    dataset, q, planted = make_planted_instance(spec)
    ref_dataset, ref_q, ref_planted = make_planted_instance(
        TrialSpec(n=10, d=4, p=4.0, r=1.0, seed=3))
    assert planted == ref_planted
    assert (dataset.vectors == ref_dataset.vectors).all() and (q == ref_q).all()


@pytest.mark.parametrize("field,value", [
    ("n", 10.5), ("d", 3.5), ("trials", 2.5), ("n", True), ("d", False), ("trials", "3"),
])
def test_trial_spec_needs_integer_sizes(field, value):
    with pytest.raises(UsageError, match="must be integers"):
        TrialSpec(**{"n": 10, "d": 4, "p": 4.0, "r": 1.0, "trials": 1, field: value})


def test_trial_spec_keeps_numpy_integer_sizes_as_ints():
    spec = TrialSpec(n=np.int64(10), d=np.int64(4), p=4.0, r=1.0, trials=np.int64(3), seed=2)
    assert all(type(v) is int for v in (spec.n, spec.d, spec.trials))
    report = run_trials(make_scheme_builder(4.0, 1.0, 1.0), spec, c_target=10.0)
    json.dumps(report.as_dict())


def test_run_trials_single_point():
    spec = TrialSpec(n=1, d=8, p=4.0, r=1.0, trials=5, seed=2)
    report = run_trials(make_scheme_builder(4.0, 1.0, 1.0), spec, c_target=10.0)
    assert report.success_rate == 1.0
    assert report.build_error is None


class _L2Index:
    def __init__(self, dataset, seed, delta_fail):
        self.group = build_l2_ann(
            dataset.ids, dataset.vectors, r=1.0, delta_fail=delta_fail, seeds=[seed]
        )

    def query(self, q):
        hits = query_l2_ann(self.group, q)
        return None if hits is None else (int(hits[1][0]), float(hits[2][0]))


def test_run_trials_l2_path():
    spec = TrialSpec(n=200, d=32, p=2.0, r=1.0, trials=100, seed=6)
    builder = lambda dataset, seed: _L2Index(dataset, seed, delta_fail=0.05)
    report = run_trials(builder, spec, c_target=2.0)
    assert report.success_rate >= 0.9


def test_run_trials_ratio_sanity():
    spec = TrialSpec(n=120, d=32, p=4.0, r=1.0, trials=30, seed=8)
    report = run_trials(make_scheme_builder(4.0, 1.0, 1.0), spec, c_target=400.0)
    for o in report.outcomes:
        if o.exact_distance > 0 and o.returned_distance is not None:
            assert o.ratio >= 1.0 - 1e-12


def test_run_trials_build_failure_counts_as_nonsuccess():
    def broken_builder(dataset, seed):
        raise RuntimeError("nope")

    spec = TrialSpec(n=10, d=4, p=4.0, r=1.0, trials=4, seed=1)
    report = run_trials(broken_builder, spec, c_target=2.0)
    assert report.build_error is not None
    assert report.success_rate == 0.0


def test_run_trials_deterministic():
    spec = TrialSpec(n=80, d=32, p=4.0, r=1.0, trials=15, seed=44)
    builder = make_scheme_builder(4.0, 1.0, 1.0)
    a = run_trials(builder, spec, c_target=300.0)
    b = run_trials(builder, spec, c_target=300.0)
    assert a.as_dict(include_timing=False) == b.as_dict(include_timing=False)


def test_fit_scaling_exact_slopes():
    ns = [100, 200, 400, 800]
    assert fit_scaling([(n, float(n)) for n in ns]) == pytest.approx(1.0, abs=1e-12)
    assert fit_scaling([(n, float(n) ** 2) for n in ns]) == pytest.approx(2.0, abs=1e-12)


def test_fit_scaling_errors():
    with pytest.raises(UsageError):
        fit_scaling([(10, 1.0), (20, 2.0)])
    with pytest.raises(UsageError):
        fit_scaling([(10, 1.0), (20, 0.0), (30, 2.0)])


@pytest.mark.parametrize("points", [
    [(0, 1.0), (1, 2.0), (2, 3.0)],
    [(-10, 1.0), (20, 2.0), (30, 3.0)],
    [(10, 1.0), (20, math.inf), (30, 3.0)],
    [(10, 1.0), (20, math.nan), (30, 3.0)],
    [(10, 1.0), (math.inf, 2.0), (30, 3.0)],
])
def test_fit_scaling_rejects_non_positive_n_and_non_finite_measurements(points):
    with pytest.raises(UsageError, match="positive and finite"):
        fit_scaling(points)
