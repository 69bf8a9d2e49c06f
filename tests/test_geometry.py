import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpann import (
    Dataset,
    MazurMapSpec,
    NumericRangeError,
    UsageError,
    lp_distance,
    mazur_map_apply,
    mazur_map_points,
    mazur_scale_factor,
    subset_diameter,
)


def test_lp_distance_pythagorean():
    assert lp_distance([0.0, 0.0], [3.0, 4.0], 2.0) == 5.0


def test_lp_distance_p4_analytic():
    assert lp_distance([1.0, 1.0], [0.0, 0.0], 4.0) == pytest.approx(2.0 ** 0.25, rel=1e-14)


def test_lp_distance_identity():
    v = np.array([0.3, -2.0, 7.5])
    assert lp_distance(v, v, 3.7) == 0.0


def test_lp_distance_symmetry():
    x, y = np.array([1.0, 2.0, -1.0]), np.array([0.5, -3.0, 4.0])
    assert lp_distance(x, y, 2.5) == lp_distance(y, x, 2.5)


def test_lp_distance_dimension_mismatch():
    with pytest.raises(UsageError):
        lp_distance([1.0, 2.0], [1.0, 2.0, 3.0], 2.0)


def test_lp_distance_bad_exponent():
    with pytest.raises(UsageError):
        lp_distance([1.0], [0.0], 0.5)


def test_lp_distance_overflow():
    with pytest.raises(NumericRangeError):
        lp_distance([1e308], [-1e308], 2.0)


def test_lp_distance_keeps_digits_below_normal_range():
    # |d|**3 here is subnormal; measured directly it comes back 3.4e-108
    d = 1.8972075660421167e-108
    assert lp_distance([0.0], [d], 3.0) == d
    assert lp_distance([0.0, 0.0], [3e-200, 4e-200], 2.0) == pytest.approx(5e-200, rel=1e-15)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(-100, 100), min_size=1, max_size=8),
    st.lists(st.floats(-100, 100), min_size=1, max_size=8),
    st.floats(1.0, 10.0),
    st.floats(-50.0, 50.0).filter(lambda a: abs(a) > 1e-6),
)
def test_lp_distance_scale_homogeneity(xs, ys, p, alpha):
    # lp_distance sees alpha * x and alpha * y rounded: each rounding moves a
    # scaled difference by at most eps * |alpha| * max(|x_i|, |y_i|), and by
    # Minkowski's inequality the distance by at most the sum of those moves.
    # When x_i and y_i nearly cancel that sum is far above rel=1e-12
    # (x=[1.0], y=[0.99999], alpha=3 moves it by 4e-12 of itself).
    d = min(len(xs), len(ys))
    x, y = np.array(xs[:d]), np.array(ys[:d])
    base = lp_distance(x, y, p)
    scaled = lp_distance(alpha * x, alpha * y, p)
    rounding = np.finfo(np.float64).eps * abs(alpha) * np.maximum(abs(x), abs(y)).sum()
    assert abs(scaled - abs(alpha) * base) <= 1e-12 * abs(alpha) * base + rounding + 1e-300


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(-100, 100), min_size=1, max_size=8),
    st.lists(st.floats(-100, 100), min_size=1, max_size=8),
    st.floats(1.0, 10.0),
    st.integers(-20, 5),
    st.sampled_from([-1.0, 1.0]),
)
def test_lp_distance_scales_by_powers_of_two(xs, ys, p, k, sign):
    # a power-of-two alpha scales every coordinate exactly (above the
    # subnormal range), so no rounding slack is allowed
    alpha = sign * 2.0 ** k
    d = min(len(xs), len(ys))
    x, y = np.array(xs[:d]), np.array(ys[:d])
    base = lp_distance(x, y, p)
    scaled = lp_distance(alpha * x, alpha * y, p)
    assert scaled == pytest.approx(abs(alpha) * base, rel=1e-12, abs=1e-300)


def test_mazur_scale_factor_values():
    assert mazur_scale_factor(4.0, 2.0, 1.0) == 2.0
    assert mazur_scale_factor(4.0, 2.0, 3.0) == 6.0
    assert mazur_scale_factor(8.0, 4.0, 2.0) == 4.0


def test_mazur_scale_factor_preconditions():
    with pytest.raises(UsageError):
        mazur_scale_factor(2.0, 2.0, 1.0)
    with pytest.raises(UsageError):
        mazur_scale_factor(4.0, 2.0, 0.0)


def test_mazur_map_unit_coordinates():
    spec = MazurMapSpec(p=4.0, q=2.0, c0=1.0)
    assert spec.scale == 2.0
    out = mazur_map_apply(spec, [1.0, -1.0])
    assert np.array_equal(out, [0.5, -0.5])


def test_mazur_map_is_one_function_for_vectors_and_rows():
    spec = MazurMapSpec(p=4.0, q=2.0, c0=3.0)
    mat = np.random.default_rng(7).standard_normal((5, 6))
    assert mazur_map_apply is mazur_map_points
    assert np.array_equal(mazur_map_points(spec, mat),
                          np.vstack([mazur_map_points(spec, row) for row in mat]))


def test_mazur_map_zero_fixed_point():
    spec = MazurMapSpec(p=8.0, q=4.0, c0=2.0)
    assert np.array_equal(mazur_map_apply(spec, np.zeros(5)), np.zeros(5))


def test_mazur_map_distortion_plug():
    # x=(1,0), y=0 under (p=4, q=2, c0=1): image distance is exactly 0.5,
    # between the lower bound 0.25 and the upper bound 1.
    spec = MazurMapSpec(p=4.0, q=2.0, c0=1.0)
    mx = mazur_map_apply(spec, [1.0, 0.0])
    my = mazur_map_apply(spec, [0.0, 0.0])
    img = lp_distance(mx, my, 2.0)
    assert img == 0.5
    lower = (2.0 / 4.0) * (2.0 * 1.0) ** (1.0 - 2.0) * 1.0 ** 2.0
    assert lower == 0.25
    assert lower <= img <= 1.0


def _sample_in_ball(rng, count, d, p, c0):
    g = rng.standard_normal((count, d))
    norms = (np.abs(g) ** p).sum(axis=1) ** (1.0 / p)
    radii = c0 * rng.random(count) ** (1.0 / d)
    return g * (radii / norms)[:, None]


@pytest.mark.parametrize("p,q,c0", [(4.0, 2.0, 1.0), (4.0, 2.0, 10.0), (8.0, 4.0, 2.0), (3.0, 1.5, 5.0)])
def test_mazur_distortion_bounds_sampled(p, q, c0):
    rng = np.random.default_rng(42)
    xs = _sample_in_ball(rng, 400, 12, p, c0)
    ys = _sample_in_ball(rng, 400, 12, p, c0)
    spec = MazurMapSpec(p=p, q=q, c0=c0)
    mx, my = mazur_map_points(spec, xs), mazur_map_points(spec, ys)
    slack = 1e-9 * c0
    # independent norm computation, plain numpy
    src = (np.abs(xs - ys) ** p).sum(axis=1) ** (1.0 / p)
    img = (np.abs(mx - my) ** q).sum(axis=1) ** (1.0 / q)
    assert (img <= src + slack).all()
    lower = (q / p) * (2.0 * c0) ** (1.0 - p / q) * src ** (p / q)
    assert (lower <= img + slack).all()


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        # |x|^2 underflows to exactly 0 below ~1.5e-162, losing the sign bit;
        # keep magnitudes where float64 can represent the image
        st.floats(-5, 5).filter(lambda x: x == 0.0 or abs(x) > 1e-100),
        min_size=1,
        max_size=10,
    )
)
def test_mazur_map_sign_preservation(xs):
    spec = MazurMapSpec(p=4.0, q=2.0, c0=6.0)
    v = np.array(xs)
    out = mazur_map_apply(spec, v)
    assert np.array_equal(np.sign(out), np.sign(v))


def test_subset_diameter_single_point():
    assert subset_diameter(np.array([[1.0, 2.0]]), 2.0) == 0.0


def test_subset_diameter_two_points():
    assert subset_diameter(np.array([[0.0, 0.0], [3.0, 4.0]]), 2.0) == 5.0


def test_subset_diameter_matches_pairwise_oracle():
    rng = np.random.default_rng(3)
    pts = rng.standard_normal((10, 5))
    for p in (1.0, 2.0, 3.5, 4.0):
        expected = max(
            lp_distance(pts[i], pts[j], p)
            for i in range(10)
            for j in range(i + 1, 10)
        )
        assert subset_diameter(pts, p) == pytest.approx(expected, rel=1e-12)


def test_subset_diameter_empty_is_error():
    with pytest.raises(UsageError):
        subset_diameter(np.empty((0, 3)), 2.0)


def test_dataset_validation():
    with pytest.raises(UsageError):
        Dataset(np.array([[np.inf, 0.0]]), 2.0)
    with pytest.raises(UsageError):
        Dataset(np.zeros((2, 2)), 0.5)
    # ids that are not integers, or not one per row of a 1-d array
    for ids in ([1.5, 2.7], [1.0, np.nan], [[1], [2]], ["a", "b"], [True, False], [0]):
        with pytest.raises(UsageError):
            Dataset(np.zeros((2, 2)), 2.0, ids=ids)
    ds = Dataset(np.zeros((3, 2)), 2.0)
    assert list(ds.ids) == [0, 1, 2]
    assert Dataset(np.zeros((2, 2)), 2.0, ids=[4.0, 7.0]).ids.tolist() == [4, 7]
