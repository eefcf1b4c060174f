import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qtrig import (
    ControlPolygon,
    CurveSamples,
    FloatRangeError,
    Interval,
    SingularDenominatorError,
    chord_distance_profile,
    convex_hull,
    denominator_certificate,
    point_in_hull,
    point_segment_distance,
    rational_basis_all,
    rational_basis_matrix,
    rational_evaluate,
    rational_sample,
    sign_changes_seq,
)

ONES4 = np.ones(4)


def test_partition_of_unity_on_grids(quarter, narrow):
    rng = np.random.default_rng(4001)
    for interval in (quarter, narrow):
        for q in (0.5, 1.0, 1.5, 3.0):
            for n in (1, 2, 3, 5):
                w = rng.uniform(0.2, 3.0, size=n + 1)
                for x in np.linspace(interval.a, interval.b, 17):
                    vals = rational_basis_all(n, float(x), q, interval, w).values
                    assert abs(float(vals.sum()) - 1.0) <= 1e-12


def test_frozen_unit_weight_value(quarter):
    # n=3, q=2, x=pi/4, unit weights: R_1 = 7/22
    vals = rational_basis_all(3, math.pi / 4, 2.0, quarter, ONES4).values
    assert abs(vals[1] - 7.0 / 22.0) <= 1e-15
    assert abs(float(vals.sum()) - 1.0) <= 1e-15


def test_frozen_rational_arch_point(quarter, arch_polygon):
    # q = 3 at x = pi/4 with unit weights: (3/2, 13/11)
    got = rational_evaluate(arch_polygon, ONES4, math.pi / 4, 3.0, quarter)
    want = np.array([1.5, 13.0 / 11.0])
    assert np.max(np.abs(got - want)) <= 1e-14


def test_weight_scaling_invariance(quarter):
    rng = np.random.default_rng(4002)
    w = rng.uniform(0.5, 2.0, size=4)
    for x in np.linspace(0.0, math.pi / 2, 9):
        base = rational_basis_all(3, float(x), 1.7, quarter, w).values
        scaled = rational_basis_all(3, float(x), 1.7, quarter, 2.7 * w).values
        assert np.max(np.abs(scaled - base)) <= 1e-13


def test_endpoint_interpolation_is_exact(quarter, arch_polygon):
    w = np.array([1.0, 2.0, 0.5, 1.5])
    assert np.array_equal(rational_evaluate(arch_polygon, w, quarter.a, 2.0, quarter), arch_polygon.points[0])
    assert np.array_equal(rational_evaluate(arch_polygon, w, quarter.b, 2.0, quarter), arch_polygon.points[3])


def test_samples_stay_in_convex_hull(quarter):
    rng = np.random.default_rng(4003)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        poly = ControlPolygon(rng.uniform(-2.0, 2.0, size=(n + 1, 2)))
        w = rng.uniform(0.2, 3.0, size=n + 1)
        q = float(np.exp(rng.uniform(np.log(0.5), np.log(3.0))))
        hull = convex_hull(poly.points)
        for s in rational_sample(poly, w, q, quarter, 65):
            assert point_in_hull(s.point, hull, slack=1e-12)


def test_affine_invariance(quarter):
    rng = np.random.default_rng(4004)
    for _ in range(10):
        poly = ControlPolygon(rng.uniform(-2.0, 2.0, size=(4, 2)))
        w = rng.uniform(0.3, 2.0, size=4)
        mat = rng.uniform(-1.5, 1.5, size=(2, 2))
        shift = rng.uniform(-3.0, 3.0, size=2)
        mapped = ControlPolygon(poly.points @ mat.T + shift)
        for x in np.linspace(0.0, math.pi / 2, 9):
            lhs = rational_evaluate(poly, w, float(x), 2.0, quarter) @ mat.T + shift
            rhs = rational_evaluate(mapped, w, float(x), 2.0, quarter)
            scale = max(1.0, float(np.max(np.abs(rhs))))
            assert np.max(np.abs(lhs - rhs)) <= 1e-11 * scale


def test_variation_diminishing_against_random_lines(quarter):
    rng = np.random.default_rng(4005)
    poly = ControlPolygon(np.array([[0.0, 0.0], [1.0, 2.0], [2.0, 2.0], [3.0, 0.0]]))
    w = np.array([1.0, 0.7, 1.4, 1.0])
    samples = rational_sample(poly, w, 2.0, quarter, 257)
    pts = np.vstack([s.point for s in samples])
    for _ in range(50):
        center = rng.uniform(0.0, 3.0, size=2)
        angle = rng.uniform(0.0, math.pi)
        normal = np.array([math.cos(angle), math.sin(angle)])
        curve_signed = (pts - center) @ normal
        poly_signed = (poly.points - center) @ normal
        assert sign_changes_seq(curve_signed) <= sign_changes_seq(poly_signed)


def test_chord_distance_frozen_single_point():
    single = CurveSamples(np.array([0.5]), np.array([[1.0, 2.0]]), "rational")
    assert chord_distance_profile(single, [0.0, 0.0], [3.0, 0.0]) == 2.0


def test_chord_profile_decreases_with_q(quarter, arch_polygon):
    worst = []
    for q in (1.0, 2.0, 3.0):
        samples = rational_sample(arch_polygon, ONES4, q, quarter, 129)
        worst.append(chord_distance_profile(samples, arch_polygon.points[0], arch_polygon.points[3]))
    assert abs(worst[0] - 1.5) <= 1e-12
    assert abs(worst[1] - 14.0 / 11.0) <= 1e-12
    assert abs(worst[2] - 13.0 / 11.0) <= 1e-12
    assert worst[0] > worst[1] > worst[2]


def test_point_segment_distance_cases():
    assert point_segment_distance([0.0, 1.0], [-1.0, 0.0], [1.0, 0.0]) == 1.0
    assert point_segment_distance([5.0, 0.0], [-1.0, 0.0], [1.0, 0.0]) == 4.0
    assert point_segment_distance([2.0, 2.0], [1.0, 1.0], [1.0, 1.0]) == math.sqrt(2.0)


def test_point_segment_distance_rows():
    pts = np.array([[0.0, 1.0], [5.0, 0.0], [-3.0, -4.0]])
    rows = point_segment_distance(pts, [-1.0, 0.0], [1.0, 0.0])
    assert rows.shape == (3,)
    assert rows.tolist() == [1.0, 4.0, math.sqrt(20.0)]
    assert point_segment_distance(pts, [2.0, 2.0], [2.0, 2.0]).shape == (3,)


def test_singular_denominator_raises(quarter):
    # w = (1, -1) at q = 1 on the quarter period: cos x - sin x vanishes at pi/4
    with pytest.raises(SingularDenominatorError):
        rational_basis_all(1, math.pi / 4, 1.0, quarter, np.array([1.0, -1.0]))
    with pytest.raises(SingularDenominatorError):
        denominator_certificate(1, 1.0, quarter, np.array([1.0, -1.0]))
    try:
        denominator_certificate(1, 1.0, quarter, np.array([1.0, -1.0]))
    except SingularDenominatorError as err:
        assert abs(err.x - math.pi / 4) <= 1e-6


def test_certificate_rejects_rows_with_no_weighted_terms(quarter):
    # weight 0 on B_0, the only basis function alive at x = a
    w = np.array([0.0, 1.0, 1.0, 1.0])
    for check in (lambda: denominator_certificate(3, 1.5, quarter, w),
                  lambda: rational_basis_all(3, quarter.a, 1.5, quarter, w)):
        with pytest.raises(SingularDenominatorError) as err:
            check()
        assert err.value.x == quarter.a


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nan_rows_are_singular():
    # far outside the short interval [0, 0.05] the degree-200 basis values at
    # q = 1 overflow to +inf and -inf while prod d(a, b) = sin(0.05)^200 stays
    # in range, so each row of weighted terms sums to NaN
    iv = Interval(0.0, 0.05)
    w = np.ones(201)
    with pytest.raises(SingularDenominatorError) as err:
        rational_basis_matrix(200, [-1.5, 0.02], 1.0, iv, w)
    assert err.value.x == -1.5
    with pytest.raises(SingularDenominatorError):
        rational_basis_all(200, -1.5, 1.0, iv, w)


def test_overflowing_sum_is_singular(quarter):
    # each term is finite, their sum overflows to inf
    w = [1.7e308, 1.7e308]
    with pytest.raises(SingularDenominatorError) as err:
        rational_basis_all(1, 0.7, 1.0, quarter, w)
    assert err.value.x == 0.7
    with pytest.raises(SingularDenominatorError) as err:
        rational_basis_matrix(1, [0.0, 0.7], 1.0, quarter, w)
    assert err.value.x == 0.7


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_curve_points_outside_float_range(quarter):
    # R_1 = -0.9 sin(2x) / (1 - 0.9 sin(2x)) pushes R_0 + R_2 to 10 at pi/4
    poly = ControlPolygon(np.full((3, 1), 1.7e308))
    w = [1.0, -0.9, 1.0]
    with pytest.raises(FloatRangeError, match="curve points leave float64"):
        rational_evaluate(poly, w, math.pi / 4, 1.0, quarter)
    with pytest.raises(FloatRangeError, match="curve points leave float64"):
        rational_sample(poly, w, 1.0, quarter, 3)


def test_certificate_finds_crossings_at_any_scale(quarter):
    # the product of two neighbouring grid values would overflow for
    # 1.7e308 cos x - sin x, which crosses zero next to pi/2, and underflow
    # to -0.0 for 1e-200 (cos x - sin x), which crosses at pi/4
    for w, root in (([1.7e308, -1.0], math.pi / 2), ([1e-200, -1e-200], math.pi / 4)):
        with pytest.raises(SingularDenominatorError) as err:
            denominator_certificate(1, 1.0, quarter, w)
        assert abs(err.value.x - root) <= 1e-6


def test_mixed_weights_without_zero_crossing(quarter):
    # den = 1 - 0.05 sin(2x) at q = 1 stays well away from zero
    w = np.array([1.0, -0.05, 1.0])
    floor = denominator_certificate(2, 1.0, quarter, w)
    assert floor >= 0.9
    samples = rational_sample(ControlPolygon(np.eye(3)), w, 1.0, quarter, 33)
    assert all(s.method == "rational-no-shape-guarantee" for s in samples)


def test_positive_weight_samples_keep_plain_tag(quarter, arch_polygon):
    samples = rational_sample(arch_polygon, ONES4, 2.0, quarter, 9)
    assert all(s.method == "rational" for s in samples)
    with pytest.raises(ValueError):
        rational_sample(arch_polygon, ONES4, 2.0, quarter, 1)


def test_weight_vector_validation():
    quarter = Interval(0.0, math.pi / 2)
    with pytest.raises(ValueError):
        rational_basis_all(1, 0.3, 2.0, quarter, np.array([[1.0, 2.0]]))
    with pytest.raises(ValueError):
        rational_basis_all(1, 0.3, 2.0, quarter, np.array([1.0, float("inf")]))
    with pytest.raises(ValueError):
        rational_basis_all(3, 0.3, 2.0, quarter, np.ones(3))


@settings(max_examples=60)
@given(
    n=st.integers(min_value=1, max_value=5),
    q=st.floats(min_value=0.3, max_value=4.0),
    t=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2 ** 16),
)
def test_partition_of_unity_property(n, q, t, seed):
    quarter = Interval(0.0, math.pi / 2)
    w = np.random.default_rng(seed).uniform(0.1, 5.0, size=n + 1)
    x = t * math.pi / 2
    vals = rational_basis_all(n, x, q, quarter, w).values
    assert abs(float(vals.sum()) - 1.0) <= 1e-12
    assert float(vals.min()) >= -1e-14
