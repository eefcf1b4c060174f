import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qtrig import (
    ControlPolygon,
    CurveSamples,
    FloatRangeError,
    Interval,
    evaluate_alg1,
    evaluate_alg2,
    evaluate_direct,
    intermediate_explicit,
    sample_curve,
)
from conftest import random_curve_case
from oracles import curve_direct_mp, tableau_reference, tn_design_matrix, tn_membership_residual

ROOT2 = math.sqrt(2.0)
EVALUATORS = [
    ("direct", lambda poly, x, q, iv: evaluate_direct(poly, x, q, iv)),
    ("alg1", lambda poly, x, q, iv: evaluate_alg1(poly, x, q, iv).apex),
    ("alg2", lambda poly, x, q, iv: evaluate_alg2(poly, x, q, iv).apex),
]


def test_frozen_arch_point(quarter, arch_polygon):
    # q = 2 at x = pi/4: (33 sqrt2 / 16, 7 sqrt2 / 4)
    want = np.array([33 * ROOT2 / 16, 7 * ROOT2 / 4])
    for name, evaluate in EVALUATORS:
        got = evaluate(arch_polygon, math.pi / 4, 2.0, quarter)
        assert np.max(np.abs(got - want)) <= 3e-14, name


def test_degree_one_scalar_scheme(quarter):
    poly = ControlPolygon(np.array([0.0, 1.0]))
    tab = evaluate_alg1(poly, math.pi / 4, 1.0, quarter)
    assert len(tab.rows) - 1 == 1
    assert tab.rows[0].shape == (2, 1)
    assert tab.rows[1].shape == (1, 1)
    # apex reduces to sin(pi/4)/sin(pi/2) exactly; that is sqrt(2)/2 up to 1 ulp
    assert float(tab.apex[0]) == math.sin(math.pi / 4)
    assert abs(float(tab.apex[0]) - ROOT2 / 2) <= 1e-15


def test_cross_method_agreement_random_cases():
    rng = np.random.default_rng(3001)
    for _ in range(200):
        poly, x, q, iv = random_curve_case(rng)
        scale = max(poly.diameter, 1.0)
        direct = evaluate_direct(poly, x, q, iv)
        a1 = evaluate_alg1(poly, x, q, iv).apex
        a2 = evaluate_alg2(poly, x, q, iv).apex
        assert np.max(np.abs(a1 - direct)) <= 1e-11 * scale
        assert np.max(np.abs(a2 - direct)) <= 1e-11 * scale


def test_direct_evaluation_against_high_precision(quarter, arch_polygon):
    rng = np.random.default_rng(3002)
    for q in (0.5, 1.0, 2.0):
        for x in rng.uniform(0.0, math.pi / 2, size=5):
            got = evaluate_direct(arch_polygon, float(x), q, quarter)
            want = np.array(
                [float(v) for v in curve_direct_mp(arch_polygon.points.tolist(), x, q, 0.0, math.pi / 2)]
            )
            assert np.max(np.abs(got - want)) <= 1e-13 * max(1.0, float(np.max(np.abs(want))))


@pytest.mark.parametrize("variant", ["alg1", "alg2"])
def test_tableau_matches_explicit_intermediates(variant):
    rng = np.random.default_rng(3003)
    run = evaluate_alg1 if variant == "alg1" else evaluate_alg2
    for _ in range(40):
        poly, x, q, iv = random_curve_case(rng, max_degree=6)
        tab = run(poly, x, q, iv)
        scale = max(1.0, max(float(np.max(np.abs(row))) for row in tab.rows))
        for r in range(poly.degree + 1):
            for k in range(poly.degree - r + 1):
                want = intermediate_explicit(variant, r, k, x, poly, q, iv)
                assert np.max(np.abs(tab.rows[r][k] - want)) <= 1e-11 * scale


def test_variants_coincide_at_q_one(quarter):
    rng = np.random.default_rng(3004)
    for _ in range(20):
        n = int(rng.integers(1, 7))
        poly = ControlPolygon(rng.uniform(-2.0, 2.0, size=(n + 1, 2)))
        x = float(rng.uniform(0.0, math.pi / 2))
        t1 = evaluate_alg1(poly, x, 1.0, quarter)
        t2 = evaluate_alg2(poly, x, 1.0, quarter)
        for r1, r2 in zip(t1.rows, t2.rows):
            assert np.array_equal(r1, r2)


@pytest.mark.parametrize("name,evaluate", EVALUATORS)
def test_endpoint_interpolation_is_exact(name, evaluate):
    rng = np.random.default_rng(3005)
    for iv in (Interval(0.0, math.pi / 2), Interval(math.pi / 8, math.pi / 4)):
        for q in (0.5, 1.0, 2.0, 3.0):
            for n in (1, 2, 4, 7):
                poly = ControlPolygon(rng.uniform(-2.0, 2.0, size=(n + 1, 2)))
                assert np.array_equal(evaluate(poly, iv.a, q, iv), poly.points[0])
                assert np.array_equal(evaluate(poly, iv.b, q, iv), poly.points[n])


def test_sample_curve_contract(quarter, arch_polygon):
    samples = sample_curve(arch_polygon, 2.0, quarter, 9, method="alg2")
    assert len(samples) == 9
    assert samples.points.shape == (9, 2)
    assert np.array_equal(samples.x, np.linspace(quarter.a, quarter.b, 9))
    assert samples[0].x == 0.0
    assert samples[-1].x == quarter.b
    assert all(s.method == "alg2" for s in samples)
    assert np.array_equal(samples[0].point, arch_polygon.points[0])
    assert np.array_equal(samples[-1].point, arch_polygon.points[3])
    with pytest.raises(ValueError):
        sample_curve(arch_polygon, 2.0, quarter, 1)
    with pytest.raises(ValueError):
        sample_curve(arch_polygon, 2.0, quarter, 5, method="nope")


def test_control_polygon_properties(arch_polygon):
    assert arch_polygon.degree == 3
    assert arch_polygon.dim == 2
    assert abs(arch_polygon.diameter - 3.0) <= 1e-15
    flat = ControlPolygon(np.array([1.0, 2.0, 0.5]))
    assert flat.points.shape == (3, 1)
    with pytest.raises(ValueError):
        ControlPolygon(np.array([[1.0, float("nan")]]))
    with pytest.raises(ValueError, match="control points must be finite"):  # an int beyond the float range
        ControlPolygon([[10**400, 0.0], [1.0, 2.0]])
    with pytest.raises(ValueError):
        ControlPolygon(np.zeros((2, 2, 2)))
    # the polygon keeps a read-only copy: a later edit of the caller's array
    # reaches neither its points nor a sweep of it
    given = np.array([[0.0, 0.0], [1.0, 2.0], [2.0, 0.0]])
    kept = ControlPolygon(given)
    given[1, 1] = np.inf
    assert kept.points.tolist() == [[0.0, 0.0], [1.0, 2.0], [2.0, 0.0]]
    assert np.isfinite(sample_curve(kept, 1.5, Interval.quarter(0), 5, "alg1").points).all()
    with pytest.raises(ValueError, match="read-only"):
        kept.points[1, 1] = 0.0


def test_tableau_structure(quarter, arch_polygon):
    tab = evaluate_alg2(arch_polygon, 0.7, 1.5, quarter)
    assert tab.variant == "alg2"
    assert len(tab.rows) - 1 == 3
    for r, row in enumerate(tab.rows):
        assert row.shape == (4 - r, 2)
    assert np.array_equal(tab.rows[0][2], arch_polygon.points[2])
    assert np.array_equal(tab.apex, tab.rows[3][0])


@pytest.mark.parametrize("variant", ["alg1", "alg2"])
def test_tableau_rows_equal_the_scalar_reference_bit_for_bit(variant):
    run = evaluate_alg1 if variant == "alg1" else evaluate_alg2
    rng = np.random.default_rng(2210 if variant == "alg1" else 2211)
    for _ in range(40):
        poly, x, q, iv = random_curve_case(rng, max_degree=30)
        n, dim = poly.degree, poly.dim
        tab = run(poly, x, q, iv)
        want = tableau_reference(poly.points, x, q, iv, variant)
        assert len(tab.rows) == n + 1
        for r, (row, ref) in enumerate(zip(tab.rows, want)):
            assert row.shape == (n + 1 - r, dim)
            assert row.tolist() == ref, (variant, n, q, iv, r)


def test_intermediate_explicit_bounds(quarter, arch_polygon):
    with pytest.raises(IndexError):
        intermediate_explicit("alg1", 4, 0, 0.5, arch_polygon, 2.0, quarter)
    with pytest.raises(IndexError):
        intermediate_explicit("alg1", 1, 3, 0.5, arch_polygon, 2.0, quarter)
    with pytest.raises(IndexError):
        intermediate_explicit("alg2", -1, 0, 0.5, arch_polygon, 2.0, quarter)
    with pytest.raises(ValueError):
        intermediate_explicit("alg3", 0, 0, 0.5, arch_polygon, 2.0, quarter)


def test_intermediate_explicit_outside_float_range(quarter):
    # prod_{i<150} d(0, pi/2; 0.9^i) = 0.9^11175 underflows to 0
    ones = ControlPolygon(np.ones((151, 2)))
    with pytest.raises(FloatRangeError, match="is outside float64"):
        intermediate_explicit("alg1", 150, 0, 0.7, ones, 0.9, quarter)
    # the alg2 prefactor q^(j(n-r-k)) reaches 3^2500 at (n, r, k) = (100, 50, 0)
    with pytest.raises(FloatRangeError, match="prefactor"):
        intermediate_explicit("alg2", 50, 0, 0.7, ControlPolygon(np.ones((101, 2))), 3.0, quarter)


def test_sweep_points_outside_float_range(quarter):
    # alternating control points of size 1e308 at q = 0.25: the curve
    # leaves float64 on every route
    poly = ControlPolygon(1e308 * np.array([[(-1.0) ** k] for k in range(9)]))
    for method in ("direct", "alg1", "alg2"):
        with pytest.raises(FloatRangeError, match="curve points leave float64"):
            sample_curve(poly, 0.25, quarter, 5, method)
    with pytest.raises(FloatRangeError, match="curve points leave float64"):
        CurveSamples(np.array([0.0]), np.array([[math.nan]]), "direct")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_single_x_points_outside_float_range(quarter):
    # the same curve as above at one x: every route raises as the sweeps do
    poly = ControlPolygon(1e308 * np.array([[(-1.0) ** k] for k in range(9)]))
    x = math.pi / 4
    for name, evaluate in EVALUATORS:
        with pytest.raises(FloatRangeError, match="curve points leave float64"):
            evaluate(poly, x, 0.25, quarter)
    for variant, first in (("alg1", 1), ("alg2", 2)):  # alg2's stage 1 point is finite
        for r in range(first, 9):
            with pytest.raises(FloatRangeError, match="tableau points leave float64"):
                intermediate_explicit(variant, r, 0, x, poly, 0.25, quarter)


def test_design_matrix_shapes():
    xs = np.linspace(0.0, 1.0, 7)
    assert tn_design_matrix(xs, 0).shape == (7, 1)  # constants only
    assert tn_design_matrix(xs, 1).shape == (7, 2)  # cos x, sin x
    assert tn_design_matrix(xs, 2).shape == (7, 3)  # 1, cos 2x, sin 2x
    assert tn_design_matrix(xs, 3).shape == (7, 4)  # cos x, sin x, cos 3x, sin 3x
    assert np.allclose(tn_design_matrix(xs, 3)[:, 2], np.cos(3 * xs))


def test_curve_coordinates_live_in_tn(quarter, arch_polygon):
    samples = sample_curve(arch_polygon, 2.0, quarter, 24)
    assert tn_membership_residual(samples, 3) <= 1e-10


def test_constant_samples_fit_even_space():
    xs = np.linspace(0.1, 2.9, 10)
    samples = CurveSamples(xs, np.full((len(xs), 1), 4.2), "direct")
    assert tn_membership_residual(samples, 2) <= 1e-12


def test_pure_double_frequency_fits_even_but_not_odd_space():
    xs = np.linspace(0.0, 2 * math.pi, 64)
    samples = CurveSamples(xs, np.array([[math.sin(2 * x)] for x in xs]), "direct")
    assert tn_membership_residual(samples, 2) <= 1e-12
    assert tn_membership_residual(samples, 3) > 1e-3


def test_membership_fit_guards():
    xs = np.linspace(0.0, 1.0, 5)
    samples = CurveSamples(xs, np.ones((len(xs), 1)), "direct")
    with pytest.raises(ValueError, match="need at least 6 samples"):
        tn_membership_residual(samples, 2)
    stacked = CurveSamples(np.full(12, 0.3), np.ones((12, 1)), "direct")
    with pytest.raises(ValueError, match="condition number"):
        tn_membership_residual(stacked, 2)


@settings(max_examples=60)
@given(
    n=st.integers(min_value=1, max_value=5),
    q=st.floats(min_value=0.3, max_value=4.0),
    t=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2 ** 16),
)
def test_scheme_apex_matches_direct_property(n, q, t, seed):
    iv = Interval(math.pi / 8, math.pi / 4)
    rng = np.random.default_rng(seed)
    poly = ControlPolygon(rng.uniform(-2.0, 2.0, size=(n + 1, 1)))
    x = iv.a + t * iv.length
    direct = evaluate_direct(poly, x, q, iv)
    apex = evaluate_alg1(poly, x, q, iv).apex
    assert np.max(np.abs(apex - direct)) <= 1e-11 * max(1.0, poly.diameter)
