"""Every multi-point sweep equals its per-point route bit for bit.

sample_curve, rational_sample, basis_matrix, rational_basis_matrix and
collocation evaluate all points at once; the single-x APIs are the reference
they must reproduce exactly, errors included.
"""

import math

import numpy as np
import pytest

from qtrig import (
    ControlPolygon,
    Interval,
    InvalidIntervalError,
    SingularDenominatorError,
    basis_all_direct,
    basis_matrix,
    collocation,
    evaluate_alg1,
    evaluate_alg2,
    evaluate_direct,
    kernel_tables,
    rational_basis_all,
    rational_basis_matrix,
    rational_evaluate,
    rational_sample,
    sample_curve,
)
from conftest import random_curve_case

SAMPLES = 33
PER_POINT = {
    "direct": evaluate_direct,
    "alg1": lambda poly, x, q, iv: evaluate_alg1(poly, x, q, iv).apex,
    "alg2": lambda poly, x, q, iv: evaluate_alg2(poly, x, q, iv).apex,
}


def _cases(seed, count=24):
    """random_curve_case draws up to degree 30, dims 1-3, quarter and general intervals."""
    rng = np.random.default_rng(seed)
    cases = [random_curve_case(rng, max_degree=30) for _ in range(count)]
    # q = 1 exactly and a degree-0 polygon take the edge paths of the tables
    poly, _, _, iv = cases[0]
    cases.append((poly, 0.0, 1.0, iv))
    cases.append((ControlPolygon([[0.5, -2.0]]), 0.0, 1.7, iv))
    return cases


def _same(got, want):
    return np.array_equal(np.asarray(got), np.asarray(want), equal_nan=True)


def test_kernel_table_columns_equal_float_tables():
    rng = np.random.default_rng(3100)
    for poly, _, q, iv in _cases(3099):
        n = poly.degree
        xs = np.concatenate([[iv.a, iv.b], rng.uniform(iv.a, iv.b, size=20)])
        d_ax, d_xb, d_ab = kernel_tables(iv, xs, q, n)
        assert len(d_ax) == len(d_xb) == len(d_ab) == n
        for j, x in enumerate(xs):
            want_ax, want_xb, want_ab = kernel_tables(iv, float(x), q, n)
            assert [col[j] for col in d_ax] == want_ax
            assert [col[j] for col in d_xb] == want_xb
            assert d_ab == want_ab


@pytest.mark.parametrize("method", ["direct", "alg1", "alg2"])
def test_sample_curve_equals_per_point_route(method):
    evaluate = PER_POINT[method]
    for poly, _, q, iv in _cases(3101):
        sweep = sample_curve(poly, q, iv, SAMPLES, method)
        xs = [s.x for s in sweep]
        assert xs == np.linspace(iv.a, iv.b, SAMPLES).tolist()
        assert all(s.method == method for s in sweep)
        want = [evaluate(poly, x, q, iv) for x in xs]
        assert _same([s.point for s in sweep], want), (poly.degree, q, iv)


def test_rational_sample_equals_rational_evaluate():
    rng = np.random.default_rng(3102)
    for poly, _, q, iv in _cases(3103):
        w = rng.uniform(0.5, 2.0, size=poly.degree + 1)
        sweep = rational_sample(poly, w, q, iv, SAMPLES)
        want = [rational_evaluate(poly, w, s.x, q, iv) for s in sweep]
        assert _same([s.point for s in sweep], want), (poly.degree, q, iv)


def test_basis_matrix_rows_equal_basis_all_direct():
    rng = np.random.default_rng(3104)
    for poly, _, q, iv in _cases(3105):
        n = poly.degree
        xs = np.concatenate([[iv.a, iv.b], rng.uniform(iv.a, iv.b, size=40)])
        rows = basis_matrix(n, xs, q, iv)
        assert rows.shape == (xs.size, n + 1)
        assert _same(rows, [basis_all_direct(n, float(x), q, iv).values for x in xs])


def test_collocation_columns_equal_per_point_routes():
    rng = np.random.default_rng(3106)
    for poly, _, q, iv in _cases(3107):
        n = poly.degree
        pts = np.sort(rng.uniform(iv.a, iv.b, size=7))
        w = rng.uniform(0.5, 2.0, size=n + 1)
        quantum = collocation("quantum", n, q, iv, pts).entries
        assert _same(quantum.T, [basis_all_direct(n, float(x), q, iv).values for x in pts])
        rational = collocation("rational", n, q, iv, pts, weights=w).entries
        assert _same(rational.T, [rational_basis_all(n, float(x), q, iv, w).values for x in pts])


def _first_singular_x(fn, xs):
    for x in xs:
        try:
            fn(float(x))
        except SingularDenominatorError as exc:
            return exc.x
    return None


def test_singular_denominator_raises_at_the_same_x():
    # (cos x - sin x)^2 touches zero at pi/4 without changing sign, so the
    # grid certificate passes and the pointwise rule trips on the sample there
    iv = Interval(0.0, math.pi / 2)
    poly = ControlPolygon([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]])
    w = [1.0, -1.0, 1.0]
    xs = np.linspace(iv.a, iv.b, 129)
    want = _first_singular_x(lambda x: rational_evaluate(poly, w, x, 1.0, iv), xs)
    assert want == xs[64]
    with pytest.raises(SingularDenominatorError) as sweep_err:
        rational_sample(poly, w, 1.0, iv, 129)
    assert sweep_err.value.x == want
    with pytest.raises(SingularDenominatorError) as matrix_err:
        rational_basis_matrix(2, xs, 1.0, iv, w)
    assert matrix_err.value.x == want
    with pytest.raises(SingularDenominatorError) as colloc_err:
        collocation("rational", 2, 1.0, iv, xs[1:-1], weights=w)
    assert colloc_err.value.x == want


# the singular kinds of tests/test_rational.py: (n, x, q, interval, weights)
_SINGULAR_ROWS = {
    "zero row at x = a": (3, 0.0, 1.5, Interval(0.0, math.pi / 2), [0.0, 1.0, 1.0, 1.0]),
    "NaN row at n = 200": (200, -1.5, 1.0, Interval(0.0, 0.05), np.ones(201)),
    "overflowing sum": (1, 0.7, 1.0, Interval(0.0, math.pi / 2), [1.7e308, 1.7e308]),
    "touching zero at pi/4": (2, math.pi / 4, 1.0, Interval(0.0, math.pi / 2), [1.0, -1.0, 1.0]),
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the degree-200 basis overflows there
@pytest.mark.parametrize("kind", sorted(_SINGULAR_ROWS))
def test_singular_rows_raise_the_same_error_at_one_x_and_in_a_sweep(kind):
    n, x, q, iv, w = _SINGULAR_ROWS[kind]
    with pytest.raises(SingularDenominatorError) as point_err:
        rational_basis_all(n, x, q, iv, w)
    with pytest.raises(SingularDenominatorError) as sweep_err:
        rational_basis_matrix(n, [x], q, iv, w)
    point, sweep = point_err.value, sweep_err.value
    assert point.x == sweep.x == x
    assert np.float64(point.denominator).tobytes() == np.float64(sweep.denominator).tobytes()
    assert str(point) == str(sweep)


def test_invalid_interval_raises_the_same_error():
    bad = Interval(0.0, math.pi)
    poly = ControlPolygon([[0.0, 0.0], [1.0, 2.0], [3.0, 0.0]])
    with pytest.raises(InvalidIntervalError) as point_err:
        basis_all_direct(2, 0.5, 1.5, bad)
    sweeps = [
        lambda: sample_curve(poly, 1.5, bad, 9, "direct"),
        lambda: sample_curve(poly, 1.5, bad, 9, "alg1"),
        lambda: sample_curve(poly, 1.5, bad, 9, "alg2"),
        lambda: rational_sample(poly, np.ones(3), 1.5, bad, 9),
        lambda: basis_matrix(2, [0.5], 1.5, bad),
        lambda: collocation("quantum", 2, 1.5, bad, [0.5, 1.0]),
    ]
    for sweep in sweeps:
        with pytest.raises(InvalidIntervalError) as sweep_err:
            sweep()
        assert sweep_err.value.failing_index == point_err.value.failing_index
        assert sweep_err.value.value == point_err.value.value
