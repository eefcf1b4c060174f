"""Every multi-point sweep equals its per-point route bit for bit.

sample_curve, rational_sample, basis_matrix, rational_basis_matrix and
collocation evaluate all points at once; the single-x APIs are the reference
they must reproduce exactly, errors included.
"""

import math
import tracemalloc

import numpy as np
import pytest

from qtrig import (
    ControlPolygon,
    Interval,
    InvalidIntervalError,
    SingularDenominatorError,
    basis_all_direct,
    basis_all_recurrence1,
    basis_all_recurrence2,
    basis_matrix,
    collocation,
    evaluate_alg1,
    evaluate_alg2,
    evaluate_direct,
    intermediate_explicit,
    kernel_tables,
    rational_basis_all,
    rational_basis_matrix,
    rational_evaluate,
    rational_sample,
    sample_curve,
)
from qtrig import curve
from qtrig.basis import _SHORT_XS
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


def _negative_q_cases(seed):
    """Degrees 1, 7 and 30, dims 1-3, at q = -0.6 and -2.5 on a quarter and a general interval.

    The powers of q alternate in sign and both kernel forms occur.  Kept
    out of _cases: the rational and collocation tests draw positive weights,
    whose denominators may come close to zero at q < 0.
    """
    rng = np.random.default_rng(seed)
    return [(ControlPolygon(rng.uniform(-2.0, 2.0, size=(n + 1, dim))), q, iv)
            for q in (-0.6, -2.5) for iv in (Interval.quarter(0), Interval(0.3, 1.4))
            for n in (1, 7, 30) for dim in (1, 2, 3)]


def _degree_60_cases(seed):
    """Degree-60 polygons at dims 1 and 3, on a quarter and a general interval: twice the stages of _cases."""
    rng = np.random.default_rng(seed)
    return [(ControlPolygon(rng.uniform(-2.0, 2.0, size=(61, dim))), 1.1, iv)
            for iv in (Interval.quarter(0), Interval(0.3, 1.4)) for dim in (1, 3)]


@pytest.mark.parametrize("method", ["direct", "alg1", "alg2"])
def test_sample_curve_equals_per_point_route(method):
    evaluate = PER_POINT[method]
    cases = [(poly, q, iv) for poly, _, q, iv in _cases(3101)] + _negative_q_cases(3108) + _degree_60_cases(3109)
    for poly, q, iv in cases:
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


@pytest.mark.parametrize("n", [0, 1, 3, 6, 30])
def test_basis_matrix_rows_equal_basis_all_direct_byte_for_byte_on_both_sides_of_the_short_route(n):
    # 1 to _SHORT_XS points go one at a time on floats, more by columns: both must give the bits of one x
    assert _SHORT_XS == 8  # so m = 1..10 below straddles the switch
    rng = np.random.default_rng(3110 + n)
    cases = ((1.5, Interval.quarter(0)), (0.7, Interval(0.3, 1.4)), (-2.5, Interval.quarter(-1)),
             (1.0, Interval(-1.0, 1.0)))
    for q, iv in cases:
        for m in range(1, 11):
            xs = np.sort(rng.uniform(iv.a, iv.b, size=m))
            xs[0] = iv.a  # the endpoints, where one product is exactly 0
            if m > 1:
                xs[-1] = iv.b
            for points in (xs, xs.astype(np.float32)):
                rows = basis_matrix(n, points, q, iv)
                assert rows.shape == (m, n + 1) and rows.dtype == np.float64
                for row, x in zip(rows, points.tolist()):
                    assert row.tobytes() == basis_all_direct(n, x, q, iv).values.tobytes(), (n, q, iv, m)
        ints = list(range(math.ceil(iv.a), math.floor(iv.b) + 1))  # a list of Python ints
        rows = basis_matrix(n, ints, q, iv)
        assert [row.tobytes() for row in rows] == [basis_all_direct(n, x, q, iv).values.tobytes() for x in ints]


def test_an_empty_xs_is_checked_as_before():
    assert basis_matrix(3, [], 1.5, Interval.quarter(0)).shape == (0, 4)
    with pytest.raises(InvalidIntervalError):  # the certificate comes first, points or none
        basis_matrix(3, [], 1.0, Interval(0.0, math.pi))


def test_sweeps_in_blocks_give_the_bits_of_one_block(monkeypatch):
    rng = np.random.default_rng(3111)
    polygon = ControlPolygon(rng.uniform(-2.0, 2.0, size=(31, 3)))
    for q, iv in ((1.5, Interval.quarter(0)), (0.7, Interval(0.3, 1.4))):
        whole = {method: sample_curve(polygon, q, iv, 23, method).points for method in ("alg1", "alg2")}
        monkeypatch.setattr(curve, "_SWEEP_BLOCK", 5)  # blocks of 5, 5, 5, 5 and 3 points
        for method, points in whole.items():
            assert sample_curve(polygon, q, iv, 23, method).points.tobytes() == points.tobytes(), (method, q)
        monkeypatch.undo()


def test_a_long_sweep_keeps_its_memory_to_a_block():
    # 100,000 points of a 31-point 3-d polygon: stepped at once, the stage buffers took 234 MiB
    polygon = ControlPolygon([[math.cos(k), math.sin(k), 0.1 * k] for k in range(31)])
    tracemalloc.start()
    try:
        points = sample_curve(polygon, 1.5, Interval.quarter(0), 100_000, "alg2").points
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert points.shape == (100_000, 3)
    assert peak < 40 * 2**20, peak / 2**20


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
    for q in (1.5, 2):  # an int q is named as passed, never as the plan's float
        with pytest.raises(InvalidIntervalError) as point_err:
            basis_all_direct(2, 0.5, q, bad)
        assert repr(point_err.value.q) == repr(q)
        routes = [
            lambda: evaluate_alg1(poly, 0.5, q, bad),
            lambda: evaluate_alg2(poly, 0.5, q, bad),
            lambda: intermediate_explicit("alg2", 1, 0, 0.5, poly, q, bad),
            lambda: sample_curve(poly, q, bad, 9, "direct"),
            lambda: sample_curve(poly, q, bad, 9, "alg1"),
            lambda: sample_curve(poly, q, bad, 9, "alg2"),
            lambda: rational_sample(poly, np.ones(3), q, bad, 9),
            lambda: basis_matrix(2, [0.5], q, bad),
            lambda: collocation("quantum", 2, q, bad, [0.5, 1.0]),
        ]
        for route in routes:
            with pytest.raises(InvalidIntervalError) as err:
                route()
            assert err.value.failing_index == point_err.value.failing_index
            assert err.value.value == point_err.value.value
            assert str(err.value) == str(point_err.value)
            assert repr(err.value.q) == repr(q)


def test_float32_endpoints_give_the_bits_of_their_float64_values_on_every_route():
    # every route takes x - a and b - x in float64 from the plan, whatever type the endpoints have
    iv32 = Interval(np.float32(0.3), np.float32(1.4))
    iv64 = Interval(0.30000001192092896, 1.399999976158142)
    assert (float(iv32.a), float(iv32.b)) == (iv64.a, iv64.b)
    q, n, x = 1.5, 6, 1.3
    rng = np.random.default_rng(3112)
    poly = ControlPolygon(rng.uniform(-2.0, 2.0, size=(n + 1, 2)))
    w = rng.uniform(0.5, 2.0, size=n + 1)

    def _hex(values):
        return [v.hex() for v in np.ravel(np.asarray(values, dtype=float)).tolist()]

    routes = {
        "basis_all_direct": lambda iv: basis_all_direct(n, x, q, iv).values,
        "basis_all_recurrence1": lambda iv: basis_all_recurrence1(n, x, q, iv).values,
        "basis_all_recurrence2": lambda iv: basis_all_recurrence2(n, x, q, iv).values,
        "evaluate_direct": lambda iv: evaluate_direct(poly, x, q, iv),
        "alg1 apex": lambda iv: evaluate_alg1(poly, x, q, iv).apex,
        "alg2 apex": lambda iv: evaluate_alg2(poly, x, q, iv).apex,
        "intermediate_explicit": lambda iv: intermediate_explicit("alg2", 3, 1, x, poly, q, iv),
        "rational_basis_all": lambda iv: rational_basis_all(n, x, q, iv, w).values,
        "kernel_tables": lambda iv: [v for table in kernel_tables(iv, x, q, n) for v in table],
    }
    for name, route in routes.items():
        assert _hex(route(iv32)) == _hex(route(iv64)), name

    for method, evaluate in PER_POINT.items():
        sweep = sample_curve(poly, q, iv32, 21, method)
        for s in sweep:
            assert _hex(s.point) == _hex(evaluate(poly, float(s.x), q, iv32)), (method, s.x)

    for m in (2, 12):  # one point at a time on floats, and by columns
        xs = np.linspace(iv32.a, iv32.b, m)
        rows = basis_matrix(n, xs, q, iv32)
        for row, point in zip(rows, xs.tolist()):
            assert _hex(row) == _hex(basis_all_direct(n, point, q, iv32).values), (m, point)
