import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qtrig import (
    ControlPolygon,
    FloatRangeError,
    Interval,
    InvalidIntervalError,
    basis_all_direct,
    basis_all_recurrence1,
    basis_all_recurrence2,
    basis_matrix,
    certify_interval,
    collocation,
    evaluate_alg1,
    evaluate_alg2,
    evaluate_direct,
    intermediate_explicit,
    rational_basis_all,
    rational_basis_matrix,
    rational_evaluate,
    rational_sample,
    sample_curve,
    trig_kernel,
    kernel_tables,
)
from qtrig.basis import _SHORT_XS
from qtrig.kernel import _evaluation_plan, _plan
from qtrig.qcalc import _q_binomial_row
from oracles import classical_trig_basis, d_mp

Q_GRID = [0.5, 1.0, 1.5, 3.0]
ROOT2 = math.sqrt(2.0)


def test_kernel_at_quarter_endpoints_returns_q():
    for q in Q_GRID + [-0.5, 7.25]:
        assert abs(trig_kernel(0.0, math.pi / 2, q) - q) <= 1e-15 * max(1.0, abs(q))


def test_kernel_frozen_value():
    # d(pi/8, pi/4; 1.2), checked against 30-digit arithmetic
    want = 0.5133397288527274245
    got = trig_kernel(math.pi / 8, math.pi / 4, 1.2)
    assert abs(got - want) <= 1e-15
    assert abs(got - float(d_mp(math.pi / 8, math.pi / 4, 1.2))) <= 1e-15


def test_kernel_collapses_to_sine_at_q_one():
    rng = np.random.default_rng(1001)
    xs = rng.uniform(-10.0, 10.0, size=10_000)
    ys = rng.uniform(-10.0, 10.0, size=10_000)
    worst = max(abs(trig_kernel(x, y, 1.0) - math.sin(y - x)) for x, y in zip(xs, ys))
    assert worst <= 1e-15


def test_kernel_affine_in_q_second_difference():
    rng = np.random.default_rng(1002)
    for _ in range(200):
        x, y = rng.uniform(-5.0, 5.0, size=2)
        q = rng.uniform(0.2, 4.0)
        h = 0.25
        second = trig_kernel(x, y, q - h) - 2.0 * trig_kernel(x, y, q) + trig_kernel(x, y, q + h)
        scale = max(1.0, abs(trig_kernel(x, y, q)))
        assert abs(second) <= 1e-14 * scale


@pytest.mark.parametrize("m", [-3, -2, -1, 0, 1, 2, 3])
def test_quarter_anchor_scaling(m):
    # with a on the 2*pi grid the kernel is q times a plain sine/cosine
    rng = np.random.default_rng(1003 + m)
    a = 2.0 * math.pi * m
    b = math.pi / 2 + 2.0 * math.pi * m
    for q in Q_GRID:
        for x in rng.uniform(a, a + math.pi / 2, size=20):
            assert abs(trig_kernel(a, x, q) - q * math.sin(x - a)) <= 1e-14 * max(1.0, abs(q))
            assert abs(trig_kernel(x, b, q) - q * math.cos(x - 2.0 * math.pi * m)) <= 1e-14 * max(1.0, abs(q))


@given(
    x=st.floats(min_value=-8.0, max_value=8.0),
    y=st.floats(min_value=-8.0, max_value=8.0),
)
def test_q_one_collapse_property(x, y):
    assert trig_kernel(x, y, 1.0) == math.sin(y - x)


def test_interval_validation():
    with pytest.raises(ValueError):
        Interval(1.0, 1.0)
    with pytest.raises(ValueError):
        Interval(2.0, 1.0)
    with pytest.raises(ValueError):
        Interval(0.0, float("inf"))
    for a, b in ((0.3, 10**400), (-10**400, 0.3)):  # ints beyond the float range
        with pytest.raises(ValueError, match="interval endpoints must be finite"):
            Interval(a, b)
    iv = Interval(0.25, 1.5)
    assert iv.length == 1.25


def test_quarter_period_detection():
    assert Interval(0.0, math.pi / 2).quarter_period
    assert Interval(math.pi, 3 * math.pi / 2).quarter_period
    assert Interval(-math.pi / 2, 0.0).quarter_period
    assert Interval.quarter(2).quarter_period
    assert not Interval(math.pi / 8, math.pi / 4).quarter_period
    assert not Interval(0.0, math.pi / 2 + 1e-6).quarter_period
    assert not Interval(0.0, math.pi).quarter_period  # wrong span, right grid
    # within the snap tolerance still counts
    assert Interval(1e-13, math.pi / 2).quarter_period


# the kernel tables certify the interval themselves, for one x or for many
_TABLES = (kernel_tables, lambda iv, x, q, n: kernel_tables(iv, [x], q, n))


def test_certificate_quarter_interval_valid():
    cert = certify_interval(Interval(0.0, math.pi / 2), 2.0, 3)
    assert cert.valid
    assert cert.failing_index is None
    # denominators are d(0, pi/2; 2^i) = 2^i, so the minimum is 1
    assert abs(cert.min_abs_denominator - 1.0) <= 1e-15
    for tables in _TABLES:
        tables(Interval(0.0, math.pi / 2), 0.3, 2.0, 3)


def test_certificate_full_half_period_invalid():
    cert = certify_interval(Interval(0.0, math.pi), 1.5, 2)
    assert not cert.valid
    assert cert.failing_index == 0
    assert cert.min_abs_denominator <= 1e-12
    for tables in _TABLES:
        with pytest.raises(InvalidIntervalError) as err:
            tables(Interval(0.0, math.pi), 0.5, 1.5, 2)
        assert err.value.failing_index == 0


def test_certificate_failure_at_positive_index():
    # pick q so that d(a, b; q) = 0 exactly while d(a, b; 1) does not vanish
    a, b = 0.3, 2.0
    s1, s2 = math.sin(b - a), math.sin(b + a)
    q = (s2 - s1) / (s1 + s2)
    cert = certify_interval(Interval(a, b), q, 2)
    assert not cert.valid
    assert cert.failing_index == 1
    for tables in _TABLES:
        with pytest.raises(InvalidIntervalError) as err:
            tables(Interval(a, b), 1.0, q, 2)
        assert err.value.failing_index == 1


def test_certificate_rejects_non_finite_denominators():
    # q^i overflows to inf from i ~ 647 at q = 3, so d(a, b; q^i) is inf or
    # inf - inf; neither may pass as clear of zero
    for iv in (Interval(0.0, math.pi / 2), Interval(2.0, 2.5)):
        with pytest.raises(FloatRangeError, match="leaves float64"):
            certify_interval(iv, 3.0, 700)
        for tables in _TABLES:
            with pytest.raises(FloatRangeError):
                tables(iv, 1.0, 3.0, 700)
    assert certify_interval(Interval(0.0, math.pi / 2), 3.0, 600).valid


def test_kernel_tables_match_direct_calls():
    iv = Interval(math.pi / 8, math.pi / 4)
    x, q, n = 0.6, 1.3, 4
    d_ax, d_xb, d_ab = kernel_tables(iv, x, q, n)
    assert len(d_ax) == len(d_xb) == len(d_ab) == n
    qi = 1.0
    for i in range(n):
        assert d_ax[i] == trig_kernel(iv.a, x, qi)
        assert d_xb[i] == trig_kernel(x, iv.b, qi)
        assert d_ab[i] == trig_kernel(iv.a, iv.b, qi)
        qi *= q


def test_circular_barycentric_frozen_examples():
    # the circular barycentric coordinates u = sin(x-a)/sin(b-a) and
    # v = sin(b-x)/sin(b-a) are the degree-1 classical basis (B_1, B_0)
    def coords(interval, x):
        return classical_trig_basis(1, 1, x, interval), classical_trig_basis(1, 0, x, interval)

    quarter = Interval(0.0, math.pi / 2)
    u, v = coords(quarter, 0.0)
    assert (u, v) == (0.0, 1.0)
    u, v = coords(quarter, math.pi / 4)
    assert abs(u - ROOT2 / 2) <= 1e-15
    assert abs(v - ROOT2 / 2) <= 1e-15
    u, v = coords(Interval(math.pi / 8, math.pi / 4), math.pi / 4)
    assert abs(u - 1.0) <= 1e-15
    assert abs(v) <= 1e-16


def test_changing_returned_tables_changes_no_later_table():
    iv = Interval(math.pi / 8, math.pi / 4)
    d_ax, d_xb, d_ab = kernel_tables(iv, 0.6, 1.3, 4)
    want = [list(d_ax), list(d_xb), list(d_ab)]
    for table in (d_ax, d_xb, d_ab):
        table[0] = -1.0
        table.append(99.0)
    assert [list(t) for t in kernel_tables(iv, 0.6, 1.3, 4)] == want


def test_failing_scans_raise_on_every_call():
    for _ in range(2):
        with pytest.raises(InvalidIntervalError):
            kernel_tables(Interval(0, math.pi), 0.7, 1.0, 3)
        with pytest.raises(FloatRangeError, match=r"on \[0, 1\]"):  # the interval as given
            certify_interval(Interval(0, 1), 3.0, 700)


@pytest.mark.parametrize("order", [1, -1])
def test_equal_keys_of_other_types_give_the_same_plain_float_scan(order):
    # Interval(0, 1) of ints and of floats, and q as 2, 2.0 or np.float64(2.0),
    # are one memo key: whichever fills the entry, every caller gets plain floats
    _evaluation_plan.cache_clear()
    keys = [(Interval(a, b), q) for a, b in ((0, 1), (0.0, 1.0), (np.float64(0.0), np.float64(1.0)))
            for q in (2, 2.0, np.float64(2.0))][::order]
    got = []
    for iv, q in keys:
        cert = certify_interval(iv, q, 4)
        d_ax, d_xb, d_ab = kernel_tables(iv, 0.25, q, 4)
        plan = _plan(iv, q, 4)
        values = [cert.min_abs_denominator, *d_ax, *d_xb, *d_ab]
        assert all(type(v) is float for v in values + [plan.q, plan.den, *plan.powers, *plan.d_ab, *plan.row])
        got.append([v.hex() for v in values])
    assert all(g == got[0] for g in got)
    assert float.fromhex(got[0][-1]) == trig_kernel(0.0, 1.0, 8.0)


def test_a_float_degree_raises_without_reading_or_filling_its_plan():
    iv = Interval(0.0, 1.0)
    calls = (lambda n: basis_all_direct(n, 0.5, 1.3, iv), lambda n: basis_all_recurrence1(n, 0.5, 1.3, iv),
             lambda n: kernel_tables(iv, 0.5, 1.3, n), lambda n: certify_interval(iv, 1.3, n))
    _evaluation_plan.cache_clear()
    for filled in (False, True):
        if filled:
            basis_all_direct(3, 0.5, 1.3, iv)  # entry 3 exists from here on
        before = _evaluation_plan.cache_info()
        for call in calls:
            with pytest.raises(TypeError):
                call(3.0)
        assert _evaluation_plan.cache_info() == before


_POLYGON = {n: ControlPolygon(np.arange(n + 1, dtype=float)) for n in (3, 150, 200, 700)}
_FAILURE_ROUTES = {  # every public route that reads a plan
    "basis_all_direct": lambda n, q, iv: basis_all_direct(n, 0.5, q, iv).values,
    "basis_matrix": lambda n, q, iv: basis_matrix(n, [0.5, 0.7], q, iv),
    "basis_all_recurrence1": lambda n, q, iv: basis_all_recurrence1(n, 0.5, q, iv).values,
    "basis_all_recurrence2": lambda n, q, iv: basis_all_recurrence2(n, 0.5, q, iv).values,
    "evaluate_direct": lambda n, q, iv: evaluate_direct(_POLYGON[n], 0.5, q, iv),
    "evaluate_alg1": lambda n, q, iv: evaluate_alg1(_POLYGON[n], 0.5, q, iv).apex,
    "evaluate_alg2": lambda n, q, iv: evaluate_alg2(_POLYGON[n], 0.5, q, iv).apex,
    "intermediate_explicit": lambda n, q, iv: intermediate_explicit("alg1", 1, 0, 0.5, _POLYGON[n], q, iv),
    "kernel_tables": lambda n, q, iv: np.array(kernel_tables(iv, 0.5, q, n)),
    **{f"sample_curve {method}": lambda n, q, iv, method=method: sample_curve(_POLYGON[n], q, iv, 3, method).points
       for method in ("direct", "alg1", "alg2")},
    "rational_basis_all": lambda n, q, iv: rational_basis_all(n, 0.5, q, iv, np.ones(n + 1)).values,
    "rational_evaluate": lambda n, q, iv: rational_evaluate(_POLYGON[n], np.ones(n + 1), 0.5, q, iv),
    "rational_basis_matrix": lambda n, q, iv: rational_basis_matrix(n, [0.5, 0.7], q, iv, np.ones(n + 1)),
    "rational_sample": lambda n, q, iv: rational_sample(_POLYGON[n], np.ones(n + 1), q, iv, 3).points,
    "collocation": lambda n, q, iv: collocation("quantum", n, q, iv, [0.5, 0.7]).entries,
}
# the routes of the product formula, which alone read the q-binomial row and
# the product of the denominators
_PRODUCT_ROUTES = ("basis_all_direct", "basis_matrix", "evaluate_direct", "sample_curve direct",
                   "rational_basis_all", "rational_evaluate", "rational_basis_matrix", "rational_sample",
                   "collocation")
_LEAVES = "degree {n}, q={q!r}: d(a,b;q^i) leaves float64 on [0.0, 1.0]"
_NO_CERTIFICATE = "interval [0.0, 3.141592653589793] invalid for q={q!r}: |d(a,b;q^0)| = 1.225e-16 <= 1e-12"


def _product_only(error, message):
    """The outcomes of a certified key where only the product formula fails."""
    return {name: (error, message) if name in _PRODUCT_ROUTES else None for name in _FAILURE_ROUTES}


# (n, q, interval) of each failure kind, and what each route gives: the error
# type and message, or None where it returns finite values.  Every route
# checks the certificate first, then x, then its own ranges
_FAILURE_KINDS = {
    "row overflow": ((3, 1e308, Interval(0.0, 1.0)), dict.fromkeys(
        _FAILURE_ROUTES, (FloatRangeError, _LEAVES.format(n=3, q=1e308)))),
    "inf d(a,b)": ((700, 3.0, Interval(0.0, 1.0)), dict.fromkeys(
        _FAILURE_ROUTES, (FloatRangeError, _LEAVES.format(n=700, q=3.0)))),
    "failed certificate": ((3, 1.0, Interval(0.0, math.pi)), dict.fromkeys(
        _FAILURE_ROUTES, (InvalidIntervalError, _NO_CERTIFICATE.format(q=1.0)))),
    "uncertified row overflow": ((200, 3.0, Interval(0.0, math.pi)), dict.fromkeys(
        _FAILURE_ROUTES, (InvalidIntervalError, _NO_CERTIFICATE.format(q=3.0)))),
    "certified row overflow": ((200, 3.0, Interval(0.0, math.pi / 2)), _product_only(
        FloatRangeError, "q-binomial row 200 at q=3.0 overflows float64")),
    "denominator product": ((150, 0.9, Interval(0.0, math.pi / 2)), _product_only(
        FloatRangeError, "degree 150, q=0.9: prod d(a,b;q^i) = 0.0 is outside float64")),
    "denominator product at a numpy q": ((150, np.float64(0.9), Interval(0.0, math.pi / 2)), _product_only(
        FloatRangeError, "degree 150, q=0.9: prod d(a,b;q^i) = 0.0 is outside float64")),
}


@pytest.mark.parametrize("kind", _FAILURE_KINDS)
def test_each_failure_kind_gives_the_same_outcome_on_every_call(kind):
    (n, q, iv), outcomes = _FAILURE_KINDS[kind]
    _evaluation_plan.cache_clear()
    for _ in range(2):  # the first call fills the plan, the second reads it
        for name, route in _FAILURE_ROUTES.items():
            if outcomes[name] is None:
                assert np.all(np.isfinite(route(n, q, iv))), (kind, name)
                continue
            error, message = outcomes[name]
            with pytest.raises(error) as raised:
                route(n, q, iv)
            assert str(raised.value) == message, (kind, name)
    plan = _evaluation_plan(float(iv.a), float(iv.b), float(q), n)
    assert not any(isinstance(field, BaseException) for field in plan)  # markers, not exceptions
    if plan.d_ab is None or plan.failing is not None:
        assert plan.row is None  # only a certified key builds its row
    else:
        assert plan.row == _q_binomial_row(n, float(q))


@pytest.mark.parametrize("kind", _FAILURE_KINDS)
def test_a_nan_x_meets_the_checks_in_order_certificate_x_row_denominator(kind):
    (n, q, iv), outcomes = _FAILURE_KINDS[kind]
    error, message = outcomes["basis_all_direct"]
    certified = outcomes["basis_all_recurrence1"] is None
    # the bad x last in a short xs, taken one point at a time, and in a long one, taken by columns:
    # a NaN in a list and in an array, and in a list an int beyond the float range
    short, long = [0.5, math.nan], [0.5] * (_SHORT_XS + 3) + [math.nan]
    xss = [short, long, np.array(short), np.array(long), short[:-1] + [10 ** 400], long[:-1] + [10 ** 400]]
    for route in [lambda: basis_all_direct(n, math.nan, q, iv)] + [lambda xs=xs: basis_matrix(n, xs, q, iv)
                                                                     for xs in xss]:
        with pytest.raises(ValueError if certified else error) as raised:
            route()
        if certified:  # the x check comes before the row's and the denominator's
            assert str(raised.value).startswith("x must be finite")
        else:
            assert str(raised.value) == message


@pytest.mark.parametrize("kind", _FAILURE_KINDS)
def test_each_failure_kind_raises_on_every_repeated_call(kind):
    # the same key objects call after call: a repeated key must not skip a check
    (n, q, iv), outcomes = _FAILURE_KINDS[kind]
    for name, route in _FAILURE_ROUTES.items():
        if outcomes[name] is None:
            continue
        error, message = outcomes[name]
        for _ in range(3):
            with pytest.raises(error) as raised:
                route(n, q, iv)
            assert str(raised.value) == message, (kind, name)


def test_a_repeated_key_of_the_same_plain_objects_skips_the_memo():
    iv, q, n = Interval(0.0, 1.0), 1.3, 4
    plan = _plan(iv, q, n)
    before = _evaluation_plan.cache_info()
    assert all(_plan(iv, q, n) is plan for _ in range(3))
    assert _evaluation_plan.cache_info() == before
    # an equal q of another float object is another key: the memo serves it
    assert _plan(iv, float("1.3"), n) is plan
    assert _evaluation_plan.cache_info().hits == before.hits + 1


def test_keys_called_in_turn_each_get_their_own_plan():
    iv, q, n = Interval(0.0, 1.0), 1.3, 4
    for other in ((Interval(0.1, 1.0), q, n), (Interval(0.0, 1.1), q, n), (iv, 1.4, n), (iv, q, 5)):
        keys = ((iv, q, n), other)  # each differs from the first in one of a, b, q and n
        want = [_evaluation_plan(float(v.a), float(v.b), float(p), m) for v, p, m in keys]
        for _ in range(3):
            for key, plan in zip(keys, want):
                assert _plan(*key) is plan, other


def test_a_replaced_endpoint_gets_the_new_intervals_plan():
    # Interval is frozen, but object.__setattr__ still replaces an endpoint
    q, n = 1.3, 4
    for field, value in (("a", 0.2), ("b", 1.5)):
        iv = Interval(0.0, 1.0)
        first = basis_all_direct(n, 0.5, q, iv).values
        object.__setattr__(iv, field, value)
        fresh = Interval(iv.a, iv.b)
        assert _plan(iv, q, n) is _evaluation_plan(iv.a, iv.b, q, n)
        got = basis_all_direct(n, 0.5, q, iv).values
        assert got.tobytes() == basis_all_direct(n, 0.5, q, fresh).values.tobytes() != first.tobytes()


def test_a_0d_array_key_mutated_in_place_gets_a_fresh_plan():
    x, n = 0.5, 4
    q, b, degree = np.array(1.3), np.array(1.0), np.array(n)
    iv = Interval(0.0, b)
    for _ in range(2):  # the same objects again, once their values have changed
        plan = _evaluation_plan(0.0, float(b), float(q), int(degree))
        assert _plan(iv, q, degree) is plan
        assert (plan.q, plan.n) == (float(q), int(degree))
        want = basis_all_direct(int(degree), x, float(q), Interval(0.0, float(b))).values
        assert basis_all_direct(degree, x, q, iv).values.tobytes() == want.tobytes()
        q[...], b[...], degree[...] = 2.5, 1.5, n + 1


_IV = Interval(0.3, 1.4)
_PLANAR = ControlPolygon(np.array([[0.0, 0.0], [1.0, 2.0]]))  # two points of dimension 2
# every route that takes x, as a function of one x; a route for arrays gets
# it among finite points
_X_ROUTES = {
    "basis_all_direct": lambda x: basis_all_direct(3, x, 1.3, _IV).values,
    "basis_all_recurrence1": lambda x: basis_all_recurrence1(3, x, 1.3, _IV).values,
    "basis_all_recurrence2": lambda x: basis_all_recurrence2(3, x, 1.3, _IV).values,
    "basis_matrix": lambda x: basis_matrix(3, [0.5, x, 0.9], 1.3, _IV),
    "kernel_tables": lambda x: kernel_tables(_IV, x, 1.3, 3),
    "kernel_tables columns": lambda x: kernel_tables(_IV, [0.5, x], 1.3, 3),
    "evaluate_direct": lambda x: evaluate_direct(_PLANAR, x, 1.3, _IV),
    "evaluate_alg1": lambda x: evaluate_alg1(_PLANAR, x, 1.3, _IV).apex,
    "evaluate_alg2": lambda x: evaluate_alg2(_PLANAR, x, 1.3, _IV).apex,
    "intermediate_explicit": lambda x: intermediate_explicit("alg1", 1, 0, x, _PLANAR, 1.3, _IV),
    "rational_basis_all": lambda x: rational_basis_all(1, x, 1.3, _IV, [1.0, 2.0]).values,
    "rational_evaluate": lambda x: rational_evaluate(_PLANAR, [1.0, 2.0], x, 1.3, _IV),
}
# the routes that take an array of x too, one column or value per point
_ARRAY_ROUTES = ("basis_matrix", "kernel_tables", "kernel_tables columns")


# ints beyond the float range are not finite floats either
@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, 10**400, -10**400])
def test_every_route_refuses_a_non_finite_x(x):
    for route in _X_ROUTES.values():
        with pytest.raises(ValueError, match="x must be finite"):
            route(x)


def test_single_x_routes_refuse_a_sequence_of_x():
    # two points match the polygon's dimension, so a broadcast would pass unseen
    for name, route in _X_ROUTES.items():
        if name in _ARRAY_ROUTES:
            continue
        for xs in ([0.5, 0.6], np.array([0.5, 0.6]), [0.5]):
            with pytest.raises(TypeError, match="x must be one point"):
                route(xs)
        assert np.all(np.isfinite(route(np.float32(0.5)))), name  # one point of another type


def test_array_routes_refuse_an_x_of_two_dimensions():
    for xs in ([[0.1, 0.2]], np.full((2, 2), 0.5)):
        for route in (lambda: kernel_tables(_IV, xs, 1.3, 2), lambda: basis_matrix(2, xs, 1.3, _IV)):
            with pytest.raises(ValueError, match="1-D"):
                route()


def test_one_point_of_another_numeric_type_gives_the_bits_of_its_float():
    for x in (np.float32(0.5), np.int64(1), np.array(0.5), True):
        for n, q in ((0, 1.3), (3, 1.3), (6, 0.7), (12, -1.5)):
            want = basis_all_direct(n, float(x), q, _IV).values
            assert basis_all_direct(n, x, q, _IV).values.tobytes() == want.tobytes(), (repr(x), n, q)
