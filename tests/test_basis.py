import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qtrig import (
    BasisVector,
    FloatRangeError,
    Interval,
    QTrigError,
    InvalidIntervalError,
    SINGULARITY_TOL,
    basis_all_direct,
    basis_all_recurrence1,
    basis_all_recurrence2,
    basis_matrix,
    certify_interval,
    classical_trig_basis,
    rational_basis_matrix,
)
from qtrig.basis import _product_chain
from oracles import basis_direct_mp, basis_row_mp, d_mp, quarter_basis_mp

ROOT2 = math.sqrt(2.0)
Q_GRID = [0.5, 1.0, 1.3, 2.0, 5.0]
INTERVALS = [
    Interval(0.0, math.pi / 2),
    Interval(math.pi / 8, math.pi / 4),
    Interval(math.pi, 3 * math.pi / 2),
]
ALL_METHODS = [basis_all_direct, basis_all_recurrence1, basis_all_recurrence2]
UNIT_ROUNDOFF = 2.0 ** -53


def test_frozen_cubic_row_at_quarter_midpoint(quarter):
    # n=3, q=2, x=pi/4 on [0, pi/2]: (sqrt2/4, 7 sqrt2/16, 7 sqrt2/16, sqrt2/4)
    want = np.array([ROOT2 / 4, 7 * ROOT2 / 16, 7 * ROOT2 / 16, ROOT2 / 4])
    got = basis_all_direct(3, math.pi / 4, 2.0, quarter).values
    assert np.max(np.abs(got - want)) <= 1e-15
    assert abs(got[1] - 0.6187184335382291) <= 1e-15


def test_row_sum_departs_from_one_for_q_not_one(quarter):
    vals = basis_all_direct(3, math.pi / 4, 2.0, quarter).values
    total = float(np.sum(vals))
    assert abs(total - 1.9445436482630057) <= 1e-14
    assert abs(total - 1.0) > 0.5


@pytest.mark.parametrize("q", Q_GRID)
def test_end_functions_are_q_free_on_quarter(quarter, q):
    # on [0, pi/2] the first and last basis functions are cos^n and sin^n
    for n in (1, 2, 3, 5):
        for x in np.linspace(0.05, 1.5, 9):
            values = basis_all_direct(n, x, q, quarter).values
            b0, bn = values[0], values[n]
            assert abs(b0 - math.cos(x) ** n) <= 1e-13
            assert abs(bn - math.sin(x) ** n) <= 1e-13


def test_quarter_closed_form_oracle(quarter):
    # independent route: q^(k^2-nk) [n choose k]_q sin^k cos^(n-k)
    rng = np.random.default_rng(2001)
    for n in range(1, 7):
        for q in Q_GRID:
            for x in rng.uniform(0.0, math.pi / 2, size=8):
                got = basis_all_direct(n, x, q, quarter).values
                want = np.array([float(quarter_basis_mp(n, k, x, q)) for k in range(n + 1)])
                scale = max(1.0, float(np.max(np.abs(want))))
                assert np.max(np.abs(got - want)) <= 1e-12 * scale


@pytest.mark.parametrize("interval", [Interval(math.pi / 8, math.pi / 4), Interval(-0.3, 0.9)])
def test_product_formula_against_high_precision(interval):
    rng = np.random.default_rng(2002)
    for n in range(1, 6):
        for q in (0.5, 1.3, 2.0):
            for x in rng.uniform(interval.a, interval.b, size=4):
                got = basis_all_direct(n, x, q, interval).values
                want = np.array(
                    [float(basis_direct_mp(n, k, x, q, interval.a, interval.b)) for k in range(n + 1)]
                )
                scale = max(1.0, float(np.max(np.abs(want))))
                assert np.max(np.abs(got - want)) <= 1e-12 * scale


@pytest.mark.parametrize("interval", INTERVALS)
@pytest.mark.parametrize("q", Q_GRID)
def test_three_evaluation_routes_agree(interval, q):
    rng = np.random.default_rng(2003)
    for n in range(1, 11):
        for x in rng.uniform(interval.a, interval.b, size=5):
            direct = basis_all_direct(n, x, q, interval).values
            rec1 = basis_all_recurrence1(n, x, q, interval).values
            rec2 = basis_all_recurrence2(n, x, q, interval).values
            scale = max(1.0, float(np.max(np.abs(direct))))
            assert np.max(np.abs(rec1 - direct)) <= 1e-11 * scale
            assert np.max(np.abs(rec2 - direct)) <= 1e-11 * scale


@pytest.mark.parametrize("method", ALL_METHODS)
def test_endpoint_rows_are_exact_unit_vectors(method):
    # shared kernel tables make the endpoint rows bitwise exact, not just close
    for interval in INTERVALS:
        for q in (0.5, 1.0, 1.5, 3.0):
            for n in range(1, 9):
                at_a = method(n, interval.a, q, interval).values
                at_b = method(n, interval.b, q, interval).values
                e0 = np.zeros(n + 1)
                e0[0] = 1.0
                en = np.zeros(n + 1)
                en[n] = 1.0
                assert np.array_equal(at_a, e0)
                assert np.array_equal(at_b, en)


def test_nonnegative_on_quarter_intervals():
    for k in (-1, 0, 1, 2):
        interval = Interval.quarter(k)
        xs = np.linspace(interval.a, interval.b, 200)
        for q in (0.5, 1.0, 1.5, 3.0):
            for n in (1, 3, 6):
                lo = min(float(np.min(basis_all_direct(n, x, q, interval).values)) for x in xs)
                assert lo >= -1e-14


def test_classical_matches_q_one():
    for interval in INTERVALS[:2]:
        xs = np.linspace(interval.a, interval.b, 11)
        for n in range(1, 11):
            for x in xs:
                row = basis_all_direct(n, x, 1.0, interval).values
                for k in range(n + 1):
                    want = classical_trig_basis(n, k, x, interval)
                    assert abs(row[k] - want) <= 1e-13 * max(1.0, abs(want))


def test_classical_frozen_value(quarter):
    # binom(2,1) sin(pi/4) cos(pi/4) = 1
    assert abs(classical_trig_basis(2, 1, math.pi / 4, quarter) - 1.0) <= 1e-15


def test_index_out_of_range_raises(quarter):
    with pytest.raises(IndexError):
        classical_trig_basis(2, 3, 0.5, quarter)


def test_invalid_interval_raises_everywhere():
    bad = Interval(0.0, math.pi)
    for method in ALL_METHODS:
        with pytest.raises(InvalidIntervalError):
            method(2, 0.5, 1.5, bad)
    with pytest.raises(InvalidIntervalError):
        basis_matrix(2, [0.5], 1.5, bad)


def test_basis_vector_shape_validation(quarter):
    with pytest.raises(ValueError):
        BasisVector(degree=2, q=1.0, interval=quarter, x=0.3, values=np.zeros(2))


@settings(max_examples=60)
@given(
    n=st.integers(min_value=1, max_value=6),
    q=st.floats(min_value=0.2, max_value=5.0),
    t=st.floats(min_value=0.0, max_value=1.0),
)
def test_recurrences_agree_with_product_formula_property(n, q, t):
    interval = Interval(math.pi / 8, math.pi / 4)
    x = interval.a + t * interval.length
    direct = basis_all_direct(n, x, q, interval).values
    rec1 = basis_all_recurrence1(n, x, q, interval).values
    rec2 = basis_all_recurrence2(n, x, q, interval).values
    scale = max(1.0, float(np.max(np.abs(direct))))
    assert np.max(np.abs(rec1 - direct)) <= 1e-11 * scale
    assert np.max(np.abs(rec2 - direct)) <= 1e-11 * scale


def test_denominator_product_outside_float_range(quarter):
    # prod_i d(0, pi/2; q^i) = q^(n(n-1)/2) underflows to 0 at (150, 0.9)
    # and overflows to inf at (40, 3) while the q-binomial row stays finite
    assert issubclass(FloatRangeError, QTrigError)
    for n, q in ((150, 0.9), (40, 3.0)):
        with pytest.raises(FloatRangeError, match="is outside float64"):
            basis_all_direct(n, 0.7, q, quarter)
        with pytest.raises(FloatRangeError, match="is outside float64"):
            basis_matrix(n, [0.1, 0.7], q, quarter)
    # at (200, 3) the q-binomial row overflows first; the rational route
    # inherits the error from the basis
    with pytest.raises(FloatRangeError):
        rational_basis_matrix(200, [0.1, 0.7], 3.0, quarter, np.ones(201))


def test_recurrences_stay_finite_where_the_product_underflows(quarter):
    for method in (basis_all_recurrence1, basis_all_recurrence2):
        values = method(150, 0.7, 0.9, quarter).values
        assert np.all(np.isfinite(values))


def test_product_chain_within_first_order_bound():
    # each entry takes at most 2n + 1 roundings: the two prefix products, the
    # q-binomial factor, the quotient and the product of the n denominators
    rng = np.random.default_rng(1201)

    def table(size, spread):
        return (rng.choice([-1.0, 1.0], size) * np.exp(rng.uniform(-spread, spread, size))).tolist()

    for _ in range(300):
        n = int(rng.integers(1, 41))
        row = np.exp(rng.uniform(0.0, 20.0, n + 1)).tolist()
        d_ax, d_xb, d_ab = table(n, 2.3), table(n, 2.3), table(n, 2.3)
        got = _product_chain(row, d_ax, d_xb, d_ab, n, 1.0)
        with mp.workdps(50):
            den = mp.fprod(map(mp.mpf, d_ab))
            for j, value in enumerate(got):
                want = row[j] * mp.fprod(map(mp.mpf, d_ax[:j])) * mp.fprod(map(mp.mpf, d_xb[:n - j])) / den
                assert abs(value - want) <= (2 * n + 1) * UNIT_ROUNDOFF * abs(want), (n, j)


QUARTER_ROUTES = {
    "direct": lambda n, x, q, iv: basis_all_direct(n, x, q, iv).values,
    "matrix": lambda n, x, q, iv: basis_matrix(n, [x], q, iv)[0],
    "recurrence1": lambda n, x, q, iv: basis_all_recurrence1(n, x, q, iv).values,
    "recurrence2": lambda n, x, q, iv: basis_all_recurrence2(n, x, q, iv).values,
}


def _quarter_cases():
    """(n, x, q, interval): the [pi/2, pi] case of 2.4e-2 error, a case whose
    denominator product overflows, then random draws.

    |q| is log-uniform in [0.3, 3], n up to 40 and x anywhere in a quarter
    period; no basis-mass guard, as the B_k are positive there for q > 0.
    One draw in four takes q < 0, where each B_k is still a product.
    """
    half = Interval.quarter(1)
    yield 30, (half.a + half.b) / 2 + 0.1, 3.0, half
    yield 40, 0.7, 3.0, Interval.quarter(0)  # prod d(0, pi/2; 3^i) = 3^780
    rng = np.random.default_rng(1202)
    for i in range(80):
        iv = Interval.quarter(int(rng.integers(-1, 3)))
        q = float(np.exp(rng.uniform(math.log(0.3), math.log(3.0))))
        yield int(rng.integers(1, 41)), float(rng.uniform(iv.a, iv.b)), -q if i % 4 == 3 else q, iv


def test_quarter_period_bases_have_small_relative_error():
    for n, x, q, iv in _quarter_cases():
        try:
            certify = certify_interval(iv, q, n)
        except FloatRangeError:
            continue
        if not certify.valid:  # the certificate's own rule, against the 60-digit kernel
            i = certify.failing_index
            assert abs(d_mp(iv.a, iv.b, mp.mpf(q) ** i, 60)) <= SINGULARITY_TOL * (1 + 1e-9), (n, q, iv)
            continue
        want = basis_row_mp(n, x, q, iv.a, iv.b)
        tol = 8 * (n + 1) * UNIT_ROUNDOFF
        for name, route in QUARTER_ROUTES.items():
            try:
                got = route(n, x, q, iv)
            except FloatRangeError:  # only where the exact denominator product leaves float64
                assert name in ("direct", "matrix")
                with mp.workdps(60):
                    den = abs(mp.fprod(d_mp(iv.a, iv.b, mp.mpf(q) ** i, 60) for i in range(n)))
                    assert not mp.mpf(2) ** -1022 <= den < mp.mpf(2) ** 1024, (name, n, q, iv)
                continue
            err = max(abs((g - w) / w) for g, w in zip(got.tolist(), want))
            assert err <= tol, (name, n, x, q, iv, float(err))
