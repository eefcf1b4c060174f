import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qtrig import (
    BasisVector,
    Interval,
    InvalidIntervalError,
    basis_all_direct,
    basis_all_recurrence1,
    basis_all_recurrence2,
    basis_matrix,
    classical_trig_basis,
)
from oracles import basis_direct_mp, quarter_basis_mp

ROOT2 = math.sqrt(2.0)
Q_GRID = [0.5, 1.0, 1.3, 2.0, 5.0]
INTERVALS = [
    Interval(0.0, math.pi / 2),
    Interval(math.pi / 8, math.pi / 4),
    Interval(math.pi, 3 * math.pi / 2),
]
ALL_METHODS = [basis_all_direct, basis_all_recurrence1, basis_all_recurrence2]


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
