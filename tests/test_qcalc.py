import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qtrig import (
    FloatRangeError,
    Interval,
    basis_all_direct,
    q_binomial_row,
    q_powers,
    validate_q,
)
from oracles import qbinom_exact, qfact_exact, qint_exact

Q_GRID = [0.5, 1.0, 1.5, 3.0]


def q_binomial(n, k, q):
    """[n choose k]_q read off the Gaussian triangle; 0 outside 0 <= k <= n."""
    row = q_binomial_row(n, q)  # raises on n < 0
    return row[k] if 0 <= k <= n else 0.0


def q_integer(k, q):
    """[k]_q read off the Gaussian triangle: [k choose 1]_q, and [0]_q = 0."""
    return q_binomial(k, 1, q)


def q_factorial(k, q):
    """[k]_q! = [k]_q [k-1]_q ... [1]_q from the same triangle entries."""
    return math.prod((q_integer(j, q) for j in range(1, k + 1)), start=1.0)


def test_q_integer_frozen_values():
    assert q_binomial_row(3, 2.0)[1] == 7.0
    assert q_integer(3, 2.0) == 7.0
    assert q_integer(0, 1.7) == 0.0
    assert q_integer(1, 1.7) == 1.0
    for k in range(12):
        assert q_integer(k, 1.0) == float(k)


def test_q_factorial_frozen_values():
    assert q_factorial(0, 2.0) == 1.0
    assert q_factorial(1, 2.0) == 1.0
    assert q_factorial(3, 2.0) == 21.0


def test_q_binomial_frozen_values():
    assert q_binomial(4, 2, 2.0) == 35.0
    assert q_binomial_row(3, 2.0) == [1.0, 7.0, 7.0, 1.0]
    for n in range(7):
        assert q_binomial(n, 0, 0.7) == 1.0
        assert q_binomial(n, n, 0.7) == 1.0
    assert q_binomial(4, -1, 2.0) == 0.0
    assert q_binomial(4, 5, 2.0) == 0.0


def test_q_one_equals_ordinary_binomials_exactly():
    # integer q keeps everything in exact float arithmetic, so == is fair
    for n in range(21):
        for k in range(n + 1):
            assert q_binomial(n, k, 1.0) == float(math.comb(n, k))


@pytest.mark.parametrize("qfrac", [Fraction(1, 2), Fraction(2), Fraction(3), Fraction(7, 5)])
def test_against_exact_rational_oracle(qfrac):
    q = float(qfrac)
    for k in range(9):
        assert abs(q_integer(k, q) - float(qint_exact(k, qfrac))) <= 1e-12 * max(1.0, float(qint_exact(k, qfrac)))
        assert abs(q_factorial(k, q) - float(qfact_exact(k, qfrac))) <= 1e-12 * float(qfact_exact(k, qfrac))
    for n in range(9):
        for k in range(n + 1):
            want = float(qbinom_exact(n, k, qfrac))
            assert abs(q_binomial(n, k, q) - want) <= 1e-12 * want


@pytest.mark.parametrize("q", Q_GRID)
def test_pascal_identity(q):
    for n in range(1, 9):
        for k in range(n + 1):
            lhs = q_binomial(n, k, q)
            rhs = q_binomial(n - 1, k, q) + q ** (n - k) * q_binomial(n - 1, k - 1, q)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


@pytest.mark.parametrize("q", Q_GRID)
def test_symmetry_under_k_reflection(q):
    for n in range(9):
        for k in range(n + 1):
            a = q_binomial(n, k, q)
            b = q_binomial(n, n - k, q)
            assert abs(a - b) <= 1e-12 * max(1.0, abs(a))


def test_continuity_at_q_one():
    for eps in (1e-9, -1e-9):
        for n in range(9):
            for k in range(n + 1):
                drift = abs(q_binomial(n, k, 1.0 + eps) - math.comb(n, k))
                assert drift <= 1e-6


@given(
    n=st.integers(min_value=1, max_value=8),
    q=st.floats(min_value=0.05, max_value=5.0, allow_nan=False),
)
def test_pascal_and_symmetry_property(n, q):
    row = q_binomial_row(n, q)
    prev = q_binomial_row(n - 1, q)
    for k in range(n + 1):
        lo = prev[k] if k <= n - 1 else 0.0
        hi = prev[k - 1] if k >= 1 else 0.0
        rhs = lo + q ** (n - k) * hi
        assert abs(row[k] - rhs) <= 1e-10 * max(1.0, abs(row[k]))
        assert abs(row[k] - row[n - k]) <= 1e-10 * max(1.0, abs(row[k]))


def test_validate_q_rejections():
    with pytest.raises(ValueError):
        validate_q(0.0)
    with pytest.raises(ValueError):
        validate_q(float("inf"))
    with pytest.raises(ValueError):
        validate_q(float("nan"))
    for q in (10**400, -10**400):  # ints beyond the float range
        with pytest.raises(ValueError, match="q must be finite and nonzero"):
            validate_q(q)
    assert validate_q(-0.5) == -0.5


def test_q_integer_rejects_negative_order():
    with pytest.raises(ValueError):
        q_binomial_row(-1, 2.0)
    with pytest.raises(ValueError):
        q_integer(-1, 2.0)


def test_binomial_table_lookup():
    # the rows of the Gaussian triangle up to degree 4, one row per degree
    rows = [q_binomial_row(m, 2.0) for m in range(5)]
    assert rows[4][2] == 35.0
    assert rows[3][1] == 7.0
    assert [len(r) for r in rows] == [1, 2, 3, 4, 5]
    assert q_binomial(2, -1, 2.0) == 0.0
    assert q_binomial(2, 3, 2.0) == 0.0


def test_q_powers_running_product():
    got = q_powers(3.0, 5)
    assert got == [1.0, 3.0, 9.0, 27.0, 81.0]
    assert q_powers(2.0, 1) == [1.0]


def test_row_outside_float_range_raises():
    # q ** (m - k) itself overflows at (700, 3); at (60, 3) the entries near
    # the middle pass 1e308 while every power stays finite
    for n, q in ((700, 3.0), (700, -3.0), (60, 3.0)):
        for _ in range(2):
            with pytest.raises(FloatRangeError, match=f"q-binomial row {n} "):
                q_binomial_row(n, q)
    assert all(map(math.isfinite, q_binomial_row(40, 3.0)))


def test_changing_a_returned_row_changes_no_later_row_or_basis():
    interval = Interval(0.0, math.pi / 2)
    row = q_binomial_row(4, 1.3)
    want_row = list(row)
    want_basis = basis_all_direct(4, 0.6, 1.3, interval).values.copy()
    row[2] = -1.0
    row.append(99.0)
    assert q_binomial_row(4, 1.3) == want_row
    assert np.array_equal(basis_all_direct(4, 0.6, 1.3, interval).values, want_basis)


@pytest.mark.parametrize("order", [1, -1])
def test_equal_keys_of_other_types_give_the_same_plain_float_row(order):
    # 2, 2.0 and np.float64(2.0) give one row: whichever comes first, every
    # caller gets the plain floats the loop makes
    rows = [q_binomial_row(n, q) for n, q in [(5, 2), (5, 2.0), (np.int64(5), np.float64(2.0))][::order]]
    want = [float(qbinom_exact(5, k, Fraction(2))) for k in range(6)]
    for row in rows:
        assert all(type(v) is float for v in row)
        assert [v.hex() for v in row] == [v.hex() for v in want]
