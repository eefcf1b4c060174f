import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from qtrig import (
    q_binomial,
    q_binomial_row,
    q_powers,
    validate_q,
)
from oracles import qbinom_exact, qfact_exact, qint_exact

Q_GRID = [0.5, 1.0, 1.5, 3.0]


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
