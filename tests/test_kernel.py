import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qtrig import (
    Interval,
    InvalidIntervalError,
    certify_interval,
    classical_trig_basis,
    trig_kernel,
    kernel_tables,
    kernel_tables_array,
)
from oracles import d_mp

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
_TABLES = (kernel_tables, lambda iv, x, q, n: kernel_tables_array(iv, [x], q, n))


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
