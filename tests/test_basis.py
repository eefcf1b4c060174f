import math
from itertools import accumulate
from operator import mul

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qtrig import (
    BasisVector,
    ControlPolygon,
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
    evaluate_alg1,
    evaluate_alg2,
    rational_basis_all,
    rational_basis_matrix,
)
from qtrig.curve import _product_chain
from conftest import random_curve_case
from oracles import (
    basis_direct_mp,
    basis_row_mp,
    classical_trig_basis,
    d_mp,
    product_chain_reference,
    quarter_basis_mp,
)

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


def test_invalid_interval_raises_everywhere():
    bad = Interval(0.0, math.pi)
    for method in ALL_METHODS:
        with pytest.raises(InvalidIntervalError):
            method(2, 0.5, 1.5, bad)
    with pytest.raises(InvalidIntervalError):
        basis_matrix(2, [0.5], 1.5, bad)


@pytest.mark.parametrize("xs", ["0.5", 0.5, [[0.5, 0.6], [0.7, 0.8]]], ids=["str", "float", "2-D"])
def test_matrix_routes_refuse_an_xs_that_is_not_one_dimensional(xs):
    iv = Interval(0.3, 1.4)
    for route in (lambda: basis_matrix(3, xs, 1.3, iv), lambda: rational_basis_matrix(3, xs, 1.3, iv, np.ones(4))):
        with pytest.raises(ValueError, match=r"^xs must be a 1-D sequence of points, got shape \("):
            route()


def test_basis_vector_shape_validation(quarter):
    with pytest.raises(ValueError):
        BasisVector(degree=2, q=1.0, interval=quarter, x=0.3, values=np.zeros(2))


def test_routes_build_the_basis_vector_the_constructor_builds(quarter):
    # the routes skip the constructor's check of the array they have just made
    for bv in (basis_all_direct(3, 0.4, 1.3, quarter), basis_all_recurrence2(3, 0.4, 1.3, quarter),
               rational_basis_all(3, 0.4, 1.3, quarter, [1.0, 2.0, 2.0, 1.0])):
        built = BasisVector(bv.degree, bv.q, bv.interval, bv.x, bv.values)
        assert type(bv) is BasisVector
        assert list(vars(bv)) == list(vars(built))
        assert repr(bv) == repr(built)


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


@pytest.mark.xfail(strict=True, reason="a running product overflows at this x; the plan's x-free checks cannot see it")
def test_product_formula_where_its_running_products_overflow():
    # at (34, 4) on [-1, 0.2] the basis peaks at 1.7e17 at x = -0.8 and the
    # recurrences match it to 6e-16, but the running products of the kernel
    # tables overflow there while the row and the denominator product stay finite
    n, x, q, iv = 34, -0.8, 4.0, Interval(-1.0, 0.2)
    want = np.array([float(v) for v in basis_row_mp(n, x, q, iv.a, iv.b)])
    got = basis_all_direct(n, x, q, iv).values
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


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
        pa, pb = (list(accumulate(d, mul, initial=1.0)) for d in (d_ax, d_xb))
        got = _product_chain(row, pa, pb, math.prod(d_ab))
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


# float.hex of values taken before the evaluation plan existed.  The sweeps
# are checked against these single-x routes, so bits that moved in every
# route at once would pass tests/test_sweeps.py; they do not pass here.
PINNED_DIRECT = [
    ((3, 0.7, 0.5, Interval.quarter(0)), [
        '0x1.ca287f9a31cf4p-2', '0x1.51a9e5a05ad8dp+1', '0x1.1c69016289a67p+1',
        '0x1.11c70fdf36d16p-2',
    ]),
    ((30, 0.9, 1.3, Interval(0.3, 1.4)), [
        '0x1.38341ae0bff20p-20', '0x1.37acd16dacf1dp-18', '0x1.7a1ba6de6a9dfp-17',
        '0x1.6a2a346870f6ap-16', '0x1.2e304bc22fb32p-15', '0x1.cd75e9c2bf099p-15',
        '0x1.4baf9daf1844ap-14', '0x1.c8e74f2f34948p-14', '0x1.311cda4d48314p-13',
        '0x1.8e45e82380734p-13', '0x1.fef88bcad2d83p-13', '0x1.4371f3916e253p-12',
        '0x1.95334a4327823p-12', '0x1.f7481f7337c96p-12', '0x1.3644b7d49c137p-11',
        '0x1.7c05af0f15008p-11', '0x1.ce7746423c5f7p-11', '0x1.17827107c5dd8p-10',
        '0x1.4f55998a61324p-10', '0x1.8ec0a629f1ccbp-10', '0x1.d50171ffb2dbfp-10',
        '0x1.10028fb3b7332p-9', '0x1.35dc867794d9ap-9', '0x1.589de59d3bc7ap-9',
        '0x1.730fad02ecb4fp-9', '0x1.7e1b9aad9a66dp-9', '0x1.71726e669679bp-9',
        '0x1.45b2eeb9c2b0fp-9', '0x1.f1c6e7f121c91p-10', '0x1.2a39d5d251a70p-10',
        '0x1.adced42f86521p-12',
    ]),
    ((3, 0.6, 1.0, Interval(math.pi / 8, math.pi / 4)), [
        '0x1.c9cf3aa38b327p-4', '0x1.7f5e9dba5e362p-2', '0x1.ac0b7b5e1c780p-2',
        '0x1.3e9e14b7ecedcp-3',
    ]),
    ((3, 2.0, -0.7, Interval.quarter(1)), [
        '0x1.80ef761735b8dp-1', '0x1.1658ac081dabcp-2', '0x1.fd8c9df0c9724p-4',
        '0x1.27304f30a1024p-4',
    ]),
    ((0, 0.3, 2.0, Interval.quarter(0)), [
        '0x1.0000000000000p+0',
    ]),
    ((30, 4.0, 0.8, Interval.quarter(2)), [
        '0x1.834b3f53e17e5p-19', '0x1.614d0525a9c4ap-7', '0x1.ca3a59ade4638p+3',
        '0x1.187cad77b7362p+13', '0x1.6b1e08159f5c5p+21', '0x1.080a009658ff4p+29',
        '0x1.bf8309f4060ebp+35', '0x1.c4ca45e81c981p+41', '0x1.1618a86a21fb6p+47',
        '0x1.a3aef78d655acp+51', '0x1.886d89b145bd3p+55', '0x1.c995a3bf2e7dap+58',
        '0x1.4e3384d806dc3p+61', '0x1.32c31b790c6c4p+63', '0x1.62a357418e978p+64',
        '0x1.02805beb6a5cep+65', '0x1.db68fb17ce8abp+64', '0x1.13a3215a18d1ap+64',
        '0x1.928e8ec2c8b47p+62', '0x1.71709073d1420p+60', '0x1.a8bb6eee87bc2p+57',
        '0x1.3075c1115443dp+54', '0x1.0e73257e8386bp+50', '0x1.2726297b1fe7ap+45',
        '0x1.870cc0b68d434p+39', '0x1.354c9789b2e25p+33', '0x1.1d1bd93448910p+26',
        '0x1.273ab4055de1ap+18', '0x1.4348271557e2bp+9', '0x1.4e23a6c499660p-1',
        '0x1.eb07421594fe6p-13',
    ]),
]


def _hex(values):
    return [v.hex() for v in np.asarray(values).tolist()]


@pytest.mark.parametrize("case, want", PINNED_DIRECT)
def test_direct_basis_bits_are_pinned(case, want):
    n, x, q, interval = case
    assert _hex(basis_all_direct(n, x, q, interval).values) == want


def _product_chain_cases():
    """(n, x, q, interval) of random_curve_case up to degree 30, then n = 0, q = 1 and negative q."""
    rng = np.random.default_rng(1701)
    cases = []
    for _ in range(60):
        poly, x, q, iv = random_curve_case(rng, max_degree=30)
        cases.append((poly.degree, x, q, iv))
    for iv in (Interval.quarter(0), Interval.quarter(-1), Interval(0.3, 1.4), Interval(-1.0, 0.2)):
        # |q| <= 1 keeps every power in the first kernel form; |q| > 1 splits them after q^0
        for q in (1.0, -0.5, -0.9, -1.0, -1.5, -2.5):
            for n in (0, 1, 4, 12):
                cases.append((n, (iv.a + 2 * iv.b) / 3, q, iv))
    return cases


def test_running_products_match_the_accumulated_product_chain_bit_for_bit():
    for n, x, q, iv in _product_chain_cases():
        xs = [iv.a, x, iv.b]  # both endpoints, where a table entry is zero
        matrix = basis_matrix(n, xs, q, iv)
        for point, matrix_row in zip(xs, matrix):
            want = _hex(product_chain_reference(n, point, q, iv))
            assert _hex(basis_all_direct(n, point, q, iv).values) == want, (n, point, q, iv)
            assert _hex(matrix_row) == want, (n, point, q, iv)


def test_tableau_and_recurrence_bits_are_pinned():
    # hex tells -0.0 from 0.0, which np.array_equal does not
    poly = ControlPolygon([[0.0, 0.0], [1.0, 2.0], [2.5, 2.0], [3.0, -0.5], [4.0, 1.0], [5.0, 0.5], [6.0, 2.5]])
    iv = Interval(0.3, 1.4)
    apexes = {1.3: ['0x1.63013d4846a3ep+2', '0x1.70ea84acf47e4p+0'],
              -1.5: ['0x1.5a165b9d5bcb4p+1', '0x1.e6a965e33e203p-1']}
    for q, want in apexes.items():
        for evaluate in (evaluate_alg1, evaluate_alg2):
            assert _hex(evaluate(poly, 0.9, q, iv).apex) == want, (evaluate.__name__, q)
    at_a = ['0x1.0000000000000p+0'] + ['0x0.0p+0'] * 6  # +0.0 where a term is -0.0
    rows = {
        (basis_all_recurrence1, 1.0, 0.6): [
            '-0x1.592bbddd39ed8p-6', '0x1.45f48bfca22aep-2', '-0x1.ffe29d5272632p+0',
            '0x1.48f33398209ffp+3', '0x1.544685f740f17p+1', '-0x1.29098a28d1887p-1',
            '0x1.f1858e7036820p-5'],
        (basis_all_recurrence2, 1.0, 0.6): [
            '-0x1.592bbddd39ed8p-6', '0x1.45f48bfca22afp-2', '-0x1.ffe29d5272633p+0',
            '0x1.48f3339820a00p+3', '0x1.544685f740f19p+1', '-0x1.29098a28d1888p-1',
            '0x1.f1858e7036820p-5'],
        (basis_all_recurrence1, 0.3, 0.6): at_a,
        (basis_all_recurrence2, 0.3, 0.6): at_a,
        (basis_all_recurrence1, 1.0, -1.5): [
            '0x1.bce571c6e11a2p-6', '0x1.1c8e75a7bd2e2p-6', '0x1.05a57cbb99c16p-4',
            '0x1.9d0b7e6a317d8p-5', '0x1.2ed23c473ec48p-3', '0x1.6dc6fdeeb9eb7p-4',
            '0x1.61eb460b2dadcp-2'],
        (basis_all_recurrence2, 1.0, -1.5): [
            '0x1.bce571c6e11a2p-6', '0x1.1c8e75a7bd2e0p-6', '0x1.05a57cbb99c15p-4',
            '0x1.9d0b7e6a317d4p-5', '0x1.2ed23c473ec48p-3', '0x1.6dc6fdeeb9eb1p-4',
            '0x1.61eb460b2dadcp-2'],
    }
    for (recurrence, x, q), want in rows.items():
        assert _hex(recurrence(6, x, q, iv).values) == want, (recurrence.__name__, x, q)


def test_each_recurrence_weights_the_polygon_to_the_apex_of_the_scheme_it_transposes():
    # B_k is the apex of alg1 or alg2 run on the unit control points e_k, so
    # sum_k b_k B_k(x) of recurrence 1 is the alg2 apex and of recurrence 2
    # the alg1 apex, up to rounding in the sum_k |b_k| |B_k| they both add up
    rng = np.random.default_rng(2718)
    for _ in range(400):
        poly, x, q, iv = random_curve_case(rng, max_degree=30)
        for recurrence, evaluate in ((basis_all_recurrence1, evaluate_alg2), (basis_all_recurrence2, evaluate_alg1)):
            values = recurrence(poly.degree, x, q, iv).values
            scale = float(np.max(np.abs(values) @ np.abs(poly.points)))
            err = float(np.max(np.abs(values @ poly.points - evaluate(poly, x, q, iv).apex)))
            assert err <= 1e-13 * scale, (recurrence.__name__, poly.degree, x, q, iv, err / scale)
