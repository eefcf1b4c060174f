import dataclasses
import math
import tracemalloc
from itertools import combinations

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qtrig import (
    CollocationMatrix,
    ControlPolygon,
    Interval,
    MinorCapExceededError,
    SingularDenominatorError,
    basis_all_direct,
    chord_distance_profile,
    collocation,
    convex_hull,
    minor_count,
    point_in_hull,
    sample_curve,
    sign_changes_seq,
    total_positivity_check,
)
from qtrig.export import render_svg
from qtrig.kernel import _finite_input
from qtrig.shape import (
    _TILE_MEMO_SIZE, MINOR_BLOCK, MINOR_CAP, QUARTER_PERIOD_VANDERMONDE, _refuse_over_cap, _shape_tiles,
)
from oracles import classical_trig_basis, monomial_tp_reference, total_positivity_reference

Q_GRID = [0.5, 1.0, 1.5, 3.0]


def _interior_points(interval, count=6):
    return interval.a + interval.length * (np.arange(1, count + 1) / (count + 1))


def test_collocation_matches_the_basis(quarter):
    pts = _interior_points(quarter, 4)
    mat = collocation("quantum", 3, 2.0, quarter, pts)
    assert mat.family == "quantum"
    assert mat.entries.shape == (4, 4)
    for j, x in enumerate(pts):
        want = basis_all_direct(3, float(x), 2.0, quarter).values
        assert np.array_equal(mat.entries[:, j], want)
    cls = collocation("classical", 2, 1.0, quarter, pts)
    assert cls.entries[1, 0] == classical_trig_basis(2, 1, float(pts[0]), quarter)


def test_collocation_degree_one_determinant(quarter):
    # entries [[cos x0, cos x1], [sin x0, sin x1]]; det = sin(x1 - x0)
    x0, x1 = 0.3, 1.1
    mat = collocation("quantum", 1, 1.0, quarter, [x0, x1])
    want = np.array([[math.cos(x0), math.cos(x1)], [math.sin(x0), math.sin(x1)]])
    assert np.max(np.abs(mat.entries - want)) <= 1e-15
    det = float(np.linalg.det(mat.entries))
    assert abs(det - math.sin(x1 - x0)) <= 1e-15


def test_collocation_input_validation(quarter):
    with pytest.raises(ValueError):
        collocation("fourier", 2, 1.0, quarter, [0.3, 0.6])
    with pytest.raises(ValueError):
        collocation("quantum", 2, 1.0, quarter, [0.6, 0.3])
    with pytest.raises(ValueError):
        collocation("quantum", 2, 1.0, quarter, [0.3, 0.3])
    with pytest.raises(ValueError):
        collocation("quantum", 2, 1.0, quarter, [-0.5, 0.3])
    with pytest.raises(ValueError):
        collocation("rational", 2, 1.0, quarter, [0.3, 0.6])
    # NaN fails neither the order nor the bounds test, so finiteness is checked first
    for bad in (math.nan, math.inf, 10**400):
        with pytest.raises(ValueError, match="points must be finite"):
            collocation("quantum", 3, 1.3, Interval(0.3, 1.4), [0.5, bad, 0.9])


def test_minor_count_small_cases():
    # 2x2: four 1x1 and one 2x2
    assert minor_count(2, 2) == 5
    assert minor_count(1, 1) == 1
    assert minor_count(2, 3) == 2 * 3 + 1 * 3
    assert minor_count(4, 4) == 16 + 36 + 16 + 1
    for rows in range(-1, 9):
        for cols in range(-1, 9):
            per_order = sum(math.comb(rows, r) * math.comb(cols, r) for r in range(1, min(rows, cols) + 1))
            assert minor_count(rows, cols) == per_order


def test_tp_check_hand_matrices():
    ok = total_positivity_check(np.array([[1.0, 1.0], [0.0, 1.0]]))
    assert ok.is_tp
    assert ok.minors_checked == 5
    assert ok.witness is None

    bad = total_positivity_check(np.array([[1.0, 2.0], [3.0, 1.0]]))
    assert not bad.is_tp
    assert abs(bad.worst_minor - (-5.0)) <= 1e-12
    assert bad.witness == ((0, 1), (0, 1))
    assert bad.worst_scaled < -0.1


def test_tp_check_rejects_non_finite_entries():
    # a NaN scaled minor never compares below the running worst, so these
    # matrices would pass; the 2x2 minor of the second is -inf
    for bad in ([[math.nan, 1.0], [1.0, 2.0]], [[1.0, math.inf], [0.5, 2.0]]):
        with pytest.raises(ValueError, match="finite"):
            total_positivity_check(np.array(bad))
    with pytest.raises(ValueError, match="matrix entries must be finite"):  # an int beyond the float range
        total_positivity_check([[10**400]])


def test_tp_check_rejects_unusable_tolerances():
    # a NaN tolerance failed every matrix and an infinite one passed any
    for tolerance in (math.nan, math.inf, -1e-9, 10**400):
        with pytest.raises(ValueError, match="tolerance"):
            total_positivity_check(np.eye(2), tolerance)
    # an int within the float range is reported as the float it compares as
    for tolerance in (0, 10**300):
        got = total_positivity_check([[1.0]], tolerance).tolerance
        assert type(got) is float and got == float(tolerance)


def test_tp_check_of_empty_matrices():
    for empty in (np.zeros((0, 3)), np.zeros((2, 0))):
        with pytest.raises(ValueError, match="no minors"):
            total_positivity_check(empty)


def test_tp_check_of_subnormal_minors(quarter):
    # w_2 = 1.7e308 pushes R_0 into the subnormal range and R_1 is zero;
    # np.linalg.det flags a division by zero on some of these zero minors
    pts = [quarter.b * (j + 1) / 5 for j in range(4)]
    mat = collocation("rational", 2, 1.0, quarter, pts, weights=[1.0, 0.0, 1.7e308])
    rep = total_positivity_check(mat)
    assert rep.is_tp
    # the zero weight keeps it off the quarter-period route
    assert rep.route == "exhaustive"
    _assert_same_report(rep, total_positivity_reference(mat.entries))


def test_rational_collocation_certifies_mixed_weights(quarter):
    # at q = 1, w = (1, -3, 1) gives 1 - 3 sin(2x): positive at the two
    # endpoints, zero in between, so only the interval certificate sees it
    with pytest.raises(SingularDenominatorError):
        collocation("rational", 2, 1.0, quarter, [0.0, math.pi / 2], weights=[1.0, -3.0, 1.0])


def test_collocation_takes_weights_for_the_rational_family_only(quarter):
    pts = [0.2, 0.5]
    with pytest.raises(ValueError, match="weights are for the rational family only"):
        collocation("classical", 3, 1.5, quarter, pts, weights=[1, 2])
    with pytest.raises(ValueError, match="weights are for the rational family only"):
        collocation("quantum", 3, 1.5, quarter, pts, weights=[1, -1, 1, 1])  # would take the structural route
    with pytest.raises(ValueError, match="needs 4 weights, got None"):
        collocation("rational", 3, 1.5, quarter, pts)


def _assert_same_report(got, want):
    assert (got.is_tp, got.minors_checked, got.witness, got.route) == (
        want.is_tp, want.minors_checked, want.witness, want.route)
    for field in ("worst_minor", "worst_scaled", "tolerance"):  # as float bits, -0.0 included
        assert getattr(got, field).hex() == getattr(want, field).hex(), field


def test_tp_check_matches_the_minor_loop_on_random_matrices():
    rng = np.random.default_rng(9001)
    # minors of entries near 1e300 or 1e-300 leave float range, and the
    # batched check must take them again with rescaled rows as the loop does
    with np.errstate(over="ignore", invalid="ignore"):
        for rows in range(1, 8):
            for cols in range(1, 8):
                for span, tolerance in ((0, 1e-9), (3, 0.5), (300, 1e-9)):
                    exponents = rng.uniform(-span, span, size=(rows, cols))
                    signs = rng.choice([-1.0, 1.0, 1.0], size=(rows, cols))
                    entries = signs * 10.0 ** exponents
                    _assert_same_report(total_positivity_check(entries, tolerance),
                                        total_positivity_reference(entries, tolerance))


def test_tp_check_matches_the_minor_loop_on_degenerate_matrices():
    rng = np.random.default_rng(9002)
    base = rng.uniform(-1.0, 1.0, size=(5, 6))
    zero_row, zero_col = base.copy(), base.copy()
    zero_row[2] = 0.0
    zero_col[:, 3] = 0.0
    tied = np.repeat(np.array([[1.0, 2.0], [3.0, 1.0], [2.0, 0.5]]), 3, axis=1)  # equal worst minors
    cases = [
        zero_row, zero_col, np.zeros((3, 4)), tied, tied.T,
        base * 1e-310,  # subnormal entries
        np.array([[5e-324, 1.0], [1.0, 5e-324]]),
        # wide and tall: more subsets than one listing holds, and stacks across row sets
        rng.uniform(-1.0, 1.0, size=(2, 200)), rng.uniform(-1.0, 1.0, size=(200, 2)),
        rng.uniform(0.0, 1.0, size=(3, 34)), rng.uniform(0.0, 1.0, size=(34, 3)),
    ]
    for entries in cases:
        _assert_same_report(total_positivity_check(entries), total_positivity_reference(entries))
    assert total_positivity_check(tied).witness == ((0, 2), (0, 3))  # the first of nine ties


@pytest.mark.parametrize("family", ["quantum", "classical", "rational"])
def test_tp_check_matches_the_minor_loop_on_collocation_matrices(family):
    rng = np.random.default_rng(9003)
    intervals = [Interval.quarter(k) for k in (-1, 0, 1, 2)] + [Interval(0.3, 1.5), Interval(-0.4, 0.9)]
    for interval in intervals:
        for n, q in ((2, 0.5), (4, 1.7), (5, 3.0)):
            weights = rng.uniform(0.5, 2.0, size=n + 1) if family == "rational" else None
            for points in (_interior_points(interval, n + 2), np.linspace(interval.a, interval.b, n + 1)):
                mat = collocation(family, n, q, interval, points, weights=weights)
                want = total_positivity_reference(mat.entries)
                _assert_same_report(total_positivity_check(mat.entries), want)
                rep = total_positivity_check(mat)
                if interval.quarter_period:
                    assert (rep.route, rep.is_tp) == (QUARTER_PERIOD_VANDERMONDE, want.is_tp)
                else:
                    _assert_same_report(rep, want)


def test_tp_check_memory_is_bounded_by_the_block():
    # 982,100 minors, nearly all 2x2 of a 2 x 1400 matrix: one stack would take 31 MB
    entries = np.random.default_rng(9004).uniform(0.1, 1.0, size=(2, 1400))
    tracemalloc.start()
    try:
        rep = total_positivity_check(entries)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.minors_checked == 982_100
    assert peak < 4 * 2 ** 20


def test_tp_check_refuses_oversized_matrices():
    with pytest.raises(MinorCapExceededError):
        total_positivity_check(np.zeros((20, 20)))
    # and the count itself is what trips it
    assert minor_count(20, 20) > 1_000_000


def test_quarter_period_route_decides_a_collocation_over_the_cap():
    # the collocation of `qtrig check tp --degree 20 --q 1.5 --interval 0,pi/2 --grid 30`:
    # C(51, 21) - 1 minors, which only the exhaustive route would enumerate
    interval = Interval(0.0, math.pi / 2)
    pts = [interval.a + interval.length * (j + 1) / 31 for j in range(30)]
    mat = collocation("quantum", 20, 1.5, interval, pts)
    rep = total_positivity_check(mat)
    assert (rep.route, rep.is_tp, rep.minors_checked) == (QUARTER_PERIOD_VANDERMONDE, True, 0)
    with pytest.raises(MinorCapExceededError):
        total_positivity_check(mat.entries)


def test_cap_refuses_exactly_the_matrices_over_it():
    # from 12 x 12 on the count is not taken, so the bound must hold there
    assert minor_count(11, 11) <= MINOR_CAP < minor_count(12, 12)
    for rows in range(0, 30):
        for cols in list(range(0, 30)) + [999_999, 1_000_000, 4_000_000]:
            count = minor_count(rows, cols)
            if count <= MINOR_CAP:
                assert _refuse_over_cap(rows, cols) == count
                continue
            with pytest.raises(MinorCapExceededError) as info:
                _refuse_over_cap(rows, cols)
            assert info.value.count in (None, count)
            assert (info.value.count is None) == (min(rows, cols) >= 12)


def test_monomial_reference_is_tp():
    rep = monomial_tp_reference(3, [0.0, 0.5, 1.25, 2.0])
    assert rep.is_tp
    with pytest.raises(ValueError):
        monomial_tp_reference(5, [0.0, 1.0])
    with pytest.raises(ValueError):
        monomial_tp_reference(2, [-1.0, 1.0])
    with pytest.raises(ValueError):
        monomial_tp_reference(2, list(np.linspace(0, 1, 7)))


@pytest.mark.parametrize("q", Q_GRID)
@pytest.mark.parametrize("k", [-1, 0, 1, 2])
def test_quantum_collocation_tp_on_quarter_intervals(q, k):
    interval = Interval.quarter(k)
    mat = collocation("quantum", 3, q, interval, _interior_points(interval))
    rep = total_positivity_check(mat.entries)
    assert rep.is_tp, f"q={q} k={k}: worst scaled minor {rep.worst_scaled}"
    assert rep.worst_scaled >= -1e-9
    assert total_positivity_check(mat).route == QUARTER_PERIOD_VANDERMONDE


def test_rational_collocation_tp_and_column_sums(quarter):
    rng = np.random.default_rng(5001)
    for q in Q_GRID:
        w = rng.uniform(0.2, 3.0, size=4)
        mat = collocation("rational", 3, q, quarter, _interior_points(quarter), weights=w)
        sums = mat.entries.sum(axis=0)
        assert np.max(np.abs(sums - 1.0)) <= 1e-12
        assert total_positivity_check(mat).is_tp


def test_negative_q_breaks_total_positivity(quarter):
    # at q = -0.5 the middle basis function dips negative, so 1x1 minors fail
    mat = collocation("quantum", 2, -0.5, quarter, _interior_points(quarter))
    rep = total_positivity_check(mat)
    assert not rep.is_tp
    assert rep.worst_scaled < -0.1
    assert rep.witness is not None
    assert rep.route == "exhaustive"
    _assert_same_report(rep, total_positivity_reference(mat.entries))


def test_tp_check_degree_9_on_12_points():
    # the collocation of `qtrig check tp --degree 9 --q 1.5 --interval 0,pi/2
    # --grid 12`, checked minor by minor; the witness, rows 0-9 x columns
    # 1-10, is 6.9575302599294655e-16 at 50 digits
    interval = Interval(0.0, math.pi / 2)
    pts = [interval.a + interval.length * (j + 1) / 13 for j in range(12)]
    mat = collocation("quantum", 9, 1.5, interval, pts)
    rep = total_positivity_check(mat.entries)
    assert rep.is_tp and rep.minors_checked == 646645
    assert (rep.worst_minor, rep.worst_scaled) == (6.957530259919386e-16, 8.224818273213061e-13)
    assert total_positivity_check(mat).route == QUARTER_PERIOD_VANDERMONDE


FAMILIES = ["quantum", "classical", "rational"]


def _collocate(family, n, q, interval, points, rng):
    weights = rng.uniform(0.2, 3.0, size=n + 1) if family == "rational" else None
    return collocation(family, n, q, interval, points, weights=weights)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("k", [-1, 0, 1, 2])
def test_quarter_period_route_agrees_with_the_minors(family, k):
    rng = np.random.default_rng(9100 + k)
    interval = Interval.quarter(k)
    for q in sorted(set(Q_GRID) | {1.0}):
        for n in (1, 3, 6):
            for points in (_interior_points(interval, n + 2), np.linspace(interval.a, interval.b, n + 2)):
                mat = _collocate(family, n, q, interval, points, rng)
                rep = total_positivity_check(mat)
                assert rep.route == QUARTER_PERIOD_VANDERMONDE
                assert (rep.is_tp, rep.minors_checked, rep.witness) == (True, 0, None)
                assert rep.worst_minor is None and rep.worst_scaled is None
                assert total_positivity_check(mat.entries).is_tp


@settings(max_examples=80, deadline=None)
@given(
    family=st.sampled_from(FAMILIES),
    k=st.integers(min_value=-1, max_value=2),
    n=st.integers(min_value=0, max_value=6),
    q=st.floats(min_value=0.2, max_value=5.0),
    fractions=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=8, unique=True),
    seed=st.integers(min_value=0, max_value=2 ** 16),
)
def test_quarter_period_route_verdict_matches_the_exhaustive_one(family, k, n, q, fractions, seed):
    interval = Interval.quarter(k)
    points = np.unique(np.clip(interval.a + interval.length * np.array(fractions), interval.a, interval.b))
    mat = _collocate(family, n, q, interval, points, np.random.default_rng(seed))
    rep, want = total_positivity_check(mat), total_positivity_check(mat.entries)
    assert rep.is_tp == want.is_tp
    if rep.route == "exhaustive":  # points too close to an endpoint for the factorisation
        _assert_same_report(rep, want)


def test_quarter_period_route_falls_back_to_the_minors(quarter):
    off_grid = Interval(0.3, 1.5)
    pts = _interior_points(quarter)
    mat = collocation("quantum", 3, 1.5, quarter, pts)
    hand_built = CollocationMatrix(entries=mat.entries[:, ::-1], points=pts[::-1], family="quantum")
    cases = [
        collocation("quantum", 4, 0.5, off_grid, _interior_points(off_grid)),  # as `qtrig check tp` exits 4
        mat.entries,  # a plain array
        CollocationMatrix(entries=mat.entries, points=mat.points, family="quantum"),  # built by hand
        hand_built,  # points that decrease
        # at q = 1000 the float endpoint -pi/2, off the grid by 6e-17, moves
        # the kernel zeros across the whole interval: entries reach -5.8e21
        collocation("quantum", 8, 1000.0, Interval.quarter(-1), _interior_points(Interval.quarter(-1))),
    ]
    for matrix in cases:
        entries = matrix.entries if isinstance(matrix, CollocationMatrix) else matrix
        rep = total_positivity_check(matrix)
        assert rep.route == "exhaustive"
        _assert_same_report(rep, total_positivity_reference(entries))
    assert not total_positivity_check(cases[0]).is_tp
    assert not total_positivity_check(cases[3]).is_tp
    assert not total_positivity_check(cases[-1]).is_tp


def test_a_q_whose_shift_overflows_takes_the_minors():
    # at q = 1e-300 the shift's expm1((n - 1) |log q|) overflows: no factorisation is claimed
    iv = Interval.quarter(-1)
    mat = collocation("quantum", 3, 1e-300, iv, [-1.2, -0.8, -0.4])
    assert mat.route == "exhaustive"
    rep = total_positivity_check(mat)
    assert rep.is_tp and rep.minors_checked == 34
    _assert_same_report(rep, total_positivity_reference(mat.entries))


def test_only_collocation_sets_the_quarter_period_route(quarter):
    given = np.array([0.3, 0.6, 0.9, 1.2])
    mat = collocation("quantum", 3, 1.5, quarter, given)
    assert total_positivity_check(mat).route == QUARTER_PERIOD_VANDERMONDE
    given[1] = 2.0  # the matrix keeps a read-only copy of the points its route was decided on
    assert mat.points.tolist() == [0.3, 0.6, 0.9, 1.2]
    with pytest.raises(ValueError, match="read-only"):
        mat.points[1] = 2.0
    negated = dataclasses.replace(mat, entries=-mat.entries)  # a copy keeps no verdict
    rep = total_positivity_check(negated)
    assert rep.route == "exhaustive" and not rep.is_tp
    _assert_same_report(rep, total_positivity_reference(negated.entries))
    with pytest.raises(ValueError, match="read-only"):
        mat.entries[0, 0] = -1.0
    hand_built = CollocationMatrix(entries=[[1, -5], [2, 3]], points=[0.2, 0.9], family="quantum")
    assert not total_positivity_check(hand_built).is_tp
    for removed in ({"interval": quarter}, {"q": 1.5}, {"weights": None}, {"route": QUARTER_PERIOD_VANDERMONDE}):
        with pytest.raises(TypeError):
            CollocationMatrix(entries=hand_built.entries, points=hand_built.points, family="quantum", **removed)


def test_tp_survives_reparametrization(quarter):
    # composing with an increasing map is just collocation at the image points
    base = np.linspace(0.1, 1.4, 5)
    warped = np.sort(np.tanh(base) * quarter.b * 0.95)
    rep = total_positivity_check(collocation("quantum", 3, 1.5, quarter, warped))
    assert rep.is_tp


def test_tp_survives_positive_column_scaling(quarter):
    pts = _interior_points(quarter, 5)
    mat = collocation("quantum", 3, 2.0, quarter, pts)
    gains = 2.0 + np.sin(pts)
    scaled = mat.entries * gains[None, :]
    assert total_positivity_check(scaled).is_tp


def test_tp_survives_left_multiplication_by_tp_matrix(quarter):
    pts = _interior_points(quarter, 4)
    mat = collocation("quantum", 3, 2.0, quarter, pts)
    lower_ones = np.tril(np.ones((4, 4)))  # itself totally positive
    assert total_positivity_check(np.tril(np.ones((4, 4)))).is_tp
    assert total_positivity_check(np.diag([0.5, 1.0, 2.0, 3.0]) @ mat.entries).is_tp
    assert total_positivity_check(lower_ones @ mat.entries).is_tp


def test_sign_changes_sequences():
    assert sign_changes_seq([1.0, -2.0, 3.0]) == 2
    assert sign_changes_seq([1.0, 1e-15, -1.0]) == 1
    assert sign_changes_seq([0.0, 0.0, 0.0]) == 0
    assert sign_changes_seq([]) == 0
    assert sign_changes_seq([4.0]) == 0
    alternating = [(-1.0) ** i for i in range(8)]
    assert sign_changes_seq(alternating) == 7
    assert sign_changes_seq(1e-9 * np.array(alternating)) == 7  # scale free
    assert sign_changes_seq(np.array([1.0, -0.5, 0.5])) == 2


def test_sign_changes_reject_non_finite_entries():
    # a NaN or inf entry turned the relative zero floor into NaN or inf,
    # which dropped every entry and reported 0 changes
    for bad in (math.nan, math.inf, -math.inf, 10**400):
        with pytest.raises(ValueError, match="finite"):
            sign_changes_seq([1.0, -1.0, bad])


def test_sign_changes_of_sampled_function():
    xs = np.linspace(0.0, 2 * math.pi, 512)
    assert sign_changes_seq(np.sin(2 * xs)) == 3


def test_convex_hull_shapes():
    square_plus = np.array([[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5], [0.2, 0.7]], dtype=float)
    hull = convex_hull(square_plus)
    assert hull.shape == (4, 2)
    assert set(map(tuple, hull.tolist())) == {(0, 0), (1, 0), (1, 1), (0, 1)}
    collinear = convex_hull(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]))
    assert np.array_equal(collinear, np.array([[0.0, 0.0], [2.0, 2.0]]))
    with pytest.raises(ValueError):
        convex_hull(np.zeros((3, 3)))


def test_convex_hull_outside_float_range():
    # cross products of these coordinates underflow to 0 or overflow to inf
    tiny = np.array([[0.0, 0.0], [1e-310, 0.0], [0.0, 1e-310]])
    hull = convex_hull(tiny)
    assert hull.tolist() == tiny.tolist()  # the input points, bit for bit
    assert point_in_hull([1e-311, 1e-311], hull)
    huge = 1e300 * np.array([[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5], [0.2, 0.7]])
    hull = convex_hull(huge)
    assert hull.tolist() == huge[:4].tolist()
    assert point_in_hull(huge[4:], hull).all()


def test_point_in_hull_predicate():
    hull = convex_hull(np.array([[0, 0], [2, 0], [2, 2], [0, 2]], dtype=float))
    assert point_in_hull([1.0, 1.0], hull)
    assert point_in_hull([0.0, 0.0], hull)  # vertices count as inside
    assert point_in_hull([2.0, 1.0], hull)  # edges too
    assert not point_in_hull([2.1, 1.0], hull)
    assert not point_in_hull([-0.01, 1.0], hull)
    segment = convex_hull(np.array([[0.0, 0.0], [1.0, 1.0]]))
    assert point_in_hull([0.5, 0.5], segment)
    assert not point_in_hull([0.5, 0.6], segment)
    single = np.array([[1.0, 1.0]])
    assert point_in_hull([1.0, 1.0], single)
    assert not point_in_hull([1.1, 1.0], single)
    # the same verdicts at 1e300, where squares and cross products overflow
    cases = ((hull, [1.0, 1.0], [2.1, 1.0]), (segment, [0.5, 0.5], [0.5, 0.6]),
             (single, [1.0, 1.0], [1.1, 1.0]))
    for shape, inside, outside in cases:
        assert point_in_hull(1e300 * np.array(inside), 1e300 * shape)
        assert not point_in_hull(1e300 * np.array(outside), 1e300 * shape)


def test_hull_functions_reject_non_finite_points():
    triangle = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="finite"):
        convex_hull(np.vstack([triangle, [math.nan, 0.0]]))
    with pytest.raises(ValueError, match="finite"):
        point_in_hull([math.nan, math.nan], triangle)
    with pytest.raises(ValueError, match="finite"):
        point_in_hull(np.array([[0.1, 0.1], [math.inf, 0.0]]), triangle)
    with pytest.raises(ValueError, match="finite"):
        point_in_hull([0.1, 0.1], np.vstack([triangle[:2], [math.nan, 1.0]]))
    # ints beyond the float range
    with pytest.raises(ValueError, match="hull points must be finite"):
        convex_hull([[0, 0], [10**400, 0], [0, 1]])
    with pytest.raises(ValueError, match="points and hull vertices must be finite"):
        point_in_hull([10**400, 0], triangle)
    with pytest.raises(ValueError, match="points and hull vertices must be finite"):
        point_in_hull([0.1, 0.1], [[0, 0], [-10**400, 0], [0, 1]])


def test_point_in_hull_array_matches_per_point():
    rng = np.random.default_rng(5001)
    for size in range(1, 9):
        for _ in range(10):
            hull = convex_hull(rng.uniform(-2.0, 2.0, size=(size, 2)))
            edges = 0.5 * (hull + np.roll(hull, 1, axis=0))
            pts = np.concatenate([rng.uniform(-3.0, 3.0, size=(60, 2)), hull, edges])
            verdicts = point_in_hull(pts, hull)
            assert verdicts.shape == (len(pts),)
            assert verdicts.tolist() == [point_in_hull(p, hull) for p in pts]


@settings(max_examples=60)
@given(
    seed=st.integers(min_value=0, max_value=2 ** 16),
    coeffs=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=3, max_size=6),
)
def test_convex_combinations_stay_inside_hull(seed, coeffs):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-5.0, 5.0, size=(len(coeffs), 2))
    hull = convex_hull(pts)
    lam = np.array(coeffs) + 1e-9  # keep the total positive
    combo = (lam / lam.sum()) @ pts
    assert point_in_hull(combo, hull)


def _arch_samples(dim):
    return sample_curve(ControlPolygon(np.arange(3.0 * dim).reshape(3, dim)), 2.0, Interval.quarter(0), 8)


@pytest.mark.parametrize("call, message", [
    (lambda: collocation("quantum", 3, 1.5, Interval.quarter(0), []), "points must be a non-empty 1-d array"),
    (lambda: total_positivity_check(np.ones(3)), "expected a 2-d matrix, got shape (3,)"),
    (lambda: point_in_hull([0.0, 0.0], np.ones((3, 3))), "expected (h, 2) hull, got shape (3, 3)"),
    (lambda: chord_distance_profile(_arch_samples(2), [0.0], [4.0, 5.0]), "chord endpoints must be 2-d points"),
    (lambda: chord_distance_profile(_arch_samples(1), [0.0, 0.0], [2.0, 0.0]),
     "chord profile needs 2-d samples, got shape (8, 1)"),
    (lambda: render_svg([]), "nothing to draw"),
])
def test_shape_checks_refuse_malformed_input(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert info.type is ValueError and str(info.value) == message


def test_collocation_matrix_dataclass_shape(quarter):
    pts = np.array([0.2, 0.9])
    mat = CollocationMatrix(entries=np.ones((3, 2)), points=pts, family="quantum")
    assert mat.entries.shape == (3, 2)


@pytest.mark.parametrize("factor", [1e200, 1e-200])
def test_tp_check_sees_negative_minors_outside_float_range(factor):
    # det [[1, 2], [2, 1]] = -3: times 1e200 the determinant and the scale
    # overflow, times 1e-200 they underflow, and neither may pass as >= 0
    entries = np.array([[1.0, 2.0], [2.0, 1.0]]) * factor
    rep = total_positivity_check(entries)
    assert not rep.is_tp
    rows, cols = rep.witness
    sub = [[entries[i, j] for j in cols] for i in rows]
    with mp.workdps(50):
        exact = mp.det(mp.matrix(sub))
        scale = mp.fprod(max(abs(mp.mpf(v)) for v in row) for row in sub)
        assert exact < 0 and rep.worst_scaled < 0 and math.copysign(1.0, rep.worst_minor) == -1.0
        assert abs(rep.worst_scaled - exact / scale) <= 1e-15
    _assert_same_report(rep, total_positivity_reference(entries))


def test_tp_check_rescales_out_of_range_minors_in_every_block_as_the_loop_does():
    # 2 x 100 has C(100, 2) = 4950 minors of order 2, more than one stack holds;
    # near 1e+-300 most of them overflow or underflow, in both stacks
    assert math.comb(100, 2) > MINOR_BLOCK // 4
    rng = np.random.default_rng(9004)
    for sign in (1.0, -1.0):
        exponents = sign * rng.uniform(150.0, 300.0, size=(2, 100))
        signs = rng.choice([-1.0, 1.0, 1.0, 1.0], size=(2, 100))
        entries = signs * 10.0 ** exponents
        _assert_same_report(total_positivity_check(entries), total_positivity_reference(entries))


def test_tp_check_tiles_match_the_minor_loop_in_every_regime():
    # order r goes in tiles of row sets x column sets of at most MINOR_BLOCK // r**2
    # minors each; every regime must give the loop's report
    rng = np.random.default_rng(9005)
    one_tile = rng.uniform(-1.0, 1.0, size=(5, 6))  # every order in one tile
    tall = rng.uniform(0.0, 1.0, size=(200, 2))     # several row-set tiles holding every column set
    wide = rng.uniform(0.0, 1.0, size=(3, 60))      # one row set per tile, runs of column sets
    square = rng.uniform(-1.0, 1.0, size=(6, 6))    # row and column sets from one subset map
    assert all(math.comb(5, r) * math.comb(6, r) <= MINOR_BLOCK // r ** 2 for r in range(1, 6))
    assert math.comb(200, 2) > MINOR_BLOCK // 4 and math.comb(60, 3) > MINOR_BLOCK // 9
    # rank ranges that are unranked, not sliced from a listing: the tall
    # matrix's row sets at r = 2, the wide one's column sets at r = 3
    assert 2 * math.comb(200, 2) > MINOR_BLOCK and 3 * math.comb(60, 3) > MINOR_BLOCK
    for entries in (one_tile, tall, wide, one_tile.T, -wide, square):
        _assert_same_report(total_positivity_check(entries), total_positivity_reference(entries))


def test_tp_check_of_all_orders_in_one_batch_matches_the_minor_loop():
    # every order of a shape up to 7 x 6 is one tile, and the check takes all
    # orders at once; 7 x 7, whose order 4 holds 35 * 35 minors of 16 entries,
    # is the first shape over that bound and takes tiles
    shapes = [(rows, cols) for rows in range(1, 8) for cols in range(1, 8)]
    assert [shape for shape in shapes if _shape_tiles(*shape) is None] == [(7, 7)]
    assert 35 * 35 * 16 > MINOR_BLOCK >= 35 * 35 * 9
    rng = np.random.default_rng(9006)
    for rows, cols in shapes:
        base = rng.uniform(-1.0, 1.0, size=(rows, cols))
        apart = np.ldexp(base, rng.choice([-600, 0, 600], size=(rows, 1)))  # minors leave float range
        zero_row = base.copy()
        zero_row[rng.integers(rows)] = 0.0
        for entries in (base, apart, base * 2.0 ** -1060, zero_row):  # the third has subnormal entries
            _assert_same_report(total_positivity_check(entries), total_positivity_reference(entries))


def test_tp_check_witness_is_the_lower_order_of_equal_minima():
    # scaled -1 first at order 1, entry (2, 2), then at order 2, rows (0, 1) x columns (0, 1)
    entries = np.zeros((4, 6))
    entries[[0, 1, 2], [1, 0, 2]] = [1.0, 1.0, -1.0]
    for matrix in (entries, entries.T):
        rep = total_positivity_check(matrix)
        _assert_same_report(rep, total_positivity_reference(matrix))
        assert rep.witness == ((2,), (2,)) and rep.worst_scaled == -1.0
    assert total_positivity_check(entries[:2, :2]).witness == ((0, 1), (0, 1))


def test_tp_check_gathers_are_read_only_and_bounded():
    _shape_tiles.cache_clear()
    rng = np.random.default_rng(9007)
    for rows in range(1, 8):
        for cols in range(1, 8):
            total_positivity_check(rng.uniform(-1.0, 1.0, size=(rows, cols)))
    info = _shape_tiles.cache_info()
    assert info.maxsize == _TILE_MEMO_SIZE == info.currsize  # 49 shapes met, the last 32 kept
    # 1 x 16384 is the widest shape whose every order is one tile: 32,769 indices
    tiles = _shape_tiles(1, MINOR_BLOCK)
    assert _shape_tiles(1, MINOR_BLOCK + 1) is None
    arrays = [a for tile in tiles for a in tile]
    assert not any(a.flags.writeable for a in arrays)
    with pytest.raises(ValueError):
        tiles[0][2][0, 0, 0] = 0
    owners = {}
    for a in arrays:
        while a.base is not None:
            a = a.base
        owners[id(a)] = a.nbytes
    assert sum(owners.values()) == 32_769 * 8


def test_rational_collocation_and_its_check_check_each_input_once(monkeypatch):
    seen = []

    def counting(values, message):
        seen.append(message)
        return _finite_input(values, message)

    for module in ("shape", "rational", "kernel"):
        monkeypatch.setattr(f"qtrig.{module}._finite_input", counting)
    for weights in ([1, 2, 2, 1], [1, -2, 2, 1]):  # mixed signs meet the denominator certificate too
        seen.clear()
        mat = collocation("rational", 3, 1.5, Interval(0.3, 1.4), [0.4, 0.8, 1.2], weights=weights)
        total_positivity_check(mat)
        checked = ["points must be finite", "weights must be finite", "matrix entries must be finite"]
        if weights[1] < 0:  # the public denominator_certificate checks its weights and its own grid
            checked[2:2] = ["weights must be finite", "x must be finite"]
        assert seen == checked


@pytest.mark.parametrize("transpose", [False, True])
def test_tp_check_witness_is_the_first_of_equal_minima_in_two_tiles(transpose):
    # columns (2, 1), but (1, 2) at 0 and 97: every pair of a (1, 2) column and a
    # later (2, 1) one gives the worst scaled minor, -0.75; the first, (0, 1),
    # lies in the first of the two 2 x 2 tiles, and (97, 98) in the second
    entries = np.tile([[2.0], [1.0]], 100)
    entries[:, [0, 97]] = [[1.0], [2.0]]
    pairs = list(combinations(range(100), 2))
    assert pairs.index((0, 1)) < MINOR_BLOCK // 4 <= pairs.index((97, 98))
    if transpose:
        entries = entries.T.copy()
    rep = total_positivity_check(entries)
    _assert_same_report(rep, total_positivity_reference(entries))
    assert rep.witness == ((0, 1), (0, 1)) and rep.worst_scaled == pytest.approx(-0.75)


def _lu_false_fail():
    """A rational degree-8 collocation, points clustered at both ends: every minor is >= 0."""
    return collocation(
        "rational", 8, 0.06470539885476707, Interval(0.0, math.pi / 2),
        [0.0, 0.0019931148286984187, 0.008812057208694242, 1.4809859814237878, 1.5534582637627807,
         1.5706845404082173, math.pi / 2],
        weights=[0.09352014449595009, 0.1383835474317428, 0.21324104813336464, 1.6555029010956297,
                 0.5755449892727171, 2.233807746713342, 9.675434734285378, 0.8388647903632998,
                 3.9260553264638123])


def test_lu_false_fail_witness_is_positive_at_60_digits():
    # the exhaustive check's witness of this matrix, scaled -1.15e-8 after LU
    mat = _lu_false_fail()
    rows, cols = (0, 1, 8), (3, 5, 6)
    with mp.workdps(60):
        exact = mp.det(mp.matrix([[mp.mpf(float(mat.entries[i, j])) for j in cols] for i in rows]))
    assert exact > 0


@pytest.mark.xfail(strict=True, reason="LU rounding turns a minor of +2.8e-13 (scaled) into -1.15e-8; "
                                       "a certified route must decide this matrix")
def test_lu_false_fail_is_totally_positive():
    assert total_positivity_check(_lu_false_fail()).is_tp
