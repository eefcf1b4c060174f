import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qtrig import (
    CollocationMatrix,
    Interval,
    MinorCapExceededError,
    SingularDenominatorError,
    basis_all_direct,
    classical_trig_basis,
    collocation,
    convex_hull,
    minor_count,
    point_in_hull,
    sign_changes_seq,
    total_positivity_check,
)
from qtrig.shape import MINOR_BLOCK, MINOR_CAP, _refuse_over_cap
from oracles import monomial_tp_reference, total_positivity_reference

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


def test_tp_check_rejects_unusable_tolerances():
    # a NaN tolerance failed every matrix and an infinite one passed any
    for tolerance in (math.nan, math.inf, -1e-9):
        with pytest.raises(ValueError, match="tolerance"):
            total_positivity_check(np.eye(2), tolerance)


def test_tp_check_of_empty_matrices():
    for empty in (np.zeros((0, 3)), np.zeros((2, 0))):
        with pytest.raises(ValueError, match="no minors"):
            total_positivity_check(empty)


def test_tp_check_of_subnormal_minors(quarter):
    # w_2 = 1.7e308 pushes R_0 into the subnormal range and R_1 is zero;
    # np.linalg.det flags a division by zero on some of these zero minors
    pts = [quarter.b * (j + 1) / 5 for j in range(4)]
    mat = collocation("rational", 2, 1.0, quarter, pts, weights=[1.0, 0.0, 1.7e308])
    assert total_positivity_check(mat).is_tp


def test_rational_collocation_certifies_mixed_weights(quarter):
    # at q = 1, w = (1, -3, 1) gives 1 - 3 sin(2x): positive at the two
    # endpoints, zero in between, so only the interval certificate sees it
    with pytest.raises(SingularDenominatorError):
        collocation("rational", 2, 1.0, quarter, [0.0, math.pi / 2], weights=[1.0, -3.0, 1.0])


def _assert_same_report(got, want):
    assert (got.is_tp, got.minors_checked, got.witness) == (want.is_tp, want.minors_checked, want.witness)
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
                _assert_same_report(total_positivity_check(mat), total_positivity_reference(mat.entries))


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
    rep = total_positivity_check(mat)
    assert rep.is_tp, f"q={q} k={k}: worst scaled minor {rep.worst_scaled}"
    assert rep.worst_scaled >= -1e-9


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
    for bad in (math.nan, math.inf, -math.inf):
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
