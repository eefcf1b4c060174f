"""Brute-force shape analysis: total positivity, sign changes, hulls.

A system of functions is totally positive on an interval when every minor
of every collocation matrix (phi_i(x_j) with increasing x_j) is nonnegative.
This module checks single matrices exhaustively: it enumerates all square
submatrices up to a hard cap, evaluates determinants by partially pivoted
elimination (LU), and compares against a tolerance scaled per minor by the
product of its row max-norms.  That is a certificate for the sampled grid,
not a proof for the whole interval.  The work is batched by order: the
r x r minors are gathered, in enumeration order, into stacks of at most
MINOR_BLOCK entries, and each stack takes one determinant call.  The minors
of a stack whose determinant or scale leaves float range are taken again,
in one more determinant call, with each row rescaled exactly by a power of
two.
"""

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Optional

import numpy as np

from .basis import basis_matrix
from .errors import MinorCapExceededError
from .kernel import Interval
from .rational import point_segment_distance, rational_basis_matrix

__all__ = [
    "MINOR_CAP",
    "CollocationMatrix",
    "TPReport",
    "collocation",
    "minor_count",
    "total_positivity_check",
    "sign_changes_seq",
    "convex_hull",
    "point_in_hull",
]

MINOR_CAP = 1_000_000
# Entries per (k, r, r) stack of minors, k = MINOR_BLOCK // r**2: bounds the
# check's working memory whatever the matrix shape.
MINOR_BLOCK = 1 << 14
DEFAULT_TP_TOL = 1e-9
_SMALLEST_NORMAL = np.finfo(float).tiny
# Relative floor below which sequence entries count as zero.
SIGN_ZERO_REL_TOL = 1e-12
# Points within this fraction of the hull's diameter outside it count as inside.
HULL_SLACK = 1e-12

_FAMILIES = ("quantum", "classical", "rational")


@dataclass(frozen=True)
class CollocationMatrix:
    """entries[i, j] = phi_i(x_j) for basis index i and increasing points x_j."""

    entries: np.ndarray
    points: np.ndarray
    family: str


@dataclass(frozen=True)
class TPReport:
    is_tp: bool
    minors_checked: int
    worst_minor: float            # raw determinant of the worst minor
    worst_scaled: float           # same minor divided by its row-max scale
    tolerance: float
    witness: Optional[tuple[tuple[int, ...], tuple[int, ...]]]


def collocation(
    family: str,
    n: int,
    q: float,
    interval: Interval,
    points,
    weights=None,
) -> CollocationMatrix:
    """Collocation matrix of a basis family at strictly increasing points."""
    if family not in _FAMILIES:
        raise ValueError(f"family must be one of {_FAMILIES}, got {family!r}")
    try:
        pts = np.asarray(points, dtype=float)
    except OverflowError:  # an int beyond the float range
        raise ValueError("points must be finite") from None
    if pts.ndim != 1 or pts.size < 1:
        raise ValueError("points must be a non-empty 1-d array")
    if not np.isfinite(pts).all():  # NaN would pass the order and bounds checks below
        raise ValueError("points must be finite")
    if np.any(np.diff(pts) <= 0.0):
        raise ValueError("points must be strictly increasing")
    if pts[0] < interval.a or pts[-1] > interval.b:
        raise ValueError(f"points must lie inside [{interval.a}, {interval.b}]")

    if family == "rational":  # mixed-sign weights pass the denominator certificate first
        rows = rational_basis_matrix(n, pts, q, interval, weights)
    else:
        rows = basis_matrix(n, pts, 1.0 if family == "classical" else q, interval)
    return CollocationMatrix(entries=rows.T, points=pts, family=family)


def minor_count(rows: int, cols: int) -> int:
    """Number of square submatrices of an rows x cols matrix."""
    rows, cols = max(rows, 0), max(cols, 0)  # no minors, as for an empty matrix
    # Vandermonde: sum over r >= 0 of C(rows, r) C(cols, cols - r) is C(rows + cols, rows)
    return math.comb(rows + cols, rows) - 1


def _refuse_over_cap(rows: int, cols: int) -> int:
    """minor_count(rows, cols), or MinorCapExceededError when it is over MINOR_CAP.

    From 12 x 12 on the count is at least C(24, 12) - 1 > MINOR_CAP, and the
    exact binomial, whose cost grows with min(rows, cols), is not taken.
    """
    if min(rows, cols) >= 12:
        raise MinorCapExceededError(None, MINOR_CAP)
    total = minor_count(rows, cols)
    if total > MINOR_CAP:
        raise MinorCapExceededError(total, MINOR_CAP)
    return total


def _subsets(n: int, r: int):
    """The map from lexicographic ranks (k,) to the (r, k) r-subsets of range(n), one per column.

    Subsets that fit in MINOR_BLOCK entries are listed once: on the small
    matrices that make up most checks, one gather per block costs less than
    the r - 1 vectorised steps of unranking.  Others are unranked per call,
    so memory stays that of the ranks asked for, whatever C(n, r): reversing
    and complementing maps lexicographic rank to colex rank, whose unranking
    takes, element by element, the largest c with C(c, i) <= rest.
    """
    count = math.comb(n, r)
    if r * count <= MINOR_BLOCK:
        every = np.array(list(combinations(range(n), r)), dtype=np.intp).T
        return lambda ranks: every[:, ranks]
    binomials = [np.array([math.comb(c, i) for c in range(n)], dtype=np.int64) for i in range(r, 1, -1)]

    def unrank(ranks):
        out = np.empty((r, ranks.size), dtype=np.intp)
        rest = (count - 1) - ranks
        for t, row in enumerate(binomials):
            c = np.searchsorted(row, rest, side="right") - 1
            rest = rest - row[c]
            out[t] = (n - 1) - c
        out[r - 1] = (n - 1) - rest  # C(c, 1) = c
        return out

    return unrank


def _minor_values(subs: np.ndarray):
    """(dets, row_max, scales, scaled) of an (r, r, k) stack of minors.

    row_max (r, k) holds each row's max |entry| and scales (k,) their
    product; scaled is det / scale, 0 where the scale is 0.
    """
    # np.linalg.det goes through log|u_ii| and is not exact on 1x1
    dets = subs[0, 0] if len(subs) == 1 else np.linalg.det(subs.transpose(2, 0, 1))
    row_max = np.abs(subs).max(axis=1)
    scales = row_max.prod(axis=0)
    return dets, row_max, scales, np.divide(dets, scales, out=np.zeros_like(dets), where=scales > 0.0)


# det flags some subnormal minors, yet returns them right; minors whose det or
# scale overflows or underflows are taken again with rescaled rows
@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def total_positivity_check(matrix, tolerance: float = DEFAULT_TP_TOL) -> TPReport:
    """Exhaustively test all minors of a matrix for nonnegativity.

    Accepts a CollocationMatrix or anything array-like.  A minor with
    determinant det and row-max-norm product scale fails when
    det < -tolerance * scale; a minor whose det or scale leaves float range
    is taken again with its rows rescaled by powers of two.  Refuses
    matrices with more than MINOR_CAP square submatrices, matrices with NaN
    or inf entries, and a tolerance that is NaN, infinite or negative.  The
    witness is the first worst minor in the order (size, row set, column
    set), sets in lexicographic order.
    """
    if not 0.0 <= tolerance < math.inf:
        raise ValueError(f"tolerance must be finite and >= 0, got {tolerance!r}")
    entries = matrix.entries if isinstance(matrix, CollocationMatrix) else np.asarray(matrix, dtype=float)
    if entries.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {entries.shape}")
    if not np.all(np.isfinite(entries)):
        raise ValueError("matrix entries must be finite")  # a NaN minor never compares below the worst
    n_rows, n_cols = entries.shape
    total = _refuse_over_cap(n_rows, n_cols)
    if total == 0:
        raise ValueError("matrix has no minors")

    flat = np.ascontiguousarray(entries).ravel()
    worst_scaled = math.inf
    worst_det = 0.0
    worst_idx = None
    for r in range(1, min(n_rows, n_cols) + 1):
        col_sets = math.comb(n_cols, r)
        pairs = math.comb(n_rows, r) * col_sets
        block = MINOR_BLOCK // (r * r)
        row_subsets, col_subsets = _subsets(n_rows, r), _subsets(n_cols, r)
        for start in range(0, pairs, block):
            # the minors of pairs start, start + 1, ... (row set rank outer) as an (r, r, k) stack
            row_ranks, col_ranks = np.divmod(np.arange(start, min(start + block, pairs)), col_sets)
            rows, cols = row_subsets(row_ranks), col_subsets(col_ranks)
            subs = flat.take(rows[:, None, :] * n_cols + cols[None, :, :])
            dets, row_max, scales, scaled = _minor_values(subs)
            normal = (scales >= _SMALLEST_NORMAL) & (scales < math.inf)
            redo = np.flatnonzero(~np.isfinite(dets) | (~normal & row_max.all(axis=0)))
            if redo.size:
                # row i scaled exactly by 2**-e_i, e_i the binary exponent of its
                # max, leaves det / scale as it is and every row max in [0.5, 1);
                # the det is then 2**sum(e_i) times the rescaled one, inf or 0
                # where that leaves float range, with the sign of the exact one
                exps = np.frexp(row_max[:, redo])[1]
                rescaled_dets, _, _, scaled[redo] = _minor_values(np.ldexp(subs[:, :, redo], -exps[:, None, :]))
                dets[redo] = np.ldexp(rescaled_dets, exps.sum(axis=0))
            j = int(np.argmin(scaled))  # the first of equal minima
            if scaled[j] < worst_scaled:
                worst_scaled = float(scaled[j])
                worst_det = float(dets[j])
                worst_idx = (tuple(rows[:, j].tolist()), tuple(cols[:, j].tolist()))
    is_tp = worst_scaled >= -tolerance
    return TPReport(
        is_tp=is_tp,
        minors_checked=total,
        worst_minor=worst_det,
        worst_scaled=worst_scaled,
        tolerance=tolerance,
        witness=None if is_tp else worst_idx,
    )


def sign_changes_seq(seq) -> int:
    """Strict sign changes S^- of a finite sequence, after discarding near-zeros.

    Entries within SIGN_ZERO_REL_TOL of the largest magnitude count as zero.
    """
    values = np.asarray(seq, dtype=float)
    if not np.all(np.isfinite(values)):
        raise ValueError("sequence entries must be finite")
    if values.size < 2:
        return 0
    floor = SIGN_ZERO_REL_TOL * float(np.abs(values).max())
    signs = np.sign(values[np.abs(values) > floor])
    return int(np.sum(signs[1:] != signs[:-1]))


def _rescaled(ref: np.ndarray, *arrays: np.ndarray):
    """(e, [a * 2**-e for a in arrays]) with e the binary exponent of max |ref|.

    A power-of-two scale is exact short of the subnormal range, so products
    and differences of the scaled coordinates have the signs of the exact
    ones, where the raw coordinates could underflow to 0 or overflow to inf.
    """
    e = math.frexp(float(np.abs(ref).max()))[1]
    return e, [np.ldexp(a, -e) for a in arrays]


def convex_hull(points) -> np.ndarray:
    """Convex hull of 2-d points, counter-clockwise (monotone chain).

    Collinear input degenerates to the two extreme points.  The vertices
    are input points, bit for bit.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"expected (m, 2) points, got shape {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise ValueError("hull points must be finite")
    uniq = sorted(set(map(tuple, pts.tolist())))
    if len(uniq) <= 2:
        return np.array(uniq, dtype=float)
    _, (scaled,) = _rescaled(pts, np.array(uniq))
    xy = scaled.tolist()

    def cross(o, a, b):  # of the scaled points at indices o, a, b
        (ox, oy), (ax, ay), (bx, by) = xy[o], xy[a], xy[b]
        return (ax - ox) * (by - oy) - (ay - oy) * (bx - ox)

    lower = []
    for p in range(len(uniq)):
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(range(len(uniq))):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]  # [0, last] when every point is collinear
    return np.array([uniq[i] for i in hull], dtype=float)


def point_in_hull(point, hull: np.ndarray):
    """Is the point inside (or within HULL_SLACK * diameter of) the hull?

    point is one 2-d point, giving a bool, or an (m, 2) array of points,
    giving one verdict per row.  Points and hull vertices must be finite.
    """
    p = np.asarray(point, dtype=float)
    hull = np.asarray(hull, dtype=float)
    if hull.ndim != 2 or hull.shape[1] != 2:
        raise ValueError(f"expected (h, 2) hull, got shape {hull.shape}")
    if not (np.all(np.isfinite(p)) and np.all(np.isfinite(hull))):
        raise ValueError("points and hull vertices must be finite")
    e, (p, hull) = _rescaled(hull, p, hull)  # the same verdicts, and no overflow below
    diffs = hull[:, None, :] - hull[None, :, :]
    diameter = float(np.sqrt((diffs ** 2).sum(axis=2)).max())
    tol = HULL_SLACK * diameter if diameter > 0.0 else math.ldexp(HULL_SLACK, -e)
    if hull.shape[0] <= 2:  # a point or a segment
        inside = point_segment_distance(p, hull[0], hull[-1]) <= tol
    else:
        inside = np.ones(p.shape[:-1], dtype=bool)
        for i in range(hull.shape[0]):
            v0 = hull[i]
            v1 = hull[(i + 1) % hull.shape[0]]
            edge = v1 - v0
            norm = float(np.linalg.norm(edge))
            signed = (edge[0] * (p[..., 1] - v0[1]) - edge[1] * (p[..., 0] - v0[0])) / norm
            inside &= ~(signed < -tol)
    return bool(inside) if p.ndim == 1 else inside
