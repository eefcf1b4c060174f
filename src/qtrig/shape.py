"""Brute-force shape analysis: total positivity, sign changes, hulls.

A system of functions is totally positive on an interval when every minor
of every collocation matrix (phi_i(x_j) with increasing x_j) is nonnegative.
This module checks single matrices exhaustively: it enumerates all square
submatrices up to a hard cap, evaluates determinants by partially pivoted
elimination (LU), and compares against a tolerance scaled per minor by the
product of its row max-norms.  That is a certificate for the sampled grid,
not a proof for the whole interval.
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
DEFAULT_TP_TOL = 1e-9
# Relative floor below which sequence entries count as zero.
SIGN_ZERO_REL_TOL = 1e-12

_FAMILIES = ("quantum", "classical", "rational")


@dataclass(frozen=True)
class CollocationMatrix:
    """entries[i, j] = phi_i(x_j) for basis index i and increasing points x_j."""

    entries: np.ndarray
    points: np.ndarray
    family: str

    @property
    def rows(self) -> int:
        return self.entries.shape[0]

    @property
    def cols(self) -> int:
        return self.entries.shape[1]


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
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 1 or pts.size < 1:
        raise ValueError("points must be a non-empty 1-d array")
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
    return sum(
        math.comb(rows, r) * math.comb(cols, r) for r in range(1, min(rows, cols) + 1)
    )


@np.errstate(divide="ignore")  # det flags some subnormal minors, yet returns them right
def total_positivity_check(matrix, tolerance: float = DEFAULT_TP_TOL) -> TPReport:
    """Exhaustively test all minors of a matrix for nonnegativity.

    Accepts a CollocationMatrix or anything array-like.  A minor with
    determinant det and row-max-norm product scale fails when
    det < -tolerance * scale.  Refuses matrices with more than MINOR_CAP
    square submatrices, and matrices with NaN or inf entries.
    """
    entries = matrix.entries if isinstance(matrix, CollocationMatrix) else np.asarray(matrix, dtype=float)
    if entries.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {entries.shape}")
    if not np.all(np.isfinite(entries)):
        raise ValueError("matrix entries must be finite")  # a NaN minor never compares below the worst
    n_rows, n_cols = entries.shape
    total = minor_count(n_rows, n_cols)
    if total > MINOR_CAP:
        raise MinorCapExceededError(total, MINOR_CAP)

    worst_scaled = math.inf
    worst_det = 0.0
    worst_idx = None
    checked = 0
    for r in range(1, min(n_rows, n_cols) + 1):
        col_sets = list(combinations(range(n_cols), r))
        for rows_sel in combinations(range(n_rows), r):
            sub_rows = entries[list(rows_sel), :]
            for cols_sel in col_sets:
                sub = sub_rows[:, list(cols_sel)]
                det = float(sub[0, 0]) if r == 1 else float(np.linalg.det(sub))
                scale = float(np.prod(np.abs(sub).max(axis=1)))
                scaled = det / scale if scale > 0.0 else 0.0
                checked += 1
                if scaled < worst_scaled:
                    worst_scaled = scaled
                    worst_det = det
                    worst_idx = (rows_sel, cols_sel)
    if checked == 0:
        raise ValueError("matrix has no minors")
    is_tp = worst_scaled >= -tolerance
    return TPReport(
        is_tp=is_tp,
        minors_checked=checked,
        worst_minor=worst_det,
        worst_scaled=worst_scaled,
        tolerance=tolerance,
        witness=None if is_tp else worst_idx,
    )


def sign_changes_seq(seq, zero_tolerance: Optional[float] = None) -> int:
    """Strict sign changes S^- of a sequence, after discarding near-zeros."""
    values = np.asarray(seq, dtype=float)
    if values.size < 2:
        return 0
    if zero_tolerance is None:
        zero_tolerance = SIGN_ZERO_REL_TOL * float(np.abs(values).max())
    signs = np.sign(values[np.abs(values) > zero_tolerance])
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
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:  # everything collinear after pruning
        hull = [0, len(uniq) - 1]
    return np.array([uniq[i] for i in hull], dtype=float)


def point_in_hull(point, hull: np.ndarray, slack: float = 1e-12):
    """Is the point inside (or within slack * diameter of) the hull?

    point is one 2-d point, giving a bool, or an (m, 2) array of points,
    giving one verdict per row.
    """
    p = np.asarray(point, dtype=float)
    hull = np.asarray(hull, dtype=float)
    if hull.ndim != 2 or hull.shape[1] != 2:
        raise ValueError(f"expected (h, 2) hull, got shape {hull.shape}")
    e, (p, hull) = _rescaled(hull, p, hull)  # the same verdicts, and no overflow below
    diffs = hull[:, None, :] - hull[None, :, :]
    diameter = float(np.sqrt((diffs ** 2).sum(axis=2)).max())
    tol = slack * diameter if diameter > 0.0 else math.ldexp(slack, -e)
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
