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
from .rational import _coerce_weights, _rational_rows, point_segment_distance

__all__ = [
    "MINOR_CAP",
    "CollocationMatrix",
    "TPReport",
    "collocation",
    "minor_count",
    "total_positivity_check",
    "sign_changes_seq",
    "sign_changes_function",
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
    if family == "rational" and weights is None:
        raise ValueError("rational collocation needs weights")

    if family == "rational":  # rational_basis_all's pointwise rule, no interval certificate
        rows = _rational_rows(n, pts, q, interval, _coerce_weights(weights, n))
    else:
        rows = basis_matrix(n, pts, 1.0 if family == "classical" else q, interval)
    return CollocationMatrix(entries=rows.T, points=pts, family=family)


def minor_count(rows: int, cols: int) -> int:
    """Number of square submatrices of an rows x cols matrix."""
    return sum(
        math.comb(rows, r) * math.comb(cols, r) for r in range(1, min(rows, cols) + 1)
    )


def total_positivity_check(matrix, tolerance: float = DEFAULT_TP_TOL) -> TPReport:
    """Exhaustively test all minors of a matrix for nonnegativity.

    Accepts a CollocationMatrix or anything array-like.  A minor with
    determinant det and row-max-norm product scale fails when
    det < -tolerance * scale.  Refuses matrices with more than MINOR_CAP
    square submatrices.
    """
    entries = matrix.entries if isinstance(matrix, CollocationMatrix) else np.asarray(matrix, dtype=float)
    if entries.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {entries.shape}")
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


def _strip_zeros(values: np.ndarray, zero_tolerance: Optional[float]) -> np.ndarray:
    if values.size == 0:
        return values
    if zero_tolerance is None:
        zero_tolerance = SIGN_ZERO_REL_TOL * float(np.abs(values).max())
    return values[np.abs(values) > zero_tolerance]


def sign_changes_seq(seq, zero_tolerance: Optional[float] = None) -> int:
    """Strict sign changes S^- of a sequence, after discarding near-zeros."""
    stripped = _strip_zeros(np.asarray(seq, dtype=float), zero_tolerance)
    if stripped.size < 2:
        return 0
    signs = np.sign(stripped)
    return int(np.sum(signs[1:] != signs[:-1]))


def sign_changes_function(samples) -> int:
    """S^- of an ordered list of function samples (values only)."""
    return sign_changes_seq(np.asarray(samples, dtype=float))


def convex_hull(points) -> np.ndarray:
    """Convex hull of 2-d points, counter-clockwise (monotone chain).

    Collinear input degenerates to the two extreme points.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"expected (m, 2) points, got shape {pts.shape}")
    uniq = sorted(set(map(tuple, pts.tolist())))
    if len(uniq) <= 2:
        return np.array(uniq, dtype=float)

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower = []
    for p in uniq:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(uniq):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:  # everything collinear after pruning
        return np.array([uniq[0], uniq[-1]], dtype=float)
    return np.array(hull, dtype=float)


def point_in_hull(point, hull: np.ndarray, slack: float = 1e-12):
    """Is the point inside (or within slack * diameter of) the hull?

    point is one 2-d point, giving a bool, or an (m, 2) array of points,
    giving one verdict per row.
    """
    p = np.asarray(point, dtype=float)
    hull = np.asarray(hull, dtype=float)
    if hull.ndim != 2 or hull.shape[1] != 2:
        raise ValueError(f"expected (h, 2) hull, got shape {hull.shape}")
    diffs = hull[:, None, :] - hull[None, :, :]
    diameter = float(np.sqrt((diffs ** 2).sum(axis=2)).max())
    tol = slack * diameter if diameter > 0.0 else slack
    if hull.shape[0] == 1:
        inside = np.linalg.norm(p - hull[0], axis=-1) <= tol
    elif hull.shape[0] == 2:
        inside = point_segment_distance(p, hull[0], hull[1]) <= tol
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
