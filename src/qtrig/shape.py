"""Shape analysis: total positivity, sign changes, hulls.

A system of functions is totally positive on an interval when every minor
of every collocation matrix (phi_i(x_j) with increasing x_j) is nonnegative.
total_positivity_check decides a matrix by one of two routes, and names it
in the report.

The quarter-period Vandermonde route checks no minor: it applies a
theorem.  On a quarter period [k pi/2, (k+1) pi/2] with q > 0 each basis
function is c_k sin^k(x - a) cos^(n-k)(x - a) with c_k > 0, so a
collocation matrix is D1 V(tan(x_j - a)) D2: a Vandermonde matrix on
increasing nonnegative nodes between positive diagonals, which is totally
positive (Gantmacher & Krein; Gasca & Pena, Linear Algebra Appl. 165,
1992).  Positive rational weights only add two more positive diagonals.
collocation() takes the route on such an interval at q > 0 (the classical
family collocates at q = 1), with every weight > 0 for the rational family,
and records it in the matrix, whose entries it makes read-only and whose
points it keeps as a read-only copy; a matrix built by hand or copied
takes the exhaustive route.  One more condition
covers floats: an endpoint off the grid by delta moves the zeros of the
kernel factors d(a, x; q^i) and d(x, b; q^i) off the endpoint by about
delta |q^(+-i) - 1|.  The n - 1 factors that move (q^0 gives sin(y - x),
which does not) then change an entry at distance h from the nearer
endpoint by a relative (n - 1) delta (max(q, 1/q)^(n-1) - 1) / h at most,
to first order; the route needs that within QUARTER_SHIFT_TOL at every
point strictly inside.  On Interval.quarter(k) for k = -1..2, delta is
below 2e-16, and only points very near an endpoint at q far from 1 fall
outside.  At q = 1000 on [-pi/2, 0], degree 8, the shift covers the whole
interval and the entries reach -5.8e21.

The exhaustive route decides every other matrix.  It enumerates all square
submatrices up to a hard cap, evaluates determinants by partially pivoted
elimination (LU), and compares against a tolerance scaled per minor by the
product of its row max-norms.  That is a certificate for the sampled grid,
not a proof for the whole interval.  The work is split by order r into
tiles of consecutive row sets x consecutive column sets: a tile holds every
column set and as many row sets as fit in MINOR_BLOCK // r**2 minors or,
when the column sets alone are more, one row set and a run of that many
column sets.  One take gathers a tile, in enumeration order, into a stack
of at most MINOR_BLOCK entries, and each stack takes one determinant call.
Only this route refuses a matrix over MINOR_CAP; the structural one
decides a collocation of any size.

A matrix whose every order is one tile (every shape of at most 7 rows and
columns other than 7 x 7, so check tp's default --grid 6 up to degree 6,
and shapes as wide as 1 x 16384) is checked in one batch of all its orders,
whose tiles come from a memo keyed by shape; any other matrix is a batch
per tile.  Every stack is scaled by its own row maxima: a minor's scale is
the product of its rows' max |entry|, in row order.  One divide, one
float-range test and one argmin run over a batch; the first worst minor in
(size, row set, column set) order is the argmin's.  A batch whose
determinants and scales all lie in float range passes its one test; in any
other, the minors that leave it are taken again, stack by stack, in one
more determinant call, with each row rescaled exactly by a power of two.
The memo keeps the tiles of the last _TILE_MEMO_SIZE = 32 shapes met,
read-only, and None for a shape that takes more tiles.  A shape's tiles
hold at most 36,684 indices (287 KiB, for 4 x 14 and 14 x 4; 32,769 for
1 x 16384, 9,264 for 6 x 6), so the memo holds at most 9 MiB.  It is the
one state the check keeps.

Most collocations are a few points, where a numpy call on them costs more
than its arithmetic: collocation() checks the points' order and bounds and
the weights' signs on Python floats, and passes the points and weights it
has checked down to the basis rows, basis._rows after _certified_plan,
which do not check or convert them again; the rows of up to 8 points are
formed one at a time on floats (basis.py), and only the exhaustive loop
runs under numpy's errstate.  A 6-point quarter-period collocation at
n = 2 then takes 24 us where the column loop and numpy checks took 38 (in
process, Python 3.11.7, numpy 2.4.6, x86-64).
"""

import functools
import math
import sys
from dataclasses import dataclass, field
from itertools import combinations, islice
from typing import Optional

import numpy as np

from .basis import _rows
from .errors import MinorCapExceededError
from .kernel import Interval, _certified_plan, _finite_input
from .qcalc import DEFAULT_TP_TOL
from .rational import _coerce_weights, _rational_rows, _shape_guaranteed, point_segment_distance

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
# Shapes whose tiles the exhaustive check keeps, least recently used out first.
_TILE_MEMO_SIZE = 32
# Largest first-order relative distance from a quarter-period collocation's
# entries to the exact quarter period's at which the Vandermonde route decides.
QUARTER_SHIFT_TOL = 1e-6
QUARTER_PERIOD_VANDERMONDE = "quarter-period Vandermonde"
_SMALLEST_NORMAL = np.finfo(float).tiny
# Relative floor below which sequence entries count as zero.
SIGN_ZERO_REL_TOL = 1e-12
# Points within this fraction of the hull's diameter outside it count as inside.
HULL_SLACK = 1e-12

_FAMILIES = ("quantum", "classical", "rational")


@dataclass(frozen=True, eq=False)  # holds arrays: == and hash are by identity
class CollocationMatrix:
    """entries[i, j] = phi_i(x_j) for basis index i and increasing points x_j.

    route is the one total_positivity_check takes: only collocation() sets
    it, to "quarter-period Vandermonde"; a hand-built or copied matrix keeps
    "exhaustive".
    """

    entries: np.ndarray
    points: np.ndarray
    family: str
    route: str = field(default="exhaustive", init=False)


@dataclass(frozen=True)
class TPReport:
    """Verdict of total_positivity_check and the route that decided it.

    route is "exhaustive" or "quarter-period Vandermonde".  The structural
    route checks no minor: minors_checked is 0, and worst_minor and
    worst_scaled are None.
    """

    is_tp: bool
    minors_checked: int
    worst_minor: Optional[float]  # raw determinant of the worst minor
    worst_scaled: Optional[float]  # same minor divided by its row-max scale
    tolerance: float
    witness: Optional[tuple[tuple[int, ...], tuple[int, ...]]]
    route: str = "exhaustive"


def collocation(
    family: str,
    n: int,
    q: float,
    interval: Interval,
    points,
    weights=None,
) -> CollocationMatrix:
    """Collocation matrix of a basis family at strictly increasing points; its entries and points are read-only.

    The points are checked here, so the rows are basis._rows after _certified_plan: only the certificate is met again.
    """
    if family not in _FAMILIES:
        raise ValueError(f"family must be one of {_FAMILIES}, got {family!r}")
    if family != "rational" and weights is not None:
        raise ValueError(f"weights are for the rational family only, got weights for {family!r}")
    pts = _finite_input(points, "points must be finite")  # NaN would pass the order and bounds checks below
    if pts.ndim != 1 or pts.size < 1:
        raise ValueError("points must be a non-empty 1-d array")
    xs = pts.tolist()  # a few points: Python floats beat numpy calls, with the same verdicts on finite ones
    if any(u >= v for u, v in zip(xs, xs[1:])):
        raise ValueError("points must be strictly increasing")
    if xs[0] < interval.a or xs[-1] > interval.b:
        raise ValueError(f"points must lie inside [{interval.a}, {interval.b}]")
    pts = pts.copy()  # the route is decided on these points: a later edit of the caller's reaches none
    pts.flags.writeable = False

    w = _coerce_weights(weights, n) if family == "rational" else None
    if family == "classical":
        q = 1.0
    rows = _rows(_certified_plan(interval, q, n), pts)
    if w is not None:  # mixed-sign weights pass the denominator certificate before the rows are normalised
        rows = _rational_rows(n, q, interval, w, rows, pts)
    rows.flags.writeable = False  # the route below holds for these numbers only
    mat = CollocationMatrix(entries=rows.T, points=pts, family=family)
    if _quarter_period_vandermonde(interval, q, w, xs, n + 1):
        object.__setattr__(mat, "route", QUARTER_PERIOD_VANDERMONDE)
    return mat


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


def _quarter_period_vandermonde(interval: Interval, q: float, weights, xs: list, n_rows: int) -> bool:
    """Does the quarter-period Vandermonde factorisation decide this collocation?

    The conditions are the module docstring's; collocation() has checked the points xs, as floats.
    """
    if not _shape_guaranteed(interval, q, weights):
        return False
    a, b = interval.a, interval.b
    inner = [x for x in xs if a < x < b]
    if n_rows <= 2 or not inner:
        return True
    delta = max(min(abs(math.sin(v)), abs(math.cos(v))) for v in (a, b))
    try:  # q^(n-1) beyond the float range
        shift = (n_rows - 2) * delta * math.expm1((n_rows - 2) * abs(math.log(q)))
    except OverflowError:
        return False
    return shift <= QUARTER_SHIFT_TOL * min(inner[0] - a, b - inner[-1])


def _subsets(n: int, r: int):
    """The map from a rank range [start, stop) to the (r, k) r-subsets of range(n) of those lexicographic ranks.

    Subsets that fit in MINOR_BLOCK entries are listed once, and a range is a
    slice, a view, of the list: on the small matrices that make up most
    checks that costs less than the r - 1 vectorised steps of unranking.
    Others are unranked per call, so memory stays that of the range asked
    for, whatever C(n, r): reversing and complementing maps lexicographic rank
    to colex rank, whose unranking takes, element by element, the largest c
    with C(c, i) <= rest.
    """
    count = math.comb(n, r)
    if r * count <= MINOR_BLOCK:
        every = np.array(list(combinations(range(n), r)), dtype=np.intp).T
        return lambda start, stop: every[:, start:stop]
    binomials = [np.array([math.comb(c, i) for c in range(n)], dtype=np.int64) for i in range(r, 1, -1)]

    def unrank(start, stop):
        out = np.empty((r, stop - start), dtype=np.intp)
        rest = (count - 1) - np.arange(start, stop)
        for t, row in enumerate(binomials):
            c = np.searchsorted(row, rest, side="right") - 1
            rest = rest - row[c]
            out[t] = (n - 1) - c
        out[r - 1] = (n - 1) - rest  # C(c, 1) = c
        return out

    return unrank


def _tiles(n_rows: int, n_cols: int):
    """(row sets, column sets, gather index) of every tile of an n_rows x n_cols check, in enumeration order.

    The sets are (r, k) arrays of subsets; the index (r, r, k) takes a tile's
    minors, row set outer, from the flattened matrix.
    """
    for r in range(1, min(n_rows, n_cols) + 1):
        row_sets, col_sets, block = math.comb(n_rows, r), math.comb(n_cols, r), MINOR_BLOCK // (r * r)
        # tiles of consecutive row sets x consecutive column sets, at most block minors each
        tile_rows, tile_cols = (block // col_sets, col_sets) if col_sets <= block else (1, block)
        row_subsets = _subsets(n_rows, r)
        col_subsets = row_subsets if n_cols == n_rows else _subsets(n_cols, r)
        for i in range(0, row_sets, tile_rows):
            rows = row_subsets(i, min(i + tile_rows, row_sets))
            for j in range(0, col_sets, tile_cols):
                cols = col_subsets(j, min(j + tile_cols, col_sets))
                yield rows, cols, (rows[:, None, :, None] * n_cols + cols[None, :, None, :]).reshape(r, r, -1)


@functools.lru_cache(maxsize=_TILE_MEMO_SIZE)
def _shape_tiles(n_rows: int, n_cols: int) -> Optional[tuple]:
    """The read-only tuple(_tiles(n_rows, n_cols)), one per order, None when some order takes more than one tile."""
    orders = min(n_rows, n_cols)
    tiles = tuple(islice(_tiles(n_rows, n_cols), orders + 1))  # every order yields a tile
    if len(tiles) > orders:
        return None
    for array in (a for tile in tiles for a in tile):
        array.flags.writeable = False
    return tiles


def _dets(subs: np.ndarray) -> np.ndarray:
    """The determinants of an (r, r, k) stack of minors."""
    # np.linalg.det goes through log|u_ii| and is not exact on 1x1
    return subs[0, 0] if len(subs) == 1 else np.linalg.det(subs.transpose(2, 0, 1))


def _scaled(dets: np.ndarray, scales: np.ndarray) -> np.ndarray:
    """det / scale, 0 where the scale is 0."""
    return np.divide(dets, scales, out=np.zeros_like(dets), where=scales > 0.0)


def _rescale(subs: np.ndarray, row_max: np.ndarray, dets: np.ndarray, scales: np.ndarray,
             scaled: np.ndarray) -> None:
    """Take again, in place, the minors of an (r, r, k) stack whose det or scale leaves float range.

    row_max is the stack's (r, k) row maxima.  A minor with a zero row keeps its scaled value 0.
    """
    normal = (scales >= _SMALLEST_NORMAL) & (scales < math.inf)
    redo = np.flatnonzero(~np.isfinite(dets) | (~normal & row_max.all(axis=0)))
    if redo.size:
        # row i scaled exactly by 2**-e_i, e_i the binary exponent of its max, leaves
        # det / scale as it is and every row max in [0.5, 1); the det is then 2**sum(e_i)
        # times the rescaled one, inf or 0 where that leaves float range, with the exact sign
        exps = np.frexp(row_max[:, redo])[1]
        rescaled = np.ldexp(subs[:, :, redo], -exps[:, None, :])
        again = _dets(rescaled)
        scaled[redo] = _scaled(again, np.abs(rescaled).max(axis=1).prod(axis=0))
        dets[redo] = np.ldexp(again, exps.sum(axis=0))


# det flags some subnormal minors, yet returns them right; minors whose det or
# scale overflows or underflows are taken again with rescaled rows
@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _worst_minor(entries: np.ndarray) -> tuple[float, float, Optional[tuple]]:
    """(scaled, det, (row set, column set)) of the first worst minor of a finite 2-d matrix, by batches."""
    n_rows, n_cols = entries.shape
    flat = np.ascontiguousarray(entries).ravel()
    worst_scaled, worst_det, worst_idx = math.inf, 0.0, None
    kept = _shape_tiles(n_rows, n_cols)
    # a matrix whose every order is one tile is one batch of all orders, any other one batch per tile
    for tiles in [kept] if kept is not None else ([tile] for tile in _tiles(n_rows, n_cols)):
        stacks = [flat.take(index) for _, _, index in tiles]
        row_maxes = [np.abs(subs).max(axis=1) for subs in stacks]
        dets = np.concatenate([_dets(subs) for subs in stacks])
        scales = np.concatenate([row_max.prod(axis=0) for row_max in row_maxes])  # in row order
        scaled = _scaled(dets, scales)
        if not (np.isfinite(dets).all() and _SMALLEST_NORMAL <= scales.min() and scales.max() < math.inf):
            start = 0
            for subs, row_max in zip(stacks, row_maxes):
                part = slice(start, start + subs.shape[2])
                _rescale(subs, row_max, dets[part], scales[part], scaled[part])
                start = part.stop
        k = int(np.argmin(scaled))  # the first of equal minima
        if scaled[k] < worst_scaled:
            worst_scaled = float(scaled[k])
            worst_det = float(dets[k])
            for (rows, cols, _), subs in zip(tiles, stacks):  # the tile that holds minor k
                if k < subs.shape[2]:
                    break
                k -= subs.shape[2]
            row, col = divmod(k, cols.shape[1])
            worst_idx = (tuple(rows[:, row].tolist()), tuple(cols[:, col].tolist()))
    return worst_scaled, worst_det, worst_idx


def total_positivity_check(matrix, tolerance: float = DEFAULT_TP_TOL) -> TPReport:
    """Decide whether every minor of a matrix is nonnegative.

    Accepts a CollocationMatrix or anything array-like.  Refuses a tolerance
    that is NaN, infinite or negative and a matrix with NaN or inf entries.
    A CollocationMatrix whose route collocation() set to "quarter-period
    Vandermonde" is then totally positive by the module docstring's
    factorisation, however many minors it has: the report has that route,
    minors_checked 0, no witness, and None for worst_minor and worst_scaled.
    Every other matrix takes the exhaustive route, which refuses a matrix
    with no minors or more than MINOR_CAP of them.  There a minor with
    determinant det and row-max-norm product scale fails when
    det < -tolerance * scale; a minor whose det or scale leaves float range
    is taken again with its rows rescaled by powers of two.  The witness is
    the first worst minor in the order (size, row set, column set), sets in
    lexicographic order.  The tolerance is reported as a float.
    """
    if not 0.0 <= tolerance <= sys.float_info.max:  # refuses an int beyond the float range too
        raise ValueError(f"tolerance must be finite and >= 0, got {tolerance!r}")
    tolerance = float(tolerance)
    collocated = isinstance(matrix, CollocationMatrix)
    entries = _finite_input(matrix.entries if collocated else matrix,
                            "matrix entries must be finite")  # a NaN minor never compares below the worst
    if entries.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {entries.shape}")
    if collocated and matrix.route == QUARTER_PERIOD_VANDERMONDE:
        return TPReport(is_tp=True, minors_checked=0, worst_minor=None, worst_scaled=None,
                        tolerance=tolerance, witness=None, route=QUARTER_PERIOD_VANDERMONDE)
    n_rows, n_cols = entries.shape
    total = _refuse_over_cap(n_rows, n_cols)
    if total == 0:
        raise ValueError("matrix has no minors")

    worst_scaled, worst_det, worst_idx = _worst_minor(entries)
    is_tp = worst_scaled >= -tolerance
    return TPReport(is_tp=is_tp, minors_checked=total, worst_minor=worst_det, worst_scaled=worst_scaled,
                    tolerance=tolerance, witness=None if is_tp else worst_idx)


def sign_changes_seq(seq) -> int:
    """Strict sign changes S^- of a finite sequence, after discarding near-zeros.

    Entries within SIGN_ZERO_REL_TOL of the largest magnitude count as zero.
    """
    values = _finite_input(seq, "sequence entries must be finite")
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
    pts = _finite_input(points, "hull points must be finite")
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
    hull = lower[:-1] + upper[:-1]  # [0, last] when every point is collinear
    return np.array([uniq[i] for i in hull], dtype=float)


def point_in_hull(point, hull: np.ndarray):
    """Is the point inside (or within HULL_SLACK * diameter of) the hull?

    point is one 2-d point, giving a bool, or an (m, 2) array of points,
    giving one verdict per row.  Points and hull vertices must be finite.
    """
    message = "points and hull vertices must be finite"
    p, hull = _finite_input(point, message), _finite_input(hull, message)
    if hull.ndim != 2 or hull.shape[1] != 2:
        raise ValueError(f"expected (h, 2) hull, got shape {hull.shape}")
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
