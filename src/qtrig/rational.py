"""Rational quantum trigonometric bases and curves.

Positive weights w_k turn the basis into the normalized family

    R_k(x; q) = w_k B_k(x; q) / sum_i w_i B_i(x; q),

a partition of unity.  On quarter-period intervals with q > 0 and positive
weights the rational curve R(x) = sum_k b_k R_k(x; q) interpolates its end
control points, stays in the convex hull of the polygon, is affinely
invariant and diminishes variation.  Mixed-sign weights are accepted for
plain evaluation only, after a grid certificate that the denominator never
vanishes; no shape property is claimed for them.
"""

import math

import numpy as np

from .basis import BasisVector, _basis_vector, basis_all_direct, basis_matrix
from .curve import ControlPolygon, CurveSamples, _finite
from .errors import SingularDenominatorError, _finite_input
from .kernel import Interval

__all__ = [
    "rational_basis_all",
    "rational_evaluate",
    "rational_basis_matrix",
    "rational_sample",
    "denominator_certificate",
    "chord_distance_profile",
    "point_segment_distance",
]

# |denominator| must exceed this fraction of the largest term magnitude.
DENOMINATOR_REL_TOL = 1e-12
CERTIFICATE_GRID = 1024


def _coerce_weights(weights, n: int) -> np.ndarray:
    """Weights w_0..w_n as a finite float vector; shape guarantees need w > 0."""
    if weights is None:
        raise ValueError(f"the rational family needs {n + 1} weights, got None")
    w = _finite_input(weights, "weights must be finite")
    if w.shape != (n + 1,):
        raise ValueError(f"expected {n + 1} weights, got shape {w.shape}")
    return w


def _shape_guaranteed(interval: Interval, q: float, weights=None) -> bool:
    """Do the shape properties hold: a quarter period, q > 0 and every weight > 0 (None: no weights)?"""
    return interval.quarter_period and q > 0 and (weights is None or min(weights.tolist()) > 0.0)


def _weighted_rows(w: np.ndarray, basis: np.ndarray, xs) -> tuple[np.ndarray, np.ndarray]:
    """The terms w_k B_k of the basis rows (m, n+1) and their sums, the denominators.

    Raises SingularDenominatorError at the first x whose sum is not finite or
    not clear of DENOMINATOR_REL_TOL times the row's largest term magnitude:
    rows of zeros, NaN or inf fail, as do rows whose product or sum overflows.
    rational_basis_all applies the same rule to its one row.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # such rows are rejected below
        terms = w * basis
        dens = terms.sum(axis=1)
    clear = np.isfinite(dens) & (np.abs(dens) > DENOMINATOR_REL_TOL * np.abs(terms).max(axis=1))
    if not clear.all():
        i = int(clear.argmin())
        raise SingularDenominatorError(float(xs[i]), float(dens[i]))
    return terms, dens


def rational_basis_all(n: int, x: float, q: float, interval: Interval, weights) -> BasisVector:
    """All rational basis values R_k(x; q); they sum to one exactly up to roundoff.

    Works on the one row of terms w_k B_k: its numpy sum is the row sum of
    rational_basis_matrix, so the two are bit-identical, and the singularity
    rule of _weighted_rows is one scalar test here.  A finite sum has only
    finite terms, so their largest magnitude is taken in floats.
    """
    w = _coerce_weights(weights, n)
    basis = basis_all_direct(n, x, q, interval).values
    with np.errstate(over="ignore", invalid="ignore"):  # such rows are rejected below
        terms = w * basis
        den = float(terms.sum())
    if not (math.isfinite(den) and abs(den) > DENOMINATOR_REL_TOL * max(map(abs, terms.tolist()))):
        raise SingularDenominatorError(float(x), den)
    return _basis_vector(n, q, interval, x, terms / den)


def rational_evaluate(
    polygon: ControlPolygon, weights, x: float, q: float, interval: Interval
) -> np.ndarray:
    """R(x) = sum_k b_k R_k(x; q)."""
    rv = rational_basis_all(polygon.degree, x, q, interval, weights)
    return _finite(rv.values @ polygon.points, "rational curve points")


def denominator_certificate(n: int, q: float, interval: Interval, weights) -> float:
    """Certify sum_k w_k B_k > 0 in magnitude across the interval.

    Scans a uniform grid of CERTIFICATE_GRID points; any sign change between
    neighbours is refined by bisection to locate the crossing, which is
    reported as a singularity.  Returns the smallest |denominator| seen.
    Needed only for mixed-sign weights: positive weights on a quarter period
    cannot produce a zero.
    """
    w = _coerce_weights(weights, n)

    def den_at(x):
        return float((w * basis_all_direct(n, x, q, interval).values).sum())

    xs = np.linspace(interval.a, interval.b, CERTIFICATE_GRID)
    _, dens = _weighted_rows(w, basis_matrix(n, xs, q, interval), xs)
    crossings = np.flatnonzero(np.signbit(dens[:-1]) != np.signbit(dens[1:]))  # dens are nonzero
    if crossings.size:
        i = int(crossings[0])
        lo, hi = float(xs[i]), float(xs[i + 1])
        flo = float(dens[i])
        for _ in range(80):  # bisect the sign change down to roundoff
            mid = 0.5 * (lo + hi)
            fmid = den_at(mid)
            if fmid == 0.0:
                break
            if (flo < 0.0) == (fmid < 0.0):
                lo, flo = mid, fmid
            else:
                hi = mid
        mid = 0.5 * (lo + hi)
        raise SingularDenominatorError(mid, den_at(mid))
    return float(np.abs(dens).min())


def rational_basis_matrix(n: int, xs, q: float, interval: Interval, weights) -> np.ndarray:
    """Rational basis vectors at every point of xs, shape (m, n+1).

    The basis rows come first, with basis_matrix's checks of the interval
    and of xs; mixed-sign weights must then pass denominator_certificate
    over the whole interval.  Row j is bit-identical to
    rational_basis_all(n, xs[j], q, interval, weights).values, and the first
    x_j whose denominator vanishes raises SingularDenominatorError as that
    route does.
    """
    return _rational_rows(n, q, interval, _coerce_weights(weights, n), basis_matrix(n, xs, q, interval), xs)


def _rational_rows(n: int, q: float, interval: Interval, w: np.ndarray, rows: np.ndarray, xs) -> np.ndarray:
    """The rational basis rows of weights w that _coerce_weights has passed, from the (m, n+1) basis rows at xs.

    Mixed-sign weights meet denominator_certificate first, then every row _weighted_rows' rule.
    """
    if not min(w.tolist()) > 0.0:  # a few weights: one float test beats a numpy reduction
        denominator_certificate(n, q, interval, w)
    terms, dens = _weighted_rows(w, rows, xs)
    return terms / dens[:, None]


@np.errstate(over="ignore", invalid="ignore")  # CurveSamples rejects inf and NaN points
def rational_sample(
    polygon: ControlPolygon, weights, q: float, interval: Interval, count: int
) -> CurveSamples:
    """Uniform samples of the rational curve, endpoints included.

    Mixed-sign weights trigger the grid certificate first.  The samples are
    tagged "rational" on a quarter period with q > 0 and positive weights,
    where the shape properties hold, and "rational-no-shape-guarantee"
    otherwise.  Sample j is bit-identical to rational_evaluate at the same x.
    """
    if count < 2:
        raise ValueError(f"need at least 2 samples, got {count}")
    w = _coerce_weights(weights, polygon.degree)
    xs = np.linspace(interval.a, interval.b, count)
    basis = _rational_rows(polygon.degree, q, interval, w, basis_matrix(polygon.degree, xs, q, interval), xs)
    points = np.matmul(basis[:, None, :], polygon.points)[:, 0]  # per row, as in rational_evaluate
    tag = "rational" if _shape_guaranteed(interval, q, w) else "rational-no-shape-guarantee"
    return CurveSamples(xs, points, tag)


def point_segment_distance(p, s0, s1):
    """Euclidean distance from p to the segment [s0, s1].

    p is one point, giving a float, or an (m, dim) array of points, giving
    one distance per row.
    """
    message = "point and segment ends must be finite"
    p, s0, s1 = (_finite_input(v, message) for v in (p, s0, s1))
    seg = s1 - s0
    denom = float(seg @ seg)
    t = 0.0 if denom == 0.0 else np.clip((p - s0) @ seg / denom, 0.0, 1.0)[..., None]
    dist = np.linalg.norm(p - (s0 + t * seg), axis=-1)
    return float(dist) if p.ndim == 1 else dist


def chord_distance_profile(samples: CurveSamples, b_first, b_last) -> float:
    """Largest distance from the sampled curve to the chord [b_first, b_last].

    Planar curves only.
    """
    b_first, b_last = (_finite_input(b, "chord endpoints must be finite") for b in (b_first, b_last))
    if b_first.shape != (2,) or b_last.shape != (2,):
        raise ValueError("chord endpoints must be 2-d points")
    if samples.points.shape[1:] != (2,):
        raise ValueError(f"chord profile needs 2-d samples, got shape {samples.points.shape}")
    return float(point_segment_distance(samples.points, b_first, b_last).max(initial=0.0))
