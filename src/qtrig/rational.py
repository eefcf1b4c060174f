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

from dataclasses import dataclass

import numpy as np

from .basis import BasisVector, basis_all_direct, basis_matrix
from .curve import ControlPolygon, CurveSample
from .errors import SingularDenominatorError
from .kernel import Interval

__all__ = [
    "WeightVector",
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


@dataclass(frozen=True)
class WeightVector:
    """Weights w_0..w_n; shape guarantees require every entry positive."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size < 1:
            raise ValueError(f"weights must be a 1-d vector, got shape {w.shape}")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        object.__setattr__(self, "weights", w)

    @property
    def all_positive(self) -> bool:
        return bool(np.all(self.weights > 0.0))

    def __len__(self) -> int:
        return self.weights.size


def _coerce_weights(weights, n: int) -> np.ndarray:
    w = weights.weights if isinstance(weights, WeightVector) else np.asarray(weights, dtype=float)
    if w.shape != (n + 1,):
        raise ValueError(f"expected {n + 1} weights, got shape {w.shape}")
    if not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite")
    return w


def _weighted_terms(n, x, q, interval, w):
    terms = w * basis_all_direct(n, x, q, interval).values
    den = float(terms.sum())
    scale = float(np.abs(terms).max())
    if scale == 0.0 or abs(den) <= DENOMINATOR_REL_TOL * scale:
        raise SingularDenominatorError(x, den)
    return terms, den


def rational_basis_all(n: int, x: float, q: float, interval: Interval, weights) -> BasisVector:
    """All rational basis values R_k(x; q); they sum to one exactly up to roundoff."""
    w = _coerce_weights(weights, n)
    terms, den = _weighted_terms(n, x, q, interval, w)
    return BasisVector(degree=n, q=q, interval=interval, x=x, values=terms / den)


def rational_evaluate(
    polygon: ControlPolygon, weights, x: float, q: float, interval: Interval
) -> np.ndarray:
    """R(x) = sum_k b_k R_k(x; q)."""
    rv = rational_basis_all(polygon.degree, x, q, interval, weights)
    return rv.values @ polygon.points


def denominator_certificate(
    n: int, q: float, interval: Interval, weights, grid: int = CERTIFICATE_GRID
) -> float:
    """Certify sum_k w_k B_k > 0 in magnitude across the interval.

    Scans a uniform grid; any sign change between neighbours is refined by
    bisection to locate the crossing, which is reported as a singularity.
    Returns the smallest |denominator| seen.  Needed only for mixed-sign
    weights: positive weights on a quarter period cannot produce a zero.
    """
    w = _coerce_weights(weights, n)

    def den_at(x):
        return float((w * basis_all_direct(n, x, q, interval).values).sum())

    xs = np.linspace(interval.a, interval.b, grid)
    terms = w * basis_matrix(n, xs, q, interval)
    dens = terms.sum(axis=1)
    scales = np.abs(terms).max(axis=1)
    singular = (scales > 0.0) & (np.abs(dens) <= DENOMINATOR_REL_TOL * scales)
    if singular.any():
        i = int(singular.argmax())
        raise SingularDenominatorError(float(xs[i]), float(dens[i]))
    crossings = np.flatnonzero(dens[:-1] * dens[1:] < 0.0)
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

    Mixed-sign weights must first pass denominator_certificate over the
    whole interval.  Row j is then bit-identical to
    rational_basis_all(n, xs[j], q, interval, weights).values, and the first
    x_j whose denominator vanishes raises SingularDenominatorError as that
    route does.
    """
    w = _coerce_weights(weights, n)
    if not np.all(w > 0.0):
        denominator_certificate(n, q, interval, w)
    return _rational_rows(n, xs, q, interval, w)


def _rational_rows(n, xs, q, interval, weights):
    """rational_basis_all at every x, with its per-point singularity rule only."""
    terms = _coerce_weights(weights, n) * basis_matrix(n, xs, q, interval)
    dens = terms.sum(axis=1)
    scales = np.abs(terms).max(axis=1)
    singular = (scales == 0.0) | (np.abs(dens) <= DENOMINATOR_REL_TOL * scales)
    if singular.any():
        i = int(singular.argmax())
        raise SingularDenominatorError(float(xs[i]), float(dens[i]))
    return terms / dens[:, None]


def rational_sample(
    polygon: ControlPolygon, weights, q: float, interval: Interval, count: int
) -> list[CurveSample]:
    """Uniform samples of the rational curve, endpoints included.

    Mixed-sign weights trigger the grid certificate first and the samples
    are tagged as carrying no shape guarantee.  Sample j is bit-identical to
    rational_evaluate at the same x.
    """
    if count < 2:
        raise ValueError(f"need at least 2 samples, got {count}")
    w = _coerce_weights(weights, polygon.degree)
    tag = "rational" if np.all(w > 0.0) else "rational-no-shape-guarantee"
    xs = np.linspace(interval.a, interval.b, count)
    basis = rational_basis_matrix(polygon.degree, xs, q, interval, w)
    points = np.matmul(basis[:, None, :], polygon.points)[:, 0]  # per row, as in rational_evaluate
    return [CurveSample(float(x), p, tag) for x, p in zip(xs, points)]


def point_segment_distance(p, s0, s1) -> float:
    """Euclidean distance from p to the segment [s0, s1]."""
    p = np.asarray(p, dtype=float)
    s0 = np.asarray(s0, dtype=float)
    s1 = np.asarray(s1, dtype=float)
    seg = s1 - s0
    denom = float(seg @ seg)
    if denom == 0.0:
        return float(np.linalg.norm(p - s0))
    t = float((p - s0) @ seg) / denom
    t = min(1.0, max(0.0, t))
    return float(np.linalg.norm(p - (s0 + t * seg)))


def chord_distance_profile(samples: list[CurveSample], b_first, b_last) -> float:
    """Largest distance from the sampled curve to the chord [b_first, b_last].

    Planar curves only.
    """
    b_first = np.asarray(b_first, dtype=float)
    b_last = np.asarray(b_last, dtype=float)
    if b_first.shape != (2,) or b_last.shape != (2,):
        raise ValueError("chord endpoints must be 2-d points")
    worst = 0.0
    for s in samples:
        pt = np.atleast_1d(s.point)
        if pt.shape != (2,):
            raise ValueError(f"chord profile needs 2-d samples, got shape {pt.shape}")
        worst = max(worst, point_segment_distance(pt, b_first, b_last))
    return worst
