"""Quantum trigonometric Bezier-type curves and their corner-cutting schemes.

A control polygon b_0..b_n and a certified interval define the curve
P(x) = sum_k b_k B_k(x; q).  Two de Casteljau-style algorithms evaluate P by
repeated convex-like combinations; their intermediate points also satisfy
closed-form expressions that this module exposes for cross-checking.

Sampled curves can be tested for membership in the trigonometric space

    T_n = span{sin^(n-k)(x) cos^k(x), k = 0..n}
        = span{1, cos 2x, sin 2x, ..., cos nx, sin nx}        (n even)
        = span{cos x, sin x, cos 3x, sin 3x, ..., cos nx, sin nx}  (n odd)

by a least-squares fit; the curve coordinates always live in T_n.
"""

import math
from dataclasses import dataclass

import numpy as np

from .basis import _product_chain, basis_all_direct, basis_matrix
from .errors import FloatRangeError, IllConditionedFitError
from .kernel import Interval, kernel_tables
from .qcalc import q_binomial_row, q_powers, validate_q

__all__ = [
    "ControlPolygon",
    "CurveSample",
    "CurveSamples",
    "DeCasteljauTableau",
    "evaluate_direct",
    "evaluate_alg1",
    "evaluate_alg2",
    "intermediate_explicit",
    "sample_curve",
    "tn_design_matrix",
    "tn_membership_residual",
]

FIT_CONDITION_LIMIT = 1e12


@dataclass(frozen=True)
class ControlPolygon:
    """Ordered control points, shape (n+1, dim)."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:  # scalar controls are allowed as a flat list
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
            raise ValueError(f"control points must be (n+1, dim), got {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("control points must be finite")
        object.__setattr__(self, "points", pts)

    @property
    def degree(self) -> int:
        return self.points.shape[0] - 1

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def diameter(self) -> float:
        diffs = self.points[:, None, :] - self.points[None, :, :]
        return float(np.sqrt((diffs ** 2).sum(axis=2)).max())


def _finite(points: np.ndarray, what: str) -> np.ndarray:
    """points, once checked finite; inf or NaN raises FloatRangeError."""
    if points.ndim == 1:  # one point: a few Python floats cost less than a numpy reduction
        finite = all(map(math.isfinite, points.tolist()))
    else:
        finite = np.isfinite(points).all()
    if not finite:
        raise FloatRangeError(f"{what} leave float64")
    return points


@dataclass(frozen=True)
class CurveSample:
    x: float
    point: np.ndarray
    method: str


@dataclass(frozen=True)
class CurveSamples:
    """A sampled curve as columns: x has shape (m,), points (m, dim).

    Indexing gives the CurveSample at one x, so the block also reads as a
    sequence of samples.  Points that are inf or NaN raise FloatRangeError.
    """

    x: np.ndarray
    points: np.ndarray
    method: str

    def __post_init__(self):
        _finite(self.points, f"{self.method} curve points")

    def __len__(self) -> int:
        return len(self.x)

    def __getitem__(self, j: int) -> CurveSample:
        return CurveSample(float(self.x[j]), self.points[j], self.method)


@dataclass(frozen=True)
class DeCasteljauTableau:
    """Triangular scheme: rows[r] holds the n+1-r points of stage r."""

    variant: str  # "alg1" or "alg2"
    x: float
    q: float
    interval: Interval
    rows: tuple[np.ndarray, ...]

    @property
    def degree(self) -> int:
        return len(self.rows) - 1

    @property
    def apex(self) -> np.ndarray:
        return self.rows[-1][0]

    def entry(self, r: int, k: int) -> np.ndarray:
        return self.rows[r][k]


def evaluate_direct(polygon: ControlPolygon, x: float, q: float, interval: Interval) -> np.ndarray:
    """P(x) as the basis-weighted sum of control points."""
    bv = basis_all_direct(polygon.degree, x, q, interval)
    return _finite(bv.values @ polygon.points, "direct curve points")


def _stages(work, d_ax, d_xb, d_ab, q, variant):
    """Yield stages 0..n of the alg1/alg2 scheme, stage 0 being work itself.

    work is (n+1, dim) with the kernel_tables of one x, or (m, n+1, dim)
    with the kernel_tables of m points; stage r then has n+1-r entries on
    the second-to-last axis.  evaluate_alg1 and evaluate_alg2 state the step.
    """
    n = len(d_ab)
    powers = np.array(q_powers(float(q), n))
    d_ax, d_xb = np.array(d_ax).T, np.array(d_xb).T  # (n,) or (m, n)
    yield work
    for r in range(n):
        den = d_ab[n - r - 1]
        lower = d_xb[..., n - r - 1::-1] / den
        upper = d_ax[..., : n - r] / den
        if variant == "alg1":
            lower = powers[: n - r] * lower
        else:
            upper = powers[n - r - 1::-1] * upper
        work = lower[..., None] * work[..., :-1, :] + upper[..., None] * work[..., 1:, :]
        yield work


def _tableau(polygon, x, q, interval, variant):
    q = validate_q(q)
    tables = kernel_tables(interval, x, q, polygon.degree)
    rows = tuple(_stages(polygon.points.copy(), *tables, q, variant))
    _finite(rows[-1][0], f"{variant} curve points")  # inf and NaN reach the apex
    return DeCasteljauTableau(variant=variant, x=x, q=q, interval=interval, rows=rows)


def evaluate_alg1(polygon: ControlPolygon, x: float, q: float, interval: Interval) -> DeCasteljauTableau:
    """Corner-cutting scheme with weight q^k on the kept point:

    b_k^(r+1) = q^k (d(x,b;q^(n-r-k-1))/d(a,b;q^(n-r-1))) b_k^r
              +     (d(a,x;q^k)        /d(a,b;q^(n-r-1))) b_(k+1)^r
    """
    return _tableau(polygon, x, q, interval, "alg1")


def evaluate_alg2(polygon: ControlPolygon, x: float, q: float, interval: Interval) -> DeCasteljauTableau:
    """Corner-cutting scheme with weight q^(n-r-k-1) on the advanced point:

    b_k^(r+1) =               (d(x,b;q^(n-r-k-1))/d(a,b;q^(n-r-1))) b_k^r
              + q^(n-r-k-1)   (d(a,x;q^k)        /d(a,b;q^(n-r-1))) b_(k+1)^r
    """
    return _tableau(polygon, x, q, interval, "alg2")


def intermediate_explicit(
    variant: str,
    r: int,
    k: int,
    x: float,
    polygon: ControlPolygon,
    q: float,
    interval: Interval,
) -> np.ndarray:
    """Closed form of the stage-r tableau point k, without running the scheme.

    Both variants share the structure

        sum_{j=0}^{r} prefactor(j) b_(k+j) [r choose j]_q
            * prod_{i=0}^{j-1}   d(a, x; q^(i+k))
            * prod_{i=0}^{r-j-1} d(x, b; q^(i+n-r-k))
            / prod_{i=0}^{r-1}   d(a, b; q^(i+n-r))

    with prefactor q^(k(r-j)) for "alg1" and q^(j(n-r-k)) for "alg2".
    """
    if variant not in ("alg1", "alg2"):
        raise ValueError(f"variant must be 'alg1' or 'alg2', got {variant!r}")
    n = polygon.degree
    if r < 0 or r > n or k < 0 or k > n - r:
        raise IndexError(f"tableau entry (r={r}, k={k}) outside degree-{n} scheme")
    q = validate_q(q)
    d_ax, d_xb, d_ab = kernel_tables(interval, x, q, n)
    alg1 = variant == "alg1"
    try:  # the prefactor times [r j]_q starts chain j
        start = [q ** (k * (r - j) if alg1 else j * (n - r - k)) * c
                 for j, c in enumerate(q_binomial_row(r, q))]
    except OverflowError:  # raised by the power of q; fails the test below
        start = [math.inf]
    if not all(map(math.isfinite, start)):
        raise FloatRangeError(f"degree {n}, q={q!r}: a prefactor q^e [r j]_q overflows float64")
    coeffs = _product_chain(start, d_ax[k:k + r], d_xb[n - r - k:n - k], d_ab[n - r:], n, q)
    acc = np.zeros(polygon.dim)
    for j, c in enumerate(coeffs):
        acc += c * polygon.points[k + j]
    return _finite(acc, f"{variant} tableau points")


_METHODS = ("direct", "alg1", "alg2")


@np.errstate(over="ignore", invalid="ignore")  # CurveSamples rejects inf and NaN points
def sample_curve(
    polygon: ControlPolygon,
    q: float,
    interval: Interval,
    count: int,
    method: str = "direct",
) -> CurveSamples:
    """Uniform samples of P over [a, b], endpoints included.

    Sample j is bit-identical to evaluate_direct, or to the evaluate_alg1 or
    evaluate_alg2 apex, at the same x.
    """
    if count < 2:
        raise ValueError(f"need at least 2 samples, got {count}")
    if method not in _METHODS:
        raise ValueError(f"unknown method {method!r}, expected one of {sorted(_METHODS)}")
    xs = np.linspace(interval.a, interval.b, count)
    if method == "direct":
        basis = basis_matrix(polygon.degree, xs, q, interval)
        # one vector-matrix product per row, as evaluate_direct takes it;
        # a plain basis @ points may round differently
        points = np.matmul(basis[:, None, :], polygon.points)[:, 0]
    else:
        tables = kernel_tables(interval, xs, q, polygon.degree)  # validates q
        work = np.broadcast_to(polygon.points, (len(xs),) + polygon.points.shape)
        for work in _stages(work, *tables, q, method):
            pass  # only the last stage is kept; its one entry per x is the apex
        points = work[:, 0].copy()
    return CurveSamples(xs, points, method)


def tn_design_matrix(xs: np.ndarray, n: int) -> np.ndarray:
    """Columns of the order-n trigonometric space evaluated at xs."""
    xs = np.asarray(xs, dtype=float)
    cols = []
    if n % 2 == 0:
        cols.append(np.ones_like(xs))
        freqs = range(2, n + 1, 2)
    else:
        freqs = range(1, n + 1, 2)
    for f in freqs:
        cols.append(np.cos(f * xs))
        cols.append(np.sin(f * xs))
    return np.column_stack(cols)


def tn_membership_residual(samples: CurveSamples, n: int) -> float:
    """Worst per-coordinate RMS residual of a least-squares fit in T_n.

    A residual near zero certifies that the sampled coordinates lie in the
    trigonometric space; a residual far from zero rules membership out.
    Needs at least 2(n+1) samples.  Solved by normal equations, guarded by
    a condition-number cap.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if len(samples) < 2 * (n + 1):
        raise ValueError(
            f"need at least {2 * (n + 1)} samples for degree {n}, got {len(samples)}"
        )
    ys = samples.points
    design = tn_design_matrix(samples.x, n)
    gram = design.T @ design
    condition = float(np.linalg.cond(gram))
    if condition > FIT_CONDITION_LIMIT:
        raise IllConditionedFitError(condition, FIT_CONDITION_LIMIT)
    coef = np.linalg.solve(gram, design.T @ ys)
    resid = design @ coef - ys
    rms = np.sqrt((resid ** 2).mean(axis=0))
    return float(rms.max())
