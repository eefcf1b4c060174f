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

The schemes run on two stage paths with the same operations in the same
order, so their results are bit-identical: _tableau steps one x in Python
floats, entry by entry, and _stages steps the numpy arrays of a sample_curve
sweep, one stage at a time for all points.  Numpy's per-call overhead
dominates on the few entries of one x, and a Python loop over entries
would slow the sweeps.
"""

import math
from dataclasses import dataclass

import numpy as np

from .basis import _product_chain, basis_all_direct, basis_matrix
from .errors import FloatRangeError, IllConditionedFitError
from .kernel import Interval, _den_product, _plan, _tables
from .qcalc import q_binomial_row

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
    def apex(self) -> np.ndarray:
        return self.rows[-1][0]


def evaluate_direct(polygon: ControlPolygon, x: float, q: float, interval: Interval) -> np.ndarray:
    """P(x) as the basis-weighted sum of control points."""
    bv = basis_all_direct(polygon.degree, x, q, interval)
    return _finite(bv.values @ polygon.points, "direct curve points")


def _stages(work, d_ax, d_xb, plan, variant):
    """Yield stages 0..n of the alg1/alg2 scheme at m points, stage 0 being work itself.

    work is (dim, m, n+1) and d_ax, d_xb hold the (m,) columns of the kernel
    tables of the m points, both from plan: the entries run along the last,
    contiguous axis, and stage r has n+1-r of them.  sample_curve runs it;
    a single x is stepped in floats by _tableau, with the same operations
    in the same order.  evaluate_alg1 and evaluate_alg2 state the step.
    """
    n, d_ab, powers = plan.n, plan.d_ab, plan.power_array
    d_ax, d_xb = np.array(d_ax).T, np.array(d_xb).T  # (m, n)
    yield work
    for r in range(n):
        den = d_ab[n - r - 1]
        lower = d_xb[..., n - r - 1::-1] / den
        upper = d_ax[..., : n - r] / den
        if variant == "alg1":
            lower = powers[: n - r] * lower
        else:
            upper = powers[n - r - 1::-1] * upper
        work = lower * work[..., :-1] + upper * work[..., 1:]
        yield work


def _tableau(polygon, x, q, interval, variant):
    """The alg1/alg2 tableau at one x, stepped entry by entry in Python floats.

    Entry k of stage r+1 is lower * b_k + upper * b_(k+1) per coordinate,
    with lower = d(x,b;q^(n-r-1-k)) / d(a,b;q^(n-r-1)) and
    upper = d(a,x;q^k) / d(a,b;q^(n-r-1)), and the q-power multiplying lower
    (alg1) or upper (alg2) from the left: the operations of _stages in the
    same order, so the rows are bit-identical to a sweep's.  The entries of
    all stages fill one (N, dim) array, and rows[r] is a view of its
    stage-r block.
    """
    plan = _plan(interval, q, polygon.degree)
    d_ax, d_xb = _tables(plan, interval, x, plan.q)
    n, d_ab, powers = plan.n, plan.d_ab, plan.powers
    alg1 = variant == "alg1"
    stage = polygon.points.tolist()
    entries = stage[:]
    for size in range(n, 0, -1):  # stage n + 1 - size has size entries
        den = d_ab[size - 1]
        nxt = []
        for k in range(size):
            lower = d_xb[size - 1 - k] / den
            upper = d_ax[k] / den
            if alg1:
                lower = powers[k] * lower
            else:
                upper = powers[size - 1 - k] * upper
            nxt.append([lower * u + upper * v for u, v in zip(stage[k], stage[k + 1])])
        entries += nxt
        stage = nxt
    flat = np.array(entries)
    rows, start = [], 0
    for size in range(n + 1, 0, -1):
        rows.append(flat[start:start + size])
        start += size
    _finite(flat[-1], f"{variant} curve points")  # inf and NaN reach the apex
    return DeCasteljauTableau(variant=variant, x=x, q=plan.q, interval=interval, rows=tuple(rows))


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

    with prefactor q^(k(r-j)) for "alg1" and q^(j(n-r-k)) for "alg2".  The
    basis product chain takes the windows d(a, x; q^(k..k+r-1)) and
    d(x, b; q^(n-r-k..n-k-1)) of the kernel tables, and its prefix products
    start at the first entry of each window.
    """
    if variant not in ("alg1", "alg2"):
        raise ValueError(f"variant must be 'alg1' or 'alg2', got {variant!r}")
    n = polygon.degree
    if r < 0 or r > n or k < 0 or k > n - r:
        raise IndexError(f"tableau entry (r={r}, k={k}) outside degree-{n} scheme")
    plan = _plan(interval, q, n)
    q = plan.q
    d_ax, d_xb = _tables(plan, interval, x, q)
    alg1 = variant == "alg1"
    try:  # the prefactor times [r j]_q starts chain j
        start = [q ** (k * (r - j) if alg1 else j * (n - r - k)) * c
                 for j, c in enumerate(q_binomial_row(r, q))]
    except OverflowError:  # raised by the power of q; fails the test below
        start = [math.inf]
    if not all(map(math.isfinite, start)):
        raise FloatRangeError(f"degree {n}, q={q!r}: a prefactor q^e [r j]_q overflows float64")
    den, den_in_range = _den_product(plan.d_ab[n - r:n])
    coeffs = _product_chain(start, d_ax[k:k + r], d_xb[n - r - k:n - k], den, den_in_range, n, q)
    acc = [0.0] * polygon.dim  # summed in floats, coordinate by coordinate, in the order of j
    for c, point in zip(coeffs, polygon.points[k:k + r + 1].tolist()):
        acc = [s + c * v for s, v in zip(acc, point)]
    return _finite(np.array(acc), f"{variant} tableau points")


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
        plan = _plan(interval, q, polygon.degree)
        d_ax, d_xb = _tables(plan, interval, xs, q, columns=True)
        dim, size = polygon.dim, polygon.degree + 1
        work = np.broadcast_to(polygon.points.T[:, None, :], (dim, len(xs), size))
        for work in _stages(work, d_ax, d_xb, plan, method):
            pass  # only the last stage is kept; its one entry per x is the apex
        points = work[..., 0].T.copy()
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
