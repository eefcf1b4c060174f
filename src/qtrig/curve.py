"""Quantum trigonometric Bezier-type curves and their corner-cutting schemes.

A control polygon b_0..b_n and a certified interval define the curve
P(x) = sum_k b_k B_k(x; q).  Two de Casteljau-style algorithms evaluate P by
repeated convex-like combinations; their intermediate points also satisfy
closed-form expressions that this module exposes for cross-checking.
P lies in T_n: each B_k is a homogeneous degree-n form in sin x and cos x.

Both schemes run on two paths, chosen by the input, with one order of
operations.  One x (evaluate_alg1, evaluate_alg2) runs _tableau, entry by
entry on the Python floats of its kernel tables, and keeps every stage.
A sample_curve sweep of m points runs _sweep, one numpy step per stage on
a stacked (n + 1, dim, m) stage, and keeps the apexes; each of its
elements meets the operations of _tableau in their order, so a sweep's
apexes are bit-identical to the per-point ones.  A sweep's cost is
its count of numpy calls more than its arithmetic, so _sweep makes six
per stage, about 180 at n = 30, not six per entry, about 2,800.  It
steps at most _SWEEP_BLOCK = 4096 points at once, so its buffers hold
about (2 dim + 4) n min(m, 4096) floats; a longer sweep goes block by block.
"""

import math
from dataclasses import dataclass
from itertools import accumulate
from operator import mul

import numpy as np

from .basis import basis_all_direct, basis_matrix
from .errors import FloatRangeError, _finite_input
from .kernel import Interval, _checked_den, _tables
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
]


# Most points of a sample_curve alg1/alg2 sweep stepped at once: its buffers
# hold about (2 dim + 4) n _SWEEP_BLOCK floats, 9.8 MB at n = 30 in 3-d.
_SWEEP_BLOCK = 4096


@dataclass(frozen=True, eq=False)  # holds arrays: == and hash are by identity
class ControlPolygon:
    """Ordered control points, shape (n+1, dim): a read-only copy of the checked input."""

    points: np.ndarray

    def __post_init__(self):
        pts = _finite_input(self.points, "control points must be finite")
        if pts.ndim == 1:  # scalar controls are allowed as a flat list
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
            raise ValueError(f"control points must be (n+1, dim), got {pts.shape}")
        pts = pts.copy()  # a later edit of the caller's array reaches no polygon
        pts.flags.writeable = False
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


@dataclass(frozen=True, eq=False)  # holds arrays: == and hash are by identity
class CurveSample:
    x: float
    point: np.ndarray
    method: str


@dataclass(frozen=True, eq=False)  # holds arrays: == and hash are by identity
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


@dataclass(frozen=True, eq=False)  # holds arrays: == and hash are by identity
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


def _sweep(polygon, xs, q, interval, variant):
    """The (m, dim) apexes of the alg1/alg2 scheme at the m points of xs, one numpy step per stage.

    xs is taken in blocks of at most _SWEEP_BLOCK points, so the buffers
    below are bounded whatever m.  The kernel columns of a block are stacked
    into (n, m) tables; the lists _tables returns are dropped then, before
    the stage buffers are made.  Stage r is the first n + 1 - r rows of one
    (n + 1, dim, m) array, which starts as a copy of the control points; each
    stage of size entries takes _tableau's lower and upper of all of them as
    (size, m) rows, then forms upper * b_(k+1) in a second buffer, multiplies
    b_k by lower in place and adds the two.  Every element meets _tableau's
    operations in their order, whatever block it falls in.
    """
    apexes = np.empty((len(xs), polygon.dim))
    alg1 = variant == "alg1"
    for start in range(0, len(xs), _SWEEP_BLOCK):
        block = xs[start:start + _SWEEP_BLOCK]
        plan, d_ax, d_xb = _tables(interval, block, q, polygon.degree, columns=True)
        d_ax, d_xb = np.array(d_ax), np.array(d_xb)
        n, m = plan.n, len(block)
        stage = np.empty((n + 1, polygon.dim, m))
        stage[:] = polygon.points[:, :, None]
        if n:
            powers = np.array(plan.powers[:n])[:, None]
            lower, upper, cross = np.empty((n, m)), np.empty((n, m)), np.empty_like(stage[1:])
            for size in range(n, 0, -1):  # stage n + 1 - size has size entries
                den = plan.d_ab[size - 1]
                low, up, prod = lower[:size], upper[:size], cross[:size]
                np.divide(d_xb[size - 1::-1], den, out=low)
                np.divide(d_ax[:size], den, out=up)
                if alg1:
                    np.multiply(powers[:size], low, out=low)
                else:
                    np.multiply(powers[size - 1::-1], up, out=up)
                np.multiply(up[:, None], stage[1:size + 1], out=prod)
                head = stage[:size]
                head *= low[:, None]
                head += prod
        apexes[start:start + m] = stage[0].T
    return apexes


def _tableau(polygon, x, q, interval, variant):
    """The alg1/alg2 tableau at one x, stage by stage and entry by entry on Python floats.

    A stage is a list of entries, an entry a list of float coordinates, and
    d_ax and d_xb are the float kernel tables of x.  Entry k of stage r+1 is
    lower * b_k + upper * b_(k+1) per coordinate, with
    lower = d(x,b;q^(n-r-1-k)) / d(a,b;q^(n-r-1)) and
    upper = d(a,x;q^k) / d(a,b;q^(n-r-1)), and the q-power multiplying lower
    (alg1) or upper (alg2) from the left.  evaluate_alg1 and evaluate_alg2
    state the step.  The entries of all stages fill one (N, dim) array, and
    rows[r] is a view of its stage-r block.
    """
    plan, d_ax, d_xb = _tables(interval, x, q, polygon.degree)
    d_ab, powers = plan.d_ab, plan.powers
    alg1 = variant == "alg1"
    stage = polygon.points.tolist()
    entries = stage[:]  # the entries of every stage, stage 0 first
    for size in range(plan.n, 0, -1):  # stage n + 1 - size has size entries
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
        stage = nxt
        entries += stage
    flat = np.array(entries)
    rows, start = [], 0
    for size in range(plan.n + 1, 0, -1):
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


def _product_chain(row, pa, pb, den):
    """row[j] * pa[j] * pb[r-j] / den for j = 0..r, from r + 1 running products of two kernel windows.

    The operations and order of kernel._products; den is checked by the caller.
    """
    return [c * a * b / den for c, a, b in zip(row, pa, reversed(pb))]


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
    _product_chain takes the prefix products of the windows
    d(a, x; q^(k..k+r-1)) and d(x, b; q^(n-r-k..n-k-1)) of the kernel
    tables, each starting at the first entry of its window.
    """
    if variant not in ("alg1", "alg2"):
        raise ValueError(f"variant must be 'alg1' or 'alg2', got {variant!r}")
    n = polygon.degree
    if r < 0 or r > n or k < 0 or k > n - r:
        raise IndexError(f"tableau entry (r={r}, k={k}) outside degree-{n} scheme")
    plan, d_ax, d_xb = _tables(interval, x, q, n)
    q = plan.q
    alg1 = variant == "alg1"
    try:  # the prefactor times [r j]_q starts chain j
        start = [q ** (k * (r - j) if alg1 else j * (n - r - k)) * c
                 for j, c in enumerate(q_binomial_row(r, q))]
    except OverflowError:  # raised by the power of q; fails the test below
        start = [math.inf]
    if not all(map(math.isfinite, start)):
        raise FloatRangeError(f"degree {n}, q={q!r}: a prefactor q^e [r j]_q overflows float64")
    den = _checked_den(math.prod(plan.d_ab[n - r:n]), n, q)
    pa = list(accumulate(d_ax[k:k + r], mul, initial=1.0))
    pb = list(accumulate(d_xb[n - r - k:n - k], mul, initial=1.0))
    coeffs = _product_chain(start, pa, pb, den)
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
    evaluate_alg2 apex, at the same x: alg1 and alg2 take those routes'
    steps in _sweep, on the kernel columns of all samples.
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
        points = _sweep(polygon, xs, q, interval, method)
    return CurveSamples(xs, points, method)
