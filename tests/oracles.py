"""Independent oracles used by the test suite.

Exact rational arithmetic for the q-combinatorics and 30-digit mpmath for
kernel, basis and curve values.  Everything here is deliberately separate
from the production code paths: different arithmetic, and where possible a
different formula (e.g. the quarter-period closed form instead of kernel
products).  product_chain_reference is the product formula taken as
accumulate's prefix products of the kernel tables, which the running
products of the production route must match bit for bit.
tableau_reference is the alg1/alg2 step one entry at a time, in
the operation order of the production stages, which must match it bit for
bit.  monomial_tp_reference runs the production minor checker on a
matrix known to be totally positive, as a sanity reference for the checker;
total_positivity_reference is the checker's loop, one determinant per minor,
which the batched checker must match bit for bit.

classical_trig_basis is the q = 1 closed form, taken from math.sin alone so
that it shares no code with the kernel tables.  tn_membership_residual fits
sampled coordinates by least squares in the trigonometric space

    T_n = span{sin^(n-k)(x) cos^k(x), k = 0..n}
        = span{1, cos 2x, sin 2x, ..., cos nx, sin nx}        (n even)
        = span{cos x, sin x, cos 3x, sin 3x, ..., cos nx, sin nx}  (n odd)

whose columns tn_design_matrix gives; curve coordinates lie in T_n because
each B_k is a homogeneous form of degree n in sin x and cos x.
"""

import math
from fractions import Fraction
from itertools import accumulate, combinations
from operator import mul

import mpmath as mp
import numpy as np

from qtrig import TPReport, kernel_tables, q_binomial_row, total_positivity_check
from qtrig.qcalc import q_powers

DPS = 30


def qint_exact(k: int, q: Fraction) -> Fraction:
    return sum((q ** i for i in range(k)), Fraction(0))


def qfact_exact(k: int, q: Fraction) -> Fraction:
    out = Fraction(1)
    for j in range(2, k + 1):
        out *= qint_exact(j, q)
    return out


def qbinom_exact(n: int, k: int, q: Fraction) -> Fraction:
    if k < 0 or k > n:
        return Fraction(0)
    return qfact_exact(n, q) / (qfact_exact(k, q) * qfact_exact(n - k, q))


def d_mp(x, y, q, dps=DPS) -> mp.mpf:
    with mp.workdps(dps):
        x, y, q = mp.mpf(x), mp.mpf(y), mp.mpf(q)
        return (q + 1) / 2 * mp.sin(y - x) + (q - 1) / 2 * mp.sin(y + x)


def _qbinom_row_mp(n, q):
    row = [mp.mpf(1)]
    for m in range(1, n + 1):
        prev = row
        row = [mp.mpf(1)] * (m + 1)
        for k in range(1, m):
            row[k] = prev[k] + q ** (m - k) * prev[k - 1]
    return row


def basis_direct_mp(n: int, k: int, x, q, a, b) -> mp.mpf:
    """Product-formula basis value at 30 significant digits."""
    with mp.workdps(DPS):
        x, q, a, b = mp.mpf(x), mp.mpf(q), mp.mpf(a), mp.mpf(b)
        num = _qbinom_row_mp(n, q)[k]
        for i in range(k):
            num *= d_mp(a, x, q ** i)
        for i in range(n - k):
            num *= d_mp(x, b, q ** i)
        den = mp.mpf(1)
        for i in range(n):
            den *= d_mp(a, b, q ** i)
        return num / den


def basis_row_mp(n: int, x, q, a, b, dps=60) -> list:
    """All n + 1 product-formula basis values at dps significant digits.

    The kernel is taken in its affine form, which loses up to log10 |q^(n-1)|
    digits to cancellation; the default leaves more than 35 for |q| <= 3 and
    n <= 40.
    """
    with mp.workdps(dps):
        x, q, a, b = mp.mpf(x), mp.mpf(q), mp.mpf(a), mp.mpf(b)
        d_ax = [d_mp(a, x, q ** i, dps) for i in range(n)]
        d_xb = [d_mp(x, b, q ** i, dps) for i in range(n)]
        den = mp.fprod(d_mp(a, b, q ** i, dps) for i in range(n))
        row = _qbinom_row_mp(n, q)
        return [row[k] * mp.fprod(d_ax[:k]) * mp.fprod(d_xb[:n - k]) / den for k in range(n + 1)]


def quarter_basis_mp(n: int, i: int, x, q) -> mp.mpf:
    """Closed form on [0, pi/2]: q^(i^2 - n i) [n choose i]_q sin^i x cos^(n-i) x.

    Independent of the kernel-product route used in production.
    """
    with mp.workdps(DPS):
        x, q = mp.mpf(x), mp.mpf(q)
        coef = _qbinom_row_mp(n, q)[i]
        return q ** (i * i - n * i) * coef * mp.sin(x) ** i * mp.cos(x) ** (n - i)


def classical_trig_basis(n: int, k: int, x, interval) -> float:
    """Classical circular Bernstein basis, the q = 1 special case:

    binom(n, k) (sin(x-a)/sin(b-a))^k (sin(b-x)/sin(b-a))^(n-k)
    """
    a, b = interval.a, interval.b
    s = math.sin(b - a)
    u = math.sin(x - a) / s
    v = math.sin(b - x) / s
    return math.comb(n, k) * u ** k * v ** (n - k)


FIT_CONDITION_LIMIT = 1e12


def tn_design_matrix(xs, n: int) -> np.ndarray:
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


def tn_membership_residual(samples, n: int) -> float:
    """Worst per-coordinate RMS residual of a least-squares fit in T_n.

    samples has x (m,) and points (m, dim), as a CurveSamples does; m must
    be at least 2(n+1).  Solved by normal equations; a condition number
    above FIT_CONDITION_LIMIT raises ValueError.
    """
    if len(samples) < 2 * (n + 1):
        raise ValueError(f"need at least {2 * (n + 1)} samples for degree {n}, got {len(samples)}")
    ys = samples.points
    design = tn_design_matrix(samples.x, n)
    gram = design.T @ design
    condition = float(np.linalg.cond(gram))
    if condition > FIT_CONDITION_LIMIT:
        raise ValueError(f"normal-equation condition number {condition:.3e} exceeds {FIT_CONDITION_LIMIT:.1e}")
    coef = np.linalg.solve(gram, design.T @ ys)
    resid = design @ coef - ys
    return float(np.sqrt((resid ** 2).mean(axis=0)).max())


def curve_direct_mp(controls, x, q, a, b):
    """sum_k b_k B_k(x; q) per coordinate, at 30 significant digits."""
    n = len(controls) - 1
    vals = [basis_direct_mp(n, k, x, q, a, b) for k in range(n + 1)]
    dim = len(controls[0])
    return [sum(mp.mpf(controls[k][j]) * vals[k] for k in range(n + 1)) for j in range(dim)]


def product_chain_reference(n: int, x, q, interval) -> list:
    """All n + 1 product-formula values at one x, in the production operation order.

    Entry j is row[j] * pa[j] * pb[n-j] / den, where pa and pb are the
    prefix products of the kernel tables d(a, x; q^i) and d(x, b; q^i)
    taken by itertools.accumulate from 1.0, row is the q-binomial row and
    den the product of the n denominators d(a, b; q^i).
    """
    d_ax, d_xb, d_ab = kernel_tables(interval, x, q, n)
    row = q_binomial_row(n, q)
    pa = list(accumulate(d_ax, mul, initial=1.0))
    pb = list(accumulate(d_xb, mul, initial=1.0))
    den = math.prod(d_ab)
    return [row[j] * pa[j] * pb[n - j] / den for j in range(n + 1)]


def tableau_reference(points, x, q, interval, variant):
    """Stages 0..n of alg1 or alg2 at one x as lists of points, one float at a time.

    Entry k of stage r+1 is lower_k * b_k + upper_k * b_(k+1) per coordinate,
    with lower_k = d(x,b;q^(n-r-k-1)) / d(a,b;q^(n-r-1)) and
    upper_k = d(a,x;q^k) / d(a,b;q^(n-r-1)), and the q-power multiplying lower_k
    (alg1) or upper_k (alg2) from the left, as the production stages take it.
    """
    stage = [[float(v) for v in point] for point in points]
    n = len(stage) - 1
    d_ax, d_xb, d_ab = kernel_tables(interval, x, q, n)
    powers = q_powers(float(q), n)
    stages = [stage]
    for r in range(n):
        den = d_ab[n - r - 1]
        nxt = []
        for k in range(n - r):
            lower = d_xb[n - r - 1 - k] / den
            upper = d_ax[k] / den
            if variant == "alg1":
                lower = powers[k] * lower
            else:
                upper = powers[n - r - 1 - k] * upper
            nxt.append([lower * u + upper * v for u, v in zip(stage[k], stage[k + 1])])
        stage = nxt
        stages.append(stage)
    return stages


def monomial_tp_reference(n: int, points, tolerance: float = 1e-9) -> TPReport:
    """Total positivity of the monomial system 1, x, ..., x^n at points >= 0.

    Sanity reference for the checker itself; kept intentionally tiny.
    """
    if n < 0 or n > 4:
        raise ValueError(f"reference supports 0 <= n <= 4, got {n}")
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 1 or pts.size < 1 or pts.size > 6:
        raise ValueError("need between 1 and 6 points")
    if np.any(pts < 0.0):
        raise ValueError("points must be nonnegative")
    if np.any(np.diff(pts) <= 0.0):
        raise ValueError("points must be strictly increasing")
    entries = np.vstack([pts ** i for i in range(n + 1)])
    return total_positivity_check(entries, tolerance)


SMALLEST_NORMAL = 2.0 ** -1022


def _rescaled_minor_reference(sub):
    """(det, det / scale) of sub with row i multiplied by 2**-e_i, e_i = frexp(max |row i|)[1].

    The det returned is the rescaled one times 2**sum(e_i), inf or 0 where
    that leaves float range.
    """
    exps = [math.frexp(float(np.abs(row).max()))[1] for row in sub]
    rows = np.array([[math.ldexp(float(v), -e) for v in row] for row, e in zip(sub, exps)])
    det = float(rows[0, 0]) if len(rows) == 1 else float(np.linalg.det(rows))
    scale = float(np.prod(np.abs(rows).max(axis=1)))
    return float(np.ldexp(det, sum(exps))), det / scale if scale > 0.0 else 0.0


# det flags some subnormal minors, yet returns them right; det and the scale
# may overflow, and such minors are taken again by _rescaled_minor_reference
@np.errstate(divide="ignore", over="ignore")
def total_positivity_reference(matrix, tolerance: float = 1e-9) -> TPReport:
    """total_positivity_check of finite entries, one minor at a time.

    Sizes, then row sets, then column sets, each in lexicographic order;
    a minor replaces the worst only when its scaled value is strictly lower.
    A minor whose det is not finite, or whose row-max product is not a
    positive normal float while no row is zero, is taken again with every
    row rescaled by a power of two.
    """
    entries = np.asarray(matrix, dtype=float)
    n_rows, n_cols = entries.shape
    worst_scaled = math.inf
    worst_det = 0.0
    worst_idx = None
    for r in range(1, min(n_rows, n_cols) + 1):
        col_sets = list(combinations(range(n_cols), r))
        for rows_sel in combinations(range(n_rows), r):
            sub_rows = entries[list(rows_sel), :]
            for cols_sel in col_sets:
                sub = sub_rows[:, list(cols_sel)]
                det = float(sub[0, 0]) if r == 1 else float(np.linalg.det(sub))
                row_max = np.abs(sub).max(axis=1)
                scale = float(np.prod(row_max))
                if not math.isfinite(det) or (not SMALLEST_NORMAL <= scale < math.inf and row_max.all()):
                    det, scaled = _rescaled_minor_reference(sub)
                else:
                    scaled = det / scale if scale > 0.0 else 0.0
                if scaled < worst_scaled:
                    worst_scaled = scaled
                    worst_det = det
                    worst_idx = (rows_sel, cols_sel)
    is_tp = worst_scaled >= -tolerance
    return TPReport(
        is_tp=is_tp,
        minors_checked=sum(math.comb(n_rows, r) * math.comb(n_cols, r) for r in range(1, min(n_rows, n_cols) + 1)),
        worst_minor=worst_det,
        worst_scaled=worst_scaled,
        tolerance=tolerance,
        witness=None if is_tp else worst_idx,
    )
