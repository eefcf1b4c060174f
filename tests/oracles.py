"""Independent oracles used by the test suite.

Exact rational arithmetic for the q-combinatorics and 30-digit mpmath for
kernel, basis and curve values.  Everything here is deliberately separate
from the production code paths: different arithmetic, and where possible a
different formula (e.g. the quarter-period closed form instead of kernel
products).  monomial_tp_reference runs the production minor checker on a
matrix known to be totally positive, as a sanity reference for the checker.
"""

from fractions import Fraction

import mpmath as mp
import numpy as np

from qtrig import TPReport, total_positivity_check

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


def d_mp(x, y, q) -> mp.mpf:
    with mp.workdps(DPS):
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


def quarter_basis_mp(n: int, i: int, x, q) -> mp.mpf:
    """Closed form on [0, pi/2]: q^(i^2 - n i) [n choose i]_q sin^i x cos^(n-i) x.

    Independent of the kernel-product route used in production.
    """
    with mp.workdps(DPS):
        x, q = mp.mpf(x), mp.mpf(q)
        coef = _qbinom_row_mp(n, q)[i]
        return q ** (i * i - n * i) * coef * mp.sin(x) ** i * mp.cos(x) ** (n - i)


def curve_direct_mp(controls, x, q, a, b):
    """sum_k b_k B_k(x; q) per coordinate, at 30 significant digits."""
    n = len(controls) - 1
    vals = [basis_direct_mp(n, k, x, q, a, b) for k in range(n + 1)]
    dim = len(controls[0])
    return [sum(mp.mpf(controls[k][j]) * vals[k] for k in range(n + 1)) for j in range(dim)]


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
