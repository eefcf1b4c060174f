"""Quantum trigonometric Bernstein bases.

Degree-n basis on a certified interval [a, b]:

    B_k(x; q) = [n choose k]_q
                * prod_{i=0}^{k-1} d(a, x; q^i)
                * prod_{i=0}^{n-k-1} d(x, b; q^i)
                / prod_{i=0}^{n-1} d(a, b; q^i)

with empty products equal to 1.  At q = 1 this is the classical circular
Bernstein basis.  Two degree-raising recurrences evaluate the whole vector;
they agree with the product formula and with each other.
"""

import math
from dataclasses import dataclass

import numpy as np

from .kernel import Interval, kernel_tables, kernel_tables_array
from .qcalc import q_binomial_row, q_powers

__all__ = [
    "BasisVector",
    "basis_all_direct",
    "basis_matrix",
    "basis_all_recurrence1",
    "basis_all_recurrence2",
    "classical_trig_basis",
]


@dataclass(frozen=True)
class BasisVector:
    """All degree-n basis values at one parameter location."""

    degree: int
    q: float
    interval: Interval
    x: float
    values: np.ndarray  # shape (degree + 1,)

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.values.shape != (self.degree + 1,):
            raise ValueError(
                f"expected {self.degree + 1} values, got shape {self.values.shape}"
            )


def basis_all_direct(n: int, x: float, q: float, interval: Interval) -> BasisVector:
    """The full basis vector via the product formula."""
    d_ax, d_xb, d_ab = kernel_tables(interval, x, q, n)
    row = q_binomial_row(n, q)
    den = math.prod(d_ab)
    # one left-to-right chain per k: [n choose k]_q, the d_ax, then the d_xb
    values = [math.prod(d_ax[:k] + d_xb[: n - k], start=row[k]) / den for k in range(n + 1)]
    return BasisVector(degree=n, q=q, interval=interval, x=x, values=np.array(values))


def basis_matrix(n: int, xs, q: float, interval: Interval) -> np.ndarray:
    """Basis vectors at every point of xs, shape (m, n+1).

    Row j is bit-identical to basis_all_direct(n, xs[j], q, interval).values:
    each entry takes the same multiplications in the same order.  The
    interval is certified and the q-binomial row built once per call.
    """
    d_ax, d_xb, d_ab = kernel_tables_array(interval, xs, q, n)
    values = np.tile(q_binomial_row(n, q), (d_ax.shape[0], 1))
    for i in range(n):  # entry k takes d_ax[:k] in order, then d_xb[:n-k]
        values[:, i + 1:] *= d_ax[:, i, None]
    for i in range(n):
        values[:, : n - i] *= d_xb[:, i, None]
    return values / math.prod(d_ab)


def _recurrence(n, x, q, interval, second_form):
    d_ax, d_xb, d_ab = kernel_tables(interval, x, q, n)
    powers = q_powers(q, n + 1)
    row = [1.0]
    for m in range(1, n + 1):
        prev = row
        den = d_ab[m - 1]
        row = [0.0] * (m + 1)
        for k in range(m + 1):
            v = 0.0
            # out-of-range terms of the previous row count as zero
            if k >= 1:
                lower = d_ax[k - 1] / den * prev[k - 1]
                v += lower if second_form else powers[m - k] * lower
            if k <= m - 1:
                upper = d_xb[m - k - 1] / den * prev[k]
                v += powers[k] * upper if second_form else upper
            row[k] = v
    return BasisVector(degree=n, q=q, interval=interval, x=x, values=np.array(row))


def basis_all_recurrence1(n: int, x: float, q: float, interval: Interval) -> BasisVector:
    """Degree-raising recurrence, variant with q^(m-k) on the lower term:

    B_k^m = q^(m-k) (d(a,x;q^(k-1)) / d(a,b;q^(m-1))) B_(k-1)^(m-1)
          +         (d(x,b;q^(m-k-1)) / d(a,b;q^(m-1))) B_k^(m-1)
    """
    return _recurrence(n, x, q, interval, second_form=False)


def basis_all_recurrence2(n: int, x: float, q: float, interval: Interval) -> BasisVector:
    """Degree-raising recurrence, variant with q^k on the upper term:

    B_k^m =     (d(a,x;q^(k-1)) / d(a,b;q^(m-1))) B_(k-1)^(m-1)
          + q^k (d(x,b;q^(m-k-1)) / d(a,b;q^(m-1))) B_k^(m-1)
    """
    return _recurrence(n, x, q, interval, second_form=True)


def classical_trig_basis(n: int, k: int, x: float, interval: Interval) -> float:
    """Classical circular Bernstein basis, the q = 1 special case:

    binom(n, k) (sin(x-a)/sin(b-a))^k (sin(b-x)/sin(b-a))^(n-k)
    """
    if k < 0 or k > n:
        raise IndexError(f"basis index k={k} outside 0..{n}")
    # at q = 1 the tables hold exactly sin(x-a), sin(b-x) and sin(b-a)
    (sin_xa,), (sin_bx,), (s,) = kernel_tables(interval, x, 1.0, 1)
    u = sin_xa / s
    v = sin_bx / s
    return math.comb(n, k) * u ** k * v ** (n - k)
