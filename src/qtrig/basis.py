"""Quantum trigonometric Bernstein bases.

Degree-n basis on a certified interval [a, b]:

    B_k(x; q) = [n choose k]_q
                * prod_{i=0}^{k-1} d(a, x; q^i)
                * prod_{i=0}^{n-k-1} d(x, b; q^i)
                / prod_{i=0}^{n-1} d(a, b; q^i)

with empty products equal to 1.  At q = 1 this is the classical circular
Bernstein basis.  The product formula takes all n + 1 values at one x from
running prefix products of the two kernel tables, O(n) multiplications in
all, in kernel._product_formula: one pass forms each d(x, b; q^i) and its
running product, a second each d(a, x; q^i), its running product and B_k.
The same loop serves an array of x column by column.  Two degree-raising
recurrences evaluate the whole vector from the raw kernel tables; they
agree with the product formula and with each other.

Every route reads the x-free part of its work (the q-binomial row, the
certified denominators and their product) from one memoised evaluation
plan per (a, b, q, n), kernel._plan, so a single-x call makes one lookup
and then does only its x-dependent work.
"""

from dataclasses import dataclass

import numpy as np

from .kernel import Interval, _plan, _product_formula, _tables

__all__ = [
    "BasisVector",
    "basis_all_direct",
    "basis_matrix",
    "basis_all_recurrence1",
    "basis_all_recurrence2",
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


def _basis_vector(n, q, interval, x, values: np.ndarray) -> BasisVector:
    """A BasisVector of the (n + 1,) float array a route has just built, not checked again."""
    bv = object.__new__(BasisVector)
    fields = bv.__dict__  # filled in field order, so it keeps the keys every BasisVector shares
    fields["degree"] = n
    fields["q"] = q
    fields["interval"] = interval
    fields["x"] = x
    fields["values"] = values
    return bv


def basis_all_direct(n: int, x: float, q: float, interval: Interval) -> BasisVector:
    """The full basis vector via the product formula."""
    values = _product_formula(_plan(interval, q, n), interval, x, q)
    return _basis_vector(n, q, interval, x, np.fromiter(values, float, len(values)))


def basis_matrix(n: int, xs, q: float, interval: Interval) -> np.ndarray:
    """Basis vectors at every point of xs, shape (m, n+1).

    Row j is bit-identical to basis_all_direct(n, xs[j], q, interval).values:
    both take kernel._product_formula's loop, here on columns, from the
    same plan.  An xs that is not 1-D raises ValueError.
    """
    shape = np.shape(xs)
    if len(shape) != 1:
        raise ValueError(f"xs must be a 1-D sequence of points, got shape {shape}")
    columns = _product_formula(_plan(interval, q, n), interval, xs, q, columns=True)
    values = np.empty((shape[0], n + 1))
    values[:] = np.array(columns).T  # at n = 0 the one entry is a float, broadcast to m rows
    return values


def _recurrence(n, x, q, interval, second_form):
    plan = _plan(interval, q, n)
    d_ax, d_xb = _tables(plan, interval, x, q)
    d_ab, powers = plan.d_ab, plan.powers
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
    return _basis_vector(n, q, interval, x, np.array(row))


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
