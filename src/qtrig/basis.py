"""Quantum trigonometric Bernstein bases.

Degree-n basis on a certified interval [a, b]:

    B_k(x; q) = [n choose k]_q
                * prod_{i=0}^{k-1} d(a, x; q^i)
                * prod_{i=0}^{n-k-1} d(x, b; q^i)
                / prod_{i=0}^{n-1} d(a, b; q^i)

with empty products equal to 1.  At q = 1 this is the classical circular
Bernstein basis.  The product formula takes all n + 1 values at one x from
running prefix products of the two kernel tables, O(n) multiplications in
all, and the same chain serves an array of x column by column.  Two
degree-raising recurrences evaluate the whole vector; they agree with the
product formula and with each other.

Every route reads the x-free part of its work (the q-binomial row, the
certified denominators and their product) from one memoised evaluation
plan per (a, b, q, n), kernel._plan, so a single-x call makes one lookup
and then does only its x-dependent work.
"""

import math
from dataclasses import dataclass
from itertools import accumulate
from operator import mul

import numpy as np

from .errors import FloatRangeError
from .kernel import Interval, _plan, _tables, kernel_tables
from .qcalc import _checked_row

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


def _product_chain(row, d_ax, d_xb, den, n, q):
    """row[j] * prod(d_ax[:j]) * prod(d_xb[:r-j]) / den for j = 0..r = len(row) - 1.

    d_ax and d_xb hold r values each, and den is the product of the r
    denominators d(a, b; q^i).  The two products are running prefix
    products of d_ax and d_xb, so all r + 1 entries cost O(r)
    multiplications, on floats or (m,) columns alike.
    Entry j takes the j-th prefix of d_ax as it is formed and pops the
    (r-j)-th of d_xb, so no more than r + 2 prefixes are held at once.
    Raises FloatRangeError, naming degree n and q, when den is 0 or not
    finite.
    """
    if den == 0.0 or not math.isfinite(den):
        raise FloatRangeError(f"degree {n}, q={q!r}: prod d(a,b;q^i) = {den!r} is outside float64")
    pop = list(accumulate(d_xb, mul, initial=1.0)).pop
    return [c * pa * pop() / den for c, pa in zip(row, accumulate(d_ax, mul, initial=1.0))]


def basis_all_direct(n: int, x: float, q: float, interval: Interval) -> BasisVector:
    """The full basis vector via the product formula."""
    plan = _plan(interval, q, n)
    row = _checked_row(plan.row, plan.n, plan.q)  # first: it overflows before any q-power of the tables
    d_ax, d_xb = _tables(plan, interval, x, q)
    values = _product_chain(row, d_ax, d_xb, plan.den, n, q)
    return _basis_vector(n, q, interval, x, np.array(values))


def basis_matrix(n: int, xs, q: float, interval: Interval) -> np.ndarray:
    """Basis vectors at every point of xs, shape (m, n+1).

    Row j is bit-identical to basis_all_direct(n, xs[j], q, interval).values:
    both take the same product chain, here on columns, from the same plan.
    """
    plan = _plan(interval, q, n)
    row = _checked_row(plan.row, plan.n, plan.q)
    d_ax, d_xb = _tables(plan, interval, xs, q, columns=True)
    values = np.empty((len(xs), n + 1))
    # at n = 0 the one entry is a float; the assignment broadcasts it to m rows
    values[:] = np.array(_product_chain(row, d_ax, d_xb, plan.den, n, q)).T
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
