"""Quantum trigonometric Bernstein bases.

Degree-n basis on a certified interval [a, b]:

    B_k(x; q) = [n choose k]_q
                * prod_{i=0}^{k-1} d(a, x; q^i)
                * prod_{i=0}^{n-k-1} d(x, b; q^i)
                / prod_{i=0}^{n-1} d(a, b; q^i)

with empty products equal to 1.  At q = 1 this is the classical circular
Bernstein basis.  The product formula takes all n + 1 values at one x from
running prefix products of the two kernel tables, O(n) multiplications in
all, in kernel._products: one pass forms each d(x, b; q^i) and its
running product, a second each d(a, x; q^i), its running product and B_k.
basis_matrix runs the same loop one point at a time on Python floats for
1 to _SHORT_XS = 8 points and on (m,) columns for more: the float loop
takes 0.54 of the column loop's time at 4 points and n = 1, 0.98 at 8
and 1.31 at 12, and at n = 30 0.38 at 8 and 1.01 at 24 (in process,
Python 3.11.7, numpy 2.4.6, x86-64).  Both give the bits of one x.

The degree-raising recurrences 1 and 2 are curve.py's alg2 and alg1
schemes transposed (B_k is a scheme's apex on the unit control points
e_k): they read the stages of curve._tableau upwards, each B_j of degree
size - 1 going to B_j and B_(j+1).

Every route reads the x-free part of its work (the q-binomial row, the
certified denominators and their product) and the key from one memoised
plan per (a, b, q, n), found by one lookup with one set of checks:
basis_all_direct calls kernel._checks and then kernel._products, the
recurrences kernel._tables; basis_matrix converts xs once, checks it with
kernel._checks and runs _rows: kernel._products per point on floats or on
the columns.  collocation() in shape.py, which checks its own points,
calls _rows after kernel._certified_plan, which meets only the certificate.
"""

import math
from dataclasses import dataclass

import numpy as np

from .kernel import Interval, _checks, _products, _tables

__all__ = [
    "BasisVector",
    "basis_all_direct",
    "basis_matrix",
    "basis_all_recurrence1",
    "basis_all_recurrence2",
]

# Most points basis_matrix takes one at a time on Python floats; more go by columns
_SHORT_XS = 8


@dataclass(frozen=True, eq=False)  # holds arrays: == and hash are by identity
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
    """A BasisVector of the (n + 1,) float array a route has just built, not checked again.

    Every route passes its plan's key, n a plain int and q a plain float, whatever types it was given.
    """
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
    plan, point, sin, cos = _checks(interval, x, q, n)
    values = _products(plan, point, sin, cos)
    return _basis_vector(plan.n, plan.q, interval, x, np.fromiter(values, float, len(values)))


def basis_matrix(n: int, xs, q: float, interval: Interval) -> np.ndarray:
    """Basis vectors at every point of xs, shape (m, n+1).

    Row j is bit-identical to basis_all_direct(n, xs[j], q, interval).values:
    both take kernel's product formula loop from the same plan, here one
    point at a time on Python floats for 1 to _SHORT_XS points and on
    columns for more (or none).  An xs that is not 1-D raises ValueError.
    """
    xs = np.asarray(xs)  # once: the x check reads a float64 array as it is
    if xs.ndim != 1:
        raise ValueError(f"xs must be a 1-D sequence of points, got shape {xs.shape}")
    plan, xs, _, _ = _checks(interval, xs, q, n, columns=True)
    return _rows(plan, xs)


def _rows(plan, xs: np.ndarray) -> np.ndarray:
    """The basis rows at a 1-D float64 xs whose every point is checked, from a certified plan and its key alone.

    The row and denominator checks come next, in the first _products call,
    so a NaN late in xs is refused before a failing row.
    """
    if 0 < len(xs) <= _SHORT_XS:  # each row the bits of basis_all_direct at its point as a float
        return np.array([_products(plan, x, math.sin, math.cos) for x in xs.tolist()])
    columns = _products(plan, xs, np.sin, np.cos)
    values = np.empty((len(xs), plan.n + 1))
    values[:] = np.array(columns).T  # at n = 0 the one entry is a float, broadcast to m rows
    return values


def _recurrence(n, x, q, interval, variant):
    """B_0..B_n at x: each stage size = 1..n reads curve._tableau's den, ratios and q-power side.

    A term is q-power * (d / den * B_j), with 1.0 (exact) on the side without
    one, and a new entry is 0.0 + (term from B_(j-1)) + (term from B_j).
    """
    plan, d_ax, d_xb = _tables(interval, x, q, n)
    powers, ones, row = plan.powers, [1.0] * n, [1.0]
    for size in range(1, n + 1):
        den, top = plan.d_ab[size - 1], size - 1
        q_lower, q_upper = (powers, ones) if variant == "alg1" else (ones, powers[top::-1])
        nxt, carry = [], 0.0
        for j, b in enumerate(row):  # B_j of degree top goes to B_j by lower, to B_(j+1) by upper
            nxt.append(carry + q_lower[j] * (d_xb[top - j] / den * b))
            carry = 0.0 + q_upper[j] * (d_ax[j] / den * b)
        nxt.append(carry)
        row = nxt
    return _basis_vector(plan.n, plan.q, interval, x, np.array(row))


def basis_all_recurrence1(n: int, x: float, q: float, interval: Interval) -> BasisVector:
    """Degree-raising recurrence, variant with q^(m-k) on the B_(k-1) term, the transpose of alg2:

    B_k^m = q^(m-k) (d(a,x;q^(k-1)) / d(a,b;q^(m-1))) B_(k-1)^(m-1)
          +         (d(x,b;q^(m-k-1)) / d(a,b;q^(m-1))) B_k^(m-1)
    """
    return _recurrence(n, x, q, interval, "alg2")


def basis_all_recurrence2(n: int, x: float, q: float, interval: Interval) -> BasisVector:
    """Degree-raising recurrence, variant with q^k on the B_k term, the transpose of alg1:

    B_k^m =     (d(a,x;q^(k-1)) / d(a,b;q^(m-1))) B_(k-1)^(m-1)
          + q^k (d(x,b;q^(m-k-1)) / d(a,b;q^(m-1))) B_k^(m-1)
    """
    return _recurrence(n, x, q, interval, "alg1")
