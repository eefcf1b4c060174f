"""Gaussian (q-binomial) coefficients and powers of q.

The deformation parameter q is any finite nonzero real.  Everything here is
continuous in q, including at q = 1 where the classical binomial
coefficients are recovered.  The q-integer [k]_q is q_binomial_row(k, q)[1].

Nothing here is memoised: every call builds the row it is asked for.  An
evaluation needs the row of its degree once, and kernel's evaluation plan
keeps it for as long as it keeps the plan.

This is the one layer that imports no numpy, so it also keeps
DEFAULT_TP_TOL, the default tolerance of shape.total_positivity_check,
which the qtrig command's parser reads without loading an array layer.
"""

import math
import operator
from typing import Optional

from .errors import FloatRangeError

__all__ = [
    "validate_q",
    "q_binomial_row",
    "q_powers",
]

# Scaled minor tolerance of shape.total_positivity_check and of check tp's --tolerance.
DEFAULT_TP_TOL = 1e-9


def validate_q(q: float) -> float:
    """Check the deformation parameter: finite and nonzero."""
    try:
        q = float(q)
    except OverflowError:  # an int beyond the float range
        q = math.inf if q > 0 else -math.inf
    if not math.isfinite(q) or q == 0.0:
        raise ValueError(f"q must be finite and nonzero, got {q!r}")
    return q


def q_binomial_row(n: int, q: float) -> list[float]:
    """Row n of the Gaussian binomial triangle, [n choose k]_q for k = 0..n.

    Built by the Pascal-type recurrence
        C(m, k) = C(m-1, k) + q^(m-k) C(m-1, k-1),
    which stays continuous through q = 1, unlike the quotient of
    q-factorials.  Raises FloatRangeError past the float64 range.
    """
    q = validate_q(q)
    n = _validate_degree(n)
    return list(_checked_row(_q_binomial_row(n, q), n, q))


def _validate_degree(n: int) -> int:
    """Check a degree: an integer >= 0, returned as a plain int."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return operator.index(n)


def _checked_row(row, n: int, q: float):
    """A row of _q_binomial_row(n, q), or FloatRangeError where it marks an overflow."""
    if row is None:
        raise FloatRangeError(f"q-binomial row {n} at q={q!r} overflows float64")
    return row


def _q_binomial_row(n: int, q: float) -> Optional[tuple[float, ...]]:
    """q_binomial_row for a plain int n >= 0 and a plain float q, as a tuple.

    None marks a row that leaves float64.  Entry k of row m is entry k of
    row m - 1 plus a term, and inf or NaN plus anything stays inf or NaN,
    so once a row has left float64 every later row has too: the loop stops
    at the first such row, after O(m^2) work rather than O(n^2).
    """
    row = [1.0]
    try:
        for m in range(1, n + 1):
            prev = row
            row = [1.0] * (m + 1)
            for k in range(1, m):
                row[k] = prev[k] + q ** (m - k) * prev[k - 1]
            if not all(map(math.isfinite, row)):
                return None
    except OverflowError:  # raised by q ** (m - k)
        return None
    return tuple(row)


def q_powers(q: float, count: int) -> list[float]:
    """[q^0, q^1, ..., q^(count-1)] as a running product."""
    powers = []
    p = 1.0
    for _ in range(count):
        powers.append(p)
        p *= q
    return powers
