"""Gaussian (q-binomial) coefficients and powers of q.

The deformation parameter q is any finite nonzero real.  Everything here is
continuous in q, including at q = 1 where the classical binomial
coefficients are recovered.  The q-integer [k]_q is q_binomial_row(k, q)[1].

A q-binomial row depends on (n, q) only, and a table of single-x calls asks
for the same row again and again, so rows are memoised per (n, q): the last
128 rows built are kept, which holds at most 128 (n + 1) floats alive for
rows of degree up to n, about 4 KiB per unit of n + 1.  Every call returns
a fresh list.  A row that overflows is memoised as a marker, not as an
exception, and every call for it raises FloatRangeError.
"""

import functools
import math
import operator
from typing import Optional

from .errors import FloatRangeError

__all__ = [
    "validate_q",
    "q_binomial_row",
    "q_powers",
]

# Rows kept by the q-binomial memo, least recently used out first.
_ROW_MEMO_SIZE = 128


def validate_q(q: float) -> float:
    """Check the deformation parameter: finite and nonzero."""
    q = float(q)
    if not math.isfinite(q) or q == 0.0:
        raise ValueError(f"q must be finite and nonzero, got {q!r}")
    return q


def q_binomial_row(n: int, q: float) -> list[float]:
    """Row n of the Gaussian binomial triangle, [n choose k]_q for k = 0..n.

    Built by the Pascal-type recurrence
        C(m, k) = C(m-1, k) + q^(m-k) C(m-1, k-1),
    which stays continuous through q = 1, unlike the quotient of
    q-factorials.  Raises FloatRangeError past the float64 range.  The row
    is built once per (n, q) while it stays in the memo.
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


@functools.lru_cache(maxsize=_ROW_MEMO_SIZE)
def _q_binomial_row(n: int, q: float) -> Optional[tuple[float, ...]]:
    """q_binomial_row for a plain int n >= 0 and a plain float q, as a tuple.

    None marks a row that leaves float64.
    """
    row = [1.0]
    try:
        for m in range(1, n + 1):
            prev = row
            row = [1.0] * (m + 1)
            for k in range(1, m):
                row[k] = prev[k] + q ** (m - k) * prev[k - 1]
    except OverflowError:  # raised by q ** (m - k); fails the test below
        row = [math.inf]
    if not all(map(math.isfinite, row)):
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
