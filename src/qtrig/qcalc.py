"""Gaussian (q-binomial) coefficients and powers of q.

The deformation parameter q is any finite nonzero real.  Everything here is
continuous in q, including at q = 1 where the classical binomial
coefficients are recovered.  The q-integer [k]_q is q_binomial_row(k, q)[1].
"""

import math

from .errors import FloatRangeError

__all__ = [
    "validate_q",
    "q_binomial_row",
    "q_powers",
]


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
    q-factorials.  Raises FloatRangeError past the float64 range.
    """
    q = validate_q(q)
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
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
        raise FloatRangeError(f"q-binomial row {n} at q={q!r} overflows float64")
    return row


def q_powers(q: float, count: int) -> list[float]:
    """[q^0, q^1, ..., q^(count-1)] as a running product."""
    powers = []
    p = 1.0
    for _ in range(count):
        powers.append(p)
        p *= q
    return powers
