"""Gaussian (q-binomial) coefficients and powers of q.

The deformation parameter q is any finite nonzero real.  Everything here is
continuous in q, including at q = 1 where the classical binomial
coefficients are recovered.  The q-integer [k]_q is q_binomial_row(k, q)[1].
"""

import math

__all__ = [
    "validate_q",
    "q_binomial",
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
    which stays finite and continuous through q = 1, unlike the quotient of
    q-factorials.
    """
    q = validate_q(q)
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    row = [1.0]
    for m in range(1, n + 1):
        prev = row
        row = [1.0] * (m + 1)
        for k in range(1, m):
            row[k] = prev[k] + q ** (m - k) * prev[k - 1]
    return row


def q_binomial(n: int, k: int, q: float) -> float:
    """Gaussian binomial coefficient [n choose k]_q; 0 outside 0 <= k <= n."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if k < 0 or k > n:
        return 0.0
    return q_binomial_row(n, q)[k]


def q_powers(q: float, count: int) -> list[float]:
    """[q^0, q^1, ..., q^(count-1)] as a running product."""
    powers = []
    p = 1.0
    for _ in range(count):
        powers.append(p)
        p *= q
    return powers
