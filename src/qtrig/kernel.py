"""The two-argument trigonometric kernel and parameter-interval bookkeeping.

The kernel

    d(x, y; q) = (q+1)/2 * sin(y - x) + (q-1)/2 * sin(y + x)

drives every basis and curve evaluation in this package.  It is affine in q
and collapses to sin(y - x) at q = 1.  A degree-n evaluation on [a, b]
divides by d(a, b; q^i) for a range of i, so the kernel tables certify the
interval before use: every such denominator must stay clear of zero in
float64.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InvalidIntervalError
from .qcalc import q_powers, validate_q

__all__ = [
    "SINGULARITY_TOL",
    "QUARTER_SNAP_TOL",
    "trig_kernel",
    "Interval",
    "ValidityCertificate",
    "certify_interval",
    "kernel_tables",
    "kernel_tables_array",
]

# Denominators with |d(a,b;q^i)| at or below this are treated as singular.
SINGULARITY_TOL = 1e-12
# Endpoint distance to the k*pi/2 grid for quarter-period detection.
QUARTER_SNAP_TOL = 1e-12

_HALF_PI = math.pi / 2


def trig_kernel(x: float, y: float, q: float) -> float:
    """d(x, y; q) = (q+1)/2 sin(y-x) + (q-1)/2 sin(y+x)."""
    return 0.5 * (q + 1.0) * math.sin(y - x) + 0.5 * (q - 1.0) * math.sin(y + x)


@dataclass(frozen=True)
class Interval:
    """A parameter interval [a, b] with a < b."""

    a: float
    b: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError(f"interval endpoints must be finite: [{self.a}, {self.b}]")
        if not self.a < self.b:
            raise ValueError(f"interval requires a < b, got [{self.a}, {self.b}]")

    @property
    def length(self) -> float:
        return self.b - self.a

    @property
    def quarter_period(self) -> bool:
        """True when [a, b] sits on the grid [k*pi/2, (k+1)*pi/2]."""
        k = round(self.a / _HALF_PI)
        return (
            abs(self.a - k * _HALF_PI) <= QUARTER_SNAP_TOL
            and abs(self.b - (k + 1) * _HALF_PI) <= QUARTER_SNAP_TOL
        )

    @classmethod
    def quarter(cls, k: int) -> "Interval":
        return cls(k * _HALF_PI, (k + 1) * _HALF_PI)


@dataclass(frozen=True)
class ValidityCertificate:
    """Outcome of checking d(a, b; q^i) for i = 0..n on an interval."""

    interval: Interval
    q: float
    n: int
    valid: bool
    min_abs_denominator: float
    failing_index: Optional[int]


def _scan_interval(interval: Interval, q: float, n: int):
    """The one certification loop over i = 0..n.

    Returns the powers q^0..q^n, the denominators d(a, b; q^i), the smallest
    |d| and the first i with |d| <= SINGULARITY_TOL (None if there is none).
    The extra index n covers the denominators of degree-raising recurrences.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    a, b = interval.a, interval.b
    powers = q_powers(q, n + 1)
    d_ab = []
    min_abs = math.inf
    failing = None
    for i, qi in enumerate(powers):
        d = trig_kernel(a, b, qi)
        d_ab.append(d)
        v = abs(d)
        if v < min_abs:
            min_abs = v
        if failing is None and v <= SINGULARITY_TOL:
            failing = i
    return powers, d_ab, min_abs, failing


def certify_interval(interval: Interval, q: float, n: int) -> ValidityCertificate:
    """Certify [a, b] for degree-n work at parameter q.

    Reports whether |d(a, b; q^i)| > SINGULARITY_TOL for i = 0..n inclusive;
    kernel_tables applies the same rule and raises where this reports.
    """
    q = validate_q(q)
    _, _, min_abs, failing = _scan_interval(interval, q, n)
    return ValidityCertificate(
        interval=interval,
        q=q,
        n=n,
        valid=failing is None,
        min_abs_denominator=min_abs,
        failing_index=failing,
    )


def _certified(interval: Interval, q: float, n: int) -> tuple[list[float], list[float]]:
    """q^0..q^(n-1) and d(a, b; q^i) for i < n, once i = 0..n are certified.

    Raises InvalidIntervalError at the first failing index.
    """
    powers, d_ab, _, failing = _scan_interval(interval, validate_q(q), n)
    if failing is not None:
        raise InvalidIntervalError(interval.a, interval.b, q, failing, d_ab[failing])
    return powers[:n], d_ab[:n]


def kernel_tables(
    interval: Interval, x: float, q: float, n: int
) -> tuple[list[float], list[float], list[float]]:
    """Kernel values at the geometric powers q^0..q^(n-1).

    Returns (d_ax, d_xb, d_ab) with d_ax[i] = d(a, x; q^i) and so on.
    The interval is certified first, as certify_interval(interval, q, n)
    would, and InvalidIntervalError raised if it fails.  Every evaluator in
    the package shares these tables so that identical subexpressions are
    bit-identical across methods.
    """
    a, b = interval.a, interval.b
    powers, d_ab = _certified(interval, q, n)
    d_ax = [trig_kernel(a, x, qi) for qi in powers]
    d_xb = [trig_kernel(x, b, qi) for qi in powers]
    return d_ax, d_xb, d_ab


def kernel_tables_array(
    interval: Interval, xs, q: float, n: int
) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """kernel_tables for every point of xs at once.

    Returns (d_ax, d_xb, d_ab) with d_ax[j, i] = d(a, xs[j]; q^i), d_xb of
    the same (m, n) shape, and the x-free d_ab list of kernel_tables, after
    the same certification.  The tables are outer products in trig_kernel's
    own form, so every entry is bit-identical to the scalar table entry.
    """
    a, b = interval.a, interval.b
    xs = np.asarray(xs, dtype=float)[:, None]
    powers, d_ab = _certified(interval, q, n)
    p = np.array(powers)
    plus, minus = 0.5 * (p + 1.0), 0.5 * (p - 1.0)
    d_ax = plus * np.sin(xs - a) + minus * np.sin(xs + a)
    d_xb = plus * np.sin(b - xs) + minus * np.sin(b + xs)
    return d_ax, d_xb, d_ab
