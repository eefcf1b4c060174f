"""The two-argument trigonometric kernel and parameter-interval bookkeeping.

The kernel

    d(x, y; q) = (q+1)/2 * sin(y - x) + (q-1)/2 * sin(y + x)

drives every basis and curve evaluation in this package.  It is affine in q
and collapses to sin(y - x) at q = 1.  A degree-n evaluation on [a, b]
divides by d(a, b; q^i) for a range of i, so the kernel tables certify the
interval before use: every such denominator must stay clear of zero in
float64.  That scan depends on (a, b, q, n) only, so it is memoised per
key: the last 128 scans are kept.  Each holds the powers and the
denominators, two tuples of n + 1 floats, so the memo holds at most
128 x 2 (n + 1) floats alive for degrees up to n, about 8 KiB per unit of
n + 1 (8 MB at n = 1000).  A scan that meets an inf or NaN raises
FloatRangeError on every call.
"""

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import FloatRangeError, InvalidIntervalError
from .qcalc import _validate_degree, q_powers, validate_q

__all__ = [
    "SINGULARITY_TOL",
    "QUARTER_SNAP_TOL",
    "trig_kernel",
    "Interval",
    "ValidityCertificate",
    "certify_interval",
    "kernel_tables",
]

# Denominators with |d(a,b;q^i)| at or below this are treated as singular.
SINGULARITY_TOL = 1e-12
# Endpoint distance to the k*pi/2 grid for quarter-period detection.
QUARTER_SNAP_TOL = 1e-12
# Interval scans kept by the memo, least recently used out first.
_SCAN_MEMO_SIZE = 128

_HALF_PI = math.pi / 2


def trig_kernel(x: float, y: float, q: float) -> float:
    """d(x, y; q) = (q+1)/2 sin(y-x) + (q-1)/2 sin(y+x)."""
    return _kernel_row([q], math.sin(y - x), math.sin(y + x))[0]


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


def _kernel_row(powers, sin_minus, sin_plus):
    """d(x, y; p) for each p in powers, from sin(y - x) and sin(y + x) as floats or (m,) columns."""
    return [0.5 * (p + 1.0) * sin_minus + 0.5 * (p - 1.0) * sin_plus for p in powers]


@functools.lru_cache(maxsize=_SCAN_MEMO_SIZE)
def _scan_interval(a: float, b: float, q: float, n: int):
    """The one certification rule over i = 0..n, for plain floats a, b, q and a plain int n >= 0.

    Returns the powers q^0..q^n and the denominators d(a, b; q^i), as tuples
    that no caller can change, the smallest |d| and the first i with
    |d| <= SINGULARITY_TOL (None if there is none).  Returns None instead
    when some d(a, b; q^i) is inf or NaN, as it is once a q-power overflows.
    Index n belongs to certify_interval's contract; no evaluation route
    divides by d(a, b; q^n).
    """
    powers = tuple(q_powers(q, n + 1))
    d_ab = tuple(_kernel_row(powers, math.sin(b - a), math.sin(b + a)))
    if not all(map(math.isfinite, d_ab)):
        return None
    magnitudes = list(map(abs, d_ab))
    min_abs = min(magnitudes)
    failing = None
    if min_abs <= SINGULARITY_TOL:
        failing = next(i for i, v in enumerate(magnitudes) if v <= SINGULARITY_TOL)
    return powers, d_ab, min_abs, failing


def _scan(interval: Interval, q: float, n: int):
    """_scan_interval on the interval at a validated q, after checking n.

    Raises FloatRangeError, on every call, where the scan met an inf or NaN.
    """
    n_checked = _validate_degree(n)
    a, b = interval.a, interval.b
    scan = _scan_interval(float(a), float(b), q, n_checked)
    if scan is None:
        raise FloatRangeError(f"degree {n}, q={q!r}: d(a,b;q^i) leaves float64 on [{a!r}, {b!r}]")
    return scan


def certify_interval(interval: Interval, q: float, n: int) -> ValidityCertificate:
    """Certify [a, b] for degree-n work at parameter q.

    Reports whether |d(a, b; q^i)| > SINGULARITY_TOL for i = 0..n inclusive;
    kernel_tables applies the same rule and raises where this reports.  An
    inf or NaN denominator raises FloatRangeError.
    """
    q = validate_q(q)
    _, _, min_abs, failing = _scan(interval, q, n)
    return ValidityCertificate(
        interval=interval,
        q=q,
        n=n,
        valid=failing is None,
        min_abs_denominator=min_abs,
        failing_index=failing,
    )


def kernel_tables(interval: Interval, x, q: float, n: int) -> tuple[list, list, list[float]]:
    """Kernel values at the geometric powers q^0..q^(n-1).

    Returns (d_ax, d_xb, d_ab) with d_ax[i] = d(a, x; q^i) and so on: floats
    for a float x, (m,) columns bit-identical to them for an array of m
    points, and x-free floats in d_ab.  The interval is certified first, as
    certify_interval(interval, q, n) would, and InvalidIntervalError raised
    if it fails.  Every evaluator in the package shares these tables so that
    identical subexpressions are bit-identical across methods.
    """
    a, b = interval.a, interval.b
    powers, d_ab, _, failing = _scan(interval, validate_q(q), n)
    if failing is not None:
        raise InvalidIntervalError(a, b, q, failing, d_ab[failing])
    if isinstance(x, (float, int)):
        sin = math.sin
    else:
        sin, x = np.sin, np.asarray(x, dtype=float)
    d_ax = _kernel_row(powers[:n], sin(x - a), sin(x + a))
    d_xb = _kernel_row(powers[:n], sin(b - x), sin(b + x))
    return d_ax, d_xb, list(d_ab[:n])
