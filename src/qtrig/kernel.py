"""The two-argument trigonometric kernel and parameter-interval bookkeeping.

The kernel

    d(x, y; q) = (q+1)/2 * sin(y - x) + (q-1)/2 * sin(y + x)
               = q sin y cos x - cos y sin x

drives every basis and curve evaluation in this package.  It is affine in q
and collapses to sin(y - x) at q = 1.  The two terms of the first form
cancel when q is far from 1 and sin(y + x) is close to +-sin(y - x), as on
every quarter period, so d is evaluated in one of two exact rewrites whose
terms do not cancel there:

    |q| <= 1:   q sin(y - x) - (1 - q) cos y sin x
    |q| > 1:      sin(y - x) + (q - 1) sin y cos x

A degree-n evaluation on [a, b] divides by d(a, b; q^i) for a range of i,
so the kernel tables certify the interval before use: every such
denominator must stay clear of zero in float64.  That scan depends on
(a, b, q, n) only, so it is memoised per key: the last 128 scans are kept.
Each holds the powers and the denominators, two tuples of n + 1 floats,
and the sines and cosines of a and b, so the memo holds at most
128 x (2 (n + 1) + 4) floats alive for degrees up to n, about 8 KiB per
unit of n + 1 (8 MB at n = 1000).  A scan that meets an inf or NaN raises
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
    """d(x, y; q) = (q+1)/2 sin(y-x) + (q-1)/2 sin(y+x), in the form of _kernel_row."""
    return _kernel_row([q], math.sin(y - x), math.cos(y) * math.sin(x), math.sin(y) * math.cos(x))[0]


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


def _kernel_row(powers, sin_diff, cos_y_sin_x, sin_y_cos_x):
    """d(x, y; p) for each p in powers, from sin(y - x), cos y sin x and sin y cos x.

    p sin(y - x) - (1 - p) cos y sin x for |p| <= 1 and sin(y - x) + (p - 1) sin y cos x
    for |p| > 1, on floats or (m,) columns alike.
    """
    return [p * sin_diff - (1.0 - p) * cos_y_sin_x if -1.0 <= p <= 1.0 else sin_diff + (p - 1.0) * sin_y_cos_x
            for p in powers]


@functools.lru_cache(maxsize=_SCAN_MEMO_SIZE)
def _scan_interval(a: float, b: float, q: float, n: int):
    """The one certification rule over i = 0..n, for plain floats a, b, q and a plain int n >= 0.

    Returns the powers q^0..q^n and the denominators d(a, b; q^i), as tuples
    that no caller can change, the smallest |d|, the first i with
    |d| <= SINGULARITY_TOL (None if there is none) and the x-free factors
    (sin a, cos a, sin b, cos b) of the kernel tables.  Returns None instead
    when some d(a, b; q^i) is inf or NaN, as it is once a q-power overflows.
    Index n belongs to certify_interval's contract; no evaluation route
    divides by d(a, b; q^n).
    """
    powers = tuple(q_powers(q, n + 1))
    trig = sin_a, cos_a, sin_b, cos_b = math.sin(a), math.cos(a), math.sin(b), math.cos(b)
    d_ab = tuple(_kernel_row(powers, math.sin(b - a), cos_b * sin_a, sin_b * cos_a))
    if not all(map(math.isfinite, d_ab)):
        return None
    magnitudes = list(map(abs, d_ab))
    min_abs = min(magnitudes)
    failing = None
    if min_abs <= SINGULARITY_TOL:
        failing = next(i for i, v in enumerate(magnitudes) if v <= SINGULARITY_TOL)
    return powers, d_ab, min_abs, failing, trig


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
    _, _, min_abs, failing, _ = _scan(interval, q, n)
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
    powers, d_ab, _, failing, (sin_a, cos_a, sin_b, cos_b) = _scan(interval, validate_q(q), n)
    if failing is not None:
        raise InvalidIntervalError(a, b, q, failing, d_ab[failing])
    if isinstance(x, (float, int)):
        sin, cos = math.sin, math.cos
    else:
        sin, cos, x = np.sin, np.cos, np.asarray(x, dtype=float)
    sin_x, cos_x = sin(x), cos(x)
    d_ax = _kernel_row(powers[:n], sin(x - a), cos_x * sin_a, sin_x * cos_a)
    d_xb = _kernel_row(powers[:n], sin(b - x), cos_b * sin_x, sin_b * cos_x)
    return d_ax, d_xb, list(d_ab[:n])
