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
denominator must stay clear of zero in float64.  That scan, like all the
rest of an evaluation that does not depend on x, depends on (a, b, q, n)
only, so it is built once per key into an evaluation plan: the powers q^i,
the denominators and their certificate, the sines and cosines of a and b,
the kernel forms split at |q^i| <= 1 with 1 - q^i and q^i - 1 precomputed,
the product of the denominators and, for a certified key only, the
q-binomial row.  A call at one x then makes one plan lookup and does only
its x-dependent work: four trig calls, 2n kernel entries and, for a basis,
the product formula, formed in the same loops as the entries.  The last 128
plans are kept; in front of this memo, a call that passes the very endpoint,
q and n objects of the last one, all plain floats or ints, gets its plan
again.  The two are the package's only state.  Each plan holds the powers,
the denominators, n precomputed form terms and the row, about 136 bytes per
unit of n + 1 under tracemalloc, so the memo holds at most about 17 KiB per
unit of n + 1 for degrees up to n (17 MB at n = 1000).  A failure is held
as a marker, never as an exception: a plan whose denominators meet an inf
or NaN raises FloatRangeError on every call, and an uncertified one
InvalidIntervalError.

Every route meets the same checks in this order: the plan's certificate
(every d(a, b; q^i) finite, then clear of zero), then x, then its own
range checks, for the product formula the q-binomial row and then the
denominator product.  The x check refuses an x that is inf or NaN, or an
int beyond the float range, with ValueError; a single-x route also
refuses a sequence of x with TypeError.
"""

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import FloatRangeError, InvalidIntervalError, _finite_input
from .qcalc import _checked_row, _q_binomial_row, _validate_degree, q_powers, validate_q

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
# Evaluation plans kept by the memo, least recently used out first.
_PLAN_MEMO_SIZE = 128

_HALF_PI = math.pi / 2


def trig_kernel(x: float, y: float, q: float) -> float:
    """d(x, y; q) = (q+1)/2 sin(y-x) + (q-1)/2 sin(y+x), in the form of _kernel_row."""
    return _kernel_row(_forms([q]), math.sin(y - x), math.cos(y) * math.sin(x), math.sin(y) * math.cos(x))[0]


@dataclass(frozen=True)
class Interval:
    """A parameter interval [a, b] with a < b."""

    a: float
    b: float

    def __post_init__(self):
        try:
            finite = math.isfinite(self.a) and math.isfinite(self.b)
        except OverflowError:  # an int beyond the float range
            finite = False
        if not finite:
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


def _kernel_row(forms, sin_diff, cos_y_sin_x, sin_y_cos_x):
    """d(x, y; p) for each power p of forms, from sin(y - x), cos y sin x and sin y cos x.

    forms is _forms(powers): p sin(y - x) - (1 - p) cos y sin x for the
    leading powers with |p| <= 1, then sin(y - x) + (p - 1) sin y cos x for
    the rest, on floats or (m,) columns alike.
    """
    inner, inner_c, outer_c = forms
    row = []
    append = row.append  # two plain loops: a comprehension costs a call, and most rows are short
    for p, c in zip(inner, inner_c):
        append(p * sin_diff - c * cos_y_sin_x)
    for c in outer_c:
        append(sin_diff + c * sin_y_cos_x)
    return row


def _forms(powers):
    """powers split for _kernel_row: the leading p with |p| <= 1, 1 - p for each, p - 1 for the rest.

    |q^i| is monotone in i, so the powers of q with |p| <= 1 are a prefix,
    and each power gets the form that a test of |p| <= 1 on it would give.
    """
    k = next((i for i, p in enumerate(powers) if not -1.0 <= p <= 1.0), len(powers))
    inner = tuple(powers[:k])
    return inner, tuple(1.0 - p for p in inner), tuple(p - 1.0 for p in powers[k:])


class _Plan(NamedTuple):
    """Everything x-free that a degree-n evaluation at q on [a, b] reads.

    A failure is held as a marker: d_ab is None when some d(a, b; q^i) is
    inf or NaN.  Only a certified key holds a row, None if it leaves float64.
    """

    q: float                    # the key's plain float q and plain int n
    n: int
    powers: tuple               # q^0..q^n
    trig: tuple                 # sin a, cos a, sin b, cos b
    forms: tuple                # _forms of q^0..q^(n-1)
    d_ab: Optional[tuple]       # d(a, b; q^i) for i = 0..n
    min_abs: float              # the smallest |d(a, b; q^i)|
    failing: Optional[int]      # the first i with |d(a, b; q^i)| <= SINGULARITY_TOL
    row: Optional[tuple]        # q-binomial row n
    den: float                  # prod of d(a, b; q^i) over i < n


@functools.lru_cache(maxsize=_PLAN_MEMO_SIZE)
def _evaluation_plan(a: float, b: float, q: float, n: int) -> _Plan:
    """The _Plan of plain floats a, b, q and a plain int n >= 0.

    Holds the one certification rule over i = 0..n.  Index n of d_ab
    belongs to certify_interval's contract; no evaluation route divides by
    d(a, b; q^n).
    """
    powers = tuple(q_powers(q, n + 1))
    trig = sin_a, cos_a, sin_b, cos_b = math.sin(a), math.cos(a), math.sin(b), math.cos(b)
    d_ab = tuple(_kernel_row(_forms(powers), math.sin(b - a), cos_b * sin_a, sin_b * cos_a))
    min_abs, failing, den = math.nan, None, math.nan
    if all(map(math.isfinite, d_ab)):
        magnitudes = list(map(abs, d_ab))
        min_abs = min(magnitudes)
        if min_abs <= SINGULARITY_TOL:
            failing = next(i for i, v in enumerate(magnitudes) if v <= SINGULARITY_TOL)
        den = math.prod(d_ab[:n])
    else:
        d_ab = None
    row = _q_binomial_row(n, q) if d_ab is not None and failing is None else None
    return _Plan(q, n, powers, trig, _forms(powers[:n]), d_ab, min_abs, failing, row, den)


# the endpoints, q and n of _plan's last successful call on plain floats and ints, then its
# plan: one tuple, so a reader in another thread sees one call's key and plan together
_last_plan = (object(),) * 4 + (None,)


def _plan(interval: Interval, q: float, n: int) -> _Plan:
    """The memoised plan of (interval, q, n), after checking q and n.

    Raises FloatRangeError, naming the interval as given, where some
    d(a, b; q^i) is inf or NaN; a plan it returns is certified if failing is None.
    The very endpoint, q and n objects of the last successful call, all plain
    floats or ints and so immutable, get its plan without a check or a hash.
    """
    global _last_plan
    a, b = interval.a, interval.b
    last_a, last_b, last_q, last_n, plan = _last_plan
    if a is last_a and b is last_b and q is last_q and n is last_n:
        return plan
    plain_q, plain_n = validate_q(q), _validate_degree(n)
    plan = _evaluation_plan(float(a), float(b), plain_q, plain_n)
    if plan.d_ab is None:
        raise FloatRangeError(f"degree {plain_n}, q={plain_q!r}: d(a,b;q^i) leaves float64 on [{a!r}, {b!r}]")
    if {type(a), type(b), type(q), type(n)} <= {float, int}:
        _last_plan = a, b, q, n, plan
    return plan


def _x_terms(plan: _Plan, interval: Interval, x, q, columns: bool = False) -> tuple:
    """The checks and trig terms at x that _tables and _product_formula share.

    Raises InvalidIntervalError, naming q as the caller passed it, where the
    plan is not certified.  x is one point, or with columns an array of
    points too; an x that is not finite raises ValueError, and an array
    without columns TypeError.  Returns sin(x - a), cos x sin a, sin x cos a
    for the d(a, x) row, then sin(b - x), cos b sin x, sin b cos x for the
    d(x, b) row, as _kernel_row reads them.
    """
    if plan.failing is not None:
        raise InvalidIntervalError(interval.a, interval.b, q, plan.failing, plan.d_ab[plan.failing])
    a, b = interval.a, interval.b
    if isinstance(x, (float, int)):
        try:
            finite = math.isfinite(x)
        except OverflowError:  # an int beyond the float range
            finite = False
        if not finite:
            raise ValueError(f"x must be finite, got {x!r}")
        sin, cos = math.sin, math.cos
    else:
        if not columns and np.ndim(x):  # before conversion: any sequence, whatever it holds
            raise TypeError(f"x must be one point, got an array of shape {np.shape(x)}")
        x = _finite_input(x, "x must be finite")
        sin, cos = np.sin, np.cos
    sin_a, cos_a, sin_b, cos_b = plan.trig
    sin_x, cos_x = sin(x), cos(x)
    return sin(x - a), cos_x * sin_a, sin_x * cos_a, sin(b - x), cos_b * sin_x, sin_b * cos_x


def _checked_den(den: float, n: int, q) -> float:
    """den, a product of denominators d(a, b; q^i), or FloatRangeError naming n and q where it is 0 or not finite."""
    if den == 0.0 or not math.isfinite(den):
        raise FloatRangeError(f"degree {n}, q={q!r}: prod d(a,b;q^i) = {den!r} is outside float64")
    return den


def _tables(plan: _Plan, interval: Interval, x, q, columns: bool = False) -> tuple[list, list]:
    """d_ax and d_xb of kernel_tables, from the plan of (interval, q, n).

    Checks x and the certificate as _x_terms does.
    """
    sin_ax, cos_x_sin_a, sin_x_cos_a, sin_xb, cos_b_sin_x, sin_b_cos_x = _x_terms(plan, interval, x, q, columns)
    forms = plan.forms
    return (_kernel_row(forms, sin_ax, cos_x_sin_a, sin_x_cos_a),
            _kernel_row(forms, sin_xb, cos_b_sin_x, sin_b_cos_x))


def _product_formula(plan: _Plan, interval: Interval, x, q, columns: bool = False) -> list:
    """B_0..B_n of the product formula at x, formed in the kernel loop.

    B_j = row[j] * pa[j] * pb[n-j] / den, where pa[j] = prod(d_ax[:j]) and
    pb[j] = prod(d_xb[:j]), on floats or (m,) columns alike.  Checks the
    certificate and x as _x_terms does, then the product formula's own
    ranges, the row plan.row and the denominator plan.den, before any
    product is formed: on columns a failing denominator would otherwise meet
    numpy's overflow warnings first.  One pass forms each d(x,b;q^i) and
    multiplies it into its running product (u = u * d, from 1.0); a second
    forms each B_j and then multiplies d(a,x;q^j) into its running product t
    the same way.  Every entry is _kernel_row's expression, taken in its
    order from plan.forms, so each B_j is bit-identical to the chain over
    the accumulated prefix products of _tables' rows.
    """
    sin_ax, cos_x_sin_a, sin_x_cos_a, sin_xb, cos_b_sin_x, sin_b_cos_x = _x_terms(plan, interval, x, q, columns)
    row = _checked_row(plan.row, plan.n, plan.q)
    den = _checked_den(plan.den, plan.n, q)
    inner, inner_c, outer_c = plan.forms
    u = 1.0
    pb = [u]
    for p, c in zip(inner, inner_c):
        u = u * (p * sin_xb - c * cos_b_sin_x)
        pb.append(u)
    for c in outer_c:
        u = u * (sin_xb + c * sin_b_cos_x)
        pb.append(u)
    pb.reverse()  # pb[j] = prod(d_xb[:n-j]), which B_j reads
    t = 1.0
    values = []
    j = 0  # indexing row and pb is faster at small n than zipping them
    for p, c in zip(inner, inner_c):
        values.append(row[j] * t * pb[j] / den)
        t = t * (p * sin_ax - c * cos_x_sin_a)
        j += 1
    for c in outer_c:
        values.append(row[j] * t * pb[j] / den)
        t = t * (sin_ax + c * sin_x_cos_a)
        j += 1
    values.append(row[j] * t * pb[j] / den)
    return values


def certify_interval(interval: Interval, q: float, n: int) -> ValidityCertificate:
    """Certify [a, b] for degree-n work at parameter q.

    Reports whether |d(a, b; q^i)| > SINGULARITY_TOL for i = 0..n inclusive;
    kernel_tables applies the same rule and raises where this reports.  An
    inf or NaN denominator raises FloatRangeError.
    """
    plan = _plan(interval, q, n)
    return ValidityCertificate(
        interval=interval,
        q=plan.q,
        n=n,
        valid=plan.failing is None,
        min_abs_denominator=plan.min_abs,
        failing_index=plan.failing,
    )


def kernel_tables(interval: Interval, x, q: float, n: int) -> tuple[list, list, list[float]]:
    """Kernel values at the geometric powers q^0..q^(n-1).

    Returns (d_ax, d_xb, d_ab) with d_ax[i] = d(a, x; q^i) and so on: floats
    for a float x, (m,) columns bit-identical to them for an array of m
    points, and x-free floats in d_ab.  The interval is certified first, as
    certify_interval(interval, q, n) would, and InvalidIntervalError raised
    if it fails; an x that is inf or NaN raises ValueError.  Every evaluator
    in the package reads these tables from the same plan so that identical
    subexpressions are bit-identical across methods.
    """
    plan = _plan(interval, q, n)
    d_ax, d_xb = _tables(plan, interval, x, q, columns=True)
    return d_ax, d_xb, list(plan.d_ab[:plan.n])
