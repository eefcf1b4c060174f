"""Exception types shared across the package, and the one finite-input check."""

import numpy as np

__all__ = [
    "QTrigError",
    "InvalidIntervalError",
    "SingularDenominatorError",
    "MinorCapExceededError",
    "FloatRangeError",
]


class QTrigError(Exception):
    """Base class for domain errors raised by qtrig."""


class InvalidIntervalError(QTrigError):
    """An interval denominator d(a, b; q^i) is numerically unusable."""

    def __init__(self, a: float, b: float, q: float, failing_index: int, value: float):
        self.a = a
        self.b = b
        self.q = q
        self.failing_index = failing_index
        self.value = value
        super().__init__(
            f"interval [{a!r}, {b!r}] invalid for q={q!r}: "
            f"|d(a,b;q^{failing_index})| = {abs(value):.3e} <= 1e-12"
        )


class SingularDenominatorError(QTrigError):
    """A rational denominator sum(w_k * B_k) vanished (or nearly did)."""

    def __init__(self, x: float, denominator: float):
        self.x = x
        self.denominator = denominator
        super().__init__(
            f"rational denominator {denominator:.3e} is singular near x = {x!r}"
        )


class FloatRangeError(QTrigError):
    """A product or power the evaluation needs left the float64 range (0 or inf)."""


class MinorCapExceededError(QTrigError):
    """Exhaustive minor enumeration would exceed the hard cap."""

    def __init__(self, count: int | None, cap: int):
        """count is None when it is only known to be over cap."""
        self.count = count
        self.cap = cap
        shown = f"more than {cap}" if count is None else count
        super().__init__(
            f"matrix has {shown} square submatrices, refusing to enumerate more than {cap}"
        )


def _finite_input(values, message: str) -> np.ndarray:
    """values as a float64 array; ValueError(message) if one is inf, NaN or an int beyond the float range.

    numpy's own TypeError or ValueError for values that are not numeric, or
    ragged, passes through.
    """
    try:
        array = np.asarray(values, dtype=float)
    except OverflowError:  # an int beyond the float range
        raise ValueError(message) from None
    if not np.isfinite(array).all():
        raise ValueError(message)
    return array
