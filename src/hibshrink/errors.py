"""Exception and warning types shared across the package, and its count, real
and real-array rules: :func:`check_count`, :func:`check_real` and
:func:`check_reals` read every count, scalar real and real array argument."""

import math
import numbers

import numpy as np

__all__ = [
    "HibshrinkError",
    "DomainError",
    "ConvergenceError",
    "AccuracyError",
    "NumericalWarning",
    "check_count",
    "check_real",
    "check_reals",
]


class HibshrinkError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(HibshrinkError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class ConvergenceError(HibshrinkError, RuntimeError):
    """A series did not converge within the allotted number of terms."""

    def __init__(self, message: str, terms_used: int):
        super().__init__(f"{message} (terms_used={terms_used})")
        self.terms_used = terms_used


class AccuracyError(HibshrinkError, RuntimeError):
    """An adaptive routine could not meet the requested tolerance.

    Carries the best available estimate and its error bound so callers can
    decide whether the partial answer is still usable.
    """

    def __init__(self, message: str, estimate: float, error_bound: float):
        super().__init__(
            f"{message} (estimate={estimate!r}, error_bound={error_bound!r})"
        )
        self.estimate = estimate
        self.error_bound = error_bound


class NumericalWarning(UserWarning):
    """Non-fatal numerical condition (near-boundary argument, degenerate case)."""


def check_count(name: str, value: object, minimum: int) -> int:
    """``value`` as an ``int``: a Python or numpy integer >= ``minimum``.

    A ``bool``, which would pass for 1 or 0, a float or a smaller value
    raises ``DomainError`` naming ``name`` and the minimum.
    """
    if isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= minimum:
        return int(value)
    kind = {0: "a nonnegative integer", 1: "a positive integer"}.get(minimum)
    raise DomainError(f"{name} must be {kind or f'an integer >= {minimum}'}, got {value!r}")


# the intervals a real argument may be confined to: lower and upper bound,
# whether the lower bound belongs to it, and the words a refusal names it by
_INTERVALS = {
    "finite": (-math.inf, math.inf, False, "be finite"),
    "nonnegative": (0.0, math.inf, True, "be nonnegative and finite"),
    "positive": (0.0, math.inf, False, "be positive and finite"),
    "unit": (0.0, 1.0, False, "lie strictly inside (0, 1)"),
}


def check_real(name: str, value: object, interval: str = "finite") -> float:
    """``value`` as a ``float``: a Python or numpy real, an ``int`` or a
    ``Fraction`` too, that is finite and lies in ``interval``, one of
    "finite", "nonnegative", "positive" or "unit" (the open (0, 1)).

    A ``bool``, which would pass for 1.0 or 0.0, a ``str``, ``None``, NaN,
    +-inf, a value outside the interval, or an integer past the float range
    raises ``DomainError`` naming ``name`` and the interval.  A numpy scalar
    becomes a ``float`` here, so no float32 or float64 scalar reaches the
    arithmetic after it.
    """
    low, high, closed, words = _INTERVALS[interval]
    if type(value) is float:
        x = value
    elif isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:
            x = math.nan
    else:
        x = math.nan
    if low < x < high or (closed and x == low):
        return x
    raise DomainError(f"{name} must {words}, got {value!r}")


def check_reals(name: str, values: object, interval: str = "finite") -> np.ndarray:
    """``values``, an integer or float array or a sequence numpy reads as one,
    as float64 (a float64 array is not copied) once every entry is finite and
    in ``interval``, as for :func:`check_real`.  A ``bool``, string, complex or
    object dtype, or a minimum or maximum that is NaN, +-inf or outside the
    convex interval, raises ``DomainError`` naming ``name``; no mask is built."""
    low, high, closed, words = _INTERVALS[interval]
    array = np.asarray(values)
    if array.dtype.kind not in "iuf":
        raise DomainError(f"{name} must {words}, got values of dtype {array.dtype}")
    array = array.astype(float, copy=False)
    if array.size:
        # a NaN is the minimum and the maximum, and fails both comparisons
        least, most = array.min(), array.max()
        if not (low < least or (closed and least == low)):
            raise DomainError(f"{name} must {words}, got minimum {float(least)!r}")
        if not most < high:
            raise DomainError(f"{name} must {words}, got maximum {float(most)!r}")
    return array
