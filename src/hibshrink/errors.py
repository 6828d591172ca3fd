"""Exception and warning types shared across the package, and its count rule:
:func:`check_count` reads every integer count, and no other module does."""

import numbers

__all__ = [
    "HibshrinkError",
    "DomainError",
    "ConvergenceError",
    "AccuracyError",
    "NumericalWarning",
    "check_count",
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
