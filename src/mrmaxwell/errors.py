"""Exception types shared across the package."""

import numbers

__all__ = ["DomainError", "ConvergenceError"]


class DomainError(ValueError):
    """Input violates a mathematical precondition (non-SPD tensor,
    non-positive determinant, negative time step, out-of-range time, ...).

    Some raisers attach context, e.g. ``min_eigenvalue`` for failed
    positive-definiteness checks.
    """

    def __init__(self, message, min_eigenvalue=None):
        super().__init__(message)
        self.min_eigenvalue = min_eigenvalue


class ConvergenceError(RuntimeError):
    """An iterative solver exhausted its iteration and substepping budget."""


def _is_number(value):
    # a bool (NumPy's too) passes as 0 or 1; a float skips the slower ABC check
    return type(value) is float or (
        isinstance(value, (int, float, numbers.Real)) and not isinstance(value, bool))


def _refuse_bools(obj, *names):
    # refuse a bool or a non-number in a field of obj
    for name in (name for name in names if not _is_number(getattr(obj, name))):
        raise DomainError(f"{name} must be a number, got {getattr(obj, name)!r}")
