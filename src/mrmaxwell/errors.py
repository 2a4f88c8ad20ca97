"""Exception types shared across the package."""

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


def _refuse_bools(obj, *names):
    # a bool passes the number checks as 0 or 1; refuse one in a field of obj
    for name in (name for name in names if isinstance(getattr(obj, name), bool)):
        raise DomainError(f"{name} must be a number, got {getattr(obj, name)!r}")
