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
