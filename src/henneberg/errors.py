"""Exception types shared across the package."""


class HennebergError(Exception):
    """Base class for all package errors."""


class DomainError(HennebergError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class PeriodError(HennebergError, ValueError):
    """Weierstrass data fails the period conditions required by an operation."""


class ConvergenceError(HennebergError, RuntimeError):
    """An iterative solver failed to converge."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class StructureError(HennebergError, RuntimeError):
    """A structural expectation (perfect square, nonsingular Jacobian, ...) failed."""
