"""Exception types shared across the package."""


class RabicritError(Exception):
    """Base class for all package-specific errors."""


class PhaseDomainError(RabicritError, ValueError):
    """A closed-form expression was requested outside its phase of validity."""


class ConvergenceError(RabicritError, RuntimeError):
    """Cutoff doubling or an eigensolver failed to converge."""
