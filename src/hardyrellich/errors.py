"""Exception types shared across the toolkit."""


class ToolkitError(Exception):
    """Base class for all toolkit errors."""


class DomainError(ToolkitError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ArgumentError(ToolkitError, ValueError):
    """Structurally invalid argument (bad bounds, sign violation, ...)."""


class SupportError(ArgumentError):
    """A test function is not compactly supported where it must be."""


class CapabilityError(ToolkitError, TypeError):
    """A radial function lacks data (derivatives, samples) an operation needs."""


class EvaluationError(ToolkitError, ArithmeticError):
    """An integrand or evaluator produced a non-finite value."""


class NumericError(ToolkitError, RuntimeError):
    """An iterative numerical procedure failed to converge."""
