"""Exception types shared across the package."""


class QsphereError(Exception):
    """Base class for all package-specific errors."""


class DivisionByZero(QsphereError):
    """Division by the zero element of Q(q^(1/2))."""


class EvaluationPole(QsphereError):
    """Numeric evaluation hit a pole of the rational function."""


class NotInSubalgebra(QsphereError):
    """Element does not lie in the quantum-sphere subalgebra."""


class CutoffExceeded(QsphereError):
    """Requested data lies beyond the configured truncation cutoff."""


class ArityError(QsphereError, ValueError):
    """Mismatched tensor arity in a tensor, chain or cochain operation."""
