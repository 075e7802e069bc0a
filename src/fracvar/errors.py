"""Exception taxonomy shared across the package.

Everything numerical that can go wrong is surfaced as one of these types so
callers (and the command-line front end) can map failures onto a small set of
outcomes: bad inputs, non-convergent numerics, or violated hypotheses.
"""

from __future__ import annotations


class FracvarError(Exception):
    """Base class for every error raised by this package."""


class InvalidParam(FracvarError, ValueError):
    """A parameter is outside its admissible range or inconsistent."""


class DomainError(FracvarError, ValueError):
    """Evaluation point outside the declared domain (e.g. tau > t)."""


class SingularOrder(FracvarError, ArithmeticError):
    """1 - alpha(t) fell below the singularity threshold (1e-12)."""


class NonConvergent(FracvarError, ArithmeticError):
    """Series and fallback quadrature both failed accuracy certification."""


class DegenerateGrid(FracvarError, ValueError):
    """Grid too coarse for the requested operator."""


class InvalidGrid(FracvarError, ValueError):
    """Grid data malformed (wrong length, non-finite, inconsistent f')."""


class NewtonDivergence(FracvarError, ArithmeticError):
    """Implicit step failed to converge; carries the offending node index."""

    def __init__(self, message: str, node: int | None = None):
        super().__init__(message)
        self.node = node


class HypothesisViolation(FracvarError, ValueError):
    """Input data violates the hypotheses of the requested check."""


class BoundViolation(FracvarError, ArithmeticError):
    """An enclosure check failed; carries the first offending node index."""

    def __init__(self, message: str, node: int | None = None):
        super().__init__(message)
        self.node = node


class ExprSyntaxError(FracvarError, ValueError):
    """Expression text failed to parse; carries the byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnknownIdentifier(ExprSyntaxError):
    """Expression used a name that is neither a function nor a variable."""


class DisallowedVariable(ExprSyntaxError):
    """Expression used a variable not allowed in this context."""


class UnboundVariable(FracvarError, KeyError):
    """Expression evaluated without a binding for one of its variables."""


class DomainFault(FracvarError, ArithmeticError):
    """Expression evaluation hit a domain fault (log of nonpositive, 0^-1, ...)."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (node at offset {offset})"
        super().__init__(message)
        self.offset = offset
