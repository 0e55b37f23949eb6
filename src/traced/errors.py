"""Exception hierarchy shared by all category instances and the DSL."""

from __future__ import annotations


class TracedError(Exception):
    """Base class for all errors raised by this package."""


class InstanceMismatch(TracedError):
    """Operands belong to different category instances."""


class DomainMismatch(TracedError):
    """Sources/targets do not line up for the requested operation."""


class CapabilityMissing(TracedError):
    """The instance does not provide the structure this operation needs."""


class NotEndo(TracedError):
    """An endomorphism (equal source and target) was required."""


class NotBordism(TracedError):
    """A genuine bordism was required, but an isometry was supplied."""


class NonIntegerLength(TracedError):
    """Exact field-theory evaluation needs positive integer lengths."""


class DirectedBordismRequired(TracedError):
    """Field-theory evaluation only covers bordisms whose every arc joins
    an in-point to an out-point (no caps/cups)."""


class DslError(TracedError):
    """Base class for DSL errors, carrying a source position."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        super().__init__(f"{line}:{col}: {message}" if line else message)
        self.message = message
        self.line = line
        self.col = col


class LexError(DslError):
    pass


class ParseError(DslError):
    pass


class TypecheckError(DslError):
    pass
