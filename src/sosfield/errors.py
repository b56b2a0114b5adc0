"""Shared exception types and the pass/fail result for verifiers.

Every failure mode a caller is expected to handle gets its own class, so that a
mathematical non-answer is never confused with a crash or with a real answer.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class CheckResult:
    """Outcome of an independent re-verification; falsy when the check failed."""

    ok: bool
    reason: str = "ok"

    def __bool__(self):
        return self.ok


def clipped(text, limit=40):
    """text for an error message, cut to `limit` characters plus '...'."""
    return text if len(text) <= limit else text[:limit] + "..."


class SosfieldError(Exception):
    """Base class for all package errors."""


class DegenerateInputError(SosfieldError):
    """Input violates a documented precondition (zero polynomial, empty list, ...)."""


class ZeroDivisorError(SosfieldError):
    """Inversion met a zero divisor in a quotient ring.

    Carries the discovered nontrivial factor of the modulus, so reducibility
    detected lazily is never silent.
    """

    def __init__(self, message, factor):
        super().__init__(message)
        self.factor = factor


class InfiniteValuationError(SosfieldError):
    """Valuation of zero was requested."""


class PrecisionExhaustedError(SosfieldError):
    """A lifting computation hit its precision ceiling without deciding."""


class BudgetExhaustedError(SosfieldError):
    """An enumerative search ran out of budget before finding a witness."""


class RepresentationNotFoundError(SosfieldError):
    """A bounded representation search was inconclusive.

    Raised instead of returning a possibly-wrong negative, e.g. when a
    height-bounded root search misses and the completeness check cannot rule
    roots out.
    """


class UndecidedError(SosfieldError):
    """A test could not be decided within its factoring budget."""
