"""Exception taxonomy shared by all modules.

Every error the library raises deliberately derives from ``TumaxError``,
so CLI code can map the family to an exit status in one place.
"""


class TumaxError(Exception):
    """Base class for all library errors."""


class ArithmeticOverflow(TumaxError, ArithmeticError):
    """An input matrix entry lies outside the signed 64-bit range."""


class UsageError(TumaxError, ValueError):
    """Caller violated an operation's contract (sizes, ranges, kinds)."""


class FormatError(TumaxError, ValueError):
    """Malformed input file; carries a line number when known."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class BudgetExceeded(TumaxError, RuntimeError):
    """A configured enumeration/search budget was exhausted."""


class StructureError(TumaxError, ValueError):
    """A graph input does not have the required structure (e.g. not a tree)."""


class WitnessMismatch(TumaxError, ValueError):
    """A supplied realization or certificate does not reproduce its matrix."""


class PreconditionError(TumaxError, ValueError):
    """A documented mathematical precondition does not hold for the input."""


class HypothesisError(TumaxError, ValueError):
    """A lemma hypothesis required by a transport construction fails."""
