"""Exception taxonomy shared by all modules.

Every error the library raises deliberately derives from ``TumaxError``,
so CLI code can map the family to an exit status in one place. Below it
there is one class per thing a caller does differently: ``UsageError``,
``FormatError``, ``BudgetExceeded`` (exit 3) and ``PreconditionError``.
"""


class TumaxError(Exception):
    """Base class for all library errors."""


class UsageError(TumaxError, ValueError):
    """Caller violated an operation's contract (sizes, ranges, kinds, an
    entry that is no int or lies outside the signed 64-bit range)."""


class FormatError(TumaxError, ValueError):
    """Malformed input file; carries a line number when known."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class BudgetExceeded(TumaxError, RuntimeError):
    """A configured enumeration/search budget was exhausted."""


class PreconditionError(TumaxError, ValueError):
    """A documented mathematical precondition does not hold for the input:
    not TU, not a tree, a realization that does not reproduce its matrix,
    a lemma hypothesis."""
