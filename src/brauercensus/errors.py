"""Error types shared across the package."""


class InvariantViolation(RuntimeError):
    """An internal consistency check failed.

    Raised when a count or identity that is guaranteed by the theory does
    not hold for the computed data; it always indicates a bug or corrupted
    input, never a legitimate runtime condition.
    """


class ResourceCapExceeded(RuntimeError):
    """A computation would exceed the configured desk-scale limits."""


class UsageError(Exception):
    """A bad flag or flag value, or ``verify`` filters that select no check."""
