"""Exception hierarchy.

Two classes, one per CLI outcome: ValidationError (bad inputs or config,
exit code 2) and NumericalError (a computation that cannot be completed or
certified, exit code 3).  The message carries the details.
"""


class ZetaLabError(Exception):
    """Base class for all package errors."""


class ValidationError(ZetaLabError):
    """Invalid argument, configuration key, or file format."""


class NumericalError(ZetaLabError):
    """A numerical procedure failed or cannot certify its contract."""
