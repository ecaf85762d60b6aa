"""Exception types shared across the package, and the row check that raises them."""

import numpy as np


class AtomWallError(Exception):
    """Base class for every error raised by this package."""


class DomainError(AtomWallError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ConfigError(AtomWallError):
    """A model or run configuration is incomplete or inconsistent."""


class FileLocatedError(ConfigError):
    """Error tied to a location in an input file, or to a row of a model's table.

    ``row`` is the 0-based index of the offending row among those the model
    was given; the file reader turns it into ``line``.
    """

    def __init__(self, message, path=None, line=None, row=None):
        self.path = path
        self.line = line
        self.row = row
        loc = ""
        if path is not None:
            loc = f"{path}: " if line is None else f"{path}:{line}: "
        super().__init__(loc + message)


class ParseError(FileLocatedError):
    """An input file could not be read or tokenized."""


class ValidationError(FileLocatedError):
    """Parsed content violates a documented invariant."""


def _check_rows(checks: dict):
    """Raise a ValidationError for the first row false in ``checks``, a message -> row mask dict."""
    ok = np.array(list(checks.values())).reshape(len(checks), -1)   # nan fails every comparison
    if not ok.all():
        row = int(np.argmin(ok.all(axis=0)))
        raise ValidationError(list(checks)[int(np.argmin(ok[:, row]))], row=row)


class ConvergenceError(AtomWallError):
    """A quadrature or series did not converge within its budget.

    Diagnostics (last estimates, orders, term counts) are kept in the
    ``diagnostics`` dict for post-mortem inspection.
    """

    def __init__(self, message, **diagnostics):
        super().__init__(message)
        self.diagnostics = dict(diagnostics)


class UsageError(AtomWallError):
    """Operations were combined in an unsupported way."""
