"""Exception types shared across the package.

The CLI maps these onto exit codes: config problems -> 2, numeric
failures -> 3, unreadable or malformed data files -> 4.  ``row`` on
``DomainError`` and ``NumericError`` is the failing row of the stacked
argument; at ``meta`` level, where the rows are lockstep runs, it is the run.
"""


class DomainError(ValueError):
    """An argument lies outside its mathematical domain; ``row`` is the row of a stacked argument that does."""

    def __init__(self, message, row=None):
        super().__init__(message)
        self.row = row


class ShapeError(ValueError):
    """Array shapes are inconsistent with each other or the model."""


class ConfigError(ValueError):
    """A configuration document or derived setting is invalid."""


class NumericError(RuntimeError):
    """A computation produced non-finite values or failed to converge; ``row`` is the stacked row that did."""

    def __init__(self, message, row=None):
        super().__init__(message)
        self.row = row


class DataFormatError(ValueError):
    """A data file could not be parsed against its schema."""
